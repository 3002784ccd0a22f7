//! mem2reg: promotes non-escaping scalar allocas to SSA registers — the
//! classic Cytron et al. construction: phi insertion at iterated dominance
//! frontiers of the store blocks, then a rename walk over the dominator
//! tree.
//!
//! An alloca is promotable when every use is either a direct `load` or the
//! *pointer* operand of a direct `store` (no GEPs, no calls, no atomics, no
//! stores of the pointer itself) and its element count is 1. This covers the
//! accumulator slots the workload kernels allocate (`acc`, `cur`), turning
//! their load/store chains into loop-carried phis — a large, property-
//! dependent IR transformation, exactly what the augmentation wants.

use crate::pass::Pass;
use crate::passes::util::for_each_function;
use irnuma_ir::analysis::{dominance_frontiers, reachable, DomTree};
use irnuma_ir::{BlockId, Function, Instr, InstrId, Module, Opcode, Operand, Ty};
use std::collections::{BTreeSet, HashMap};

pub struct Mem2Reg;

impl Pass for Mem2Reg {
    fn name(&self) -> &'static str {
        "mem2reg"
    }

    fn run(&self, m: &mut Module) -> bool {
        for_each_function(m, run_function)
    }
}

/// Find promotable allocas: `(alloca id, element type)`.
fn promotable_allocas(f: &Function) -> Vec<(InstrId, Ty)> {
    let mut candidates: HashMap<InstrId, Ty> = HashMap::new();
    for (_, _, id) in f.iter_attached() {
        if let Opcode::Alloca { elem, count } = f.instr(id).op {
            if count == 1 && elem.is_first_class() && elem != Ty::Ptr {
                candidates.insert(id, elem);
            }
        }
    }
    if candidates.is_empty() {
        return Vec::new();
    }
    // Disqualify on any non-load/store use, or use as a store *value*.
    for (_, _, id) in f.iter_attached() {
        let instr = f.instr(id);
        for (pos, op) in instr.operands.iter().enumerate() {
            let Operand::Instr(d) = *op else { continue };
            if !candidates.contains_key(&d) {
                continue;
            }
            let ok = match instr.op {
                Opcode::Load => true,
                // store value, ptr — only the pointer position is benign.
                Opcode::Store => pos == 1,
                _ => false,
            };
            if !ok {
                candidates.remove(&d);
            }
        }
    }
    let mut out: Vec<(InstrId, Ty)> = candidates.into_iter().collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

fn zero_of(ty: Ty) -> Operand {
    if ty.is_float() {
        Operand::float(0.0)
    } else {
        Operand::ConstInt(0)
    }
}

fn run_function(f: &mut Function) -> bool {
    let allocas = promotable_allocas(f);
    if allocas.is_empty() {
        return false;
    }
    let reach = reachable(f);
    let dom = DomTree::compute(f);
    let df = dominance_frontiers(f, &dom);
    let children = dom.children();

    for (alloca_id, ty) in allocas {
        // Blocks containing stores to this alloca.
        let mut def_blocks: Vec<BlockId> = Vec::new();
        for (b, _, id) in f.iter_attached() {
            let instr = f.instr(id);
            if matches!(instr.op, Opcode::Store)
                && instr.operands[1] == Operand::Instr(alloca_id)
                && !def_blocks.contains(&b)
            {
                def_blocks.push(b);
            }
        }

        // Iterated dominance frontier → phi blocks, in `BlockId` order: the
        // phis are allocated in this order, so a hash-ordered set would make
        // their arena ids depend on the per-map hash seed.
        let mut phi_blocks: BTreeSet<BlockId> = BTreeSet::new();
        let mut work: Vec<BlockId> = def_blocks.clone();
        while let Some(b) = work.pop() {
            if !reach[b.index()] {
                continue;
            }
            for &d in &df[b.index()] {
                if phi_blocks.insert(d) {
                    work.push(d);
                }
            }
        }

        // Insert empty phis (incomings filled during the rename walk).
        let mut phi_of_block: HashMap<BlockId, InstrId> = HashMap::new();
        for &b in &phi_blocks {
            let phi = f.alloc_instr(Instr::new(Opcode::Phi, ty, Vec::new()));
            f.blocks[b.index()].instrs.insert(0, phi);
            phi_of_block.insert(b, phi);
        }

        // Rename: DFS over the dominator tree carrying the reaching value.
        // Start value: zero (allocas are zero-initialized in our semantics —
        // the interpreter zero-fills, so this is the faithful promotion).
        struct Renamer<'a> {
            f: &'a mut Function,
            alloca: InstrId,
            phi_of_block: HashMap<BlockId, InstrId>,
            children: Vec<Vec<BlockId>>,
            kills: Vec<InstrId>,
        }
        impl Renamer<'_> {
            fn walk(&mut self, b: BlockId, mut incoming: Operand) {
                if let Some(&phi) = self.phi_of_block.get(&b) {
                    incoming = Operand::Instr(phi);
                }
                let ids: Vec<InstrId> = self.f.blocks[b.index()].instrs.clone();
                for id in ids {
                    let instr = self.f.instr(id);
                    match instr.op {
                        Opcode::Load if instr.operands[0] == Operand::Instr(self.alloca) => {
                            self.f.replace_all_uses(id, incoming);
                            self.kills.push(id);
                        }
                        Opcode::Store if instr.operands[1] == Operand::Instr(self.alloca) => {
                            incoming = instr.operands[0];
                            self.kills.push(id);
                        }
                        _ => {}
                    }
                }
                // Fill phi incomings of CFG successors.
                for succ in self.f.successors(b) {
                    if let Some(&phi) = self.phi_of_block.get(&succ) {
                        let p = self.f.instr_mut(phi);
                        p.operands.push(Operand::Block(b));
                        p.operands.push(incoming);
                    }
                }
                for child in self.children[b.index()].clone() {
                    self.walk(child, incoming);
                }
            }
        }
        let mut renamer = Renamer {
            f,
            alloca: alloca_id,
            phi_of_block,
            children: children.clone(),
            kills: Vec::new(),
        };
        let entry = renamer.f.entry();
        renamer.walk(entry, zero_of(ty));
        let kills = std::mem::take(&mut renamer.kills);
        for id in kills {
            f.detach(id);
        }
        f.detach(alloca_id);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnuma_ir::builder::{fconst, iconst, FunctionBuilder};
    use irnuma_ir::{verify_function, FunctionKind};

    #[test]
    fn accumulator_alloca_becomes_loop_phi() {
        // acc = 0; for i in 0..n { acc += i }; return acc
        let mut b = FunctionBuilder::new("sum", vec![Ty::I64], Ty::I64, FunctionKind::Normal);
        let acc = b.alloca(Ty::I64, 1);
        b.store(iconst(0), acc);
        b.counted_loop(iconst(0), b.arg(0), iconst(1), |b, i| {
            let cur = b.load(Ty::I64, acc);
            let nv = b.add(Ty::I64, cur, i);
            b.store(nv, acc);
        });
        let total = b.load(Ty::I64, acc);
        b.ret(Some(total));
        let mut f = b.finish();
        assert!(run_function(&mut f));
        verify_function(&f).expect("promoted function verifies");
        // No memory ops remain.
        let mems = f
            .iter_attached()
            .filter(|&(_, _, id)| {
                matches!(f.instr(id).op, Opcode::Load | Opcode::Store | Opcode::Alloca { .. })
            })
            .count();
        assert_eq!(mems, 0, "all alloca traffic promoted");
        // A second phi (the accumulator) joined the induction phi.
        let phis =
            f.iter_attached().filter(|&(_, _, id)| matches!(f.instr(id).op, Opcode::Phi)).count();
        assert_eq!(phis, 2);
    }

    #[test]
    fn promotion_preserves_semantics_under_the_interpreter() {
        use irnuma_ir::{Interp, InterpConfig, Value};
        let build = || {
            let mut b = FunctionBuilder::new("k", vec![Ty::I64], Ty::F64, FunctionKind::Normal);
            let acc = b.alloca(Ty::F64, 1);
            b.store(fconst(1.0), acc);
            b.counted_loop(iconst(0), b.arg(0), iconst(1), |b, i| {
                let cur = b.load(Ty::F64, acc);
                let fi = b.cast(irnuma_ir::CastKind::SiToFp, Ty::F64, i);
                let nv = b.fmuladd(Ty::F64, cur, fconst(0.5), fi);
                b.store(nv, acc);
            });
            let out = b.load(Ty::F64, acc);
            b.ret(Some(out));
            let mut m = Module::new("m");
            m.add_function(b.finish());
            m
        };
        let original = build();
        let mut promoted = build();
        assert!(run_function(promoted.function_mut("k").unwrap()));
        irnuma_ir::verify_module(&promoted).unwrap();
        for n in [0i64, 1, 7, 33] {
            let mut i1 = Interp::new(&original, InterpConfig::default());
            let mut i2 = Interp::new(&promoted, InterpConfig::default());
            let r1 = i1.call("k", &[Value::I(n)]).unwrap().ret;
            let r2 = i2.call("k", &[Value::I(n)]).unwrap().ret;
            assert_eq!(r1, r2, "n={n}");
        }
    }

    #[test]
    fn escaping_and_array_allocas_are_left_alone() {
        // Array alloca (count > 1) and one whose pointer is stored: keep.
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64, FunctionKind::Normal);
        let arr = b.alloca(Ty::I64, 4);
        let p = b.gep(Ty::I64, arr, iconst(2));
        b.store(iconst(9), p);
        let v = b.load(Ty::I64, p);
        b.ret(Some(v));
        let mut f = b.finish();
        assert!(!run_function(&mut f), "gep use disqualifies");
    }

    #[test]
    fn diamond_gets_a_join_phi() {
        // if (c) x = 1 else x = 2; return x
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64, FunctionKind::Normal);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let x = b.alloca(Ty::I64, 1);
        let c = b.icmp(irnuma_ir::IntPred::Slt, b.arg(0), iconst(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.store(iconst(1), x);
        b.br(j);
        b.switch_to(e);
        b.store(iconst(2), x);
        b.br(j);
        b.switch_to(j);
        let v = b.load(Ty::I64, x);
        b.ret(Some(v));
        let mut f = b.finish();
        assert!(run_function(&mut f));
        verify_function(&f).unwrap();
        let j_first = f.blocks[3].instrs[0];
        assert!(matches!(f.instr(j_first).op, Opcode::Phi), "join phi inserted");
        assert_eq!(f.instr(j_first).phi_incomings().count(), 2);
    }

    #[test]
    fn load_before_any_store_sees_zero() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64, FunctionKind::Normal);
        let x = b.alloca(Ty::I64, 1);
        let v = b.load(Ty::I64, x); // reads the zero-init
        b.ret(Some(v));
        let mut f = b.finish();
        assert!(run_function(&mut f));
        let rt = f.terminator(f.entry()).unwrap();
        assert_eq!(f.instr(rt).operands[0], Operand::ConstInt(0));
    }
}
