//! Memoized pass pipelines: run many flag sequences over one base module and
//! apply each distinct `(IR state, pass)` transition once.
//!
//! Step A compiles a region under hundreds of sampled sequences, and those
//! sequences share long prefixes and converge on few IR forms: a pass that
//! finds nothing to do leaves its input unchanged, and different orders
//! often meet in the same module. [`PassMemo`] interns every module it
//! reaches by exact structural equality ([`Module`]'s `Eq`, floats compared
//! by bits, arenas and detached instructions included) and keeps one
//! transition table per interned state. A sequence walks the table and runs
//! a pass only on a `(state, pass)` pair no earlier sequence reached.
//!
//! This is sound because a pass is a deterministic function of the whole
//! `Module` value: it reads nothing else, and its iteration orders do not
//! depend on per-map hash seeds. Every step goes through
//! [`PassManager::apply`] and [`PassManager::finish`], the same code
//! [`PassManager::run`] executes, so a memoized sequence ends in the module
//! `PassManager::run` would produce.

use crate::pass::{pass_index, registry, Pass, PassError, PassManager};
use irnuma_ir::Module;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A transition not computed yet.
const UNKNOWN: u32 = u32::MAX;

/// Interned IR states of one base module and the transitions between them.
pub struct PassMemo<'a> {
    pm: &'a PassManager,
    passes: Vec<Box<dyn Pass>>,
    /// Interned states by id; state 0 is the base module.
    states: Vec<Module>,
    /// State hash → the newest state with that hash; `chain[s]` is the
    /// next older state sharing `s`'s hash (`UNKNOWN` ends the chain).
    index: HashMap<u64, u32, BuildHasherDefault<FxHasher>>,
    chain: Vec<u32>,
    /// `next[s * stride + p]`: the state pass `p` takes state `s` to, with
    /// the last column (`p == passes.len()`) for [`PassManager::finish`].
    next: Vec<u32>,
    stride: usize,
    applied: usize,
    reused: usize,
}

impl<'a> PassMemo<'a> {
    /// A memo whose sequences all start from `base`.
    pub fn new(pm: &'a PassManager, base: Module) -> Self {
        let passes = registry();
        let stride = passes.len() + 1;
        let mut memo = PassMemo {
            pm,
            passes,
            states: Vec::new(),
            index: HashMap::default(),
            chain: Vec::new(),
            next: Vec::new(),
            stride,
            applied: 0,
            reused: 0,
        };
        memo.intern(base);
        memo
    }

    /// Run the named sequence from the base module and finish it, as
    /// [`PassManager::run`] does. Returns the id of the final state; its
    /// module is [`PassMemo::state`]. A failing sequence reports the same
    /// error `PassManager::run` would and leaves the memo usable.
    pub fn run(&mut self, sequence: &[String]) -> Result<usize, PassError> {
        let mut s = 0;
        for name in sequence {
            s = self.step(s, pass_index(&self.passes, name)?)?;
        }
        self.step(s, self.passes.len()).map(|s| s as usize)
    }

    /// The module of state `id`.
    pub fn state(&self, id: usize) -> &Module {
        &self.states[id]
    }

    /// Distinct states interned so far (the base module included).
    pub fn states(&self) -> usize {
        self.states.len()
    }

    /// Pass applications actually run.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Pass applications answered from the transition table.
    pub fn reused(&self) -> usize {
        self.reused
    }

    /// The state column `p` takes state `s` to, computing and interning it
    /// on first use.
    fn step(&mut self, s: u32, p: usize) -> Result<u32, PassError> {
        let slot = s as usize * self.stride + p;
        let known = self.next[slot];
        let is_pass = p < self.passes.len();
        if known != UNKNOWN {
            self.reused += usize::from(is_pass);
            return Ok(known);
        }
        let mut m = self.states[s as usize].clone();
        let unchanged = if is_pass {
            self.applied += 1;
            !self.pm.apply(self.passes[p].as_ref(), &mut m)?
        } else {
            self.pm.finish(&mut m)?;
            false
        };
        // A pass that reports no change usually leaves its input as it was;
        // confirming that by `==` spares hashing the module.
        let t = if unchanged && m == self.states[s as usize] { s } else { self.intern(m) };
        self.next[slot] = t;
        Ok(t)
    }

    /// The id of the state equal to `m`, adding it if it is new.
    fn intern(&mut self, m: Module) -> u32 {
        let mut h = FxHasher::default();
        m.hash(&mut h);
        let h = h.finish();
        let mut at = self.index.get(&h).copied().unwrap_or(UNKNOWN);
        while at != UNKNOWN {
            if self.states[at as usize] == m {
                return at;
            }
            at = self.chain[at as usize];
        }
        let id = self.states.len() as u32;
        self.chain.push(self.index.insert(h, id).unwrap_or(UNKNOWN));
        self.states.push(m);
        self.next.resize(self.next.len() + self.stride, UNKNOWN);
        id
    }
}

/// The multiply-rotate word hash of rustc's `FxHasher`: one multiply per
/// word, against SipHash's rounds. The memo confirms every hash match with
/// `==`, so it needs speed from its hash, not collision resistance.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::{sample_sequences, SampleParams};
    use irnuma_ir::builder::{fconst, iconst, FunctionBuilder};
    use irnuma_ir::{FunctionKind, Ty};

    /// A loop with an alloca accumulator, a dead multiply, a foldable
    /// constant and a float constant: something for most passes to do.
    fn module() -> Module {
        let mut m = Module::new("memo");
        let g = m.add_global("a", Ty::F64, 64);
        let mut b = FunctionBuilder::new("k", vec![Ty::I64], Ty::F64, FunctionKind::Normal);
        let acc = b.alloca(Ty::F64, 1);
        b.store(fconst(-0.0), acc);
        let _dead = b.mul(Ty::I64, iconst(6), iconst(7));
        b.counted_loop(iconst(0), b.arg(0), iconst(1), |b, i| {
            let p = b.gep(Ty::F64, irnuma_ir::Operand::Global(g), i);
            let x = b.load(Ty::F64, p);
            let cur = b.load(Ty::F64, acc);
            let s = b.fadd(Ty::F64, cur, x);
            b.store(s, acc);
        });
        let total = b.load(Ty::F64, acc);
        b.ret(Some(total));
        m.add_function(b.finish());
        m
    }

    fn names(seq: &[&str]) -> Vec<String> {
        seq.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn memoized_sequences_end_where_the_pass_manager_does() {
        let pm = PassManager::new(true);
        let base = module();
        let mut seqs: Vec<Vec<String>> = sample_sequences(40, 7, SampleParams::default())
            .into_iter()
            .map(|s| s.passes)
            .collect();
        seqs.push(Vec::new());
        seqs.push(names(&["dce", "dce", "mem2reg", "mem2reg", "dce"]));
        seqs.push(names(&["mem2reg", "constprop", "instcombine", "gvn", "dce", "mem2reg"]));
        let mut memo = PassMemo::new(&pm, base.clone());
        // Twice over: the second round is answered from the table.
        for round in 0..2 {
            for seq in &seqs {
                let mut want = base.clone();
                pm.run(&mut want, seq).unwrap();
                let id = memo.run(seq).unwrap();
                assert!(memo.state(id) == &want, "round {round}: {seq:?}");
            }
        }
        let total: usize = seqs.iter().map(Vec::len).sum();
        assert_eq!(memo.applied() + memo.reused(), 2 * total);
        assert!(memo.applied() < total, "{} of {total} applications ran", memo.applied());
    }

    #[test]
    fn an_unknown_pass_fails_its_sequence_and_leaves_the_memo_usable() {
        let pm = PassManager::new(true);
        let mut memo = PassMemo::new(&pm, module());
        let err = memo.run(&names(&["dce", "no-such-pass"])).unwrap_err();
        assert!(matches!(err, PassError::UnknownPass(ref n) if n == "no-such-pass"), "{err}");
        let id = memo.run(&names(&["dce"])).unwrap();
        let mut want = module();
        pm.run(&mut want, &names(&["dce"])).unwrap();
        assert!(memo.state(id) == &want);
    }

    #[test]
    fn states_differing_only_in_float_bits_stay_distinct() {
        let pm = PassManager::new(true);
        let mut memo = PassMemo::new(&pm, module());
        let mut other = module();
        for i in &mut other.functions[0].instrs {
            for op in &mut i.operands {
                if *op == irnuma_ir::Operand::float(-0.0) {
                    *op = irnuma_ir::Operand::float(0.0);
                }
            }
        }
        assert_ne!(memo.intern(other), 0, "+0.0 and -0.0 are different modules");
        assert_eq!(memo.intern(module()), 0);
        assert_eq!(memo.states(), 2);
    }
}
