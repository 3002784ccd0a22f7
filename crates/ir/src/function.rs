//! Functions and basic blocks.

use crate::instr::{Instr, InstrId, Operand};
use crate::types::Ty;
use serde::{Deserialize, Serialize};

/// Index of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A basic block: an ordered list of instruction ids. The verifier enforces
/// that the list ends with exactly one terminator and contains none earlier.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Block {
    pub instrs: Vec<InstrId>,
}

/// What role a function plays in the module; mirrors how the paper treats
/// LLVM functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FunctionKind {
    /// Ordinary function with a body.
    Normal,
    /// OpenMP outlined parallel region (`.omp_outlined.` in LLVM); the unit
    /// the paper extracts, graphs, and optimizes.
    OmpOutlined,
    /// Body-less declaration (e.g. OpenMP runtime entry points); calls to
    /// these are opaque to the optimizer.
    Declaration,
}

/// A function: signature + instruction arena + basic blocks.
///
/// Block 0 is always the entry block. Instructions are arena-allocated and
/// never physically removed; detaching an id from every block's list erases
/// it logically (the printer, verifier and analyses only look at attached
/// instructions).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Function {
    pub name: String,
    pub params: Vec<Ty>,
    pub ret: Ty,
    pub kind: FunctionKind,
    pub blocks: Vec<Block>,
    pub instrs: Vec<Instr>,
}

impl Function {
    /// Create an empty function with one (empty) entry block.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Ty, kind: FunctionKind) -> Self {
        let blocks =
            if kind == FunctionKind::Declaration { Vec::new() } else { vec![Block::default()] };
        Function { name: name.into(), params, ret, kind, blocks, instrs: Vec::new() }
    }

    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    pub fn is_declaration(&self) -> bool {
        self.kind == FunctionKind::Declaration
    }

    /// Append a new empty block, returning its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Allocate an instruction in the arena *without* attaching it to a block.
    pub fn alloc_instr(&mut self, instr: Instr) -> InstrId {
        self.instrs.push(instr);
        InstrId((self.instrs.len() - 1) as u32)
    }

    /// Allocate and append an instruction to the end of `block`.
    pub fn push_instr(&mut self, block: BlockId, instr: Instr) -> InstrId {
        let id = self.alloc_instr(instr);
        self.blocks[block.index()].instrs.push(id);
        id
    }

    pub fn instr(&self, id: InstrId) -> &Instr {
        &self.instrs[id.index()]
    }

    pub fn instr_mut(&mut self, id: InstrId) -> &mut Instr {
        &mut self.instrs[id.index()]
    }

    /// The terminator of `block`, if the block is non-empty and properly
    /// terminated.
    pub fn terminator(&self, block: BlockId) -> Option<InstrId> {
        let last = *self.blocks[block.index()].instrs.last()?;
        self.instr(last).op.is_terminator().then_some(last)
    }

    /// Successor blocks of `block` (empty for `ret`-terminated blocks).
    pub fn successors(&self, block: BlockId) -> Vec<BlockId> {
        match self.terminator(block) {
            Some(t) => self.instr(t).successors(),
            None => Vec::new(),
        }
    }

    /// Iterate `(BlockId, &Block)` in layout order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Iterate over all attached instructions as `(block, position, id)`.
    pub fn iter_attached(&self) -> impl Iterator<Item = (BlockId, usize, InstrId)> + '_ {
        self.iter_blocks()
            .flat_map(|(bid, b)| b.instrs.iter().enumerate().map(move |(pos, &id)| (bid, pos, id)))
    }

    /// Number of attached instructions.
    pub fn num_attached(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// The block containing `id`, if attached.
    pub fn block_of(&self, id: InstrId) -> Option<BlockId> {
        self.iter_attached().find(|&(_, _, i)| i == id).map(|(b, _, _)| b)
    }

    /// Replace every use of instruction `from` (as an operand) with `to`.
    pub fn replace_all_uses(&mut self, from: InstrId, to: Operand) {
        for instr in &mut self.instrs {
            for op in &mut instr.operands {
                if *op == Operand::Instr(from) {
                    *op = to;
                }
            }
        }
    }

    /// Detach `id` from whichever block holds it. Returns true if it was
    /// attached. The arena slot survives (ids stay stable).
    pub fn detach(&mut self, id: InstrId) -> bool {
        for b in &mut self.blocks {
            if let Some(pos) = b.instrs.iter().position(|&i| i == id) {
                b.instrs.remove(pos);
                return true;
            }
        }
        false
    }

    /// Count the uses of `id` among attached instructions.
    pub fn count_uses(&self, id: InstrId) -> usize {
        self.iter_attached()
            .map(|(_, _, i)| {
                self.instr(i).operands.iter().filter(|o| **o == Operand::Instr(id)).count()
            })
            .sum()
    }

    /// Rewrite all block-label operands `from` → `to` (used by CFG
    /// simplification when redirecting edges).
    pub fn replace_block_refs(&mut self, from: BlockId, to: BlockId) {
        for instr in &mut self.instrs {
            for op in &mut instr.operands {
                if *op == Operand::Block(from) {
                    *op = Operand::Block(to);
                }
            }
        }
    }

    /// Compact the instruction arena: drop detached instructions and renumber
    /// the attached ones in layout order. Also drops unreachable blocks'
    /// instructions if `reachable_only` lists the blocks to keep (in the new
    /// order). Returns nothing; ids are rewritten in place.
    ///
    /// Passes call this at pipeline end so serialized modules stay small.
    pub fn compact(&mut self) {
        let mut new_instrs = Vec::with_capacity(self.num_attached());
        let mut remap = vec![None::<InstrId>; self.instrs.len()];
        // First pass: assign new ids in layout order.
        for (_, _, id) in self.iter_attached() {
            if remap[id.index()].is_none() {
                remap[id.index()] = Some(InstrId(new_instrs.len() as u32));
                new_instrs.push(self.instrs[id.index()].clone());
            }
        }
        // Second pass: rewrite operand references and block lists.
        for instr in &mut new_instrs {
            for op in &mut instr.operands {
                if let Operand::Instr(old) = *op {
                    *op = Operand::Instr(
                        remap[old.index()].expect("operand refers to detached instruction"),
                    );
                }
            }
        }
        for b in &mut self.blocks {
            for id in &mut b.instrs {
                *id = remap[id.index()].expect("attached instruction must be remapped");
            }
        }
        self.instrs = new_instrs;
    }

    /// Drop empty non-entry blocks and renumber the rest, rewriting all
    /// block-label operands. Callers must ensure no attached instruction
    /// still references a dropped block (true once unreachable blocks have
    /// been cleared and their phi incomings removed).
    pub fn compact_blocks(&mut self) {
        let keep: Vec<bool> =
            self.blocks.iter().enumerate().map(|(i, b)| i == 0 || !b.instrs.is_empty()).collect();
        if keep.iter().all(|&k| k) {
            return;
        }
        let mut remap = vec![None::<BlockId>; self.blocks.len()];
        let mut new_blocks = Vec::with_capacity(self.blocks.len());
        for (i, b) in self.blocks.iter().enumerate() {
            if keep[i] {
                remap[i] = Some(BlockId(new_blocks.len() as u32));
                new_blocks.push(b.clone());
            }
        }
        for instr in &mut self.instrs {
            for op in &mut instr.operands {
                if let Operand::Block(b) = *op {
                    *op = Operand::Block(
                        remap[b.index()].expect("reference to dropped (empty) block"),
                    );
                }
            }
        }
        self.blocks = new_blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Opcode, Operand};

    fn add_const(f: &mut Function, b: BlockId, a: i64, c: i64) -> InstrId {
        f.push_instr(
            b,
            Instr::new(Opcode::Add, Ty::I64, vec![Operand::ConstInt(a), Operand::ConstInt(c)]),
        )
    }

    #[test]
    fn entry_block_exists() {
        let f = Function::new("f", vec![Ty::I64], Ty::Void, FunctionKind::Normal);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.entry(), BlockId(0));
    }

    #[test]
    fn declarations_have_no_blocks() {
        let f = Function::new("ext", vec![], Ty::Void, FunctionKind::Declaration);
        assert!(f.is_declaration());
        assert!(f.blocks.is_empty());
    }

    #[test]
    fn push_attach_detach() {
        let mut f = Function::new("f", vec![], Ty::Void, FunctionKind::Normal);
        let e = f.entry();
        let i = add_const(&mut f, e, 1, 2);
        assert_eq!(f.num_attached(), 1);
        assert_eq!(f.block_of(i), Some(e));
        assert!(f.detach(i));
        assert_eq!(f.num_attached(), 0);
        assert!(!f.detach(i), "double detach is a no-op");
        assert_eq!(f.block_of(i), None);
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let mut f = Function::new("f", vec![], Ty::Void, FunctionKind::Normal);
        let e = f.entry();
        let a = add_const(&mut f, e, 1, 2);
        let b = f.push_instr(
            e,
            Instr::new(Opcode::Mul, Ty::I64, vec![Operand::Instr(a), Operand::Instr(a)]),
        );
        assert_eq!(f.count_uses(a), 2);
        f.replace_all_uses(a, Operand::ConstInt(3));
        assert_eq!(f.count_uses(a), 0);
        assert_eq!(f.instr(b).operands, vec![Operand::ConstInt(3), Operand::ConstInt(3)]);
    }

    #[test]
    fn successors_follow_terminators() {
        let mut f = Function::new("f", vec![], Ty::Void, FunctionKind::Normal);
        let e = f.entry();
        let b1 = f.add_block();
        let b2 = f.add_block();
        let cond = f.push_instr(
            e,
            Instr::new(
                Opcode::Icmp(crate::instr::IntPred::Eq),
                Ty::I1,
                vec![Operand::ConstInt(0), Operand::ConstInt(0)],
            ),
        );
        f.push_instr(
            e,
            Instr::new(
                Opcode::CondBr,
                Ty::Void,
                vec![Operand::Instr(cond), Operand::Block(b1), Operand::Block(b2)],
            ),
        );
        f.push_instr(b1, Instr::new(Opcode::Ret, Ty::Void, vec![]));
        f.push_instr(b2, Instr::new(Opcode::Ret, Ty::Void, vec![]));
        assert_eq!(f.successors(e), vec![b1, b2]);
        assert!(f.successors(b1).is_empty());
        assert!(f.terminator(e).is_some());
    }

    #[test]
    fn compact_renumbers_and_drops_detached() {
        let mut f = Function::new("f", vec![], Ty::Void, FunctionKind::Normal);
        let e = f.entry();
        let a = add_const(&mut f, e, 1, 2);
        let dead = add_const(&mut f, e, 9, 9);
        let m = f.push_instr(
            e,
            Instr::new(Opcode::Mul, Ty::I64, vec![Operand::Instr(a), Operand::ConstInt(4)]),
        );
        f.push_instr(e, Instr::new(Opcode::Ret, Ty::Void, vec![]));
        f.detach(dead);
        assert_eq!(f.instrs.len(), 4);
        f.compact();
        assert_eq!(f.instrs.len(), 3, "detached instr dropped");
        // `m` was arena slot 2; after compaction the mul is slot 1 and its
        // operand refers to the re-numbered add at slot 0.
        let _ = m;
        assert_eq!(f.instr(InstrId(1)).op, Opcode::Mul);
        assert_eq!(f.instr(InstrId(1)).operands[0], Operand::Instr(InstrId(0)));
    }

    #[test]
    fn replace_block_refs_redirects_branches() {
        let mut f = Function::new("f", vec![], Ty::Void, FunctionKind::Normal);
        let e = f.entry();
        let b1 = f.add_block();
        let b2 = f.add_block();
        f.push_instr(e, Instr::new(Opcode::Br, Ty::Void, vec![Operand::Block(b1)]));
        f.push_instr(b1, Instr::new(Opcode::Ret, Ty::Void, vec![]));
        f.push_instr(b2, Instr::new(Opcode::Ret, Ty::Void, vec![]));
        f.replace_block_refs(b1, b2);
        assert_eq!(f.successors(e), vec![b2]);
    }
}
