//! Instructions, opcodes, and operands.
//!
//! Instructions live in a per-function arena ([`crate::Function::instrs`])
//! and are referenced by [`InstrId`]. Basic blocks hold ordered lists of
//! `InstrId`s; an instruction not referenced by any block is *detached*
//! (the moral equivalent of an erased LLVM instruction) and is skipped by
//! the printer and the verifier.

use crate::types::Ty;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of an instruction in its function's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstrId(pub u32);

impl InstrId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Integer comparison predicate (subset of LLVM `icmp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
}

impl IntPred {
    pub fn keyword(self) -> &'static str {
        match self {
            IntPred::Eq => "eq",
            IntPred::Ne => "ne",
            IntPred::Slt => "slt",
            IntPred::Sle => "sle",
            IntPred::Sgt => "sgt",
            IntPred::Sge => "sge",
        }
    }

    pub fn from_keyword(s: &str) -> Option<Self> {
        Some(match s {
            "eq" => IntPred::Eq,
            "ne" => IntPred::Ne,
            "slt" => IntPred::Slt,
            "sle" => IntPred::Sle,
            "sgt" => IntPred::Sgt,
            "sge" => IntPred::Sge,
            _ => return None,
        })
    }

    /// Evaluate the predicate on two signed integers.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            IntPred::Eq => a == b,
            IntPred::Ne => a != b,
            IntPred::Slt => a < b,
            IntPred::Sle => a <= b,
            IntPred::Sgt => a > b,
            IntPred::Sge => a >= b,
        }
    }

    /// The predicate with swapped operand order (`a P b == b P.swapped() a`).
    pub fn swapped(self) -> Self {
        match self {
            IntPred::Eq => IntPred::Eq,
            IntPred::Ne => IntPred::Ne,
            IntPred::Slt => IntPred::Sgt,
            IntPred::Sle => IntPred::Sge,
            IntPred::Sgt => IntPred::Slt,
            IntPred::Sge => IntPred::Sle,
        }
    }
}

/// Floating-point comparison predicate (ordered subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FloatPred {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
}

impl FloatPred {
    pub fn keyword(self) -> &'static str {
        match self {
            FloatPred::Oeq => "oeq",
            FloatPred::One => "one",
            FloatPred::Olt => "olt",
            FloatPred::Ole => "ole",
            FloatPred::Ogt => "ogt",
            FloatPred::Oge => "oge",
        }
    }

    pub fn from_keyword(s: &str) -> Option<Self> {
        Some(match s {
            "oeq" => FloatPred::Oeq,
            "one" => FloatPred::One,
            "olt" => FloatPred::Olt,
            "ole" => FloatPred::Ole,
            "ogt" => FloatPred::Ogt,
            "oge" => FloatPred::Oge,
            _ => return None,
        })
    }

    /// Evaluate the ordered predicate (false if either operand is NaN).
    pub fn eval(self, a: f64, b: f64) -> bool {
        if a.is_nan() || b.is_nan() {
            return false;
        }
        match self {
            FloatPred::Oeq => a == b,
            FloatPred::One => a != b,
            FloatPred::Olt => a < b,
            FloatPred::Ole => a <= b,
            FloatPred::Ogt => a > b,
            FloatPred::Oge => a >= b,
        }
    }
}

/// Cast kinds (subset of LLVM cast instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CastKind {
    /// Integer truncation to a narrower integer type.
    Trunc,
    /// Zero extension to a wider integer type.
    Zext,
    /// Sign extension to a wider integer type.
    Sext,
    /// Float → signed integer.
    FpToSi,
    /// Signed integer → float.
    SiToFp,
    /// Float precision change (f32 ⇄ f64).
    FpCast,
    /// Reinterpret bits (same size).
    Bitcast,
}

impl CastKind {
    pub fn keyword(self) -> &'static str {
        match self {
            CastKind::Trunc => "trunc",
            CastKind::Zext => "zext",
            CastKind::Sext => "sext",
            CastKind::FpToSi => "fptosi",
            CastKind::SiToFp => "sitofp",
            CastKind::FpCast => "fpcast",
            CastKind::Bitcast => "bitcast",
        }
    }

    pub fn from_keyword(s: &str) -> Option<Self> {
        Some(match s {
            "trunc" => CastKind::Trunc,
            "zext" => CastKind::Zext,
            "sext" => CastKind::Sext,
            "fptosi" => CastKind::FpToSi,
            "sitofp" => CastKind::SiToFp,
            "fpcast" => CastKind::FpCast,
            "bitcast" => CastKind::Bitcast,
            _ => return None,
        })
    }
}

/// Atomic read-modify-write operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RmwOp {
    Add,
    Min,
    Max,
    Xchg,
}

impl RmwOp {
    pub fn keyword(self) -> &'static str {
        match self {
            RmwOp::Add => "add",
            RmwOp::Min => "min",
            RmwOp::Max => "max",
            RmwOp::Xchg => "xchg",
        }
    }

    pub fn from_keyword(s: &str) -> Option<Self> {
        Some(match s {
            "add" => RmwOp::Add,
            "min" => RmwOp::Min,
            "max" => RmwOp::Max,
            "xchg" => RmwOp::Xchg,
            _ => return None,
        })
    }
}

/// An operand of an instruction.
///
/// Constants are immediate operands (as in LLVM) rather than instructions;
/// the graph builder in `irnuma-graph` materializes them as constant nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// Result of another instruction in the same function.
    Instr(InstrId),
    /// Function parameter, by index.
    Arg(u32),
    /// Integer immediate (type inferred from the using instruction).
    ConstInt(i64),
    /// Float immediate, stored as IEEE-754 bits so operands are `Eq + Hash`.
    ConstFloat(u64),
    /// Address of a module global.
    Global(crate::module::GlobalId),
    /// Basic-block label (branch targets, phi incoming blocks).
    Block(crate::function::BlockId),
}

impl Operand {
    /// Build a float immediate from an `f64`.
    pub fn float(v: f64) -> Operand {
        Operand::ConstFloat(v.to_bits())
    }

    /// The float value of a `ConstFloat` operand.
    pub fn as_float(self) -> Option<f64> {
        match self {
            Operand::ConstFloat(bits) => Some(f64::from_bits(bits)),
            _ => None,
        }
    }

    pub fn as_int(self) -> Option<i64> {
        match self {
            Operand::ConstInt(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_instr(self) -> Option<InstrId> {
        match self {
            Operand::Instr(id) => Some(id),
            _ => None,
        }
    }

    pub fn as_block(self) -> Option<crate::function::BlockId> {
        match self {
            Operand::Block(b) => Some(b),
            _ => None,
        }
    }

    /// Whether the operand is a compile-time constant.
    pub fn is_const(self) -> bool {
        matches!(self, Operand::ConstInt(_) | Operand::ConstFloat(_))
    }
}

/// Instruction opcode. Payload-free data (operands) lives in
/// [`Instr::operands`]; structural payloads (callee name, predicates, cast
/// kinds, alloca shape) live here because they are part of the operation's
/// identity, which keeps CSE and the printer simple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Opcode {
    // Integer arithmetic (operands: lhs, rhs).
    Add,
    Sub,
    Mul,
    SDiv,
    SRem,
    // Float arithmetic.
    FAdd,
    FSub,
    FMul,
    FDiv,
    // Bitwise / shifts.
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
    /// Fused multiply-add `a*b + c` (models `llvm.fma`); 3 operands.
    FMulAdd,
    /// Integer compare; result `i1`.
    Icmp(IntPred),
    /// Ordered float compare; result `i1`.
    Fcmp(FloatPred),
    /// Stack allocation of `count` elements of type `elem`; result `ptr`.
    Alloca {
        elem: Ty,
        count: u64,
    },
    /// Load through operand 0 (a pointer); result type is the instr type.
    Load,
    /// Store operand 0 to pointer operand 1; no result.
    Store,
    /// Address arithmetic: `base + index * elem_size` (operands: base, index).
    Gep {
        elem_size: u64,
    },
    /// Atomic read-modify-write on pointer operand 0 with operand 1.
    AtomicRmw(RmwOp),
    /// Unconditional branch to block operand 0.
    Br,
    /// Conditional branch: cond, then-block, else-block.
    CondBr,
    /// Return; zero or one value operand.
    Ret,
    /// SSA phi: operands alternate (block, value) pairs.
    Phi,
    /// Direct call to a named function; operands are arguments.
    Call {
        callee: String,
    },
    /// `cond ? a : b` (operands: cond, a, b).
    Select,
    /// Type cast of operand 0.
    Cast(CastKind),
}

impl Opcode {
    /// Whether this opcode terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Opcode::Br | Opcode::CondBr | Opcode::Ret)
    }

    /// Whether the instruction reads or writes memory (or otherwise has side
    /// effects), i.e. must not be removed by DCE when its value is unused
    /// and must not be CSE'd / hoisted freely.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, Opcode::Store | Opcode::AtomicRmw(_) | Opcode::Call { .. })
            || self.is_terminator()
    }

    /// Whether the instruction reads memory (loads are pure but
    /// order-sensitive with respect to stores).
    pub fn reads_memory(&self) -> bool {
        matches!(self, Opcode::Load | Opcode::AtomicRmw(_) | Opcode::Call { .. })
    }

    /// Whether two instructions with this opcode and identical operands
    /// compute identical values (candidates for CSE / GVN).
    pub fn is_pure(&self) -> bool {
        !self.has_side_effects()
            && !self.reads_memory()
            && !matches!(self, Opcode::Phi | Opcode::Alloca { .. })
    }

    /// Whether the binary operation is commutative.
    pub fn is_commutative(&self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Mul
                | Opcode::FAdd
                | Opcode::FMul
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
        )
    }

    /// Whether this is a binary arithmetic/bitwise operation.
    pub fn is_binary(&self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Sub
                | Opcode::Mul
                | Opcode::SDiv
                | Opcode::SRem
                | Opcode::FAdd
                | Opcode::FSub
                | Opcode::FMul
                | Opcode::FDiv
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::Shl
                | Opcode::LShr
                | Opcode::AShr
        )
    }

    /// Mnemonic used by the printer and the graph node vocabulary.
    pub fn mnemonic(&self) -> String {
        match self {
            Opcode::Add => "add".into(),
            Opcode::Sub => "sub".into(),
            Opcode::Mul => "mul".into(),
            Opcode::SDiv => "sdiv".into(),
            Opcode::SRem => "srem".into(),
            Opcode::FAdd => "fadd".into(),
            Opcode::FSub => "fsub".into(),
            Opcode::FMul => "fmul".into(),
            Opcode::FDiv => "fdiv".into(),
            Opcode::And => "and".into(),
            Opcode::Or => "or".into(),
            Opcode::Xor => "xor".into(),
            Opcode::Shl => "shl".into(),
            Opcode::LShr => "lshr".into(),
            Opcode::AShr => "ashr".into(),
            Opcode::FMulAdd => "fmuladd".into(),
            Opcode::Icmp(p) => format!("icmp.{}", p.keyword()),
            Opcode::Fcmp(p) => format!("fcmp.{}", p.keyword()),
            Opcode::Alloca { .. } => "alloca".into(),
            Opcode::Load => "load".into(),
            Opcode::Store => "store".into(),
            Opcode::Gep { .. } => "gep".into(),
            Opcode::AtomicRmw(op) => format!("atomicrmw.{}", op.keyword()),
            Opcode::Br => "br".into(),
            Opcode::CondBr => "condbr".into(),
            Opcode::Ret => "ret".into(),
            Opcode::Phi => "phi".into(),
            Opcode::Call { .. } => "call".into(),
            Opcode::Select => "select".into(),
            Opcode::Cast(k) => k.keyword().into(),
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

/// A single instruction: opcode + result type + operand list.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instr {
    pub op: Opcode,
    /// Result type (`Void` for stores/branches).
    pub ty: Ty,
    pub operands: Vec<Operand>,
}

impl Instr {
    pub fn new(op: Opcode, ty: Ty, operands: Vec<Operand>) -> Self {
        Instr { op, ty, operands }
    }

    /// Iterate over operands that are instruction results.
    pub fn instr_operands(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.operands.iter().filter_map(|o| o.as_instr())
    }

    /// Iterate over phi incomings as `(block, value)` pairs.
    /// Panics if called on a non-phi.
    pub fn phi_incomings(&self) -> impl Iterator<Item = (crate::function::BlockId, Operand)> + '_ {
        assert!(matches!(self.op, Opcode::Phi), "phi_incomings on non-phi");
        self.operands.chunks(2).map(|c| {
            let b = c[0].as_block().expect("phi incoming block");
            (b, c[1])
        })
    }

    /// Successor blocks if this is a terminator.
    pub fn successors(&self) -> Vec<crate::function::BlockId> {
        match self.op {
            Opcode::Br => vec![self.operands[0].as_block().expect("br target")],
            Opcode::CondBr => vec![
                self.operands[1].as_block().expect("condbr then"),
                self.operands[2].as_block().expect("condbr else"),
            ],
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_evaluate() {
        assert!(IntPred::Slt.eval(-3, 2));
        assert!(!IntPred::Sgt.eval(-3, 2));
        assert!(IntPred::Eq.eval(7, 7));
        assert!(FloatPred::Olt.eval(1.0, 2.0));
        assert!(!FloatPred::Oeq.eval(f64::NAN, f64::NAN));
        assert!(!FloatPred::One.eval(f64::NAN, 1.0), "ordered preds are false on NaN");
    }

    #[test]
    fn swapped_predicate_is_consistent() {
        let pairs = [(3i64, 5i64), (5, 3), (4, 4), (-1, 1)];
        for p in [IntPred::Eq, IntPred::Ne, IntPred::Slt, IntPred::Sle, IntPred::Sgt, IntPred::Sge]
        {
            for (a, b) in pairs {
                assert_eq!(p.eval(a, b), p.swapped().eval(b, a), "{p:?} {a} {b}");
            }
        }
    }

    #[test]
    fn opcode_classification() {
        assert!(Opcode::Br.is_terminator());
        assert!(Opcode::Ret.is_terminator());
        assert!(!Opcode::Add.is_terminator());
        assert!(Opcode::Store.has_side_effects());
        assert!(!Opcode::Load.has_side_effects());
        assert!(Opcode::Load.reads_memory());
        assert!(Opcode::Add.is_pure());
        assert!(!Opcode::Load.is_pure());
        assert!(!Opcode::Phi.is_pure());
        assert!(!Opcode::Alloca { elem: Ty::I32, count: 1 }.is_pure());
        assert!(Opcode::Add.is_commutative());
        assert!(!Opcode::Sub.is_commutative());
        assert!(Opcode::Shl.is_binary());
        assert!(!Opcode::Select.is_binary());
    }

    #[test]
    fn float_operand_round_trips_bits() {
        let v = -1234.5678e-9;
        assert_eq!(Operand::float(v).as_float(), Some(v));
        // NaN payloads are preserved because we store raw bits.
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        assert_eq!(Operand::float(nan).as_float().map(f64::to_bits), Some(nan.to_bits()));
    }

    #[test]
    fn successors_of_terminators() {
        use crate::function::BlockId;
        let br = Instr::new(Opcode::Br, Ty::Void, vec![Operand::Block(BlockId(3))]);
        assert_eq!(br.successors(), vec![BlockId(3)]);
        let cbr = Instr::new(
            Opcode::CondBr,
            Ty::Void,
            vec![Operand::ConstInt(1), Operand::Block(BlockId(1)), Operand::Block(BlockId(2))],
        );
        assert_eq!(cbr.successors(), vec![BlockId(1), BlockId(2)]);
        let add =
            Instr::new(Opcode::Add, Ty::I64, vec![Operand::ConstInt(1), Operand::ConstInt(2)]);
        assert!(add.successors().is_empty());
    }

    #[test]
    fn keyword_round_trips() {
        for p in [IntPred::Eq, IntPred::Ne, IntPred::Slt, IntPred::Sle, IntPred::Sgt, IntPred::Sge]
        {
            assert_eq!(IntPred::from_keyword(p.keyword()), Some(p));
        }
        for p in [
            FloatPred::Oeq,
            FloatPred::One,
            FloatPred::Olt,
            FloatPred::Ole,
            FloatPred::Ogt,
            FloatPred::Oge,
        ] {
            assert_eq!(FloatPred::from_keyword(p.keyword()), Some(p));
        }
        for c in [
            CastKind::Trunc,
            CastKind::Zext,
            CastKind::Sext,
            CastKind::FpToSi,
            CastKind::SiToFp,
            CastKind::FpCast,
            CastKind::Bitcast,
        ] {
            assert_eq!(CastKind::from_keyword(c.keyword()), Some(c));
        }
        for r in [RmwOp::Add, RmwOp::Min, RmwOp::Max, RmwOp::Xchg] {
            assert_eq!(RmwOp::from_keyword(r.keyword()), Some(r));
        }
    }
}
