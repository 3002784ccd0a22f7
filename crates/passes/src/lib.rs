//! # irnuma-passes — middle-end optimization passes and flag sequences
//!
//! The paper's data-augmentation idea (step A) is that *different compiler
//! flag sequences expose different properties of a code*: dead-code
//! elimination only changes programs that contain dead code, unrolling only
//! changes programs with small constant-trip loops, and so on. Feeding the
//! differently-optimized IR forms of the same region to a GNN therefore
//! encodes those properties implicitly.
//!
//! This crate provides:
//!
//! * a [`pass::Pass`] trait and a [`PassManager`] that runs named sequences
//!   with optional post-pass verification;
//! * thirteen real middle-end passes over `irnuma-ir` (DCE, CFG
//!   simplification, constant propagation with branch folding, instruction
//!   combining, reassociation, GVN-style CSE, store-to-load forwarding, dead
//!   store elimination, phi simplification, LICM, full loop unrolling,
//!   function inlining, and sinking);
//! * a [`PassMemo`] that runs many sequences over one base module and
//!   applies each distinct `(IR state, pass)` transition once;
//! * the [`flags`] module: the `-O3`-like default pipeline and the paper's
//!   down-sampling procedure that generates random flag sequences
//!   (each pass instance removed with probability 0.8, four rounds);
//!
//! All passes preserve the IR verifier's invariants; `PassManager::run`
//! re-verifies after every pass when `verify_each` is set (tests always do).

pub mod flags;
pub mod memo;
pub mod pass;
pub mod passes;

pub use flags::{o3_sequence, sample_sequences, FlagSequence, SampleParams};
pub use memo::PassMemo;
pub use pass::{registry, run_sequence, PassManager};
