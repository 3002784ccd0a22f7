//! Property tests that hold the library's one RGCN implementation to the
//! autograd tape. They live in the crate because the tape is compiled into
//! test builds only.

mod infer_equivalence;
mod proptest_autograd;
mod proptest_backprop;
