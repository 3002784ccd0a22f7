//! # irnuma-nn — the deep-learning substrate
//!
//! A self-contained neural-network stack sufficient for the paper's model
//! (Fig. 2): dense f32 tensors ([`tensor::Tensor`]), a reverse-mode autograd
//! tape ([`autograd`]) with the ops a relational GCN needs (matmul, bias
//! add, relu, sparse typed-edge message passing, mean pooling, residual
//! add, layer norm, softmax cross-entropy), the RGCN graph classifier
//! ([`model::GnnModel`]) implementing the paper's Eq. 1, and an Adam trainer
//! ([`train`]) with one epoch loop over a [`stream::ShardSource`]: resident
//! graphs train as a one-shard [`stream::MemorySource`], packed corpora
//! stream through [`stream::ShardStream`]. Training gradients come from a
//! tape-free fused forward+backward engine ([`backprop`]) — per-worker
//! scratch, flat gradient buffers, deterministic tree reduction — with the
//! tape kept as its verification oracle.
//!
//! Inference ([`infer`]) runs the fused engine's forward half — the same
//! pass, on the same per-thread scratch — and copies out logits, pooled
//! embedding, softmax probabilities and confidence margin
//! ([`infer::InferOutput`]): no tape, no parameter clones, bit-for-bit
//! equal to the tape forward.
//!
//! Everything is seeded and deterministic: `GnnClassifier::fit` with the
//! same seed and data reproduces identical weights bit-for-bit (gradients
//! are reduced in a fixed order after the parallel map), and so does a
//! streamed run over the same shard layout, across interrupt and resume.

pub mod autograd;
pub mod backprop;
pub mod binfmt;
pub mod dispatch;
pub mod graphdata;
pub mod infer;
pub mod model;
pub mod stream;
pub mod tensor;
pub mod train;

pub use backprop::{FusedEngine, GradBuffer, TrainScratch};
pub use binfmt::{decode_graph, decode_graph_into, encode_graph};
pub use dispatch::{ModelPlan, SpmmStrategy};
pub use graphdata::{Csr, GraphData, GraphError};
pub use infer::InferOutput;
pub use model::{GnnConfig, GnnModel};
pub use stream::{MemorySource, RecordMap, ShardBatch, ShardSource, ShardStream, GRAPH_SHARD_KIND};
pub use tensor::Tensor;
pub use train::{CheckpointConfig, GnnClassifier, TrainCheckpoint, TrainParams};
