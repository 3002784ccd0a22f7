//! # irnuma-nn — the deep-learning substrate
//!
//! A self-contained neural-network stack sufficient for the paper's model
//! (Fig. 2): dense f32 tensors ([`tensor::Tensor`]) and shape-dispatched
//! kernels ([`dispatch`]), the RGCN graph classifier ([`model::GnnModel`])
//! implementing the paper's Eq. 1, and an Adam trainer ([`train`]) with one
//! epoch loop over a [`stream::ShardSource`]: resident graphs train as a
//! one-shard [`stream::MemorySource`], packed corpora stream through
//! [`stream::ShardStream`].
//!
//! The library holds one implementation of the model. Training gradients
//! come from the fused forward+backward engine ([`backprop`]) — per-worker
//! scratch, flat gradient buffers, deterministic tree reduction — and
//! inference ([`infer`]) runs the same engine's forward half on the same
//! per-thread scratch, copying out logits, pooled embedding, softmax
//! probabilities and confidence margin ([`infer::InferOutput`]) without
//! cloning a parameter.
//!
//! Test builds add a second implementation as an oracle: a reverse-mode
//! autograd tape (`autograd`) with one op per step of the model (matmul,
//! bias add, relu, sparse typed-edge message passing, mean pooling,
//! residual add, layer norm, softmax cross-entropy). The tests in
//! `oracle_tests` pin inference to the tape's forward bit for bit and the
//! fused gradients to the tape's within `1e-4`, and check the tape itself
//! against numeric gradients.
//!
//! Everything is seeded and deterministic: `GnnClassifier::fit` with the
//! same seed and data reproduces identical weights bit-for-bit (gradients
//! are reduced in a fixed order after the parallel map), and so does a
//! streamed run over the same shard layout, across interrupt and resume.

#[cfg(test)]
mod autograd;
pub mod backprop;
pub mod binfmt;
pub mod dispatch;
pub mod graphdata;
pub mod infer;
pub mod model;
pub mod stream;
pub mod tensor;
pub mod train;

#[cfg(test)]
mod oracle_tests;

pub use backprop::{FusedEngine, GradBuffer, TrainScratch};
pub use binfmt::{decode_graph, decode_graph_into, encode_graph};
pub use dispatch::{ModelPlan, SpmmStrategy};
pub use graphdata::{distinct_handles, Csr, GraphArrays, GraphData, GraphError};
pub use infer::InferOutput;
pub use model::{GnnConfig, GnnModel};
pub use stream::{MemorySource, RecordMap, ShardBatch, ShardSource, ShardStream, GRAPH_SHARD_KIND};
pub use tensor::Tensor;
pub use train::{CheckpointConfig, GnnClassifier, TrainCheckpoint, TrainParams};
