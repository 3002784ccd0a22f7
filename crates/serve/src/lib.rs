//! # irnuma-serve — the online prediction daemon
//!
//! `irnuma serve` turns the batch inference engine into a long-running
//! service: clients connect over TCP, send one JSON object per line (a
//! region graph plus a correlation id), and receive one JSON object per
//! line back (predicted configuration, confidence margin, logits,
//! probabilities, pooled embedding, and the model generation that served
//! them). Everything is stdlib sockets and threads — zero new
//! dependencies.
//!
//! The daemon's value over per-request [`irnuma_nn::GnnModel::infer`] is
//! threefold:
//!
//! 1. **Micro-batching.** Concurrent requests are coalesced through a
//!    bounded admission queue into adaptive batches (up to `max_batch`,
//!    waiting at most `batch_window_us` after the first arrival) and
//!    answered by one [`irnuma_nn::GnnModel::infer_batch_planned`] call,
//!    amortizing the parallel fan-out and reusing one prepacked
//!    [`irnuma_nn::ModelPlan`] across the whole batch.
//! 2. **Backpressure, not OOM.** A full queue rejects with a typed
//!    `overloaded` error carrying `retry_after_ms`; oversized request
//!    lines are discarded without ever being buffered.
//! 3. **Atomic hot-reload.** The model artifact is re-read (checksummed
//!    by `irnuma-store`) on demand or on mtime change; reload packs a new
//!    plan from the new weights and swaps an immutable `Arc`-snapshot of
//!    both, so in-flight batches finish on the generation they started on
//!    and no kernel ever sees stale prepacked weights.
//!
//! Responses are bit-identical to offline [`irnuma_nn::GnnModel::infer_batch`]
//! on the same weights — the wire format round-trips f32 exactly — which is
//! what makes the daemon testable against the offline engine as an oracle.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use protocol::{
    ErrorReply, Reply, Request, Response, CODE_BAD_REQUEST, CODE_OVERLOADED, CODE_PAYLOAD_TOO_LARGE,
};
pub use server::{response_matches, ServeConfig, Server};
