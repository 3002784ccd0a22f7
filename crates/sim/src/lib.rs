//! # irnuma-sim — NUMA machine and hardware-prefetcher simulator
//!
//! The paper measures regions on real Intel machines (a four-node Sandy
//! Bridge EP E5-4650 and a dual-node Skylake Platinum 8168, plus a Xeon Gold
//! 6130 for the input-size study), toggling the four per-core hardware
//! prefetchers through MSR 0x1A4 and placing threads/pages with the policies
//! of Popov et al. None of that hardware is available here, so this crate
//! rebuilds the measurement substrate as a deterministic analytic simulator:
//!
//! * [`machine`] — the three machine models (topology, cache capacities,
//!   latencies, per-node memory bandwidth, inter-node links, TDP);
//! * [`config`] — the NUMA × prefetch configuration space: 16 prefetcher
//!   masks × {threads, nodes, thread mapping, page mapping} = **320
//!   configurations on Sandy Bridge, 288 on Skylake** (as in the paper),
//!   including the canonicalization that collapses equivalent single-node
//!   placements;
//! * [`prefetch`] — the four prefetchers (DCU-IP, DCU next-line, L2
//!   adjacent, L2 streamer) with pattern-dependent coverage, overfetch and
//!   pollution;
//! * [`cost`] — the execution model: roofline compute/bandwidth terms, cache
//!   filtering, remote-access fractions per page policy, memory-controller
//!   and link queueing, atomic contention, Amdahl, and deterministic
//!   measurement noise. Produces execution time *and* the performance
//!   counters the dynamic baseline trains on (package power, L3 miss ratio);
//! * [`search`] — the one configuration sweep (paper step C) and per-call
//!   traces (Fig. 12);
//! * [`translate`] — cross-architecture configuration translation (§IV-D).
//!
//! Determinism: every stochastic term is a hash of (region, config, call).

pub mod cachesim;
pub mod coexec;
pub mod config;
pub mod cost;
pub mod machine;
pub mod prefetch;
pub mod search;
pub mod translate;

pub use config::{config_space, default_config, Config, PageMapping, ThreadMapping};
pub use cost::{simulate, Counters, Measurement};
pub use machine::{Machine, MicroArch};
pub use prefetch::PrefetchMask;
pub use search::{per_call_trace, sweep_region};
pub use translate::translate_config;
