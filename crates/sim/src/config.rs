//! The NUMA × prefetch configuration space (paper §II-C).
//!
//! The NUMA part couples degree of parallelism, number of NUMA nodes,
//! thread mapping (contiguous / round-robin) and page mapping (first-touch /
//! locality / interleave / balance) — the space of Popov et al. Combined
//! with the 16 prefetcher masks it yields **320 configurations on Sandy
//! Bridge and 288 on Skylake**, exactly the counts the paper reports.
//!
//! Equivalence collapsing: with a single NUMA node of threads, the two
//! thread mappings coincide, and first-touch/locality/balance all place
//! every page on that node (only interleave differs, spreading pages over
//! the whole machine). The generator canonicalizes those away, which is
//! what makes the counts 20 × 16 and 18 × 16.

use crate::machine::{Machine, MicroArch};
use crate::prefetch::PrefetchMask;
use serde::{Deserialize, Serialize};

/// How threads are laid out over the chosen nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThreadMapping {
    /// Fill node 0's cores, then node 1's, …
    Contiguous,
    /// Thread *i* on node *i mod nodes*.
    RoundRobin,
}

/// How pages are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageMapping {
    /// Page lands where first touched (initialization-order dependent).
    FirstTouch,
    /// Page lands on the node of the thread that uses it most.
    Locality,
    /// Pages round-robin across **all machine nodes**.
    Interleave,
    /// Pages spread proportionally across the **nodes in use**.
    Balance,
}

impl PageMapping {
    pub const ALL: [PageMapping; 4] = [
        PageMapping::FirstTouch,
        PageMapping::Locality,
        PageMapping::Interleave,
        PageMapping::Balance,
    ];
}

/// One point of the search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Config {
    pub threads: u32,
    pub nodes: u32,
    pub thread_map: ThreadMapping,
    pub page_map: PageMapping,
    pub prefetch: PrefetchMask,
}

impl Config {
    /// Short stable identifier, e.g. `t32n4-rr-il-pf0b0011` (the
    /// [`Display`](std::fmt::Display) form).
    pub fn label(&self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tm = match self.thread_map {
            ThreadMapping::Contiguous => "ct",
            ThreadMapping::RoundRobin => "rr",
        };
        let pm = match self.page_map {
            PageMapping::FirstTouch => "ft",
            PageMapping::Locality => "lo",
            PageMapping::Interleave => "il",
            PageMapping::Balance => "ba",
        };
        write!(f, "t{}n{}-{}-{}-pf{:04b}", self.threads, self.nodes, tm, pm, self.prefetch.0)
    }
}

/// The paper's *default* (baseline for every speedup): all cores, all
/// nodes, data locality, scattered threads, every prefetcher on.
pub fn default_config(m: &Machine) -> Config {
    Config {
        threads: m.total_cores(),
        nodes: m.nodes,
        thread_map: ThreadMapping::RoundRobin, // "threads: scatter"
        page_map: PageMapping::Locality,
        prefetch: PrefetchMask::ALL_ON,
    }
}

/// `(threads, nodes)` pairs explored per machine.
fn thread_node_pairs(m: &Machine) -> Vec<(u32, u32)> {
    let c = m.cores_per_node;
    match m.arch {
        // 8+8+2+2 = 20 NUMA configs → ×16 prefetch = 320.
        MicroArch::SandyBridge => vec![(4 * c, 4), (2 * c, 4), (c, 1), (c / 2, 1)],
        // 8+8+2 = 18 → ×16 = 288.
        MicroArch::Skylake => vec![(2 * c, 2), (c, 2), (c, 1)],
        // Same shape as Skylake (dual node): 18 × 16 = 288.
        MicroArch::XeonGold => vec![(2 * c, 2), (c, 2), (c, 1)],
    }
}

/// The canonical NUMA sub-space (no prefetch dimension).
pub fn numa_space(m: &Machine) -> Vec<Config> {
    let mut out = Vec::new();
    for (threads, nodes) in thread_node_pairs(m) {
        let tmaps: &[ThreadMapping] = if nodes == 1 {
            &[ThreadMapping::Contiguous]
        } else {
            &[ThreadMapping::Contiguous, ThreadMapping::RoundRobin]
        };
        let pmaps: &[PageMapping] = if nodes == 1 {
            // FirstTouch == Locality == Balance when all threads share a node.
            &[PageMapping::Locality, PageMapping::Interleave]
        } else {
            &PageMapping::ALL
        };
        for &tm in tmaps {
            for &pm in pmaps {
                out.push(Config {
                    threads,
                    nodes,
                    thread_map: tm,
                    page_map: pm,
                    prefetch: PrefetchMask::ALL_ON,
                });
            }
        }
    }
    out
}

/// The full space: NUMA sub-space × 16 prefetcher masks.
pub fn config_space(m: &Machine) -> Vec<Config> {
    let mut out = Vec::new();
    for base in numa_space(m) {
        for pf in PrefetchMask::all_combinations() {
            out.push(Config { prefetch: pf, ..base });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_sizes_match_the_paper() {
        assert_eq!(config_space(&Machine::new(MicroArch::SandyBridge)).len(), 320);
        assert_eq!(config_space(&Machine::new(MicroArch::Skylake)).len(), 288);
        assert_eq!(config_space(&Machine::new(MicroArch::XeonGold)).len(), 288);
    }

    #[test]
    fn default_config_is_in_the_space() {
        for arch in MicroArch::ALL {
            let m = Machine::new(arch);
            let d = default_config(&m);
            assert!(
                config_space(&m).contains(&d),
                "{arch:?}: default {} missing from space",
                d.label()
            );
        }
    }

    #[test]
    fn configs_are_unique_and_valid() {
        for arch in MicroArch::ALL {
            let m = Machine::new(arch);
            let space = config_space(&m);
            let mut set = std::collections::HashSet::new();
            for c in &space {
                assert!(set.insert(*c), "duplicate {}", c.label());
                assert!(c.threads >= 1 && c.threads <= m.total_cores());
                assert!(c.nodes >= 1 && c.nodes <= m.nodes);
                assert!(c.threads <= c.nodes * m.cores_per_node, "oversubscribed {}", c.label());
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let m = Machine::new(MicroArch::SandyBridge);
        let mut set = std::collections::HashSet::new();
        for c in config_space(&m) {
            assert!(set.insert(c.label()));
        }
    }

    #[test]
    fn single_node_configs_are_canonicalized() {
        let m = Machine::new(MicroArch::Skylake);
        for c in config_space(&m) {
            if c.nodes == 1 {
                assert_eq!(c.thread_map, ThreadMapping::Contiguous);
                assert!(matches!(c.page_map, PageMapping::Locality | PageMapping::Interleave));
            }
        }
    }
}
