//! `irnuma serve-bench` — closed-loop load generator for the serving
//! daemon.
//!
//! Spawns an in-process [`irnuma_serve::Server`] (or connects to a running
//! one), drives it from N closed-loop client threads over deterministic
//! synthetic region graphs, and reports per-request latency percentiles
//! plus sustained throughput. The medians land in `BENCH_serving.json`
//! (keys `serving/p50_latency_us`, `serving/p99_latency_us`,
//! `serving/throughput_rps`) so `irnuma bench-check` gates serving
//! regressions exactly like the kernel benches.

use irnuma_nn::graphdata::NUM_RELATIONS;
use irnuma_nn::{GnnClassifier, GnnConfig, GraphData};
use irnuma_serve::{Client, Reply, Request, ServeConfig, Server};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Load-generator knobs (CLI flags map onto these 1:1).
#[derive(Debug, Clone)]
pub struct ServeBenchParams {
    /// Existing model artifact; `None` builds a fresh synthetic model.
    pub model: Option<PathBuf>,
    /// Address of a running daemon; `None` starts one in-process.
    pub connect: Option<String>,
    /// Total requests to issue across all clients.
    pub requests: usize,
    /// Concurrent closed-loop client connections.
    pub clients: usize,
}

impl Default for ServeBenchParams {
    fn default() -> ServeBenchParams {
        ServeBenchParams { model: None, connect: None, requests: 2000, clients: 4 }
    }
}

/// Aggregated load-test result.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    pub served: u64,
    pub rejected: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub mean_us: f64,
    pub throughput_rps: f64,
    pub clients: usize,
}

/// Deterministic synthetic region graph (chain backbone + cross edges per
/// relation) sized like the paper's region graphs.
fn synthetic_graph(idx: u64, vocab: usize) -> GraphData {
    let n = 24 + (idx % 5) * 12; // 24..72 nodes
    let node_text: Vec<u32> = (0..n as u32)
        .map(|i| (i.wrapping_mul(31).wrapping_add(idx as u32 * 7)) % vocab as u32)
        .collect();
    let mut edges: [Vec<(u32, u32)>; NUM_RELATIONS] = Default::default();
    for i in 1..n as u32 {
        edges[0].push((i - 1, i));
        if i % 3 == 0 {
            edges[1].push((i, i / 2));
        }
        if i % 5 == 0 {
            edges[2].push((i, 0));
        }
    }
    GraphData::from_edge_lists(node_text, edges)
}

fn synthetic_model_path() -> Result<PathBuf, String> {
    let dir = std::env::temp_dir().join("irnuma-serve-bench");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("model-{}.json", std::process::id()));
    let clf = GnnClassifier::new(GnnConfig {
        vocab_size: 64,
        hidden: 32,
        classes: 13,
        layers: 2,
        layer_norm: true,
        seed: 417,
    });
    clf.save_json(&path).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Run the load test. Fairness note: clients are closed-loop (each waits
/// for its reply before sending the next request), so reported latency is
/// not subject to coordinated omission.
pub fn run(params: &ServeBenchParams) -> Result<ServeBenchReport, String> {
    // Resolve the target: an external daemon, or an in-process one over a
    // fresh (or given) model artifact.
    let mut local: Option<Server> = None;
    let addr: SocketAddr = match &params.connect {
        Some(addr) => addr.parse().map_err(|e| format!("bad --connect {addr}: {e}"))?,
        None => {
            let path = match &params.model {
                Some(p) => p.clone(),
                None => synthetic_model_path()?,
            };
            let server = Server::start(ServeConfig::new(&path))
                .map_err(|e| format!("start daemon over {}: {e}", path.display()))?;
            let addr = server.addr();
            local = Some(server);
            addr
        }
    };

    // The model's vocabulary bounds the synthetic tokens. An external
    // daemon's vocabulary is unknown; 64 matches the synthetic model and
    // any real artifact is larger.
    let vocab = 64usize;
    let clients = params.clients.max(1);
    let total = params.requests.max(clients) as u64;
    let issued = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));

    let span = irnuma_obs::span!("serve.bench", requests = total, clients = clients as u64);
    let t0 = Instant::now();
    let mut workers = Vec::new();
    for c in 0..clients {
        let issued = issued.clone();
        let rejected = rejected.clone();
        workers.push(std::thread::spawn(move || -> Result<Vec<u64>, String> {
            let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let mut lat_ns: Vec<u64> = Vec::new();
            loop {
                let id = issued.fetch_add(1, Ordering::Relaxed);
                if id >= total {
                    return Ok(lat_ns);
                }
                let g = synthetic_graph(id.wrapping_add(c as u64 * 131), vocab);
                let req = Request { id, node_text: g.node_text.clone(), edges: g.edges.to_vec() };
                let sent = Instant::now();
                match client.call(&req).map_err(|e| format!("client {c}: {e}"))? {
                    Reply::Ok(_) => {
                        lat_ns.push(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    }
                    Reply::Err(e) if e.code == irnuma_serve::CODE_OVERLOADED => {
                        rejected.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(
                            e.retry_after_ms.clamp(1, 50),
                        ));
                    }
                    Reply::Err(e) => return Err(format!("client {c}: server error {e:?}")),
                }
            }
        }));
    }
    let mut lat_ns: Vec<u64> = Vec::new();
    for w in workers {
        lat_ns.extend(w.join().map_err(|_| "bench client panicked")??);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    drop(span);
    if let Some(server) = local {
        server.shutdown();
    }

    if lat_ns.is_empty() {
        return Err("no requests served".to_string());
    }
    lat_ns.sort_unstable();
    let q = |p: f64| lat_ns[((lat_ns.len() - 1) as f64 * p) as usize] as f64 / 1e3;
    let mean_us = lat_ns.iter().map(|&v| v as f64).sum::<f64>() / lat_ns.len() as f64 / 1e3;
    Ok(ServeBenchReport {
        served: lat_ns.len() as u64,
        rejected: rejected.load(Ordering::Relaxed),
        p50_us: q(0.50),
        p99_us: q(0.99),
        mean_us,
        throughput_rps: lat_ns.len() as f64 / elapsed.max(1e-9),
        clients,
    })
}

/// Write `BENCH_serving.json` at the repository root for the bench-check
/// gate.
pub fn write_report(report: &ServeBenchReport) -> std::io::Result<PathBuf> {
    let entries = [
        ("serving/p50_latency_us", report.p50_us),
        ("serving/p99_latency_us", report.p99_us),
        ("serving/mean_latency_us", report.mean_us),
        ("serving/throughput_rps", report.throughput_rps),
    ]
    .map(|(id, v)| (id.to_string(), v));
    crate::bench_check::write_bench_json("serving", &entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_closed_loop_run_reports_sane_numbers() {
        let report =
            run(&ServeBenchParams { requests: 40, clients: 2, ..Default::default() }).unwrap();
        assert_eq!(report.served, 40);
        assert!(report.p50_us > 0.0 && report.p50_us <= report.p99_us);
        assert!(report.throughput_rps > 0.0);
    }
}
