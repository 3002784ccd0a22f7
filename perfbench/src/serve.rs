//! `serve`: an in-process `irnuma_serve::Server` over a static model
//! trained in set-up, answering real region graphs drawn by seed from a
//! dataset built in set-up.
//!
//! Load comes from this process on one connection and two threads (the
//! host's nproc): a sender that writes each request at its scheduled time
//! and a receiver that parses replies and checks each against offline
//! `infer_batch` on the same weights. Latency runs from the *scheduled*
//! send time, so a stalled server or generator shows in it. (`Client`
//! bundles its reader and writer behind `&mut self`, so one thread could
//! not send on schedule while another waits for replies; the pipelined
//! connection here speaks the same JSONL protocol.)
//!
//! Phases: an open loop at the nominal rate (`p50_ms`, `p99_ms`, generator
//! lag), a windowed burst at saturation (`wall_s`, `cpu_s`), and a search
//! for the highest open-loop rate whose p99 meets the limit with no
//! growing backlog (`max_rps`).

use crate::host::{self, timed};
use crate::stats::{best, best_window, derive, median, quantile};
use crate::trace::{common_layers, traced};
use crate::{Opts, Outcome};
use irnuma_core::models::{StaticModel, StaticParams};
use irnuma_core::{build_dataset, DatasetParams};
use irnuma_nn::{GraphData, InferOutput};
use irnuma_serve::{response_matches, Reply, Request, ServeConfig, Server};
use irnuma_sim::MicroArch;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// p99 latency limit for `max_rps` (stated in `BENCHMARK.json`).
pub const P99_LIMIT_MS: f64 = 50.0;
/// A run is invalid when the nominal phase's p99 send lag exceeds this
/// share of [`P99_LIMIT_MS`] (stated in `BENCHMARK.json`).
pub const LAG_LIMIT_FRAC: f64 = 0.25;
/// Offered rate of the nominal open-loop phase, requests/s.
pub const NOMINAL_RPS: f64 = 2000.0;
/// Requests in one nominal latency window (p99 has ten samples beyond it).
const NOMINAL_REQUESTS: usize = 1000;
/// Nominal windows per measurement round.
const NOMINAL_WINDOWS: usize = 2;
/// Requests per `p50_ms` window: short windows, so that some fall between
/// host stalls.
const P50_WINDOW: usize = 200;
/// How long the `max_rps` search offers each rate: long enough that a rate
/// a tenth above capacity overflows the admission queue.
const STEP_SECONDS: f64 = 1.0;
/// Share of `--seconds` spent on nominal and burst rounds; the rest goes to
/// the `max_rps` search.
const ROUNDS_SHARE: f64 = 0.6;
/// Length of the seeded request stream; phases index it cyclically.
const STREAM_LEN: usize = 1 << 15;
/// Requests in the saturation burst, and the most left outstanding.
const BURST_REQUESTS: usize = 1500;
const BURSTS_PER_ROUND: usize = 2;
const BURST_WINDOW: u64 = 64;
/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 5;

/// A prepared request pool and the server answering it.
struct Setup {
    server: Server,
    /// Serialized request lines without their leading `{"id":0,`.
    bodies: Vec<String>,
    graphs: Vec<GraphData>,
    oracle: Vec<InferOutput>,
    model: irnuma_nn::GnnModel,
    label_coverage: f64,
    /// The seeded request stream: a pool index per position.
    picks: Vec<usize>,
}

fn set_up(opts: &Opts, rep: usize) -> Result<Setup, String> {
    let params = DatasetParams {
        num_sequences: 12,
        calls: 2,
        seed: derive(opts.seed, 1),
        ..Default::default()
    };
    let ds = build_dataset(MicroArch::Skylake, &params);
    let all: Vec<usize> = (0..ds.regions.len()).collect();
    let sm = StaticModel::train(
        &ds,
        &all,
        StaticParams { hidden: 32, epochs: 3, train_sequences: 3, ..Default::default() },
    );
    let path = opts.work.join(format!("model-{rep}.json"));
    sm.clf.save_json(&path).map_err(|e| format!("saving model: {e}"))?;
    let server =
        Server::start(ServeConfig::new(&path)).map_err(|e| format!("starting server: {e}"))?;

    let graphs: Vec<GraphData> = ds.regions.iter().flat_map(|r| r.graphs.iter().cloned()).collect();
    let oracle = sm.clf.model.infer_batch(&graphs);
    let mut bodies = Vec::with_capacity(graphs.len());
    for g in &graphs {
        let req = Request { id: 0, node_text: g.node_text.clone(), edges: g.edges.to_vec() };
        let line = serde_json::to_string(&req).map_err(|e| format!("{e:?}"))?;
        let body = line.strip_prefix("{\"id\":0,").ok_or("unexpected request encoding")?;
        bodies.push(body.to_string());
    }
    let picks = (0..STREAM_LEN as u64)
        .map(|i| (derive(opts.seed, 100 + i) % graphs.len() as u64) as usize)
        .collect();
    Ok(Setup {
        server,
        bodies,
        graphs,
        oracle,
        model: sm.clf.model,
        label_coverage: ds.label_coverage(),
        picks,
    })
}

/// How a phase offers its requests.
#[derive(Clone, Copy)]
enum Offer {
    /// Request `i` is due at `i / rate` seconds.
    OpenLoop { rate: f64 },
    /// Send as fast as possible with at most `window` outstanding.
    Window { window: u64 },
}

/// One phase's measurements.
struct Phase {
    /// Latency (ms) of every answered request, from its scheduled send.
    lat_ms: Vec<f64>,
    /// How late each send went out (ms).
    lag_ms: Vec<f64>,
    /// Requests the server refused (`overloaded`).
    refused: u64,
    /// Replies missing, malformed, or different from the offline oracle.
    failed: u64,
    attempted: u64,
    wall_s: f64,
    cpu_s: f64,
}

impl Phase {
    fn p99(&self) -> f64 {
        quantile(&self.lat_ms, 0.99)
    }

    /// p99 within the limit, nothing failed, and the last tenth of the
    /// requests no slower than the first tenth plus half the limit (a
    /// growing backlog shows as a rising latency).
    fn sustained(&self) -> bool {
        let n = self.lat_ms.len();
        if self.refused + self.failed > 0 || n < 10 {
            return false;
        }
        let head = median(&self.lat_ms[..n / 10]);
        let tail = median(&self.lat_ms[n - n / 10..]);
        self.p99() <= P99_LIMIT_MS && tail <= head + 0.5 * P99_LIMIT_MS
    }
}

/// Send `count` requests from position `first` of the request stream over
/// a fresh connection, offered as `offer`.
fn drive(s: &Setup, first: usize, count: usize, offer: Offer) -> Result<Phase, String> {
    let addr: SocketAddr = s.server.addr();
    let stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    // The receiver acknowledges each reply so a windowed sender can block
    // (spinning would bill its wait to `cpu_s`).
    let (ack_tx, ack_rx) = mpsc::channel::<()>();
    let c0 = host::cpu_seconds();
    let start = Instant::now();
    let due = move |i: usize| match offer {
        Offer::OpenLoop { rate } => start + Duration::from_secs_f64(i as f64 / rate),
        Offer::Window { .. } => start,
    };

    let sent_at: Arc<Vec<AtomicU64>> = Arc::new((0..count).map(|_| AtomicU64::new(0)).collect());
    let picks: Vec<usize> = (first..first + count).map(|i| s.picks[i % s.picks.len()]).collect();
    let oracle: Vec<InferOutput> = picks.iter().map(|&p| s.oracle[p].clone()).collect();
    let receiver = {
        let sent_at = sent_at.clone();
        std::thread::spawn(move || -> (Vec<f64>, u64, u64) {
            let mut reader = BufReader::new(stream);
            let mut lat = Vec::with_capacity(count);
            let (mut refused, mut failed) = (0u64, 0u64);
            let mut line = String::new();
            for _ in 0..count {
                line.clear();
                let read = reader.read_line(&mut line);
                let now = Instant::now();
                let _ = ack_tx.send(());
                if !matches!(read, Ok(n) if n > 0) {
                    failed += 1;
                    continue;
                }
                match Reply::parse(line.trim_end()) {
                    Ok(Reply::Ok(resp)) if (resp.id as usize) < count => {
                        let i = resp.id as usize;
                        if response_matches(&resp, &oracle[i]) {
                            let base = match offer {
                                Offer::OpenLoop { .. } => due(i),
                                Offer::Window { .. } => {
                                    start + Duration::from_nanos(sent_at[i].load(Ordering::Acquire))
                                }
                            };
                            lat.push(now.saturating_duration_since(base).as_secs_f64() * 1e3);
                        } else {
                            failed += 1;
                        }
                    }
                    Ok(Reply::Err(e)) if e.code == irnuma_serve::CODE_OVERLOADED => refused += 1,
                    _ => failed += 1,
                }
            }
            (lat, refused, failed)
        })
    };

    let mut lag_ms = Vec::with_capacity(count);
    let mut acked = 0u64;
    let mut line = String::new();
    let mut send_err = None;
    for (i, &p) in picks.iter().enumerate() {
        match offer {
            Offer::OpenLoop { .. } => {
                let t = due(i);
                let now = Instant::now();
                if t > now {
                    std::thread::sleep(t - now);
                }
            }
            Offer::Window { window } => {
                while i as u64 >= acked + window {
                    if ack_rx.recv().is_err() {
                        break; // the receiver is done: every reply is in
                    }
                    acked += 1;
                }
            }
        }
        let now = Instant::now();
        lag_ms.push(now.saturating_duration_since(due(i)).as_secs_f64() * 1e3);
        sent_at[i].store(now.duration_since(start).as_nanos() as u64, Ordering::Release);
        line.clear();
        line.push_str(&format!("{{\"id\":{i},"));
        line.push_str(&s.bodies[p]);
        line.push('\n');
        if let Err(e) = writer.write_all(line.as_bytes()) {
            send_err = Some(e.to_string());
            break;
        }
    }
    if send_err.is_some() {
        let _ = writer.shutdown(std::net::Shutdown::Both);
    }
    let (lat_ms, refused, failed) = receiver.join().map_err(|_| "receiver thread panicked")?;
    if let Some(e) = send_err {
        return Err(format!("sending: {e}"));
    }
    let lag_ms = if matches!(offer, Offer::OpenLoop { .. }) { lag_ms } else { Vec::new() };
    Ok(Phase {
        lat_ms,
        lag_ms,
        refused,
        failed,
        attempted: count as u64,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - c0,
    })
}

/// Stream offsets of each phase.
const BURST_AT: usize = NOMINAL_REQUESTS;
const STEPS_AT: usize = NOMINAL_REQUESTS + BURST_REQUESTS;

/// The highest open-loop rate meeting [`Phase::sustained`], to within a
/// tenth. Starts at the burst throughput and steps by half again up or
/// down until the bracket is found, then bisects geometrically. A failed
/// rate is retried once, so one host stall does not sink it. Returns the
/// rate and the rates tried; errs when even a quarter of the nominal rate
/// is not sustained.
fn search_max_rps(
    s: &Setup,
    burst_rps: f64,
    out: &mut Outcome,
) -> Result<(f64, Vec<(f64, bool)>), String> {
    let mut tried = Vec::new();
    let mut attempt = |rate: f64, out: &mut Outcome| -> Result<bool, String> {
        let count = ((rate * STEP_SECONDS) as usize).max(NOMINAL_REQUESTS);
        let mut ok = false;
        for _ in 0..2 {
            let ph = drive(s, STEPS_AT, count, Offer::OpenLoop { rate })?;
            out.attempted += ph.attempted;
            // Refusals are expected past saturation; answers that disagree
            // with the offline oracle are failures at any rate.
            out.failed += ph.failed;
            ok = ph.sustained();
            tried.push((rate, ok));
            if ok {
                break;
            }
        }
        Ok(ok)
    };
    let (mut lo, mut hi);
    let start = burst_rps.max(NOMINAL_RPS);
    if attempt(start, out)? {
        lo = start;
        hi = start * 1.5;
        while attempt(hi, out)? {
            lo = hi;
            hi *= 1.5;
        }
    } else {
        hi = start;
        lo = start / 1.5;
        while !attempt(lo, out)? {
            hi = lo;
            lo /= 1.5;
            if lo < NOMINAL_RPS / 4.0 {
                return Err(format!("no offered rate down to {hi:.0} req/s is sustained"));
            }
        }
    }
    while hi / lo > 1.1 {
        let mid = (lo * hi).sqrt();
        if attempt(mid, out)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((lo, tried))
}

/// `BENCHMARK.json` (read from the working directory, the checkout root)
/// must state the nominal rate and the limits this file applies.
fn check_stated_limits(out: &mut Outcome) {
    let stated = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let phrases = [
        format!("open loop at {NOMINAL_RPS} req/s"),
        format!("p99 <= {P99_LIMIT_MS} ms"),
        format!("send-lag p99 > {LAG_LIMIT_FRAC} x {P99_LIMIT_MS} ms"),
    ];
    let missing: Vec<&String> = phrases.iter().filter(|p| !stated.contains(p.as_str())).collect();
    out.check(
        format!("BENCHMARK.json states the serve rate and limits (missing {missing:?})"),
        missing.is_empty(),
    );
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    check_stated_limits(&mut out);
    let mut setup_s = Vec::new();
    let mut setup = None;
    for rep in 0..SETUP_REPS {
        let t = timed(|| set_up(opts, rep));
        setup_s.push(t.wall_s);
        if let Some(old) = setup.replace(t.out?) {
            let old: Setup = old;
            old.server.shutdown();
        }
    }
    let s = setup.expect("at least one set-up");
    println!(
        "serve: pool of {} region graphs, nominal {NOMINAL_RPS} req/s, p99 limit {P99_LIMIT_MS} ms, set-up {:.3} s",
        s.graphs.len(),
        median(&setup_s)
    );
    // Warm the connection path, plan caches and thread-local scratch.
    drive(&s, STEPS_AT, 200, Offer::Window { window: BURST_WINDOW })?;

    let result = if opts.trace {
        traced_run(&s, out)
    } else {
        measure(&s, opts, &mut out, &setup_s).map(|_| out)
    };
    s.server.shutdown();
    result
}

/// The untraced measurement: repeated nominal and burst phases until
/// `--seconds` is spent, then the `max_rps` search.
fn measure(s: &Setup, opts: &Opts, out: &mut Outcome, setup_s: &[f64]) -> Result<(), String> {
    let t0 = Instant::now();
    let mut nominal: Vec<Phase> = Vec::new();
    let mut bursts = Vec::new();
    let mut rss = Vec::new();
    while bursts.is_empty() || t0.elapsed().as_secs_f64() < opts.seconds * ROUNDS_SHARE {
        host::reset_peak_rss();
        let mut phases = Vec::new();
        for _ in 0..NOMINAL_WINDOWS {
            phases.push(drive(s, 0, NOMINAL_REQUESTS, Offer::OpenLoop { rate: NOMINAL_RPS })?);
        }
        let mut round_bursts = Vec::new();
        for _ in 0..BURSTS_PER_ROUND {
            round_bursts.push(drive(
                s,
                BURST_AT,
                BURST_REQUESTS,
                Offer::Window { window: BURST_WINDOW },
            )?);
        }
        rss.push(host::peak_rss_mb());
        for ph in phases.iter().chain(&round_bursts) {
            out.attempted += ph.attempted;
            out.failed += ph.refused + ph.failed;
        }
        let show = |phases: &[Phase], f: &dyn Fn(&Phase) -> f64| {
            phases.iter().map(|p| format!("{:.3}", f(p))).collect::<Vec<_>>().join("/")
        };
        println!(
            "serve round {}: nominal p50 {} ms, p99 {} ms, lag p99 {} ms; bursts {} s",
            rss.len() - 1,
            show(&phases, &|p| quantile(&p.lat_ms, 0.5)),
            show(&phases, &|p| p.p99()),
            show(&phases, &|p| quantile(&p.lag_ms, 0.99)),
            show(&round_bursts, &|p| p.wall_s),
        );
        nominal.extend(phases);
        bursts.extend(round_bursts);
    }
    let walls: Vec<f64> = bursts.iter().map(|b| b.wall_s).collect();
    let cpus: Vec<f64> = bursts.iter().map(|b| b.cpu_s).collect();
    let (max_rps, tried) = search_max_rps(s, BURST_REQUESTS as f64 / median(&walls), out)?;
    let tried: Vec<String> =
        tried.iter().map(|(r, ok)| format!("{r:.0}{}", if *ok { "+" } else { "-" })).collect();
    println!("serve max_rps {max_rps:.0} (rates tried, + sustained: {})", tried.join(" "));
    out.check(
        "every reply matches offline infer_batch, none refused at the nominal rate",
        out.failed == 0,
    );

    // The generator's lag decides whether the run measured the server: a
    // late sender is the host's stall, not the program's.
    let lag: Vec<f64> = nominal.iter().flat_map(|p| p.lag_ms.iter().copied()).collect();
    let lag_p99 = quantile(&lag, 0.99);
    let lag_max = lag.iter().copied().fold(0.0, f64::max);
    crate::report("send_lag_p99_ms", lag_p99, "ms", lag.len() as u64);
    crate::report("send_lag_max_ms", lag_max, "ms", lag.len() as u64);
    let valid = lag_p99 <= LAG_LIMIT_FRAC * P99_LIMIT_MS;
    println!(
        "run validity: {} (send lag p99 {lag_p99:.3} ms against {LAG_LIMIT_FRAC} x {P99_LIMIT_MS} ms)",
        if valid { "valid" } else { "INVALID" }
    );

    let windows: Vec<Vec<f64>> = nominal.iter().map(|p| p.lat_ms.clone()).collect();
    let short: Vec<Vec<f64>> =
        windows.iter().flat_map(|w| w.chunks(P50_WINDOW).map(<[f64]>::to_vec)).collect();
    println!(
        "median over rounds: burst wall {:.3} s, cpu {:.3} s; nominal p50 {:.3} ms, p99 {:.3} ms",
        median(&walls),
        median(&cpus),
        median(&windows.iter().map(|w| quantile(w, 0.5)).collect::<Vec<_>>()),
        median(&windows.iter().map(|w| quantile(w, 0.99)).collect::<Vec<_>>()),
    );
    crate::report("p99_ms", best_window(&windows, 0.99), "ms", NOMINAL_REQUESTS as u64);
    let n = bursts.len() as u64;
    out.set("setup_s", median(setup_s), setup_s.len() as u64);
    out.set("wall_s", best(&walls), n);
    out.set("cpu_s", best(&cpus), n);
    out.set("peak_rss_mb", median(&rss), rss.len() as u64);
    out.set("p50_ms", best_window(&short, 0.5), P50_WINDOW as u64);
    out.set("max_rps", max_rps, tried.len() as u64);
    out.set("label_coverage", s.label_coverage, 1);
    Ok(())
}

/// `--trace 1`: the nominal and burst phases untraced, then again under the
/// span sink; plus offline `infer_batch` at the observed batch size.
fn traced_run(s: &Setup, mut out: Outcome) -> Result<Outcome, String> {
    let nom = drive(s, 0, NOMINAL_REQUESTS, Offer::OpenLoop { rate: NOMINAL_RPS })?;
    let burst = drive(s, BURST_AT, BURST_REQUESTS, Offer::Window { window: BURST_WINDOW })?;
    let (traced_phases, tr) = traced(|| -> Result<(Phase, Phase), String> {
        let nom = drive(s, 0, NOMINAL_REQUESTS, Offer::OpenLoop { rate: NOMINAL_RPS })?;
        let burst = drive(s, BURST_AT, BURST_REQUESTS, Offer::Window { window: BURST_WINDOW })?;
        Ok((nom, burst))
    });
    let (tnom, tburst) = traced_phases?;
    for ph in [&nom, &burst, &tnom, &tburst] {
        out.attempted += ph.attempted;
        out.failed += ph.refused + ph.failed;
    }
    out.check("every reply matches offline infer_batch", out.failed == 0);
    println!(
        "serve traced: nominal p99 {:.3} ms (untraced {:.3}), burst {:.3} s (untraced {:.3})",
        tnom.p99(),
        nom.p99(),
        tburst.wall_s,
        burst.wall_s
    );

    common_layers(&mut out, &tr);
    // Offline inference of the same graphs at the batch size the server
    // formed, for comparison with its per-request latency.
    let batch =
        tr.histogram("serve.batch_size").map_or(1.0, |h| h.mean()).round().max(1.0) as usize;
    let mut batch_ms = Vec::new();
    for chunk in s.picks[..NOMINAL_REQUESTS].chunks(batch) {
        let graphs: Vec<GraphData> = chunk.iter().map(|&p| s.graphs[p].clone()).collect();
        let t0 = Instant::now();
        let outs = s.model.infer_batch(&graphs);
        batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(outs);
    }
    out.set("nn.infer_batch_ms", median(&batch_ms), batch_ms.len() as u64);
    out.set("runtime.efficiency", burst.cpu_s / (burst.wall_s * host::nproc() as f64), 1);
    out.set("latency.p99_ms", nom.p99(), nom.lat_ms.len() as u64);
    out.set("trace.overhead_wall_s", tburst.wall_s - burst.wall_s, 2);
    out.set(
        "trace.overhead_p99_ms",
        tnom.p99() - nom.p99(),
        (tnom.lat_ms.len() + nom.lat_ms.len()) as u64,
    );
    Ok(out)
}
