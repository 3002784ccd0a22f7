//! The serving daemon: socket front-end, admission queue, micro-batcher,
//! and hot-reloadable model state.
//!
//! Layout (one process, stdlib threads only):
//!
//! ```text
//!  client ──TCP──▶ reader thread ──try_send──▶ bounded admission queue
//!                     │ (parse + validate)          │
//!                     ▼ errors                      ▼
//!                  writer thread ◀──responses── batcher thread
//!                                                  │ drains micro-batches,
//!                                                  ▼ snapshots the model
//!                                            infer_batch_planned
//! ```
//!
//! * **Admission is bounded**: when the queue is full the reader answers
//!   `overloaded` with a `retry_after_ms` hint instead of buffering without
//!   limit — a slow batcher degrades into rejections, never into OOM.
//! * **Model state is split**: the immutable [`GnnModel`] weights and their
//!   prepacked [`irnuma_nn::ModelPlan`] live behind one `Arc` snapshot per
//!   batch; per-worker inference scratch stays thread-local inside
//!   `infer_batch_planned`. Hot-reload builds a whole new snapshot and swaps
//!   the `Arc` — in-flight batches finish on the generation they started on.
//!   The plan is built from the snapshot's own weights, so no kernel can see
//!   another generation's prepacked panels.
//! * **Every request is a causal root**: a detached `serve.request` span is
//!   opened at admission and dropped after the response is handed to the
//!   writer, so `irnuma trace analyze --require-roots serve.request` sees
//!   one forest root per request with its queue wait attached.

use crate::protocol::{
    ErrorReply, Request, Response, CODE_BAD_REQUEST, CODE_OVERLOADED, CODE_PAYLOAD_TOO_LARGE,
};
use irnuma_nn::graphdata::NUM_RELATIONS;
use irnuma_nn::{GnnClassifier, GnnModel, GraphData, ModelPlan};
use irnuma_obs::SpanGuard;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Daemon configuration. [`ServeConfig::new`] fills serving defaults; tests
/// and the CLI override fields directly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; see [`Server::addr`]).
    pub addr: String,
    /// `irnuma-store` model artifact (as written by `GnnClassifier::save_json`).
    pub model_path: PathBuf,
    /// Most requests fused into one `infer_batch_planned` call.
    pub max_batch: usize,
    /// How long the batcher waits for the batch to fill after its first
    /// request arrives. Zero batches only what is already queued.
    pub batch_window_us: u64,
    /// Admission queue capacity; requests beyond it are rejected with
    /// `overloaded` + `retry_after_ms`.
    pub queue_cap: usize,
    /// Request lines longer than this are rejected (`payload_too_large`)
    /// and discarded without buffering.
    pub max_line_bytes: usize,
    /// Poll the model artifact's mtime every this many ms and hot-reload on
    /// change. Zero disables polling ([`Server::reload_now`] still works).
    pub reload_poll_ms: u64,
    /// Test hook: hold each drained batch this long before inference, so
    /// backpressure tests can fill the admission queue deterministically.
    pub batch_hold_ms: u64,
}

impl ServeConfig {
    pub fn new(model_path: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            model_path: model_path.into(),
            max_batch: 32,
            batch_window_us: 200,
            queue_cap: 256,
            max_line_bytes: 1 << 20,
            reload_poll_ms: 0,
            batch_hold_ms: 0,
        }
    }
}

/// One immutable model snapshot: weights + prepacked plan + generation.
struct ModelState {
    model: GnnModel,
    plan: ModelPlan,
    generation: u64,
}

/// One admitted request on its way to the batcher.
struct Job {
    id: u64,
    graph: GraphData,
    reply: mpsc::Sender<String>,
    span: SpanGuard,
    admitted: Instant,
}

struct Shared {
    state: RwLock<Arc<ModelState>>,
    model_path: PathBuf,
    stop: AtomicBool,
    generation: AtomicU64,
}

impl Shared {
    /// Load the artifact, rebuild the plan, swap the snapshot. Keeps the
    /// old generation serving on any error (torn writes are impossible —
    /// the store writes atomically and checksums — but a partial copy or a
    /// wrong file must not take the daemon down).
    fn reload(&self) -> Result<u64, String> {
        let clf = GnnClassifier::load_json(&self.model_path)
            .map_err(|e| format!("reload {}: {e}", self.model_path.display()))?;
        let plan = clf.model.plan();
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let next = Arc::new(ModelState { model: clf.model, plan, generation });
        *self.state.write().unwrap() = next;
        irnuma_obs::registry().counter("serve.reloads").inc(1);
        irnuma_obs::info!("serve: hot-reloaded model, generation {generation}");
        Ok(generation)
    }
}

/// A running daemon. Dropping the handle does not stop the server; call
/// [`Server::shutdown`] (tests) or [`Server::wait`] (the CLI).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Load the model, bind the listener, and spawn the accept, batcher,
    /// and (optionally) reload-poll threads.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let clf = GnnClassifier::load_json(&cfg.model_path)?;
        let plan = clf.model.plan();
        let state = Arc::new(ModelState { model: clf.model, plan, generation: 0 });
        let shared = Arc::new(Shared {
            state: RwLock::new(state),
            model_path: cfg.model_path.clone(),
            stop: AtomicBool::new(false),
            generation: AtomicU64::new(0),
        });

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let (admit, jobs) = mpsc::sync_channel::<Job>(cfg.queue_cap.max(1));

        {
            let shared = shared.clone();
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("irnuma-serve-batch".into())
                .spawn(move || batcher_loop(&shared, &cfg, &jobs))?;
        }
        if cfg.reload_poll_ms > 0 {
            let shared = shared.clone();
            let poll = Duration::from_millis(cfg.reload_poll_ms);
            std::thread::Builder::new().name("irnuma-serve-reload".into()).spawn(move || {
                let mut last = artifact_stamp(&shared.model_path);
                while !shared.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(poll);
                    let cur = artifact_stamp(&shared.model_path);
                    if cur != last {
                        last = cur;
                        if let Err(e) = shared.reload() {
                            irnuma_obs::registry().counter("serve.reload_errors").inc(1);
                            irnuma_obs::warn!("serve: {e}; keeping previous model");
                        }
                    }
                }
            })?;
        }
        let accept = {
            let shared = shared.clone();
            let cfg = cfg.clone();
            std::thread::Builder::new().name("irnuma-serve-accept".into()).spawn(move || {
                for conn in listener.incoming() {
                    if shared.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let shared = shared.clone();
                    let admit = admit.clone();
                    let cfg = cfg.clone();
                    let spawned = std::thread::Builder::new()
                        .name("irnuma-serve-conn".into())
                        .spawn(move || handle_client(stream, &admit, &shared, &cfg));
                    if spawned.is_err() {
                        irnuma_obs::registry().counter("serve.accept_errors").inc(1);
                    }
                }
            })?
        };

        Ok(Server { shared, addr, accept: Mutex::new(Some(accept)) })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Synchronous hot-reload from the configured artifact path. Returns
    /// the new generation; on error the previous model keeps serving.
    pub fn reload_now(&self) -> Result<u64, String> {
        self.shared.reload()
    }

    /// The generation currently serving.
    pub fn generation(&self) -> u64 {
        self.shared.state.read().unwrap().generation
    }

    /// Block until the accept loop exits (i.e. until [`Server::shutdown`]
    /// from another thread, or a signal kills the process).
    pub fn wait(&self) {
        if let Some(h) = self.accept.lock().unwrap().take() {
            let _ = h.join();
        }
    }

    /// Stop accepting, wake the accept loop, and join it. Open connections
    /// drain: their reader threads exit on client EOF or the stop flag.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        self.wait();
    }
}

/// Cheap change-detection key for the model artifact (mtime + length; the
/// store's atomic rename makes a same-stamp different-content write
/// practically impossible).
fn artifact_stamp(path: &std::path::Path) -> Option<(SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

enum LineRead {
    Line(Vec<u8>),
    /// Line exceeded the cap; the excess was discarded through the newline.
    Oversized,
    Eof,
}

/// Read one `\n`-terminated line without ever buffering more than `max`
/// bytes: an oversized line is drained (not stored) until its newline so
/// the connection can keep serving subsequent well-formed requests.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
    stop: &AtomicBool,
) -> io::Result<LineRead> {
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        let buf = match reader.fill_buf() {
            Ok(b) => b,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Relaxed) {
                    return Ok(LineRead::Eof);
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(LineRead::Eof);
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !discarding {
                    line.extend_from_slice(&buf[..pos]);
                }
                reader.consume(pos + 1);
                if discarding || line.len() > max {
                    return Ok(LineRead::Oversized);
                }
                return Ok(LineRead::Line(line));
            }
            None => {
                let n = buf.len();
                if !discarding {
                    line.extend_from_slice(buf);
                    if line.len() > max {
                        discarding = true;
                        line.clear();
                    }
                }
                reader.consume(n);
            }
        }
    }
}

/// Best-effort id recovery from a line that failed the typed parse, so the
/// error reply still correlates.
fn salvage_id(line: &str) -> u64 {
    serde_json::parse_value(line)
        .ok()
        .and_then(|v| v.field("id").and_then(|x| x.as_u64()))
        .unwrap_or(0)
}

/// Turn a wire request into a validated [`GraphData`] (norms computed
/// server-side, endpoints range-checked).
fn build_graph(req: Request) -> Result<(u64, GraphData), ErrorReply> {
    let id = req.id;
    if req.edges.len() > NUM_RELATIONS {
        return Err(ErrorReply::new(
            id,
            CODE_BAD_REQUEST,
            format!("{} relation lists; at most {NUM_RELATIONS} supported", req.edges.len()),
        ));
    }
    let mut rel: [Vec<(u32, u32)>; NUM_RELATIONS] = Default::default();
    for (r, list) in req.edges.into_iter().enumerate() {
        rel[r] = list;
    }
    match GraphData::try_from_edge_lists(req.node_text, rel) {
        Ok(g) => Ok((id, g)),
        Err(e) => Err(ErrorReply::new(id, CODE_BAD_REQUEST, e.to_string())),
    }
}

fn handle_client(stream: TcpStream, admit: &SyncSender<Job>, shared: &Shared, cfg: &ServeConfig) {
    stream.set_read_timeout(Some(Duration::from_millis(250))).ok();
    // Replies are one small line each; without TCP_NODELAY the second write
    // of a reply sits behind Nagle until the client's delayed ACK (~40 ms
    // per request on loopback).
    stream.set_nodelay(true).ok();
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // The writer thread owns the write half and serializes replies from
    // both this reader (errors) and the batcher (responses). It lives as
    // long as any in-flight Job holds a sender clone, so a reader that hits
    // EOF never strands queued work.
    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    let writer = std::thread::Builder::new().name("irnuma-serve-write".into()).spawn(move || {
        let mut out = write_half;
        for line in reply_rx {
            if out.write_all(line.as_bytes()).and_then(|()| out.write_all(b"\n")).is_err() {
                break;
            }
            let _ = out.flush();
        }
    });

    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_bounded_line(&mut reader, cfg.max_line_bytes, &shared.stop) {
            Ok(LineRead::Line(l)) => l,
            Ok(LineRead::Oversized) => {
                irnuma_obs::registry().counter("serve.bad_requests").inc(1);
                let e = ErrorReply::new(
                    0,
                    CODE_PAYLOAD_TOO_LARGE,
                    format!("request line exceeds {} bytes", cfg.max_line_bytes),
                );
                let _ = reply_tx.send(serde_json::to_string(&e).unwrap());
                continue;
            }
            Ok(LineRead::Eof) | Err(_) => break,
        };
        let line = String::from_utf8_lossy(&line);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = serde_json::from_str::<Request>(line)
            .map_err(|e| {
                ErrorReply::new(salvage_id(line), CODE_BAD_REQUEST, format!("parse: {e:?}"))
            })
            .and_then(build_graph);
        let (id, graph) = match parsed {
            Ok(ok) => ok,
            Err(e) => {
                irnuma_obs::registry().counter("serve.bad_requests").inc(1);
                let _ = reply_tx.send(serde_json::to_string(&e).unwrap());
                continue;
            }
        };
        irnuma_obs::registry().counter("serve.requests").inc(1);
        // Detached: this guard crosses from the reader thread to the
        // batcher, which drops it once the response is written out.
        let span = SpanGuard::detached(
            "serve.request",
            vec![("id", id.into()), ("nodes", (graph.num_nodes() as u64).into())],
        );
        let job = Job { id, graph, reply: reply_tx.clone(), span, admitted: Instant::now() };
        match admit.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) => {
                irnuma_obs::registry().counter("serve.rejected").inc(1);
                let mut e = ErrorReply::new(job.id, CODE_OVERLOADED, "admission queue full");
                // Hint: one batch window plus a millisecond of slack is the
                // soonest a queue slot can plausibly open.
                e.retry_after_ms = cfg.batch_window_us.div_ceil(1000) + 1;
                let _ = job.reply.send(serde_json::to_string(&e).unwrap());
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    drop(reply_tx);
    if let Ok(w) = writer {
        let _ = w.join();
    }
}

/// Drain micro-batches from the admission queue and answer them with one
/// planned batched inference call per batch.
fn batcher_loop(shared: &Shared, cfg: &ServeConfig, jobs: &mpsc::Receiver<Job>) {
    let window = Duration::from_micros(cfg.batch_window_us);
    loop {
        let first = match jobs.recv_timeout(Duration::from_millis(100)) {
            Ok(j) => j,
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let mut batch = vec![first];
        let deadline = Instant::now() + window;
        while batch.len() < cfg.max_batch {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else { break };
            match jobs.recv_timeout(left) {
                Ok(j) => batch.push(j),
                Err(_) => break,
            }
        }
        if cfg.batch_hold_ms > 0 {
            std::thread::sleep(Duration::from_millis(cfg.batch_hold_ms));
        }
        run_batch(shared, batch);
    }
}

fn run_batch(shared: &Shared, mut batch: Vec<Job>) {
    let snapshot = shared.state.read().unwrap().clone();
    let vocab = snapshot.model.cfg.vocab_size;

    // Tokens are validated against the *serving* snapshot's vocabulary: a
    // hot-reload between admission and batching may have changed it.
    let mut valid: Vec<Job> = Vec::with_capacity(batch.len());
    for job in batch.drain(..) {
        match job.graph.validate(vocab) {
            Ok(()) => valid.push(job),
            Err(e) => {
                irnuma_obs::registry().counter("serve.bad_requests").inc(1);
                let err = ErrorReply::new(job.id, CODE_BAD_REQUEST, e.to_string());
                let _ = job.reply.send(serde_json::to_string(&err).unwrap());
            }
        }
    }
    if valid.is_empty() {
        return;
    }

    let mut span = irnuma_obs::span!("serve.batch", jobs = valid.len() as u64);
    span.field("generation", snapshot.generation);
    irnuma_obs::registry().histogram("serve.batch_size").record(valid.len() as u64);
    let refs: Vec<&GraphData> = valid.iter().map(|j| &j.graph).collect();
    let outs = snapshot.model.infer_batch_planned(&snapshot.plan, &refs);

    for (mut job, out) in valid.into_iter().zip(outs) {
        let queue_ns = u64::try_from(job.admitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        irnuma_obs::registry().histogram("serve.queue_ns").record(queue_ns);
        let resp = Response {
            id: job.id,
            label: out.label(),
            margin: out.margin,
            logits: out.logits,
            probs: out.probs,
            pooled: out.pooled,
            generation: snapshot.generation,
        };
        let _ = job.reply.send(serde_json::to_string(&resp).unwrap());
        irnuma_obs::registry().counter("serve.responses").inc(1);
        job.span.field("queue_ns", queue_ns);
        job.span.field("generation", snapshot.generation);
        drop(job.span); // emits the serve.request root, records latency
    }
}

/// Convenience for `Reply` users comparing against offline inference.
pub fn response_matches(resp: &Response, offline: &irnuma_nn::InferOutput) -> bool {
    resp.label == offline.label()
        && resp.margin.to_bits() == offline.margin.to_bits()
        && resp.logits.len() == offline.logits.len()
        && resp.logits.iter().zip(&offline.logits).all(|(a, b)| a.to_bits() == b.to_bits())
        && resp.probs.iter().zip(&offline.probs).all(|(a, b)| a.to_bits() == b.to_bits())
        && resp.pooled.iter().zip(&offline.pooled).all(|(a, b)| a.to_bits() == b.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_line_reader_discards_oversized_lines_but_keeps_the_stream() {
        // Loopback pair: write a 100 KiB line, then a small one.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let big = vec![b'x'; 100 * 1024];
            s.write_all(&big).unwrap();
            s.write_all(b"\n").unwrap();
            s.write_all(b"small\n").unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(250))).ok();
        let stop = AtomicBool::new(false);
        let mut reader = BufReader::new(conn);
        assert!(matches!(read_bounded_line(&mut reader, 4096, &stop), Ok(LineRead::Oversized)));
        match read_bounded_line(&mut reader, 4096, &stop) {
            Ok(LineRead::Line(l)) => assert_eq!(l, b"small"),
            other => panic!("expected the next line to survive, got {:?}", discriminant(&other)),
        }
        writer.join().unwrap();
    }

    fn discriminant(r: &io::Result<LineRead>) -> &'static str {
        match r {
            Ok(LineRead::Line(_)) => "line",
            Ok(LineRead::Oversized) => "oversized",
            Ok(LineRead::Eof) => "eof",
            Err(_) => "err",
        }
    }

    #[test]
    fn build_graph_rejects_excess_relations_and_bad_edges() {
        let req =
            Request { id: 3, node_text: vec![0, 1], edges: vec![vec![], vec![], vec![], vec![]] };
        let err = build_graph(req).unwrap_err();
        assert_eq!(err.code, CODE_BAD_REQUEST);
        assert_eq!(err.id, 3);

        let req = Request { id: 4, node_text: vec![0, 1], edges: vec![vec![(0, 9)]] };
        let err = build_graph(req).unwrap_err();
        assert_eq!(err.code, CODE_BAD_REQUEST);
        assert!(err.error.contains("references node"), "{}", err.error);

        let req = Request { id: 5, node_text: vec![0, 1], edges: vec![vec![(0, 1)]] };
        let (id, g) = build_graph(req).unwrap();
        assert_eq!((id, g.num_nodes()), (5, 2));
    }
}
