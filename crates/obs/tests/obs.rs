//! Integration tests: span nesting (including across rayon workers),
//! histogram quantiles, and JSONL schema round-trip through serde_json.
//!
//! The trace sink is process-global, so every test that installs one
//! serializes on a shared mutex and clears the sink before releasing it.

use irnuma_obs::{
    clear_sink, current_span, set_sink, span, span_under, Event, MemorySink, TraceContext, Value,
};
use rayon::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

fn sink_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poison) => poison.into_inner(),
    }
}

fn with_memory_sink(f: impl FnOnce(&MemorySink)) {
    let _guard = sink_lock();
    let sink = MemorySink::new();
    set_sink(sink.clone());
    f(&sink);
    clear_sink();
}

fn u64_field(e: &Event, key: &str) -> u64 {
    match e.get(key) {
        Some(&Value::U64(v)) => v,
        other => panic!("field {key} of {e:?}: {other:?}"),
    }
}

#[test]
fn spans_nest_within_a_thread() {
    with_memory_sink(|sink| {
        {
            let outer = span!("outer", tag = "x");
            assert_eq!(current_span(), outer.ctx());
            {
                let inner = span!("inner");
                assert_eq!(current_span(), inner.ctx());
            }
            assert_eq!(current_span(), outer.ctx());
        }
        assert_eq!(current_span(), TraceContext::NONE);

        let events = sink.events();
        assert_eq!(events.len(), 2, "{events:?}");
        // Children drop (and emit) before parents.
        let (inner, outer) = (&events[0], &events[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(u64_field(inner, "parent"), u64_field(outer, "span"));
        assert_eq!(u64_field(outer, "parent"), 0);
        assert_eq!(outer.get("tag"), Some(&Value::Str("x".into())));
    });
}

#[test]
fn spans_nest_across_rayon_workers() {
    with_memory_sink(|sink| {
        let outer_id;
        {
            let outer = span!("batch");
            let ctx = outer.ctx();
            outer_id = ctx.span_id;
            let total: u64 = (0..64u32)
                .into_par_iter()
                .map(|i| {
                    let _item = span_under!(ctx, "item", idx = i);
                    // A grandchild opened on the worker must nest under the
                    // adopted item span, not the worker's root.
                    let _leaf = span!("leaf");
                    i as u64
                })
                .sum();
            assert_eq!(total, 63 * 64 / 2);
        }

        let events = sink.events();
        let items: Vec<&Event> = events.iter().filter(|e| e.name == "item").collect();
        let leaves: Vec<&Event> = events.iter().filter(|e| e.name == "leaf").collect();
        assert_eq!(items.len(), 64);
        assert_eq!(leaves.len(), 64);
        for item in &items {
            assert_eq!(u64_field(item, "parent"), outer_id, "item parents the batch span");
        }
        let item_ids: std::collections::HashSet<u64> =
            items.iter().map(|e| u64_field(e, "span")).collect();
        assert_eq!(item_ids.len(), 64, "span ids are unique");
        for leaf in &leaves {
            assert!(
                item_ids.contains(&u64_field(leaf, "parent")),
                "leaf nests under some item span"
            );
        }
        // Every worker restored its thread-local stack.
        assert_eq!(current_span(), TraceContext::NONE);
    });
}

#[test]
fn disabled_tracing_produces_inert_guards() {
    let _guard = sink_lock();
    clear_sink();
    let s = span!("ignored", a = 1u64);
    assert_eq!(s.ctx(), TraceContext::NONE);
    assert_eq!(current_span(), TraceContext::NONE);
    drop(s);
}

#[test]
fn histogram_quantiles_approximate_known_distribution() {
    let h = irnuma_obs::Histogram::new();
    // 1..=1000 uniformly.
    for v in 1..=1000u64 {
        h.record(v);
    }
    let s = h.snapshot();
    assert_eq!(s.count, 1000);
    assert_eq!(s.sum, 500500);
    assert_eq!(s.min, 1);
    assert_eq!(s.max, 1000);
    // Log-bucket midpoints bound relative error by ~12.5%.
    assert!((s.p50() - 500.0).abs() / 500.0 < 0.15, "p50 {}", s.p50());
    assert!((s.p90() - 900.0).abs() / 900.0 < 0.15, "p90 {}", s.p90());
    assert!((s.p99() - 990.0).abs() / 990.0 < 0.15, "p99 {}", s.p99());
    assert_eq!(s.mean(), 500.5);
    // Quantiles clamp to observed extremes.
    assert!(s.quantile(0.0) >= 1.0);
    assert!(s.quantile(1.0) <= 1000.0);
}

#[test]
fn empty_and_single_sample_histograms() {
    let h = irnuma_obs::Histogram::new();
    assert_eq!(h.snapshot().p50(), 0.0);
    h.record(42);
    let s = h.snapshot();
    assert_eq!(s.p50(), 42.0);
    assert_eq!(s.p99(), 42.0);
    assert_eq!((s.min, s.max, s.count), (42, 42, 1));
}

#[test]
fn counters_and_gauges_register_and_accumulate() {
    let c = irnuma_obs::registry().counter("test.obs.counter");
    c.inc(3);
    c.inc(4);
    assert_eq!(c.get(), 7);
    // Same name → same handle.
    assert_eq!(irnuma_obs::registry().counter("test.obs.counter").get(), 7);
    let g = irnuma_obs::registry().gauge("test.obs.gauge");
    g.set(2.5);
    assert_eq!(g.get(), 2.5);
}

#[test]
#[should_panic(expected = "different kind")]
fn kind_mismatch_panics() {
    irnuma_obs::registry().counter("test.obs.kind_clash");
    irnuma_obs::registry().gauge("test.obs.kind_clash");
}

#[test]
fn jsonl_schema_round_trips_through_serde_json() {
    let _guard = sink_lock();
    let dir = std::env::temp_dir().join("irnuma-obs-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.jsonl");
    set_sink(Arc::new(irnuma_obs::JsonlSink::create(&path).unwrap()));

    {
        let mut s = span!("stage.one", n = 5usize, ratio = 0.25f64, on = true);
        s.field("note", "quotes \" and \\ and\nnewlines");
    }
    irnuma_obs::registry().counter("test.obs.jsonl_counter").inc(9);
    irnuma_obs::registry().histogram("test.obs.jsonl_hist").record(100);
    irnuma_obs::flush_metrics();
    clear_sink();

    let body = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert!(lines.len() >= 3, "span + counter + hist events: {body}");
    let mut kinds = std::collections::HashSet::new();
    for line in &lines {
        let v =
            serde_json::parse_value(line).unwrap_or_else(|e| panic!("bad JSONL `{line}`: {e:?}"));
        // Stable schema: exactly these four top-level keys.
        let serde_json::Value::Object(pairs) = &v else { panic!("not an object: {line}") };
        assert_eq!(pairs.len(), 4, "unexpected top-level keys in {line}");
        for key in ["ts_ns", "kind", "name", "fields"] {
            assert!(v.field(key).is_some(), "missing `{key}` in {line}");
        }
        assert!(v.field("ts_ns").unwrap().as_u64().unwrap() > 0);
        assert!(matches!(v.field("fields"), Some(serde_json::Value::Object(_))));
        kinds.insert(v.field("kind").unwrap().as_str().unwrap().to_string());
    }
    assert!(kinds.contains("span"));
    assert!(kinds.contains("counter"));
    assert!(kinds.contains("hist"));
    let span_line = lines.iter().find(|l| l.contains("stage.one")).unwrap();
    let v = serde_json::parse_value(span_line).unwrap();
    let fields = v.field("fields").unwrap();
    assert_eq!(fields.field("n").unwrap().as_u64(), Some(5));
    assert_eq!(fields.field("ratio").unwrap().as_f64(), Some(0.25));
    assert_eq!(fields.field("on").unwrap().as_bool(), Some(true));
    assert_eq!(fields.field("note").unwrap().as_str(), Some("quotes \" and \\ and\nnewlines"));
    assert!(fields.field("dur_ns").unwrap().as_u64().is_some());
    std::fs::remove_file(&path).ok();
}

#[test]
fn timed_returns_duration_even_without_tracing() {
    let _guard = sink_lock();
    clear_sink();
    let (out, secs) = irnuma_obs::timed("timed.section", || {
        std::thread::sleep(std::time::Duration::from_millis(2));
        7
    });
    assert_eq!(out, 7);
    assert!(secs >= 0.002);
}

#[test]
fn snapshot_capture_is_consistent_under_concurrent_writers() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // Writers hammer a counter and a histogram while the main thread
    // captures snapshots. Every observed counter value must be monotonic
    // across captures and bounded by what was actually written; histogram
    // counts must never run ahead of their sums' implied record count.
    // Captures start only once every writer has recorded, so on a loaded
    // host they still overlap the writes instead of finishing first.
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let started = std::sync::Arc::new(std::sync::Barrier::new(5));
    let writers: Vec<_> = (0..4)
        .map(|_| {
            let (stop, started) = (stop.clone(), started.clone());
            std::thread::spawn(move || {
                let mut written = 0u64;
                loop {
                    irnuma_obs::registry().counter("snapcon.counter").inc(1);
                    irnuma_obs::registry().histogram("snapcon.hist").record(7);
                    written += 1;
                    if written == 1 {
                        started.wait();
                    }
                    if stop.load(Ordering::Relaxed) {
                        return written;
                    }
                }
            })
        })
        .collect();
    started.wait();

    let mut last_counter = 0u64;
    for _ in 0..200 {
        let snap = irnuma_obs::TelemetrySnapshot::capture();
        if let Some((_, v)) = snap.counters.iter().find(|(n, _)| n == "snapcon.counter") {
            assert!(*v >= last_counter, "counter went backwards: {v} < {last_counter}");
            last_counter = *v;
        }
        if let Some((_, h)) = snap.hists.iter().find(|(n, _)| n == "snapcon.hist") {
            // Every record adds exactly 7 to the sum; a snapshot may catch a
            // record between its count and sum updates, so allow slack of
            // one in-flight record per writer in either direction.
            let implied = h.sum / 7;
            assert!(
                implied.abs_diff(h.count) <= 4,
                "histogram count {} vs sum-implied {}",
                h.count,
                implied
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    let final_snap = irnuma_obs::TelemetrySnapshot::capture();
    let (_, v) =
        final_snap.counters.iter().find(|(n, _)| n == "snapcon.counter").expect("counter present");
    assert_eq!(*v, total, "final snapshot sees every write");
}

#[test]
fn snapshot_capture_pairs_histogram_count_with_sum() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // Every record adds 7 to the sum, so a snapshot's sum must cover all
    // `count` records it reports — never lag them — and run ahead by at
    // most one in-flight record per writer.
    const WRITERS: u64 = 4;
    let hist = Arc::new(irnuma_obs::Histogram::new());
    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(std::sync::Barrier::new(WRITERS as usize + 1));
    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            let (hist, stop, started) = (hist.clone(), stop.clone(), started.clone());
            std::thread::spawn(move || {
                hist.record(7);
                started.wait();
                while !stop.load(Ordering::Relaxed) {
                    hist.record(7);
                }
            })
        })
        .collect();
    started.wait();
    for _ in 0..20_000 {
        let h = hist.snapshot();
        assert!(h.sum >= 7 * h.count, "sum {} lags count {}", h.sum, h.count);
        assert!(h.sum <= 7 * (h.count + WRITERS), "sum {} runs ahead of count {}", h.sum, h.count);
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
}
