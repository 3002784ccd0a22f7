//! Integration tests for the `irnuma` CLI binary.

use std::process::Command;

fn irnuma(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_irnuma")).args(args).output().expect("binary runs")
}

#[test]
fn help_and_unknown_commands() {
    let out = irnuma(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = irnuma(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = irnuma(&[]);
    assert!(!out.status.success());
}

#[test]
fn zero_flag_sequences_are_a_clean_error() {
    let out_file = std::env::temp_dir().join("irnuma-cli-zero-seqs.json");
    for args in [
        vec!["train", "--seqs", "0"],
        vec!["predict", "cg.axpy", "--seqs", "0"],
        vec!["dataset", "--seqs", "0", "--out", out_file.to_str().unwrap()],
    ] {
        let out = irnuma(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("error: bad --seqs"), "{args:?}: {stderr}");
    }
    assert!(!out_file.exists(), "a rejected build must write nothing");
}

#[test]
fn zero_model_width_is_a_clean_error() {
    for args in [vec!["train", "--hidden", "0"], vec!["train", "--hidden", "wide"]] {
        let out = irnuma(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error: bad --hidden (need a positive width)"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn list_regions_prints_all_56() {
    let out = irnuma(&["list-regions"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 57, "header + 56 regions");
    assert!(text.contains("cg.spmv"));
    assert!(text.contains("lulesh.calc_fb"));
}

#[test]
fn show_ir_prints_a_module() {
    let out = irnuma(&["show-ir", "cg.axpy"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("module \"cg.axpy\""));
    assert!(text.contains(".omp_outlined.cg.axpy"));

    // --o3 changes the IR.
    let opt = irnuma(&["show-ir", "cg.axpy", "--o3"]);
    assert!(opt.status.success());
    assert_ne!(out.stdout, opt.stdout);
}

#[test]
fn show_source_prints_pseudo_c() {
    let out = irnuma(&["show-source", "cg.spmv"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("#pragma omp"));
    assert!(text.contains("rowptr"));
}

#[test]
fn graph_stats_and_dot_export() {
    let out = irnuma(&["graph", "hotspot.temp"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nodes"));
    assert!(text.contains("control"));

    let dir = std::env::temp_dir().join("irnuma-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let dot = dir.join("g.dot");
    let out = irnuma(&["graph", "hotspot.temp", "--dot", dot.to_str().unwrap()]);
    assert!(out.status.success());
    let content = std::fs::read_to_string(&dot).unwrap();
    assert!(content.starts_with("digraph"));
    std::fs::remove_file(&dot).ok();
}

#[test]
fn sweep_reports_top_configs() {
    let out = irnuma(&["sweep", "clomp.calc_zones", "--arch", "sandybridge"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("320 configurations"));
    assert!(text.contains("top 5:"));
}

#[test]
fn interp_executes_a_region() {
    let out = irnuma(&["interp", "cg.axpy", "--n", "32"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("interpreter steps"));
}

#[test]
fn unknown_region_is_a_clean_error() {
    let out = irnuma(&["sweep", "no.such.region"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown region"));
}

#[test]
fn dataset_fault_injection_skips_one_region() {
    let dir = std::env::temp_dir().join("irnuma-cli-fault");
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("ds");
    let out = irnuma(&[
        "dataset",
        "--seqs",
        "2",
        "--calls",
        "2",
        "--fault",
        "cg.spmv",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("55 regions"), "one region skipped: {text}");
    assert!(text.contains("skipped 1 regions"), "{text}");
    assert!(text.contains("cg.spmv"), "{text}");

    // --strict restores fail-fast: the same fault aborts the build.
    let strict = irnuma(&[
        "dataset",
        "--seqs",
        "2",
        "--calls",
        "2",
        "--strict",
        "--fault",
        "cg.spmv",
        "--out",
        dir.join("ds-strict").to_str().unwrap(),
    ]);
    assert!(!strict.status.success());
    assert!(String::from_utf8_lossy(&strict.stderr).contains("strict"));
    assert!(!dir.join("ds-strict").exists(), "no partial artifact on failure");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dataset_info_verify_reports_the_distinct_graph_count() {
    let dir = std::env::temp_dir().join("irnuma-cli-info-distinct");
    std::fs::remove_dir_all(&dir).ok();
    let ds = dir.join("ds");
    let out = irnuma(&[
        "dataset",
        "--seqs",
        "3",
        "--calls",
        "1",
        "--json",
        "--out",
        ds.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let summary = String::from_utf8_lossy(&out.stdout).into_owned();
    let field = |name: &str| -> usize {
        let at = summary.find(&format!("\"{name}\":")).expect(name) + name.len() + 3;
        summary[at..].split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
    };
    let (graphs, distinct) = (field("graphs"), field("distinct_graphs"));
    assert!(distinct < graphs, "{summary}");

    let info = irnuma(&["dataset", "info", ds.to_str().unwrap(), "--verify"]);
    assert!(info.status.success(), "{}", String::from_utf8_lossy(&info.stderr));
    let expect =
        format!("verify ok: {graphs} graphs decoded ({distinct} distinct), all checksums match");
    let stdout = String::from_utf8_lossy(&info.stdout);
    assert!(stdout.lines().any(|l| l == expect), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_resume_is_bit_identical_to_an_uninterrupted_run() {
    let dir = std::env::temp_dir().join("irnuma-cli-train");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let ds = dir.join("ds");
    let out = irnuma(&[
        "dataset",
        "--seqs",
        "2",
        "--calls",
        "2",
        "--shard-regions",
        "16",
        "--out",
        ds.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let info = irnuma(&["dataset", "info", ds.to_str().unwrap(), "--verify"]);
    assert!(info.status.success(), "{}", String::from_utf8_lossy(&info.stderr));
    assert!(String::from_utf8_lossy(&info.stdout).contains("verify ok"));

    // Reference: 4 uninterrupted epochs.
    let full = dir.join("model-full.json");
    let out = irnuma(&[
        "train",
        "--dataset",
        ds.to_str().unwrap(),
        "--epochs",
        "4",
        "--out",
        full.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Interrupted run: 2 epochs with checkpoints, then resume to 4.
    let ckpt = dir.join("ckpt");
    let out = irnuma(&[
        "train",
        "--dataset",
        ds.to_str().unwrap(),
        "--epochs",
        "2",
        "--ckpt-dir",
        ckpt.to_str().unwrap(),
        "--every",
        "1",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(ckpt.join("latest").exists());

    let resumed = dir.join("model-resumed.json");
    let out = irnuma(&[
        "train",
        "--dataset",
        ds.to_str().unwrap(),
        "--epochs",
        "4",
        "--ckpt-dir",
        ckpt.to_str().unwrap(),
        "--every",
        "1",
        "--resume",
        "--out",
        resumed.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let a = std::fs::read(&full).unwrap();
    let b = std::fs::read(&resumed).unwrap();
    assert_eq!(a, b, "resumed model differs from the uninterrupted run");

    // The atomic writer leaves no temp residue behind.
    for entry in std::fs::read_dir(&ckpt).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "stale temp file {name}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dataset_json_build_reports_the_skip_counter() {
    let dir = std::env::temp_dir().join("irnuma-cli-fault-json");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("ds");
    let out = irnuma(&[
        "dataset",
        "--seqs",
        "2",
        "--calls",
        "2",
        "--fault",
        "cg.spmv",
        "--json",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    // The faulted region is dropped, and the build's --json summary must
    // carry the counter that recorded it.
    assert!(text.contains("\"dataset.skipped\":1"), "{text}");
    assert!(text.contains("\"regions\":55"), "{text}");
    assert!(text.contains("cg.spmv"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dataset_reports_its_distinct_final_modules_and_graphs() {
    let dir = std::env::temp_dir().join("irnuma-cli-distinct-forms");
    std::fs::remove_dir_all(&dir).ok();
    let out_dir = dir.join("ds");
    let args = ["dataset", "--seqs", "6", "--calls", "2", "--out", out_dir.to_str().unwrap()];
    let out = irnuma(&[&args[..], &["--json"]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v = serde_json::parse_value(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let get = |k: &str| v.field(k).and_then(|f| f.as_u64()).unwrap_or_else(|| panic!("{k}"));
    let (graphs, modules, distinct) =
        (get("graphs"), get("distinct_modules"), get("distinct_graphs"));
    assert_eq!(graphs, 56 * 6);
    // At least one form per region, at most one per sequence, and
    // different modules may share a graph.
    assert!(56 <= distinct && distinct <= modules && modules <= graphs, "{v:?}");

    std::fs::remove_dir_all(&out_dir).ok();
    let text = String::from_utf8_lossy(&irnuma(&args).stdout).to_string();
    assert!(
        text.contains(&format!("{modules} distinct final modules, {distinct} distinct graphs")),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_dataset_that_is_not_a_pack_is_a_clean_error() {
    let dir = std::env::temp_dir().join("irnuma-cli-not-a-pack");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("some.json");
    std::fs::write(&json, b"{}").unwrap();
    let json = json.to_str().unwrap();
    for args in [vec!["train", "--dataset", json], vec!["predict", "cg.axpy", "--dataset", json]] {
        let out = irnuma(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`{json}` is not a pack directory")),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_then_report_covers_the_pipeline() {
    let dir = std::env::temp_dir().join("irnuma-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("sweep-trace.jsonl");

    // A traced sweep exercises workloads + sim; every line must parse and
    // the sweep stage must appear in the report.
    let out = Command::new(env!("CARGO_BIN_EXE_irnuma"))
        .args(["sweep", "cg.axpy"])
        .env("IRNUMA_TRACE", trace.to_str().unwrap())
        .env("IRNUMA_LOG", "warn")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(trace.exists(), "trace file written");

    let report = irnuma(&["report", trace.to_str().unwrap(), "--require", "sim.sweep"]);
    assert!(report.status.success(), "{}", String::from_utf8_lossy(&report.stderr));
    let text = String::from_utf8_lossy(&report.stdout);
    assert!(text.contains("stage"), "table header: {text}");
    assert!(text.contains("sim.sweep"));
    assert!(text.contains("all required stages present"));

    // Requiring a stage the command never ran fails loudly.
    let missing = irnuma(&["report", trace.to_str().unwrap(), "--require", "train.epoch"]);
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("train.epoch"));

    // Corrupt lines are skipped (a live trace may end mid-write) but the
    // report says how many it dropped.
    let bad = dir.join("bad-trace.jsonl");
    std::fs::write(
        &bad,
        "{\"ts_ns\":1,\"kind\":\"span\"\nnot json\n{\"ts_ns\":2,\"kind\":\"counter\",\"name\":\"c\",\"fields\":{\"value\":3}}\n",
    )
    .unwrap();
    let out = irnuma(&["report", bad.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("report.malformed_lines: 2"));

    // --json emits a machine-readable report with the same information.
    let js = irnuma(&["report", bad.to_str().unwrap(), "--json"]);
    assert!(js.status.success());
    let body = String::from_utf8_lossy(&js.stdout);
    assert!(body.contains("\"malformed_lines\":2"), "{body}");
    assert!(body.contains("\"counters\""), "{body}");

    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&bad).ok();
}

#[test]
fn trace_analyze_and_perfetto_export_on_a_traced_sweep() {
    let dir = std::env::temp_dir().join("irnuma-cli-causal");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");

    let out = Command::new(env!("CARGO_BIN_EXE_irnuma"))
        .args(["sweep", "cg.axpy"])
        .env("IRNUMA_TRACE", trace.to_str().unwrap())
        .env("IRNUMA_LOG", "warn")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // The forest must be complete: a sim.sweep root with its per-config
    // fan-out spans attached, zero orphans, and a critical path that the
    // analyzer confirms sums to the root's wall-clock (it appends a
    // MISMATCH marker otherwise).
    let an = irnuma(&["trace", "analyze", trace.to_str().unwrap(), "--require-roots", "sim.sweep"]);
    assert!(an.status.success(), "{}", String::from_utf8_lossy(&an.stderr));
    let text = String::from_utf8_lossy(&an.stdout);
    assert!(text.contains("root sim.sweep"), "{text}");
    assert!(text.contains("0 orphan(s)"), "{text}");
    assert!(text.contains("critical path"), "{text}");
    assert!(!text.contains("MISMATCH"), "{text}");

    // Requiring a root this command never opened fails and names it.
    let missing =
        irnuma(&["trace", "analyze", trace.to_str().unwrap(), "--require-roots", "train.epoch"]);
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("train.epoch"));

    // Perfetto export: loadable Chrome trace-event JSON with complete
    // events and thread-name metadata.
    let perfetto = dir.join("trace.perfetto.json");
    let ex = irnuma(&[
        "trace",
        "export",
        trace.to_str().unwrap(),
        "--perfetto",
        perfetto.to_str().unwrap(),
    ]);
    assert!(ex.status.success(), "{}", String::from_utf8_lossy(&ex.stderr));
    let body = std::fs::read_to_string(&perfetto).unwrap();
    assert!(body.contains("\"traceEvents\""), "{body}");
    assert!(body.contains("\"ph\":\"X\""), "{body}");
    assert!(body.contains("thread_name"), "{body}");

    // The flat report over a causal trace gains the %-of-wall column and
    // honors --sort; a bad sort key is a clean error.
    let rep = irnuma(&["report", trace.to_str().unwrap(), "--sort", "count"]);
    assert!(rep.status.success(), "{}", String::from_utf8_lossy(&rep.stderr));
    assert!(String::from_utf8_lossy(&rep.stdout).contains("%wall"));
    let bad = irnuma(&["report", trace.to_str().unwrap(), "--sort", "nope"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("nope"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_ends_quietly() {
    use std::process::Stdio;
    // `list-regions | head` closes the pipe while the command prints;
    // `top --watch` prints a frame every 0.1 s until a write fails, so it
    // meets the closed pipe on every run.
    for args in [vec!["list-regions"], vec!["top", "--watch", "0.1"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_irnuma"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
    }
}
