//! Integration test: the full CLI pipeline over real files in a temp
//! directory — simulate → build-tcm → estimate → evaluate.

use cs_traffic_cli::{cmd_analyze, cmd_build_tcm, cmd_estimate, cmd_evaluate, cmd_simulate};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cs_traffic_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline_through_files() {
    let dir = temp_dir("full");

    // 1. Simulate a small scenario (6 h, 40 taxis).
    cmd_simulate("small", Some(40), Some(6), "30", &dir).unwrap();
    for f in ["network.csv", "truth.csv", "reports.csv"] {
        assert!(dir.join(f).exists(), "{f} missing");
    }

    // 2. Build the measurement TCM from the report CSV.
    let tcm_path = dir.join("tcm.csv");
    cmd_build_tcm(&dir.join("network.csv"), &dir.join("reports.csv"), "30", 6, &tcm_path).unwrap();
    assert!(tcm_path.exists());

    // 3. Estimate with the compressive-sensing method.
    let est_path = dir.join("estimate.csv");
    cmd_estimate(&tcm_path, "cs", Some(2), Some(0.5), &est_path).unwrap();

    // 4. Evaluate against the simulated ground truth.
    let nmae = cmd_evaluate(&dir.join("truth.csv"), &est_path, &tcm_path).unwrap();
    assert!(nmae > 0.0 && nmae < 0.5, "pipeline NMAE {nmae}");

    // 5. Analyze both matrices (sparse and complete paths).
    let mut out = Vec::new();
    cmd_analyze(&tcm_path, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("integrity"));
    let mut out = Vec::new();
    cmd_analyze(&dir.join("truth.csv"), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("eigenflows"), "complete matrix analysis: {text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn estimate_methods_all_work() {
    let dir = temp_dir("methods");
    cmd_simulate("small", Some(40), Some(6), "60", &dir).unwrap();
    let tcm_path = dir.join("tcm.csv");
    cmd_build_tcm(&dir.join("network.csv"), &dir.join("reports.csv"), "60", 6, &tcm_path).unwrap();
    for method in ["cs", "knn", "corr-knn"] {
        let out = dir.join(format!("est_{method}.csv"));
        cmd_estimate(&tcm_path, method, None, None, &out).unwrap();
        assert!(out.exists(), "{method} produced no file");
    }
    assert!(cmd_estimate(&tcm_path, "nonsense", None, None, &dir.join("x.csv")).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evaluate_validates_inputs() {
    let dir = temp_dir("validate");
    cmd_simulate("small", Some(20), Some(3), "60", &dir).unwrap();
    let tcm_path = dir.join("tcm.csv");
    cmd_build_tcm(&dir.join("network.csv"), &dir.join("reports.csv"), "60", 3, &tcm_path).unwrap();
    // Incomplete estimate must be rejected.
    assert!(cmd_evaluate(&dir.join("truth.csv"), &tcm_path, &tcm_path).is_err());
    // Missing file surfaces as an error, not a panic.
    assert!(cmd_evaluate(&dir.join("nope.csv"), &tcm_path, &tcm_path).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn detect_runs_on_sparse_and_complete() {
    use cs_traffic_cli::cmd_detect;
    let dir = temp_dir("detect");
    cmd_simulate("small", Some(40), Some(6), "30", &dir).unwrap();
    let tcm_path = dir.join("tcm.csv");
    cmd_build_tcm(&dir.join("network.csv"), &dir.join("reports.csv"), "30", 6, &tcm_path).unwrap();
    // Sparse path (12 slots at 30 min over 6 h; period of 12 = the whole
    // window, so the median is over one "day" — degenerate but exercised).
    let mut out = Vec::new();
    cmd_detect(&tcm_path, 4, 4.0, &mut out).unwrap();
    assert!(String::from_utf8(out).unwrap().contains("detections:"));
    // Complete path.
    let mut out = Vec::new();
    cmd_detect(&dir.join("truth.csv"), 4, 4.0, &mut out).unwrap();
    assert!(String::from_utf8(out).unwrap().contains("detections:"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_replay_matches_offline_pipeline() {
    use cs_traffic_cli::{cmd_serve, ServeOptions};
    let dir = temp_dir("serve");
    cmd_simulate("small", Some(40), Some(6), "30", &dir).unwrap();
    let tcm_path = dir.join("tcm.csv");
    cmd_build_tcm(&dir.join("network.csv"), &dir.join("reports.csv"), "30", 6, &tcm_path).unwrap();
    let offline_est = dir.join("estimate_offline.csv");
    cmd_estimate(&tcm_path, "cs", Some(2), Some(0.5), &offline_est).unwrap();

    // Replay the same reports through the streaming service with the
    // window covering the full grid (6 h at 30 min = 12 slots) and a
    // single tick: the one cold solve must reproduce the offline
    // pipeline bit for bit.
    let serve_est = dir.join("estimate_serve.csv");
    let opts = ServeOptions {
        granularity: "30".into(),
        window_slots: 12,
        rank: Some(2),
        lambda: Some(0.5),
        batch: 0,
        out: Some(serve_est.clone()),
        ..ServeOptions::default()
    };
    let mut out = Vec::new();
    cmd_serve(&dir.join("network.csv"), &dir.join("reports.csv"), &opts, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("replayed"), "{text}");
    assert!(text.contains("0 rejected"), "clean replay must reject nothing: {text}");

    let offline = std::fs::read_to_string(&offline_est).unwrap();
    let streamed = std::fs::read_to_string(&serve_est).unwrap();
    assert_eq!(offline, streamed, "streamed estimate CSV diverged from offline pipeline");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_survives_corrupt_reports_and_checkpoints() {
    use cs_traffic_cli::{cmd_serve, ServeOptions};
    let dir = temp_dir("serve_faults");
    cmd_simulate("small", Some(20), Some(3), "30", &dir).unwrap();

    // Corrupt the replay: garbage lines, NaN speeds, short rows.
    let reports = dir.join("reports.csv");
    let mut text = std::fs::read_to_string(&reports).unwrap();
    text.push_str("this,is,not,a,report\n");
    text.push_str("1,0,0,NaN,1,0,5\n");
    text.push_str("7,1,2\n");
    std::fs::write(&reports, text).unwrap();

    let ckpt = dir.join("serve.ckpt");
    let opts = ServeOptions {
        granularity: "30".into(),
        window_slots: 6,
        batch: 50,
        checkpoint: Some(ckpt.clone()),
        ..ServeOptions::default()
    };
    let mut out = Vec::new();
    cmd_serve(&dir.join("network.csv"), &reports, &opts, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("3 malformed"), "malformed lines must be counted: {text}");
    assert!(ckpt.exists(), "checkpoint not written");

    // Second run restores the warm start from the checkpoint.
    let mut out = Vec::new();
    cmd_serve(&dir.join("network.csv"), &reports, &opts, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("restored warm start"), "{text}");

    // A truncated checkpoint is a typed input error, not a panic.
    std::fs::write(&ckpt, "cs-serve-checkpoint v1\nclock zzz\n").unwrap();
    let err = {
        let mut out = Vec::new();
        cmd_serve(&dir.join("network.csv"), &reports, &opts, &mut out).unwrap_err()
    };
    assert_eq!(err.exit_code(), 65, "bad checkpoint must map to the data exit code: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The network path end to end at the CLI layer: a live daemon, the
/// `daemon-client` ingesting the simulated report file over TCP, and the
/// resulting window estimate written as a TCM — byte-identical to the
/// in-process `serve --out` replay of the same file.
#[test]
fn daemon_client_round_trip_matches_in_process_serve() {
    use cs_traffic_cli::{cmd_daemon_client, cmd_serve, DaemonClientOptions, ServeOptions};
    use std::io::BufReader;
    use traffic_cs::cs::CsConfig;
    use traffic_cs::daemon::{Daemon, DaemonConfig};
    use traffic_cs::service::ServeConfig;

    let dir = temp_dir("daemon_client");
    cmd_simulate("small", Some(30), Some(3), "30", &dir).unwrap();
    let network = dir.join("network.csv");
    let reports = dir.join("reports.csv");

    // In-process baseline: whole file, one tick.
    let serve_est = dir.join("estimate_serve.csv");
    let opts = ServeOptions {
        granularity: "30".into(),
        window_slots: 6,
        rank: Some(2),
        lambda: Some(0.5),
        batch: 0,
        out: Some(serve_est.clone()),
        ..ServeOptions::default()
    };
    cmd_serve(&network, &reports, &opts, Vec::new()).unwrap();

    // A daemon with the same engine config, periodic ticks effectively
    // off so the client's final Sync barrier is the only tick.
    let net =
        roadnet::io::read_network(BufReader::new(std::fs::File::open(&network).unwrap())).unwrap();
    let serve_cfg = ServeConfig::builder()
        .slot_len_s(30 * 60)
        .window_slots(6)
        .num_segments(net.segment_count())
        .cs(CsConfig { rank: 2, lambda: 0.5, ..CsConfig::default() })
        .build()
        .unwrap();
    let mut cfg =
        DaemonConfig::new(proto::net::BindAddr::parse("tcp:127.0.0.1:0").unwrap(), serve_cfg);
    cfg.tick_interval = std::time::Duration::from_secs(3600);
    let handle = Daemon::bind(cfg).unwrap().spawn().unwrap();

    let daemon_est = dir.join("estimate_daemon.csv");
    let client_opts = DaemonClientOptions {
        addr: handle.addr().to_string(),
        network: Some(network.clone()),
        reports: Some(reports.clone()),
        batch: 100,
        query: Some("estimate".into()),
        out: Some(daemon_est.clone()),
        shutdown: true,
    };
    let mut buf = Vec::new();
    cmd_daemon_client(&client_opts, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("ingested"), "{text}");
    assert!(text.contains("live estimate"), "{text}");
    assert!(text.contains("daemon acknowledged shutdown"), "{text}");
    let dead_addr = handle.addr().to_string();
    handle.join().unwrap();

    let offline = std::fs::read_to_string(&serve_est).unwrap();
    let over_wire = std::fs::read_to_string(&daemon_est).unwrap();
    assert_eq!(offline, over_wire, "socket transport must not change a single byte");

    // Protocol-level failures carry their own exit code: dialing a dead
    // daemon is I/O (74), a bad address spelling is usage (2).
    let dead = DaemonClientOptions { addr: dead_addr, ..DaemonClientOptions::default() };
    assert_eq!(cmd_daemon_client(&dead, Vec::new()).unwrap_err().exit_code(), 74);
    let bad = DaemonClientOptions { addr: "ftp:nope".into(), ..DaemonClientOptions::default() };
    assert_eq!(cmd_daemon_client(&bad, Vec::new()).unwrap_err().exit_code(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end observability path: a sabotaged (zero-budget) service
/// with tracing on degrades, dumps the flight recorder, and
/// `inspect --dump` reconstructs the causal timeline of the failing
/// window naming the trace IDs involved.
#[test]
fn flight_dump_of_a_degraded_solve_inspects_to_a_causal_timeline() {
    use cs_traffic_cli::cmd_inspect;
    use traffic_cs::cs::CsConfig;
    use traffic_cs::service::{Observation, ServeConfig, Service};

    let dir = temp_dir("flight");
    let dump = dir.join("flight_dump.jsonl");
    telemetry::set_level(telemetry::Level::Trace);
    telemetry::flight::install(256);

    let cfg = ServeConfig::builder()
        .slot_len_s(60)
        .window_slots(4)
        .num_segments(4)
        .trace_sample(1)
        .flight_dump(Some(dump.clone()))
        .cs(CsConfig { rank: 2, lambda: 0.1, ..CsConfig::default() })
        .build()
        .unwrap();
    let mut s = Service::new(cfg).unwrap();
    // Zero wall-clock budget: every solve is over budget → degraded.
    s.set_solve_budget(Some(std::time::Duration::ZERO));
    for v in 0..6u64 {
        s.push(Observation {
            vehicle: v,
            timestamp_s: (v % 4) * 60,
            segment: (v % 4) as usize,
            speed_kmh: 30.0,
        });
    }
    let report = s.tick();
    assert!(report.degraded, "zero budget must degrade the solve");
    assert!(dump.exists(), "degraded tick must dump the flight recorder");

    let mut buf = Vec::new();
    cmd_inspect(Some(&dump), None, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("trigger: solve_degraded"), "{text}");
    assert!(text.contains("causal timelines"), "{text}");
    assert!(text.contains("degraded solve:"), "timeline must name the failing window: {text}");
    // At least one concrete trace ID is named, and its timeline walks
    // ingest → admitted → degraded.
    for stage in ["ingest", "admitted", "degraded"] {
        assert!(text.contains(stage), "stage '{stage}' missing from timeline:\n{text}");
    }

    // Inspecting garbage is a typed input error, not a panic.
    let bogus = dir.join("not_a_dump.jsonl");
    std::fs::write(&bogus, "{\"schema\":\"something-else/v9\"}\n").unwrap();
    let err = cmd_inspect(Some(&bogus), None, Vec::new()).unwrap_err();
    assert_eq!(err.exit_code(), 65, "{err}");
    // Asking for nothing is a usage error.
    assert_eq!(cmd_inspect(None, None, Vec::new()).unwrap_err().exit_code(), 2);

    telemetry::reset_for_tests();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `inspect --expose` re-renders metric snapshots from a metrics JSONL
/// as Prometheus exposition text — byte-compatible with the live
/// `telemetry::metrics::expose_text()` format pinned in the telemetry
/// crate's golden test.
#[test]
fn inspect_expose_renders_prometheus_text_from_jsonl() {
    use cs_traffic_cli::cmd_inspect;
    let dir = temp_dir("expose");
    let jsonl = dir.join("metrics.jsonl");
    std::fs::write(
        &jsonl,
        concat!(
            "{\"type\":\"counter\",\"level\":\"info\",\"name\":\"serve.admitted\",\"ts_ms\":1,\"fields\":{\"value\":10}}\n",
            "{\"type\":\"counter\",\"level\":\"info\",\"name\":\"serve.admitted\",\"ts_ms\":2,\"fields\":{\"value\":42}}\n",
            "{\"type\":\"event\",\"level\":\"info\",\"name\":\"ignored.event\",\"ts_ms\":3}\n",
            "{\"type\":\"histogram\",\"level\":\"info\",\"name\":\"serve.tick_us\",\"ts_ms\":4,\"fields\":{\"count\":3,\"sum\":6.0,\"p50\":2.0,\"p99\":2.0,\"p999\":2.0}}\n",
        ),
    )
    .unwrap();

    let mut buf = Vec::new();
    cmd_inspect(None, Some(&jsonl), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let expected = "\
# TYPE serve_admitted counter
serve_admitted 42
# TYPE serve_tick_us summary
serve_tick_us{quantile=\"0.5\"} 2
serve_tick_us{quantile=\"0.99\"} 2
serve_tick_us{quantile=\"0.999\"} 2
serve_tick_us_sum 6
serve_tick_us_count 3
";
    assert_eq!(text, expected, "last snapshot per metric wins, events are skipped");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulate_rejects_unknown_scenario() {
    let dir = temp_dir("badscen");
    assert!(cmd_simulate("metropolis", None, None, "15", &dir).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_subcommand_is_deterministic_and_reports_every_seed() {
    use cs_traffic_cli::cmd_chaos;
    // check_counters stays off here: telemetry counters are
    // process-global and other tests in this binary run services
    // concurrently; the binary itself enables the check.
    let mut first = Vec::new();
    cmd_chaos(11, 12, 3, false, false, 0, None, &mut first).unwrap();
    let mut second = Vec::new();
    cmd_chaos(11, 12, 3, false, false, 0, None, &mut second).unwrap();
    assert_eq!(first, second, "same sweep must produce byte-identical output");
    // Forcing full sweeps on every solve must not change a single byte
    // either — the incremental path is an optimization, not a fork.
    let mut full = Vec::new();
    cmd_chaos(11, 12, 3, false, true, 0, None, &mut full).unwrap();
    assert_eq!(first, full, "--solve-mode full must produce byte-identical output");
    let text = String::from_utf8(first).unwrap();
    assert_eq!(text.lines().count(), 3, "one summary line per seed: {text}");
    for seed in 11..14 {
        assert!(text.contains(&format!("seed={seed} ")), "seed {seed} missing: {text}");
    }
    assert!(text.lines().all(|l| l.ends_with("oracle=ok")), "{text}");
}
