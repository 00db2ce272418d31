//! `cs-traffic-cli` — the end-to-end pipeline as a command-line tool.
//!
//! ```text
//! cs-traffic-cli simulate  --scenario small --out-dir data
//! cs-traffic-cli build-tcm --network data/network.csv --reports data/reports.csv \
//!                          --granularity 30 --duration-h 6 --out data/tcm.csv
//! cs-traffic-cli estimate  --tcm data/tcm.csv --method cs --out data/estimate.csv
//! cs-traffic-cli analyze   --tcm data/truth.csv
//! cs-traffic-cli evaluate  --truth data/truth.csv --estimate data/estimate.csv \
//!                          --observed data/tcm.csv
//! ```

use cs_traffic_cli::{
    cmd_analyze, cmd_build_tcm, cmd_chaos, cmd_chaos_net, cmd_daemon, cmd_daemon_client,
    cmd_detect, cmd_estimate, cmd_evaluate, cmd_inspect, cmd_serve, cmd_simulate, parse_flags,
    CliError, CliResult, DaemonClientOptions, DaemonOptions, ServeOptions,
};
use std::path::Path;

const USAGE: &str =
    "usage: cs-traffic-cli <simulate|build-tcm|estimate|analyze|detect|evaluate|serve|daemon|daemon-client|chaos|chaos-net|inspect> [--flag value ...]

global flags:
  --threads N        worker threads for completion/detection hot paths
                     (0 = all cores, 1 = sequential; results are identical)
  --log-level LEVEL  telemetry verbosity to stderr: off|error|info|debug|trace
                     (default off; debug adds per-sweep/per-generation spans)
  --metrics-out F    append telemetry records as JSON lines to F (also
                     enables counters/gauges/histograms, flushed on exit)
  --trace-sample N   causal per-report tracing modulus for serve/chaos:
                     0 = off (default), 1 = every report, N = reports whose
                     FNV-1a trace ID is divisible by N; raises the level
                     to trace for the sinks (stderr stays at --log-level)
  --flight-recorder N  install a flight recorder ring of the last N
                     telemetry records (default 512 when any flight/trace
                     flag is set); dumped on panic and degraded solves

subcommands:
  simulate   --scenario small|shanghai|shenzhen [--fleet N] [--duration-h H]
             [--granularity 15|30|60] --out-dir DIR
  build-tcm  --network FILE --reports FILE --granularity 15|30|60
             --duration-h H --out FILE
  estimate   --tcm FILE --method cs|knn|corr-knn|mssa [--rank R] [--lambda L]
             --out FILE
  analyze    --tcm FILE
  detect     --tcm FILE [--period-slots N] [--sigma S]
  evaluate   --truth FILE --estimate FILE --observed FILE
  serve      --network FILE --reports FILE [--granularity 15|30|60]
             [--window-slots W] [--rank R] [--lambda L] [--batch N]
             [--shards S] [--checkpoint FILE] [--out FILE] [--flight-dump FILE]
             (replays reports through the fault-tolerant streaming
              service; --batch 0 = whole file in one tick; --shards 1
              is a bit-for-bit pass-through of the classic engine; with
              --flight-dump, degraded ticks dump the flight recorder)
  daemon     --bind tcp:HOST:PORT|unix:/path.sock
             (--network FILE | --segments N) [--granularity 15|30|60]
             [--window-slots W] [--rank R] [--lambda L] [--shards S]
             [--checkpoint FILE] [--tick-ms MS]
             (long-running cs-wire/v1 server over TCP or a Unix socket;
              concurrent clients stream reports and query the merged
              live estimate; SIGTERM/SIGINT or a client Shutdown drains,
              ticks once more, writes --checkpoint, and exits 0)
  daemon-client --addr tcp:HOST:PORT|unix:/path.sock
             [--network FILE --reports FILE] [--batch N]
             [--query estimate|stats|health] [--out FILE]
             [--shutdown true]
             (dial a daemon: optionally ingest a report file, then run
              one query; --query estimate --out writes the live window
              estimate as a TCM; exit 76 on wire-protocol violations)
  chaos      --seed N [--ticks T] [--sweep K] [--solve-mode incremental|full]
             [--flight-dump FILE]
             (deterministic fault-injection run against the streaming
              service with a differential oracle; same seed = identical
              output at any --threads AND any --solve-mode; exit 70 on
              oracle violation; --solve-mode full makes every solve
              a full warm sweep instead of one warm pass, for
              differential runs against the default;
              --flight-dump captures degraded ticks and oracle failures)
  chaos-net  --seed N [--sweep K] [--clients C] [--shards S]
             (connection-level chaos: faulty cs-wire/v1 clients —
              mid-frame cuts, adversarial write boundaries, slow-loris
              stalls — against a live sharded daemon on an ephemeral
              loopback port; predicted-delivered differential oracle,
              one summary line per seed, byte-identical at any
              --threads; exit 70 on oracle violation)
  inspect    [--dump FILE] [--expose FILE]
             (--dump renders a cs-traffic-flight/v1 flight dump as a
              causal timeline; --expose re-renders the metric snapshots
              in any telemetry JSONL as Prometheus exposition text)";

fn run() -> CliResult {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage(USAGE.into()));
    };
    let flags = parse_flags(&args[1..])?;
    let get = |k: &str| -> CliResult<&String> {
        flags
            .get(k)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{k}\n\n{USAGE}")))
    };
    if let Some(threads) = flags.get("threads") {
        // One process-wide default instead of a parameter through every
        // subcommand: configs built with `num_threads: 0` pick it up.
        workpool::set_default_threads(threads.parse()?);
    }
    let tele_cfg = telemetry::TelemetryConfig {
        level: flags
            .get("log-level")
            .map(|s| s.parse().map_err(CliError::Usage))
            .transpose()?
            .unwrap_or_default(),
        metrics_out: flags.get("metrics-out").map(std::path::PathBuf::from),
    };
    telemetry::init(&tele_cfg).map_err(|e| CliError::Io(format!("telemetry init failed: {e}")))?;
    let trace_sample: u64 = flags.get("trace-sample").map(|s| s.parse()).transpose()?.unwrap_or(0);
    let flight_dump = flags.get("flight-dump").map(std::path::PathBuf::from);
    // A dump without causal traces is near-useless, so requesting a
    // dump path turns full tracing on unless a sample was given.
    let trace_sample = if flight_dump.is_some() && trace_sample == 0 { 1 } else { trace_sample };
    let flight_capacity: Option<usize> =
        flags.get("flight-recorder").map(|s| s.parse()).transpose()?;
    if trace_sample > 0 || flight_dump.is_some() || flight_capacity.is_some() {
        // Tracing and the flight ring ride on the record dispatch
        // layer: raise the effective level so trace records reach the
        // sinks (the stderr pretty-printer still filters by
        // --log-level, so the terminal stays quiet).
        telemetry::set_level(telemetry::level().max(telemetry::Level::Trace));
        let recorder = telemetry::flight::install(flight_capacity.unwrap_or(512));
        if let Some(path) = &flight_dump {
            recorder.set_dump_path(path.clone());
        }
        recorder.set_meta("command", cmd);
        recorder.set_meta("trace_sample", &trace_sample.to_string());
    }
    match cmd.as_str() {
        "simulate" => cmd_simulate(
            get("scenario")?,
            flags.get("fleet").map(|s| s.parse()).transpose()?,
            flags.get("duration-h").map(|s| s.parse()).transpose()?,
            flags.get("granularity").map_or("15", |s| s.as_str()),
            Path::new(get("out-dir")?),
        ),
        "build-tcm" => cmd_build_tcm(
            Path::new(get("network")?),
            Path::new(get("reports")?),
            get("granularity")?,
            get("duration-h")?.parse()?,
            Path::new(get("out")?),
        ),
        "estimate" => cmd_estimate(
            Path::new(get("tcm")?),
            get("method")?,
            flags.get("rank").map(|s| s.parse()).transpose()?,
            flags.get("lambda").map(|s| s.parse()).transpose()?,
            Path::new(get("out")?),
        ),
        "analyze" => cmd_analyze(Path::new(get("tcm")?), std::io::stdout().lock()),
        "detect" => cmd_detect(
            Path::new(get("tcm")?),
            flags.get("period-slots").map_or(Ok(48), |s| s.parse())?,
            flags.get("sigma").map_or(Ok(3.5), |s| s.parse())?,
            std::io::stdout().lock(),
        ),
        "evaluate" => cmd_evaluate(
            Path::new(get("truth")?),
            Path::new(get("estimate")?),
            Path::new(get("observed")?),
        )
        .map(|_| ()),
        "serve" => {
            let defaults = ServeOptions::default();
            let opts = ServeOptions {
                granularity: flags.get("granularity").cloned().unwrap_or(defaults.granularity),
                window_slots: flags
                    .get("window-slots")
                    .map(|s| s.parse())
                    .transpose()?
                    .unwrap_or(defaults.window_slots),
                rank: flags.get("rank").map(|s| s.parse()).transpose()?,
                lambda: flags.get("lambda").map(|s| s.parse()).transpose()?,
                batch: flags.get("batch").map(|s| s.parse()).transpose()?.unwrap_or(defaults.batch),
                checkpoint: flags.get("checkpoint").map(std::path::PathBuf::from),
                out: flags.get("out").map(std::path::PathBuf::from),
                trace_sample,
                flight_dump: flight_dump.clone(),
                shards: flags
                    .get("shards")
                    .map(|s| s.parse())
                    .transpose()?
                    .unwrap_or(defaults.shards),
            };
            cmd_serve(
                Path::new(get("network")?),
                Path::new(get("reports")?),
                &opts,
                std::io::stdout().lock(),
            )
        }
        "daemon" => {
            let defaults = DaemonOptions::default();
            let opts = DaemonOptions {
                bind: get("bind")?.clone(),
                network: flags.get("network").map(std::path::PathBuf::from),
                segments: flags.get("segments").map(|s| s.parse()).transpose()?,
                granularity: flags.get("granularity").cloned().unwrap_or(defaults.granularity),
                window_slots: flags
                    .get("window-slots")
                    .map(|s| s.parse())
                    .transpose()?
                    .unwrap_or(defaults.window_slots),
                rank: flags.get("rank").map(|s| s.parse()).transpose()?,
                lambda: flags.get("lambda").map(|s| s.parse()).transpose()?,
                shards: flags
                    .get("shards")
                    .map(|s| s.parse())
                    .transpose()?
                    .unwrap_or(defaults.shards),
                checkpoint: flags.get("checkpoint").map(std::path::PathBuf::from),
                tick_ms: flags
                    .get("tick-ms")
                    .map(|s| s.parse())
                    .transpose()?
                    .unwrap_or(defaults.tick_ms),
            };
            cmd_daemon(&opts, std::io::stdout().lock())
        }
        "daemon-client" => {
            let defaults = DaemonClientOptions::default();
            let opts = DaemonClientOptions {
                addr: get("addr")?.clone(),
                network: flags.get("network").map(std::path::PathBuf::from),
                reports: flags.get("reports").map(std::path::PathBuf::from),
                batch: flags.get("batch").map(|s| s.parse()).transpose()?.unwrap_or(defaults.batch),
                query: flags.get("query").cloned(),
                out: flags.get("out").map(std::path::PathBuf::from),
                shutdown: flags
                    .get("shutdown")
                    .map(|s| s.parse())
                    .transpose()
                    .map_err(|_| CliError::Usage("--shutdown wants true|false".to_string()))?
                    .unwrap_or(defaults.shutdown),
            };
            cmd_daemon_client(&opts, std::io::stdout().lock())
        }
        "chaos" => cmd_chaos(
            get("seed")?.parse()?,
            flags.get("ticks").map_or(Ok(24), |s| s.parse())?,
            flags.get("sweep").map_or(Ok(1), |s| s.parse())?,
            true,
            match flags.get("solve-mode").map(String::as_str) {
                None | Some("incremental") => false,
                Some("full") => true,
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "unknown --solve-mode '{other}' (incremental|full)"
                    )))
                }
            },
            trace_sample,
            flight_dump.clone(),
            std::io::stdout().lock(),
        ),
        "chaos-net" => cmd_chaos_net(
            get("seed")?.parse()?,
            flags.get("sweep").map_or(Ok(1), |s| s.parse())?,
            flags.get("clients").map_or(Ok(8), |s| s.parse())?,
            flags.get("shards").map_or(Ok(2), |s| s.parse())?,
            std::io::stdout().lock(),
        ),
        "inspect" => cmd_inspect(
            flags.get("dump").map(Path::new),
            flags.get("expose").map(Path::new),
            std::io::stdout().lock(),
        ),
        other => Err(CliError::Usage(format!("unknown subcommand '{other}'\n\n{USAGE}"))),
    }
}

fn main() {
    let result = run();
    // Flush sinks (and dump final metric snapshots) even on error paths.
    telemetry::shutdown();
    if let Err(e) = result {
        eprintln!("error: {e}");
        // The single place failures become exit codes.
        std::process::exit(e.exit_code());
    }
}
