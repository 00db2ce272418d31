//! `servebench`: the serve path's benchmark.
//!
//! ```text
//! servebench --workload <dense-core|metro-sparse|wire-mixed|all> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! Runs whole episodes of the workload (see [`workload`]) until
//! `--seconds` have passed, at least two, then prints the run record and,
//! as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` the run alternates untraced and
//! traced episodes and reports the per-layer metrics, writing the spans
//! to `.bench_trace/<workload>-seed<n>.jsonl`.
//!
//! Exit status: 0 when every correctness check passed, 1 when one
//! failed (the failing checks are named), 2 on a usage or run error.

mod gate;
mod gen;
mod quantile;
mod report;
mod sys;
mod trace;
mod workload;

use gate::Check;
use report::Metric;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use telemetry::json::Json;
use trace::Recorder;
use workload::{Episode, Spec, DEFAULT_SEED, NAMES};

/// The worker-thread count every run pins, whatever the host reports,
/// so runs on different hosts fan out alike.
const THREADS: usize = 2;
/// Guard against a run that never reaches its deadline.
const MAX_EPISODES: usize = 64;
/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workloads: Vec<Spec>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workloads: Vec::new(), seed: DEFAULT_SEED, seconds: 30, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => {
                parsed.workloads = NAMES.iter().filter_map(|n| Spec::named(n)).collect();
            }
            "--workload" => {
                parsed.workloads = vec![Spec::named(value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {NAMES:?} or all")
                })?];
            }
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err(format!("--workload is required: one of {NAMES:?} or all"));
    }
    Ok(parsed)
}

/// What one workload's run produced.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Runs whole episodes of `spec` until `seconds` have passed (at least
/// one untraced and, with `trace`, one traced), checks them, and prints
/// the run record.
fn run_workload(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let cpu0 = sys::cpu_jiffies();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let sock = PathBuf::from(format!("servebench-{}.sock", std::process::id()));
    let (mut untraced, mut traced, mut replays) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rec, mut replay_rec) = (Recorder::default(), Recorder::default());
    let mut checks: Vec<Check> = Vec::new();
    for i in 0.. {
        // A traced run alternates untraced and traced episodes, so the
        // tracing cost is measured within the run.
        let tracing = trace && i % 2 == 1;
        let r = if tracing { Some(&mut rec) } else { None };
        let ep = if spec.wire {
            workload::run_wire(spec, seed, &sock, r)?
        } else {
            workload::run_inproc(spec, seed, r)?
        };
        if tracing && spec.wire {
            // Paired replay: the same ticks through an in-process engine
            // with the same shard plan.
            let replay = workload::run_inproc(spec, seed, Some(&mut replay_rec))?;
            checks.push(gate::check_replay(&ep.fingerprint, &replay.fingerprint));
            replays.push(replay);
        }
        if tracing {
            traced.push(ep);
        } else {
            untraced.push(ep);
        }
        let n = untraced.len() + traced.len();
        if (n >= 2 && Instant::now() >= deadline) || n >= MAX_EPISODES {
            break;
        }
    }
    let steal = sys::steal_share(cpu0, sys::cpu_jiffies());
    let peak_rss_mb = sys::peak_rss_mb().ok_or("VmHWM unreadable from /proc/self/status")?;

    let all: Vec<&Episode> = untraced.iter().chain(&traced).collect();
    for ep in &all {
        checks.extend(gate::check_episode(&ep.expected, &ep.observed));
        checks.push(gate::check_repeat(&all[0].fingerprint, &ep.fingerprint));
    }
    let correct = checks.iter().all(|c| c.ok);
    let attempted = all.iter().map(|e| report::attempts(e)).sum();
    let failed = all.iter().map(|e| report::failures(e)).sum();

    let span_path = Path::new(TRACE_DIR).join(format!("{}-seed{seed}.jsonl", spec.name));
    let metrics = if trace {
        let engine = if spec.wire { &replays } else { &traced };
        let engine_rec = if spec.wire { &replay_rec } else { &rec };
        let labels: Vec<(&str, &Recorder)> = if spec.wire {
            vec![("wire", &rec), ("replay", &replay_rec)]
        } else {
            vec![("inproc", &rec)]
        };
        trace::write_all(&span_path, &labels)
            .map_err(|e| format!("writing {}: {e}", span_path.display()))?;
        report::per_layer(&report::Traced {
            spec,
            untraced: &untraced,
            traced: &traced,
            traced_rec: &rec,
            engine,
            engine_rec,
        })
    } else {
        report::end_to_end(&untraced, peak_rss_mb)
    };

    println!(
        "== {} seed={seed} seconds={seconds} trace={} episodes={} (untraced {}, traced {})",
        spec.name,
        u8::from(trace),
        all.len(),
        untraced.len(),
        traced.len()
    );
    for m in &metrics {
        let n = m.count.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<32} {:>16.6} {}{n}", m.name, m.value, m.unit);
    }
    if trace {
        println!("  spans written to {}", span_path.display());
    }
    let full_share = report::full_share(if spec.wire { &replays } else { &untraced });
    for line in report::diagnostics(spec, &untraced, full_share, steal, sys::nproc()) {
        println!("  diag {line}");
    }
    for c in checks.iter().filter(|c| !c.ok) {
        println!("  FAILED check {}: {}", c.name, c.detail);
        eprintln!("servebench: {} failed check {}: {}", spec.name, c.name, c.detail);
    }
    println!("  verdict {}", if correct { "correct" } else { "INCORRECT" });
    Ok(RunResult { correct, attempted, failed, metrics })
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Metric)>) -> Json {
    let metrics = metrics
        .into_iter()
        .map(|(name, m)| {
            let body = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (name, body)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    workpool::set_default_threads(THREADS);
    let single = args.workloads.len() == 1;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for spec in &args.workloads {
        match run_workload(spec, args.seed, args.seconds, args.trace) {
            Ok(r) => {
                correct &= r.correct;
                attempted += r.attempted;
                failed += r.failed;
                for m in r.metrics {
                    let name = if single {
                        m.name.to_string()
                    } else {
                        format!("{}/{}", spec.name, m.name)
                    };
                    metrics.push((name, m));
                }
            }
            Err(e) => {
                eprintln!("servebench: {}: {e}", spec.name);
                std::process::exit(2);
            }
        }
    }
    println!("{}", result_json(correct, attempted, failed, metrics).encode());
    std::process::exit(if correct { 0 } else { 1 });
}
