//! Library backing the `cs-traffic-cli` binary.
//!
//! Every subcommand is a plain function over file paths so the
//! integration tests exercise exactly what the binary runs:
//!
//! * [`cmd_simulate`] — generate a city + fleet day, dump network,
//!   ground truth, and probe reports as CSV;
//! * [`cmd_build_tcm`] — map-match a probe CSV against a network CSV and
//!   bin it into a traffic condition matrix;
//! * [`cmd_estimate`] — complete a TCM with any of the four algorithms;
//! * [`cmd_analyze`] — integrity and spectral structure of a TCM;
//! * [`cmd_evaluate`] — NMAE of an estimate against a ground-truth TCM.

use probes::io::{read_reports, read_tcm, write_reports, write_tcm};
use probes::tcm::build_tcm_from_reports;
use probes::{Granularity, SlotGrid, Tcm};
use roadnet::matching::SegmentIndex;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use traffic_cs::baselines::MssaConfig;
use traffic_cs::cs::CsConfig;
use traffic_cs::estimator::Estimator;
use traffic_sim::ScenarioConfig;

/// CLI-level error, classified so the binary maps every failure mode to
/// an exit code in exactly one place ([`CliError::exit_code`]).
#[derive(Debug)]
pub enum CliError {
    /// The command line itself was wrong: unknown subcommand or method,
    /// missing or malformed flag.
    Usage(String),
    /// An input file or parameter was rejected: CSV parse failures,
    /// shape mismatches, invalid configurations.
    Input(String),
    /// Filesystem or I/O trouble.
    Io(String),
    /// An algorithm failed on otherwise well-formed input.
    Algorithm(String),
    /// A `cs-wire` protocol failure talking to (or serving as) the
    /// daemon: framing violations, undecodable messages, handshake
    /// refusals.
    Protocol(String),
}

impl CliError {
    /// The process exit code for this failure, sysexits(3)-style:
    /// `2` usage, `65` bad input data (`EX_DATAERR`), `70` algorithm
    /// failure (`EX_SOFTWARE`), `74` I/O (`EX_IOERR`), `76` wire
    /// protocol (`EX_PROTOCOL`).
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Input(_) => 65,
            CliError::Algorithm(_) => 70,
            CliError::Io(_) => 74,
            CliError::Protocol(_) => 76,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Input(m)
            | CliError::Io(m)
            | CliError::Algorithm(m)
            | CliError::Protocol(m) => m,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for CliError {}

macro_rules! from_error {
    ($($variant:ident: $ty:ty),+ $(,)?) => {
        $(impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError::$variant(e.to_string())
            }
        })+
    };
}

from_error!(
    Io: std::io::Error,
    Usage: std::num::ParseIntError,
    Usage: std::num::ParseFloatError,
    Input: probes::io::CsvError,
    Input: probes::TcmError,
    Input: roadnet::io::ReadError,
    Input: linalg::MatrixShapeError,
    Algorithm: traffic_cs::estimator::EstimateError,
    Input: traffic_cs::ConfigError,
    Protocol: proto::msg::DecodeError,
    Protocol: proto::frame::FrameError,
);

impl From<traffic_cs::Error> for CliError {
    fn from(e: traffic_cs::Error) -> Self {
        match e {
            traffic_cs::Error::Config(c) => CliError::Input(c.to_string()),
            traffic_cs::Error::Serve(traffic_cs::ServeError::Io(io)) => {
                CliError::Io(io.to_string())
            }
            traffic_cs::Error::Serve(c) => CliError::Input(c.to_string()),
            traffic_cs::Error::Daemon(traffic_cs::DaemonError::Io { what, source }) => {
                CliError::Io(format!("daemon {what}: {source}"))
            }
            traffic_cs::Error::Daemon(d) => CliError::Algorithm(format!("daemon: {d}")),
            other => CliError::Algorithm(other.to_string()),
        }
    }
}

impl From<proto::client::ClientError> for CliError {
    fn from(e: proto::client::ClientError) -> Self {
        match e {
            // Socket-level trouble is I/O; everything else is the wire
            // protocol misbehaving.
            proto::client::ClientError::Io(io) => CliError::Io(io.to_string()),
            other => CliError::Protocol(other.to_string()),
        }
    }
}

/// Result alias for subcommands.
pub type CliResult<T = ()> = Result<T, CliError>;

fn parse_granularity(s: &str) -> CliResult<Granularity> {
    match s {
        "15" => Ok(Granularity::Min15),
        "30" => Ok(Granularity::Min30),
        "60" => Ok(Granularity::Min60),
        other => Err(CliError::Usage(format!(
            "granularity must be 15, 30 or 60 (minutes), got '{other}'"
        ))),
    }
}

/// `simulate`: runs a scenario and writes `network.csv`, `truth.csv`,
/// and `reports.csv` into `out_dir`.
///
/// # Errors
///
/// Unknown scenario names and I/O failures.
pub fn cmd_simulate(
    scenario: &str,
    fleet: Option<usize>,
    duration_h: Option<u64>,
    granularity: &str,
    out_dir: &Path,
) -> CliResult {
    let mut cfg = match scenario {
        "small" => ScenarioConfig::small_test(),
        "shanghai" => ScenarioConfig::shanghai_like(),
        "shenzhen" => ScenarioConfig::shenzhen_like(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown scenario '{other}' (small|shanghai|shenzhen)"
            )))
        }
    };
    if let Some(f) = fleet {
        cfg.fleet.fleet_size = f;
    }
    if let Some(h) = duration_h {
        cfg.duration_s = h * 3600;
    }
    cfg.granularity = parse_granularity(granularity)?;
    std::fs::create_dir_all(out_dir)?;
    let out = cfg.run();
    roadnet::io::write_network(
        &out.network,
        BufWriter::new(File::create(out_dir.join("network.csv"))?),
    )?;
    write_tcm(&out.ground_truth, BufWriter::new(File::create(out_dir.join("truth.csv"))?))?;
    write_reports(&out.reports, BufWriter::new(File::create(out_dir.join("reports.csv"))?))?;
    println!(
        "simulated '{}': {} segments, {} reports, {} slots -> {}",
        cfg.name,
        out.network.segment_count(),
        out.reports.len(),
        out.grid.num_slots(),
        out_dir.display()
    );
    Ok(())
}

/// `build-tcm`: map-matches `reports` against `network` and writes the
/// binned TCM.
///
/// # Errors
///
/// Parse and I/O failures.
pub fn cmd_build_tcm(
    network: &Path,
    reports: &Path,
    granularity: &str,
    duration_h: u64,
    out: &Path,
) -> CliResult {
    let net = roadnet::io::read_network(BufReader::new(File::open(network)?))?;
    let reports = read_reports(BufReader::new(File::open(reports)?))?;
    let grid = SlotGrid::covering(0, duration_h * 3600, parse_granularity(granularity)?);
    let index = SegmentIndex::build(&net, 150.0);
    let tcm = build_tcm_from_reports(&reports, &net, &index, &grid, 80.0);
    write_tcm(&tcm, BufWriter::new(File::create(out)?))?;
    println!(
        "built TCM {} x {} (integrity {:.1}%) -> {}",
        tcm.num_slots(),
        tcm.num_segments(),
        tcm.integrity() * 100.0,
        out.display()
    );
    Ok(())
}

/// `estimate`: completes `tcm` with the chosen method and writes the
/// full estimate as a complete TCM CSV.
///
/// # Errors
///
/// Unknown methods, algorithm failures, and I/O failures.
pub fn cmd_estimate(
    tcm_path: &Path,
    method: &str,
    rank: Option<usize>,
    lambda: Option<f64>,
    out: &Path,
) -> CliResult {
    let tcm = read_tcm(BufReader::new(File::open(tcm_path)?))?;
    let estimator = match method {
        "cs" => {
            // Default λ scaled by matrix size, as in the experiments.
            let cells = (tcm.num_slots() * tcm.num_segments()) as f64;
            let default_lambda = (100.0 * cells / (672.0 * 221.0)).max(0.01);
            Estimator::CompressiveSensing(CsConfig {
                rank: rank.unwrap_or(2),
                lambda: lambda.unwrap_or(default_lambda),
                ..CsConfig::default()
            })
        }
        "knn" => Estimator::NaiveKnn { k: rank.unwrap_or(4) },
        "corr-knn" => Estimator::CorrelationKnn { k_range: rank.unwrap_or(2) },
        "mssa" => Estimator::Mssa(MssaConfig::default()),
        other => {
            return Err(CliError::Usage(format!("unknown method '{other}' (cs|knn|corr-knn|mssa)")))
        }
    };
    let estimate = estimator.estimate(&tcm)?;
    write_tcm(&Tcm::complete(estimate), BufWriter::new(File::create(out)?))?;
    println!("estimated with {} -> {}", estimator.kind(), out.display());
    Ok(())
}

/// `analyze`: prints integrity and spectral structure of a TCM to `w`.
///
/// # Errors
///
/// Parse and I/O failures.
pub fn cmd_analyze<W: Write>(tcm_path: &Path, mut w: W) -> CliResult {
    let tcm = read_tcm(BufReader::new(File::open(tcm_path)?))?;
    writeln!(w, "TCM: {} slots x {} segments", tcm.num_slots(), tcm.num_segments())?;
    writeln!(w, "integrity: {:.2}%", tcm.integrity() * 100.0)?;
    let roads = probes::integrity::per_road(&tcm);
    let empty = roads.iter().filter(|&&r| r == 0.0).count();
    writeln!(w, "segments never observed: {empty}")?;
    if tcm.integrity() == 1.0 {
        // Structure analysis needs a complete matrix.
        let spectrum = traffic_cs::pca::normalized_spectrum(tcm.values())?;
        writeln!(w, "singular values (top 8, ratio to max):")?;
        for (i, v) in spectrum.iter().take(8).enumerate() {
            writeln!(w, "  sigma{:<2} {v:.4}", i + 1)?;
        }
        let k90 = traffic_cs::pca::effective_rank(tcm.values(), 0.9)?;
        writeln!(w, "components for 90% energy: {k90}")?;
        let analysis = traffic_cs::eigenflow::EigenflowAnalysis::compute(tcm.values())?;
        let (p, s, n) = analysis.type_counts();
        writeln!(w, "eigenflows: {p} periodic, {s} spike, {n} noise")?;
    } else {
        writeln!(w, "(complete the matrix to enable the spectral analysis)")?;
    }
    Ok(())
}

/// `evaluate`: NMAE of `estimate` against `truth` over the cells missing
/// in `observed` (Definition 2's evaluation protocol).
///
/// # Errors
///
/// Shape mismatches, parse and I/O failures.
pub fn cmd_evaluate(truth: &Path, estimate: &Path, observed: &Path) -> CliResult<f64> {
    let truth = read_tcm(BufReader::new(File::open(truth)?))?;
    let est = read_tcm(BufReader::new(File::open(estimate)?))?;
    let obs = read_tcm(BufReader::new(File::open(observed)?))?;
    if truth.integrity() < 1.0 {
        return Err(CliError::Input("ground-truth TCM must be complete".into()));
    }
    if est.integrity() < 1.0 {
        return Err(CliError::Input("estimate TCM must be complete".into()));
    }
    if truth.values().shape() != est.values().shape()
        || truth.values().shape() != obs.values().shape()
    {
        return Err(CliError::Input(format!(
            "shape mismatch: truth {:?}, estimate {:?}, observed {:?}",
            truth.values().shape(),
            est.values().shape(),
            obs.values().shape()
        )));
    }
    let nmae = traffic_cs::metrics::nmae_on_missing(truth.values(), est.values(), obs.indicator());
    println!("NMAE over unobserved cells: {nmae:.4}");
    Ok(nmae)
}

/// `detect`: anomaly detection on a TCM CSV. Complete matrices use the
/// dense detector; sparse ones the observed-evidence detector against a
/// seasonal-median baseline of the observed cells' completion.
///
/// # Errors
///
/// Parse, shape, and I/O failures.
pub fn cmd_detect<W: Write>(
    tcm_path: &Path,
    period_slots: usize,
    threshold_sigma: f64,
    mut w: W,
) -> CliResult {
    use traffic_cs::anomaly::{detect_anomalies, detect_anomalies_sparse, AnomalyConfig, Baseline};
    let tcm = read_tcm(BufReader::new(File::open(tcm_path)?))?;
    let cfg = AnomalyConfig {
        baseline: Baseline::SeasonalMedian { period_slots },
        threshold_sigma,
        ..AnomalyConfig::default()
    };
    let detections = if tcm.integrity() == 1.0 {
        detect_anomalies(tcm.values(), &cfg).map_err(|e| CliError::Algorithm(e.to_string()))?
    } else {
        // Complete first, then use the estimate's seasonal median as the
        // baseline and alert only on observed cells.
        let cells = (tcm.num_slots() * tcm.num_segments()) as f64;
        let cs = CsConfig {
            rank: 8,
            lambda: (100.0 * cells / (672.0 * 221.0)).max(0.01),
            ..CsConfig::default()
        };
        let estimate = traffic_cs::cs::complete_matrix(&tcm, &cs)
            .map_err(|e| CliError::Algorithm(e.to_string()))?;
        let baseline = traffic_cs::anomaly::seasonal_median_baseline(&estimate, period_slots)
            .map_err(|e| CliError::Algorithm(e.to_string()))?;
        detect_anomalies_sparse(&tcm, &baseline, &cfg)
            .map_err(|e| CliError::Algorithm(e.to_string()))?
    };
    writeln!(w, "detections: {}", detections.len())?;
    for d in detections.iter().take(20) {
        writeln!(
            w,
            "  segment {:>4}, slots {:>4}-{:<4} z={:.1} drop={:.1} km/h",
            d.segment, d.start_slot, d.end_slot, d.peak_zscore, -d.peak_residual
        )?;
    }
    Ok(())
}

/// Options for [`cmd_serve`], the streaming replay service.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCM granularity (slot length), `"15" | "30" | "60"` minutes.
    pub granularity: String,
    /// Sliding-window height in slots.
    pub window_slots: usize,
    /// Algorithm-1 rank (default 2).
    pub rank: Option<usize>,
    /// Algorithm-1 tradeoff λ (default scaled to the window size).
    pub lambda: Option<f64>,
    /// Reports drained per tick; `0` replays the whole file in one tick
    /// (the mode whose final solve is bit-identical to the offline
    /// `build-tcm` + `estimate` pipeline).
    pub batch: usize,
    /// Warm-start checkpoint: loaded before the replay when the file
    /// exists, saved after it.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Write the final window estimate as a complete TCM CSV.
    pub out: Option<std::path::PathBuf>,
    /// Causal-trace sampling modulus (see
    /// [`traffic_cs::service::ServeConfig::trace_sample`]).
    pub trace_sample: u64,
    /// Flight-recorder dump path for degraded ticks.
    pub flight_dump: Option<std::path::PathBuf>,
    /// Segment-range shard workers (1 = the classic single engine,
    /// which is a bit-for-bit pass-through).
    pub shards: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            granularity: "15".to_string(),
            window_slots: 24,
            rank: None,
            lambda: None,
            batch: 0,
            checkpoint: None,
            out: None,
            trace_sample: 0,
            flight_dump: None,
            shards: 1,
        }
    }
}

/// `serve`: replays a probe report file through the fault-tolerant
/// streaming engine ([`traffic_cs::sharded::ShardedService`], which with
/// the default single-shard plan is a bitwise pass-through of
/// [`traffic_cs::service::Service`]) and keeps a live estimate of the
/// sliding window.
///
/// Reports are map-matched exactly like [`cmd_build_tcm`] (same index
/// radius, same matching distance), so a full-file replay with the
/// window sized to the grid reproduces the offline pipeline bit for bit.
/// Malformed CSV lines are rejected per record (counted, never fatal);
/// everything else goes through the service's admission rules.
///
/// # Errors
///
/// Setup failures only: unreadable network/reports files, invalid
/// configuration, checkpoint I/O. Runtime trouble (bad reports, failed
/// solves) degrades inside the service and shows up in the summary.
pub fn cmd_serve<W: Write>(
    network: &Path,
    reports: &Path,
    opts: &ServeOptions,
    mut w: W,
) -> CliResult {
    use std::io::BufRead;
    use traffic_cs::service::{report_trace_id, Observation, ServeConfig};
    use traffic_cs::sharded::{ShardPlan, ShardedService};

    let net = roadnet::io::read_network(BufReader::new(File::open(network)?))?;
    let index = SegmentIndex::build(&net, 150.0);
    let slot_len_s = parse_granularity(&opts.granularity)?.seconds();

    let window_cells = (opts.window_slots * net.segment_count()) as f64;
    let default_lambda = (100.0 * window_cells / (672.0 * 221.0)).max(0.01);
    let cs = CsConfig {
        rank: opts.rank.unwrap_or(2),
        lambda: opts.lambda.unwrap_or(default_lambda),
        ..CsConfig::default()
    };
    let cfg = ServeConfig::builder()
        .slot_len_s(slot_len_s)
        .window_slots(opts.window_slots)
        .num_segments(net.segment_count())
        .cs(cs)
        .trace_sample(opts.trace_sample)
        .flight_dump(opts.flight_dump.clone())
        .shards(ShardPlan::with_count(opts.shards.max(1)))
        .build()?;
    let mut service = ShardedService::new(cfg)?;

    if let Some(ckpt) = &opts.checkpoint {
        if ckpt.exists() {
            service.load_checkpoint(ckpt)?;
            writeln!(w, "restored warm start from {}", ckpt.display())?;
        }
    }

    // Replay line by line: a malformed record is one rejected report,
    // never a dead service.
    let mut malformed = 0u64;
    let mut unmatched = 0u64;
    let mut pushed = 0u64;
    let reader = BufReader::new(File::open(reports)?);
    let mut lines = reader.lines();
    // Header line (validated loosely: an empty file is just an empty replay).
    let _ = lines.next().transpose()?;
    let batch = if opts.batch == 0 { usize::MAX } else { opts.batch };
    let mut in_batch = 0usize;
    for (idx, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let report = match probes::io::parse_report_record(&line, idx + 2) {
            Ok(r) => r,
            Err(_) => {
                malformed += 1;
                if telemetry::metrics_enabled() {
                    telemetry::counter("serve.rejected").incr();
                }
                continue;
            }
        };
        // Same matching as build-tcm: direction-aware, 80 m radius.
        let heading = report.has_heading().then_some(report.heading);
        let Some(m) = index.match_point_directed(&net, report.position, 80.0, heading) else {
            unmatched += 1;
            continue;
        };
        let obs = Observation {
            vehicle: report.vehicle.0 as u64,
            timestamp_s: report.timestamp_s,
            segment: m.segment.index(),
            speed_kmh: report.speed_kmh,
        };
        // The trace begins at parse time: the same ID the owning shard
        // will derive (its `ingest_seq` is about to be consumed by this
        // push), so the `parsed` stage links the CSV line to the rest
        // of the report's life.
        if opts.trace_sample > 0 && telemetry::enabled(telemetry::Level::Trace) {
            let id = report_trace_id(
                obs.vehicle,
                obs.timestamp_s,
                obs.segment,
                service.ingest_seq_for(obs.segment),
            );
            if id.is_multiple_of(opts.trace_sample) {
                telemetry::trace_event(
                    "serve.trace",
                    vec![
                        ("trace".into(), telemetry::Value::Str(format!("{id:016x}"))),
                        ("stage".into(), telemetry::Value::Str("parsed".to_string())),
                        ("line".into(), telemetry::Value::UInt(idx as u64 + 2)),
                    ],
                );
            }
        }
        service.push(obs);
        pushed += 1;
        in_batch += 1;
        if in_batch >= batch {
            service.tick();
            in_batch = 0;
        }
    }
    service.tick();

    let stats = service.stats();
    writeln!(
        w,
        "replayed {pushed} reports ({malformed} malformed, {unmatched} unmatched): \
         {} admitted, {} late, {} duplicate, {} rejected, {} solves, {} degraded",
        stats.admitted,
        stats.dropped_late,
        stats.duplicates,
        stats.rejected,
        stats.solves,
        stats.degraded
    )?;
    match service.latest() {
        Some(live) => {
            writeln!(
                w,
                "live estimate: window head slot {}, {} sweeps, stale: {}",
                live.head_slot, live.sweeps, live.stale
            )?;
            if let Some(out) = &opts.out {
                write_tcm(
                    &Tcm::complete(live.estimate.clone()),
                    BufWriter::new(File::create(out)?),
                )?;
                writeln!(w, "wrote window estimate -> {}", out.display())?;
            }
        }
        None => writeln!(w, "no estimate produced (no admissible reports)")?,
    }
    if let Some(ckpt) = &opts.checkpoint {
        service.save_checkpoint(ckpt)?;
        writeln!(w, "checkpointed warm start -> {}", ckpt.display())?;
    }
    Ok(())
}

/// `chaos` — run the deterministic fault-injection simulator for one
/// seed (or a `sweep` of consecutive seeds) and verify the
/// differential oracle on every run.
///
/// Prints one summary line per seed. The line contains no
/// thread-dependent data, so running the same sweep under different
/// `--threads` settings must produce byte-identical output — CI diffs
/// exactly that.
///
/// `check_counters` additionally cross-checks the `serve.*` telemetry
/// counter deltas against the service's stats; it requires this
/// process to be the only metrics producer, so the binary enables it
/// and concurrent test harnesses don't.
///
/// `full_sweep_only` (the `--solve-mode full` flag) forces a full warm
/// sweep on every solve instead of one warm pass; the summary lines
/// must be byte-identical either way, and CI diffs them.
///
/// # Errors
///
/// [`CliError::Algorithm`] when any seed's oracle reports a violation,
/// with the seed to reproduce from; I/O errors from the writer.
#[allow(clippy::too_many_arguments)]
pub fn cmd_chaos<W: Write>(
    seed: u64,
    ticks: usize,
    sweep: u64,
    check_counters: bool,
    full_sweep_only: bool,
    trace_sample: u64,
    flight_dump: Option<std::path::PathBuf>,
    mut w: W,
) -> CliResult {
    if check_counters {
        telemetry::set_metrics_enabled(true);
    }
    // A dump without traces is mostly counters; default to tracing every
    // report when the flight recorder is wired but no modulus was given.
    let trace_sample = if flight_dump.is_some() && trace_sample == 0 { 1 } else { trace_sample };
    let mut failed = Vec::new();
    for s in seed..seed.saturating_add(sweep.max(1)) {
        let report = chaos::run(&chaos::ChaosConfig {
            seed: s,
            ticks,
            num_threads: 0,
            shards: 1,
            check_counters,
            full_sweep_only,
            trace_sample,
            flight_dump: flight_dump.clone(),
        })?;
        writeln!(w, "{}", report.summary_line())?;
        if !report.oracle_ok() {
            for msg in &report.oracle_failures {
                writeln!(w, "  oracle: {msg}")?;
            }
            failed.push(s);
        }
    }
    if let Some(&first) = failed.first() {
        let inspect_hint = flight_dump
            .as_deref()
            .map(|p| format!("; inspect with: cs-traffic-cli inspect --dump {}", p.display()))
            .unwrap_or_default();
        return Err(CliError::Algorithm(format!(
            "chaos oracle failed for seed(s) {failed:?}; reproduce with: \
             cs-traffic-cli chaos --seed {first} --ticks {ticks}{inspect_hint}"
        )));
    }
    Ok(())
}

/// `chaos-net` — the connection-level chaos sweep: faulty `cs-wire/v1`
/// clients (mid-frame cuts, adversarial write boundaries, slow-loris
/// stalls) against a live sharded daemon on an ephemeral loopback port,
/// audited by the predicted-delivered differential oracle. One summary
/// line per seed, byte-identical at any `--threads`, so CI can diff
/// sweeps across thread counts exactly like the line-level `chaos`
/// command.
///
/// # Errors
///
/// [`CliError::Algorithm`] when any seed's oracle fails (exit 70),
/// [`CliError::Io`] if the daemon cannot bind or a harness socket dies.
pub fn cmd_chaos_net<W: Write>(
    seed: u64,
    sweep: u64,
    clients: usize,
    shards: usize,
    mut w: W,
) -> CliResult {
    let mut failed = Vec::new();
    for s in seed..seed.saturating_add(sweep.max(1)) {
        let report = chaos::run_net(&chaos::NetChaosConfig {
            seed: s,
            clients: clients.max(1),
            shards: shards.max(1),
            ..chaos::NetChaosConfig::default()
        })?;
        writeln!(w, "{}", report.summary_line())?;
        if !report.oracle_ok() {
            for msg in &report.oracle_failures {
                writeln!(w, "  oracle: {msg}")?;
            }
            failed.push(s);
        }
    }
    if let Some(&first) = failed.first() {
        return Err(CliError::Algorithm(format!(
            "connection-chaos oracle failed for seed(s) {failed:?}; reproduce with: \
             cs-traffic-cli chaos-net --seed {first} --clients {clients} --shards {shards}"
        )));
    }
    Ok(())
}

/// `inspect` — the read side of the observability plane.
///
/// With `dump`, renders a `cs-traffic-flight/v1` flight dump (written
/// by a degraded serve tick, a chaos oracle failure, or the panic hook)
/// as a human-readable causal timeline: the dump header, per-trace
/// stage-by-stage report lives, and the trace IDs caught in each
/// degraded solve. With `expose`, re-renders the metric snapshots found
/// in any telemetry JSONL (a `--metrics-out` file or a flight dump) in
/// Prometheus text exposition format — byte-identical to what
/// [`telemetry::metrics::expose_text`] produces live.
///
/// # Errors
///
/// [`CliError::Usage`] when neither source is given, [`CliError::Io`]
/// for unreadable files, [`CliError::Input`] for malformed JSONL or a
/// wrong schema.
pub fn cmd_inspect<W: Write>(dump: Option<&Path>, expose: Option<&Path>, mut w: W) -> CliResult {
    if dump.is_none() && expose.is_none() {
        return Err(CliError::Usage("inspect needs --dump FILE and/or --expose FILE".into()));
    }
    if let Some(path) = dump {
        inspect_dump(path, &mut w)?;
    }
    if let Some(path) = expose {
        inspect_expose(path, &mut w)?;
    }
    Ok(())
}

/// Renders a flight dump as a causal timeline (see [`cmd_inspect`]).
fn inspect_dump<W: Write>(path: &Path, w: &mut W) -> CliResult {
    use telemetry::json::Json;

    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {}: {e}", path.display())))?;
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (_, header_line) = lines
        .next()
        .ok_or_else(|| CliError::Input(format!("{}: empty flight dump", path.display())))?;
    let header = Json::parse(header_line)
        .map_err(|e| CliError::Input(format!("{}:1: {e}", path.display())))?;
    let schema = header.get("schema").and_then(Json::as_str).unwrap_or("?");
    if schema != "cs-traffic-flight/v1" {
        return Err(CliError::Input(format!(
            "{}: expected schema cs-traffic-flight/v1, found '{schema}'",
            path.display()
        )));
    }
    writeln!(
        w,
        "flight dump {} (trigger: {}, git: {})",
        path.display(),
        header.get("trigger").and_then(Json::as_str).unwrap_or("?"),
        header.get("git_rev").and_then(Json::as_str).unwrap_or("?"),
    )?;
    writeln!(
        w,
        "captured {} records, {} dropped from the ring (capacity {})",
        header.get("captured").and_then(Json::as_num).unwrap_or(0.0),
        header.get("dropped").and_then(Json::as_num).unwrap_or(0.0),
        header.get("capacity").and_then(Json::as_num).unwrap_or(0.0),
    )?;
    if let Some(Json::Obj(meta)) = header.get("meta") {
        for (k, v) in meta {
            writeln!(w, "  meta {k} = {}", v.as_str().unwrap_or("?"))?;
        }
    }

    // One pass: collect trace stages per trace ID (in seq order — the
    // file is already seq-sorted) and count the other record types.
    let mut traces: Vec<(String, Vec<(String, String)>)> = Vec::new();
    let mut type_counts: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();
    for (idx, line) in lines {
        let record = Json::parse(line)
            .map_err(|e| CliError::Input(format!("{}:{}: {e}", path.display(), idx + 1)))?;
        let kind = record.get("type").and_then(Json::as_str).unwrap_or("?").to_string();
        *type_counts.entry(kind.clone()).or_default() += 1;
        if kind != "trace" {
            continue;
        }
        let seq = record.get("seq").and_then(Json::as_num).unwrap_or(-1.0);
        let Some(fields) = record.get("fields") else { continue };
        let trace = fields.get("trace").and_then(Json::as_str).unwrap_or("?").to_string();
        let stage = fields.get("stage").and_then(Json::as_str).unwrap_or("?");
        let mut detail = String::new();
        if let Json::Obj(pairs) = fields {
            for (k, v) in pairs {
                if k != "trace" && k != "stage" {
                    detail.push_str(&format!(" {k}={}", v.encode()));
                }
            }
        }
        let entry = (stage.to_string(), format!("seq {seq:>6}  {stage}{detail}"));
        match traces.iter_mut().find(|(id, _)| *id == trace) {
            Some((_, stages)) => stages.push(entry),
            None => traces.push((trace, vec![entry])),
        }
    }

    let counts = type_counts.iter().map(|(k, v)| format!("{v} {k}")).collect::<Vec<_>>().join(", ");
    writeln!(w, "records in ring: {}", if counts.is_empty() { "none" } else { &counts })?;

    if !traces.is_empty() {
        writeln!(w, "\ncausal timelines ({} traced reports):", traces.len())?;
        for (id, stages) in &traces {
            writeln!(w, "  trace {id}:")?;
            for (_, rendered) in stages {
                writeln!(w, "    {rendered}")?;
            }
        }
        // The post-mortem question: which reports were in the window of
        // a solve that degraded?
        let degraded: Vec<&str> = traces
            .iter()
            .filter(|(_, stages)| stages.iter().any(|(stage, _)| stage == "degraded"))
            .map(|(id, _)| id.as_str())
            .collect();
        if degraded.is_empty() {
            writeln!(w, "\nno degraded solve in the recorded window")?;
        } else {
            writeln!(
                w,
                "\ndegraded solve: {} traced reports in the failing window: {}",
                degraded.len(),
                degraded.join(" ")
            )?;
        }
    } else {
        writeln!(w, "no trace records in the ring (was --trace-sample set?)")?;
    }
    Ok(())
}

/// Re-renders metric snapshots from a telemetry JSONL in Prometheus
/// text exposition format (see [`cmd_inspect`]).
fn inspect_expose<W: Write>(path: &Path, w: &mut W) -> CliResult {
    use telemetry::json::Json;
    use telemetry::{MetricSnapshot, RecordKind, Value};

    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {}: {e}", path.display())))?;
    // Last snapshot per metric wins (a file can hold several flushes);
    // BTreeMap gives the same name order as the live registry.
    let mut snaps: std::collections::BTreeMap<String, MetricSnapshot> =
        std::collections::BTreeMap::new();
    for (idx, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let record = Json::parse(line)
            .map_err(|e| CliError::Input(format!("{}:{}: {e}", path.display(), idx + 1)))?;
        let kind = match record.get("type").and_then(Json::as_str) {
            Some("counter") => RecordKind::Counter,
            Some("gauge") => RecordKind::Gauge,
            Some("histogram") => RecordKind::Histogram,
            _ => continue,
        };
        let Some(name) = record.get("name").and_then(Json::as_str) else { continue };
        let mut fields: Vec<telemetry::Field> = Vec::new();
        if let Some(Json::Obj(pairs)) = record.get("fields") {
            for (k, v) in pairs {
                let value = match v {
                    Json::Bool(b) => Value::Bool(*b),
                    Json::Num(n) => Value::Float(*n),
                    Json::Str(s) => Value::Str(s.clone()),
                    _ => continue,
                };
                fields.push((telemetry::Key::from(k.clone()), value));
            }
        }
        snaps.insert(name.to_string(), MetricSnapshot { name: name.to_string(), kind, fields });
    }
    let mut out = String::new();
    for snap in snaps.values() {
        snap.expose_text_into(&mut out);
    }
    write!(w, "{out}")?;
    Ok(())
}

/// Options for [`cmd_daemon`].
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Listen endpoint, `tcp:HOST:PORT` or `unix:/path.sock`.
    pub bind: String,
    /// Road-network CSV whose segment count sizes the engine.
    pub network: Option<std::path::PathBuf>,
    /// Explicit segment count (alternative to `network`).
    pub segments: Option<usize>,
    /// Slot granularity in minutes (15/30/60), like `serve`.
    pub granularity: String,
    /// Sliding-window length in slots.
    pub window_slots: usize,
    /// Factorization rank override.
    pub rank: Option<usize>,
    /// Regularization override.
    pub lambda: Option<f64>,
    /// Segment-range shard workers.
    pub shards: usize,
    /// Warm-start checkpoint, loaded on boot and written on shutdown.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Periodic engine tick interval in milliseconds.
    pub tick_ms: u64,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        Self {
            bind: "tcp:127.0.0.1:4650".to_string(),
            network: None,
            segments: None,
            granularity: "15".to_string(),
            window_slots: 24,
            rank: None,
            lambda: None,
            shards: 1,
            checkpoint: None,
            tick_ms: 250,
        }
    }
}

/// Installs SIGTERM/SIGINT handlers that flip the returned stop flag.
///
/// The handler itself only stores into a `static` atomic
/// (async-signal-safe); a watcher thread mirrors it into the `Arc` the
/// daemon's accept loop polls, so a signal drains connections, runs a
/// final tick, checkpoints, and exits cleanly.
fn install_signal_stop() -> std::sync::Arc<std::sync::atomic::AtomicBool> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let stop = Arc::new(AtomicBool::new(false));
    #[cfg(unix)]
    {
        static SIGNALLED: AtomicBool = AtomicBool::new(false);
        extern "C" fn on_signal(_sig: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
        let mirror = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("cs-signal-watch".to_string())
            .spawn(move || loop {
                if SIGNALLED.load(Ordering::SeqCst) {
                    mirror.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            })
            .expect("spawn signal watcher");
    }
    stop
}

/// `daemon` — run the sharded streaming engine as a long-lived network
/// server speaking `cs-wire/v1` over TCP or a Unix-domain socket.
///
/// The engine is sized either from a road network file (segment count)
/// or an explicit `--segments` count. SIGTERM/SIGINT (or a client
/// `Shutdown` request) drain connections, run a final tick, write the
/// checkpoint if one was configured, and exit 0.
///
/// # Errors
///
/// Bind/boot failures only (bad address, unreadable network file,
/// invalid config, checkpoint I/O). Per-connection trouble — malformed
/// frames, disconnects, slow peers — is counted and reported in the
/// final stats line, never fatal.
pub fn cmd_daemon<W: Write>(opts: &DaemonOptions, mut w: W) -> CliResult {
    use traffic_cs::daemon::{Daemon, DaemonConfig};
    use traffic_cs::service::ServeConfig;
    use traffic_cs::sharded::ShardPlan;

    let segments = match (&opts.network, opts.segments) {
        (Some(path), None) => {
            let net = roadnet::io::read_network(BufReader::new(File::open(path)?))?;
            net.segment_count()
        }
        (None, Some(n)) => n,
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--network and --segments are mutually exclusive".to_string(),
            ))
        }
        (None, None) => {
            return Err(CliError::Usage("daemon needs --network FILE or --segments N".to_string()))
        }
    };
    let slot_len_s = parse_granularity(&opts.granularity)?.seconds();
    let window_cells = (opts.window_slots * segments) as f64;
    let default_lambda = (100.0 * window_cells / (672.0 * 221.0)).max(0.01);
    let cs = CsConfig {
        rank: opts.rank.unwrap_or(2),
        lambda: opts.lambda.unwrap_or(default_lambda),
        ..CsConfig::default()
    };
    let shards = opts.shards.max(1);
    let serve = ServeConfig::builder()
        .slot_len_s(slot_len_s)
        .window_slots(opts.window_slots)
        .num_segments(segments)
        .cs(cs)
        .shards(ShardPlan::with_count(shards))
        .build()?;
    let bind = proto::net::BindAddr::parse(&opts.bind).map_err(CliError::Usage)?;
    let mut cfg = DaemonConfig::new(bind, serve);
    cfg.checkpoint = opts.checkpoint.clone();
    cfg.tick_interval = std::time::Duration::from_millis(opts.tick_ms.max(1));
    let daemon = Daemon::bind(cfg)?;
    writeln!(
        w,
        "listening on {} ({} shard{}, {} segments, {})",
        daemon.local_addr(),
        shards,
        if shards == 1 { "" } else { "s" },
        segments,
        proto::PROTOCOL,
    )?;
    // Smoke tests read the address line before dialing.
    w.flush()?;
    let stats = daemon.run(install_signal_stop())?;
    writeln!(
        w,
        "daemon stopped: {} connections, {} frames, {} reports, {} protocol errors",
        stats.connections, stats.frames, stats.reports, stats.protocol_errors
    )?;
    Ok(())
}

/// Options for [`cmd_daemon_client`].
#[derive(Debug, Clone)]
pub struct DaemonClientOptions {
    /// Daemon endpoint, `tcp:HOST:PORT` or `unix:/path.sock`.
    pub addr: String,
    /// Road network for map-matching ingested reports.
    pub network: Option<std::path::PathBuf>,
    /// Probe-report CSV to ingest (requires `network`).
    pub reports: Option<std::path::PathBuf>,
    /// Reports per `ReportBatch` frame.
    pub batch: usize,
    /// Query to run after ingest: `estimate`, `stats`, or `health`.
    pub query: Option<String>,
    /// TCM output path for `--query estimate`.
    pub out: Option<std::path::PathBuf>,
    /// Ask the daemon to shut down after everything else.
    pub shutdown: bool,
}

impl Default for DaemonClientOptions {
    fn default() -> Self {
        Self {
            addr: "tcp:127.0.0.1:4650".to_string(),
            network: None,
            reports: None,
            batch: 500,
            query: None,
            out: None,
            shutdown: false,
        }
    }
}

/// `daemon-client` — dial a running daemon, optionally stream a probe
/// report file into it, then run one query and/or request shutdown.
///
/// Ingest map-matches exactly like `serve` (same index radius, same
/// matching distance), batches reports into pipelined `ReportBatch`
/// frames, and finishes with a `Sync` barrier so the printed stats
/// reflect every pushed report. `--query estimate --out FILE` writes
/// the daemon's live window estimate as a TCM, byte-compatible with
/// `serve --out`.
///
/// # Errors
///
/// Connection failures map to exit 74, wire-protocol violations to
/// exit 76, bad flags to exit 2.
pub fn cmd_daemon_client<W: Write>(opts: &DaemonClientOptions, mut w: W) -> CliResult {
    use proto::client::Client;
    use proto::msg::{Request, Response, WireReport};
    use std::io::BufRead;

    let addr = proto::net::BindAddr::parse(&opts.addr).map_err(CliError::Usage)?;
    let mut client = Client::connect(&addr)?;

    match (&opts.network, &opts.reports) {
        (Some(network), Some(reports)) => {
            let net = roadnet::io::read_network(BufReader::new(File::open(network)?))?;
            let index = SegmentIndex::build(&net, 150.0);
            let reader = BufReader::new(File::open(reports)?);
            let mut lines = reader.lines();
            let _ = lines.next().transpose()?;
            let cap = opts.batch.max(1);
            let mut batch: Vec<WireReport> = Vec::with_capacity(cap);
            let (mut pushed, mut malformed, mut unmatched) = (0u64, 0u64, 0u64);
            for (idx, line) in lines.enumerate() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                let report = match probes::io::parse_report_record(&line, idx + 2) {
                    Ok(r) => r,
                    Err(_) => {
                        malformed += 1;
                        continue;
                    }
                };
                let heading = report.has_heading().then_some(report.heading);
                let Some(m) = index.match_point_directed(&net, report.position, 80.0, heading)
                else {
                    unmatched += 1;
                    continue;
                };
                batch.push(WireReport::new(
                    report.vehicle.0 as u64,
                    report.timestamp_s,
                    m.segment.index() as u64,
                    report.speed_kmh,
                ));
                if batch.len() >= cap {
                    pushed += batch.len() as u64;
                    client.send(&Request::ReportBatch(std::mem::take(&mut batch)))?;
                }
            }
            if !batch.is_empty() {
                pushed += batch.len() as u64;
                client.send(&Request::ReportBatch(std::mem::take(&mut batch)))?;
            }
            match client.request(&Request::Sync)? {
                Response::Synced { pushed: acked, tick_us, solve_us, stats } => writeln!(
                    w,
                    "ingested {acked}/{pushed} reports ({malformed} malformed, {unmatched} \
                     unmatched): {} admitted, {} late, {} duplicate, {} rejected; \
                     barrier tick {tick_us}us (solve {solve_us}us)",
                    stats.admitted, stats.dropped_late, stats.duplicates, stats.rejected,
                )?,
                other => return Err(CliError::Protocol(format!("expected Synced, got {other:?}"))),
            }
        }
        (None, None) => {}
        _ => return Err(CliError::Usage("ingest needs both --network and --reports".to_string())),
    }

    match opts.query.as_deref() {
        None => {}
        Some("estimate") => match client.request(&Request::QueryEstimate)? {
            Response::Estimate(Some(est)) => {
                writeln!(
                    w,
                    "live estimate: window head slot {}, {} sweeps, stale: {}",
                    est.head_slot, est.sweeps, est.stale
                )?;
                if let Some(out) = &opts.out {
                    let data: Vec<f64> =
                        est.values_bits.iter().copied().map(f64::from_bits).collect();
                    let m = linalg::Matrix::from_vec(est.rows as usize, est.cols as usize, data)
                        .map_err(|e| CliError::Protocol(format!("estimate shape: {e}")))?;
                    write_tcm(&Tcm::complete(m), BufWriter::new(File::create(out)?))?;
                    writeln!(w, "wrote window estimate -> {}", out.display())?;
                }
            }
            Response::Estimate(None) => {
                writeln!(w, "no estimate yet (no admissible reports)")?;
            }
            other => return Err(CliError::Protocol(format!("expected Estimate, got {other:?}"))),
        },
        Some("stats") => match client.request(&Request::QueryStats)? {
            Response::Stats { merged, shards } => {
                writeln!(
                    w,
                    "merged: {} admitted, {} late, {} duplicate, {} rejected, {} queue-dropped, \
                     {} solves, {} degraded",
                    merged.admitted,
                    merged.dropped_late,
                    merged.duplicates,
                    merged.rejected,
                    merged.queue_dropped,
                    merged.solves,
                    merged.degraded
                )?;
                for (i, s) in shards.iter().enumerate() {
                    writeln!(
                        w,
                        "shard {i}: {} admitted, {} late, {} rejected, {} solves",
                        s.admitted, s.dropped_late, s.rejected, s.solves
                    )?;
                }
            }
            other => return Err(CliError::Protocol(format!("expected Stats, got {other:?}"))),
        },
        Some("health") => match client.request(&Request::QueryHealth)? {
            Response::Health { ok, shards, segments, queue_len, clock_s } => writeln!(
                w,
                "health: ok={ok} shards={shards} segments={segments} queue={queue_len} \
                 clock={clock_s}s"
            )?,
            other => return Err(CliError::Protocol(format!("expected Health, got {other:?}"))),
        },
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown --query '{other}' (estimate|stats|health)"
            )))
        }
    }

    if opts.shutdown {
        match client.request(&Request::Shutdown)? {
            Response::Bye => writeln!(w, "daemon acknowledged shutdown")?,
            other => return Err(CliError::Protocol(format!("expected Bye, got {other:?}"))),
        }
    }
    client.close();
    Ok(())
}

/// Minimal flag parser: `--key value` pairs after the subcommand.
pub fn parse_flags(args: &[String]) -> CliResult<std::collections::HashMap<String, String>> {
    let mut map = std::collections::HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        if !key.starts_with("--") {
            return Err(CliError::Usage(format!("expected --flag, got '{key}'")));
        }
        let Some(value) = args.get(i + 1) else {
            return Err(CliError::Usage(format!("flag {key} is missing a value")));
        };
        map.insert(key[2..].to_string(), value.clone());
        i += 2;
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_parsing() {
        assert_eq!(parse_granularity("15").unwrap(), Granularity::Min15);
        assert_eq!(parse_granularity("60").unwrap(), Granularity::Min60);
        assert!(parse_granularity("45").is_err());
    }

    #[test]
    fn exit_codes_classify_failures() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Input("x".into()).exit_code(), 65);
        assert_eq!(CliError::Algorithm("x".into()).exit_code(), 70);
        assert_eq!(CliError::Io("x".into()).exit_code(), 74);
        assert_eq!(CliError::Protocol("x".into()).exit_code(), 76);
        // From conversions land in the right class.
        let e: CliError = std::io::Error::other("disk").into();
        assert_eq!(e.exit_code(), 74);
        let e: CliError =
            traffic_cs::Error::from(traffic_cs::ConfigError::new("rank", "bad")).into();
        assert_eq!(e.exit_code(), 65);
        let e: CliError = traffic_cs::Error::from(traffic_cs::CsError::NoObservations).into();
        assert_eq!(e.exit_code(), 70);
        // Wire-protocol failures get their own sysexits class...
        let e: CliError = proto::msg::DecodeError::Empty.into();
        assert_eq!(e.exit_code(), 76);
        let e: CliError = proto::client::ClientError::Protocol("wrong version".to_string()).into();
        assert_eq!(e.exit_code(), 76);
        // ...but a client's socket-level trouble is still plain I/O.
        let e: CliError = proto::client::ClientError::Io(std::io::Error::other("refused")).into();
        assert_eq!(e.exit_code(), 74);
    }

    #[test]
    fn flag_parser() {
        let args: Vec<String> = ["--a", "1", "--b", "x y"].iter().map(|s| s.to_string()).collect();
        let m = parse_flags(&args).unwrap();
        assert_eq!(m["a"], "1");
        assert_eq!(m["b"], "x y");
        assert!(parse_flags(&["--a".into()]).is_err());
        assert!(parse_flags(&["a".into(), "1".into()]).is_err());
    }
}
