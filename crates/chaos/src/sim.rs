//! The simulation driver: replays a synthetic probe stream through a
//! real [`ShardedService`] tick by tick while the [`FaultPlan`] injects
//! corruption, and a [`Mirror`] independently predicts what the service
//! must do about it.
//!
//! Everything derives from the seed: the road network, the ground-truth
//! speeds, the probe stream, and the fault schedule. A failing run is
//! therefore fully reproducible from the seed alone — that is the
//! contract the CI sweep relies on.
//!
//! [`ShardedService`]: traffic_cs::ShardedService

use crate::codec;
use crate::oracle::Mirror;
use crate::plan::{FaultKind, FaultPlan, Sabotage};
use crate::Fnv;
use linalg::Matrix;
use probes::{Granularity, SlotGrid};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Duration;
use telemetry::Level;
use traffic_cs::cs::complete_matrix_detailed;
use traffic_cs::service::{Backpressure, Observation, ServeConfig, ServeStats};
use traffic_cs::sharded::{ShardPlan, ShardedService};
use traffic_cs::{CsConfig, Error};
use traffic_sim::{sample_probe_stream, GroundTruthConfig, GroundTruthModel, ProbeStreamConfig};

/// Fixed simulation geometry. Small enough that a full 24-tick run with
/// a solve per tick completes in milliseconds; large enough that every
/// fault class has room to fire (the window must be able to evict slots
/// and the queue must be able to overflow).
pub(crate) const SEGMENTS: usize = 8;
pub(crate) const WINDOW_SLOTS: usize = 8;
pub(crate) const SLOT_LEN_S: u64 = 900;
pub(crate) const START_S: u64 = 3600;
const QUEUE_CAPACITY: usize = 24;

/// Parameters of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for everything: traffic, probes, and the fault plan.
    pub seed: u64,
    /// Number of service ticks (= time slots) to simulate.
    pub ticks: usize,
    /// Worker threads for the solver (`CsConfig::num_threads`); the
    /// report must be identical for every value.
    pub num_threads: usize,
    /// Cross-check the `serve.*` telemetry counters against the
    /// service's stats. Only valid when this run is the process's sole
    /// metrics producer (the CLI path); defaults to off so library
    /// tests can run concurrently.
    pub check_counters: bool,
    /// Causal-trace sampling modulus passed to the service (see
    /// [`ServeConfig::trace_sample`]); `0` (the default) disables
    /// tracing. Trace records go to the sinks and the flight recorder,
    /// never into the report hashes, so `summary_line` stays
    /// byte-stable.
    pub trace_sample: u64,
    /// Flight-recorder dump path for degraded ticks and oracle
    /// failures (see [`ServeConfig::flight_dump`]).
    pub flight_dump: Option<std::path::PathBuf>,
    /// Force a full warm sweep on every solve
    /// (`ServeConfig::incremental = false`), disabling the warm pass.
    /// The default (`false`) runs the service as shipped; CI
    /// runs the sweep both ways and diffs the summary lines. The final
    /// audit's cold-restart + refresh makes the estimate hash solve-mode
    /// invariant, so the diff compares the counters, the window, the
    /// fault log and the post-audit estimate.
    pub full_sweep_only: bool,
    /// Segment-range shard workers for the engine under test. `1` (the
    /// default) is the one-shard engine the mirror models, so every
    /// historical summary line is unchanged; with
    /// more shards the admission counters stay mirror-exact while the
    /// offline replay stitches per-shard solves.
    pub shards: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            ticks: 24,
            num_threads: 0,
            check_counters: false,
            trace_sample: 0,
            flight_dump: None,
            full_sweep_only: false,
            shards: 1,
        }
    }
}

/// Everything one chaos run produced, sufficient both for a CI log line
/// and for diffing two runs bit-for-bit.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The run's seed.
    pub seed: u64,
    /// Backpressure policy the plan selected.
    pub backpressure: Backpressure,
    /// Ticks simulated.
    pub ticks: usize,
    /// Report lines generated (clean + injected).
    pub lines_total: u64,
    /// Lines that failed structural parsing and never reached the
    /// service.
    pub parse_rejected: u64,
    /// Observations pushed into the service (`lines_total -
    /// parse_rejected` — the oracle asserts this identity).
    pub pushed: u64,
    /// The service's own counters at the end of the run.
    pub stats: ServeStats,
    /// Corrupted checkpoints that restore correctly refused.
    pub checkpoint_rejections: u64,
    /// Human-readable `tick:description` log of every injected fault.
    pub fault_log: Vec<String>,
    /// FNV-1a over the final estimate's `f64` bits (0 when the service
    /// never produced an estimate).
    pub estimate_hash: u64,
    /// FNV-1a over the final window snapshot (values + indicator bits).
    pub window_hash: u64,
    /// FNV-1a over the fault log.
    pub fault_log_hash: u64,
    /// Differential-oracle violations. Empty means the run passed.
    pub oracle_failures: Vec<String>,
}

impl ChaosReport {
    /// `true` when every oracle check held.
    pub fn oracle_ok(&self) -> bool {
        self.oracle_failures.is_empty()
    }

    /// One-line summary, stable across thread counts — the CI sweep
    /// diffs these lines between `--threads` settings.
    pub fn summary_line(&self) -> String {
        let s = &self.stats;
        format!(
            "seed={} policy={} ticks={} lines={} parse_rejected={} admitted={} rejected={} \
             late={} dup={} queue_dropped={} solves={} degraded={} ckpt_rejected={} \
             faults={} est={:016x} win={:016x} log={:016x} oracle={}",
            self.seed,
            match self.backpressure {
                Backpressure::DropNewest => "drop-newest",
                Backpressure::DropOldest => "drop-oldest",
            },
            self.ticks,
            self.lines_total,
            self.parse_rejected,
            s.admitted,
            s.rejected,
            s.dropped_late,
            s.duplicates,
            s.queue_dropped,
            s.solves,
            s.degraded,
            self.checkpoint_rejections,
            self.fault_log.len(),
            self.estimate_hash,
            self.window_hash,
            self.fault_log_hash,
            if self.oracle_ok() { "ok" } else { "FAIL" },
        )
    }
}

/// Runs one seeded chaos simulation end to end.
///
/// # Errors
///
/// Only construction can fail (invalid derived `ServeConfig`, which
/// would be a harness bug); everything at runtime becomes counters,
/// report fields, or oracle failures.
pub fn run(cfg: &ChaosConfig) -> Result<ChaosReport, Error> {
    let ticks = cfg.ticks.max(1);
    let plan = FaultPlan::generate(cfg.seed, ticks);
    let cs = CsConfig::builder()
        .rank(2)
        .lambda(100.0)
        .iterations(30)
        .tol(1e-9)
        .seed(42)
        .num_threads(cfg.num_threads)
        .build()
        .map_err(Error::from)?;
    let serve_cfg = ServeConfig::builder()
        .start_s(START_S)
        .slot_len_s(SLOT_LEN_S)
        .window_slots(WINDOW_SLOTS)
        .num_segments(SEGMENTS)
        .cs(cs.clone())
        .queue_capacity(QUEUE_CAPACITY)
        .backpressure(plan.backpressure)
        .warm_sweep_cap(Some(6))
        .solve_budget(None)
        .incremental(!cfg.full_sweep_only)
        .trace_sample(cfg.trace_sample)
        .flight_dump(cfg.flight_dump.clone())
        .shards(ShardPlan::with_count(cfg.shards.max(1)))
        .build()?;
    let mut service = ShardedService::new(serve_cfg.clone())?;
    let mut mirror =
        Mirror::new(START_S, SLOT_LEN_S, WINDOW_SLOTS, SEGMENTS, QUEUE_CAPACITY, plan.backpressure);

    let clean = clean_stream(cfg.seed, ticks);
    let counters_before = cfg.check_counters.then(snapshot_counters);

    let mut report = ChaosReport {
        seed: cfg.seed,
        backpressure: plan.backpressure,
        ticks,
        lines_total: 0,
        parse_rejected: 0,
        pushed: 0,
        stats: ServeStats::default(),
        checkpoint_rejections: 0,
        fault_log: Vec::new(),
        estimate_hash: 0,
        window_hash: 0,
        fault_log_hash: 0,
        oracle_failures: Vec::new(),
    };

    for (tick, clean_batch) in clean.iter().enumerate().take(ticks) {
        let mut lines: Vec<String> = clean_batch.clone();
        let mut reorder_salt = None;
        let mut zero_budget = false;
        let mut ckpt_faults = Vec::new();
        // Application order is fixed (corrupt -> late -> duplicate ->
        // spike -> reorder) regardless of plan order, so every fault
        // sees a deterministic batch.
        let tick_faults: Vec<FaultKind> =
            plan.faults.iter().filter(|f| f.tick == tick).map(|f| f.kind).collect();
        for kind in &tick_faults {
            if let FaultKind::CorruptLine { fault, salt } = kind {
                if lines.is_empty() {
                    continue;
                }
                let idx = (*salt % lines.len() as u64) as usize;
                lines[idx] = codec::corrupt_line(&lines[idx], *fault, SEGMENTS);
                log_fault(&mut report, tick, format!("corrupt-line:{} idx={idx}", fault.name()));
            }
        }
        for kind in &tick_faults {
            if let FaultKind::LateReport { pre_grid, salt } = kind {
                let line = late_line(tick, *pre_grid, *salt);
                log_fault(
                    &mut report,
                    tick,
                    format!("late-report ts={}", line.split(',').nth(1).unwrap_or("?")),
                );
                lines.push(line);
            }
        }
        for kind in &tick_faults {
            if let FaultKind::DuplicateBurst { copies, salt } = kind {
                if lines.is_empty() {
                    continue;
                }
                let idx = (*salt % lines.len() as u64) as usize;
                let line = lines[idx].clone();
                for _ in 0..*copies {
                    lines.push(line.clone());
                }
                log_fault(&mut report, tick, format!("dup-burst x{copies} idx={idx}"));
            }
        }
        for kind in &tick_faults {
            if let FaultKind::QueueSpike { extra } = kind {
                let count = QUEUE_CAPACITY + extra;
                for i in 0..count {
                    lines.push(spike_line(tick, i));
                }
                log_fault(&mut report, tick, format!("queue-spike +{count}"));
            }
        }
        for kind in &tick_faults {
            match kind {
                FaultKind::ReorderBurst { salt } => {
                    reorder_salt = Some(*salt);
                    log_fault(&mut report, tick, "reorder-burst".to_string());
                }
                FaultKind::SolverSabotage { mode } => {
                    match mode {
                        Sabotage::ZeroBudget => {
                            service.set_solve_budget(Some(Duration::ZERO));
                            zero_budget = true;
                        }
                        Sabotage::SweepStarve => service.set_warm_sweep_cap(Some(1)),
                    }
                    log_fault(&mut report, tick, format!("sabotage:{}", mode.name()));
                }
                FaultKind::CheckpointChaos { fault } => ckpt_faults.push(*fault),
                _ => {}
            }
        }
        if let Some(salt) = reorder_salt {
            let mut rng = rand::rngs::StdRng::seed_from_u64(salt);
            lines.shuffle(&mut rng);
        }

        for line in &lines {
            report.lines_total += 1;
            match codec::parse_line(line) {
                Ok((vehicle, timestamp_s, segment, speed_kmh)) => {
                    let obs = Observation { vehicle, timestamp_s, segment, speed_kmh };
                    report.pushed += 1;
                    service.push(obs);
                    mirror.push(obs);
                }
                Err(_) => report.parse_rejected += 1,
            }
        }
        service.tick();
        mirror.tick(zero_budget);
        if zero_budget {
            service.set_solve_budget(None);
        }

        for fault in ckpt_faults {
            log_fault(&mut report, tick, format!("checkpoint:{}", fault.name()));
            let text = service.checkpoint();
            let corrupted = codec::corrupt_checkpoint(&text, fault);
            let mut scratch = ShardedService::new(serve_cfg.clone())?;
            match scratch.restore(&corrupted) {
                Err(_) => report.checkpoint_rejections += 1,
                Ok(()) => report.oracle_failures.push(format!(
                    "tick {tick}: corrupted checkpoint ({}) restored without error",
                    fault.name()
                )),
            }
            let mut pristine = ShardedService::new(serve_cfg.clone())?;
            if pristine.restore(&text).is_err() {
                report
                    .oracle_failures
                    .push(format!("tick {tick}: pristine checkpoint failed to restore"));
            } else if pristine.checkpoint() != text {
                report
                    .oracle_failures
                    .push(format!("tick {tick}: checkpoint round-trip not byte-identical"));
            }
        }
    }

    // Final audit solve: a cold restart erases warm-start state (which
    // legitimately depends on solve history), so the service's last
    // answer must equal the offline pipeline run on the mirror's
    // predicted window — the replay half of the differential oracle.
    service.cold_restart()?;
    service.refresh();
    mirror.refresh();

    audit(&mut report, &service, &mirror, &cs);
    if let Some(before) = counters_before {
        audit_counters(&mut report, &before, &service.stats());
    }

    report.fault_log_hash = {
        let mut h = Fnv::new();
        for entry in &report.fault_log {
            h.write(entry.as_bytes());
            h.write(b"\n");
        }
        h.finish()
    };

    // A failed oracle is exactly what the flight recorder exists for:
    // dump the last-N records so the failure is diagnosable without a
    // rerun (the seed reproduces it, but the dump shows the lead-up).
    if !report.oracle_ok() {
        if let (Some(path), Some(recorder)) = (&cfg.flight_dump, telemetry::flight::recorder()) {
            let _ = recorder.dump_to_path(path, "chaos_oracle");
        }
    }
    Ok(report)
}

/// Convenience wrapper: default geometry, chosen seed and tick count.
///
/// # Errors
///
/// See [`run`].
pub fn run_seed(seed: u64, ticks: usize) -> Result<ChaosReport, Error> {
    run(&ChaosConfig { seed, ticks, ..ChaosConfig::default() })
}

fn log_fault(report: &mut ChaosReport, tick: usize, desc: String) {
    telemetry::event(
        Level::Debug,
        "chaos.fault",
        vec![
            ("seed".into(), report.seed.into()),
            ("tick".into(), (tick as u64).into()),
            ("fault".into(), desc.clone().into()),
        ],
    );
    report.fault_log.push(format!("{tick}:{desc}"));
}

/// The clean (pre-fault) probe stream, one batch of encoded lines per
/// tick, derived from the seeded ground-truth traffic model.
fn clean_stream(seed: u64, ticks: usize) -> Vec<Vec<String>> {
    let net =
        roadnet::generator::generate_grid_city(&roadnet::generator::GridCityConfig::small_test());
    let grid = SlotGrid::covering(0, ticks as u64 * SLOT_LEN_S, Granularity::Min15);
    let model = GroundTruthModel::generate(
        &net,
        grid,
        &GroundTruthConfig { seed: seed ^ 0x6eed, ..GroundTruthConfig::default() },
    );
    let n = model.speeds().cols();
    let truth = Matrix::from_fn(ticks, SEGMENTS, |t, c| model.speeds().get(t, c % n));
    let samples = sample_probe_stream(
        &truth,
        &ProbeStreamConfig {
            start_s: START_S,
            slot_len_s: SLOT_LEN_S,
            coverage: 0.85,
            probes_per_cell: 2,
            speed_jitter: 0.05,
            seed: seed ^ 0x5eed,
        },
    );
    let mut batches = vec![Vec::new(); ticks];
    for s in samples {
        let tick = ((s.timestamp_s - START_S) / SLOT_LEN_S) as usize;
        batches[tick].push(codec::encode_line(s.vehicle, s.timestamp_s, s.segment, s.speed_kmh));
    }
    batches
}

/// Synthesizes a report line that is guaranteed late at tick `tick`:
/// either before the grid start, or (once enough slots have been
/// evicted) aimed at a slot strictly below any reachable tail.
fn late_line(tick: usize, pre_grid: bool, salt: u64) -> String {
    let vehicle = 800_000 + tick as u64;
    let segment = (salt as usize) % SEGMENTS;
    let speed = 25.0 + (salt % 20) as f64;
    let ts = if pre_grid || tick < WINDOW_SLOTS + 1 {
        salt % START_S
    } else {
        let slot = (tick - WINDOW_SLOTS - 1) as u64;
        START_S + slot * SLOT_LEN_S + salt % SLOT_LEN_S
    };
    codec::encode_line(vehicle, ts, segment, speed)
}

/// The `i`-th filler report of a queue spike at tick `tick`: valid,
/// current-slot, all keys distinct from each other and from every
/// clean or late report.
fn spike_line(tick: usize, i: usize) -> String {
    let vehicle = 900_000 + tick as u64 * 1_000 + i as u64;
    let ts = START_S + tick as u64 * SLOT_LEN_S + (i as u64 % SLOT_LEN_S);
    codec::encode_line(vehicle, ts, i % SEGMENTS, 30.0 + (i % 7) as f64)
}

/// The differential checks: exact counter agreement, conservation,
/// bit-for-bit window parity, and offline replay parity.
///
/// The [`Mirror`] models the one-shard engine's single queue, so its
/// predictions are bit-exact only for single-shard plans. Multi-shard
/// plans give every shard its own bounded queue (a queue spike that
/// overflows one queue splits across N), so the mirror's counter and
/// window predictions legitimately diverge; what must still hold there
/// is conservation, the dedup bound, and the stitched offline-replay
/// parity against the service's own merged window.
fn audit(report: &mut ChaosReport, service: &ShardedService, mirror: &Mirror, cs: &CsConfig) {
    let sharded = service.shard_count() > 1;
    let got = service.stats();
    let want = mirror.stats();
    report.stats = got;
    if !sharded && got != want {
        report.oracle_failures.push(format!("stats diverged: service {got:?} vs mirror {want:?}"));
    }
    if report.lines_total != report.parse_rejected + report.pushed {
        report.oracle_failures.push(format!(
            "line conservation broken: {} total != {} parse_rejected + {} pushed",
            report.lines_total, report.parse_rejected, report.pushed
        ));
    }
    let accounted = got.queue_dropped + got.rejected + got.dropped_late + got.admitted;
    if report.pushed != accounted {
        report.oracle_failures.push(format!(
            "counter conservation broken: pushed {} != accounted {accounted} \
             (queue_dropped {} + rejected {} + dropped_late {} + admitted {})",
            report.pushed, got.queue_dropped, got.rejected, got.dropped_late, got.admitted
        ));
    }
    if got.duplicates > got.admitted {
        report.oracle_failures.push(format!(
            "duplicates {} exceed admitted {} — dedup must be a sub-count of admission",
            got.duplicates, got.admitted
        ));
    }

    let snap = service.window_snapshot();
    let expected = mirror.expected_tcm();
    let mut wh = Fnv::new();
    for r in 0..snap.num_slots() {
        for c in 0..snap.num_segments() {
            let got_cell = snap.get(r, c);
            let want_cell = expected.get(r, c);
            if !sharded && got_cell.map(f64::to_bits) != want_cell.map(f64::to_bits) {
                report.oracle_failures.push(format!(
                    "window cell ({r},{c}) diverged: service {got_cell:?} vs mirror {want_cell:?}"
                ));
            }
            wh.write_u64(got_cell.map(f64::to_bits).unwrap_or(0));
            wh.write_u64(u64::from(got_cell.is_some()));
        }
    }
    report.window_hash = wh.finish();

    // The replay reference window: the mirror's prediction for the
    // one-shard engine, the service's own merged snapshot for multi-shard
    // plans (whose admitted set depends on per-shard queues).
    let reference = if sharded { &snap } else { &expected };
    let predicted_estimate =
        if sharded { reference.observed_count() > 0 } else { mirror.has_estimate() };
    match (service.latest(), predicted_estimate) {
        (Some(live), true) => {
            let mut eh = Fnv::new();
            for v in live.estimate.as_slice() {
                eh.write_u64(v.to_bits());
            }
            report.estimate_hash = eh.finish();
            // Replay the admitted subset offline: the cold-restarted
            // engine must match `complete_matrix_detailed` on the
            // reference window bit for bit, at any thread count — per
            // shard, since the merged estimate stitches per-shard
            // solves (a single-shard plan is one "stitch" covering the
            // whole window).
            for shard in 0..service.shard_count() {
                let range = service.shard_range(shard);
                audit_shard_replay(report, reference, live, shard, range, cs);
            }
        }
        (None, false) => {}
        (live, predicted) => report.oracle_failures.push(format!(
            "estimate presence diverged: service {} vs predicted {}",
            live.is_some(),
            predicted
        )),
    }
}

/// Offline-replay parity for one shard's column block: solving the
/// reference window's slice must reproduce the corresponding columns of
/// the merged live estimate bit for bit. A slice with no observations
/// never solved, so its merged columns must be the zero fill.
fn audit_shard_replay(
    report: &mut ChaosReport,
    reference: &probes::Tcm,
    live: &traffic_cs::service::LiveEstimate,
    shard: usize,
    range: std::ops::Range<usize>,
    cs: &CsConfig,
) {
    let rows = reference.num_slots();
    if live.estimate.rows() != rows || live.estimate.cols() != reference.num_segments() {
        report.oracle_failures.push(format!(
            "estimate is {}x{}, reference window is {rows}x{}",
            live.estimate.rows(),
            live.estimate.cols(),
            reference.num_segments()
        ));
        return;
    }
    let mut values = Matrix::zeros(rows, range.len());
    let mut indicator = Matrix::zeros(rows, range.len());
    let mut observed = 0usize;
    for r in 0..rows {
        for (j, c) in range.clone().enumerate() {
            if let Some(v) = reference.get(r, c) {
                values.set(r, j, v);
                indicator.set(r, j, 1.0);
                observed += 1;
            }
        }
    }
    if observed == 0 {
        // Nothing to replay: the shard's current window is empty, and
        // its merged columns are either a zero fill (never solved) or
        // its last pre-eviction solve — both legitimate.
        return;
    }
    let slice = probes::Tcm::new(values, indicator).expect("matching dims by construction");
    match complete_matrix_detailed(&slice, cs) {
        Ok(offline) => {
            let same = offline.estimate.rows() == rows
                && (0..rows).all(|r| {
                    range.clone().enumerate().all(|(j, c)| {
                        offline.estimate.get(r, j).to_bits() == live.estimate.get(r, c).to_bits()
                    })
                });
            if !same {
                report.oracle_failures.push(format!(
                    "offline replay diverged from the merged estimate in shard {shard} \
                     (segments {range:?})"
                ));
            }
        }
        Err(e) => report
            .oracle_failures
            .push(format!("offline replay failed to solve shard {shard}: {e}")),
    }
}

/// Projection from [`ServeStats`] to one counter's expected value.
type StatProjection = fn(&ServeStats) -> u64;

const SERVE_COUNTERS: [(&str, StatProjection); 7] = [
    ("serve.admitted", |s| s.admitted),
    ("serve.rejected", |s| s.rejected),
    ("serve.dropped_late", |s| s.dropped_late),
    ("serve.duplicates", |s| s.duplicates),
    ("serve.queue_dropped", |s| s.queue_dropped),
    ("serve.solves", |s| s.solves),
    ("serve.degraded", |s| s.degraded),
];

fn snapshot_counters() -> Vec<u64> {
    SERVE_COUNTERS.iter().map(|(name, _)| telemetry::counter(name).get()).collect()
}

/// Counter-conservation half of the oracle: every injected fault shows
/// up in exactly one `serve.*` counter, so the counter deltas across
/// the run must equal the service's own stats field for field.
fn audit_counters(report: &mut ChaosReport, before: &[u64], stats: &ServeStats) {
    if !telemetry::metrics_enabled() {
        return;
    }
    for (i, (name, project)) in SERVE_COUNTERS.iter().enumerate() {
        let delta = telemetry::counter(name).get().saturating_sub(before[i]);
        let want = project(stats);
        if delta != want {
            report
                .oracle_failures
                .push(format!("telemetry counter {name} delta {delta} != stats value {want}"));
        }
    }
}
