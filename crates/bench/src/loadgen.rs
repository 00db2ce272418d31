//! Closed-loop load generator for the streaming estimation service.
//!
//! A deterministic (seeded) synthetic probe stream is pushed through a
//! real [`Service`] at a target *offered rate* (reports per simulated
//! second); every measured tick samples its wall-clock drain, solve,
//! and end-to-end latency into [`telemetry::Histogram`]s, and
//! [`search_max_rate`] binary-searches for the **maximum sustainable
//! throughput** — the highest offered rate whose leg still meets the
//! SLO budget (queue-drop rate and latency quantiles, see
//! [`crate::slo`]).
//!
//! Two cleanly separated concerns:
//!
//! * the **offered stream** (which reports exist, in which tick) is a
//!   pure function of `(seed, rate, geometry)` — hashed into
//!   [`LegReport::stream_hash`], it is byte-identical at any thread
//!   count, as are all admission-counter totals;
//! * the **latencies** are wall clock, the machine-dependent number the
//!   `serve-load` CI gate tracks against `results/SLO.toml`.
//!
//! The CI artifact `results/BENCH_serve.json`
//! (schema `cs-traffic-bench-serve/v3`, written by
//! [`write_bench_serve_json`]) pins both halves, the way
//! `BENCH_als.json` anchors the offline kernel, and
//! [`append_bench_trajectory`] keeps the append-per-run history in
//! `results/BENCH_trajectory.jsonl`.
//!
//! A third concern rides on the same stream: [`run_leg_socket`] offers
//! the identical paced stream to a live [`Daemon`] over a loopback
//! socket (`cs-wire/v1` `ReportBatch` frames, `Sync` barriers) and
//! records the *client-observed* end-to-end quantiles into the
//! artifact's `socket` section — the in-process path remains the
//! baseline the SLO gate reads.
//!
//! The ingest queue is a *pressure valve*, not the thing under test:
//! [`run_leg`] pushes a whole tick's batch before draining it, so the
//! effective queue bound is raised to hold at least one batch — a
//! queue smaller than the batch would measure queue depth, not solver
//! throughput (the old quick profile topped out at 275 reports/s for
//! exactly that reason).

use crate::report;
use chaos::Fnv;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use telemetry::json::Json;
use telemetry::Histogram;
use traffic_cs::cs::CsConfig;
use traffic_cs::daemon::{Daemon, DaemonConfig, DaemonError, DaemonStats};
use traffic_cs::service::{Observation, ServeConfig, ServeStats, Service, SolveStats};
use traffic_cs::sharded::ShardPlan;
use traffic_cs::{ConfigError, Error};

/// SplitMix64 — the stream RNG, hand-rolled so the offered stream is a
/// pure function of the seed (no dependence on any rand implementation
/// detail), with the usual avalanche-quality mixing.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Geometry and solver parameters of one load-test run. The offered
/// rate is *not* part of this — it is the variable the closed loop
/// searches over.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Seed for the synthetic stream.
    pub seed: u64,
    /// Road-segment columns of the window.
    pub segments: usize,
    /// Sliding-window height in slots.
    pub window_slots: usize,
    /// Slot length in simulated seconds.
    pub slot_len_s: u64,
    /// Service ticks per slot (must divide `slot_len_s`); the simulated
    /// clock advances `slot_len_s / ticks_per_slot` per tick.
    pub ticks_per_slot: u64,
    /// Measured ticks per leg (after warm-up).
    pub ticks: usize,
    /// Unmeasured warm-up ticks that fill the window to steady state.
    pub warmup_ticks: usize,
    /// Ingest queue bound (the drop-rate SLO's pressure valve).
    pub queue_capacity: usize,
    /// Algorithm-1 rank for the window solves.
    pub rank: usize,
    /// Algorithm-1 tradeoff λ.
    pub lambda: f64,
    /// Worker threads (`0` = workpool default). Latencies depend on it;
    /// the offered stream and all counters do not.
    pub num_threads: usize,
    /// Malformed reports injected per 10 000 generated (exercises the
    /// rejection path at a realistic background level).
    pub malformed_per_10k: u32,
    /// Where the service dumps its flight recorder when a solve
    /// degrades mid-leg (`None` = no dump). The recorder itself is
    /// installed by the caller (see the `loadgen` binary's
    /// `--flight-dump`).
    pub flight_dump: Option<PathBuf>,
}

impl LoadConfig {
    /// The CI smoke geometry (`CS_BENCH_QUICK`): a small window that
    /// still solves every tick, sized so a full search finishes in
    /// seconds on a 2-core runner. Short slots (12 s, 3 s ticks) keep
    /// the dedup table — which retains one window's worth of stream —
    /// bounded even at the five-digit rates the incremental solve path
    /// sustains, and 100 ticks span 25 slots so every leg exercises
    /// window eviction.
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            segments: 64,
            window_slots: 8,
            slot_len_s: 12,
            ticks_per_slot: 4,
            ticks: 60,
            warmup_ticks: 40,
            queue_capacity: 4096,
            rank: 2,
            lambda: 1.0,
            num_threads: 0,
            malformed_per_10k: 10,
            flight_dump: None,
        }
    }

    /// One point of the `scale` profile: the quick solver settings on
    /// an `segments`-wide grid, short legs (40 ticks total) because the
    /// sweep's job is the latency-vs-grid-size *curve* at a fixed
    /// offered rate, not a throughput search.
    pub fn scale(seed: u64, segments: usize) -> Self {
        Self {
            seed,
            segments,
            window_slots: 8,
            slot_len_s: 12,
            ticks_per_slot: 4,
            ticks: 24,
            warmup_ticks: 16,
            queue_capacity: 4096,
            rank: 2,
            lambda: 1.0,
            num_threads: 0,
            malformed_per_10k: 10,
            flight_dump: None,
        }
    }

    /// The full trajectory geometry: a paper-scale window (24 slots ×
    /// 256 segments) solved warm every tick.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            segments: 256,
            window_slots: 24,
            slot_len_s: 900,
            ticks_per_slot: 6,
            ticks: 96,
            warmup_ticks: 48,
            queue_capacity: 16384,
            rank: 4,
            lambda: 10.0,
            num_threads: 0,
            malformed_per_10k: 10,
            flight_dump: None,
        }
    }

    fn validate(&self) -> Result<(), Error> {
        if self.ticks_per_slot == 0 || !self.slot_len_s.is_multiple_of(self.ticks_per_slot) {
            return Err(ConfigError::new(
                "ticks_per_slot",
                "must be positive and divide slot_len_s",
            )
            .into());
        }
        if self.ticks == 0 {
            return Err(ConfigError::new("ticks", "need at least one measured tick").into());
        }
        Ok(())
    }

    /// The ingest queue bound actually used at `rate`: the configured
    /// capacity, raised to hold one tick's batch plus 12.5 % headroom.
    /// [`run_leg`] pushes the whole batch before ticking, so a queue
    /// smaller than the batch caps the measured rate at
    /// `capacity / dt` regardless of how fast the solver is.
    fn effective_queue_capacity(&self, rate: f64) -> usize {
        let dt = self.slot_len_s / self.ticks_per_slot.max(1);
        let batch = (rate * dt as f64).ceil() as usize + 1;
        self.queue_capacity.max(batch + batch / 8)
    }

    fn serve_config(&self, queue_capacity: usize, shards: usize) -> Result<ServeConfig, Error> {
        Ok(ServeConfig::builder()
            .slot_len_s(self.slot_len_s)
            .window_slots(self.window_slots)
            .num_segments(self.segments)
            .queue_capacity(queue_capacity)
            .cs(CsConfig {
                rank: self.rank,
                lambda: self.lambda,
                num_threads: self.num_threads,
                ..CsConfig::default()
            })
            .flight_dump(self.flight_dump.clone())
            .shards(ShardPlan::with_count(shards.max(1)))
            .build()?)
    }
}

/// Draws the next offered report. Shared by the in-process and socket
/// legs so both transports offer the *same* stream for a given
/// `(seed, rate, geometry)` — their `stream_hash`es must agree.
fn next_report(
    rng: &mut SplitMix64,
    hash: &mut Fnv,
    vehicle: &mut u64,
    t0_s: u64,
    dt: u64,
    segments: usize,
    malformed_per_10k: u32,
) -> Observation {
    let r = rng.next_u64();
    let segment = (r % segments as u64) as usize;
    let ts = t0_s + (r >> 32) % dt.max(1);
    let m = rng.next_u64();
    let speed_kmh = if (m % 10_000) < u64::from(malformed_per_10k) {
        -1.0 // rejected by admission, counted, never admitted
    } else {
        5.0 + ((m >> 16) % 9_000) as f64 / 100.0
    };
    hash.write_u64(*vehicle);
    hash.write_u64(ts);
    hash.write_u64(segment as u64);
    hash.write_u64(speed_kmh.to_bits());
    let obs = Observation { vehicle: *vehicle, timestamp_s: ts, segment, speed_kmh };
    *vehicle += 1;
    obs
}

/// Latency summary of one histogram: the quantiles the SLO gate reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Median, microseconds.
    pub p50: f64,
    /// 99th percentile, microseconds.
    pub p99: f64,
    /// 99.9th percentile, microseconds.
    pub p999: f64,
    /// Largest observation, microseconds.
    pub max: f64,
    /// Number of observations.
    pub count: u64,
}

impl Quantiles {
    /// Reads the summary out of a histogram (zeros when empty).
    pub fn from_histogram(h: &Histogram) -> Self {
        Self {
            p50: h.quantile(0.50).unwrap_or(0.0),
            p99: h.quantile(0.99).unwrap_or(0.0),
            p999: h.quantile(0.999).unwrap_or(0.0),
            max: h.max().unwrap_or(0.0),
            count: h.count(),
        }
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("p50".into(), Json::Num(self.p50)),
            ("p99".into(), Json::Num(self.p99)),
            ("p999".into(), Json::Num(self.p999)),
            ("max".into(), Json::Num(self.max)),
            ("count".into(), Json::Num(self.count as f64)),
        ])
    }
}

/// Everything one leg (one offered rate) produced.
#[derive(Debug, Clone)]
pub struct LegReport {
    /// Offered rate, reports per simulated second.
    pub offered_rate: f64,
    /// Reports generated during the measured phase.
    pub offered: u64,
    /// Wall-clock seconds of the measured phase.
    pub wall_s: f64,
    /// Reports admitted per wall-clock second — the leg's throughput.
    pub achieved_rate: f64,
    /// Counter deltas over the measured phase.
    pub stats: ServeStats,
    /// Solve-path counter deltas over the measured phase: how many
    /// ticks were answered from the content-hash cache, solved
    /// incrementally, or fell back to a full warm sweep.
    pub solve_stats: SolveStats,
    /// `queue_dropped / offered` over the measured phase.
    pub drop_rate: f64,
    /// `degraded / solves` over the measured phase (0 when no solves).
    pub degrade_rate: f64,
    /// Tick-drain latency quantiles (µs), from [`Service::tick`].
    pub tick_us: Quantiles,
    /// Solve latency quantiles (µs).
    pub solve_us: Quantiles,
    /// End-to-end per-report latency quantiles (µs): enqueue → settled
    /// (solved, degraded, or dropped), read straight from the
    /// service's own `serve.e2e_us` histogram rather than recomputed
    /// here — the number in `BENCH_serve.json` is the number the
    /// service itself reports.
    pub e2e_us: Quantiles,
    /// FNV-1a over every generated report (warm-up included) — the
    /// determinism witness: a pure function of `(seed, rate, geometry)`.
    pub stream_hash: u64,
}

/// Subtracts counter snapshots (measured phase = end − start).
fn stats_delta(end: ServeStats, start: ServeStats) -> ServeStats {
    ServeStats {
        admitted: end.admitted - start.admitted,
        rejected: end.rejected - start.rejected,
        dropped_late: end.dropped_late - start.dropped_late,
        duplicates: end.duplicates - start.duplicates,
        queue_dropped: end.queue_dropped - start.queue_dropped,
        solves: end.solves - start.solves,
        degraded: end.degraded - start.degraded,
    }
}

/// Subtracts solve-path counter snapshots, like [`stats_delta`].
fn solve_stats_delta(end: SolveStats, start: SolveStats) -> SolveStats {
    SolveStats {
        cache_hits: end.cache_hits - start.cache_hits,
        cache_misses: end.cache_misses - start.cache_misses,
        incremental_solves: end.incremental_solves - start.incremental_solves,
        full_solves: end.full_solves - start.full_solves,
        rows_resolved: end.rows_resolved - start.rows_resolved,
    }
}

/// Drives one leg: `warmup_ticks + ticks` service ticks at `rate`
/// offered reports per simulated second, latencies sampled over the
/// measured ticks only.
///
/// # Errors
///
/// Configuration errors only — the loop itself is the service's
/// non-panicking hot path.
pub fn run_leg(cfg: &LoadConfig, rate: f64) -> Result<LegReport, Error> {
    cfg.validate()?;
    if !rate.is_finite() || rate <= 0.0 {
        return Err(ConfigError::new("rate", "offered rate must be positive and finite").into());
    }
    let mut service = Service::new(cfg.serve_config(cfg.effective_queue_capacity(rate), 1)?)?;
    let dt = cfg.slot_len_s / cfg.ticks_per_slot;
    let mut rng = SplitMix64::new(cfg.seed);
    let mut hash = Fnv::new();
    let mut carry = 0.0f64;
    let mut vehicle = 0u64;

    let tick_hist = Histogram::default();
    let solve_hist = Histogram::default();

    let total_ticks = cfg.warmup_ticks + cfg.ticks;
    let mut offered_measured = 0u64;
    let mut stats_at_warmup = ServeStats::default();
    let mut solve_stats_at_warmup = SolveStats::default();
    let mut measured_wall = 0.0f64;

    for k in 0..total_ticks {
        let measured = k >= cfg.warmup_ticks;
        if k == cfg.warmup_ticks {
            stats_at_warmup = service.stats();
            solve_stats_at_warmup = service.solve_stats();
            // Forget warm-up latencies so the e2e quantiles cover the
            // measured phase only, like the counter deltas.
            service.e2e_histogram().reset();
        }
        let t0_s = k as u64 * dt;
        // Fixed-point pacing: the fractional report budget carries over
        // so the long-run offered rate converges to `rate` exactly.
        carry += rate * dt as f64;
        let n = carry as u64;
        carry -= n as f64;

        let batch_start = Instant::now();
        for _ in 0..n {
            let obs = next_report(
                &mut rng,
                &mut hash,
                &mut vehicle,
                t0_s,
                dt,
                cfg.segments,
                cfg.malformed_per_10k,
            );
            service.push(obs);
        }
        service.advance_clock(t0_s + dt);
        let report = service.tick();
        if measured {
            offered_measured += n;
            measured_wall += batch_start.elapsed().as_secs_f64();
            tick_hist.observe(report.tick_us as f64);
            if report.solved || report.degraded {
                solve_hist.observe(report.solve_us as f64);
            }
        }
    }

    let stats = stats_delta(service.stats(), stats_at_warmup);
    let solve_stats = solve_stats_delta(service.solve_stats(), solve_stats_at_warmup);
    let drop_rate = if offered_measured == 0 {
        0.0
    } else {
        stats.queue_dropped as f64 / offered_measured as f64
    };
    let degrade_rate =
        if stats.solves == 0 { 0.0 } else { stats.degraded as f64 / stats.solves as f64 };
    Ok(LegReport {
        offered_rate: rate,
        offered: offered_measured,
        wall_s: measured_wall,
        achieved_rate: if measured_wall > 0.0 {
            stats.admitted as f64 / measured_wall
        } else {
            0.0
        },
        stats,
        solve_stats,
        drop_rate,
        degrade_rate,
        tick_us: Quantiles::from_histogram(&tick_hist),
        solve_us: Quantiles::from_histogram(&solve_hist),
        e2e_us: Quantiles::from_histogram(service.e2e_histogram()),
        stream_hash: hash.finish(),
    })
}

/// Everything one *socket* leg produced: the same offered stream as an
/// in-process leg at the same `(seed, rate, geometry)` — the
/// `stream_hash`es must agree — but driven through a live [`Daemon`]
/// over a real loopback socket, one `cs-wire/v1` `ReportBatch` + `Sync`
/// barrier per tick.
#[derive(Debug, Clone)]
pub struct SocketLegReport {
    /// Offered rate, reports per simulated second.
    pub offered_rate: f64,
    /// Reports generated during the measured phase.
    pub offered: u64,
    /// Shard workers in the daemon's engine.
    pub shards: usize,
    /// Wall-clock seconds of the measured phase.
    pub wall_s: f64,
    /// Reports admitted per wall-clock second — the leg's throughput
    /// *including* the wire round trip.
    pub achieved_rate: f64,
    /// Merged admission-counter deltas over the measured phase, read
    /// from the `Sync` barrier responses.
    pub stats: ServeStats,
    /// `queue_dropped / offered` over the measured phase.
    pub drop_rate: f64,
    /// `degraded / solves` over the measured phase (0 when no solves).
    pub degrade_rate: f64,
    /// Client-observed end-to-end quantiles (µs): first byte of a
    /// tick's `ReportBatch` written → `Synced` barrier response read.
    /// This is the number a remote ingester would see; the in-process
    /// leg's `e2e_us` (enqueue → settled inside the service) is its
    /// floor.
    pub e2e_us: Quantiles,
    /// Engine-reported tick-drain quantiles (µs), from the `Synced`
    /// responses.
    pub tick_us: Quantiles,
    /// Engine-reported solve quantiles (µs), ticks that solved only.
    pub solve_us: Quantiles,
    /// FNV-1a over every generated report (warm-up included); must
    /// equal the in-process leg's hash at the same rate.
    pub stream_hash: u64,
    /// The daemon's transport-plane counters after shutdown.
    pub daemon: DaemonStats,
}

fn client_io(what: &'static str) -> impl FnOnce(proto::client::ClientError) -> Error {
    move |e| DaemonError::Io { what, source: std::io::Error::other(e.to_string()) }.into()
}

/// Drives one leg through a live daemon over a loopback TCP socket:
/// the same paced stream as [`run_leg`], but each tick's batch crosses
/// the wire as one `ReportBatch` frame followed by a `Sync` barrier,
/// and the end-to-end latency is measured from the client's chair.
///
/// The daemon's self-tick interval is parked well above the leg length
/// so the `Sync` barrier is the only tick driver — the socket adds
/// latency, never extra ticks.
///
/// # Errors
///
/// Configuration errors, a failed bind/spawn, or a wire-protocol
/// failure mid-leg (the loopback daemon answering anything but
/// `Synced`/`Bye` is a harness bug, not a measurement).
pub fn run_leg_socket(
    cfg: &LoadConfig,
    rate: f64,
    shards: usize,
) -> Result<SocketLegReport, Error> {
    use proto::client::Client;
    use proto::msg::{Request, Response, WireReport};
    use proto::net::BindAddr;

    cfg.validate()?;
    if !rate.is_finite() || rate <= 0.0 {
        return Err(ConfigError::new("rate", "offered rate must be positive and finite").into());
    }
    let serve_cfg = cfg.serve_config(cfg.effective_queue_capacity(rate), shards)?;
    let bind = BindAddr::parse("tcp:127.0.0.1:0").expect("literal bind address parses");
    let mut daemon_cfg = DaemonConfig::new(bind, serve_cfg);
    daemon_cfg.tick_interval = Duration::from_secs(3600);
    daemon_cfg.frame_deadline = Duration::from_secs(30);
    let handle = Daemon::bind(daemon_cfg)?
        .spawn()
        .map_err(|source| Error::from(DaemonError::Io { what: "spawn", source }))?;
    let mut client = Client::connect(handle.addr()).map_err(client_io("connect"))?;

    let dt = cfg.slot_len_s / cfg.ticks_per_slot;
    let mut rng = SplitMix64::new(cfg.seed);
    let mut hash = Fnv::new();
    let mut carry = 0.0f64;
    let mut vehicle = 0u64;

    let e2e_hist = Histogram::default();
    let tick_hist = Histogram::default();
    let solve_hist = Histogram::default();

    let total_ticks = cfg.warmup_ticks + cfg.ticks;
    let mut offered_measured = 0u64;
    let mut stats_at_warmup = ServeStats::default();
    let mut last_stats = ServeStats::default();
    let mut measured_wall = 0.0f64;

    for k in 0..total_ticks {
        let measured = k >= cfg.warmup_ticks;
        if k == cfg.warmup_ticks {
            stats_at_warmup = last_stats;
        }
        let t0_s = k as u64 * dt;
        carry += rate * dt as f64;
        let n = carry as u64;
        carry -= n as f64;

        let mut batch = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let obs = next_report(
                &mut rng,
                &mut hash,
                &mut vehicle,
                t0_s,
                dt,
                cfg.segments,
                cfg.malformed_per_10k,
            );
            batch.push(WireReport::new(
                obs.vehicle,
                obs.timestamp_s,
                obs.segment as u64,
                obs.speed_kmh,
            ));
        }
        let barrier_start = Instant::now();
        client.send(&Request::ReportBatch(batch)).map_err(client_io("report batch"))?;
        let synced = client.request(&Request::Sync).map_err(client_io("sync barrier"))?;
        let rtt = barrier_start.elapsed();
        let Response::Synced { tick_us, solve_us, stats, .. } = synced else {
            return Err(DaemonError::Io {
                what: "sync barrier",
                source: std::io::Error::other(format!("expected Synced, got {synced:?}")),
            }
            .into());
        };
        let solved = stats.solves > last_stats.solves || stats.degraded > last_stats.degraded;
        last_stats = ServeStats {
            admitted: stats.admitted,
            rejected: stats.rejected,
            dropped_late: stats.dropped_late,
            duplicates: stats.duplicates,
            queue_dropped: stats.queue_dropped,
            solves: stats.solves,
            degraded: stats.degraded,
        };
        if measured {
            offered_measured += n;
            measured_wall += rtt.as_secs_f64();
            e2e_hist.observe(rtt.as_micros() as f64);
            tick_hist.observe(tick_us as f64);
            if solved {
                solve_hist.observe(solve_us as f64);
            }
        }
    }

    match client.request(&Request::Shutdown) {
        Ok(Response::Bye) | Err(_) => {}
        Ok(other) => {
            return Err(DaemonError::Io {
                what: "shutdown",
                source: std::io::Error::other(format!("expected Bye, got {other:?}")),
            }
            .into())
        }
    }
    client.close();
    let daemon = handle.join()?;

    let stats = stats_delta(last_stats, stats_at_warmup);
    let drop_rate = if offered_measured == 0 {
        0.0
    } else {
        stats.queue_dropped as f64 / offered_measured as f64
    };
    let degrade_rate =
        if stats.solves == 0 { 0.0 } else { stats.degraded as f64 / stats.solves as f64 };
    Ok(SocketLegReport {
        offered_rate: rate,
        offered: offered_measured,
        shards: shards.max(1),
        wall_s: measured_wall,
        achieved_rate: if measured_wall > 0.0 {
            stats.admitted as f64 / measured_wall
        } else {
            0.0
        },
        stats,
        drop_rate,
        degrade_rate,
        e2e_us: Quantiles::from_histogram(&e2e_hist),
        tick_us: Quantiles::from_histogram(&tick_hist),
        solve_us: Quantiles::from_histogram(&solve_hist),
        stream_hash: hash.finish(),
        daemon,
    })
}

/// The per-leg pass/fail criterion of the throughput search. Mirrors
/// the `[budget]` section of `results/SLO.toml` (see [`crate::slo`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloBudget {
    /// Maximum acceptable tick p99, microseconds.
    pub tick_p99_us: f64,
    /// Maximum acceptable solve p99, microseconds.
    pub solve_p99_us: f64,
    /// Maximum acceptable queue-drop fraction of the offered stream.
    pub drop_rate: f64,
}

impl Default for SloBudget {
    /// Fallback when no `results/SLO.toml` is on disk: a quarter-second
    /// p99 and 2 % drops, matching the checked-in file's `[budget]`.
    fn default() -> Self {
        Self { tick_p99_us: 250_000.0, solve_p99_us: 250_000.0, drop_rate: 0.02 }
    }
}

impl SloBudget {
    /// Whether a leg meets this budget.
    pub fn accepts(&self, leg: &LegReport) -> bool {
        leg.tick_us.p99 <= self.tick_p99_us
            && leg.solve_us.p99 <= self.solve_p99_us
            && leg.drop_rate <= self.drop_rate
    }
}

/// One search step, for the log and the JSON artifact.
#[derive(Debug, Clone, Copy)]
pub struct SearchLeg {
    /// Offered rate of this leg.
    pub rate: f64,
    /// Whether the leg met the budget.
    pub passed: bool,
    /// Tick p99 of the leg (µs).
    pub tick_p99_us: f64,
    /// Queue-drop fraction of the leg.
    pub drop_rate: f64,
}

/// Outcome of [`search_max_rate`].
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Highest offered rate whose leg met the budget (0 when even the
    /// lowest probed rate failed).
    pub max_sustainable_rate: f64,
    /// Every probed leg, in probe order.
    pub legs: Vec<SearchLeg>,
    /// The full report of the best passing leg (the last failing leg
    /// when nothing passed).
    pub best: LegReport,
}

/// Binary search for the maximum sustainable offered rate: doubles from
/// `start_rate` until a leg fails the budget, then bisects the
/// (pass, fail) bracket until it is within 10 % or `max_legs` legs ran.
///
/// Each probed leg replays a fresh service from the same seed, so the
/// search itself is deterministic apart from the wall clock.
///
/// # Errors
///
/// Configuration errors from [`run_leg`].
pub fn search_max_rate(
    cfg: &LoadConfig,
    budget: &SloBudget,
    start_rate: f64,
    max_legs: usize,
) -> Result<SearchReport, Error> {
    let mut legs = Vec::new();
    let probe = |rate: f64, legs: &mut Vec<SearchLeg>| -> Result<LegReport, Error> {
        let leg = run_leg(cfg, rate)?;
        legs.push(SearchLeg {
            rate,
            passed: budget.accepts(&leg),
            tick_p99_us: leg.tick_us.p99,
            drop_rate: leg.drop_rate,
        });
        Ok(leg)
    };

    // Find a passing floor, halving if the starting rate already fails.
    let mut lo_rate = start_rate.max(1e-3);
    let mut lo_leg = probe(lo_rate, &mut legs)?;
    while !budget.accepts(&lo_leg) && legs.len() < max_legs && lo_rate > 1e-3 {
        lo_rate /= 2.0;
        lo_leg = probe(lo_rate, &mut legs)?;
    }
    if !budget.accepts(&lo_leg) {
        return Ok(SearchReport { max_sustainable_rate: 0.0, legs, best: lo_leg });
    }

    // Double until the budget breaks (or the leg budget runs out — then
    // the floor stands as the conservative answer).
    let mut hi_rate = None;
    while hi_rate.is_none() && legs.len() < max_legs {
        let candidate = lo_rate * 2.0;
        let leg = probe(candidate, &mut legs)?;
        if budget.accepts(&leg) {
            lo_rate = candidate;
            lo_leg = leg;
        } else {
            hi_rate = Some(candidate);
        }
    }

    // Bisect the bracket down to 10 %.
    if let Some(mut hi) = hi_rate {
        while legs.len() < max_legs && hi / lo_rate > 1.10 {
            let mid = (lo_rate + hi) / 2.0;
            let leg = probe(mid, &mut legs)?;
            if budget.accepts(&leg) {
                lo_rate = mid;
                lo_leg = leg;
            } else {
                hi = mid;
            }
        }
    }

    Ok(SearchReport { max_sustainable_rate: lo_rate, legs, best: lo_leg })
}

/// The grid widths of the `scale` profile: 1k → 16k → the 100k-class
/// geometry ROADMAP item 3 targets.
pub const SCALE_GRIDS: [usize; 3] = [1_024, 16_384, 102_400];

/// One grid width of the scale sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Road-segment columns of this point's window.
    pub segments: usize,
    /// The leg run at the sweep's fixed offered rate.
    pub leg: LegReport,
}

/// Runs one leg per [`SCALE_GRIDS`] width at a *fixed* offered rate —
/// the per-tick-latency-vs-grid-size curve. Holding the rate constant
/// is the point: admission work per tick is bounded by the batch, so
/// the curve isolates what the grid size costs the solve (a warm pass
/// re-solves every unit, so that part grows with the grid).
///
/// # Errors
///
/// Configuration errors from [`run_leg`].
pub fn run_scale_sweep(seed: u64, num_threads: usize, rate: f64) -> Result<Vec<ScalePoint>, Error> {
    SCALE_GRIDS
        .iter()
        .map(|&segments| {
            let mut cfg = LoadConfig::scale(seed, segments);
            cfg.num_threads = num_threads;
            run_leg(&cfg, rate).map(|leg| ScalePoint { segments, leg })
        })
        .collect()
}

fn solve_counters_json(s: ServeStats, v: SolveStats) -> Json {
    Json::Obj(vec![
        ("admitted".into(), Json::Num(s.admitted as f64)),
        ("rejected".into(), Json::Num(s.rejected as f64)),
        ("dropped_late".into(), Json::Num(s.dropped_late as f64)),
        ("duplicates".into(), Json::Num(s.duplicates as f64)),
        ("queue_dropped".into(), Json::Num(s.queue_dropped as f64)),
        ("solves".into(), Json::Num(s.solves as f64)),
        ("degraded".into(), Json::Num(s.degraded as f64)),
        ("solve_cache_hits".into(), Json::Num(v.cache_hits as f64)),
        ("solve_cache_misses".into(), Json::Num(v.cache_misses as f64)),
        ("incremental_solves".into(), Json::Num(v.incremental_solves as f64)),
        ("full_solves".into(), Json::Num(v.full_solves as f64)),
        ("rows_resolved".into(), Json::Num(v.rows_resolved as f64)),
    ])
}

/// Writes `BENCH_serve.json` (schema `cs-traffic-bench-serve/v3`): the
/// search outcome, the best leg's latency quantiles and counters
/// (including the solve-path split: cache hits, incremental vs full
/// solves), the latency-vs-grid-size `scale` curve when one was run,
/// the socket-transport leg when one was run (`socket`, null
/// otherwise — the in-process leg stays the baseline), and the run's
/// provenance (git revision, threads, seed, geometry).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_bench_serve_json(
    path: &Path,
    cfg: &LoadConfig,
    search: &SearchReport,
    scale: &[ScalePoint],
    socket: Option<&SocketLegReport>,
    quick: bool,
) -> std::io::Result<PathBuf> {
    let leg = &search.best;
    let s = leg.stats;
    let socket_json = socket.map_or(Json::Null, |sl| {
        Json::Obj(vec![
            ("transport".into(), Json::Str("socket".into())),
            ("shards".into(), Json::Num(sl.shards as f64)),
            ("offered_rate".into(), Json::Num(sl.offered_rate)),
            ("offered".into(), Json::Num(sl.offered as f64)),
            ("wall_s".into(), Json::Num(sl.wall_s)),
            ("achieved_rate".into(), Json::Num(sl.achieved_rate)),
            ("drop_rate".into(), Json::Num(sl.drop_rate)),
            ("degrade_rate".into(), Json::Num(sl.degrade_rate)),
            ("e2e_us".into(), sl.e2e_us.to_json()),
            ("tick_us".into(), sl.tick_us.to_json()),
            ("solve_us".into(), sl.solve_us.to_json()),
            (
                "counters".into(),
                Json::Obj(vec![
                    ("admitted".into(), Json::Num(sl.stats.admitted as f64)),
                    ("rejected".into(), Json::Num(sl.stats.rejected as f64)),
                    ("dropped_late".into(), Json::Num(sl.stats.dropped_late as f64)),
                    ("duplicates".into(), Json::Num(sl.stats.duplicates as f64)),
                    ("queue_dropped".into(), Json::Num(sl.stats.queue_dropped as f64)),
                    ("solves".into(), Json::Num(sl.stats.solves as f64)),
                    ("degraded".into(), Json::Num(sl.stats.degraded as f64)),
                ]),
            ),
            (
                "daemon".into(),
                Json::Obj(vec![
                    ("connections".into(), Json::Num(sl.daemon.connections as f64)),
                    ("frames".into(), Json::Num(sl.daemon.frames as f64)),
                    ("reports".into(), Json::Num(sl.daemon.reports as f64)),
                    ("protocol_errors".into(), Json::Num(sl.daemon.protocol_errors as f64)),
                ]),
            ),
            ("stream_hash".into(), Json::Str(format!("{:016x}", sl.stream_hash))),
        ])
    });
    let scale_json = scale
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("segments".into(), Json::Num(p.segments as f64)),
                ("offered_rate".into(), Json::Num(p.leg.offered_rate)),
                ("offered".into(), Json::Num(p.leg.offered as f64)),
                ("drop_rate".into(), Json::Num(p.leg.drop_rate)),
                ("degrade_rate".into(), Json::Num(p.leg.degrade_rate)),
                ("tick_us".into(), p.leg.tick_us.to_json()),
                ("solve_us".into(), p.leg.solve_us.to_json()),
                ("counters".into(), solve_counters_json(p.leg.stats, p.leg.solve_stats)),
                ("stream_hash".into(), Json::Str(format!("{:016x}", p.leg.stream_hash))),
            ])
        })
        .collect::<Vec<_>>();
    let json = Json::Obj(vec![
        ("schema".into(), Json::Str("cs-traffic-bench-serve/v3".into())),
        ("transport".into(), Json::Str("in-process".into())),
        ("quick".into(), Json::Bool(quick)),
        ("git_rev".into(), Json::Str(report::git_rev())),
        ("seed".into(), Json::Num(cfg.seed as f64)),
        ("threads".into(), Json::Num(workpool::resolve_threads(cfg.num_threads) as f64)),
        (
            "grid".into(),
            Json::Obj(vec![
                ("segments".into(), Json::Num(cfg.segments as f64)),
                ("window_slots".into(), Json::Num(cfg.window_slots as f64)),
                ("slot_len_s".into(), Json::Num(cfg.slot_len_s as f64)),
                ("ticks_per_slot".into(), Json::Num(cfg.ticks_per_slot as f64)),
                ("ticks".into(), Json::Num(cfg.ticks as f64)),
                ("warmup_ticks".into(), Json::Num(cfg.warmup_ticks as f64)),
                ("queue_capacity".into(), Json::Num(cfg.queue_capacity as f64)),
                ("rank".into(), Json::Num(cfg.rank as f64)),
            ]),
        ),
        ("max_sustainable_rate".into(), Json::Num(search.max_sustainable_rate)),
        ("search_legs".into(), Json::Num(search.legs.len() as f64)),
        (
            "leg".into(),
            Json::Obj(vec![
                ("offered_rate".into(), Json::Num(leg.offered_rate)),
                ("offered".into(), Json::Num(leg.offered as f64)),
                ("wall_s".into(), Json::Num(leg.wall_s)),
                ("achieved_rate".into(), Json::Num(leg.achieved_rate)),
                ("drop_rate".into(), Json::Num(leg.drop_rate)),
                ("degrade_rate".into(), Json::Num(leg.degrade_rate)),
                ("tick_us".into(), leg.tick_us.to_json()),
                ("solve_us".into(), leg.solve_us.to_json()),
                ("e2e_us".into(), leg.e2e_us.to_json()),
                ("counters".into(), solve_counters_json(s, leg.solve_stats)),
                ("stream_hash".into(), Json::Str(format!("{:016x}", leg.stream_hash))),
            ]),
        ),
        ("scale".into(), Json::Arr(scale_json)),
        ("socket".into(), socket_json),
    ]);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, json.encode() + "\n")?;
    Ok(path.to_path_buf())
}

/// Appends one line to the tracked bench trajectory
/// (`results/BENCH_trajectory.jsonl`, schema
/// `cs-traffic-bench-trajectory/v1`): a timestamped summary of this
/// run's search outcome, so throughput history survives the
/// overwrite-in-place `BENCH_serve.json` artifact.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn append_bench_trajectory(
    path: &Path,
    cfg: &LoadConfig,
    search: &SearchReport,
    quick: bool,
) -> std::io::Result<PathBuf> {
    use std::io::Write;
    let recorded_unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let leg = &search.best;
    let line = Json::Obj(vec![
        ("schema".into(), Json::Str("cs-traffic-bench-trajectory/v1".into())),
        ("recorded_unix_s".into(), Json::Num(recorded_unix_s as f64)),
        ("git_rev".into(), Json::Str(report::git_rev())),
        ("quick".into(), Json::Bool(quick)),
        ("seed".into(), Json::Num(cfg.seed as f64)),
        ("threads".into(), Json::Num(workpool::resolve_threads(cfg.num_threads) as f64)),
        ("segments".into(), Json::Num(cfg.segments as f64)),
        ("window_slots".into(), Json::Num(cfg.window_slots as f64)),
        ("max_sustainable_rate".into(), Json::Num(search.max_sustainable_rate)),
        ("tick_p99_us".into(), Json::Num(leg.tick_us.p99)),
        ("solve_p99_us".into(), Json::Num(leg.solve_us.p99)),
        ("drop_rate".into(), Json::Num(leg.drop_rate)),
        ("incremental_solves".into(), Json::Num(leg.solve_stats.incremental_solves as f64)),
        ("full_solves".into(), Json::Num(leg.solve_stats.full_solves as f64)),
        ("solve_cache_hits".into(), Json::Num(leg.solve_stats.cache_hits as f64)),
    ]);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{}", line.encode())?;
    Ok(path.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        // Pin the first outputs so a refactor cannot silently change
        // every offered stream (and with it the tracked hashes).
        let mut r = SplitMix64::new(1);
        assert_eq!(r.next_u64(), 0x910a_2dec_8902_5cc1);
        assert_eq!(r.next_u64(), 0xbeeb_8da1_658e_ec67);
    }

    #[test]
    fn pacing_converges_to_the_offered_rate() {
        let cfg = LoadConfig {
            ticks: 40,
            warmup_ticks: 0,
            segments: 4,
            window_slots: 4,
            ..LoadConfig::quick(9)
        };
        // 3.5 reports/sim-second × 3 s/tick × 40 ticks = 420 offered.
        // (The per-tick budget 10.5 is a dyadic rational, so the carry
        // accumulates exactly and the count is sharp, not ±1.)
        let leg = run_leg(&cfg, 3.5).unwrap();
        assert_eq!(leg.offered, 420);
    }

    #[test]
    fn queue_is_sized_to_the_batch() {
        let cfg = LoadConfig::quick(1);
        // Below the floor the configured capacity stands…
        assert_eq!(cfg.effective_queue_capacity(10.0), cfg.queue_capacity);
        // …above it the queue holds one batch (rate × 3 s) + headroom.
        let big = cfg.effective_queue_capacity(10_000.0);
        assert!(big >= 30_001, "queue {big} cannot hold a 30k-report batch");
    }

    #[test]
    fn rejects_bad_geometry_and_rate() {
        let cfg = LoadConfig { ticks_per_slot: 7, ..LoadConfig::quick(1) };
        assert!(run_leg(&cfg, 10.0).is_err(), "7 does not divide 60");
        assert!(run_leg(&LoadConfig::quick(1), 0.0).is_err());
        assert!(run_leg(&LoadConfig::quick(1), f64::NAN).is_err());
    }
}
