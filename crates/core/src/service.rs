//! Fault-tolerant streaming estimation: the loop each shard of the
//! serve engine runs, and the types the engine speaks.
//!
//! [`ShardedService`](crate::sharded::ShardedService), the engine behind
//! `cs-traffic-cli serve` and `daemon`, runs this loop once per shard: probe
//! observations stream in, a sliding window of time slots is maintained
//! ([`probes::stream::StreamingTcm`]), each closed window is completed
//! with warm starts ([`crate::online::OnlineEstimator`]), and the latest
//! estimate is always available to queries — even when the input is bad
//! or a solve fails.
//!
//! The loop is robust **by design**, not by `catch_unwind`:
//!
//! * the ingest queue is bounded with an explicit [`Backpressure`]
//!   policy — overload drops reports (counted), it never grows without
//!   limit;
//! * admission rules classify every report: late reports are dropped and
//!   counted, exact re-deliveries are deduplicated last-write-wins,
//!   malformed reports (a speed that is non-finite, negative or above
//!   [`MAX_SPEED_KMH`], an unknown segment) are rejected and counted —
//!   none of them can corrupt the window;
//! * a per-solve watchdog caps warm-start sweeps and measures wall
//!   clock; a failed or over-budget solve degrades gracefully to the
//!   last good estimate with [`LiveEstimate::stale`] set instead of
//!   taking the service down;
//! * warm-start factors checkpoint to a text format with exact
//!   (`f64::to_bits`) round-tripping, so a restarted process converges
//!   in a couple of sweeps instead of a cold start.
//!
//! Everything the loop swallows is visible: the service keeps local
//! [`ServeStats`] and, when metrics are enabled, increments the
//! `serve.dropped_late` / `serve.rejected` / `serve.degraded` (plus
//! `serve.duplicates` / `serve.queue_dropped`) counters, emits
//! `serve.tick` / `serve.solve` spans, and samples per-tick and
//! per-solve wall clock into the `serve.tick_us` / `serve.solve_us`
//! log₂ histograms plus end-to-end ingest-to-estimate latency into
//! `serve.e2e_us` (handles resolved once, so the hot path stays
//! allocation-free) through the `telemetry` crate. [`TickReport`]
//! carries the same timings per tick for callers without a sink.
//!
//! # Causal tracing
//!
//! With [`ServeConfig::trace_sample`] non-zero and the global level at
//! `Trace`, every sampled report carries a deterministic trace ID —
//! [`report_trace_id`], the FNV-1a digest of
//! `(vehicle, timestamp_s, segment, ingest_seq)`, byte-identical at any
//! thread count — and the service emits `serve.trace` records (`trace`
//! kind) at each stage of the report's life: `ingest`, then one of
//! `queue_dropped` / `rejected` / `dropped_late`, or `duplicate` and/or
//! `admitted` (with its window slot), and finally a terminal `solved`,
//! `degraded`, or `checkpointed`. Sampling is by trace-ID modulus
//! (`trace_id % trace_sample == 0`), so a given report traces — or
//! doesn't — identically across runs. When a tick degrades and
//! [`ServeConfig::flight_dump`] is set, the installed
//! [`telemetry::flight`] recorder dumps the last-N records to that path
//! for post-mortem (`cs-traffic-cli inspect --dump`).
//!
//! # Example
//!
//! ```
//! use traffic_cs::cs::CsConfig;
//! use traffic_cs::service::{Observation, ServeConfig};
//! use traffic_cs::ShardedService;
//!
//! let cfg = ServeConfig::builder()
//!     .slot_len_s(60)
//!     .window_slots(4)
//!     .num_segments(3)
//!     .cs(CsConfig { rank: 2, lambda: 0.1, ..CsConfig::default() })
//!     .build()?;
//! let mut engine = ShardedService::new(cfg)?;
//! for t in 0..240 {
//!     engine.push(Observation { vehicle: t, timestamp_s: t, segment: (t % 3) as usize, speed_kmh: 30.0 });
//! }
//! let report = engine.tick();
//! assert_eq!(report.admitted, 240);
//! assert!(engine.latest().is_some());
//! # Ok::<(), traffic_cs::Error>(())
//! ```

use crate::cs::CsConfig;
use crate::error::{ConfigError, Error};
use crate::online::OnlineEstimator;
use linalg::Matrix;
use probes::stream::StreamingTcm;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};
use telemetry::Level;

/// A segment-resolved probe observation, the service's unit of ingest.
///
/// Map matching happens upstream (the CLI's `serve` command resolves raw
/// GPS positions exactly like `build-tcm` does); the core loop only sees
/// observations already tied to a segment column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Reporting vehicle — part of the deduplication key.
    pub vehicle: u64,
    /// Report timestamp (seconds on the service's absolute slot grid).
    pub timestamp_s: u64,
    /// Matched segment column.
    pub segment: usize,
    /// Instantaneous speed in km/h.
    pub speed_kmh: f64,
}

/// The fastest speed admission accepts, in km/h; a report above it is
/// rejected as malformed. No road vehicle reports more, and the ceiling
/// keeps a finite but absurd speed out of the window: two 1e308 km/h
/// reports on one cell would overflow its sum to infinity and degrade
/// every solve until that slot left the window.
pub const MAX_SPEED_KMH: f64 = 1_000.0;

/// What to do when a report arrives and the ingest queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Refuse the incoming report (the producer sees `push() == false`).
    #[default]
    DropNewest,
    /// Evict the oldest queued report to make room — freshest data wins.
    DropOldest,
}

/// Streaming-service failures: checkpoint I/O and format problems.
///
/// Deliberately narrow — runtime trouble inside the loop (bad reports,
/// failed solves) *degrades* and increments counters instead of erroring,
/// so the only way the service API fails after construction is persisting
/// or restoring state.
#[derive(Debug)]
pub enum ServeError {
    /// Reading or writing a checkpoint file failed.
    Io(std::io::Error),
    /// A checkpoint's content was not valid (version mismatch, truncated
    /// matrix, malformed hex word, …).
    Checkpoint {
        /// 1-based line in the checkpoint text.
        line: usize,
        /// What was wrong.
        msg: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            ServeError::Checkpoint { line, msg } => {
                write!(f, "bad checkpoint (line {line}): {msg}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Checkpoint { .. } => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Configuration of the serve engine.
///
/// Construct via [`ServeConfig::builder`] for validation, or as a struct
/// literal over [`ServeConfig::default`] (validated by
/// [`ShardedService::new`](crate::sharded::ShardedService::new) anyway).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Absolute start of the slot grid, in seconds.
    pub start_s: u64,
    /// Slot length in seconds (the TCM granularity).
    pub slot_len_s: u64,
    /// Height of the sliding window, in slots.
    pub window_slots: usize,
    /// Number of road-segment columns.
    pub num_segments: usize,
    /// Algorithm-1 configuration for the window completions.
    pub cs: CsConfig,
    /// Ingest queue bound; pushes beyond it trigger `backpressure`.
    pub queue_capacity: usize,
    /// Policy when the ingest queue is full.
    pub backpressure: Backpressure,
    /// Sweep cap applied to solves after the first (warm starts need only
    /// a few sweeps); `None` leaves the full `cs.iterations` budget.
    pub warm_sweep_cap: Option<usize>,
    /// Wall-clock budget per solve; an over-budget solve is accepted but
    /// flagged stale and counted as degraded. `None` disables the check.
    pub solve_budget: Option<Duration>,
    /// Causal-trace sampling modulus: `0` disables tracing entirely,
    /// `1` traces every report, `n` traces reports whose
    /// [`report_trace_id`] is divisible by `n`. Tracing also requires
    /// the global telemetry level to be `Trace`.
    pub trace_sample: u64,
    /// Where to dump the flight recorder when a tick degrades (solve
    /// failure or watchdog overrun). `None` disables the dump; a dump
    /// additionally requires [`telemetry::flight::install`] to have run.
    pub flight_dump: Option<std::path::PathBuf>,
    /// Whether primed solves take the one-pass path
    /// ([`OnlineEstimator::update_pass`]: one `L` step and one `R` step
    /// straight off the window). `true` (the default) runs a full warm
    /// sweep only where no warm pass can: cold start, restore, cold
    /// restart, recovery after a failed solve, a slide of a whole
    /// window — and a warm pass on every other solve. `false` makes
    /// every solve a full warm sweep: the reference that differential
    /// runs diff against.
    pub incremental: bool,
    /// Segment-range shard layout of the engine (one shard by default).
    pub shards: crate::sharded::ShardPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            start_s: 0,
            slot_len_s: 900,
            window_slots: 24,
            num_segments: 1,
            cs: CsConfig::default(),
            queue_capacity: 4096,
            backpressure: Backpressure::default(),
            warm_sweep_cap: Some(10),
            solve_budget: None,
            trace_sample: 0,
            flight_dump: None,
            incremental: true,
            shards: crate::sharded::ShardPlan::single(),
        }
    }
}

impl ServeConfig {
    /// Starts a validated builder (see [`ServeConfigBuilder`]).
    ///
    /// ```
    /// use traffic_cs::service::ServeConfig;
    ///
    /// let cfg = ServeConfig::builder().slot_len_s(60).window_slots(8).num_segments(5).build()?;
    /// assert_eq!(cfg.window_slots, 8);
    /// assert!(ServeConfig::builder().window_slots(0).build().is_err());
    /// # Ok::<(), traffic_cs::ConfigError>(())
    /// ```
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { config: ServeConfig::default() }
    }

    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.slot_len_s == 0 {
            return Err(ConfigError::new("slot_len_s", "slot length must be positive"));
        }
        if self.window_slots == 0 {
            return Err(ConfigError::new("window_slots", "window must hold at least one slot"));
        }
        if self.num_segments == 0 {
            return Err(ConfigError::new("num_segments", "need at least one segment column"));
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::new("queue_capacity", "queue must hold at least one report"));
        }
        if self.warm_sweep_cap == Some(0) {
            return Err(ConfigError::new("warm_sweep_cap", "sweep cap must be at least 1"));
        }
        self.shards.validate(self.num_segments)?;
        self.cs.validate()
    }
}

/// Validated builder for [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the absolute grid start in seconds.
    pub fn start_s(mut self, v: u64) -> Self {
        self.config.start_s = v;
        self
    }

    /// Sets the slot length (granularity) in seconds.
    pub fn slot_len_s(mut self, v: u64) -> Self {
        self.config.slot_len_s = v;
        self
    }

    /// Sets the sliding-window height in slots.
    pub fn window_slots(mut self, v: usize) -> Self {
        self.config.window_slots = v;
        self
    }

    /// Sets the number of segment columns.
    pub fn num_segments(mut self, v: usize) -> Self {
        self.config.num_segments = v;
        self
    }

    /// Sets the Algorithm-1 configuration used per window.
    pub fn cs(mut self, v: CsConfig) -> Self {
        self.config.cs = v;
        self
    }

    /// Sets the ingest queue bound.
    pub fn queue_capacity(mut self, v: usize) -> Self {
        self.config.queue_capacity = v;
        self
    }

    /// Sets the policy applied when the ingest queue is full.
    pub fn backpressure(mut self, v: Backpressure) -> Self {
        self.config.backpressure = v;
        self
    }

    /// Caps sweeps on warm solves (`None` disables the cap).
    pub fn warm_sweep_cap(mut self, v: Option<usize>) -> Self {
        self.config.warm_sweep_cap = v;
        self
    }

    /// Sets the per-solve wall-clock budget (`None` disables the check).
    pub fn solve_budget(mut self, v: Option<Duration>) -> Self {
        self.config.solve_budget = v;
        self
    }

    /// Sets the causal-trace sampling modulus (`0` disables tracing).
    pub fn trace_sample(mut self, v: u64) -> Self {
        self.config.trace_sample = v;
        self
    }

    /// Sets the flight-recorder dump path for degraded ticks (`None`
    /// disables the dump).
    pub fn flight_dump(mut self, v: Option<std::path::PathBuf>) -> Self {
        self.config.flight_dump = v;
        self
    }

    /// Enables or disables the one-pass solve path (`false`: every
    /// solve is a full warm sweep).
    pub fn incremental(mut self, v: bool) -> Self {
        self.config.incremental = v;
        self
    }

    /// Sets the segment-range shard plan (see
    /// [`crate::sharded::ShardedService`]).
    pub fn shards(mut self, v: crate::sharded::ShardPlan) -> Self {
        self.config.shards = v;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field.
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// The service's current answer to "what is traffic like right now?".
#[derive(Debug, Clone)]
pub struct LiveEstimate {
    /// Completed window estimate, `window_slots × num_segments`.
    pub estimate: Matrix,
    /// Absolute slot index of the estimate's last row.
    pub head_slot: usize,
    /// Simulated clock (max timestamp ingested) when this was solved.
    pub solved_at_s: u64,
    /// `true` when the estimate is degraded: the solve that should have
    /// replaced it failed, or the producing solve blew its wall-clock
    /// budget.
    pub stale: bool,
    /// ALS sweeps the producing solve used.
    pub sweeps: usize,
    /// Final objective value of the producing solve.
    pub objective: f64,
}

impl LiveEstimate {
    /// The freshest estimated speeds (the last row), the live traffic
    /// map a query consumer typically wants.
    pub fn latest_row(&self) -> &[f64] {
        self.estimate.row(self.estimate.rows() - 1)
    }
}

/// Everything the loop counted — mirrors the telemetry counters so tests
/// and callers without a metrics sink can still observe behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Reports admitted into the window.
    pub admitted: u64,
    /// Malformed reports rejected (bad speed / unknown segment).
    pub rejected: u64,
    /// Reports dropped because their slot already left the window.
    pub dropped_late: u64,
    /// Exact re-deliveries deduplicated last-write-wins.
    pub duplicates: u64,
    /// Reports dropped by queue backpressure before admission.
    pub queue_dropped: u64,
    /// Solves completed successfully (including over-budget ones).
    pub solves: u64,
    /// Solve failures and budget overruns.
    pub degraded: u64,
}

/// How the solves of [`ServeStats::solves`] were actually serviced —
/// the warm-pass and full-sweep breakdown, mirroring the
/// `serve.incremental_solves` / `serve.rows_resolved` counters. Kept
/// separate from [`ServeStats`] so existing accounting (and differential
/// mirrors of it) is untouched by how a solve was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Always 0: the service keeps no solve cache. Kept, with
    /// `cache_misses`, so the struct keeps its shape until the next
    /// benchmark change drops both.
    pub cache_hits: u64,
    /// Always 0; see `cache_hits`.
    pub cache_misses: u64,
    /// Solves serviced by a warm pass (the one-pass path).
    pub incremental_solves: u64,
    /// Solves serviced by a full warm sweep.
    pub full_solves: u64,
    /// Total factor units (rows + columns) re-solved by warm passes. A
    /// pass re-solves every unit, `window_slots + num_segments` of
    /// them, so this is that sum times `incremental_solves`.
    pub rows_resolved: u64,
}

/// Outcome of one [`ShardedService::tick`](crate::sharded::ShardedService::tick).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickReport {
    /// Reports admitted this tick.
    pub admitted: usize,
    /// Reports rejected as malformed this tick.
    pub rejected: usize,
    /// Reports dropped as late this tick.
    pub dropped_late: usize,
    /// Duplicates resolved last-write-wins this tick.
    pub duplicates: usize,
    /// Whether a solve ran (successfully) this tick.
    pub solved: bool,
    /// Whether this tick degraded (solve failed or blew its budget).
    pub degraded: bool,
    /// Wall-clock microseconds the whole tick took (drain + solve).
    pub tick_us: u64,
    /// Wall-clock microseconds of the solve attempt; `0` when the
    /// window was clean and no solve ran.
    pub solve_us: u64,
}

/// Latency histogram handles, resolved once from the global registry so
/// the per-tick sampling on the hot path is an `Arc` deref and a few
/// relaxed atomic bumps — no name lookup, no allocation.
#[derive(Debug)]
struct LatencyHists {
    tick_us: std::sync::Arc<telemetry::Histogram>,
    solve_us: std::sync::Arc<telemetry::Histogram>,
    e2e_us: std::sync::Arc<telemetry::Histogram>,
}

/// Deterministic trace ID of one probe report: the FNV-1a 64-bit digest
/// of `(vehicle, timestamp_s, segment, ingest_seq)`, each absorbed as a
/// little-endian `u64`. The ingest sequence number makes re-deliveries
/// of the same `(vehicle, ts, segment)` key distinguishable while
/// staying a pure function of arrival order — so the ID is
/// byte-identical at any thread count, like the chaos hashes.
pub fn report_trace_id(vehicle: u64, timestamp_s: u64, segment: usize, ingest_seq: u64) -> u64 {
    let mut h = telemetry::Fnv::new();
    h.write_u64(vehicle);
    h.write_u64(timestamp_s);
    h.write_u64(segment as u64);
    h.write_u64(ingest_seq);
    h.finish()
}

/// One queued report with its ingest-time trace context.
#[derive(Debug, Clone, Copy)]
struct Queued {
    obs: Observation,
    /// Sampled trace ID (`None` when tracing is off or unsampled).
    trace: Option<u64>,
    /// Enqueue instant, the start of the `serve.e2e_us` measurement.
    enqueued: Instant,
}

/// The streaming estimation loop of one shard. See the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct Service {
    config: ServeConfig,
    queue: VecDeque<Queued>,
    window: StreamingTcm,
    estimator: OnlineEstimator,
    /// The dedup table: last admitted speed per `(vehicle, timestamp,
    /// segment)` key, one map per ring slot (`abs_slot % window_slots`).
    /// Evicting a slot clears its map in place, keeping the capacity.
    seen: Vec<HashMap<(u64, u64, usize), f64>>,
    last_good: Option<LiveEstimate>,
    /// Simulated clock: the maximum timestamp ingested so far.
    clock_s: u64,
    /// Window content changed since the last successful solve.
    dirty: bool,
    stats: ServeStats,
    /// Lazily-resolved latency histograms (`None` until the first tick
    /// with metrics enabled).
    lat: Option<LatencyHists>,
    /// Reports pushed so far — the `ingest_seq` input of the next
    /// report's [`report_trace_id`].
    ingest_seq: u64,
    /// Reports admitted this tick, awaiting their estimate (terminal
    /// trace stage + e2e sample). Cleared in place each tick so the
    /// capacity amortizes.
    pending: Vec<(Option<u64>, Instant)>,
    /// Warm-pass and full-sweep breakdown.
    solve_stats: SolveStats,
}

/// Writes checkpoint `text` to `path` so that a crash mid-write never
/// truncates the checkpoint already there: the text goes to
/// `<path>.tmp` next to the target, is synced to disk, and the temp file
/// is renamed over the target. On failure the temp file is removed and
/// the previous checkpoint is untouched.
pub(crate) fn write_checkpoint(path: &std::path::Path, text: &str) -> Result<(), ServeError> {
    use std::io::Write;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let written = std::fs::File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(text.as_bytes())?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(ServeError::Io(e));
    }
    // The rename is durable only once the directory entry is synced.
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(std::path::Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

/// The span text of a failed solve: the solver's error, or the
/// non-finite objective of one that returned.
fn solve_error<T>(failed: Result<T, Error>) -> String {
    match failed {
        Err(err) => err.to_string(),
        Ok(_) => "non-finite objective".to_string(),
    }
}

impl Service {
    /// Builds the service, validating the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] on any invalid parameter — construction never
    /// panics on bad input.
    pub fn new(config: ServeConfig) -> Result<Self, Error> {
        config.validate()?;
        let window = StreamingTcm::new(
            config.start_s,
            config.slot_len_s,
            config.window_slots,
            config.num_segments,
        )
        .map_err(|e| ConfigError::new("window", e.to_string()))?;
        let estimator = OnlineEstimator::new(config.cs.clone(), config.window_slots)?;
        let m = config.window_slots;
        Ok(Self {
            clock_s: config.start_s,
            config,
            queue: VecDeque::new(),
            window,
            estimator,
            seen: (0..m).map(|_| HashMap::new()).collect(),
            last_good: None,
            dirty: false,
            stats: ServeStats::default(),
            lat: None,
            ingest_seq: 0,
            pending: Vec::new(),
            solve_stats: SolveStats::default(),
        })
    }

    /// The latency histogram handles, resolved on first use while
    /// metrics are enabled. Returns `None` (without touching the
    /// registry) when metrics are off.
    fn latency_hists(&mut self) -> Option<&LatencyHists> {
        if !telemetry::metrics_enabled() {
            return None;
        }
        if self.lat.is_none() {
            self.lat = Some(LatencyHists {
                tick_us: telemetry::histogram("serve.tick_us"),
                solve_us: telemetry::histogram("serve.solve_us"),
                e2e_us: telemetry::histogram("serve.e2e_us"),
            });
        }
        self.lat.as_ref()
    }

    /// Everything the loop counted so far.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Warm-pass and full-sweep breakdown of [`ServeStats::solves`].
    pub fn solve_stats(&self) -> SolveStats {
        self.solve_stats
    }

    /// The simulated clock: largest timestamp ingested so far.
    pub fn clock_s(&self) -> u64 {
        self.clock_s
    }

    /// The sliding window: the exact content the next solve completes.
    pub(crate) fn window(&self) -> &StreamingTcm {
        &self.window
    }

    /// Number of reports currently queued and not yet processed.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of reports pushed so far — the `ingest_seq` the next
    /// [`Service::push`] will hash into its [`report_trace_id`].
    /// Upstream producers (the CLI's line parser) use this to compute
    /// the same trace ID before the push.
    pub fn ingest_seq(&self) -> u64 {
        self.ingest_seq
    }

    /// The current live estimate, if any window has been solved. The
    /// [`LiveEstimate::stale`] flag tells queries whether it is degraded.
    pub fn latest(&self) -> Option<&LiveEstimate> {
        self.last_good.as_ref()
    }

    /// Replaces the per-solve wall-clock budget at runtime (`None`
    /// disables the check). Fault-injection harnesses use this to
    /// sabotage a single tick's solve and verify the degradation
    /// accounting.
    pub fn set_solve_budget(&mut self, budget: Option<Duration>) {
        self.config.solve_budget = budget;
    }

    /// Replaces the warm-sweep cap at runtime. A cap of `Some(0)` is
    /// clamped to `Some(1)` (the validated minimum). Note that lowering
    /// the cap is sticky on the underlying estimator until
    /// [`Service::cold_restart`]: the estimator's iteration budget only
    /// ever shrinks while warm.
    pub fn set_warm_sweep_cap(&mut self, cap: Option<usize>) {
        self.config.warm_sweep_cap = cap.map(|c| c.max(1));
    }

    /// Discards all warm-start state: rebuilds the estimator from the
    /// originally configured [`CsConfig`], restoring the full cold
    /// iteration budget and forgetting cached factors. The next solve
    /// (e.g. via [`Service::refresh`]) is then bit-for-bit identical to
    /// running the offline pipeline on the window — the property the
    /// differential oracle checks.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] only if the stored configuration became invalid
    /// (impossible through the public API; kept fallible rather than
    /// panicking).
    pub fn cold_restart(&mut self) -> Result<(), Error> {
        self.estimator = OnlineEstimator::new(self.config.cs.clone(), self.config.window_slots)?;
        Ok(())
    }

    /// Whether tracing is live right now (configured on, sampled, and
    /// the global level admits `Trace` records), and if so the report's
    /// trace ID. One relaxed atomic load plus four FNV rounds when
    /// configured; a single field compare when off.
    fn trace_id_for(&self, obs: &Observation, seq: u64) -> Option<u64> {
        let sample = self.config.trace_sample;
        if sample == 0 || !telemetry::enabled(Level::Trace) {
            return None;
        }
        let id = report_trace_id(obs.vehicle, obs.timestamp_s, obs.segment, seq);
        (id.is_multiple_of(sample)).then_some(id)
    }

    /// Emits one `serve.trace` stage record for a traced report.
    fn trace_stage(id: u64, stage: &str, obs: &Observation) {
        telemetry::trace_event(
            "serve.trace",
            vec![
                ("trace".into(), telemetry::Value::Str(format!("{id:016x}"))),
                ("stage".into(), telemetry::Value::Str(stage.to_string())),
                ("vehicle".into(), telemetry::Value::UInt(obs.vehicle)),
                ("ts".into(), telemetry::Value::UInt(obs.timestamp_s)),
                ("segment".into(), telemetry::Value::UInt(obs.segment as u64)),
            ],
        );
    }

    /// Emits a terminal `serve.trace` record (`solved` / `degraded` /
    /// `checkpointed`) — the stage every admitted trace must reach.
    fn trace_terminal(id: u64, stage: &str) {
        telemetry::trace_event(
            "serve.trace",
            vec![
                ("trace".into(), telemetry::Value::Str(format!("{id:016x}"))),
                ("stage".into(), telemetry::Value::Str(stage.to_string())),
            ],
        );
    }

    /// Enqueues a report. Returns `false` when backpressure refused it
    /// (counted in [`ServeStats::queue_dropped`]); under
    /// [`Backpressure::DropOldest`] the push itself always succeeds at
    /// the cost of the oldest queued report.
    pub fn push(&mut self, obs: Observation) -> bool {
        let seq = self.ingest_seq;
        self.ingest_seq += 1;
        let trace = self.trace_id_for(&obs, seq);
        if self.queue.len() >= self.config.queue_capacity {
            self.stats.queue_dropped += 1;
            if telemetry::metrics_enabled() {
                telemetry::counter("serve.queue_dropped").incr();
            }
            match self.config.backpressure {
                Backpressure::DropNewest => {
                    if let Some(id) = trace {
                        Self::trace_stage(id, "queue_dropped", &obs);
                    }
                    return false;
                }
                Backpressure::DropOldest => {
                    if let Some(old) = self.queue.pop_front() {
                        if let Some(id) = old.trace {
                            Self::trace_stage(id, "queue_dropped", &old.obs);
                        }
                    }
                }
            }
        }
        if let Some(id) = trace {
            Self::trace_stage(id, "ingest", &obs);
        }
        self.queue.push_back(Queued { obs, trace, enqueued: Instant::now() });
        true
    }

    /// Advances the simulated clock without data, closing (evicting)
    /// slots that fall out of the window. Does not solve.
    pub fn advance_clock(&mut self, now_s: u64) {
        if now_s <= self.clock_s {
            return;
        }
        self.clock_s = now_s;
        if let Some(slot) = self.window.slot_of(now_s) {
            if slot > self.window.head_slot() {
                self.advance_window(slot);
                self.dirty = true;
            }
        }
    }

    /// Advances the window head to `slot`, clearing the dedup map of
    /// each evicted slot — at most `window_slots` of them, however far
    /// the head jumps.
    fn advance_window(&mut self, slot: usize) {
        let m = self.config.window_slots;
        let tail = self.window.tail_slot();
        let evicted = (slot - self.window.head_slot()).min(m);
        for abs_slot in tail..tail + evicted {
            self.seen[abs_slot % m].clear();
        }
        self.window.advance_to_slot(slot);
    }

    /// Applies the admission rules to every queued report.
    fn drain(&mut self, report: &mut TickReport) {
        while let Some(queued) = self.queue.pop_front() {
            self.admit(queued, report);
        }
    }

    /// Drains the ingest queue through the admission rules, then — if
    /// the window changed — runs one watchdogged solve. Never fails:
    /// bad input and solve trouble become counters and staleness.
    pub fn tick(&mut self) -> TickReport {
        let mut span = telemetry::span(Level::Debug, "serve.tick");
        let t0 = Instant::now();
        let mut report = TickReport::default();
        self.drain(&mut report);
        if self.dirty {
            let (solved, degraded, solve_wall) = self.solve();
            report.solved = solved;
            report.degraded = degraded;
            report.solve_us = solve_wall.as_micros() as u64;
        }
        self.finish_pending(&report);
        report.tick_us = t0.elapsed().as_micros() as u64;
        if let Some(lat) = self.latency_hists() {
            lat.tick_us.observe(report.tick_us as f64);
            // Every solve attempt ends solved, degraded, or both.
            if report.solved || report.degraded {
                lat.solve_us.observe(report.solve_us as f64);
            }
        }
        if span.is_enabled() {
            span.record("admitted", report.admitted as u64);
            span.record("rejected", report.rejected as u64);
            span.record("late", report.dropped_late as u64);
            span.record("solved", if report.solved { 1u64 } else { 0 });
        }
        if report.degraded {
            self.dump_flight("solve_degraded");
        }
        report
    }

    /// Settles the reports admitted this tick: samples their end-to-end
    /// latency (enqueue instant to now, when the estimate became ready)
    /// and emits the terminal trace stage. An admitted report implies a
    /// dirty window, so the solve always ran this tick — the terminal is
    /// `solved`, or `degraded` when it failed or blew its budget.
    fn finish_pending(&mut self, report: &TickReport) {
        if self.pending.is_empty() {
            return;
        }
        let stage = if report.degraded { "degraded" } else { "solved" };
        let e2e_metric = self.latency_hists().map(|l| std::sync::Arc::clone(&l.e2e_us));
        let now = Instant::now();
        for &(trace, enqueued) in &self.pending {
            if let Some(h) = &e2e_metric {
                h.observe(now.saturating_duration_since(enqueued).as_micros() as f64);
            }
            if let Some(id) = trace {
                Self::trace_terminal(id, stage);
            }
        }
        self.pending.clear();
    }

    /// Dumps the installed flight recorder to the configured path
    /// (best-effort; a dump failure must not take the tick down).
    fn dump_flight(&self, trigger: &str) {
        if let Some(path) = &self.config.flight_dump {
            if let Some(recorder) = telemetry::flight::recorder() {
                if let Err(e) = recorder.dump_to_path(path, trigger) {
                    telemetry::tele_event!(
                        Level::Error,
                        "serve.flight_dump_failed",
                        "path" => path.display().to_string(),
                        "error" => e.to_string(),
                    );
                }
            }
        }
    }

    /// Runs one solve attempt on the current window even if nothing new
    /// arrived — the recovery path after degraded ticks, and the way to
    /// refresh after [`Service::advance_clock`]. The attempt takes the
    /// path a dirty tick would: on unchanged content with a primed
    /// estimator that is a warm pass, never a reuse of the last estimate.
    pub fn refresh(&mut self) -> TickReport {
        self.dirty = true;
        self.tick()
    }

    /// Applies the admission rules to one report.
    fn admit(&mut self, queued: Queued, report: &mut TickReport) {
        let Queued { obs, trace, enqueued } = queued;
        // Rule 1: malformed reports (a speed that is NaN, negative, or
        // above the ceiling, infinities included; an unknown segment)
        // are rejected outright.
        if !(0.0..=MAX_SPEED_KMH).contains(&obs.speed_kmh)
            || obs.segment >= self.config.num_segments
        {
            self.stats.rejected += 1;
            report.rejected += 1;
            if telemetry::metrics_enabled() {
                telemetry::counter("serve.rejected").incr();
            }
            if let Some(id) = trace {
                Self::trace_stage(id, "rejected", &obs);
            }
            return;
        }
        if obs.timestamp_s > self.clock_s {
            self.clock_s = obs.timestamp_s;
        }
        // Rule 2: late reports (slot already evicted, or before the grid
        // start) are dropped and counted.
        let slot = self.window.slot_of(obs.timestamp_s);
        let late = match slot {
            None => true,
            Some(s) => s < self.window.tail_slot(),
        };
        if late {
            self.stats.dropped_late += 1;
            report.dropped_late += 1;
            if telemetry::metrics_enabled() {
                telemetry::counter("serve.dropped_late").incr();
            }
            if let Some(id) = trace {
                Self::trace_stage(id, "dropped_late", &obs);
            }
            return;
        }
        // The slot is in range and not late; slide the window here
        // rather than letting `observe` do it, so every evicted slot's
        // dedup map is cleared before its ring entry is reused.
        let abs_slot = slot.expect("late check above rules out None");
        if abs_slot > self.window.head_slot() {
            self.advance_window(abs_slot);
        }
        let ring = abs_slot % self.config.window_slots;
        // Rule 3: exact re-delivery of an admitted key — last write wins.
        // One probe of the slot's dedup map both finds and records it.
        match self.seen[ring].entry((obs.vehicle, obs.timestamp_s, obs.segment)) {
            Entry::Occupied(mut entry) => {
                let old_speed = entry.insert(obs.speed_kmh);
                self.stats.duplicates += 1;
                report.duplicates += 1;
                if telemetry::metrics_enabled() {
                    telemetry::counter("serve.duplicates").incr();
                }
                if let Some(id) = trace {
                    Self::trace_stage(id, "duplicate", &obs);
                }
                // The old contribution is still in the window (we
                // checked lateness above); replace it.
                let _ = self.window.retract(obs.timestamp_s, obs.segment, old_speed);
            }
            Entry::Vacant(entry) => {
                entry.insert(obs.speed_kmh);
            }
        }
        self.window
            .observe(obs.timestamp_s, obs.segment, obs.speed_kmh)
            .expect("validated above: segment in range, speed finite and non-negative");
        self.stats.admitted += 1;
        report.admitted += 1;
        if telemetry::metrics_enabled() {
            telemetry::counter("serve.admitted").incr();
        }
        if let Some(id) = trace {
            // Window placement: the slot row this report's speed landed
            // in — `slot` is `Some` and in-window past the rules above.
            telemetry::trace_event(
                "serve.trace",
                vec![
                    ("trace".into(), telemetry::Value::Str(format!("{id:016x}"))),
                    ("stage".into(), telemetry::Value::Str("admitted".to_string())),
                    ("slot".into(), telemetry::Value::UInt(slot.unwrap_or(0) as u64)),
                    ("segment".into(), telemetry::Value::UInt(obs.segment as u64)),
                ],
            );
        }
        self.pending.push((trace, enqueued));
        self.dirty = true;
    }

    /// Per-solve success bookkeeping shared by both solve paths:
    /// the solves counter, the sweep-cap clamp, and the wall-clock half
    /// of the watchdog. Returns whether the solve blew its budget.
    fn settle_solved(&mut self, wall: Duration) -> bool {
        self.dirty = false;
        self.stats.solves += 1;
        if telemetry::metrics_enabled() {
            telemetry::counter("serve.solves").incr();
        }
        // Watchdog, sweep half: after a successful (possibly cold)
        // solve, clamp subsequent warm solves.
        if let Some(cap) = self.config.warm_sweep_cap {
            self.estimator.limit_iterations(cap);
        }
        // Watchdog, wall-clock half: accept the estimate but flag it
        // stale when the solve blew its budget.
        let over_budget = self.config.solve_budget.is_some_and(|budget| wall > budget);
        if over_budget {
            self.stats.degraded += 1;
            if telemetry::metrics_enabled() {
                telemetry::counter("serve.degraded").incr();
            }
        }
        over_budget
    }

    /// Per-solve failure bookkeeping for a solver error or a non-finite
    /// result. The last good estimate keeps answering, now flagged
    /// stale, and the window stays dirty so the next tick retries.
    fn settle_degraded(&mut self) {
        self.stats.degraded += 1;
        if telemetry::metrics_enabled() {
            telemetry::counter("serve.degraded").incr();
        }
        if let Some(last) = &mut self.last_good {
            last.stale = true;
        }
    }

    /// Whether this solve takes the warm pass: the one-pass path is on,
    /// the estimator is primed, a live estimate exists, the window is
    /// not empty and the head moved fewer than `window_slots` slots
    /// since that estimate. Otherwise — cold start, restore, cold
    /// restart, recovery after a failed solve, a slide of a whole window
    /// — the full warm sweep runs.
    ///
    /// Nothing is priced. A warm pass is one sweep plus the estimate
    /// rewrite; the full path costs up to `warm_sweep_cap` sweeps plus a
    /// snapshot, an index build and `L·Rᵀ`. So a primed solve never
    /// gains by taking the full path.
    fn takes_pass(&self) -> bool {
        self.config.incremental
            && self.estimator.primed()
            && self.last_good.as_ref().is_some_and(|last| {
                self.window.head_slot().saturating_sub(last.head_slot) < self.config.window_slots
            })
            // The full path owns the empty-window behaviour (a counted
            // degradation), and the pass must not shadow it. The probe
            // stops at the first observed cell.
            && self.window.rows_raw().any(|(_, counts)| counts.iter().any(|&c| c > 0.0))
    }

    /// One watchdogged solve. Returns `(solved, degraded, wall_clock)`.
    ///
    /// A primed estimator takes one warm pass; everything else runs the
    /// full warm sweep, which primes the estimator.
    fn solve(&mut self) -> (bool, bool, Duration) {
        let mut span = telemetry::span(Level::Debug, "serve.solve");
        let t0 = Instant::now();
        // Path 1: one warm pass, rewriting the live estimate in place
        // only when it succeeds with a finite objective.
        if self.takes_pass() {
            let units = (self.config.window_slots + self.config.num_segments) as u64;
            let mut last = self.last_good.take().expect("takes_pass requires a live estimate");
            let outcome = self.estimator.update_pass(&self.window, &mut last.estimate);
            let wall = t0.elapsed();
            match outcome {
                Ok(objective) if objective.is_finite() => {
                    self.solve_stats.incremental_solves += 1;
                    self.solve_stats.rows_resolved += units;
                    if telemetry::metrics_enabled() {
                        telemetry::counter("serve.incremental_solves").incr();
                        telemetry::counter("serve.rows_resolved").add(units);
                    }
                    let over_budget = self.settle_solved(wall);
                    if span.is_enabled() {
                        span.record("path", "incremental");
                        span.record("rows_resolved", units);
                        span.record("objective", objective);
                        span.record("over_budget", if over_budget { 1u64 } else { 0 });
                    }
                    last.head_slot = self.window.head_slot();
                    last.solved_at_s = self.clock_s;
                    last.stale = over_budget;
                    last.sweeps = 1;
                    last.objective = objective;
                    self.last_good = Some(last);
                    return (true, over_budget, wall);
                }
                failed => {
                    // The pass left the estimate and the warm R as they
                    // were and unprimed the estimator, so the retry is a
                    // full warm sweep from the last good R.
                    self.last_good = Some(last);
                    self.settle_degraded();
                    if span.is_enabled() {
                        span.record("path", "incremental");
                        span.record("error", solve_error(failed));
                    }
                    return (false, true, wall);
                }
            }
        }
        // Path 2: full warm sweep.
        let snapshot = self.window.snapshot();
        let outcome = self.estimator.update_detailed(&snapshot);
        let wall = t0.elapsed();
        match outcome {
            Ok(result) if result.objective.is_finite() => {
                self.solve_stats.full_solves += 1;
                let over_budget = self.settle_solved(wall);
                if span.is_enabled() {
                    span.record("path", "full");
                    span.record("sweeps", result.sweeps as u64);
                    span.record("objective", result.objective);
                    span.record("over_budget", if over_budget { 1u64 } else { 0 });
                }
                self.last_good = Some(LiveEstimate {
                    estimate: result.estimate,
                    head_slot: self.window.head_slot(),
                    solved_at_s: self.clock_s,
                    stale: over_budget,
                    sweeps: result.sweeps,
                    objective: result.objective,
                });
                (true, over_budget, wall)
            }
            failed => {
                // Degrade: keep answering from the last good estimate,
                // now explicitly stale. Poisoned warm factors (a restored
                // checkpoint holding NaN, say) pass the Cholesky pivot
                // check and yield a NaN objective; the estimator forgets
                // them, so the retry starts cold instead of warm-starting
                // from the poison again.
                if failed.is_ok() {
                    self.estimator.reset();
                }
                self.settle_degraded();
                if span.is_enabled() {
                    span.record("path", "full");
                    span.record("error", solve_error(failed));
                }
                (false, true, wall)
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Serializes this shard's warm-start state as the
    /// `cs-serve-checkpoint v1` section of the engine's container (see
    /// [`crate::sharded::ShardedService::checkpoint`]).
    pub fn checkpoint(&self) -> String {
        // Reports still queued when the process checkpoints will reach
        // no solve in this life; `checkpointed` is their terminal trace
        // stage (the replayed stream re-ingests them after restore).
        for queued in &self.queue {
            if let Some(id) = queued.trace {
                Self::trace_terminal(id, "checkpointed");
            }
        }
        let mut out = String::from("cs-serve-checkpoint v1\n");
        out.push_str(&format!("clock {}\n", self.clock_s));
        out.push_str(&format!("head_slot {}\n", self.window.head_slot()));
        match self.estimator.warm_factors() {
            None => out.push_str("factors none\n"),
            Some(r) => {
                out.push_str(&format!("factors {} {}\n", r.rows(), r.cols()));
                for i in 0..r.rows() {
                    let words: Vec<String> =
                        r.row(i).iter().map(|v| format!("{:016x}", v.to_bits())).collect();
                    out.push_str(&words.join(" "));
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Restores a section written by [`Service::checkpoint`]: the warm
    /// factors, and the clock, which advances so slot eviction picks up
    /// where the previous process stopped.
    ///
    /// # Errors
    ///
    /// [`ServeError::Checkpoint`] (wrapped in the unified
    /// [`enum@Error`]), with a line of `text`, on version mismatch or
    /// malformed content; [`Error::Config`] when well-formed factors do
    /// not fit this shard's segment count and configured rank.
    pub fn restore(&mut self, text: &str) -> Result<(), Error> {
        let bad = |line: usize, msg: &str| -> Error {
            ServeError::Checkpoint { line, msg: msg.to_string() }.into()
        };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| bad(1, "empty checkpoint"))?;
        if header.trim() != "cs-serve-checkpoint v1" {
            return Err(bad(1, "not a cs-serve-checkpoint v1 file"));
        }
        let (_, clock_line) = lines.next().ok_or_else(|| bad(2, "missing clock line"))?;
        let clock = clock_line
            .strip_prefix("clock ")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .ok_or_else(|| bad(2, "malformed clock line"))?;
        let (_, head_line) = lines.next().ok_or_else(|| bad(3, "missing head_slot line"))?;
        head_line
            .strip_prefix("head_slot ")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .ok_or_else(|| bad(3, "malformed head_slot line"))?;
        let (_, factors_line) = lines.next().ok_or_else(|| bad(4, "missing factors line"))?;
        let spec = factors_line
            .strip_prefix("factors ")
            .ok_or_else(|| bad(4, "malformed factors line"))?
            .trim();
        if spec != "none" {
            let mut dims = spec.split_whitespace();
            let rows: usize = dims
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(4, "malformed factor rows"))?;
            let cols: usize = dims
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(4, "malformed factor cols"))?;
            // A corrupted dims line must not become a giant allocation:
            // real factor matrices are segments × rank, far below this.
            const MAX_FACTOR_CELLS: usize = 1 << 24;
            if rows == 0 || cols == 0 || rows.checked_mul(cols).is_none_or(|c| c > MAX_FACTOR_CELLS)
            {
                return Err(bad(4, "implausible factor dimensions"));
            }
            let mut r = Matrix::zeros(rows, cols);
            for i in 0..rows {
                let (line_no, row_line) =
                    lines.next().ok_or_else(|| bad(5 + i, "truncated factor matrix"))?;
                let mut words = row_line.split_whitespace();
                for j in 0..cols {
                    let word = words.next().ok_or_else(|| bad(line_no + 1, "short factor row"))?;
                    // Exactly 16 hex digits per word: a checkpoint cut
                    // mid-word must be detected, not silently restored
                    // as a different (shifted) bit pattern.
                    if word.len() != 16 {
                        return Err(bad(line_no + 1, "malformed hex word"));
                    }
                    let bits = u64::from_str_radix(word, 16)
                        .map_err(|_| bad(line_no + 1, "malformed hex word"))?;
                    r.set(i, j, f64::from_bits(bits));
                }
                if words.next().is_some() {
                    return Err(bad(line_no + 1, "trailing values in factor row"));
                }
            }
            // Well-formed factors of another network would pass the
            // estimator's rank check and then fail every solve.
            let (segments, rank) = (self.config.num_segments, self.config.cs.rank);
            if (rows, cols) != (segments, rank) {
                return Err(ConfigError::new(
                    "warm_factors",
                    format!(
                        "shape {rows}x{cols} incompatible with {segments} segments at rank {rank}"
                    ),
                )
                .into());
            }
            self.estimator.set_warm_factors(r)?;
        }
        self.advance_clock(clock);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServeConfig {
        ServeConfig::builder()
            .slot_len_s(60)
            .window_slots(4)
            .num_segments(3)
            .cs(CsConfig { rank: 2, lambda: 0.1, ..CsConfig::default() })
            .build()
            .unwrap()
    }

    fn obs(vehicle: u64, timestamp_s: u64, segment: usize, speed_kmh: f64) -> Observation {
        Observation { vehicle, timestamp_s, segment, speed_kmh }
    }

    #[test]
    fn builder_validates() {
        assert!(ServeConfig::builder().window_slots(0).build().is_err());
        assert!(ServeConfig::builder().slot_len_s(0).build().is_err());
        assert!(ServeConfig::builder().num_segments(0).build().is_err());
        assert!(ServeConfig::builder().queue_capacity(0).build().is_err());
        assert!(ServeConfig::builder().warm_sweep_cap(Some(0)).build().is_err());
        let bad_cs = CsConfig { rank: 0, ..CsConfig::default() };
        assert!(ServeConfig::builder().cs(bad_cs).build().is_err());
        // Service::new validates struct literals too.
        let cfg = ServeConfig { window_slots: 0, ..ServeConfig::default() };
        assert!(matches!(Service::new(cfg), Err(Error::Config(_))));
    }

    #[test]
    fn backpressure_policies() {
        let cfg = ServeConfig { queue_capacity: 2, ..small_cfg() };
        let mut s = Service::new(cfg).unwrap();
        assert!(s.push(obs(1, 0, 0, 30.0)));
        assert!(s.push(obs(2, 1, 0, 31.0)));
        assert!(!s.push(obs(3, 2, 0, 32.0)), "DropNewest refuses when full");
        assert_eq!(s.stats().queue_dropped, 1);
        assert_eq!(s.queue_len(), 2);

        let cfg = ServeConfig {
            queue_capacity: 2,
            backpressure: Backpressure::DropOldest,
            ..small_cfg()
        };
        let mut s = Service::new(cfg).unwrap();
        s.push(obs(1, 0, 0, 30.0));
        s.push(obs(2, 1, 0, 31.0));
        assert!(s.push(obs(3, 2, 0, 32.0)), "DropOldest admits the newest");
        assert_eq!(s.stats().queue_dropped, 1);
        let report = s.tick();
        // Vehicle 1's report was evicted before processing.
        assert_eq!(report.admitted, 2);
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        let mut s = Service::new(small_cfg()).unwrap();
        for text in [
            "",
            "something else\n",
            "cs-serve-checkpoint v1\n",
            "cs-serve-checkpoint v1\nclock x\n",
            "cs-serve-checkpoint v1\nclock 5\nhead_slot 3\nfactors 2 2\ndeadbeef\n",
            "cs-serve-checkpoint v1\nclock 5\nhead_slot 3\nfactors 1 1\nnothex0000000000\n",
        ] {
            let err = s.restore(text).unwrap_err();
            assert!(matches!(err, Error::Serve(ServeError::Checkpoint { .. })), "{text:?}: {err}");
        }
        // Factors with the wrong rank surface as a config error.
        let text = "cs-serve-checkpoint v1\nclock 0\nhead_slot 3\nfactors 1 7\n\
                    0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
                    0000000000000000 0000000000000000 0000000000000000\n";
        assert!(matches!(s.restore(text), Err(Error::Config(_))));
    }

    #[test]
    fn checkpoint_detects_truncated_hex_word() {
        // A word cut mid-way is still valid hex ("3ff00" parses), so
        // without a length check it would restore as a silently shifted
        // bit pattern. The format requires exactly 16 hex digits.
        let mut s = Service::new(small_cfg()).unwrap();
        let text = "cs-serve-checkpoint v1\nclock 0\nhead_slot 3\nfactors 1 2\n\
                    3ff0000000000000 3ff00\n";
        let err = s.restore(text).unwrap_err();
        assert!(matches!(err, Error::Serve(ServeError::Checkpoint { .. })), "{err}");
        // Over-long words are just as corrupt.
        let text = "cs-serve-checkpoint v1\nclock 0\nhead_slot 3\nfactors 1 1\n\
                    3ff00000000000000\n";
        assert!(s.restore(text).is_err());
    }

    #[test]
    fn checkpoint_rejects_implausible_dimensions() {
        // A bit-flipped dims line must error out, not allocate gigabytes.
        let mut s = Service::new(small_cfg()).unwrap();
        for dims in ["999999999 999999999", "0 2", "2 0", "18446744073709551615 2"] {
            let text = format!("cs-serve-checkpoint v1\nclock 0\nhead_slot 3\nfactors {dims}\n");
            let err = s.restore(&text).unwrap_err();
            assert!(matches!(err, Error::Serve(ServeError::Checkpoint { .. })), "{dims}: {err}");
        }
    }

    #[test]
    fn checkpoint_rejects_factors_of_another_network() {
        // Well-formed rank-2 factors of a 7-segment network must not
        // seed this 3-segment service: every later solve would fail.
        let mut s = Service::new(small_cfg()).unwrap();
        let row = format!("{:016x} {:016x}\n", 1.0f64.to_bits(), 0.5f64.to_bits());
        let text =
            format!("cs-serve-checkpoint v1\nclock 0\nhead_slot 3\nfactors 7 2\n{}", row.repeat(7));
        let err = s.restore(&text).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        assert!(err.to_string().contains("3 segments"), "{err}");
        // The rejected checkpoint left the solver untouched.
        for t in 0..6u64 {
            for seg in 0..3usize {
                s.push(obs(10 + t, t * 60 + 5, seg, 30.0 + (t + seg as u64) as f64));
            }
            let report = s.tick();
            assert!(report.solved && !report.degraded, "tick {t}: {report:?}");
        }
        assert!(s.latest().is_some());
        assert_eq!(s.stats().degraded, 0);
    }

    #[test]
    fn cold_restart_reproduces_offline_solve() {
        // Warm-started service vs offline completion of the same window:
        // after cold_restart + refresh the estimates agree bit for bit.
        let mut s = Service::new(small_cfg()).unwrap();
        for t in 0..12u64 {
            for seg in 0..3usize {
                s.push(obs(100 + t, t * 60 + 5, seg, 25.0 + t as f64 + seg as f64));
            }
            s.tick();
        }
        assert!(s.latest().is_some());
        s.cold_restart().unwrap();
        let report = s.refresh();
        assert!(report.solved);
        let live = s.latest().unwrap().estimate.clone();
        let offline = crate::cs::complete_matrix_detailed(&s.window.snapshot(), &s.config.cs)
            .unwrap()
            .estimate;
        assert_eq!(live.shape(), offline.shape());
        for (r, c, v) in live.iter() {
            assert_eq!(v.to_bits(), offline.get(r, c).to_bits(), "cell ({r},{c})");
        }
    }

    #[test]
    fn runtime_watchdog_setters() {
        let mut s = Service::new(small_cfg()).unwrap();
        s.set_warm_sweep_cap(Some(0));
        assert_eq!(s.config.warm_sweep_cap, Some(1), "zero cap clamps to the valid minimum");
        s.set_warm_sweep_cap(None);
        assert_eq!(s.config.warm_sweep_cap, None);
        // A zero wall-clock budget degrades every successful solve.
        s.set_solve_budget(Some(Duration::ZERO));
        s.push(obs(1, 30, 0, 40.0));
        let report = s.tick();
        assert!(report.solved && report.degraded);
        assert_eq!(s.stats().solves, 1);
        assert_eq!(s.stats().degraded, 1);
        assert!(s.latest().unwrap().stale);
        s.set_solve_budget(None);
        let report = s.refresh();
        assert!(report.solved && !report.degraded);
        assert!(!s.latest().unwrap().stale);
    }

    /// SplitMix64: a seeded stream for the audit, no dependencies.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// What the admission rules must have done, tracked by plain clock
    /// arithmetic next to the service (grid start 0, 60 s slots).
    struct Model {
        m: usize,
        n: usize,
        head: usize,
        admitted: u64,
    }

    impl Model {
        fn slide(&mut self, slot: usize) {
            self.head = self.head.max(slot);
        }

        fn offer(&mut self, o: &Observation) {
            if !(0.0..=MAX_SPEED_KMH).contains(&o.speed_kmh) || o.segment >= self.n {
                return;
            }
            let slot = (o.timestamp_s / 60) as usize;
            if slot + self.m <= self.head {
                return; // late
            }
            self.slide(slot);
            self.admitted += 1;
        }
    }

    fn audit(s: &Service, model: &Model, at: &str) {
        assert_eq!(s.window.head_slot(), model.head, "{at}: head slot");
        assert_eq!(s.stats.admitted, model.admitted, "{at}: admitted");
    }

    /// One offered report: mostly in-window traffic on a few vehicles
    /// and timestamps (so exact re-deliveries recur), plus reports that
    /// slide the head by one or more slots mid-drain, jumps past the
    /// whole window, late and malformed ones.
    fn offered(rng: &mut SplitMix, head: usize, m: usize, n: usize) -> Observation {
        let slot = match rng.below(100) {
            0..=69 => head - rng.below(m as u64) as usize,
            70..=81 => head + 1 + rng.below(2) as usize,
            82..=84 => head + 2 + rng.below(2 * m as u64) as usize,
            85..=92 => head.saturating_sub(m + rng.below(3) as usize),
            _ => head,
        };
        let malformed = rng.below(100) < 4;
        Observation {
            vehicle: rng.below(5),
            timestamp_s: slot as u64 * 60 + rng.below(2),
            segment: if malformed { n + 1 } else { rng.below(n as u64) as usize },
            speed_kmh: 20.0 + rng.below(40) as f64 * 0.25,
        }
    }

    #[test]
    fn admission_matches_a_clock_arithmetic_model() {
        // Rank 2 solves (warm passes and full sweeps alternate); rank
        // 5 > window_slots fails every solve, so the window stays dirty
        // across ticks.
        for (rank, seed) in [(2, 1u64), (2, 2), (5, 3)] {
            let cfg = ServeConfig {
                window_slots: 4,
                num_segments: 70,
                cs: CsConfig { rank, lambda: 0.1, num_threads: 1, ..CsConfig::default() },
                ..small_cfg()
            };
            let (m, n) = (cfg.window_slots, cfg.num_segments);
            let mut s = Service::new(cfg).unwrap();
            let mut model = Model { m, n, head: m - 1, admitted: 0 };
            let mut rng = SplitMix(seed);
            for tick in 0..300 {
                let at = format!("rank {rank} seed {seed} tick {tick}");
                for _ in 0..rng.below(40) {
                    let o = offered(&mut rng, model.head, m, n);
                    s.push(o);
                    model.offer(&o);
                }
                // Drain and audit before the solve, then let the tick
                // solve.
                let mut drained = TickReport::default();
                s.drain(&mut drained);
                audit(&s, &model, &format!("{at} drained"));
                if rng.below(10) == 0 {
                    s.refresh();
                } else {
                    s.tick();
                }
                audit(&s, &model, &format!("{at} ticked"));
                if rng.below(8) == 0 {
                    let slot = model.head + 1 + rng.below(m as u64 + 2) as usize;
                    s.advance_clock(slot as u64 * 60);
                    model.slide(slot);
                    audit(&s, &model, &format!("{at} clock advanced"));
                }
            }
            let st = s.stats();
            assert!(st.duplicates > 0 && st.dropped_late > 0 && st.rejected > 0, "{st:?}");
            if rank == 2 {
                assert!(s.solve_stats().incremental_solves > 0, "{:?}", s.solve_stats());
            } else {
                assert_eq!(st.solves, 0, "rank {rank} must fail every solve");
            }
        }
    }
}
