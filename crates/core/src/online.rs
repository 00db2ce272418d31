//! Online (streaming) traffic estimation — the paper's Section 6 future
//! work: "the algorithm can be further extended to support processing of
//! online streaming probe data".
//!
//! The extension is a sliding-window scheme on top of Algorithm 1:
//!
//! * a window of the `W` most recent time slots is completed whenever a
//!   new slot closes;
//! * the segment-factor matrix `R̂` of the previous window warm-starts
//!   the next solve ([`crate::cs::complete_matrix_warm`]) — consecutive
//!   windows share `W − 1` rows, so a couple of sweeps suffice instead
//!   of the offline `t = 100`;
//! * once a solve has primed it, the serve path keeps the estimate
//!   current with one warm pass per tick
//!   ([`OnlineEstimator::update_pass`]): one `L` step and one `R` step
//!   of the same alternation, straight off the window's accumulators;
//! * the caller reads the freshest row of the estimate as the live
//!   traffic map.
//!
//! The data-plane companion (ingesting raw probe observations into the
//! sliding window) is `probes::stream::StreamingTcm`.

use std::convert::Infallible;
use std::time::Instant;

use crate::cs::{
    complete_matrix_warm, dot, for_each_unit, objective, solve_factor, CompletionResult, CsConfig,
    SolveAxis, ThreadPlan,
};
use crate::error::{ConfigError, Error};
use crate::obs::ObsSource;
use linalg::Matrix;
use probes::Tcm;
use telemetry::{Level, Span};

/// Sliding-window online estimator.
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// use probes::Tcm;
/// use traffic_cs::cs::CsConfig;
/// use traffic_cs::online::OnlineEstimator;
///
/// let cfg = CsConfig { rank: 2, lambda: 0.1, ..CsConfig::default() };
/// let mut online = OnlineEstimator::new(cfg, 8)?;
/// // Feed window snapshots (e.g. from probes::stream::StreamingTcm):
/// let window = Tcm::complete(Matrix::filled(8, 5, 30.0));
/// let est = online.update(&window)?;
/// assert_eq!(est.shape(), (8, 5));
/// # Ok::<(), traffic_cs::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct OnlineEstimator {
    config: CsConfig,
    window_slots: usize,
    /// Segment factors of the last successful solve or pass, used as
    /// warm start.
    prev_r: Option<Matrix>,
    /// Whether `prev_r` came from a successful full solve or warm pass
    /// (not a restore), so [`OnlineEstimator::update_pass`] may run.
    primed: bool,
    /// Number of solves performed.
    updates: u64,
    /// Total sweeps across all solves (for the warm-start speedup
    /// diagnostics).
    total_sweeps: u64,
}

impl OnlineEstimator {
    /// Creates an online estimator completing `window_slots`-high
    /// windows with the given Algorithm-1 configuration.
    ///
    /// The configured `tol` should be positive so warm starts can
    /// actually terminate early; [`CsConfig::default`]'s tolerance works.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when `window_slots` is zero or the
    /// configuration fails [`CsConfig::builder`]'s validation — bad
    /// input is an error here, never a panic.
    pub fn new(config: CsConfig, window_slots: usize) -> Result<Self, Error> {
        if window_slots == 0 {
            return Err(
                ConfigError::new("window_slots", "window must hold at least one slot").into()
            );
        }
        config.validate()?;
        Ok(Self { config, window_slots, prev_r: None, primed: false, updates: 0, total_sweeps: 0 })
    }

    /// Window height this estimator completes.
    pub fn window_slots(&self) -> usize {
        self.window_slots
    }

    /// The cached warm-start segment factors `R̂` of the last successful
    /// solve or pass, if any — the state a service checkpoints so a
    /// restarted process converges in a couple of sweeps instead of a
    /// cold `t = 100`.
    pub fn warm_factors(&self) -> Option<&Matrix> {
        self.prev_r.as_ref()
    }

    /// Restores warm-start factors saved by a previous process (see
    /// [`OnlineEstimator::warm_factors`]). The estimator is left
    /// unprimed: the next solve is a full warm sweep.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when `r`'s column count differs from the
    /// configured rank — factors from a different configuration would
    /// silently mis-seed every subsequent solve.
    pub fn set_warm_factors(&mut self, r: Matrix) -> Result<(), Error> {
        if r.cols() != self.config.rank || r.rows() == 0 {
            return Err(ConfigError::new(
                "warm_factors",
                format!(
                    "shape {}x{} incompatible with rank {}",
                    r.rows(),
                    r.cols(),
                    self.config.rank
                ),
            )
            .into());
        }
        self.prev_r = Some(r);
        self.primed = false;
        Ok(())
    }

    /// The Algorithm-1 configuration in use.
    pub fn config(&self) -> &CsConfig {
        &self.config
    }

    /// Number of completed updates.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Mean ALS sweeps per update — with warm starts this drops well
    /// below the offline iteration budget after the first window.
    pub fn mean_sweeps(&self) -> f64 {
        if self.updates == 0 {
            return 0.0;
        }
        self.total_sweeps as f64 / self.updates as f64
    }

    /// Completes the current window snapshot, warm-starting from the
    /// previous window's factors, and returns the full estimate matrix
    /// (same shape as the window).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::cs::CsError`] as the unified [`enum@Error`];
    /// additionally rejects windows whose height differs from the
    /// configured `window_slots` or whose segment count changed since
    /// the previous update (the factor cache would be meaningless —
    /// call [`OnlineEstimator::reset`] when the segment set changes).
    pub fn update(&mut self, window: &Tcm) -> Result<Matrix, Error> {
        Ok(self.update_detailed(window)?.estimate)
    }

    /// Like [`OnlineEstimator::update`], returning full diagnostics. A
    /// successful solve primes the estimator; a failed one leaves it
    /// unprimed.
    ///
    /// # Errors
    ///
    /// See [`OnlineEstimator::update`].
    pub fn update_detailed(&mut self, window: &Tcm) -> Result<CompletionResult, Error> {
        self.primed = false;
        if window.num_slots() != self.window_slots {
            return Err(ConfigError::new(
                "window",
                format!(
                    "snapshot is {} slots high, estimator expects {}",
                    window.num_slots(),
                    self.window_slots
                ),
            )
            .into());
        }
        if let Some(prev) = &self.prev_r {
            if prev.rows() != window.num_segments() {
                return Err(ConfigError::new(
                    "window",
                    format!(
                        "segment count changed from {} to {}; call reset()",
                        prev.rows(),
                        window.num_segments()
                    ),
                )
                .into());
            }
        }
        let result = match &self.prev_r {
            Some(prev) => complete_matrix_warm(window, &self.config, prev)?,
            None => crate::cs::complete_matrix_detailed(window, &self.config)?,
        };
        self.prev_r = Some(result.factors.1.clone());
        self.primed = true;
        self.updates += 1;
        self.total_sweeps += result.sweeps as u64;
        Ok(result)
    }

    /// Whether [`OnlineEstimator::update_pass`] may run: the warm `R`
    /// came from a successful full solve or pass, and nothing since has
    /// reset, restored or failed.
    pub fn primed(&self) -> bool {
        self.primed
    }

    /// One warm pass of Algorithm 1 over the window `source` holds —
    /// the streaming extension's cheap solve. It solves every `L` row
    /// against the held `R`, then every `R` column against the new `L`
    /// into a spare buffer, and scores the objective (each column's fit
    /// is scored while the `R` step has it gathered). Only if the
    /// objective is finite does it swap the new `R` in and rewrite
    /// `estimate` in place as `L Rᵀ`.
    ///
    /// Both half-steps run [`crate::cs`]'s unit solver, the same one
    /// the full sweep runs, and the objective is the full sweep's too;
    /// each fans out over [`CsConfig::num_threads`] workers (gated like
    /// the full sweep, pricing a gather as a walk of its whole axis), so
    /// the pass is bit-identical at any thread count. A pass re-solves
    /// every unit, `window_slots + num_segments` of them: `L` carries no
    /// state between passes, so the window may have slid since the last
    /// solve.
    ///
    /// Returns the objective. When it is not finite, or a unit solve
    /// fails, `estimate` and the warm `R` are left exactly as they were
    /// and the estimator is unprimed, so the retry is a full warm sweep
    /// from the last good `R`.
    ///
    /// At `Debug` level the pass emits an `online.pass` span whose
    /// `l_step_ms`, `r_step_ms` and `rewrite_ms` fields split its wall
    /// clock into the `L` step, the `R` step (with its fit scoring) and
    /// the `L·Rᵀ` rewrite.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when not primed or the shapes do not match the
    /// primed factors; solver failures surface as [`enum@Error`]
    /// exactly like the full path's, naming the smallest failing row
    /// (`L` step) or column (`R` step).
    pub fn update_pass(
        &mut self,
        source: &dyn ObsSource,
        estimate: &mut Matrix,
    ) -> Result<f64, Error> {
        let outcome = self.pass(source, estimate);
        self.primed = matches!(outcome, Ok(v) if v.is_finite());
        if self.primed {
            self.updates += 1;
            self.total_sweeps += 1;
        }
        outcome
    }

    fn pass(&mut self, source: &dyn ObsSource, estimate: &mut Matrix) -> Result<f64, Error> {
        let (m, n) = source.shape();
        let cfg = &self.config;
        let rank = cfg.rank;
        let r = match &self.prev_r {
            Some(r) if self.primed => r,
            _ => return Err(ConfigError::new("warm_pass", "estimator not primed").into()),
        };
        if m != self.window_slots || r.rows() != n || estimate.shape() != (m, n) {
            let shapes =
                format!("window {m}x{n}, estimate {:?}, R {:?}", estimate.shape(), r.shape());
            return Err(ConfigError::new("warm_pass", shapes + " disagree").into());
        }
        let plan = ThreadPlan::new(m * n, m, n, rank, cfg.num_threads);
        let mut span = telemetry::span(Level::Debug, "online.pass");
        let mut lap = span.is_enabled().then(Instant::now);
        let mut l = Matrix::zeros(m, rank);
        solve_factor(r, source, SolveAxis::Row, cfg, plan.row_solve, &mut l, None)?;
        record_lap(&mut span, &mut lap, "l_step_ms");
        // The R step scores each column's fit while it is gathered.
        let (mut new_r, mut fit) = (Matrix::zeros(n, rank), vec![0.0; n]);
        solve_factor(
            &l,
            source,
            SolveAxis::Column,
            cfg,
            plan.col_solve,
            &mut new_r,
            Some(&mut fit),
        )?;
        let v = objective(&fit, &l, &new_r, cfg.lambda);
        record_lap(&mut span, &mut lap, "r_step_ms");
        if v.is_finite() {
            // Each cell is `l_i · r_j`, bit-identical to the full path's
            // `matmul_transpose_b`.
            let mut rows: Vec<&mut [f64]> = estimate.as_mut_slice().chunks_mut(n).collect();
            let Ok(()) = for_each_unit(
                &mut rows,
                plan.objective,
                || (),
                |i, row, ()| {
                    for (j, cell) in row.iter_mut().enumerate() {
                        *cell = dot(l.row(i), new_r.row(j));
                    }
                    Ok::<(), Infallible>(())
                },
            );
            self.prev_r = Some(new_r);
            record_lap(&mut span, &mut lap, "rewrite_ms");
        }
        Ok(v)
    }

    /// The freshest estimated traffic conditions: the last row of an
    /// update's estimate.
    pub fn latest_row(result: &CompletionResult) -> Vec<f64> {
        let m = result.estimate.rows();
        result.estimate.row(m - 1).to_vec()
    }

    /// Caps the per-solve sweep budget at `cap` (never raises it) — the
    /// sweep half of the serve watchdog: once a window has been solved
    /// cold, warm starts need only a few sweeps, so the service clamps
    /// the budget to bound worst-case latency per tick.
    pub fn limit_iterations(&mut self, cap: usize) {
        if cap >= 1 {
            self.config.iterations = self.config.iterations.min(cap);
        }
    }

    /// Forgets the cached factors (call when the segment set changes).
    pub fn reset(&mut self) {
        self.prev_r = None;
        self.primed = false;
    }
}

/// Records the milliseconds since `lap` started as `key` on `span` and
/// restarts it; a no-op when the span is off (`lap` is `None`).
fn record_lap(span: &mut Span, lap: &mut Option<Instant>, key: &'static str) {
    if let Some(start) = lap {
        span.record(key, start.elapsed().as_secs_f64() * 1e3);
        *start = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs::CsError;
    use crate::metrics::nmae_on_missing;
    use linalg::lstsq::GramScratch;
    use probes::mask::random_mask;
    use rand::SeedableRng;

    /// Rolling low-rank "traffic": daily factor + per-segment coupling.
    fn truth_rows(start_slot: usize, m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |t, s| {
            let abs_t = (start_slot + t) as f64;
            let f = (2.0 * std::f64::consts::PI * abs_t / 24.0).sin();
            30.0 + 3.0 * (s % 5) as f64 + 9.0 * f * (0.6 + 0.05 * s as f64)
        })
    }

    fn window_at(
        start_slot: usize,
        m: usize,
        n: usize,
        integrity: f64,
        seed: u64,
    ) -> (Matrix, Tcm) {
        let truth = truth_rows(start_slot, m, n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mask = random_mask(m, n, integrity, &mut rng);
        let tcm = Tcm::complete(truth.clone()).masked(&mask).unwrap();
        (truth, tcm)
    }

    fn cfg() -> CsConfig {
        CsConfig { rank: 3, lambda: 0.2, tol: 1e-4, iterations: 100, ..CsConfig::default() }
    }

    #[test]
    fn streaming_estimates_track_truth() {
        let mut online = OnlineEstimator::new(cfg(), 24).unwrap();
        for step in 0..6 {
            let (truth, window) = window_at(step * 4, 24, 12, 0.3, 100 + step as u64);
            let result = online.update_detailed(&window).unwrap();
            let err = nmae_on_missing(&truth, &result.estimate, window.indicator());
            assert!(err < 0.12, "step {step}: NMAE {err}");
            let latest = OnlineEstimator::latest_row(&result);
            assert_eq!(latest.len(), 12);
            assert!(latest.iter().all(|v| v.is_finite()));
        }
        assert_eq!(online.updates(), 6);
    }

    #[test]
    fn warm_start_converges_faster() {
        // With a tight sweep budget, warm-starting from the neighbouring
        // window's factors must reach a (much) lower objective than a
        // cold random start — the property that makes the online scheme
        // cheap per slot.
        let budget = CsConfig { iterations: 3, tol: 0.0, ..cfg() };
        let (_, prev) = window_at(0, 24, 12, 0.4, 1);
        let prev_result = crate::cs::complete_matrix_detailed(&prev, &cfg()).unwrap();
        let (_, w) = window_at(1, 24, 12, 0.4, 2);
        let cold = crate::cs::complete_matrix_detailed(&w, &budget).unwrap();
        let warm = complete_matrix_warm(&w, &budget, &prev_result.factors.1).unwrap();
        assert!(
            warm.objective < 0.8 * cold.objective,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        // And the estimator accumulates sweep statistics.
        let mut online = OnlineEstimator::new(budget, 24).unwrap();
        online.update(&w).unwrap();
        assert!(online.mean_sweeps() > 0.0);
        assert_eq!(online.updates(), 1);
    }

    #[test]
    fn warm_quality_matches_cold() {
        let (truth, window) = window_at(10, 24, 12, 0.3, 7);
        // Cold solve.
        let cold = crate::cs::complete_matrix_detailed(&window, &cfg()).unwrap();
        // Warm solve from a neighbouring window's factors.
        let (_, prev) = window_at(9, 24, 12, 0.3, 6);
        let prev_result = crate::cs::complete_matrix_detailed(&prev, &cfg()).unwrap();
        let warm = complete_matrix_warm(&window, &cfg(), &prev_result.factors.1).unwrap();
        let cold_err = nmae_on_missing(&truth, &cold.estimate, window.indicator());
        let warm_err = nmae_on_missing(&truth, &warm.estimate, window.indicator());
        assert!(warm_err < cold_err + 0.02, "warm {warm_err} vs cold {cold_err}");
    }

    #[test]
    fn constructor_and_factor_restore_validate_input() {
        use crate::error::Error;
        // Bad inputs are errors, never panics.
        assert!(matches!(OnlineEstimator::new(cfg(), 0), Err(Error::Config(_))));
        let bad = CsConfig { rank: 0, ..cfg() };
        assert!(matches!(OnlineEstimator::new(bad, 24), Err(Error::Config(_))));
        // Warm-factor round trip through the checkpoint accessors.
        let mut online = OnlineEstimator::new(cfg(), 24).unwrap();
        assert!(online.warm_factors().is_none());
        let (_, w) = window_at(0, 24, 12, 0.4, 11);
        online.update(&w).unwrap();
        let saved = online.warm_factors().unwrap().clone();
        let mut fresh = OnlineEstimator::new(cfg(), 24).unwrap();
        fresh.set_warm_factors(saved).unwrap();
        assert_eq!(fresh.warm_factors(), online.warm_factors());
        // Factors with the wrong rank are rejected.
        assert!(fresh.set_warm_factors(Matrix::zeros(12, 7)).is_err());
    }

    #[test]
    fn wrong_window_height_rejected() {
        let mut online = OnlineEstimator::new(cfg(), 24).unwrap();
        let (_, w) = window_at(0, 12, 8, 0.5, 2);
        assert!(online.update(&w).is_err());
    }

    #[test]
    fn segment_count_change_requires_reset() {
        let mut online = OnlineEstimator::new(cfg(), 24).unwrap();
        let (_, w12) = window_at(0, 24, 12, 0.4, 3);
        online.update(&w12).unwrap();
        let (_, w8) = window_at(1, 24, 8, 0.4, 4);
        assert!(online.update(&w8).is_err(), "stale factors must be rejected");
        online.reset();
        assert!(online.update(&w8).is_ok());
    }

    #[test]
    fn warm_start_shape_validated() {
        let (_, w) = window_at(0, 24, 12, 0.4, 5);
        let bad_r = Matrix::zeros(5, 3);
        assert!(complete_matrix_warm(&w, &cfg(), &bad_r).is_err());
    }

    #[test]
    fn end_to_end_with_streaming_tcm() {
        // Drive the estimator from probes::stream::StreamingTcm — the
        // full online pipeline of the paper's future-work sketch.
        use probes::stream::StreamingTcm;
        let n = 10;
        let mut stream = StreamingTcm::new(0, 60, 24, n).unwrap();
        let mut online = OnlineEstimator::new(cfg(), 24).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        use rand::RngExt;
        let mut last_err = None;
        for slot in 0..48usize {
            let truth_row = truth_rows(slot, 1, n);
            // A few random probes per slot.
            for _ in 0..6 {
                let seg = rng.random_range(0..n);
                let speed = truth_row.get(0, seg) * rng.random_range(0.95..1.05);
                stream.observe(slot as u64 * 60 + rng.random_range(0..60u64), seg, speed).unwrap();
            }
            if slot >= 23 {
                let window = stream.snapshot();
                let result = online.update_detailed(&window).unwrap();
                // Compare against the rolling truth for this window.
                let truth = truth_rows(slot + 1 - 24, 24, n);
                let err = nmae_on_missing(&truth, &result.estimate, window.indicator());
                last_err = Some(err);
            }
        }
        let err = last_err.expect("at least one online update ran");
        assert!(err < 0.15, "online pipeline NMAE {err}");
    }

    /// Streaming fixture for the warm-pass tests: a 6-slot, 10-segment
    /// window pre-filled with deterministic reports.
    fn small_stream() -> probes::stream::StreamingTcm {
        use probes::stream::StreamingTcm;
        let (m, n) = (6usize, 10usize);
        let mut stream = StreamingTcm::new(0, 60, m, n).unwrap();
        for slot in 0..m {
            for k in 0..7usize {
                let seg = (slot * 3 + k * 2) % n;
                let speed = 25.0 + (slot * n + seg) as f64 * 0.5 + k as f64;
                stream.observe(slot as u64 * 60 + k as u64, seg, speed).unwrap();
            }
        }
        stream
    }

    /// Round `round` of the warm-pass tests: a few in-window updates
    /// plus, on odd rounds, a report one slot past the head so the
    /// window slides.
    fn mutate_round(stream: &mut probes::stream::StreamingTcm, round: usize) {
        let n = stream.num_segments();
        let m = stream.window_slots();
        if round % 2 == 1 {
            let slot = stream.head_slot() + 1;
            stream.observe(slot as u64 * 60, (round * 3) % n, 40.0 + round as f64).unwrap();
        }
        for k in 0..3usize {
            let row = (round + k * 2) % (m - 1);
            let seg = (round * 5 + k * 3) % n;
            let ts = (stream.tail_slot() + row) as u64 * 60 + 30;
            stream.observe(ts, seg, 31.0 + (round + k) as f64).unwrap();
        }
    }

    #[test]
    fn warm_pass_guards_and_priming() {
        let stream = small_stream();
        let (m, n) = (stream.window_slots(), stream.num_segments());
        let mut estimate = Matrix::zeros(m, n);
        // Not primed → config error, and nothing is touched.
        let mut online = OnlineEstimator::new(cfg(), m).unwrap();
        assert!(!online.primed());
        assert!(matches!(online.update_pass(&stream, &mut estimate), Err(Error::Config(_))));
        assert_eq!(estimate, Matrix::zeros(m, n));
        // A successful full solve primes it; a pass keeps it primed.
        let mut estimate = online.update_detailed(&stream.snapshot()).unwrap().estimate;
        assert!(online.primed());
        assert!(online.update_pass(&stream, &mut estimate).unwrap().is_finite());
        assert!(online.primed());
        assert_eq!(online.updates(), 2);
        // An estimate of the wrong shape is rejected and unprimes.
        let mut wrong = Matrix::zeros(m, n + 1);
        assert!(matches!(online.update_pass(&stream, &mut wrong), Err(Error::Config(_))));
        assert!(!online.primed());
        // Restoring checkpoint factors unprimes, as does reset().
        let mut restored = OnlineEstimator::new(cfg(), m).unwrap();
        restored.update_detailed(&stream.snapshot()).unwrap();
        let saved = restored.warm_factors().unwrap().clone();
        restored.set_warm_factors(saved).unwrap();
        assert!(!restored.primed());
        restored.update_detailed(&stream.snapshot()).unwrap();
        restored.reset();
        assert!(!restored.primed());
        assert!(restored.warm_factors().is_none());
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A 16 × 2,048 window with about one cell in four observed. At rank
    /// 8 every fan-out of a warm pass over it clears the work gate, so
    /// with `num_threads > 1` the workers really run.
    fn wide_sparse_stream() -> probes::stream::StreamingTcm {
        let (m, n) = (16usize, 2048usize);
        let mut stream = probes::stream::StreamingTcm::new(0, 60, m, n).unwrap();
        for slot in 0..m {
            let f = (2.0 * std::f64::consts::PI * slot as f64 / 24.0).sin();
            for seg in 0..n {
                if ((slot * n + seg).wrapping_mul(2_654_435_761) >> 7) % 4 == 0 {
                    let speed = 30.0 + (seg % 11) as f64 + 6.0 * f * (1.0 + (seg % 7) as f64 / 7.0);
                    stream.observe((slot * 60 + seg % 60) as u64, seg, speed).unwrap();
                }
            }
        }
        stream
    }

    fn wide_cfg(threads: usize) -> CsConfig {
        CsConfig {
            rank: 8,
            lambda: 0.1,
            tol: 1e-4,
            iterations: 20,
            num_threads: threads,
            ..CsConfig::default()
        }
    }

    /// One warm pass done the plain sequential way with the Gram kernel:
    /// every row against `r`, every column against the new `L`, the
    /// objective's per-column fit partials in column order, then
    /// `L·Rᵀ`. Returns `(new R, objective, estimate)`.
    fn sequential_pass(
        source: &dyn ObsSource,
        r: &Matrix,
        cfg: &CsConfig,
    ) -> (Matrix, f64, Matrix) {
        let (m, n) = source.shape();
        let mut gram = GramScratch::new(cfg.rank);
        let (mut idx, mut val) = (vec![0; m.max(n)], vec![0.0; m.max(n)]);
        let mut l = Matrix::zeros(m, cfg.rank);
        for i in 0..m {
            let len = source.gather_row(i, &mut idx, &mut val);
            gram.solve_ridge_rows(r, &idx[..len], &val[..len], cfg.lambda, l.row_mut(i)).unwrap();
        }
        let mut new_r = Matrix::zeros(n, cfg.rank);
        let mut fit = Vec::with_capacity(n);
        for j in 0..n {
            let len = source.gather_col(j, &mut idx, &mut val);
            let (idx, val) = (&idx[..len], &val[..len]);
            gram.solve_ridge_rows(&l, idx, val, cfg.lambda, new_r.row_mut(j)).unwrap();
            let mut partial = 0.0;
            for (&i, &v) in idx.iter().zip(val) {
                let pred: f64 =
                    (0..cfg.rank).fold(0.0, |acc, k| acc + l.get(i as usize, k) * new_r.get(j, k));
                partial += (pred - v) * (pred - v);
            }
            fit.push(partial);
        }
        let fit: f64 = fit.iter().sum();
        let objective = fit + cfg.lambda * (l.frobenius_norm_sq() + new_r.frobenius_norm_sq());
        let estimate = l.matmul_transpose_b(&new_r).unwrap();
        (new_r, objective, estimate)
    }

    #[test]
    fn warm_pass_matches_a_sequential_reference() {
        // Primed from a full solve, then mutated round by round (every
        // other round slides the window): each pass must leave the warm
        // R, the objective and the estimate bit-identical to the
        // sequential reference run from the previous R — so the estimate
        // is always exactly L·Rᵀ of the pass's factors — at 1, 2 and 8
        // threads, on a small window and on one wide enough to start
        // workers.
        for threads in [1usize, 2, 8] {
            let small = (small_stream(), CsConfig { num_threads: threads, ..cfg() }, 6);
            for (mut stream, cfg, rounds) in [small, (wide_sparse_stream(), wide_cfg(threads), 4)] {
                let mut online = OnlineEstimator::new(cfg.clone(), stream.window_slots()).unwrap();
                let mut estimate = online.update_detailed(&stream.snapshot()).unwrap().estimate;
                for round in 0..rounds {
                    mutate_round(&mut stream, round);
                    let prev_r = online.warm_factors().unwrap().clone();
                    let (want_r, want_objective, want_estimate) =
                        sequential_pass(&stream, &prev_r, &cfg);
                    let objective = online.update_pass(&stream, &mut estimate).unwrap();
                    let at = format!(
                        "{}x{} threads={threads} round {round}",
                        stream.window_slots(),
                        stream.num_segments()
                    );
                    assert_eq!(objective.to_bits(), want_objective.to_bits(), "{at}: objective");
                    assert!(
                        bits(online.warm_factors().unwrap().as_slice()) == bits(want_r.as_slice()),
                        "{at}: R diverged"
                    );
                    assert!(
                        bits(estimate.as_slice()) == bits(want_estimate.as_slice()),
                        "{at}: estimate diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn warm_pass_is_thread_invariant_on_a_wide_sparse_window() {
        // Primed from a full solve, then mutated for four rounds (two of
        // them slide the window): R, the estimate and the objective must
        // agree bit for bit at 1, 2 and 8 threads.
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut stream = wide_sparse_stream();
            let mut online =
                OnlineEstimator::new(wide_cfg(threads), stream.window_slots()).unwrap();
            let mut estimate = online.update_detailed(&stream.snapshot()).unwrap().estimate;
            let mut rounds = Vec::new();
            for round in 0..4 {
                mutate_round(&mut stream, round);
                let objective = online.update_pass(&stream, &mut estimate).unwrap();
                rounds.push((
                    bits(online.warm_factors().unwrap().as_slice()),
                    bits(estimate.as_slice()),
                    objective.to_bits(),
                ));
            }
            runs.push((threads, rounds));
        }
        let (_, reference) = &runs[0];
        for (threads, rounds) in &runs[1..] {
            for (round, (a, b)) in reference.iter().zip(rounds).enumerate() {
                assert!(a.0 == b.0, "threads={threads} round {round}: R diverged");
                assert!(a.1 == b.1, "threads={threads} round {round}: estimate diverged");
                assert_eq!(a.2, b.2, "threads={threads} round {round}: objective diverged");
            }
        }
    }

    #[test]
    fn non_finite_warm_pass_leaves_estimate_and_factors_untouched() {
        // Two 1e308 km/h observations pass the window's own rule (finite,
        // non-negative) but overflow their cell's sum to +inf, so the
        // pass's objective is not finite: the estimate and the warm R
        // must stay bit-identical and the estimator must unprime, so the
        // retry is a full warm sweep. (The service's admission ceiling
        // keeps such reports out of its window.)
        let mut stream = small_stream();
        let mut online = OnlineEstimator::new(cfg(), stream.window_slots()).unwrap();
        let mut estimate = online.update_detailed(&stream.snapshot()).unwrap().estimate;
        for k in 0..2 {
            stream.observe(3 * 60 + k, 4, 1e308).unwrap();
        }
        let (r_before, estimate_before) =
            (online.warm_factors().unwrap().clone(), estimate.clone());
        let objective = online.update_pass(&stream, &mut estimate).unwrap();
        assert!(!objective.is_finite(), "objective {objective}");
        assert!(bits(estimate.as_slice()) == bits(estimate_before.as_slice()), "estimate moved");
        assert!(bits(online.warm_factors().unwrap().as_slice()) == bits(r_before.as_slice()));
        assert!(!online.primed(), "a non-finite pass must unprime");
        assert_eq!(online.updates(), 1, "a non-finite pass is not an update");
    }

    #[test]
    fn warm_pass_reports_the_smallest_failing_column_at_any_thread_count() {
        // λ = 0 leaves a column with fewer observations than the rank a
        // singular ridge system. Against hand-built factors several
        // columns fail; the error must name the smallest of them, and
        // the failed pass must leave R and the estimate untouched.
        let rank = 8;
        let stream = wide_sparse_stream();
        let (m, n) = (stream.window_slots(), stream.num_segments());
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let l = Matrix::random_uniform(m, rank, &mut rng, 0.0, 1.0);
        let r = Matrix::random_uniform(n, rank, &mut rng, 0.0, 1.0);
        // Sequential reference: the pass's L step, then the first column
        // whose solve against the new L fails.
        let mut gram = GramScratch::new(rank);
        let (mut idx, mut val) = (vec![0; n], vec![0.0; n]);
        let mut new_l = Matrix::zeros(m, rank);
        for i in 0..m {
            let len = stream.gather_row(i, &mut idx, &mut val);
            gram.solve_ridge_rows(&r, &idx[..len], &val[..len], 0.0, new_l.row_mut(i)).unwrap();
        }
        let mut out = vec![0.0; rank];
        let failing: Vec<usize> = (0..n)
            .filter(|&j| {
                let len = stream.gather_col(j, &mut idx, &mut val);
                gram.solve_ridge_rows(&new_l, &idx[..len], &val[..len], 0.0, &mut out).is_err()
            })
            .collect();
        assert!(failing.len() > 1, "{} columns fail at lambda 0", failing.len());
        for threads in [1usize, 2, 8] {
            let cfg = CsConfig { rank, lambda: 0.0, num_threads: threads, ..CsConfig::default() };
            let mut online = OnlineEstimator::new(cfg, m).unwrap();
            // A full solve cannot prime at λ = 0 here, so seed the state
            // a successful one would leave.
            online.prev_r = Some(r.clone());
            online.primed = true;
            let before = l.matmul_transpose_b(&r).unwrap();
            let mut estimate = before.clone();
            let err = online.update_pass(&stream, &mut estimate).unwrap_err();
            match err {
                Error::Cs(CsError::Solve { axis: SolveAxis::Column, index, .. }) => {
                    assert_eq!(index, failing[0], "threads={threads}");
                }
                other => panic!("threads={threads}: expected a column solve error, got {other}"),
            }
            assert!(!online.primed(), "threads={threads}: a failed pass must unprime");
            assert!(bits(online.warm_factors().unwrap().as_slice()) == bits(r.as_slice()));
            assert!(bits(estimate.as_slice()) == bits(before.as_slice()));
        }
    }
}
