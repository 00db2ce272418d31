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
//! * the caller reads the freshest row of the estimate as the live
//!   traffic map.
//!
//! The data-plane companion (ingesting raw probe observations into the
//! sliding window) is `probes::stream::StreamingTcm`.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cs::{
    complete_matrix_warm, gate_threads, solve_work, CompletionResult, CsConfig, CsError, SolveAxis,
};
use crate::error::{ConfigError, Error};
use crate::obs::ObsSource;
use crate::service::set_bits;
use linalg::lstsq::GramScratch;
use linalg::Matrix;
use probes::Tcm;

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
    /// Segment factors of the previous solve, used as warm start.
    prev_r: Option<Matrix>,
    /// Number of solves performed.
    updates: u64,
    /// Total sweeps across all solves (for the warm-start speedup
    /// diagnostics).
    total_sweeps: u64,
    /// Cached factor state for the incremental dirty-set solve path;
    /// `None` until [`OnlineEstimator::prime_incremental`] runs after a
    /// full solve.
    delta: Option<DeltaState>,
}

/// Outcome of one [`OnlineEstimator::update_incremental`] delta pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalOutcome {
    /// Ridge objective (Eq. 16) of the updated factors. Computed from
    /// cached per-column fit and per-row norm partials; numerically the
    /// same quantity as the full sweep's objective but accumulated
    /// per-row, so the two can differ in the last ulps.
    pub objective: f64,
    /// Factor units (`L` rows plus `R` columns) actually re-solved.
    pub rows_resolved: usize,
}

/// Everything the incremental path caches between delta passes: the
/// current factor pair, the objective bookkeeping that lets a pass
/// re-score only re-solved units, and the carry-forward dirty rows.
///
/// The invariant the pass preserves (and the dirty-set pruning relies
/// on): every `L` row not in `pending_rows` satisfies
/// `l[i] == ridge(r, obs_row(i))` bit-for-bit — true after a full solve
/// (the best iterate's `L` step ran against its `R`), and maintained by
/// marking every row observed in a changed `R` column as pending.
#[derive(Debug, Clone)]
struct DeltaState {
    /// Absolute head slot the cached state corresponds to.
    head_slot: usize,
    /// Slot factors, `window_slots × rank`.
    l: Matrix,
    /// Segment factors, `num_segments × rank`.
    r: Matrix,
    /// Per-column Σ(pred − v)² over that column's observed entries, in
    /// ascending row order — the same per-column partials the full
    /// sweep's fused objective reduces in column order.
    fit_cols: Vec<f64>,
    /// Per-row ‖l_i‖² partials of the `L` regularizer term.
    l_row_norms: Vec<f64>,
    /// Per-row ‖r_j‖² partials of the `R` regularizer term.
    r_row_norms: Vec<f64>,
    /// Rows whose cached `L` is stale because a previous pass changed an
    /// `R` column they observe; re-solved by the next pass regardless of
    /// data dirt. Sorted ascending.
    pending_rows: Vec<usize>,
}

/// `Σ v²` of one factor row, the per-row regularizer partial.
fn row_norm_sq(row: &[f64]) -> f64 {
    row.iter().map(|v| v * v).sum()
}

/// `Σ (pred − v)²` over one column's observed entries (`rows`
/// ascending) under `l` and the column's factor row `r_row` — the
/// per-column partial the full sweep's fused objective reduces in
/// column order.
fn column_fit(l: &Matrix, r_row: &[f64], rows: &[u32], vals: &[f64]) -> f64 {
    let mut partial = 0.0;
    for (&i, &v) in rows.iter().zip(vals) {
        let pred = dot_lr(l.row(i as usize), r_row);
        partial += (pred - v) * (pred - v);
    }
    partial
}

/// A zeroed `len`-bit set that workers mark concurrently.
fn atomic_bits(len: usize) -> Vec<AtomicU64> {
    (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect()
}

/// Sets the bits named by `ids` (ascending), one `fetch_or` per touched
/// word. OR commutes, so the final set is the same at any thread count
/// and schedule. `Relaxed` suffices: the bits publish no other data,
/// and the fan-out's join orders every mark before the fold reads them.
fn mark_bits(bits: &[AtomicU64], ids: &[u32]) {
    let flush = |word: usize, mask: u64| {
        if mask != 0 {
            bits[word].fetch_or(mask, Ordering::Relaxed);
        }
    };
    let (mut word, mut mask) = (0, 0u64);
    for &k in ids {
        if k as usize / 64 != word {
            flush(word, mask);
            (word, mask) = (k as usize / 64, 0);
        }
        mask |= 1 << (k % 64);
    }
    flush(word, mask);
}

/// One factor unit a delta pass re-solves. The worker that claims it
/// overwrites `row` — the unit's row of the cached factor matrix — only
/// when the new solution differs in some bit, and leaves the rest for
/// the ascending fold.
struct UnitSlot<'a> {
    index: usize,
    row: &'a mut [f64],
    changed: bool,
    /// The column's fit partial under the final factors (`R` step only).
    fit: f64,
}

/// Slots for `units` (ascending, in range) over the rows of `factors`.
fn unit_slots<'a>(factors: &'a mut Matrix, units: &[usize]) -> Vec<UnitSlot<'a>> {
    let rank = factors.cols();
    let mut rows = factors.as_mut_slice().chunks_mut(rank).enumerate();
    units
        .iter()
        .map(|&u| {
            let (_, row) = rows.find(|&(k, _)| k == u).expect("units ascending and in range");
            UnitSlot { index: u, row, changed: false, fit: 0.0 }
        })
        .collect()
}

/// Per-worker buffers of a delta-pass fan-out: one unit's gathered
/// observations, its candidate solution and the Gram kernel scratch.
struct UnitScratch {
    idx: Vec<u32>,
    val: Vec<f64>,
    cand: Vec<f64>,
    gram: GramScratch,
}

/// Re-solves every unit of `slots` on `axis` against `design` (the
/// other axis' factors) across up to `num_threads` workers. A worker
/// whose solution changes a unit's bits writes it and marks the unit's
/// observed indices in `marks` — the units on the other axis the change
/// propagates to. Column units are also re-scored under their final row
/// and `design` (`L`). A failure reports the smallest failing unit, as
/// the sequential loop would: blocks run their units in ascending order
/// and stop at the first failure, and the pool reports the smallest
/// failing block.
fn resolve_units(
    source: &dyn ObsSource,
    axis: SolveAxis,
    design: &Matrix,
    lambda: f64,
    num_threads: usize,
    slots: &mut [UnitSlot<'_>],
    marks: &[AtomicU64],
) -> Result<(), CsError> {
    let rank = design.cols();
    // Gated like the full sweep's solves. Gathering a unit walks its
    // whole axis, which stands in for the observed entries the gate
    // prices.
    let (m, n) = source.shape();
    let walk = if axis == SolveAxis::Row { n } else { m };
    let work = solve_work(slots.len() * walk, slots.len(), rank);
    // Workers claim blocks of ⌊√units⌋ units, not single units: a claim
    // per unit made the shared claim cursor and neighbouring slots'
    // cache lines bounce between workers, while ~√units blocks still
    // leave enough claims to balance the load.
    let mut blocks: Vec<&mut [UnitSlot<'_>]> =
        slots.chunks_mut(slots.len().isqrt().max(1)).collect();
    workpool::try_parallel_for_each_mut_with(
        &mut blocks,
        gate_threads(work, num_threads),
        || UnitScratch {
            idx: Vec::new(),
            val: Vec::new(),
            cand: vec![0.0; rank],
            gram: GramScratch::new(rank),
        },
        |_, block, w| {
            for slot in block.iter_mut() {
                match axis {
                    SolveAxis::Row => source.gather_row(slot.index, &mut w.idx, &mut w.val),
                    SolveAxis::Column => source.gather_col(slot.index, &mut w.idx, &mut w.val),
                }
                w.gram.solve_ridge_rows(design, &w.idx, &w.val, lambda, &mut w.cand).map_err(
                    |e| CsError::Solve { axis, index: slot.index, detail: e.to_string() },
                )?;
                if slot.row.iter().zip(&w.cand).any(|(a, b)| a.to_bits() != b.to_bits()) {
                    slot.row.copy_from_slice(&w.cand);
                    slot.changed = true;
                    mark_bits(marks, &w.idx);
                }
                if axis == SolveAxis::Column {
                    slot.fit = column_fit(design, slot.row, &w.idx, &w.val);
                }
            }
            Ok(())
        },
    )
}

/// `l_row · r_row` with ascending-`k` accumulation — the exact inner
/// loop of both [`Matrix::matmul_transpose_b`] (the full path's
/// `L Rᵀ` estimate) and the fused objective, so estimate cells written
/// incrementally carry the same bits the full recompute would produce.
fn dot_lr(l_row: &[f64], r_row: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (a, b) in l_row.iter().zip(r_row) {
        acc += a * b;
    }
    acc
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
        Ok(Self { config, window_slots, prev_r: None, updates: 0, total_sweeps: 0, delta: None })
    }

    /// Window height this estimator completes.
    pub fn window_slots(&self) -> usize {
        self.window_slots
    }

    /// The cached warm-start segment factors `R̂` of the previous solve,
    /// if any — the state a service checkpoints so a restarted process
    /// converges in a couple of sweeps instead of a cold `t = 100`.
    /// When the incremental path is primed, its (fresher) segment
    /// factors take precedence over the last full solve's.
    pub fn warm_factors(&self) -> Option<&Matrix> {
        self.delta.as_ref().map(|d| &d.r).or(self.prev_r.as_ref())
    }

    /// Restores warm-start factors saved by a previous process (see
    /// [`OnlineEstimator::warm_factors`]).
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
        // Restored factors describe a different trajectory than the
        // cached incremental state; drop it rather than mix the two.
        self.delta = None;
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

    /// Like [`OnlineEstimator::update`], returning full diagnostics.
    ///
    /// # Errors
    ///
    /// See [`OnlineEstimator::update`].
    pub fn update_detailed(&mut self, window: &Tcm) -> Result<CompletionResult, Error> {
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
        // A full sweep consumes the incremental state: warm-start from
        // its segment factors when present (they are fresher than the
        // last full solve's), then let the caller re-prime from this
        // solve's result.
        let delta_r = self.delta.take().map(|d| d.r);
        let warm = delta_r.as_ref().or(self.prev_r.as_ref());
        if let Some(prev) = warm {
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
        let result = match warm {
            Some(prev) => complete_matrix_warm(window, &self.config, prev)?,
            None => crate::cs::complete_matrix_detailed(window, &self.config)?,
        };
        self.prev_r = Some(result.factors.1.clone());
        self.updates += 1;
        self.total_sweeps += result.sweeps as u64;
        Ok(result)
    }

    /// Whether the incremental delta path is primed (a full solve ran
    /// and [`OnlineEstimator::prime_incremental`] cached its factors).
    pub fn incremental_primed(&self) -> bool {
        self.delta.is_some()
    }

    /// Absolute head slot the cached incremental state corresponds to,
    /// when primed — the service uses it to bound how far the window may
    /// slide before the delta pass must give way to a full sweep.
    pub fn incremental_head_slot(&self) -> Option<usize> {
        self.delta.as_ref().map(|d| d.head_slot)
    }

    /// Caches a full solve's factor pair (`l`: `window_slots × rank`,
    /// `r`: `num_segments × rank`) plus the objective bookkeeping the
    /// dirty-set delta passes need. Call right after a successful
    /// [`OnlineEstimator::update_detailed`] whose window headed at
    /// `head_slot` and whose observations `source` still describes.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when the factor shapes do not match `source`'s
    /// shape and the configured rank.
    pub fn prime_incremental(
        &mut self,
        source: &dyn ObsSource,
        head_slot: usize,
        l: &Matrix,
        r: &Matrix,
    ) -> Result<(), Error> {
        let (m, n) = source.shape();
        let rank = self.config.rank;
        if m != self.window_slots || l.shape() != (m, rank) || r.shape() != (n, rank) {
            return Err(ConfigError::new(
                "incremental",
                format!(
                    "factor shapes {}x{} / {}x{} incompatible with {}x{} window at rank {rank}",
                    l.rows(),
                    l.cols(),
                    r.rows(),
                    r.cols(),
                    self.window_slots,
                    n
                ),
            )
            .into());
        }
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        let fit_cols = (0..n)
            .map(|j| {
                source.gather_col(j, &mut idx, &mut val);
                column_fit(l, r.row(j), &idx, &val)
            })
            .collect();
        let l_row_norms = (0..m).map(|i| row_norm_sq(l.row(i))).collect();
        let r_row_norms = (0..n).map(|j| row_norm_sq(r.row(j))).collect();
        self.delta = Some(DeltaState {
            head_slot,
            l: l.clone(),
            r: r.clone(),
            fit_cols,
            l_row_norms,
            r_row_norms,
            pending_rows: Vec::new(),
        });
        Ok(())
    }

    /// One O(delta) pass over the dirty set: re-solves the dirty `L`
    /// rows against the cached `R`, then the dirty `R` columns (the
    /// given ones plus every column observed in an `L` row whose bits
    /// changed) against the new `L`, updating `estimate` in place so it
    /// stays exactly `L Rᵀ` of the updated factors.
    ///
    /// `dirty_rows` are window-relative row indices and `dirty_cols`
    /// segment columns, both sorted ascending, describing every cell
    /// whose content changed since the state was primed (or since the
    /// previous delta pass) — including cells that left the window:
    /// `head_slot` may have advanced, in which case the cached state and
    /// `estimate` are shifted and the newly-entered bottom rows re-solved.
    ///
    /// Each unit solve runs the same [`GramScratch::solve_ridge_rows`]
    /// entry point as the full sweep, so a re-solved unit's bits equal
    /// what a full sweep in the same position would produce.
    ///
    /// The dirty set is small, but propagation is not: every `L` row
    /// whose bits change drags in every column it observes. On a sparse
    /// wide window (8,192 segments × 16 slots at ~25% integrity) a tick
    /// of 400 reports re-solves ~8,114 of the 8,208 units. So the `L`
    /// step, the `R` step and the estimate update each fan out over
    /// [`CsConfig::num_threads`] workers, gated like the full sweep's
    /// solves. Each worker writes only the rows of the units it claims
    /// and ORs the units they propagate to into a shared bitset; norms,
    /// fit partials and the changed-unit lists are then folded in
    /// ascending unit order. The result is bit-identical at any thread
    /// count, and a failing solve reports the smallest failing row (`L`
    /// step) or column (`R` step).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when not primed, shapes mismatch, or the window
    /// slid backwards / past the cached state; solver failures surface
    /// as [`enum@Error`] exactly like the full path's. On error the
    /// cached state is dropped — the next solve must be a full sweep.
    pub fn update_incremental(
        &mut self,
        source: &dyn ObsSource,
        head_slot: usize,
        dirty_rows: &[usize],
        dirty_cols: &[u32],
        estimate: &mut Matrix,
    ) -> Result<IncrementalOutcome, Error> {
        match self.delta_pass(source, head_slot, dirty_rows, dirty_cols, estimate) {
            Ok(outcome) => {
                self.updates += 1;
                self.total_sweeps += 1;
                Ok(outcome)
            }
            Err(e) => {
                self.delta = None;
                Err(e)
            }
        }
    }

    fn delta_pass(
        &mut self,
        source: &dyn ObsSource,
        head_slot: usize,
        dirty_rows: &[usize],
        dirty_cols: &[u32],
        estimate: &mut Matrix,
    ) -> Result<IncrementalOutcome, Error> {
        let (m, n) = source.shape();
        let rank = self.config.rank;
        let lambda = self.config.lambda;
        let not_primed = || ConfigError::new("incremental", "delta state not primed");
        let state = self.delta.as_mut().ok_or_else(not_primed)?;
        if m != state.l.rows() || n != state.r.rows() || estimate.shape() != (m, n) {
            return Err(ConfigError::new(
                "incremental",
                format!(
                    "shape changed under the delta state: window {m}x{n}, estimate {}x{}",
                    estimate.rows(),
                    estimate.cols()
                ),
            )
            .into());
        }
        let shift = head_slot.checked_sub(state.head_slot).ok_or_else(|| {
            ConfigError::new("incremental", "window head moved backwards since priming")
        })?;
        if shift >= m {
            return Err(ConfigError::new(
                "incremental",
                "window advanced past the cached state; run a full sweep",
            )
            .into());
        }
        let DeltaState {
            head_slot: state_head,
            l,
            r,
            fit_cols,
            l_row_norms,
            r_row_norms,
            pending_rows,
        } = state;
        if shift > 0 {
            // Slide the cached state with the window: surviving slots
            // keep their factor rows (same content, new row index), the
            // newly-entered bottom rows start from zero and are
            // re-solved below.
            l.as_mut_slice().copy_within(shift * rank.., 0);
            l.as_mut_slice()[(m - shift) * rank..].fill(0.0);
            estimate.as_mut_slice().copy_within(shift * n.., 0);
            l_row_norms.copy_within(shift.., 0);
            l_row_norms[m - shift..].fill(0.0);
            pending_rows.retain_mut(|i| match i.checked_sub(shift) {
                Some(v) => {
                    *i = v;
                    true
                }
                None => false,
            });
            *state_head = head_slot;
        }
        let threads = self.config.num_threads;
        // L step: dirty rows, carried-over pending rows, and the rows
        // that just entered the window, against the cached R. Columns
        // observing a changed row see a changed design matrix, so their
        // ridge solutions must be refreshed: the workers mark them.
        let mut rows_to_solve: Vec<usize> =
            Vec::with_capacity(dirty_rows.len() + pending_rows.len() + shift);
        rows_to_solve.extend_from_slice(dirty_rows);
        rows_to_solve.extend_from_slice(pending_rows);
        rows_to_solve.extend(m - shift..m);
        rows_to_solve.sort_unstable();
        rows_to_solve.dedup();
        if rows_to_solve.last().is_some_and(|&i| i >= m) {
            return Err(ConfigError::new("incremental", "dirty row out of range").into());
        }
        let col_marks = atomic_bits(n);
        let mut slots = unit_slots(l, &rows_to_solve);
        resolve_units(source, SolveAxis::Row, r, lambda, threads, &mut slots, &col_marks)?;
        // Estimate rows to recompute in full: rows whose L changed and
        // the rows that just entered the window.
        let mut full_rows = vec![false; m];
        full_rows[m - shift..].fill(true);
        for slot in slots.iter().filter(|s| s.changed) {
            l_row_norms[slot.index] = row_norm_sq(slot.row);
            full_rows[slot.index] = true;
        }
        // R step against the updated L, over the marked columns plus
        // the dirty ones, ascending. The L rows observed in a changed
        // column are now stale relative to R; the workers mark them
        // pending for the next pass.
        if dirty_cols.iter().any(|&j| j as usize >= n) {
            return Err(ConfigError::new("incremental", "dirty column out of range").into());
        }
        let mut col_words: Vec<u64> = col_marks.into_iter().map(AtomicU64::into_inner).collect();
        for &j in dirty_cols {
            col_words[j as usize / 64] |= 1 << (j % 64);
        }
        let cols_to_solve: Vec<usize> = set_bits(&col_words).collect();
        let row_marks = atomic_bits(m);
        let mut slots = unit_slots(r, &cols_to_solve);
        resolve_units(source, SolveAxis::Column, l, lambda, threads, &mut slots, &row_marks)?;
        let mut changed_cols: Vec<usize> = Vec::new();
        for slot in &slots {
            fit_cols[slot.index] = slot.fit;
            if slot.changed {
                r_row_norms[slot.index] = row_norm_sq(slot.row);
                changed_cols.push(slot.index);
            }
        }
        let row_words: Vec<u64> = row_marks.into_iter().map(AtomicU64::into_inner).collect();
        *pending_rows = set_bits(&row_words).collect();
        // Estimate maintenance, each cell written once, row by row: a
        // full row recomputes all n cells, any other row only its
        // changed columns. Every cell is l_i · r_j — bit-identical to
        // the full path's `matmul_transpose_b`; untouched cells keep
        // bits that already equal that product.
        let (l, r) = (&*l, &*r);
        let full = full_rows.iter().filter(|&&f| f).count();
        let cells = full * n + (m - full) * changed_cols.len();
        // `max(1)`: a zero-width window has no cells to chunk.
        let mut est_rows: Vec<&mut [f64]> = estimate.as_mut_slice().chunks_mut(n.max(1)).collect();
        let Ok(()) = workpool::try_parallel_for_each_mut(
            &mut est_rows,
            gate_threads(cells * rank, threads),
            |i, row| {
                let l_row = l.row(i);
                if full_rows[i] {
                    for (j, cell) in row.iter_mut().enumerate() {
                        *cell = dot_lr(l_row, r.row(j));
                    }
                } else {
                    for &j in &changed_cols {
                        row[j] = dot_lr(l_row, r.row(j));
                    }
                }
                Ok::<(), Infallible>(())
            },
        );
        // Objective from the cached partials: per-column fit folded in
        // column order plus the regularizer folded per row.
        let fit: f64 = fit_cols.iter().sum();
        let l2: f64 = l_row_norms.iter().sum();
        let r2: f64 = r_row_norms.iter().sum();
        Ok(IncrementalOutcome {
            objective: fit + lambda * (l2 + r2),
            rows_resolved: rows_to_solve.len() + cols_to_solve.len(),
        })
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
        self.delta = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::nmae_on_missing;
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

    /// Streaming fixture for the incremental tests: a 6-slot, 10-segment
    /// window pre-filled with deterministic reports, plus the estimator
    /// primed from a full solve over it.
    fn primed_fixture() -> (probes::stream::StreamingTcm, OnlineEstimator, Matrix) {
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
        let mut online = OnlineEstimator::new(cfg(), m).unwrap();
        let result = online.update_detailed(&stream.snapshot()).unwrap();
        online
            .prime_incremental(&stream, stream.head_slot(), &result.factors.0, &result.factors.1)
            .unwrap();
        (stream, online, result.estimate)
    }

    /// Dirty cells for round `round` of the incremental tests: a couple
    /// of in-window updates plus, on odd rounds, a report one slot past
    /// the head so the window slides.
    fn mutate_round(
        stream: &mut probes::stream::StreamingTcm,
        round: usize,
    ) -> (Vec<usize>, Vec<u32>) {
        let n = stream.num_segments();
        let m = stream.window_slots();
        let mut dirty_rows = Vec::new();
        let mut dirty_cols: Vec<u32> = Vec::new();
        if round % 2 == 1 {
            // Advance the head by one slot: every column observed in
            // the evicted tail row changes content.
            let (_, counts) = stream.row_raw(0);
            dirty_cols
                .extend(counts.iter().enumerate().filter(|(_, &c)| c > 0.0).map(|(j, _)| j as u32));
            let slot = stream.head_slot() + 1;
            stream.observe(slot as u64 * 60, (round * 3) % n, 40.0 + round as f64).unwrap();
            dirty_rows.push(m - 1);
            dirty_cols.push(((round * 3) % n) as u32);
        }
        for k in 0..3usize {
            let row = (round + k * 2) % (m - 1);
            let seg = (round * 5 + k * 3) % n;
            let ts = (stream.tail_slot() + row) as u64 * 60 + 30;
            stream.observe(ts, seg, 31.0 + (round + k) as f64).unwrap();
            dirty_rows.push(row);
            dirty_cols.push(seg as u32);
        }
        dirty_rows.sort_unstable();
        dirty_rows.dedup();
        dirty_cols.sort_unstable();
        dirty_cols.dedup();
        (dirty_rows, dirty_cols)
    }

    #[test]
    fn incremental_estimate_stays_consistent_with_factors() {
        // After every delta pass — including ones where the window
        // slides — the maintained estimate must equal L·Rᵀ of the
        // cached factors bit for bit, the invariant that makes the
        // incremental path indistinguishable from a from-factors
        // materialization downstream.
        let (mut stream, mut online, mut estimate) = primed_fixture();
        assert!(online.incremental_primed());
        for round in 0..6 {
            let (dirty_rows, dirty_cols) = mutate_round(&mut stream, round);
            let outcome = online
                .update_incremental(
                    &stream,
                    stream.head_slot(),
                    &dirty_rows,
                    &dirty_cols,
                    &mut estimate,
                )
                .unwrap();
            assert!(outcome.rows_resolved > 0, "round {round} resolved nothing");
            assert!(outcome.objective.is_finite());
            let delta = online.delta.as_ref().expect("still primed");
            let product = delta.l.matmul_transpose_b(&delta.r).unwrap();
            assert_eq!(
                estimate.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                product.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "round {round}: estimate drifted from L·Rᵀ"
            );
        }
    }

    #[test]
    fn incremental_row_set_parity() {
        // Memoization soundness on the L axis: passing only the dirty
        // rows must leave the cached state bitwise identical to a pass
        // that re-solves every row — clean rows are already consistent
        // with R, so re-solving them is a no-op. (No analogous claim
        // holds for columns: the stored R of a full solve is consistent
        // with the pre-sweep L, so the delta pass always re-solves the
        // affected columns.)
        let (mut stream, mut online, mut estimate) = primed_fixture();
        let m = stream.window_slots();
        let mut online_all = online.clone();
        let mut estimate_all = estimate.clone();
        for round in 0..6 {
            let (dirty_rows, dirty_cols) = mutate_round(&mut stream, round);
            let all_rows: Vec<usize> = (0..m).collect();
            let head = stream.head_slot();
            let a = online
                .update_incremental(&stream, head, &dirty_rows, &dirty_cols, &mut estimate)
                .unwrap();
            let b = online_all
                .update_incremental(&stream, head, &all_rows, &dirty_cols, &mut estimate_all)
                .unwrap();
            let (da, db) = (online.delta.as_ref().unwrap(), online_all.delta.as_ref().unwrap());
            assert_eq!(
                da.l.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                db.l.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "round {round}: L diverged"
            );
            assert_eq!(
                da.r.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                db.r.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "round {round}: R diverged"
            );
            assert_eq!(
                estimate.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                estimate_all.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "round {round}: estimates diverged"
            );
            assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "round {round}");
            assert!(a.rows_resolved <= b.rows_resolved);
        }
    }

    #[test]
    fn incremental_guards_and_error_paths() {
        let (stream, mut online, mut estimate) = primed_fixture();
        let head = stream.head_slot();
        // Not primed → config error, and the estimator stays usable.
        let mut cold = OnlineEstimator::new(cfg(), 6).unwrap();
        assert!(cold.update_incremental(&stream, head, &[0], &[0], &mut estimate).is_err());
        // Head moving backwards or past the window invalidates the
        // cached state: the next solve must be a full sweep.
        assert!(online.update_incremental(&stream, head + 6, &[0], &[0], &mut estimate).is_err());
        assert!(!online.incremental_primed());
        // Restoring checkpoint factors also drops the delta state.
        let (mut stream2, mut online2, _) = primed_fixture();
        assert!(online2.incremental_primed());
        assert_eq!(online2.incremental_head_slot(), Some(stream2.head_slot()));
        let saved = online2.warm_factors().unwrap().clone();
        online2.set_warm_factors(saved).unwrap();
        assert!(!online2.incremental_primed());
        // As does reset().
        let _ = mutate_round(&mut stream2, 0);
        let result = online2.update_detailed(&stream2.snapshot()).unwrap();
        online2
            .prime_incremental(&stream2, stream2.head_slot(), &result.factors.0, &result.factors.1)
            .unwrap();
        assert!(online2.incremental_primed());
        online2.reset();
        assert!(!online2.incremental_primed());
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A 16 × 2,048 window with about one cell in four observed. At rank
    /// 8 every fan-out of a delta pass over it clears the work gate, so
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

    #[test]
    fn delta_pass_is_thread_invariant_on_a_wide_sparse_window() {
        // Primed from a full solve, then mutated for four rounds (two of
        // them slide the window): L, R, the estimate, the objective and
        // the re-solved unit count must agree bit for bit at 1, 2 and 8
        // threads.
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            let cfg = CsConfig {
                rank: 8,
                lambda: 0.1,
                tol: 1e-4,
                iterations: 20,
                num_threads: threads,
                ..CsConfig::default()
            };
            let mut stream = wide_sparse_stream();
            let mut online = OnlineEstimator::new(cfg, stream.window_slots()).unwrap();
            let result = online.update_detailed(&stream.snapshot()).unwrap();
            let (l, r) = &result.factors;
            online.prime_incremental(&stream, stream.head_slot(), l, r).unwrap();
            let mut estimate = result.estimate;
            let mut rounds = Vec::new();
            for round in 0..4 {
                let (dirty_rows, dirty_cols) = mutate_round(&mut stream, round);
                let head = stream.head_slot();
                let outcome = online
                    .update_incremental(&stream, head, &dirty_rows, &dirty_cols, &mut estimate)
                    .unwrap();
                // Propagation makes every fan-out big enough to engage.
                assert!(outcome.rows_resolved > 100, "round {round}: {outcome:?}");
                let delta = online.delta.as_ref().unwrap();
                let product = delta.l.matmul_transpose_b(&delta.r).unwrap();
                assert_eq!(bits(estimate.as_slice()), bits(product.as_slice()), "round {round}");
                rounds.push((
                    bits(delta.l.as_slice()),
                    bits(delta.r.as_slice()),
                    bits(estimate.as_slice()),
                    outcome.objective.to_bits(),
                    outcome.rows_resolved,
                ));
            }
            runs.push((threads, rounds));
        }
        let (_, reference) = &runs[0];
        for (threads, rounds) in &runs[1..] {
            for (round, (a, b)) in reference.iter().zip(rounds).enumerate() {
                assert!(a.0 == b.0, "threads={threads} round {round}: L diverged");
                assert!(a.1 == b.1, "threads={threads} round {round}: R diverged");
                assert!(a.2 == b.2, "threads={threads} round {round}: estimate diverged");
                assert_eq!(a.3, b.3, "threads={threads} round {round}: objective diverged");
                assert_eq!(a.4, b.4, "threads={threads} round {round}: rows_resolved diverged");
            }
        }
    }

    #[test]
    fn delta_pass_reports_the_smallest_failing_column_at_any_thread_count() {
        // λ = 0 leaves a column with fewer observations than the rank a
        // singular ridge system. Hand-built factors make the L step
        // change every row, so every observed column is re-solved and
        // several fail; the error must name the smallest of them.
        let rank = 8;
        let stream = wide_sparse_stream();
        let (m, n) = (stream.window_slots(), stream.num_segments());
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let l = Matrix::random_uniform(m, rank, &mut rng, 0.0, 1.0);
        let r = Matrix::random_uniform(n, rank, &mut rng, 0.0, 1.0);
        // Sequential reference: the pass's L step, then the first column
        // whose solve against the new L fails.
        let mut gram = GramScratch::new(rank);
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        let mut new_l = Matrix::zeros(m, rank);
        for i in 0..m {
            stream.gather_row(i, &mut idx, &mut val);
            gram.solve_ridge_rows(&r, &idx, &val, 0.0, new_l.row_mut(i)).unwrap();
        }
        let mut out = vec![0.0; rank];
        let failing: Vec<usize> = (0..n)
            .filter(|&j| {
                stream.gather_col(j, &mut idx, &mut val);
                gram.solve_ridge_rows(&new_l, &idx, &val, 0.0, &mut out).is_err()
            })
            .collect();
        assert!(failing.len() > 1, "{} columns fail at lambda 0", failing.len());
        let all_rows: Vec<usize> = (0..m).collect();
        for threads in [1usize, 2, 8] {
            let cfg = CsConfig { rank, lambda: 0.0, num_threads: threads, ..CsConfig::default() };
            let mut online = OnlineEstimator::new(cfg, m).unwrap();
            online.prime_incremental(&stream, stream.head_slot(), &l, &r).unwrap();
            let mut estimate = l.matmul_transpose_b(&r).unwrap();
            let err = online
                .update_incremental(&stream, stream.head_slot(), &all_rows, &[], &mut estimate)
                .unwrap_err();
            match err {
                Error::Cs(CsError::Solve { axis: SolveAxis::Column, index, .. }) => {
                    assert_eq!(index, failing[0], "threads={threads}");
                }
                other => panic!("threads={threads}: expected a column solve error, got {other}"),
            }
            assert!(!online.incremental_primed(), "threads={threads}: state must be dropped");
        }
    }
}
