//! Sliding-window streaming TCM maintenance.
//!
//! The paper's algorithm is offline; its Section 6 lists extension "to
//! support processing of online streaming probe data" as future work.
//! This module provides the data-plane half of that extension: a
//! [`StreamingTcm`] ingests probe observations as they arrive and
//! maintains the traffic condition matrix over a sliding window of the
//! most recent time slots, evicting old slots in O(columns). The
//! estimation half (warm-started completion per window) lives in
//! `traffic_cs::online`.

use crate::tcm::{Tcm, TcmError};
use linalg::Matrix;

/// A sliding window of per-slot probe accumulators.
///
/// Slots are indexed on an absolute grid: slot `k` covers
/// `[start_s + k·slot_len, start_s + (k+1)·slot_len)`. The window always
/// covers the `window_slots` consecutive slots ending at the most recent
/// slot that has received an observation (or been advanced to).
///
/// # Example
///
/// ```
/// use probes::stream::StreamingTcm;
///
/// let mut s = StreamingTcm::new(0, 900, 4, 3)?; // 4-slot window, 3 segments
/// s.observe(100, 1, 30.0)?;   // slot 0
/// s.observe(1000, 1, 34.0)?;  // slot 1
/// let tcm = s.snapshot();
/// assert_eq!(tcm.num_slots(), 4);
/// assert_eq!(tcm.get(1, 1), Some(34.0));
/// # Ok::<(), probes::TcmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingTcm {
    start_s: u64,
    slot_len_s: u64,
    window_slots: usize,
    num_segments: usize,
    /// Absolute index of the newest slot in the window.
    head_slot: usize,
    /// Ring buffer rows, oldest first: `rows[0]` is slot
    /// `head_slot + 1 - window_slots`.
    sums: std::collections::VecDeque<Vec<f64>>,
    counts: std::collections::VecDeque<Vec<f64>>,
    /// Observations discarded because they were older than the window.
    dropped_late: u64,
}

impl StreamingTcm {
    /// Creates an empty window positioned at slot 0.
    ///
    /// # Errors
    ///
    /// [`TcmError::EmptyDimension`] when any dimension is zero — a
    /// zero-length slot, a zero-slot window, or a zero-segment network
    /// cannot hold observations.
    pub fn new(
        start_s: u64,
        slot_len_s: u64,
        window_slots: usize,
        num_segments: usize,
    ) -> Result<Self, TcmError> {
        if slot_len_s == 0 {
            return Err(TcmError::EmptyDimension("slot length"));
        }
        if window_slots == 0 {
            return Err(TcmError::EmptyDimension("window slots"));
        }
        if num_segments == 0 {
            return Err(TcmError::EmptyDimension("segments"));
        }
        let mut sums = std::collections::VecDeque::with_capacity(window_slots);
        let mut counts = std::collections::VecDeque::with_capacity(window_slots);
        for _ in 0..window_slots {
            sums.push_back(vec![0.0; num_segments]);
            counts.push_back(vec![0.0; num_segments]);
        }
        Ok(Self {
            start_s,
            slot_len_s,
            window_slots,
            num_segments,
            head_slot: window_slots - 1,
            sums,
            counts,
            dropped_late: 0,
        })
    }

    /// Absolute slot index of a timestamp, or `None` before the grid
    /// start.
    pub fn slot_of(&self, timestamp_s: u64) -> Option<usize> {
        timestamp_s.checked_sub(self.start_s).map(|d| (d / self.slot_len_s) as usize)
    }

    /// Absolute index of the newest slot currently covered.
    pub fn head_slot(&self) -> usize {
        self.head_slot
    }

    /// Absolute index of the oldest slot currently covered.
    pub fn tail_slot(&self) -> usize {
        self.head_slot + 1 - self.window_slots
    }

    /// Number of slots the sliding window covers (matrix height).
    pub fn window_slots(&self) -> usize {
        self.window_slots
    }

    /// Number of road segments (matrix width).
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// Number of observations dropped for arriving after their slot left
    /// the window.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// Slides the window forward so it covers `slot` (no-op when `slot`
    /// is already covered). Evicted slots are gone for good.
    ///
    /// Costs at most one pass over the window however far the head
    /// jumps: evicted rows are rotated to the back and zeroed in place,
    /// so a slide allocates nothing.
    pub fn advance_to_slot(&mut self, slot: usize) {
        if slot <= self.head_slot {
            return;
        }
        let evicted = (slot - self.head_slot).min(self.window_slots);
        let fresh = self.window_slots - evicted;
        for rows in [&mut self.sums, &mut self.counts] {
            rows.rotate_left(evicted);
            rows.range_mut(fresh..).for_each(|row| row.fill(0.0));
        }
        self.head_slot = slot;
    }

    /// Ingests one probe observation. Advances the window if the
    /// observation is newer than the current head; silently counts (and
    /// drops) observations older than the window, as a real streaming
    /// pipeline must.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range segment columns and invalid speeds.
    pub fn observe(
        &mut self,
        timestamp_s: u64,
        segment: usize,
        speed_kmh: f64,
    ) -> Result<(), TcmError> {
        if segment >= self.num_segments {
            return Err(TcmError::OutOfBounds { slot: 0, col: segment });
        }
        if !speed_kmh.is_finite() || speed_kmh < 0.0 {
            return Err(TcmError::InvalidSpeed(speed_kmh));
        }
        let Some(slot) = self.slot_of(timestamp_s) else {
            self.dropped_late += 1;
            return Ok(());
        };
        if slot > self.head_slot {
            self.advance_to_slot(slot);
        }
        if slot < self.tail_slot() {
            self.dropped_late += 1;
            return Ok(());
        }
        self.add_at(slot - self.tail_slot(), segment, speed_kmh);
        Ok(())
    }

    /// Adds one observation to window row `row` (0 = oldest slot) —
    /// [`StreamingTcm::observe`] for a caller that has already validated
    /// the speed, located the slot in the window and slid the window
    /// there, so nothing is checked or divided again.
    ///
    /// # Panics
    ///
    /// Panics when `row >= window_slots` or `segment >= num_segments`.
    pub fn add_at(&mut self, row: usize, segment: usize, speed_kmh: f64) {
        debug_assert!(speed_kmh.is_finite() && speed_kmh >= 0.0, "unvalidated speed {speed_kmh}");
        self.sums[row][segment] += speed_kmh;
        self.counts[row][segment] += 1.0;
    }

    /// Withdraws one previously admitted observation — the mechanism
    /// behind last-write-wins deduplication: a re-delivered report's old
    /// contribution is retracted before the replacement is observed.
    ///
    /// Returns `true` when the observation was still inside the window
    /// and its contribution was removed; `false` when its slot has
    /// already been evicted (nothing to undo). Never advances the
    /// window.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range segment columns, invalid speeds, and
    /// retracting from a cell with no recorded observations.
    pub fn retract(
        &mut self,
        timestamp_s: u64,
        segment: usize,
        speed_kmh: f64,
    ) -> Result<bool, TcmError> {
        if segment >= self.num_segments {
            return Err(TcmError::OutOfBounds { slot: 0, col: segment });
        }
        if !speed_kmh.is_finite() || speed_kmh < 0.0 {
            return Err(TcmError::InvalidSpeed(speed_kmh));
        }
        let Some(slot) = self.slot_of(timestamp_s) else {
            return Ok(false);
        };
        if slot > self.head_slot || slot < self.tail_slot() {
            return Ok(false);
        }
        let row = slot - self.tail_slot();
        if self.counts[row][segment] < 1.0 {
            return Err(TcmError::OutOfBounds { slot, col: segment });
        }
        self.sums[row][segment] -= speed_kmh;
        self.counts[row][segment] -= 1.0;
        if self.counts[row][segment] == 0.0 {
            // Cancel accumulated rounding so an emptied cell reads as
            // missing, not as a denormal residue.
            self.sums[row][segment] = 0.0;
        }
        Ok(true)
    }

    /// Number of window cells currently holding at least one
    /// observation, without materializing a snapshot — the cheap
    /// emptiness probe used by streaming harnesses to predict whether a
    /// solve on this window can succeed.
    pub fn observed_cells(&self) -> usize {
        self.counts.iter().flat_map(|row| row.iter()).filter(|&&c| c > 0.0).count()
    }

    /// Raw accumulator state of one window row: `(sums, counts)` slices
    /// of length `num_segments` for window row `row` (0 = oldest slot).
    /// A cell's snapshot value is `sum / count` when `count > 0`; the raw
    /// pair lets callers re-derive cell content without materializing a
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics when `row >= window_slots`.
    pub fn row_raw(&self, row: usize) -> (&[f64], &[f64]) {
        (&self.sums[row], &self.counts[row])
    }

    /// Every window row's raw `(sums, counts)` slices, oldest slot
    /// first — [`StreamingTcm::row_raw`] for each row in turn, without
    /// indexing the ring per row, so a walk down one segment's column
    /// costs two slice reads per cell.
    pub fn rows_raw(&self) -> impl Iterator<Item = (&[f64], &[f64])> {
        self.sums.iter().zip(&self.counts).map(|(s, c)| (s.as_slice(), c.as_slice()))
    }

    /// Materializes the current window as a [`Tcm`] (row 0 = oldest slot
    /// in the window).
    pub fn snapshot(&self) -> Tcm {
        let (tcm, _) = self.snapshot_with_counts();
        tcm
    }

    /// Like [`StreamingTcm::snapshot`], also returning per-cell probe
    /// counts.
    pub fn snapshot_with_counts(&self) -> (Tcm, Matrix) {
        let m = self.window_slots;
        let n = self.num_segments;
        let mut values = Matrix::zeros(m, n);
        let mut indicator = Matrix::zeros(m, n);
        let mut counts = Matrix::zeros(m, n);
        for r in 0..m {
            for c in 0..n {
                let cnt = self.counts[r][c];
                counts.set(r, c, cnt);
                if cnt > 0.0 {
                    values.set(r, c, self.sums[r][c] / cnt);
                    indicator.set(r, c, 1.0);
                }
            }
        }
        (Tcm::new(values, indicator).expect("indicator is 0/1 by construction"), counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_accessors_expose_accumulators() {
        let mut s = StreamingTcm::new(0, 60, 5, 2).unwrap();
        s.observe(0, 0, 10.0).unwrap();
        s.observe(59, 0, 20.0).unwrap();
        let (sums, counts) = s.row_raw(0);
        assert_eq!(sums, &[30.0, 0.0]);
        assert_eq!(counts, &[2.0, 0.0]);
        // After a slide the rows still come oldest first.
        s.observe(5 * 60, 1, 7.0).unwrap();
        for (row, raw) in s.rows_raw().enumerate() {
            assert_eq!(raw, s.row_raw(row), "row {row}");
        }
        assert_eq!(s.rows_raw().count(), 5);
    }

    #[test]
    fn add_at_matches_observe_on_a_located_row() {
        let mut by_time = StreamingTcm::new(30, 60, 3, 2).unwrap();
        let mut by_row = by_time.clone();
        for (ts, seg, v) in [(30u64, 0usize, 10.0), (89, 1, 20.0), (90, 1, 30.0), (239, 0, 5.5)] {
            by_time.observe(ts, seg, v).unwrap();
            let slot = by_row.slot_of(ts).unwrap();
            by_row.advance_to_slot(slot);
            by_row.add_at(slot - by_row.tail_slot(), seg, v);
        }
        assert_eq!(by_row.head_slot(), by_time.head_slot());
        assert!(by_row.rows_raw().eq(by_time.rows_raw()));
    }

    #[test]
    fn observations_land_in_right_slots() {
        let mut s = StreamingTcm::new(0, 60, 5, 2).unwrap();
        s.observe(0, 0, 10.0).unwrap();
        s.observe(59, 0, 20.0).unwrap(); // same slot -> averaged
        s.observe(60, 1, 30.0).unwrap();
        let tcm = s.snapshot();
        assert_eq!(tcm.get(0, 0), Some(15.0));
        assert_eq!(tcm.get(1, 1), Some(30.0));
        assert_eq!(tcm.observed_count(), 2);
    }

    #[test]
    fn window_slides_and_evicts() {
        let mut s = StreamingTcm::new(0, 60, 3, 1).unwrap();
        s.observe(0, 0, 10.0).unwrap(); // slot 0
        s.observe(130, 0, 20.0).unwrap(); // slot 2 (head)
        assert_eq!(s.tail_slot(), 0);
        // Jump to slot 5: slots 0..=2 evicted; window now 3..=5.
        s.observe(330, 0, 30.0).unwrap();
        assert_eq!(s.head_slot(), 5);
        assert_eq!(s.tail_slot(), 3);
        let tcm = s.snapshot();
        assert_eq!(tcm.observed_count(), 1);
        assert_eq!(tcm.get(2, 0), Some(30.0));
    }

    #[test]
    fn partial_slides_keep_survivors_and_far_jumps_return() {
        let mut s = StreamingTcm::new(0, 60, 3, 2).unwrap();
        s.observe(0, 0, 10.0).unwrap(); // slot 0
        s.observe(60, 1, 20.0).unwrap(); // slot 1
        s.observe(120, 0, 30.0).unwrap(); // slot 2
        s.advance_to_slot(4); // evicts slots 0 and 1
        assert_eq!(s.tail_slot(), 2);
        assert_eq!(s.row_raw(0), (&[30.0, 0.0][..], &[1.0, 0.0][..]));
        assert_eq!(s.observed_cells(), 1);
        // A jump to the end of the slot grid is one pass over the window,
        // not one slide per skipped slot.
        let far = s.slot_of(u64::MAX).unwrap();
        s.advance_to_slot(far);
        assert_eq!(s.head_slot(), far);
        assert_eq!(s.observed_cells(), 0);
        s.observe(u64::MAX, 1, 40.0).unwrap();
        assert_eq!(s.row_raw(2), (&[0.0, 40.0][..], &[0.0, 1.0][..]));
    }

    #[test]
    fn late_observations_counted_and_dropped() {
        let mut s = StreamingTcm::new(600, 60, 2, 1).unwrap();
        // Before grid start.
        s.observe(0, 0, 10.0).unwrap();
        assert_eq!(s.dropped_late(), 1);
        // Advance far, then send something that fell out of the window.
        s.observe(600 + 10 * 60, 0, 20.0).unwrap();
        s.observe(600, 0, 30.0).unwrap(); // slot 0, long evicted
        assert_eq!(s.dropped_late(), 2);
        assert_eq!(s.snapshot().observed_count(), 1);
    }

    #[test]
    fn observed_cells_tracks_occupancy() {
        let mut s = StreamingTcm::new(0, 60, 3, 2).unwrap();
        assert_eq!(s.observed_cells(), 0);
        s.observe(0, 0, 10.0).unwrap();
        s.observe(5, 0, 20.0).unwrap(); // same cell
        s.observe(70, 1, 30.0).unwrap();
        assert_eq!(s.observed_cells(), 2);
        assert_eq!(s.observed_cells(), s.snapshot().observed_count());
        // Retracting the last observation in a cell empties it again.
        assert!(s.retract(70, 1, 30.0).unwrap());
        assert_eq!(s.observed_cells(), 1);
        // Eviction clears cells too.
        s.advance_to_slot(10);
        assert_eq!(s.observed_cells(), 0);
    }

    #[test]
    fn snapshot_counts_match() {
        let mut s = StreamingTcm::new(0, 60, 2, 2).unwrap();
        s.observe(0, 1, 10.0).unwrap();
        s.observe(1, 1, 20.0).unwrap();
        s.observe(2, 1, 30.0).unwrap();
        let (tcm, counts) = s.snapshot_with_counts();
        assert_eq!(counts.get(0, 1), 3.0);
        assert_eq!(tcm.get(0, 1), Some(20.0));
        assert_eq!(counts.get(0, 0), 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        let mut s = StreamingTcm::new(0, 60, 2, 2).unwrap();
        assert!(matches!(s.observe(0, 5, 10.0), Err(TcmError::OutOfBounds { .. })));
        assert!(matches!(s.observe(0, 0, -3.0), Err(TcmError::InvalidSpeed(_))));
        assert!(matches!(s.observe(0, 0, f64::NAN), Err(TcmError::InvalidSpeed(_))));
    }

    #[test]
    fn advance_is_idempotent_backwards() {
        let mut s = StreamingTcm::new(0, 60, 3, 1).unwrap();
        s.observe(300, 0, 10.0).unwrap();
        let head = s.head_slot();
        s.advance_to_slot(1); // older than head: no-op
        assert_eq!(s.head_slot(), head);
    }

    #[test]
    fn zero_dimensions_are_errors_not_panics() {
        assert!(matches!(StreamingTcm::new(0, 60, 0, 1), Err(TcmError::EmptyDimension(_))));
        assert!(matches!(StreamingTcm::new(0, 0, 4, 1), Err(TcmError::EmptyDimension(_))));
        assert!(matches!(StreamingTcm::new(0, 60, 4, 0), Err(TcmError::EmptyDimension(_))));
    }

    #[test]
    fn retract_implements_last_write_wins() {
        let mut s = StreamingTcm::new(0, 60, 3, 2).unwrap();
        s.observe(10, 0, 30.0).unwrap();
        s.observe(20, 0, 50.0).unwrap();
        // Re-delivery of the t=20 report with a corrected speed.
        assert!(s.retract(20, 0, 50.0).unwrap());
        s.observe(20, 0, 40.0).unwrap();
        assert_eq!(s.snapshot().get(0, 0), Some(35.0));
        // Retracting the only observation empties the cell entirely.
        assert!(s.retract(10, 0, 30.0).unwrap());
        assert!(s.retract(20, 0, 40.0).unwrap());
        assert_eq!(s.snapshot().get(0, 0), None);
        // Slots outside the window report false, bad cells error.
        s.observe(10 * 60, 1, 20.0).unwrap();
        assert!(!s.retract(10, 0, 30.0).unwrap());
        assert!(s.retract(10 * 60, 0, 1.0).is_err(), "cell has no observations");
        assert!(s.retract(10 * 60, 9, 1.0).is_err(), "segment out of range");
    }

    #[test]
    fn matches_batch_builder_on_same_data() {
        // Feeding the same observations into the streaming window (large
        // enough to hold everything) and the batch builder must agree.
        use crate::tcm::TcmBuilder;
        let mut stream = StreamingTcm::new(0, 60, 10, 3).unwrap();
        let mut batch = TcmBuilder::new(10, 3);
        let obs = [(30u64, 0usize, 25.0), (90, 1, 35.0), (95, 1, 45.0), (540, 2, 55.0)];
        for &(t, c, v) in &obs {
            stream.observe(t, c, v).unwrap();
            batch.add_observation((t / 60) as usize, c, v).unwrap();
        }
        stream.advance_to_slot(9);
        assert_eq!(stream.snapshot(), batch.build());
    }
}
