//! Flat CSR/CSC observation index for the ALS hot loop.
//!
//! Algorithm 1 walks the observed entries of the traffic condition
//! matrix thousands of times: once per unit per sweep for the ridge
//! solves (row-major for the `L` step, column-major for the `R` step)
//! and once per sweep for the objective. A `Vec<Vec<(usize, f64)>>`
//! index pays a pointer chase per unit and scatters the entries across
//! the heap; [`ObsIndex`] stores both traversal orders as contiguous
//! `offsets` / `indices` / `values` arrays (CSR for rows, CSC for
//! columns), built in two passes with exact capacities, so every sweep
//! streams the index linearly and the per-unit totals used by the
//! thread gates are known once at build time.

use probes::stream::StreamingTcm;
use probes::Tcm;

/// Both traversal orders of a TCM's observed entries, in compressed
/// sparse form. Built once per completion by [`ObsIndex::from_tcm`];
/// immutable and cheap to share across worker threads.
#[derive(Debug, Clone)]
pub struct ObsIndex {
    num_rows: usize,
    num_cols: usize,
    /// CSR: for row `i`, entries `row_offsets[i]..row_offsets[i+1]` of
    /// `row_indices` (column ids, ascending) and `row_values`.
    row_offsets: Vec<usize>,
    row_indices: Vec<u32>,
    row_values: Vec<f64>,
    /// CSC: for column `j`, entries `col_offsets[j]..col_offsets[j+1]`
    /// of `col_indices` (row ids, ascending) and `col_values`.
    col_offsets: Vec<usize>,
    col_indices: Vec<u32>,
    col_values: Vec<f64>,
}

impl ObsIndex {
    /// Indexes the observed entries of `tcm` in both orders.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has more than `u32::MAX` rows or columns
    /// (indices are stored as `u32` to halve the index bandwidth).
    pub fn from_tcm(tcm: &Tcm) -> Self {
        let (m, n) = tcm.values().shape();
        assert!(
            m <= u32::MAX as usize && n <= u32::MAX as usize,
            "observation index supports up to 2^32 rows/columns"
        );
        // Pass 1: per-row / per-column counts become offsets.
        let mut row_offsets = vec![0usize; m + 1];
        let mut col_offsets = vec![0usize; n + 1];
        for (i, j, _) in tcm.observed_entries() {
            row_offsets[i + 1] += 1;
            col_offsets[j + 1] += 1;
        }
        for i in 0..m {
            row_offsets[i + 1] += row_offsets[i];
        }
        for j in 0..n {
            col_offsets[j + 1] += col_offsets[j];
        }
        let total = row_offsets[m];
        // Pass 2: scatter entries. `observed_entries` iterates row-major,
        // so rows fill with ascending column ids and columns with
        // ascending row ids — the same per-unit order the previous
        // `Vec<Vec<_>>` index produced, which the bit-for-bit parity
        // guarantee depends on.
        let mut row_indices = vec![0u32; total];
        let mut row_values = vec![0.0f64; total];
        let mut col_indices = vec![0u32; total];
        let mut col_values = vec![0.0f64; total];
        let mut row_fill = row_offsets.clone();
        let mut col_fill = col_offsets.clone();
        for (i, j, v) in tcm.observed_entries() {
            let rf = row_fill[i];
            row_indices[rf] = j as u32;
            row_values[rf] = v;
            row_fill[i] += 1;
            let cf = col_fill[j];
            col_indices[cf] = i as u32;
            col_values[cf] = v;
            col_fill[j] += 1;
        }
        Self {
            num_rows: m,
            num_cols: n,
            row_offsets,
            row_indices,
            row_values,
            col_offsets,
            col_indices,
            col_values,
        }
    }

    /// Number of matrix rows (time slots).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of matrix columns (road segments).
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Total observed entries — computed once at build, not re-summed
    /// per sweep.
    pub fn total_observed(&self) -> usize {
        self.row_indices.len()
    }

    /// Column ids and values observed in row `i`, ascending by column.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.row_offsets[i]..self.row_offsets[i + 1];
        (&self.row_indices[span.clone()], &self.row_values[span])
    }

    /// Row ids and values observed in column `j`, ascending by row.
    #[inline]
    pub fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let span = self.col_offsets[j]..self.col_offsets[j + 1];
        (&self.col_indices[span.clone()], &self.col_values[span])
    }
}

/// A per-unit view of observed entries that an ALS half-step gathers
/// from, one row or column at a time. [`crate::cs`]'s unit solver and
/// objective read every observation through it: the full sweep from an
/// [`ObsIndex`] built off a snapshot, and the serve path's warm pass
/// straight from the window's [`StreamingTcm`] accumulators, without
/// materializing a snapshot or an index. Gathering one row or column
/// walks that axis, so a warm pass touches each window cell once per
/// half-step.
///
/// Implementations must produce exactly the entries (same ids, same
/// order, same value bits) that [`ObsIndex::from_tcm`] would index for
/// the equivalent snapshot — that equivalence is what gives the warm
/// pass the full sweep's bit-for-bit guarantee. Workers gather from one
/// source at once, hence `Sync`.
///
/// A gather writes to the front of caller buffers that hold a whole
/// row (`cols` entries) or column (`rows` entries) and returns how many
/// entries it wrote; what lies past that count is scratch. Writing into
/// fixed-size slices lets an implementation store every cell it walks
/// and keep only the observed ones, without a branch per cell.
pub trait ObsSource: Sync {
    /// Matrix shape as `(rows, cols)`.
    fn shape(&self) -> (usize, usize);

    /// Writes the observed entries of row `i` (column ids, ascending)
    /// to the front of `indices`/`values` and returns their number.
    /// Both buffers must hold at least `cols` entries.
    fn gather_row(&self, i: usize, indices: &mut [u32], values: &mut [f64]) -> usize;

    /// Writes the observed entries of column `j` (row ids, ascending)
    /// to the front of `indices`/`values` and returns their number.
    /// Both buffers must hold at least `rows` entries.
    fn gather_col(&self, j: usize, indices: &mut [u32], values: &mut [f64]) -> usize;
}

impl ObsSource for ObsIndex {
    fn shape(&self) -> (usize, usize) {
        (self.num_rows, self.num_cols)
    }

    fn gather_row(&self, i: usize, indices: &mut [u32], values: &mut [f64]) -> usize {
        copy_unit(self.row(i), indices, values)
    }

    fn gather_col(&self, j: usize, indices: &mut [u32], values: &mut [f64]) -> usize {
        copy_unit(self.col(j), indices, values)
    }
}

/// Copies one unit's span to the front of the buffers. Element loops
/// rather than `copy_from_slice`: most units of a sparse window hold
/// zero to four entries, where a `memcpy` call per slice cost ~6 ns a
/// gather, about twice the loops.
fn copy_unit((idx, vals): (&[u32], &[f64]), indices: &mut [u32], values: &mut [f64]) -> usize {
    assert!(indices.len() >= idx.len() && values.len() >= vals.len(), "gather buffers too short");
    for (slot, &i) in indices.iter_mut().zip(idx) {
        *slot = i;
    }
    for (slot, &v) in values.iter_mut().zip(vals) {
        *slot = v;
    }
    idx.len()
}

/// Gathers straight from the streaming accumulators: a cell's value is
/// `sum / count` — the identical division [`StreamingTcm::snapshot`]
/// performs, so the gathered bits equal the snapshot-then-index route.
///
/// Neither gather branches per cell: each cell's id and quotient are
/// written at the current length, which advances only when the cell's
/// count is positive, so an empty cell's write (a `0 / 0`) is
/// overwritten by the next observed one or left past the end. A column
/// walks down the rows' slices ([`StreamingTcm::rows_raw`]) instead of
/// indexing the window's ring once per cell. At the ~25% integrity of a
/// sparse metro window, where a branch on `count > 0` is a coin flip,
/// this is what keeps a column gather near a row gather's per-cell cost.
impl ObsSource for StreamingTcm {
    fn shape(&self) -> (usize, usize) {
        (self.window_slots(), self.num_segments())
    }

    fn gather_row(&self, i: usize, indices: &mut [u32], values: &mut [f64]) -> usize {
        let (sums, counts) = self.row_raw(i);
        let mut len = 0;
        for (j, (&s, &c)) in sums.iter().zip(counts).enumerate() {
            indices[len] = j as u32;
            values[len] = s / c;
            len += usize::from(c > 0.0);
        }
        len
    }

    fn gather_col(&self, j: usize, indices: &mut [u32], values: &mut [f64]) -> usize {
        let mut len = 0;
        for (i, (sums, counts)) in self.rows_raw().enumerate() {
            let c = counts[j];
            indices[len] = i as u32;
            values[len] = sums[j] / c;
            len += usize::from(c > 0.0);
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::Matrix;

    fn sample_tcm() -> Tcm {
        // 3×4 with a diagonal-ish observation pattern.
        let values = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64 + 1.0);
        let mask = Matrix::from_fn(3, 4, |i, j| if (i + j) % 2 == 0 { 1.0 } else { 0.0 });
        Tcm::complete(values).masked(&mask).unwrap()
    }

    #[test]
    fn index_matches_nested_vec_build() {
        let tcm = sample_tcm();
        let obs = ObsIndex::from_tcm(&tcm);
        let (m, n) = tcm.values().shape();
        let mut col_obs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut row_obs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for (i, j, v) in tcm.observed_entries() {
            col_obs[j].push((i, v));
            row_obs[i].push((j, v));
        }
        assert_eq!(obs.num_rows(), m);
        assert_eq!(obs.num_cols(), n);
        assert_eq!(obs.total_observed(), tcm.observed_count());
        for (i, expected) in row_obs.iter().enumerate() {
            let (idx, vals) = obs.row(i);
            let got: Vec<(usize, f64)> =
                idx.iter().zip(vals).map(|(&j, &v)| (j as usize, v)).collect();
            assert_eq!(&got, expected, "row {i}");
        }
        for (j, expected) in col_obs.iter().enumerate() {
            let (idx, vals) = obs.col(j);
            let got: Vec<(usize, f64)> =
                idx.iter().zip(vals).map(|(&i, &v)| (i as usize, v)).collect();
            assert_eq!(&got, expected, "col {j}");
        }
    }

    /// The Gram kernels' bit-for-bit parity guarantee rests on this
    /// contract: every unit's observations arrive in strictly ascending
    /// index order, and rebuilding the index from the same TCM
    /// reproduces the identical traversal (indices and value bits). A
    /// future "optimization" that reorders the scatter — bucket sort,
    /// parallel fill, hash grouping — must fail here before it silently
    /// changes accumulation order in every kernel variant at once.
    #[test]
    fn traversal_order_is_ascending_and_rebuild_stable() {
        let values = Matrix::from_fn(17, 13, |i, j| ((i * 13 + j) % 29) as f64 / 8.0 + 1.0);
        let mask =
            Matrix::from_fn(17, 13, |i, j| if (i * 7 + j * 11) % 3 != 0 { 1.0 } else { 0.0 });
        let tcm = Tcm::complete(values).masked(&mask).unwrap();
        let obs = ObsIndex::from_tcm(&tcm);
        for i in 0..obs.num_rows() {
            let (idx, _) = obs.row(i);
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "row {i} indices not ascending");
        }
        for j in 0..obs.num_cols() {
            let (idx, _) = obs.col(j);
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "col {j} indices not ascending");
        }
        let rebuilt = ObsIndex::from_tcm(&tcm);
        for i in 0..obs.num_rows() {
            let (idx, vals) = obs.row(i);
            let (ridx, rvals) = rebuilt.row(i);
            assert_eq!(idx, ridx, "row {i} rebuild order");
            assert!(
                vals.iter().zip(rvals).all(|(a, b)| a.to_bits() == b.to_bits()),
                "row {i} rebuild value bits"
            );
        }
        for j in 0..obs.num_cols() {
            let (idx, vals) = obs.col(j);
            let (ridx, rvals) = rebuilt.col(j);
            assert_eq!(idx, ridx, "col {j} rebuild order");
            assert!(
                vals.iter().zip(rvals).all(|(a, b)| a.to_bits() == b.to_bits()),
                "col {j} rebuild value bits"
            );
        }
    }

    #[test]
    fn empty_units_have_empty_spans() {
        let values = Matrix::filled(3, 3, 1.0);
        let mut mask = Matrix::filled(3, 3, 1.0);
        for j in 0..3 {
            mask.set(1, j, 0.0); // row 1 fully unobserved
        }
        for i in 0..3 {
            mask.set(i, 2, 0.0); // column 2 fully unobserved
        }
        let tcm = Tcm::complete(values).masked(&mask).unwrap();
        let obs = ObsIndex::from_tcm(&tcm);
        assert!(obs.row(1).0.is_empty());
        assert!(obs.col(2).0.is_empty());
        assert_eq!(obs.total_observed(), 4);
    }

    #[test]
    fn streaming_gather_matches_snapshot_index_bitwise() {
        let mut s = StreamingTcm::new(0, 60, 4, 5).unwrap();
        // Averaged cells exercise the sum/count division both routes do.
        for (ts, seg, v) in [
            (0, 0, 10.0),
            (30, 0, 11.0),
            (65, 2, 31.5),
            (130, 4, 7.25),
            (140, 4, 8.0),
            (200, 1, 3.0),
        ] {
            s.observe(ts, seg, v).unwrap();
        }
        // A slide leaves the ring's oldest row away from its front, so
        // the column walk must follow window order, not storage order.
        s.observe(270, 3, 12.0).unwrap();
        s.observe(280, 3, 13.5).unwrap();
        let obs = ObsIndex::from_tcm(&s.snapshot());
        assert_eq!(ObsSource::shape(&s), (obs.num_rows(), obs.num_cols()));
        // Stale entries past the count must never be read back.
        let (mut idx, mut vals) = (vec![u32::MAX; 5], vec![f64::NAN; 5]);
        for i in 0..obs.num_rows() {
            let len = s.gather_row(i, &mut idx, &mut vals);
            let (eidx, evals) = obs.row(i);
            assert_eq!(&idx[..len], eidx, "row {i} indices");
            assert_eq!(bits(&vals[..len]), bits(evals), "row {i} values");
        }
        for j in 0..obs.num_cols() {
            let len = s.gather_col(j, &mut idx, &mut vals);
            let (eidx, evals) = obs.col(j);
            assert_eq!(&idx[..len], eidx, "col {j} indices");
            assert_eq!(bits(&vals[..len]), bits(evals), "col {j} values");
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn obs_index_gather_matches_direct_accessors() {
        let tcm = sample_tcm();
        let obs = ObsIndex::from_tcm(&tcm);
        let (mut idx, mut vals) = (vec![9u32; 4], vec![9.0; 4]);
        let len = obs.gather_row(0, &mut idx, &mut vals);
        assert_eq!((&idx[..len], &vals[..len]), obs.row(0));
        let len = obs.gather_col(1, &mut idx, &mut vals);
        assert_eq!((&idx[..len], &vals[..len]), obs.col(1));
    }
}
