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
pub trait ObsSource: Sync {
    /// Matrix shape as `(rows, cols)`.
    fn shape(&self) -> (usize, usize);

    /// Replaces `indices`/`values` with the observed entries of row `i`
    /// (column ids, ascending).
    fn gather_row(&self, i: usize, indices: &mut Vec<u32>, values: &mut Vec<f64>);

    /// Replaces `indices`/`values` with the observed entries of column
    /// `j` (row ids, ascending).
    fn gather_col(&self, j: usize, indices: &mut Vec<u32>, values: &mut Vec<f64>);
}

impl ObsSource for ObsIndex {
    fn shape(&self) -> (usize, usize) {
        (self.num_rows, self.num_cols)
    }

    fn gather_row(&self, i: usize, indices: &mut Vec<u32>, values: &mut Vec<f64>) {
        let (idx, vals) = self.row(i);
        indices.clear();
        values.clear();
        indices.extend_from_slice(idx);
        values.extend_from_slice(vals);
    }

    fn gather_col(&self, j: usize, indices: &mut Vec<u32>, values: &mut Vec<f64>) {
        let (idx, vals) = self.col(j);
        indices.clear();
        values.clear();
        indices.extend_from_slice(idx);
        values.extend_from_slice(vals);
    }
}

/// Gathers straight from the streaming accumulators: a cell's value is
/// `sum / count` — the identical division [`StreamingTcm::snapshot`]
/// performs, so the gathered bits equal the snapshot-then-index route.
impl ObsSource for StreamingTcm {
    fn shape(&self) -> (usize, usize) {
        (self.window_slots(), self.num_segments())
    }

    fn gather_row(&self, i: usize, indices: &mut Vec<u32>, values: &mut Vec<f64>) {
        indices.clear();
        values.clear();
        let (sums, counts) = self.row_raw(i);
        for (j, (&s, &c)) in sums.iter().zip(counts).enumerate() {
            if c > 0.0 {
                indices.push(j as u32);
                values.push(s / c);
            }
        }
    }

    fn gather_col(&self, j: usize, indices: &mut Vec<u32>, values: &mut Vec<f64>) {
        indices.clear();
        values.clear();
        for i in 0..self.window_slots() {
            let (s, c) = self.cell_raw(i, j);
            if c > 0.0 {
                indices.push(i as u32);
                values.push(s / c);
            }
        }
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
        let obs = ObsIndex::from_tcm(&s.snapshot());
        assert_eq!(ObsSource::shape(&s), (obs.num_rows(), obs.num_cols()));
        let (mut idx, mut vals) = (Vec::new(), Vec::new());
        for i in 0..obs.num_rows() {
            s.gather_row(i, &mut idx, &mut vals);
            let (eidx, evals) = obs.row(i);
            assert_eq!(idx, eidx, "row {i} indices");
            assert_eq!(
                vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                evals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "row {i} values"
            );
        }
        for j in 0..obs.num_cols() {
            s.gather_col(j, &mut idx, &mut vals);
            let (eidx, evals) = obs.col(j);
            assert_eq!(idx, eidx, "col {j} indices");
            assert_eq!(
                vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                evals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "col {j} values"
            );
        }
    }

    #[test]
    fn obs_index_gather_matches_direct_accessors() {
        let tcm = sample_tcm();
        let obs = ObsIndex::from_tcm(&tcm);
        let (mut idx, mut vals) = (vec![9u32], vec![9.0]);
        obs.gather_row(0, &mut idx, &mut vals);
        assert_eq!((idx.as_slice(), vals.as_slice()), obs.row(0));
        obs.gather_col(1, &mut idx, &mut vals);
        assert_eq!((idx.as_slice(), vals.as_slice()), obs.col(1));
    }
}
