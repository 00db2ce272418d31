//! Fixed-rank Gram kernels.
//!
//! The ALS sweep spends nearly all of its time in two loops from
//! [`crate::lstsq`]: [`accumulate_gram`]
//! (rank-r outer products over the observed entries of a unit) and
//! [`cholesky_solve_in_place`]
//! (factor + two triangular solves). This module provides const-generic
//! fixed-rank replacements ([`GramKernel`]) for r ∈ {4, 8, 16} (the
//! serve benchmark's workloads run ranks 4 and 8), where the compiler
//! can emit fully unrolled, register-resident code with no dynamic trip
//! counts at all.
//!
//! # Bit-exactness contract
//!
//! Every kernel in this module produces output **bit-for-bit identical**
//! to the scalar reference in `lstsq` — not merely close. The repo's
//! replay parity, chaos oracles, and checkpoint round-trips all compare
//! exact bits, so a kernel that reassociated a single sum would be
//! observable system-wide. The vectorization is therefore restricted to
//! transformations that provably preserve IEEE semantics:
//!
//! * In Gram accumulation each entry `g[i][j]` is an *independent*
//!   accumulator receiving exactly one `row[i] * row[j]` product per
//!   observation row, in row order. Splitting the `j` loop into 4-wide
//!   lanes assigns each lane a disjoint set of accumulators — no single
//!   sum is ever reassociated.
//! * The fixed-rank kernels accumulate a *padded* lower triangle (row
//!   `i` computes `j < pad(i)`, `pad(i)` = `i+1` rounded up to a full
//!   4-lane) so the inner loop has no tail branch. The extra lanes land
//!   in scratch entries above the diagonal that are discarded at
//!   writeback; the surviving entries saw exactly the scalar op
//!   sequence.
//! * Cholesky and the triangular substitutions are reductions into one
//!   scalar, so they are unrolled without changing the strictly
//!   sequential `sum -= a[k]*b[k]` order (the unroll only removes loop
//!   and bounds-check overhead; the float ops are order-identical).
//! * The lane batch ([`GramKernel::solve_lanes`]) factors [`LANES`]
//!   independent systems side by side, one per `f64` lane of a
//!   `[f64; 4]`. Each lane runs exactly the scalar op sequence on its
//!   own system; lanes never mix, so no sum is reassociated. Only the
//!   schedule changes: four serial chains of divisions and square roots
//!   overlap instead of running one after another.
//!
//! The differential rig in `tests/kernel_parity_rig.rs` enforces this
//! contract at 0 ulp over adversarial geometries, and carries a negative
//! control proving it would detect a reassociating kernel.
//!
//! # Selection
//!
//! [`KernelVariant::auto`] picks the variant for a runtime rank: the
//! fixed-rank kernel when `r ∈ {4, 8, 16}` and the scalar reference
//! otherwise. [`set_kernel_override`] forces a variant process-wide —
//! `Some(KernelVariant::Scalar)` runs the whole pipeline on the scalar
//! reference. Because all variants agree bitwise, the override only
//! ever changes speed, never results.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::lstsq::{accumulate_gram, cholesky_solve_in_place, SolveError};

/// Ridge systems one lane batch holds: [`GramKernel::solve_lanes`]
/// factors this many side by side.
pub const LANES: usize = 4;

/// One `f64` per system of a lane batch.
pub type Lane = [f64; LANES];

/// Builds a [`Lane`] lane by lane: `f(l)` is lane `l`'s value.
#[inline(always)]
fn lanes(f: impl Fn(usize) -> f64) -> Lane {
    std::array::from_fn(f)
}

/// Which Gram/Cholesky kernel implementation a [`GramScratch`]
/// dispatches to. All variants are bit-for-bit identical; they differ
/// only in how the loops are laid out for the compiler.
///
/// [`GramScratch`]: crate::lstsq::GramScratch
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// The reference implementation in `lstsq` — simple nested loops,
    /// kept as the bit-exact baseline every other variant is diffed
    /// against.
    Scalar,
    /// Fully monomorphized rank-4 kernel.
    Fixed4,
    /// Fully monomorphized rank-8 kernel.
    Fixed8,
    /// Fully monomorphized rank-16 kernel.
    Fixed16,
}

impl KernelVariant {
    /// All variants, scalar first — handy for exhaustive parity sweeps.
    pub const ALL: [KernelVariant; 4] = [
        KernelVariant::Scalar,
        KernelVariant::Fixed4,
        KernelVariant::Fixed8,
        KernelVariant::Fixed16,
    ];

    /// Stable lower-case name used in bench JSON and error messages.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Fixed4 => "fixed4",
            KernelVariant::Fixed8 => "fixed8",
            KernelVariant::Fixed16 => "fixed16",
        }
    }

    /// Whether this variant can solve rank-`r` systems.
    pub fn supports(self, r: usize) -> bool {
        match self {
            KernelVariant::Scalar => true,
            KernelVariant::Fixed4 => r == 4,
            KernelVariant::Fixed8 => r == 8,
            KernelVariant::Fixed16 => r == 16,
        }
    }

    /// Every variant that supports rank `r`, scalar first.
    pub fn supported(r: usize) -> impl Iterator<Item = KernelVariant> {
        Self::ALL.into_iter().filter(move |v| v.supports(r))
    }

    /// Picks the variant for a runtime rank: the override installed by
    /// [`set_kernel_override`] when it supports `r`, else the fixed-rank
    /// kernel when one exists and the scalar reference otherwise. An
    /// override that cannot serve `r` falls back to that choice rather
    /// than panicking mid-sweep.
    pub fn auto(r: usize) -> KernelVariant {
        match kernel_override() {
            Some(forced) if forced.supports(r) => forced,
            _ => match r {
                4 => KernelVariant::Fixed4,
                8 => KernelVariant::Fixed8,
                16 => KernelVariant::Fixed16,
                _ => KernelVariant::Scalar,
            },
        }
    }

    /// Accumulates the ridge normal equations with this variant. Same
    /// contract (and same bits) as
    /// [`accumulate_gram`].
    ///
    /// # Panics
    ///
    /// Panics when buffer sizes disagree or the variant does not
    /// support `rhs.len()` (fixed-rank kernel fed the wrong rank).
    pub fn accumulate<'a>(
        self,
        rows: impl Iterator<Item = (&'a [f64], f64)>,
        lambda: f64,
        gram: &mut [f64],
        rhs: &mut [f64],
    ) {
        match self {
            KernelVariant::Scalar => accumulate_gram(rows, lambda, gram, rhs),
            KernelVariant::Fixed4 => GramKernel::<4>::accumulate(rows, lambda, gram, rhs),
            KernelVariant::Fixed8 => GramKernel::<8>::accumulate(rows, lambda, gram, rhs),
            KernelVariant::Fixed16 => GramKernel::<16>::accumulate(rows, lambda, gram, rhs),
        }
    }

    /// Factors and solves in place with this variant. Same contract
    /// (and same bits) as
    /// [`cholesky_solve_in_place`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotPositiveDefinite`] exactly when the
    /// scalar reference does, with the same pivot index.
    ///
    /// # Panics
    ///
    /// Panics when buffer sizes disagree or the variant does not
    /// support `rhs.len()`.
    pub fn solve_in_place(
        self,
        gram: &mut [f64],
        rhs: &[f64],
        y: &mut [f64],
        out: &mut [f64],
    ) -> Result<(), SolveError> {
        match self {
            KernelVariant::Scalar => cholesky_solve_in_place(gram, rhs, y, out),
            KernelVariant::Fixed4 => GramKernel::<4>::solve_in_place(gram, rhs, y, out),
            KernelVariant::Fixed8 => GramKernel::<8>::solve_in_place(gram, rhs, y, out),
            KernelVariant::Fixed16 => GramKernel::<16>::solve_in_place(gram, rhs, y, out),
        }
    }

    fn to_code(self) -> u8 {
        match self {
            KernelVariant::Scalar => 1,
            KernelVariant::Fixed4 => 2,
            KernelVariant::Fixed8 => 3,
            KernelVariant::Fixed16 => 4,
        }
    }

    fn from_code(code: u8) -> Option<KernelVariant> {
        match code {
            1 => Some(KernelVariant::Scalar),
            2 => Some(KernelVariant::Fixed4),
            3 => Some(KernelVariant::Fixed8),
            4 => Some(KernelVariant::Fixed16),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Process-global kernel override consulted by [`KernelVariant::auto`].
/// `0` means "no override"; other values are `to_code` outputs.
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces every subsequently constructed `GramScratch` onto `variant`
/// (or restores auto-selection with `None`). A bench/diagnostic hook,
/// and the one way to run the whole pipeline on the scalar reference
/// (`Some(KernelVariant::Scalar)`): because all variants are
/// bit-identical, flipping the override can change throughput but never
/// results, so it is safe even with concurrently running solvers.
///
/// Scratches constructed *before* the call keep their variant; use
/// `GramScratch::with_variant` for scoped, local control in tests.
pub fn set_kernel_override(variant: Option<KernelVariant>) {
    KERNEL_OVERRIDE.store(variant.map_or(0, KernelVariant::to_code), Ordering::Relaxed);
}

/// The override currently installed by [`set_kernel_override`], if any.
pub fn kernel_override() -> Option<KernelVariant> {
    KernelVariant::from_code(KERNEL_OVERRIDE.load(Ordering::Relaxed))
}

/// `sum - Σ a[k]·b[k]`, accumulated strictly left to right — the same
/// op order as the scalar reference loops — with the body unrolled 4×
/// to cut loop and bounds-check overhead. `a` and `b` must be equally
/// long.
#[inline(always)]
fn fold_neg_dot(mut sum: f64, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let main = n & !3;
    let mut k = 0;
    while k < main {
        sum -= a[k] * b[k];
        sum -= a[k + 1] * b[k + 1];
        sum -= a[k + 2] * b[k + 2];
        sum -= a[k + 3] * b[k + 3];
        k += 4;
    }
    while k < n {
        sum -= a[k] * b[k];
        k += 1;
    }
    sum
}

/// Cholesky + substitution body: [`GramKernel::solve_in_place`] passes
/// its rank `R`, so `#[inline(always)]` + const propagation hand the
/// compiler constant trip counts and the loops fully unroll.
///
/// Operation-for-operation the same float sequence as the scalar
/// [`cholesky_solve_in_place`]:
/// the reductions run strictly sequentially (see [`fold_neg_dot`]), so
/// results agree bitwise including the `NotPositiveDefinite` pivot
/// index.
#[inline(always)]
fn cholesky_solve_impl(
    r: usize,
    gram: &mut [f64],
    rhs: &[f64],
    y: &mut [f64],
    out: &mut [f64],
) -> Result<(), SolveError> {
    assert_eq!(rhs.len(), r, "rhs must be length r");
    assert_eq!(gram.len(), r * r, "gram buffer must be r*r");
    assert_eq!(y.len(), r, "y scratch must be length r");
    assert_eq!(out.len(), r, "out buffer must be length r");
    // In-place Cholesky of the lower triangle: gram becomes L.
    for i in 0..r {
        for j in 0..=i {
            let sum = {
                let row_i = &gram[i * r..i * r + j];
                let row_j = &gram[j * r..j * r + j];
                fold_neg_dot(gram[i * r + j], row_i, row_j)
            };
            if i == j {
                if sum <= 0.0 {
                    return Err(SolveError::NotPositiveDefinite { index: i });
                }
                gram[i * r + i] = sum.sqrt();
            } else {
                gram[i * r + j] = sum / gram[j * r + j];
            }
        }
    }
    // Forward: L y = rhs.
    for i in 0..r {
        let acc = fold_neg_dot(rhs[i], &gram[i * r..i * r + i], &y[..i]);
        y[i] = acc / gram[i * r + i];
    }
    // Backward: Lᵀ out = y. Column-strided access, so the unroll is
    // written out by hand instead of via `fold_neg_dot`.
    for i in (0..r).rev() {
        let mut acc = y[i];
        let mut k = i + 1;
        while k + 4 <= r {
            acc -= gram[k * r + i] * out[k];
            acc -= gram[(k + 1) * r + i] * out[k + 1];
            acc -= gram[(k + 2) * r + i] * out[k + 2];
            acc -= gram[(k + 3) * r + i] * out[k + 3];
            k += 4;
        }
        while k < r {
            acc -= gram[k * r + i] * out[k];
            k += 1;
        }
        out[i] = acc / gram[i * r + i];
    }
    Ok(())
}

/// Const-generic fixed-rank Gram/Cholesky kernel. `R` must be a
/// multiple of 4 (instantiated for 4, 8, 16 via
/// [`KernelVariant::auto`]); with the rank a compile-time constant the
/// accumulation loop becomes a branch-free padded triangle and the
/// solve fully unrolls into register-resident code.
pub struct GramKernel<const R: usize>;

impl<const R: usize> GramKernel<R> {
    /// Padded row width: `i + 1` rounded up to a whole 4-lane. For `R`
    /// a multiple of 4 this never exceeds `R`, so row `i` of the local
    /// triangle reads `row[0..pad(i)]` with no tail branch; lanes with
    /// `j > i` accumulate into scratch entries that writeback discards.
    #[inline(always)]
    fn pad(i: usize) -> usize {
        (i + 4) & !3
    }

    /// Fixed-rank Gram accumulation into a local `R × R` scratch
    /// triangle, written back (lower triangle + λ diagonal) at the end.
    /// Bit-for-bit identical to
    /// [`accumulate_gram`] at rank `R`.
    ///
    /// # Panics
    ///
    /// Panics when `rhs.len() != R`, `gram.len() != R²`, or a design
    /// row is shorter than `R`.
    pub fn accumulate<'a>(
        rows: impl Iterator<Item = (&'a [f64], f64)>,
        lambda: f64,
        gram: &mut [f64],
        rhs: &mut [f64],
    ) {
        assert_eq!(rhs.len(), R, "rhs must be length R");
        assert_eq!(gram.len(), R * R, "gram buffer must be R*R");
        let (acc, acc_rhs) = Self::accumulate_local(rows);
        // Writeback: lower triangle only (exactly what the solve
        // reads), zeros elsewhere, λ added to the accumulated diagonal
        // in the same final position as the scalar kernel.
        gram.fill(0.0);
        for i in 0..R {
            gram[i * R..i * R + i + 1].copy_from_slice(&acc[i][..i + 1]);
            gram[i * R + i] += lambda;
        }
        rhs.copy_from_slice(&acc_rhs);
    }

    /// The accumulation loop of [`GramKernel::accumulate`] and
    /// [`GramKernel::accumulate_lane`]: the padded triangle and the RHS
    /// in local arrays, before λ and writeback.
    #[inline(always)]
    fn accumulate_local<'a>(
        rows: impl Iterator<Item = (&'a [f64], f64)>,
    ) -> ([[f64; R]; R], [f64; R]) {
        assert!(R.is_multiple_of(4), "GramKernel requires a 4-lane rank");
        let mut acc = [[0.0f64; R]; R];
        let mut acc_rhs = [0.0f64; R];
        for (row, y) in rows {
            let row: &[f64; R] = row[..R].try_into().expect("design row shorter than rank");
            for i in 0..R {
                let di = row[i];
                let ai = &mut acc[i];
                let mut j = 0;
                while j < Self::pad(i) {
                    ai[j] += di * row[j];
                    ai[j + 1] += di * row[j + 1];
                    ai[j + 2] += di * row[j + 2];
                    ai[j + 3] += di * row[j + 3];
                    j += 4;
                }
                acc_rhs[i] += di * y;
            }
        }
        (acc, acc_rhs)
    }

    /// [`GramKernel::accumulate`] into lane `lane` of a lane batch:
    /// the same accumulation and the same final λ addition, written to
    /// `gram[i][j][lane]` (`j ≤ i`; the upper triangle is left alone)
    /// and `rhs[i][lane]` for [`GramKernel::solve_lanes`].
    ///
    /// # Panics
    ///
    /// Panics when `lane >= LANES` or a design row is shorter than `R`.
    pub fn accumulate_lane<'a>(
        rows: impl Iterator<Item = (&'a [f64], f64)>,
        lambda: f64,
        lane: usize,
        gram: &mut [[Lane; R]; R],
        rhs: &mut [Lane; R],
    ) {
        let (acc, acc_rhs) = Self::accumulate_local(rows);
        for i in 0..R {
            for j in 0..=i {
                gram[i][j][lane] = acc[i][j];
            }
            gram[i][i][lane] += lambda;
            rhs[i][lane] = acc_rhs[i];
        }
    }

    /// Factors and solves the [`LANES`] systems of a lane batch side by
    /// side, leaving lane `l`'s solution in `out[..][l]`. Lane by lane
    /// this performs exactly [`GramKernel::solve_in_place`]'s float ops
    /// in its order (Cholesky with strictly sequential `sum -= a·b`
    /// reductions, forward, then backward substitution); a `[f64; 4]`
    /// op is four independent IEEE ops and nothing is fused or
    /// reassociated, so every lane carries the bits of a one-system
    /// solve. The gain is latency: a rank-8 factor and its two
    /// substitutions are a serial chain of 44 divisions and 8 square
    /// roots, and four independent chains overlap where one would stall.
    ///
    /// Returns each lane's first non-positive pivot — the index
    /// [`SolveError::NotPositiveDefinite`] names for that system — or
    /// `None`. A failed lane runs on to the end (its solution is
    /// meaningless) so the other lanes stay branch-free.
    pub fn solve_lanes(
        gram: &mut [[Lane; R]; R],
        rhs: &[Lane; R],
        out: &mut [Lane; R],
    ) -> [Option<usize>; LANES] {
        let mut failed = [None; LANES];
        // In-place Cholesky of the lower triangle: gram becomes L.
        for i in 0..R {
            for j in 0..=i {
                let mut sum = gram[i][j];
                for k in 0..j {
                    sum = lanes(|l| sum[l] - gram[i][k][l] * gram[j][k][l]);
                }
                if i == j {
                    for (pivot, fail) in sum.iter().zip(&mut failed) {
                        if *pivot <= 0.0 && fail.is_none() {
                            *fail = Some(i);
                        }
                    }
                    gram[i][i] = lanes(|l| sum[l].sqrt());
                } else {
                    gram[i][j] = lanes(|l| sum[l] / gram[j][j][l]);
                }
            }
        }
        // Forward: L y = rhs.
        let mut y = [[0.0; LANES]; R];
        for i in 0..R {
            let mut acc = rhs[i];
            for k in 0..i {
                acc = lanes(|l| acc[l] - gram[i][k][l] * y[k][l]);
            }
            y[i] = lanes(|l| acc[l] / gram[i][i][l]);
        }
        // Backward: Lᵀ out = y.
        for i in (0..R).rev() {
            let mut acc = y[i];
            for k in i + 1..R {
                acc = lanes(|l| acc[l] - gram[k][i][l] * out[k][l]);
            }
            out[i] = lanes(|l| acc[l] / gram[i][i][l]);
        }
        failed
    }

    /// Fixed-rank in-place Cholesky solve: the shared order-preserving
    /// body monomorphized at `R`, so every loop bound is a constant.
    /// Bit-for-bit identical to
    /// [`cholesky_solve_in_place`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotPositiveDefinite`] exactly when the
    /// scalar reference does, with the same pivot index.
    ///
    /// # Panics
    ///
    /// Panics when `rhs.len() != R` or the other buffers disagree.
    pub fn solve_in_place(
        gram: &mut [f64],
        rhs: &[f64],
        y: &mut [f64],
        out: &mut [f64],
    ) -> Result<(), SolveError> {
        assert_eq!(rhs.len(), R, "rhs must be length R");
        cholesky_solve_impl(R, gram, rhs, y, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_picks_fixed_rank_when_available() {
        set_kernel_override(None);
        assert_eq!(KernelVariant::auto(4), KernelVariant::Fixed4);
        assert_eq!(KernelVariant::auto(8), KernelVariant::Fixed8);
        assert_eq!(KernelVariant::auto(16), KernelVariant::Fixed16);
        for r in [1, 2, 3, 5, 12, 17] {
            assert_eq!(KernelVariant::auto(r), KernelVariant::Scalar, "rank {r}");
        }
    }

    #[test]
    fn supported_lists_scalar_first() {
        let at_8: Vec<_> = KernelVariant::supported(8).collect();
        assert_eq!(at_8, [KernelVariant::Scalar, KernelVariant::Fixed8]);
        let at_5: Vec<_> = KernelVariant::supported(5).collect();
        assert_eq!(at_5, [KernelVariant::Scalar]);
    }

    #[test]
    fn display_matches_name() {
        for v in KernelVariant::ALL {
            assert_eq!(v.to_string(), v.name());
        }
    }

    #[test]
    fn padded_width_stays_within_rank() {
        for i in 0..8 {
            let pad = GramKernel::<8>::pad(i);
            assert!(pad > i && pad <= 8 && pad.is_multiple_of(4), "pad({i}) = {pad}");
        }
        for i in 0..16 {
            let pad = GramKernel::<16>::pad(i);
            assert!(pad > i && pad <= 16 && pad.is_multiple_of(4), "pad({i}) = {pad}");
        }
    }
}
