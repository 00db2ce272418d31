//! Parity guarantees of the allocation-free Gram-kernel ALS path.
//!
//! Two layers: a property test that the kernel (normal-equations) route
//! and the QR route agree within float tolerance across random masks,
//! ranks, and lambdas; and a bit-for-bit test that the kernel path
//! reproduces *exactly* what the pre-refactor allocating
//! normal-equations sweep computed (materialized design matrix per unit,
//! `solve_normal_equations`, `L·Rᵀ` via explicit transpose), pinning the
//! refactor as a pure reimplementation rather than a numerical change.
//!
//! Every check that runs the solver on auto-dispatched kernels runs it
//! twice: under auto dispatch and with the scalar reference forced
//! through `set_kernel_override` (see [`on_auto_and_scalar`]).

use std::sync::{Mutex, PoisonError};

use linalg::kernel::{set_kernel_override, KernelVariant};
use linalg::lstsq::{solve_normal_equations, GramScratch, RidgeSolver};
use linalg::Matrix;
use probes::mask::random_mask;
use probes::Tcm;
use proptest::prelude::*;
use rand::SeedableRng;
use traffic_cs::cs::{complete_matrix, complete_matrix_detailed, CsConfig};

fn low_rank_tcm(m: usize, n: usize, rank: usize, integrity: f64, seed: u64) -> Tcm {
    let truth = Matrix::from_fn(m, n, |t, s| {
        let mut v = 20.0;
        for k in 0..rank {
            let f = (2.0 * std::f64::consts::PI * (k + 1) as f64 * t as f64 / m as f64).sin();
            let w = (((s + 1) * (k + 2) * 2654435761) % 773) as f64 / 773.0;
            v += 3.0 * f * w;
        }
        v
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mask = random_mask(m, n, integrity, &mut rng);
    Tcm::complete(truth).masked(&mask).expect("mask shape matches")
}

/// Serializes the tests that set the process-global kernel override, so
/// one test's scalar leg never runs inside another's auto leg. A lock
/// poisoned by a failed test is taken over: every holder sets the
/// override itself before it solves.
static OVERRIDE: Mutex<()> = Mutex::new(());

/// Runs `check` under auto dispatch, then again with every solver forced
/// onto the scalar reference, passing the leg's name for failure
/// messages. A pinned check that passes both legs holds the fixed-rank
/// kernels and the scalar reference to the same bits end to end.
fn on_auto_and_scalar(check: impl Fn(&str)) {
    let _serial = OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner);
    for (leg, forced) in [("auto", None), ("scalar", Some(KernelVariant::Scalar))] {
        set_kernel_override(forced);
        check(leg);
    }
    set_kernel_override(None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Gram-kernel path must agree with the QR path within 1e-5 on
    /// random problems — same contract the fixed `solvers_agree` test
    /// pins, but swept across masks, ranks, and lambdas.
    #[test]
    fn gram_kernel_matches_qr_across_problems(
        m in 12usize..40,
        n in 10usize..30,
        rank in 1usize..5,
        lambda in 0.05f64..20.0,
        integrity in 0.3f64..0.9,
        seed in 0u64..1000,
    ) {
        let tcm = low_rank_tcm(m, n, rank + 1, integrity, seed);
        prop_assume!(tcm.observed_count() > 0);
        let cfg = |solver| CsConfig {
            rank,
            lambda,
            iterations: 15,
            solver,
            seed: seed.wrapping_mul(31).wrapping_add(7),
            ..CsConfig::default()
        };
        let ne = complete_matrix(&tcm, &cfg(RidgeSolver::NormalEquations)).unwrap();
        let qr = complete_matrix(&tcm, &cfg(RidgeSolver::Qr)).unwrap();
        prop_assert!(
            ne.approx_eq(&qr, 1e-5),
            "kernel and QR paths diverge (m={m} n={n} rank={rank} λ={lambda:.3} \
             integrity={integrity:.2} seed={seed})"
        );
    }
}

/// Pre-refactor Algorithm 1, literally: nested-`Vec` observation index,
/// a freshly materialized `obs×r` design matrix and RHS per unit,
/// `solve_normal_equations` (allocating Gram + Cholesky), objective as
/// per-column partials in column order, reconstruction through
/// `matmul(&transpose())`.
fn reference_als(tcm: &Tcm, config: &CsConfig) -> (Matrix, f64) {
    let (m, n) = tcm.values().shape();
    let r = config.rank;
    let mut col_obs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut row_obs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for (i, j, v) in tcm.observed_entries() {
        col_obs[j].push((i, v));
        row_obs[i].push((j, v));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut l = Matrix::random_uniform(m, r, &mut rng, 0.0, 1.0);
    let mut rmat = Matrix::zeros(n, r);
    let solve = |design: &Matrix, obs_per_unit: &[Vec<(usize, f64)>], out: &mut Matrix| {
        for (unit, obs) in obs_per_unit.iter().enumerate() {
            if obs.is_empty() {
                out.row_mut(unit).fill(0.0);
                continue;
            }
            let a = Matrix::from_fn(obs.len(), r, |i, k| design.get(obs[i].0, k));
            let b = Matrix::from_fn(obs.len(), 1, |i, _| obs[i].1);
            let sol = solve_normal_equations(&a, &b, config.lambda).expect("reference solve");
            for (k, slot) in out.row_mut(unit).iter_mut().enumerate() {
                *slot = sol.get(k, 0);
            }
        }
    };
    let mut best: Option<(f64, Matrix, Matrix)> = None;
    for _ in 0..config.iterations {
        solve(&l.clone(), &col_obs, &mut rmat);
        solve(&rmat.clone(), &row_obs, &mut l);
        let fit: f64 = (0..n)
            .map(|j| {
                let mut partial = 0.0;
                for &(i, v) in &col_obs[j] {
                    let mut pred = 0.0;
                    for k in 0..r {
                        pred += l.get(i, k) * rmat.get(j, k);
                    }
                    partial += (pred - v) * (pred - v);
                }
                partial
            })
            .sum();
        let v = fit + config.lambda * (l.frobenius_norm_sq() + rmat.frobenius_norm_sq());
        if best.as_ref().is_none_or(|(bv, _, _)| v < *bv) {
            best = Some((v, l.clone(), rmat.clone()));
        }
    }
    let (objective, bl, br) = best.expect("at least one sweep");
    (bl.matmul(&br.transpose()).expect("shapes agree"), objective)
}

/// The kernel path is a reimplementation, not a renumbering: on a fixed
/// seed it must reproduce the pre-refactor estimate bit for bit.
#[test]
fn kernel_path_equals_prerefactor_estimate_bitwise() {
    on_auto_and_scalar(|leg| {
        for (m, n, rank, lambda, integrity, seed) in
            [(30, 20, 3, 0.5, 0.5, 42), (48, 25, 2, 100.0, 0.25, 7), (20, 35, 4, 1e-3, 0.7, 99)]
        {
            let tcm = low_rank_tcm(m, n, rank + 1, integrity, seed);
            let cfg = CsConfig {
                rank,
                lambda,
                iterations: 12,
                tol: 0.0,
                seed: seed * 3 + 1,
                num_threads: 1,
                ..CsConfig::default()
            };
            let (expected, expected_objective) = reference_als(&tcm, &cfg);
            let got = complete_matrix_detailed(&tcm, &cfg).unwrap();
            assert!(
                got.objective.to_bits() == expected_objective.to_bits(),
                "{leg}: objective differs: {} vs {} (m={m} n={n} rank={rank})",
                got.objective,
                expected_objective
            );
            assert_eq!(got.estimate.shape(), expected.shape());
            for (idx, (x, y)) in got.estimate.as_slice().iter().zip(expected.as_slice()).enumerate()
            {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "{leg}: entry {idx} differs bitwise: {x:?} vs {y:?} \
                     (m={m} n={n} rank={rank} λ={lambda})"
                );
            }
        }
    });
}

/// Same bitwise pin for the multi-threaded kernel path: threading moves
/// units between workers (and scratch buffers) but must not move a
/// single bit of the output.
#[test]
fn threaded_kernel_path_equals_prerefactor_estimate_bitwise() {
    // Big enough that the 32_768 work gate genuinely engages workers.
    let tcm = low_rank_tcm(200, 100, 5, 0.5, 11);
    let cfg = CsConfig {
        rank: 4,
        lambda: 0.5,
        iterations: 8,
        tol: 0.0,
        seed: 5,
        num_threads: 4,
        ..CsConfig::default()
    };
    let (expected, _) = reference_als(&tcm, &cfg);
    on_auto_and_scalar(|leg| {
        let got = complete_matrix(&tcm, &cfg).unwrap();
        for (idx, (x, y)) in got.as_slice().iter().zip(expected.as_slice()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{leg}: entry {idx} differs bitwise: {x:?} vs {y:?}"
            );
        }
    });
}

// ---------------------------------------------------------------------
// Golden-bit vectors for the fixed-rank kernels.
//
// The inputs are exact dyadic rationals built from a closed-form integer
// recurrence (no RNG, no platform dependence), so the accumulated Gram
// triangle and RHS are exactly representable and the full solve is a
// deterministic float program. The expected bits below were produced by
// `regenerate_golden_vectors` (run with `--ignored --nocapture`) and
// pinned: a toolchain or codegen change that flips a single bit in any
// kernel variant fails with the exact lane named. Every variant that
// supports the rank — scalar and fixed-R — must land on the same pinned
// bits, so this doubles as a cross-variant parity pin.
// ---------------------------------------------------------------------

/// λ for the golden problems: exactly representable, and large enough
/// to keep the (deliberately rank-deficient at R = 16) designs PD.
const GOLDEN_LAMBDA: f64 = 0.25;

/// `R + 3` design rows of dyadic rationals in [-0.5, 1.0]; rows repeat
/// with period 13 in `i`, so the R = 16 design is rank deficient and
/// leans on λ — the adversarial corner the fixed-rank writeback and the
/// λ placement must both survive.
fn golden_rows(r: usize) -> Vec<(Vec<f64>, f64)> {
    (0..r + 3)
        .map(|i| {
            let row =
                (0..r).map(|j| ((i * 31 + j * 17) % 13) as f64 / 8.0 - 0.5).collect::<Vec<_>>();
            let y = ((i * 7) % 11) as f64 / 4.0 - 1.0;
            (row, y)
        })
        .collect()
}

/// Checks every supporting kernel variant against the pinned bits,
/// naming the variant and the exact Gram lane / vector slot on failure.
fn check_golden(r: usize, gram_tri: &[u64], rhs_bits: &[u64], sol_bits: &[u64]) {
    assert_eq!(gram_tri.len(), r * (r + 1) / 2);
    let rows = golden_rows(r);
    for variant in KernelVariant::supported(r) {
        let mut gram = vec![0.0; r * r];
        let mut rhs = vec![0.0; r];
        variant.accumulate(
            rows.iter().map(|(row, y)| (row.as_slice(), *y)),
            GOLDEN_LAMBDA,
            &mut gram,
            &mut rhs,
        );
        let mut tri = 0;
        for i in 0..r {
            for j in 0..=i {
                let got = gram[i * r + j];
                assert!(
                    got.to_bits() == gram_tri[tri],
                    "R={r} variant {variant}: gram lane [{i}][{j}] = {got:?} \
                     ({:#018x}), pinned {:#018x}",
                    got.to_bits(),
                    gram_tri[tri]
                );
                tri += 1;
            }
        }
        for (k, &want) in rhs_bits.iter().enumerate() {
            assert!(
                rhs[k].to_bits() == want,
                "R={r} variant {variant}: rhs slot [{k}] = {:?} ({:#018x}), pinned {want:#018x}",
                rhs[k],
                rhs[k].to_bits()
            );
        }
        let mut scratch = GramScratch::with_variant(r, variant);
        let mut out = vec![0.0; r];
        scratch
            .solve_ridge(rows.iter().map(|(row, y)| (row.as_slice(), *y)), GOLDEN_LAMBDA, &mut out)
            .unwrap_or_else(|e| panic!("R={r} variant {variant}: golden solve failed: {e}"));
        for (k, &want) in sol_bits.iter().enumerate() {
            assert!(
                out[k].to_bits() == want,
                "R={r} variant {variant}: solution slot [{k}] = {:?} ({:#018x}), \
                 pinned {want:#018x}",
                out[k],
                out[k].to_bits()
            );
        }
    }
}

#[test]
fn golden_bits_rank_4() {
    check_golden(4, &golden::GRAM_4, &golden::RHS_4, &golden::SOL_4);
}

#[test]
fn golden_bits_rank_8() {
    check_golden(8, &golden::GRAM_8, &golden::RHS_8, &golden::SOL_8);
}

#[test]
fn golden_bits_rank_16() {
    check_golden(16, &golden::GRAM_16, &golden::RHS_16, &golden::SOL_16);
}

/// Prints the golden arrays for pasting into the `golden` module after
/// an *intentional* kernel change. Scalar is the authority; the checks
/// above then hold every other variant to the same bits.
#[test]
#[ignore = "regenerates the pinned vectors; run with --ignored --nocapture"]
fn regenerate_golden_vectors() {
    for r in [4usize, 8, 16] {
        let rows = golden_rows(r);
        let mut gram = vec![0.0; r * r];
        let mut rhs = vec![0.0; r];
        KernelVariant::Scalar.accumulate(
            rows.iter().map(|(row, y)| (row.as_slice(), *y)),
            GOLDEN_LAMBDA,
            &mut gram,
            &mut rhs,
        );
        let mut scratch = GramScratch::with_variant(r, KernelVariant::Scalar);
        let mut out = vec![0.0; r];
        scratch
            .solve_ridge(rows.iter().map(|(row, y)| (row.as_slice(), *y)), GOLDEN_LAMBDA, &mut out)
            .unwrap();
        let tri: Vec<String> = (0..r)
            .flat_map(|i| (0..=i).map(move |j| (i, j)))
            .map(|(i, j)| format!("{:#018x}", gram[i * r + j].to_bits()))
            .collect();
        println!("pub const GRAM_{r}: [u64; {}] = [\n    {},\n];", tri.len(), tri.join(",\n    "));
        let fmt = |v: &[f64]| {
            v.iter().map(|x| format!("{:#018x}", x.to_bits())).collect::<Vec<_>>().join(",\n    ")
        };
        println!("pub const RHS_{r}: [u64; {r}] = [\n    {},\n];", fmt(&rhs));
        println!("pub const SOL_{r}: [u64; {r}] = [\n    {},\n];", fmt(&out));
    }
}

/// Pinned bits for the golden problems (see `regenerate_golden_vectors`).
#[rustfmt::skip]
mod golden {
    pub const GRAM_4: [u64; 10] = [
        0x4002400000000000,
        0xbfb0000000000000,
        0x3ffe000000000000,
        0xbfc0000000000000,
        0x3fb0000000000000,
        0x4004400000000000,
        0x3ff0800000000000,
        0xbfd2000000000000,
        0x3fdc000000000000,
        0x4005000000000000,
    ];
    pub const RHS_4: [u64; 4] = [
        0xbfd2000000000000,
        0x4000800000000000,
        0x3ff2800000000000,
        0xc001800000000000,
    ];
    pub const SOL_4: [u64; 4] = [
        0x3fd87bd87de4fcda,
        0x3fee35a46fd17eb4,
        0x3fe3ee4fca384d6c,
        0xbfef8fa1a242f716,
    ];
    pub const GRAM_8: [u64; 36] = [
        0x400d200000000000,
        0xbfdd000000000000,
        0x4006200000000000,
        0xbfce000000000000,
        0xbfca000000000000,
        0x4009000000000000,
        0x4001c00000000000,
        0xbfe6000000000000,
        0x3fd1000000000000,
        0x400da00000000000,
        0x3fca000000000000,
        0x3ff7800000000000,
        0xbfe0800000000000,
        0xbfd1000000000000,
        0x4008a00000000000,
        0xbfd9000000000000,
        0x3fe2800000000000,
        0x3ffc000000000000,
        0xbfc0000000000000,
        0x3fa0000000000000,
        0x400a400000000000,
        0x3ff4000000000000,
        0xbfe7000000000000,
        0x3fef000000000000,
        0x4002000000000000,
        0xbfe1000000000000,
        0x3fd6000000000000,
        0x400da00000000000,
        0x3ff1000000000000,
        0x3fe4000000000000,
        0xbfe4000000000000,
        0x3fd7000000000000,
        0x3ffc000000000000,
        0xbfd4000000000000,
        0xbfc2000000000000,
        0x400aa00000000000,
    ];
    pub const RHS_8: [u64; 8] = [
        0x3fda000000000000,
        0x4004c00000000000,
        0x3fd4000000000000,
        0xbff9000000000000,
        0x4005400000000000,
        0x3ff3000000000000,
        0xc009000000000000,
        0x3ffe800000000000,
    ];
    pub const SOL_8: [u64; 8] = [
        0x3fe0ea1fb1169490,
        0x3fe001ef8c225543,
        0x3fdd9ba0df483760,
        0xbfb567d58d030c51,
        0x3fd917eac6c855e5,
        0x3fc98e403bc80d40,
        0xbfee6e20700a1c14,
        0x3fc6d55ef3cd1f6e,
    ];
    pub const GRAM_16: [u64; 136] = [
        0x4017c00000000000,
        0xbfb0000000000000,
        0x4015200000000000,
        0xbfe1000000000000,
        0xbfdc000000000000,
        0x4014c00000000000,
        0x400bc00000000000,
        0xbfe4000000000000,
        0x3fe2000000000000,
        0x4019100000000000,
        0x3fd7000000000000,
        0x400d400000000000,
        0xbfef000000000000,
        0xbfe0800000000000,
        0x4014400000000000,
        0xbfe7000000000000,
        0x3ff0800000000000,
        0x4006400000000000,
        0xbfc2000000000000,
        0x3fc8000000000000,
        0x4016900000000000,
        0x4002200000000000,
        0xbfef800000000000,
        0x3ff0c00000000000,
        0x4012000000000000,
        0xbfef800000000000,
        0x3fa0000000000000,
        0x4017100000000000,
        0x4001a00000000000,
        0x3ffe000000000000,
        0xbff1800000000000,
        0x3fea000000000000,
        0x4005c00000000000,
        0xbfdd000000000000,
        0x3fa0000000000000,
        0x4016900000000000,
        0xbfed000000000000,
        0x3ffb000000000000,
        0x3ffa400000000000,
        0xbfe4800000000000,
        0x3fe7800000000000,
        0x400f800000000000,
        0xbfe2800000000000,
        0xbfcc000000000000,
        0x4015100000000000,
        0x3feb800000000000,
        0xbfe7800000000000,
        0x4007a00000000000,
        0x4004a00000000000,
        0xbff0c00000000000,
        0x3ff6c00000000000,
        0x400a400000000000,
        0xbfe1800000000000,
        0x3fe0000000000000,
        0x4018400000000000,
        0x4008400000000000,
        0x3fed000000000000,
        0xbff3800000000000,
        0x3ff5400000000000,
        0x3ffa400000000000,
        0xbfec800000000000,
        0x3fdc000000000000,
        0x4010000000000000,
        0xbfe8800000000000,
        0xbfdd000000000000,
        0x4015900000000000,
        0xbfd2000000000000,
        0x400fc00000000000,
        0x3fd3000000000000,
        0xbfe1000000000000,
        0x4005a00000000000,
        0x4000a00000000000,
        0xbfe9000000000000,
        0x3ff3c00000000000,
        0x4006c00000000000,
        0xbfcc000000000000,
        0x3fd8000000000000,
        0x4016c00000000000,
        0x3fb0000000000000,
        0xbfe6000000000000,
        0x400ec00000000000,
        0x3ff7800000000000,
        0xbff1c00000000000,
        0x4000000000000000,
        0x4000800000000000,
        0xbfed800000000000,
        0x3fef000000000000,
        0x4011200000000000,
        0xbfee000000000000,
        0xbfb0000000000000,
        0x4016200000000000,
        0x4016c00000000000,
        0xbfb0000000000000,
        0xbfe1000000000000,
        0x400bc00000000000,
        0x3fd7000000000000,
        0xbfe7000000000000,
        0x4002200000000000,
        0x4001a00000000000,
        0xbfed000000000000,
        0x3feb800000000000,
        0x4008400000000000,
        0xbfd2000000000000,
        0x3fb0000000000000,
        0x4017c00000000000,
        0xbfb0000000000000,
        0x4014200000000000,
        0xbfdc000000000000,
        0xbfe4000000000000,
        0x400d400000000000,
        0x3ff0800000000000,
        0xbfef800000000000,
        0x3ffe000000000000,
        0x3ffb000000000000,
        0xbfe7800000000000,
        0x3fed000000000000,
        0x400fc00000000000,
        0xbfe6000000000000,
        0xbfb0000000000000,
        0x4015200000000000,
        0xbfe1000000000000,
        0xbfdc000000000000,
        0x4013c00000000000,
        0x3fe2000000000000,
        0xbfef000000000000,
        0x4006400000000000,
        0x3ff0c00000000000,
        0xbff1800000000000,
        0x3ffa400000000000,
        0x4007a00000000000,
        0xbff3800000000000,
        0x3fd3000000000000,
        0x400ec00000000000,
        0xbfe1000000000000,
        0xbfdc000000000000,
        0x4014c00000000000,
    ];
    pub const RHS_16: [u64; 16] = [
        0x4003800000000000,
        0x4012a00000000000,
        0xc000800000000000,
        0xbfd0000000000000,
        0x4011a00000000000,
        0x3fee000000000000,
        0xc001000000000000,
        0x4010a00000000000,
        0x3ffe800000000000,
        0xbff2800000000000,
        0x400c000000000000,
        0x4010600000000000,
        0xc00b800000000000,
        0x4003800000000000,
        0x4012a00000000000,
        0xc000800000000000,
    ];
    pub const SOL_16: [u64; 16] = [
        0x3fc8895e8ee3a0fb,
        0x3fc88a6ec0b73ef5,
        0x3f9ffb9e4c23d7d3,
        0x3fb9df8d0db66196,
        0x3fc4828996acb97e,
        0x3fc3b9e2558f2f69,
        0xbfe202c0a3b200a9,
        0x3fc46da843ad9ece,
        0x3fc41fe24142bf66,
        0x3fe8b308ebf160ee,
        0x3fc456dae2fdc00f,
        0x3fc4c2bc2d610fbb,
        0xbff081d5c84cf50c,
        0x3fc8895e8ee3a0b5,
        0x3fc88a6ec0b73f88,
        0x3f9ffb9e4c23d6eb,
    ];
}

/// The bitwise pre-refactor pin at the fixed-kernel ranks: rank 8 and
/// rank 16 dispatch to `Fixed8`/`Fixed16` (auto) or scalar (forced),
/// and either way must reproduce the allocating reference estimate and
/// objective exactly.
#[test]
fn fixed_rank_kernel_path_equals_prerefactor_estimate_bitwise() {
    on_auto_and_scalar(|leg| {
        for (m, n, rank, lambda, integrity, seed, iterations) in
            [(40, 26, 8, 0.5, 0.5, 3, 8), (36, 24, 16, 1.0, 0.7, 9, 6)]
        {
            let tcm = low_rank_tcm(m, n, rank + 1, integrity, seed);
            let cfg = CsConfig {
                rank,
                lambda,
                iterations,
                tol: 0.0,
                seed: seed * 5 + 2,
                num_threads: 1,
                ..CsConfig::default()
            };
            let (expected, expected_objective) = reference_als(&tcm, &cfg);
            let got = complete_matrix_detailed(&tcm, &cfg).unwrap();
            assert_eq!(
                got.objective.to_bits(),
                expected_objective.to_bits(),
                "{leg}: rank-{rank} objective differs: {} vs {expected_objective}",
                got.objective
            );
            for (idx, (x, y)) in got.estimate.as_slice().iter().zip(expected.as_slice()).enumerate()
            {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "{leg}: rank={rank} entry {idx} differs bitwise: {x:?} vs {y:?}"
                );
            }
        }
    });
}

/// End-to-end serve-engine replay parity across kernel variants: the
/// same report stream driven through a scalar-forced engine and an
/// auto-kernel engine must produce byte-identical checkpoints and
/// bit-identical live estimates, and a checkpoint written by one must
/// restore and re-checkpoint identically under the other. This is the
/// system-level closure of the rig's 0-ulp policy — with no permitted
/// divergence, the chaos oracles cannot tell the kernels apart.
#[test]
fn service_replay_is_kernel_variant_invariant() {
    use traffic_cs::service::{Observation, ServeConfig};
    use traffic_cs::ShardedService;
    let _serial = OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner);

    fn replay_config() -> ServeConfig {
        ServeConfig::builder()
            .slot_len_s(60)
            .window_slots(6)
            .num_segments(8)
            .cs(CsConfig {
                rank: 4,
                lambda: 0.3,
                iterations: 12,
                num_threads: 1,
                ..CsConfig::default()
            })
            .build()
            .unwrap()
    }

    fn run(forced: Option<KernelVariant>) -> (String, Vec<u64>) {
        set_kernel_override(forced);
        let mut s = ShardedService::new(replay_config()).unwrap();
        for step in 0..8u64 {
            for v in 0..12u64 {
                s.push(Observation {
                    vehicle: v,
                    timestamp_s: step * 60 + (v % 6) * 7,
                    segment: (v as usize * 3 + step as usize) % 8,
                    speed_kmh: 22.0 + ((v * 13 + step * 5) % 17) as f64,
                });
            }
            s.advance_clock(step * 60 + 59);
            s.tick();
        }
        let bits = s
            .latest()
            .expect("stream produced an estimate")
            .estimate
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let out = (s.checkpoint(), bits);
        set_kernel_override(None);
        out
    }

    let (scalar_ckpt, scalar_bits) = run(Some(KernelVariant::Scalar));
    let (auto_ckpt, auto_bits) = run(None);
    assert_eq!(scalar_bits, auto_bits, "live estimates diverged across kernel variants");
    assert_eq!(scalar_ckpt, auto_ckpt, "checkpoints diverged across kernel variants");

    // Cross-restore: a scalar-produced checkpoint restored under auto
    // kernels must re-checkpoint byte-for-byte (and vice versa).
    for forced in [None, Some(KernelVariant::Scalar)] {
        set_kernel_override(forced);
        let mut s = ShardedService::new(replay_config()).unwrap();
        s.restore(&scalar_ckpt).unwrap();
        assert_eq!(s.checkpoint(), scalar_ckpt, "cross-variant restore round trip drifted");
        set_kernel_override(None);
    }
}

/// An integer-generated streaming window: about one cell in four holds
/// one to three reports whose speeds are integers over 4, so every
/// gathered `sum / count` (and every bit pinned below) follows from
/// IEEE arithmetic alone — no transcendental function, so no libm.
fn integer_window(m: usize, n: usize) -> probes::stream::StreamingTcm {
    let mut s = probes::stream::StreamingTcm::new(0, 60, m, n).unwrap();
    for slot in 0..m {
        for seg in 0..n {
            let h = (slot * n + seg).wrapping_mul(2_654_435_761) >> 7;
            if !h.is_multiple_of(4) {
                continue;
            }
            for k in 0..1 + (h >> 2) % 3 {
                let quarters = 80 + (seg % 13) * 4 + (slot % 6) * (seg % 5 + 1) + k * 3;
                s.observe((slot * 60 + k) as u64, seg, quarters as f64 / 4.0).unwrap();
            }
        }
    }
    s
}

/// Slides `s` one slot (a report on every seventh segment of the new
/// head) and rewrites a few in-window cells, all with integer speeds.
fn integer_round(s: &mut probes::stream::StreamingTcm) {
    let n = s.num_segments();
    let head = s.head_slot() + 1;
    for seg in (0..n).step_by(7) {
        s.observe((head * 60) as u64, seg, (90 + seg % 29) as f64 / 2.0).unwrap();
    }
    for k in 0..n / 16 {
        let row = k % (s.window_slots() - 1);
        let seg = (k * 37) % n;
        let ts = ((s.tail_slot() + row) * 60 + 30) as u64;
        s.observe(ts, seg, (100 + k % 17) as f64 / 4.0).unwrap();
    }
}

fn digest(parts: &[&[f64]]) -> u64 {
    let mut h = telemetry::Fnv::new();
    for part in parts {
        for v in *part {
            h.write_u64(v.to_bits());
        }
    }
    h.finish()
}

/// `(cold, warm)` FNV digests of one cold `update_detailed` (estimate,
/// both factors, objective) and the warm pass after one
/// [`integer_round`] (new `R`, estimate, objective).
fn solve_digests(m: usize, n: usize, rank: usize, lambda: f64, threads: usize) -> (u64, u64) {
    use traffic_cs::online::OnlineEstimator;
    let cfg = CsConfig {
        rank,
        lambda,
        iterations: 8,
        tol: 0.0,
        seed: 5,
        num_threads: threads,
        ..CsConfig::default()
    };
    let mut stream = integer_window(m, n);
    let mut online = OnlineEstimator::new(cfg, m).unwrap();
    let cold = online.update_detailed(&stream.snapshot()).unwrap();
    let (l, r) = &cold.factors;
    let cold_digest =
        digest(&[cold.estimate.as_slice(), l.as_slice(), r.as_slice(), &[cold.objective]]);
    let mut estimate = cold.estimate;
    integer_round(&mut stream);
    let objective = online.update_pass(&stream, &mut estimate).unwrap();
    let warm_r = online.warm_factors().unwrap();
    (cold_digest, digest(&[warm_r.as_slice(), estimate.as_slice(), &[objective]]))
}

/// Golden digests of the serve path's two solves: a warm pass and a
/// cold solve on two integer-generated windows (16 × 2,048 at rank 8,
/// the `metro-sparse` shape scaled down; 8 × 1,024 at rank 4, a
/// `wire-mixed` shard's rank), at 1, 2 and 8 threads. The pins were
/// recorded with the one-unit-at-a-time solver, so any later kernel or
/// batching change that moves a bit fails here — under auto dispatch
/// (the fixed-rank four-lane batches) and on the scalar reference.
#[test]
fn warm_pass_and_cold_solve_match_golden_digests() {
    const GOLDEN: [(usize, usize, usize, f64, u64, u64); 2] = [
        (16, 2048, 8, 0.1, 0xb777_c208_30f0_fad3, 0x2074_da24_c795_d942),
        (8, 1024, 4, 0.3, 0xa51f_23e0_545e_a717, 0x4e98_a2ef_a8b7_e37b),
    ];
    on_auto_and_scalar(|leg| {
        for (m, n, rank, lambda, cold, warm) in GOLDEN {
            for threads in [1usize, 2, 8] {
                let got = solve_digests(m, n, rank, lambda, threads);
                assert_eq!(got, (cold, warm), "{leg}: {m}x{n} rank {rank} at {threads} threads");
            }
        }
    });
}
