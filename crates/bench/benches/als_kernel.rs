//! Head-to-head bench of the allocation-free Gram-kernel ALS sweep
//! against the pre-refactor allocating path, plus the machine-readable
//! `results/BENCH_als.json` artifact CI archives as the perf trajectory.
//!
//! The baseline reimplements the old inner loop faithfully: nested-`Vec`
//! observation index, a `Matrix::from_fn` design matrix and RHS
//! materialized per unit per sweep, `solve_normal_equations` (which
//! itself allocates the Gram product, Cholesky factor, and solution),
//! and `L·Rᵀ` through an explicit transpose. The kernel path is the
//! shipping `complete_matrix`. Both run the same sweep count at the same
//! thread count, so the ratio is pure per-sweep arithmetic + allocator
//! traffic.
//!
//! A counting global allocator measures allocation totals for the JSON
//! report; the ≥2× per-sweep speedup target of DESIGN.md is checked on
//! the full 512×1024 rank-8 configuration (`CS_BENCH_QUICK` shrinks the
//! matrix for CI smoke runs, where the ratio is still reported but small
//! problems are noisier).
//!
//! On top of the baseline-vs-kernel pair, every [`KernelVariant`] that
//! supports the bench rank is timed through `set_kernel_override` — the
//! scalar reference and the monomorphized fixed-rank kernel — and the
//! per-variant numbers land in a `kernels` section of the JSON (schema
//! `cs-traffic-bench-als/v3`) plus one appended line in the tracked
//! `results/BENCH_als_trajectory.jsonl`. All four rows (baseline,
//! auto-dispatched kernel, and each variant) are timed interleaved run
//! by run, so a noisy stretch of a shared host lands on every row
//! instead of on one. With `CS_BENCH_ENFORCE` set the process exits 70
//! when the fixed-rank kernel is slower than the scalar reference, so
//! CI catches a specialization regression as a red leg instead of a
//! silent number.
//!
//! A `warm_pass` section times the serve path's per-tick solve: one
//! `OnlineEstimator::update_pass` on a 16 × 8,192 rank-8 window at ~25%
//! integrity (the shape of servebench's `metro-sparse`; `CS_BENCH_QUICK`
//! shrinks it to 16 × 1,024), under the `scalar` override (one unit at
//! a time) and under `fixed8` (four-lane batches), interleaved pass by
//! pass and split into its `L` step, `R` step and `L·Rᵀ` rewrite from
//! the pass's `online.pass` span. `CS_BENCH_ENFORCE` also fails the run
//! when `fixed8`'s pass is slower than `scalar`'s.

use criterion::{black_box, Criterion};
use linalg::kernel::{set_kernel_override, KernelVariant};
use linalg::lstsq::solve_normal_equations;
use linalg::Matrix;
use probes::mask::random_mask;
use probes::stream::StreamingTcm;
use probes::Tcm;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use telemetry::json::Json;
use traffic_cs::cs::{complete_matrix, CsConfig};
use traffic_cs::online::OnlineEstimator;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The pre-refactor ALS loop: per-unit `from_fn` design + allocating
/// normal-equations solve over a nested-`Vec` index.
fn baseline_als(tcm: &Tcm, cfg: &CsConfig) -> Matrix {
    let (m, n) = tcm.values().shape();
    let r = cfg.rank;
    let mut col_obs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut row_obs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for (i, j, v) in tcm.observed_entries() {
        col_obs[j].push((i, v));
        row_obs[i].push((j, v));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut l = Matrix::random_uniform(m, r, &mut rng, 0.0, 1.0);
    let mut rmat = Matrix::zeros(n, r);
    let solve = |design: &Matrix, obs: &[Vec<(usize, f64)>], out: &mut Matrix| {
        let mut rows: Vec<&mut [f64]> = out.as_mut_slice().chunks_mut(r).collect();
        let res: Result<(), ()> =
            workpool::try_parallel_for_each_mut(&mut rows, cfg.num_threads, |unit, row| {
                let entries = &obs[unit];
                if entries.is_empty() {
                    row.fill(0.0);
                    return Ok(());
                }
                let a = Matrix::from_fn(entries.len(), r, |i, k| design.get(entries[i].0, k));
                let b = Matrix::from_fn(entries.len(), 1, |i, _| entries[i].1);
                let sol = solve_normal_equations(&a, &b, cfg.lambda).expect("baseline solve");
                for (k, slot) in row.iter_mut().enumerate() {
                    *slot = sol.get(k, 0);
                }
                Ok(())
            });
        res.expect("baseline sweeps are infallible here");
    };
    let mut best: Option<(f64, Matrix, Matrix)> = None;
    for _ in 0..cfg.iterations {
        let design = l.clone();
        solve(&design, &col_obs, &mut rmat);
        let design = rmat.clone();
        solve(&design, &row_obs, &mut l);
        let fit: f64 = workpool::parallel_map_indexed(n, cfg.num_threads, |j| {
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
        .into_iter()
        .sum();
        let v = fit + cfg.lambda * (l.frobenius_norm_sq() + rmat.frobenius_norm_sq());
        if best.as_ref().is_none_or(|(bv, _, _)| v < *bv) {
            best = Some((v, l.clone(), rmat.clone()));
        }
    }
    let (_, bl, br) = best.expect("at least one sweep");
    bl.matmul(&br.transpose()).expect("factor shapes agree")
}

/// The 512×1024 rank-8 problem at 20% integrity (80% missing — the
/// paper's headline regime); `CS_BENCH_QUICK` shrinks it for CI.
fn bench_problem() -> (Tcm, CsConfig, bool) {
    let quick = std::env::var_os("CS_BENCH_QUICK").is_some();
    let (slots, segments) = if quick { (64, 128) } else { (512, 1024) };
    let truth = Matrix::from_fn(slots, segments, |t, s| {
        let mut v = 30.0;
        for k in 0..8usize {
            let f = (2.0 * std::f64::consts::PI * (k + 1) as f64 * t as f64 / slots as f64).sin();
            let w = (((s + 1) * (k + 3) * 2654435761) % 1000) as f64 / 1000.0;
            v += 4.0 * f * w;
        }
        v
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mask = random_mask(slots, segments, 0.2, &mut rng);
    let tcm = Tcm::complete(truth).masked(&mask).expect("mask shape matches");
    let cfg = CsConfig {
        rank: 8,
        lambda: 0.5,
        iterations: if quick { 6 } else { 20 },
        tol: 0.0,
        num_threads: 1,
        ..CsConfig::default()
    };
    (tcm, cfg, quick)
}

/// Runs behind each row of `BENCH_als.json` outside `warm_pass`: a row
/// is the median of this many runs, so one slow run on a shared host
/// moves neither the artifact nor the `CS_BENCH_ENFORCE` gate.
const RUNS: usize = 5;

/// Measured rows: for each of `paths`, the median wall time and the
/// median allocation count of [`RUNS`] runs. The runs are interleaved —
/// every path's `k`-th run before any path's `k + 1`-th — so a slow
/// stretch of a shared host spreads over all rows instead of landing
/// on one.
fn measure_interleaved(paths: &mut [Box<dyn FnMut() -> Matrix + '_>]) -> Vec<(f64, usize)> {
    let mut samples: Vec<(Vec<f64>, Vec<usize>)> = vec![Default::default(); paths.len()];
    for _ in 0..RUNS {
        for (f, (secs, allocs)) in paths.iter_mut().zip(&mut samples) {
            let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
            let start = Instant::now();
            black_box(f());
            let elapsed = start.elapsed().as_secs_f64();
            allocs.push(ALLOCATIONS.load(Ordering::Relaxed) - allocs_before);
            secs.push(elapsed);
        }
    }
    samples.into_iter().map(|(secs, allocs)| (median(secs), median(allocs))).collect()
}

fn bench_als_kernel(c: &mut Criterion) {
    let (tcm, cfg, _) = bench_problem();
    let mut group = c.benchmark_group("als_kernel");
    group.sample_size(10);
    group.bench_function("baseline_alloc_1_thread", |b| {
        b.iter(|| black_box(baseline_als(&tcm, &cfg)))
    });
    group.bench_function("gram_kernel_1_thread", |b| {
        b.iter(|| black_box(complete_matrix(&tcm, &cfg).unwrap()))
    });
    let all_cores = CsConfig { num_threads: 0, ..cfg.clone() };
    group.bench_function("gram_kernel_all_cores", |b| {
        b.iter(|| black_box(complete_matrix(&tcm, &all_cores).unwrap()))
    });
    for variant in KernelVariant::supported(cfg.rank) {
        set_kernel_override(Some(variant));
        group.bench_function(format!("gram_kernel_{}_1_thread", variant.name()), |b| {
            b.iter(|| black_box(complete_matrix(&tcm, &cfg).unwrap()))
        });
        set_kernel_override(None);
    }
    group.finish();
}

/// Runs `f` with the kernel pinned to `variant`, restoring auto
/// dispatch afterwards.
fn pinned<T>(variant: KernelVariant, f: impl FnOnce() -> T) -> T {
    set_kernel_override(Some(variant));
    let out = f();
    set_kernel_override(None);
    out
}

/// The warm-pass workload: a 16-slot window at ~25% integrity (a
/// multiplicative hash picks the cells) over 8,192 segments, or 1,024
/// with `quick`, and a rank-8 configuration that primes on it.
fn warm_pass_problem(quick: bool) -> (StreamingTcm, CsConfig) {
    let (slots, segments) = (16usize, if quick { 1_024 } else { 8_192 });
    let mut stream = StreamingTcm::new(0, 60, slots, segments).expect("non-empty window");
    for slot in 0..slots {
        for seg in 0..segments {
            if ((slot * segments + seg).wrapping_mul(2_654_435_761) >> 7) % 4 == 0 {
                let speed = 40.0 + (seg % 13) as f64 + ((slot % 6) * (1 + seg % 5)) as f64 / 2.0;
                stream.observe((slot * 60 + seg % 60) as u64, seg, speed).expect("valid report");
            }
        }
    }
    let cfg = CsConfig {
        rank: 8,
        lambda: 0.1,
        iterations: 10,
        tol: 0.0,
        num_threads: 1,
        ..CsConfig::default()
    };
    (stream, cfg)
}

/// One kernel variant's warm pass: median wall clock per pass, the
/// medians of the pass's stage split, and allocations per pass.
struct PassTiming {
    pass_ms: f64,
    l_step_ms: f64,
    r_step_ms: f64,
    rewrite_ms: f64,
    allocations_per_pass: f64,
}

fn median<T: Copy + PartialOrd>(mut xs: Vec<T>) -> T {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings and counts are ordered"));
    xs[xs.len() / 2]
}

/// Times `passes` warm passes per variant, each variant from its own
/// copy of the same primed state with the kernel pinned to it, the
/// variants interleaved pass by pass: first with telemetry off (wall
/// clock and allocations), then again at `Debug` level to read each
/// pass's `online.pass` stage split.
fn measure_warm_passes(
    stream: &StreamingTcm,
    primed: &OnlineEstimator,
    estimate: &Matrix,
    variants: &[KernelVariant],
    passes: usize,
) -> Vec<PassTiming> {
    let mut states: Vec<(OnlineEstimator, Matrix)> =
        variants.iter().map(|_| (primed.clone(), estimate.clone())).collect();
    let pass = |variant: KernelVariant, (online, est): &mut (OnlineEstimator, Matrix)| {
        pinned(variant, || black_box(online.update_pass(stream, est).expect("warm pass")));
    };
    for (&v, state) in variants.iter().zip(&mut states) {
        pass(v, state);
    }
    let mut times = vec![Vec::new(); variants.len()];
    let mut allocations = vec![0; variants.len()];
    for _ in 0..passes {
        for (k, (&v, state)) in variants.iter().zip(&mut states).enumerate() {
            let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
            let start = Instant::now();
            pass(v, state);
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            allocations[k] += ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
            times[k].push(elapsed_ms);
        }
    }

    let sink = Arc::new(telemetry::CaptureSink::new());
    telemetry::add_sink(sink.clone());
    telemetry::set_level(telemetry::Level::Debug);
    let mut records = vec![Vec::new(); variants.len()];
    for _ in 0..passes {
        for (k, (&v, state)) in variants.iter().zip(&mut states).enumerate() {
            pass(v, state);
            records[k].extend(sink.records().into_iter().filter(|r| r.name == "online.pass"));
            sink.clear();
        }
    }
    telemetry::set_level(telemetry::Level::Off);
    telemetry::clear_sinks();
    let stage = |records: &[telemetry::sink::OwnedRecord], key: &str| {
        median(
            records
                .iter()
                .map(|r| match r.field(key) {
                    Some(telemetry::Value::Float(ms)) => *ms,
                    other => panic!("online.pass lacks a numeric {key}: {other:?}"),
                })
                .collect(),
        )
    };
    times
        .into_iter()
        .zip(allocations)
        .zip(&records)
        .map(|((times, allocations), records)| PassTiming {
            pass_ms: median(times),
            l_step_ms: stage(records, "l_step_ms"),
            r_step_ms: stage(records, "r_step_ms"),
            rewrite_ms: stage(records, "rewrite_ms"),
            allocations_per_pass: allocations as f64 / passes as f64,
        })
        .collect()
}

/// The `warm_pass` section: `scalar` against `fixed8`. Returns the JSON
/// object and the per-variant timings.
fn warm_pass_section(quick: bool) -> (Json, Vec<(KernelVariant, PassTiming)>) {
    let (stream, cfg) = warm_pass_problem(quick);
    let (m, n) = (stream.window_slots(), stream.num_segments());
    let passes = if quick { 10 } else { 30 };
    let mut primed = OnlineEstimator::new(cfg.clone(), m).expect("valid config");
    let estimate = primed.update_detailed(&stream.snapshot()).expect("cold solve").estimate;
    let variants = [KernelVariant::Scalar, KernelVariant::Fixed8];
    let timings: Vec<(KernelVariant, PassTiming)> = variants
        .into_iter()
        .zip(measure_warm_passes(&stream, &primed, &estimate, &variants, passes))
        .collect();
    let mut fields = vec![
        ("slots".into(), Json::Num(m as f64)),
        ("segments".into(), Json::Num(n as f64)),
        ("rank".into(), Json::Num(cfg.rank as f64)),
        ("integrity".into(), Json::Num(stream.observed_cells() as f64 / (m * n) as f64)),
        ("threads".into(), Json::Num(1.0)),
        ("passes".into(), Json::Num(passes as f64)),
    ];
    for (v, t) in &timings {
        fields.push((
            v.name().into(),
            Json::Obj(vec![
                ("pass_ms".into(), Json::Num(t.pass_ms)),
                ("l_step_ms".into(), Json::Num(t.l_step_ms)),
                ("r_step_ms".into(), Json::Num(t.r_step_ms)),
                ("rewrite_ms".into(), Json::Num(t.rewrite_ms)),
                ("allocations_per_pass".into(), Json::Num(t.allocations_per_pass)),
            ]),
        ));
    }
    if let [(_, scalar), (_, fixed)] = timings.as_slice() {
        fields.push(("fixed8_vs_scalar_speedup".into(), Json::Num(scalar.pass_ms / fixed.pass_ms)));
    }
    (Json::Obj(fields), timings)
}

/// JSON object for one measured run.
fn run_json(secs: f64, allocs: usize, sweeps: usize) -> Json {
    Json::Obj(vec![
        ("total_ms".into(), Json::Num(secs * 1e3)),
        ("per_sweep_ms".into(), Json::Num(secs * 1e3 / sweeps as f64)),
        ("allocations".into(), Json::Num(allocs as f64)),
        ("allocations_per_sweep".into(), Json::Num(allocs as f64 / sweeps as f64)),
    ])
}

/// Appends one line to the tracked per-variant trajectory
/// (`results/BENCH_als_trajectory.jsonl`, schema
/// `cs-traffic-als-trajectory/v1`): `BENCH_als.json` is overwritten in
/// place, the jsonl keeps the per-sweep history across commits.
fn append_als_trajectory(
    dir: &std::path::Path,
    quick: bool,
    rank: usize,
    sweeps: usize,
    kernels: &[(KernelVariant, f64, usize)],
    baseline_secs: f64,
    warm_pass: &[(KernelVariant, PassTiming)],
) -> std::io::Result<()> {
    let recorded_unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut fields = vec![
        ("schema".into(), Json::Str("cs-traffic-als-trajectory/v1".into())),
        ("recorded_unix_s".into(), Json::Num(recorded_unix_s as f64)),
        ("git_rev".into(), Json::Str(cs_bench::report::git_rev())),
        ("quick".into(), Json::Bool(quick)),
        ("rank".into(), Json::Num(rank as f64)),
        ("threads".into(), Json::Num(1.0)),
        ("sweeps".into(), Json::Num(sweeps as f64)),
        ("runs".into(), Json::Num(RUNS as f64)),
        ("baseline_per_sweep_ms".into(), Json::Num(baseline_secs * 1e3 / sweeps as f64)),
    ];
    for (variant, secs, _) in kernels {
        fields.push((
            format!("{}_per_sweep_ms", variant.name()),
            Json::Num(secs * 1e3 / sweeps as f64),
        ));
    }
    for (variant, timing) in warm_pass {
        fields.push((format!("warm_pass_{}_ms", variant.name()), Json::Num(timing.pass_ms)));
    }
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_als_trajectory.jsonl");
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{}", Json::Obj(fields).encode())
}

/// Writes `results/BENCH_als.json` (schema `cs-traffic-bench-als/v3`):
/// per-sweep wall time and allocation totals for the allocating
/// baseline, the shipping auto-dispatched kernel, and every kernel
/// variant that supports the bench rank, plus the resulting speedups.
/// Each path's row is the median of [`RUNS`] interleaved runs, recorded
/// as `runs` (criterion's statistics live in
/// `target/criterion/als_kernel/`); the allocation counter doubles as
/// the peak-RSS proxy — the baseline's churn is the resident-set
/// pressure the kernel path removes.
///
/// Returns `false` when `CS_BENCH_ENFORCE` is set and the fixed-rank
/// kernel came out slower than the scalar reference, per sweep or per
/// warm pass.
fn write_bench_json() -> bool {
    let (tcm, cfg, quick) = bench_problem();
    let (m, n) = tcm.values().shape();
    let sweeps = cfg.iterations;

    // Warm-up: prime lazy globals and the page cache out of band.
    let _ = complete_matrix(&tcm, &cfg).unwrap();
    let variants: Vec<KernelVariant> = KernelVariant::supported(cfg.rank).collect();
    let mut paths: Vec<Box<dyn FnMut() -> Matrix + '_>> = vec![
        Box::new(|| baseline_als(&tcm, &cfg)),
        Box::new(|| complete_matrix(&tcm, &cfg).unwrap()),
    ];
    for &v in &variants {
        let (tcm, cfg) = (&tcm, &cfg);
        paths.push(Box::new(move || pinned(v, || complete_matrix(tcm, cfg).unwrap())));
    }
    let rows = measure_interleaved(&mut paths);
    let ((base_secs, base_allocs), (kern_secs, kern_allocs)) = (rows[0], rows[1]);
    let speedup = base_secs / kern_secs;
    let kernels: Vec<(KernelVariant, f64, usize)> =
        variants.iter().zip(&rows[2..]).map(|(&v, &(secs, allocs))| (v, secs, allocs)).collect();
    let per_sweep = |secs: f64| secs * 1e3 / sweeps as f64;
    let scalar_secs = kernels
        .iter()
        .find(|(v, _, _)| *v == KernelVariant::Scalar)
        .map(|(_, s, _)| *s)
        .expect("scalar row is always measured");
    let fixed = kernels.iter().find(|(v, _, _)| {
        matches!(v, KernelVariant::Fixed4 | KernelVariant::Fixed8 | KernelVariant::Fixed16)
    });

    let mut fields = vec![
        ("schema".into(), Json::Str("cs-traffic-bench-als/v3".into())),
        ("bench".into(), Json::Str("als_kernel".into())),
        ("quick".into(), Json::Bool(quick)),
        ("slots".into(), Json::Num(m as f64)),
        ("segments".into(), Json::Num(n as f64)),
        ("rank".into(), Json::Num(cfg.rank as f64)),
        ("integrity".into(), Json::Num(0.2)),
        ("observed".into(), Json::Num(tcm.observed_count() as f64)),
        ("sweeps".into(), Json::Num(sweeps as f64)),
        ("runs".into(), Json::Num(RUNS as f64)),
        ("threads".into(), Json::Num(1.0)),
        ("baseline".into(), run_json(base_secs, base_allocs, sweeps)),
        ("gram_kernel".into(), run_json(kern_secs, kern_allocs, sweeps)),
        (
            "kernels".into(),
            Json::Obj(
                kernels
                    .iter()
                    .map(|(v, secs, allocs)| (v.name().into(), run_json(*secs, *allocs, sweeps)))
                    .collect(),
            ),
        ),
        ("per_sweep_speedup".into(), Json::Num(speedup)),
    ];
    if let Some((fv, fsecs, _)) = fixed {
        fields.push(("fixed_variant".into(), Json::Str(fv.name().into())));
        fields.push(("fixed_vs_scalar_speedup".into(), Json::Num(scalar_secs / fsecs)));
    }
    let (warm_json, warm_pass) = warm_pass_section(quick);
    fields.push(("warm_pass".into(), warm_json));
    let json = Json::Obj(fields).encode() + "\n";

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let write = || -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("BENCH_als.json");
        std::fs::File::create(&path)?.write_all(json.as_bytes())?;
        append_als_trajectory(&dir, quick, cfg.rank, sweeps, &kernels, base_secs, &warm_pass)?;
        Ok(path)
    };
    match write() {
        Ok(path) => {
            println!(
                "\nals_kernel: {:.3} ms/sweep baseline vs {:.3} ms/sweep kernel \
                 ({speedup:.2}x, {base_allocs} vs {kern_allocs} allocations) -> {}",
                per_sweep(base_secs),
                per_sweep(kern_secs),
                path.display(),
            );
            for (v, secs, allocs) in &kernels {
                println!(
                    "als_kernel: {:>8} {:.3} ms/sweep ({allocs} allocations)",
                    v.name(),
                    per_sweep(*secs),
                );
            }
            for (v, t) in &warm_pass {
                println!(
                    "als_kernel: warm pass {:>6} {:.3} ms (L step {:.3}, R step {:.3}, \
                     L·Rᵀ {:.3}; {} allocations)",
                    v.name(),
                    t.pass_ms,
                    t.l_step_ms,
                    t.r_step_ms,
                    t.rewrite_ms,
                    t.allocations_per_pass,
                );
            }
        }
        Err(e) => eprintln!("warning: could not write BENCH_als.json: {e}"),
    }

    // The perf gate: a fixed-rank kernel slower than the scalar
    // reference means the specialization regressed — in the sweep, or
    // in the warm pass's four-lane batches. Opt-in via CS_BENCH_ENFORCE
    // so local exploratory runs never exit non-zero.
    let mut ok = true;
    if std::env::var_os("CS_BENCH_ENFORCE").is_some() {
        if let Some((fv, fsecs, _)) = fixed {
            if *fsecs > scalar_secs {
                eprintln!(
                    "als_kernel: ENFORCE failure — {} {:.3} ms/sweep is slower than \
                     scalar {:.3} ms/sweep",
                    fv.name(),
                    per_sweep(*fsecs),
                    per_sweep(scalar_secs),
                );
                ok = false;
            }
        }
        if let [(_, scalar), (fv, fixed)] = warm_pass.as_slice() {
            if fixed.pass_ms > scalar.pass_ms {
                eprintln!(
                    "als_kernel: ENFORCE failure — {} warm pass {:.3} ms is slower than \
                     scalar {:.3} ms",
                    fv.name(),
                    fixed.pass_ms,
                    scalar.pass_ms,
                );
                ok = false;
            }
        }
    }
    ok
}

fn main() {
    let mut criterion = Criterion::default();
    bench_als_kernel(&mut criterion);
    criterion.final_summary();
    if !write_bench_json() {
        std::process::exit(70);
    }
}
