//! Proves the Gram-kernel sweep loop is allocation-free per unit.
//!
//! A counting global allocator wraps the system allocator; the test runs
//! the sequential kernel path on a small and a 4×-larger problem with
//! identical sweep counts and asserts the allocation count does not grow
//! with the number of units. The old path materialized a design matrix,
//! an RHS, a Gram product, a Cholesky factor, and a solution vector per
//! unit per sweep (five allocations × units × sweeps); the kernel path
//! allocates one scratch per fan-out.
//!
//! A serve-path warm pass is pinned the same way: its allocation count
//! does not grow with the number of segments.
//!
//! The same allocator also proves the serve engine's tick hot path is
//! free when observability is off: steady-state empty ticks allocate
//! nothing, on one shard and on four, configuring `trace_sample` costs
//! nothing while the telemetry level keeps tracing disabled, admitting
//! a round of reports costs nothing beyond the warm pass it triggers,
//! and sliding the window into the next slot allocates nothing.
//!
//! The allocator is process-global, so this file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use linalg::Matrix;
use probes::Tcm;
use traffic_cs::cs::{complete_matrix, CsConfig};
use traffic_cs::service::{Observation, ServeConfig};
use traffic_cs::sharded::{ShardPlan, ShardedService};

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

fn striped_tcm(m: usize, n: usize) -> Tcm {
    let truth = Matrix::from_fn(m, n, |i, j| {
        20.0 + (2.0 * std::f64::consts::PI * i as f64 / 24.0).sin() * (3.0 + (j % 5) as f64)
    });
    // Deterministic ~50% mask without touching the RNG.
    let mask = Matrix::from_fn(m, n, |i, j| if (3 * i + 5 * j) % 2 == 0 { 1.0 } else { 0.0 });
    Tcm::complete(truth).masked(&mask).unwrap()
}

fn allocations_for(tcm: &Tcm, sweeps: usize) -> usize {
    let cfg = CsConfig {
        rank: 4,
        lambda: 0.5,
        iterations: sweeps,
        tol: 0.0,
        num_threads: 1,
        ..CsConfig::default()
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let est = complete_matrix(tcm, &cfg).unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(est.shape(), tcm.values().shape());
    after - before
}

#[test]
fn sweep_loop_allocations_do_not_scale_with_units() {
    const SWEEPS: usize = 12;
    let small = striped_tcm(60, 40); // 100 units
    let large = striped_tcm(240, 160); // 400 units, 16× the entries

    // Warm up lazily-initialized globals (telemetry registry, pool
    // defaults) so they don't land in either measurement.
    allocations_for(&small, 1);
    allocations_for(&large, 1);

    let small_allocs = allocations_for(&small, SWEEPS);
    let large_allocs = allocations_for(&large, SWEEPS);

    // Per-unit allocation would add ≥ units × sweeps extra allocations
    // on the large run (240 + 160 units × 12 sweeps = 4800 minimum,
    // 5× that for the old materialize-everything path). The kernel path
    // spends a fixed O(sweeps) budget: index build, two fan-out row
    // collections and one scratch per sweep, the objective partials,
    // best-iterate clones, and the final reconstruction.
    assert!(
        large_allocs < SWEEPS * 24 + 96,
        "large run allocated {large_allocs} times — the sweep loop is allocating per unit"
    );
    // And the count must be flat in problem size, not merely small:
    // growing 100 → 400 units may only shift constants (trace capacity,
    // clone sizes), never add per-unit terms.
    assert!(
        large_allocs <= small_allocs + SWEEPS,
        "allocations grew with unit count: {small_allocs} (small) vs {large_allocs} (large)"
    );

    // --- Service tick hot path with observability off ---------------
    // (Same test fn: the counting allocator is process-global and the
    // measurements must not interleave.)
    service_tick_is_allocation_free_when_observability_is_off();

    // --- Kernel variants allocate identically ------------------------
    // (Same test fn, same reason.)
    kernel_variants_allocate_identically();

    // --- A warm pass allocates per fan-out, not per unit -------------
    warm_pass_allocations_do_not_scale_with_segments();
}

/// A serve-path warm pass allocates its factor buffers and one scratch
/// per fan-out — never per unit, per lane or per cell — so a 16 × 8,192
/// window costs the same number of allocations as a 16 × 2,048 one.
fn warm_pass_allocations_do_not_scale_with_segments() {
    use probes::stream::StreamingTcm;
    use traffic_cs::online::OnlineEstimator;

    let count = |segments: usize| {
        // About one cell in four observed, as on a sparse metro window.
        let mut stream = StreamingTcm::new(0, 60, 16, segments).unwrap();
        for slot in 0..16usize {
            for seg in (slot % 4..segments).step_by(4) {
                let speed = 30.0 + ((slot * 7 + seg) % 23) as f64;
                stream.observe((slot * 60) as u64, seg, speed).unwrap();
            }
        }
        let cfg = CsConfig {
            rank: 8,
            lambda: 0.1,
            iterations: 4,
            tol: 0.0,
            num_threads: 1,
            ..CsConfig::default()
        };
        let mut online = OnlineEstimator::new(cfg, 16).unwrap();
        let mut estimate = online.update_detailed(&stream.snapshot()).unwrap().estimate;
        online.update_pass(&stream, &mut estimate).unwrap();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        online.update_pass(&stream, &mut estimate).unwrap();
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    let (small, large) = (count(2_048), count(8_192));
    assert_eq!(
        small, large,
        "a warm pass allocated {small} times on 2,048 segments but {large} times on 8,192"
    );
}

/// The fixed-rank kernels must match the scalar reference
/// in allocation behaviour, not just in bits: a specialized kernel that
/// quietly heap-allocates per solve would erase the point of the
/// specialization.
fn kernel_variants_allocate_identically() {
    use linalg::kernel::{set_kernel_override, KernelVariant};
    use linalg::lstsq::GramScratch;

    // Direct solve loop: once the scratch exists, repeated solves
    // allocate exactly zero times — for every variant, at a runtime
    // rank, and at each fixed rank.
    for r in [4usize, 5, 8, 16] {
        let rows: Vec<(Vec<f64>, f64)> = (0..r + 3)
            .map(|i| {
                let row = (0..r).map(|j| ((i * 3 + j * 5) % 7 + 1) as f64 / 4.0).collect();
                (row, 1.0)
            })
            .collect();
        for variant in KernelVariant::supported(r) {
            let mut scratch = GramScratch::with_variant(r, variant);
            let mut out = vec![0.0; r];
            let solve = |scratch: &mut GramScratch, out: &mut Vec<f64>| {
                scratch
                    .solve_ridge(rows.iter().map(|(row, y)| (row.as_slice(), *y)), 0.5, out)
                    .unwrap();
            };
            solve(&mut scratch, &mut out); // warm (nothing to warm, but symmetric)
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for _ in 0..20 {
                solve(&mut scratch, &mut out);
            }
            let solves = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(solves, 0, "r={r} variant {variant}: solve loop allocated {solves} times");
        }
    }

    // Whole-pipeline parity: `complete_matrix` at rank 4 must allocate
    // exactly as many times under the forced Fixed4 kernel as under the
    // scalar reference.
    let tcm = striped_tcm(60, 40);
    let count_for = |variant: KernelVariant| {
        set_kernel_override(Some(variant));
        let count = allocations_for(&tcm, 6);
        set_kernel_override(None);
        count
    };
    let scalar = count_for(KernelVariant::Scalar);
    let fixed = count_for(KernelVariant::Fixed4);
    assert_eq!(fixed, scalar, "Fixed4 allocated {fixed} times vs {scalar} for scalar");
}

/// A warm engine of `shards` shards over four segments each.
fn warm_service(trace_sample: u64, shards: usize) -> ShardedService {
    let cfg = ServeConfig::builder()
        .slot_len_s(60)
        .window_slots(4)
        .num_segments(4 * shards)
        .shards(ShardPlan::with_count(shards))
        .trace_sample(trace_sample)
        .cs(CsConfig { rank: 2, lambda: 0.1, num_threads: 1, ..CsConfig::default() })
        .build()
        .unwrap();
    let mut s = ShardedService::new(cfg).unwrap();
    // Two rounds of the same keys reach steady state: queue/pending
    // capacity grown, dedup map populated, estimator warm.
    for _ in 0..2 {
        push_round(&mut s);
        s.tick();
    }
    s
}

/// Two reports on each shard's diagonal cells: slot `i`, local segment `i`.
fn push_round(s: &mut ShardedService) {
    let segments = s.config().num_segments as u64;
    for v in 0..2 * segments {
        s.push(Observation {
            vehicle: v,
            timestamp_s: (v % 4) * 60,
            segment: (v % segments) as usize,
            speed_kmh: 30.0 + v as f64,
        });
    }
}

fn service_tick_is_allocation_free_when_observability_is_off() {
    assert!(!telemetry::enabled(telemetry::Level::Trace), "level must be off for this test");
    assert!(!telemetry::metrics_enabled(), "metrics must be off for this test");

    // Steady-state empty ticks: queue drained, window clean, metrics
    // off — the tick must not allocate at all. Four shards are pinned on
    // one worker, where their ticks run inline.
    let threads = workpool::default_threads();
    for shards in [1, 4] {
        if shards > 1 {
            workpool::set_default_threads(1);
        }
        let mut s = warm_service(0, shards);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..50 {
            s.tick();
        }
        let empty_ticks = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(empty_ticks, 0, "{shards}-shard idle ticks allocated {empty_ticks} times");
    }
    workpool::set_default_threads(threads);

    // A configured-but-disabled trace_sample must cost exactly what
    // trace_sample = 0 costs on an identical data workload: the level
    // guard has to fire before any ID hashing or field building.
    let measure = |trace_sample: u64| {
        let mut s = warm_service(trace_sample, 1);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..10 {
            push_round(&mut s);
            s.tick();
        }
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    let without = measure(0);
    let with_sampling = measure(1);
    assert_eq!(
        with_sampling, without,
        "trace_sample=1 with tracing disabled changed the tick allocation count"
    );

    // --- Admission is free ---------------------------------------------
    // Once every container is at steady-state capacity, admitting a
    // round of re-delivered reports (dedup probe, retract, window
    // write) allocates nothing: a push+tick round allocates exactly as
    // often as a `refresh()`, which is the same warm pass alone.
    let mut s = warm_service(0, 1);
    for round in 0..5 {
        let passes = s.solve_stats().incremental_solves;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        push_round(&mut s);
        s.tick();
        let admitted = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        s.refresh();
        let pass_alone = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            admitted, pass_alone,
            "round {round}: push+tick allocated {admitted} times, its warm pass alone {pass_alone}"
        );
        assert_eq!(
            s.solve_stats().incremental_solves,
            passes + 2,
            "round {round}: not warm passes"
        );
    }

    // --- A slot slide is free -----------------------------------------
    // Advancing the clock into the next slot evicts the oldest one: its
    // dedup map clears in place, and the window zeroes and rotates its
    // rows instead of allocating fresh ones. Six slides also wrap the
    // 4-slot ring.
    let mut s = warm_service(0, 1);
    let head = s.head_slot();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for k in 1..=6 {
        s.advance_clock((head + k) as u64 * 60);
    }
    let slides = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(s.head_slot(), head + 6);
    assert_eq!(slides, 0, "slot slides allocated {slides} times");
}
