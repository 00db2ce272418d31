//! Deterministic scoped worker pool.
//!
//! The completion engine's hot loops (per-row ridge solves in ALS,
//! chromosome fitness in the GA, fold evaluation in reference-set
//! selection) are embarrassingly parallel: `n` independent work items,
//! each producing a result for a known slot. This crate fans such loops
//! out over `std::thread::scope` workers while keeping the output
//! *bit-for-bit identical* to the sequential path:
//!
//! * every item `i` computes only from `i` (work stealing changes which
//!   worker runs an item, never the item's input or output slot);
//! * results land in slot `i` of the output, so assembly order is fixed;
//! * fallible loops report the error of the *smallest failing index*,
//!   which is schedule-independent because each index is claimed exactly
//!   once and a claimed failing index always runs.
//!
//! Thread-count resolution is uniform across the workspace: `1` means
//! sequential (no threads spawned), any other explicit value is used as
//! given, and `0` defers to the process-wide default set by
//! [`set_default_threads`] (falling back to the number of available
//! cores). CLI `--threads` flags set the process default once instead of
//! threading a parameter through every call site.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Per-worker tallies collected only when telemetry is on (see
/// [`FanoutTelemetry`]); zero-cost placeholders otherwise.
#[derive(Clone, Copy, Default)]
struct WorkerStats {
    claimed: u64,
    busy_ns: u128,
}

/// Instrumentation for one fan-out: a `workpool.fanout` span (resolved
/// worker count, items, per-worker claim counts, utilization) plus
/// process-global counters. Created only when debug-level telemetry or
/// metric collection is active, so the default path pays exactly one
/// relaxed atomic load per fan-out.
struct FanoutTelemetry {
    span: telemetry::Span,
    start: Instant,
}

impl FanoutTelemetry {
    fn begin(kind: &'static str, n: usize, workers: usize) -> Option<Self> {
        if !telemetry::enabled(telemetry::Level::Debug) && !telemetry::metrics_enabled() {
            return None;
        }
        let mut span = telemetry::span(telemetry::Level::Debug, "workpool.fanout");
        span.record("kind", kind);
        span.record("items", n);
        span.record("workers", workers);
        Some(Self { span, start: Instant::now() })
    }

    fn finish(mut self, stats: &[WorkerStats]) {
        let wall_ns = self.start.elapsed().as_nanos().max(1);
        let busy_ns: u128 = stats.iter().map(|s| s.busy_ns).sum();
        // Fraction of worker wall-clock spent inside work items: 1.0
        // means no worker ever starved waiting on the claim cursor.
        let utilization = busy_ns as f64 / (wall_ns as f64 * stats.len().max(1) as f64);
        if self.span.is_enabled() {
            let claimed: Vec<String> = stats.iter().map(|s| s.claimed.to_string()).collect();
            self.span.record("claimed_per_worker", claimed.join(","));
            self.span.record("utilization", utilization);
        }
        if telemetry::metrics_enabled() {
            telemetry::counter("workpool.fanouts").incr();
            let items: u64 = stats.iter().map(|s| s.claimed).sum();
            telemetry::counter("workpool.items").add(items);
            for (w, s) in stats.iter().enumerate() {
                telemetry::counter(&format!("workpool.worker.{w}.items_claimed")).add(s.claimed);
            }
            telemetry::gauge("workpool.utilization").set(utilization);
            telemetry::histogram("workpool.fanout_us").observe(wall_ns as f64 / 1e3);
        }
    }
}

/// Process-wide default used when a config asks for `0` threads.
/// `0` here means "unset": fall back to available parallelism.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default thread count consulted by
/// [`resolve_threads`] for requests of `0`. Passing `0` clears the
/// default (fall back to all available cores).
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// Returns the process-wide default thread count (`0` = unset).
pub fn default_threads() -> usize {
    DEFAULT_THREADS.load(Ordering::Relaxed)
}

/// The `CS_THREADS` environment default, read once per process (`0` =
/// unset/unparseable). Sits between [`set_default_threads`] and the
/// available-cores fallback so a test matrix can sweep thread counts
/// over an unmodified binary: `CS_THREADS=8 cargo test`.
fn env_default_threads() -> usize {
    static ENV_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *ENV_THREADS.get_or_init(|| {
        std::env::var("CS_THREADS").ok().and_then(|v| v.trim().parse().ok()).unwrap_or(0)
    })
}

/// The available cores, read once per process: on Linux
/// `available_parallelism` reads cgroup files, tens of microseconds and
/// a few allocations a call, which every `0`-thread fan-out would pay.
fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Resolves a requested thread count to a concrete worker count:
/// explicit values pass through, `0` defers to [`set_default_threads`],
/// then to the `CS_THREADS` environment variable, and then to the number
/// of available cores. Always returns ≥ 1.
pub fn resolve_threads(requested: usize) -> usize {
    let n = match requested {
        0 => match default_threads() {
            0 => match env_default_threads() {
                0 => available_cores(),
                e => e,
            },
            d => d,
        },
        n => n,
    };
    n.max(1)
}

/// Pointer wrapper so scoped workers can address disjoint slots of a
/// caller-owned slice. Safety rests on the claim protocol: each index is
/// handed to exactly one worker by an atomic cursor.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Runs `f(0..n)` across `threads` workers and returns the results in
/// index order: `out[i] == f(i)` regardless of the worker count or
/// scheduling, so parallel and sequential runs are interchangeable
/// wherever `f` itself is deterministic.
///
/// `threads` follows [`resolve_threads`] semantics; the effective count
/// is additionally capped at `n`. With one worker (or `n <= 1`) no
/// threads are spawned.
pub fn parallel_map_indexed<O, F>(n: usize, threads: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    let workers = resolve_threads(threads).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let tele = FanoutTelemetry::begin("map", n, workers);
    let track = tele.is_some();
    let mut out: Vec<Option<O>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let base = SendPtr(out.as_mut_ptr());
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let base = &base;
    let cursor = &cursor;
    let mut stats = vec![WorkerStats::default(); workers];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut my = WorkerStats::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t = track.then(Instant::now);
                        let value = f(i);
                        if let Some(t) = t {
                            my.busy_ns += t.elapsed().as_nanos();
                            my.claimed += 1;
                        }
                        // SAFETY: `fetch_add` hands index `i` to exactly one
                        // worker, `i < n` is checked above, and `out` outlives
                        // the scope; the slot was initialized to `None` so the
                        // overwrite drops no live value.
                        unsafe { base.0.add(i).write(Some(value)) };
                    }
                    my
                })
            })
            .collect();
        for (w, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(my) => stats[w] = my,
            }
        }
    });
    if let Some(tele) = tele {
        tele.finish(&stats);
    }
    out.into_iter().map(|slot| slot.expect("every index claimed by exactly one worker")).collect()
}

/// Runs `f(i, &mut items[i])` for every item across `threads` workers.
///
/// On failure, returns the error from the smallest failing index — a
/// schedule-independent choice (see module docs) that matches what the
/// sequential loop would report first. Items after a failure may be left
/// unprocessed; callers treat the output as poisoned on `Err`, exactly
/// as they would after an early-returning sequential loop.
pub fn try_parallel_for_each_mut<T, E, F>(items: &mut [T], threads: usize, f: F) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize, &mut T) -> Result<(), E> + Sync,
{
    try_parallel_for_each_mut_with(items, threads, || (), |i, item, ()| f(i, item))
}

/// Scratch-carrying variant of [`try_parallel_for_each_mut`]: every
/// worker calls `init()` exactly once and threads the resulting scratch
/// value through all the items it claims, so per-item state (solver
/// buffers, accumulators) is allocated once per worker per fan-out
/// instead of once per item. The sequential path (`workers <= 1`) builds
/// a single scratch and reuses it across all items.
///
/// All of [`try_parallel_for_each_mut`]'s guarantees carry over
/// unchanged: item `i` computes only from `i` (the scratch must not leak
/// information between items — callers reset it per item or overwrite it
/// wholesale), results land in fixed slots, and a failure reports the
/// error of the smallest failing index regardless of scheduling.
pub fn try_parallel_for_each_mut_with<T, S, E, I, F>(
    items: &mut [T],
    threads: usize,
    init: I,
    f: F,
) -> Result<(), E>
where
    T: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut T, &mut S) -> Result<(), E> + Sync,
{
    let n = items.len();
    let workers = resolve_threads(threads).min(n);
    if workers <= 1 {
        let mut scratch = init();
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item, &mut scratch)?;
        }
        return Ok(());
    }

    let tele = FanoutTelemetry::begin("try_for_each", n, workers);
    let track = tele.is_some();
    let base = SendPtr(items.as_mut_ptr());
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let init = &init;
    let base = &base;
    let cursor = &cursor;
    let mut first_err: Option<(usize, E)> = None;
    let mut stats = vec![WorkerStats::default(); workers];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || -> (Option<(usize, E)>, WorkerStats) {
                    let mut my = WorkerStats::default();
                    let mut scratch = init();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return (None, my);
                        }
                        // SAFETY: index `i` is claimed by exactly one
                        // worker and `i < n`, so this is the only live
                        // `&mut` to `items[i]`.
                        let item = unsafe { &mut *base.0.add(i) };
                        let t = track.then(Instant::now);
                        let result = f(i, item, &mut scratch);
                        if let Some(t) = t {
                            my.busy_ns += t.elapsed().as_nanos();
                            my.claimed += 1;
                        }
                        if let Err(e) = result {
                            return (Some((i, e)), my);
                        }
                    }
                })
            })
            .collect();
        for (w, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok((worker_err, my)) => {
                    stats[w] = my;
                    if let Some((i, e)) = worker_err {
                        if first_err.as_ref().is_none_or(|(fi, _)| i < *fi) {
                            first_err = Some((i, e));
                        }
                    }
                }
            }
        }
    });
    if let Some(tele) = tele {
        tele.finish(&stats);
    }
    match first_err {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_sequential_for_any_thread_count() {
        let expected: Vec<u64> = (0..257).map(|i| (i as u64).wrapping_mul(2654435761)).collect();
        for threads in [1, 2, 3, 8] {
            let got = parallel_map_indexed(257, threads, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_empty_and_single() {
        assert_eq!(parallel_map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn for_each_mut_updates_every_item() {
        let mut items: Vec<i64> = (0..100).collect();
        let r: Result<(), ()> = try_parallel_for_each_mut(&mut items, 4, |i, item| {
            *item += i as i64;
            Ok(())
        });
        assert!(r.is_ok());
        assert_eq!(items, (0..100).map(|i| 2 * i).collect::<Vec<i64>>());
    }

    #[test]
    fn for_each_mut_reports_smallest_failing_index() {
        for threads in [1, 2, 5] {
            let mut items = vec![0u8; 64];
            let r = try_parallel_for_each_mut(&mut items, threads, |i, _| {
                if i % 10 == 7 {
                    Err(i)
                } else {
                    Ok(())
                }
            });
            assert_eq!(r, Err(7), "threads={threads}");
        }
    }

    #[test]
    fn for_each_mut_with_reuses_scratch_per_worker() {
        use std::sync::atomic::AtomicUsize;
        for threads in [1, 3, 8] {
            let inits = AtomicUsize::new(0);
            let mut items: Vec<usize> = vec![0; 100];
            let r: Result<(), ()> = try_parallel_for_each_mut_with(
                &mut items,
                threads,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |i, item, scratch| {
                    // Scratch persists across items on a worker; per-item
                    // determinism comes from overwriting it each claim.
                    scratch.clear();
                    scratch.extend(0..=i);
                    *item = scratch.iter().sum();
                    Ok(())
                },
            );
            assert!(r.is_ok());
            let expected: Vec<usize> = (0..100).map(|i| i * (i + 1) / 2).collect();
            assert_eq!(items, expected, "threads={threads}");
            let n_inits = inits.load(Ordering::Relaxed);
            assert!(
                n_inits <= threads.max(1) && n_inits >= 1,
                "threads={threads}: {n_inits} scratch inits"
            );
        }
    }

    #[test]
    fn for_each_mut_with_sequential_initializes_once() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let mut items = vec![0u8; 50];
        let r: Result<(), ()> = try_parallel_for_each_mut_with(
            &mut items,
            1,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, _, _| Ok(()),
        );
        assert!(r.is_ok());
        assert_eq!(inits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn resolve_threads_semantics() {
        set_default_threads(0);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(5), 5);
        assert!(resolve_threads(0) >= 1);
        set_default_threads(3);
        assert_eq!(resolve_threads(0), 3, "explicit default beats CS_THREADS and cores");
        assert_eq!(resolve_threads(2), 2);
        set_default_threads(0);
        // CS_THREADS is read once per process, so with no explicit
        // default the resolution is stable for the process lifetime
        // (either the env value or the core count).
        let resolved = resolve_threads(0);
        assert_eq!(resolve_threads(0), resolved);
        if env_default_threads() != 0 {
            assert_eq!(resolved, env_default_threads());
        }
    }

    #[test]
    fn map_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_indexed(16, 2, |i| {
                if i == 9 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
