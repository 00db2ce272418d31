//! Turns episodes and recorders into the run record: end-to-end
//! metrics, noise diagnostics and per-layer metrics.

use crate::quantile::{nearest_rank, rank, Summary};
use crate::trace::{Recorder, SolvePath};
use crate::workload::{Episode, Spec};

/// One reported figure. `count` is the number of samples behind it,
/// when it comes from samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub count: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str, count: Option<usize>) -> Metric {
    Metric { name, value, unit, count }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn p50(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fresh-interval samples (ms) of every measured tick of `episodes`.
pub fn fresh_ms(episodes: &[Episode]) -> Vec<f64> {
    episodes.iter().flat_map(|e| e.ticks.iter().map(|t| ms(t.fresh_ns))).collect()
}

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end(episodes: &[Episode], peak_rss_mb: f64) -> Vec<Metric> {
    let fresh = fresh_ms(episodes);
    let query: Vec<f64> =
        episodes.iter().flat_map(|e| e.ticks.iter().map(|t| ms(t.query_ns))).collect();
    let setups: Vec<f64> = episodes.iter().map(|e| e.setup_ns as f64 / 1e9).collect();
    let admitted: u64 = episodes.iter().flat_map(|e| e.ticks.iter().map(|t| t.admitted)).sum();
    let fresh_s: f64 = fresh.iter().sum::<f64>() / 1e3;
    let f = Summary::of(&fresh).unwrap_or(Summary { p50: 0.0, p90: 0.0, p99: 0.0, count: 0 });
    let n = Some(fresh.len());
    vec![
        metric("setup_s", p50(&setups), "s", Some(setups.len())),
        metric("ingest_rps", ratio(admitted as f64, fresh_s), "reports/s", n),
        metric("fresh_p50_ms", f.p50, "ms", n),
        metric("fresh_p90_ms", f.p90, "ms", n),
        metric("query_p50_ms", p50(&query), "ms", Some(query.len())),
        metric("nmae", f64::from_bits(episodes[0].fingerprint.nmae_bits), "ratio", None),
        metric("peak_rss_mb", peak_rss_mb, "MiB", None),
    ]
}

/// Share of measured ticks that slide the window (first tick of a slot).
pub fn evict_tick_share(spec: &Spec) -> f64 {
    let start = spec.warmup_ticks() as u64;
    let evict =
        (start..start + spec.measured_ticks as u64).filter(|&t| spec.slides_window(t)).count();
    evict as f64 / spec.measured_ticks as f64
}

/// Lines that let an unsteady run be diagnosed from its record alone.
/// `full_share` is the full-sweep share of solves, when the run could
/// read `SolveStats` (in process, or a wire run's replays).
pub fn diagnostics(
    spec: &Spec,
    episodes: &[Episode],
    full_share: Option<f64>,
    steal: Option<f64>,
    nproc: usize,
) -> Vec<String> {
    let fresh = fresh_ms(episodes);
    let mut out = vec![format!(
        "nproc {nproc}, cpu steal share {}",
        steal.map_or("unavailable".into(), |s| format!("{s:.4}"))
    )];
    if let Some(f) = Summary::of(&fresh) {
        out.push(format!(
            "fresh_p99_ms {:.4} (n={}, {} samples beyond; not gated)",
            f.p99,
            f.count,
            f.count - rank(f.count, 0.99)
        ));
    }
    // Tick cost is multi-modal by design: slot-eviction ticks and full
    // correction sweeps are slow populations of fixed, seeded size. A
    // percentile near 100·(1 − share) sits on a mode boundary.
    let shares =
        [("evict_tick_share", Some(evict_tick_share(spec))), ("full_sweep_share", full_share)];
    for (name, share) in shares {
        out.push(match share {
            Some(s) => format!(
                "{name} {s:.4}: boundary at p{:.2}, fresh_p90 is {:.2} pp from it",
                100.0 * (1.0 - s),
                (90.0 - 100.0 * (1.0 - s)).abs()
            ),
            None => format!("{name} not visible over the wire (the traced run's replay shows it)"),
        });
    }
    let per_episode: Vec<String> = episodes
        .iter()
        .map(|e| {
            let f: Vec<f64> = e.ticks.iter().map(|t| ms(t.fresh_ns)).collect();
            format!("{:.2}/{:.3}", p50(&f), e.setup_ns as f64 / 1e9)
        })
        .collect();
    out.push(format!("per-episode fresh_p50_ms/setup_s {}", per_episode.join(" ")));
    let failed: u64 = episodes.iter().map(failures).sum();
    let attempted: u64 = episodes.iter().map(attempts).sum();
    out.push(format!(
        "failed_share {} ({failed}/{attempted})",
        ratio(failed as f64, attempted as f64)
    ));
    out
}

/// Full-sweep share of the solves of `episodes`.
pub fn full_share(episodes: &[Episode]) -> Option<f64> {
    let solves: u64 = episodes.iter().map(|e| e.observed.solves).sum();
    let full: u64 = episodes.iter().map(|e| e.solve.full_solves).sum();
    (solves > 0).then(|| full as f64 / solves as f64)
}

/// Reports offered, solves and queries of one episode's measured ticks.
pub fn attempts(e: &Episode) -> u64 {
    e.expected.offered + e.observed.solves + e.queries
}

/// Queue drops, degraded solves, protocol errors and failed queries.
pub fn failures(e: &Episode) -> u64 {
    e.observed.queue_dropped + e.observed.degraded + e.observed.wire_faults
}

/// Work counts of one full ALS sweep over `observed` cells of an
/// `m × n` window at rank `r`, computed from the shapes (not measured):
/// each observed cell enters one row and one column Gram (`r(r+1)/2`
/// multiply-adds) and right-hand side (`r`), plus an objective term;
/// each of the `m + n` factor rows costs a Cholesky solve. Bytes count
/// the `u32` index, the `f64` value and the gathered factor row per
/// cell and pass (two solve passes and the objective), plus one read
/// and one write of both factors.
pub fn sweep_work(observed: f64, m: usize, n: usize, r: usize) -> (f64, f64) {
    let (r, units) = (r as f64, (m + n) as f64);
    let flops = observed * (2.0 * r * (r + 1.0) + 4.0 * r + 2.0 * r + 3.0)
        + units * (r * r * r / 3.0 + 2.0 * r * r + 2.0 * r);
    let bytes = observed * 3.0 * (4.0 + 8.0 + 8.0 * r) + 2.0 * units * r * 8.0;
    (flops, bytes)
}

/// Inputs to the per-layer metrics of one traced run.
pub struct Traced<'a> {
    pub spec: &'a Spec,
    /// Untraced episodes of the same run: the trace-overhead baseline.
    pub untraced: &'a [Episode],
    /// Traced episodes (wire episodes on `wire-mixed`).
    pub traced: &'a [Episode],
    pub traced_rec: &'a Recorder,
    /// In-process engine episodes and their recorder: the traced
    /// episodes themselves, or on `wire-mixed` their paired replays.
    pub engine: &'a [Episode],
    pub engine_rec: &'a Recorder,
}

/// The per-layer metrics, from the traced run's spans and counts.
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let (spec, e, ep) = (t.spec, t.engine_rec, &t.engine[0]);
    let ticks = &e.ticks;
    let n_ticks = Some(ticks.len());
    let drain_us = |c: &crate::trace::TickCounts| c.tick_us.saturating_sub(c.solve_us);
    let drains: Vec<f64> = ticks.iter().map(|c| drain_us(c) as f64 / 1e3).collect();
    let evict_drains: Vec<f64> =
        ticks.iter().filter(|c| c.evict).map(|c| drain_us(c) as f64 / 1e3).collect();
    let solve_ms = |p: SolvePath| -> Vec<f64> {
        ticks.iter().filter(|c| c.path == p).map(|c| c.solve_us as f64 / 1e3).collect()
    };
    let (incr, full) = (solve_ms(SolvePath::Incremental), solve_ms(SolvePath::Full));
    let full_sweeps: Vec<f64> =
        ticks.iter().filter(|c| c.path == SolvePath::Full).map(|c| c.sweeps as f64).collect();
    let (fresh_ns, _) = e.totals("bench.fresh");
    let drain_ns: u64 = ticks.iter().map(|c| drain_us(c) * 1000).sum();
    let solve_ns: u64 = ticks.iter().map(|c| c.solve_us * 1000).sum();
    let drained: u64 = ticks.iter().map(|c| c.drained).sum();
    let (push_ns, pushed) = e.totals("sharded.push");
    let tick_spans = e.durations("sharded.tick");
    let fanout: Vec<f64> =
        tick_spans.iter().zip(ticks).map(|(&wall, c)| ms(wall) - c.tick_us as f64 / 1e3).collect();
    let s = &ep.solve;
    let solves = ep.observed.solves as f64;
    let cold: Vec<f64> = t.engine.iter().map(|x| x.cold_solve_us as f64 / 1e3).collect();
    let integrity = ep.window_integrity;
    let (m, n) = (spec.window_slots, spec.segments);
    let (flops, bytes) = sweep_work(integrity * (m * n) as f64, m, n, spec.rank);

    let w = t.traced_rec;
    let (encode_ns, encoded) = w.totals("proto.encode");
    let decodes: Vec<f64> = w.durations("proto.decode").into_iter().map(ms).collect();
    let queries = w.durations("daemon.query").len();
    let daemon_overhead: Vec<f64> = if spec.wire {
        let wire = w.durations("bench.fresh");
        wire.iter().zip(e.durations("bench.fresh")).map(|(&a, b)| ms(a) - ms(b)).collect()
    } else {
        Vec::new()
    };
    let daemon = t.traced[0].daemon.unwrap_or_default();
    let traced_fresh = fresh_ms(t.traced);
    let untraced_fresh = fresh_ms(t.untraced);
    let count = |k: &str| w.counts.get(k).copied().unwrap_or(0) as f64;
    let c = |v: u64| v as f64;

    vec![
        metric("service.push_us_per_1k", ratio(push_ns as f64, pushed as f64), "us", n_ticks),
        metric("service.drain_ms_p50", p50(&drains), "ms", n_ticks),
        metric(
            "service.drain_ns_per_report",
            ratio(drain_ns as f64, drained as f64),
            "ns",
            n_ticks,
        ),
        metric("service.drain_share", ratio(drain_ns as f64, fresh_ns as f64), "ratio", n_ticks),
        metric("service.evict_drain_ms_p50", p50(&evict_drains), "ms", Some(evict_drains.len())),
        metric("service.window_keys", c(ep.window_keys), "count", None),
        metric("service.admitted", c(ep.observed.admitted), "count", None),
        metric("service.rejected", c(ep.observed.rejected), "count", None),
        metric("service.dropped_late", c(ep.observed.dropped_late), "count", None),
        metric("service.duplicates", c(ep.observed.duplicates), "count", None),
        metric("service.queue_dropped", c(ep.observed.queue_dropped), "count", None),
        metric(
            "service.cache_hit_ratio",
            ratio(c(s.cache_hits), c(s.cache_hits + s.cache_misses)),
            "ratio",
            None,
        ),
        metric("service.incremental_share", ratio(c(s.incremental_solves), solves), "ratio", None),
        metric("service.evict_tick_share", evict_tick_share(spec), "ratio", None),
        metric("online.incr_solve_ms_p50", p50(&incr), "ms", Some(incr.len())),
        metric("online.full_solve_ms_p50", p50(&full), "ms", Some(full.len())),
        metric("online.full_share", ratio(c(s.full_solves), solves), "ratio", None),
        metric("online.cold_solve_ms", p50(&cold), "ms", Some(cold.len())),
        metric("online.solve_share", ratio(solve_ns as f64, fresh_ns as f64), "ratio", n_ticks),
        metric(
            "online.rows_per_incr",
            ratio(c(s.rows_resolved), c(s.incremental_solves)),
            "count",
            None,
        ),
        metric(
            "online.sweeps_per_full",
            ratio(full_sweeps.iter().sum(), full_sweeps.len() as f64),
            "count",
            Some(full_sweeps.len()),
        ),
        metric("linalg.flops_per_sweep", flops, "flop", None),
        metric("linalg.bytes_per_sweep", bytes, "B", None),
        metric("probes.window_integrity", integrity, "ratio", None),
        metric(
            "sharded.tick_ms_p50",
            p50(&tick_spans.iter().map(|&d| ms(d)).collect::<Vec<_>>()),
            "ms",
            Some(tick_spans.len()),
        ),
        metric("sharded.fanout_overhead_ms_p50", p50(&fanout), "ms", Some(fanout.len())),
        metric("proto.encode_us_per_1k", ratio(encode_ns as f64, encoded as f64), "us", None),
        metric(
            "proto.bytes_per_report",
            ratio(count("proto.batch_frame_bytes"), encoded as f64),
            "B",
            None,
        ),
        metric(
            "proto.estimate_bytes",
            ratio(count("proto.estimate_bytes"), queries as f64),
            "B",
            None,
        ),
        metric("proto.estimate_decode_ms_p50", p50(&decodes), "ms", Some(decodes.len())),
        metric("daemon.overhead_ms_p50", p50(&daemon_overhead), "ms", Some(daemon_overhead.len())),
        metric("daemon.frames", c(daemon.frames), "count", None),
        metric("daemon.protocol_errors", c(daemon.protocol_errors), "count", None),
        metric(
            "bench.trace_overhead",
            ratio(p50(&traced_fresh), p50(&untraced_fresh)) - 1.0,
            "ratio",
            Some(traced_fresh.len()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_work_scales_with_observed_cells_and_rank() {
        let (f1, b1) = sweep_work(1000.0, 8, 256, 4);
        let (f2, b2) = sweep_work(2000.0, 8, 256, 4);
        assert!(f2 > f1 && b2 > b1);
        let (f8, _) = sweep_work(1000.0, 8, 256, 8);
        assert!(f8 > 2.0 * f1);
        // One cell at rank 1: 2·1·2 + 4 + 2 + 3 flops; no factor rows.
        assert_eq!(sweep_work(1.0, 0, 0, 1).0, 13.0);
    }
}
