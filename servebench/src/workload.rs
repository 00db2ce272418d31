//! The three workloads and the closed-loop episode that drives each one
//! through the serve engine's public API.
//!
//! An episode builds a fresh engine, warms it up until its estimate
//! covers a full window (timed as set-up), then runs a fixed number of
//! measured ticks. One generator thread sends the next tick's batch only
//! after the previous tick's estimate is published, and forces every
//! tick itself (`ShardedService::tick` or a wire `Sync`), so an episode's
//! content is a pure function of the seed and only its clock readings
//! vary.

use crate::gate::{Fingerprint, Observed};
use crate::gen::{held_out, Outcome, Report, Stream, Truth};
use crate::trace::{Recorder, SolvePath, TickCounts};
use proto::frame::{read_frame, write_frame, HEADER_LEN, MAX_FRAME_LEN};
use proto::msg::{Request, Response, WireEstimate, WireReport, WireStats};
use proto::{BindAddr, Client};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use telemetry::Fnv;
use traffic_cs::cs::CsConfig;
use traffic_cs::daemon::{Daemon, DaemonConfig, DaemonStats};
use traffic_cs::service::{Observation, ServeConfig, ServeStats, SolveStats};
use traffic_cs::sharded::{ShardPlan, ShardedService};

pub const DEFAULT_SEED: u64 = 1;
pub const NAMES: [&str; 3] = ["dense-core", "metro-sparse", "wire-mixed"];

/// Geometry, traffic mix and run length of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Drive a `Daemon` over a Unix socket instead of an in-process engine.
    pub wire: bool,
    pub shards: usize,
    pub segments: usize,
    pub window_slots: usize,
    pub slot_len_s: u64,
    pub ticks_per_slot: u64,
    pub rank: usize,
    pub lambda: f64,
    pub reports_per_tick: usize,
    /// Size of the hot segment subset (0 spreads reports uniformly).
    pub hot_segments: usize,
    /// Share of fresh reports that go to the hot subset, per 10 000.
    pub hot_per_10k: u32,
    pub redeliver_per_10k: u32,
    pub late_per_10k: u32,
    pub malformed_per_10k: u32,
    /// Ticks measured after the warm-up.
    pub measured_ticks: usize,
    /// Score `nmae` on every this-many-th measured tick.
    pub nmae_every: usize,
}

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "",
            wire: false,
            shards: 1,
            segments: 256,
            window_slots: 8,
            slot_len_s: 900,
            ticks_per_slot: 6,
            rank: 4,
            lambda: 10.0,
            reports_per_tick: 20_000,
            hot_segments: 0,
            hot_per_10k: 0,
            redeliver_per_10k: 0,
            late_per_10k: 0,
            malformed_per_10k: 0,
            measured_ticks: 96,
            nmae_every: 8,
        };
        match name {
            // Admission dominates: a ~1M-key dedup table, a tiny solve.
            "dense-core" => Some(Spec {
                name: "dense-core",
                hot_segments: 32,
                hot_per_10k: 5_000,
                redeliver_per_10k: 100,
                late_per_10k: 50,
                malformed_per_10k: 10,
                ..base
            }),
            // The solve dominates: a wide, sparse window (Table 1's regime).
            "metro-sparse" => Some(Spec {
                name: "metro-sparse",
                segments: 8_192,
                window_slots: 16,
                rank: 8,
                reports_per_tick: 400,
                redeliver_per_10k: 50,
                late_per_10k: 20,
                malformed_per_10k: 10,
                measured_ticks: 192,
                nmae_every: 16,
                ..base
            }),
            // The only path with the codec, engine channel, shard fan-out
            // and merge; reads beside writes.
            "wire-mixed" => Some(Spec {
                name: "wire-mixed",
                wire: true,
                shards: 4,
                segments: 16_384,
                reports_per_tick: 5_000,
                redeliver_per_10k: 50,
                late_per_10k: 20,
                malformed_per_10k: 10,
                ..base
            }),
            _ => None,
        }
    }

    /// Ticks until the estimate covers a full window: every slot of the
    /// first window has received all of its ticks.
    pub fn warmup_ticks(&self) -> usize {
        self.window_slots * self.ticks_per_slot as usize
    }

    /// Whether tick `tick` is the first of its slot, the one that slides
    /// the window and evicts a slot.
    pub fn slides_window(&self, tick: u64) -> bool {
        tick.is_multiple_of(self.ticks_per_slot)
    }

    fn serve_config(&self) -> Result<ServeConfig, String> {
        ServeConfig::builder()
            .slot_len_s(self.slot_len_s)
            .window_slots(self.window_slots)
            .num_segments(self.segments)
            // Room for two whole batches on every shard: the queue is a
            // pressure valve here, not the thing under test.
            .queue_capacity(2 * self.reports_per_tick)
            .cs(CsConfig { rank: self.rank, lambda: self.lambda, ..CsConfig::default() })
            .shards(ShardPlan::with_count(self.shards))
            .build()
            .map_err(|e| format!("serve config: {e}"))
    }
}

/// Clock readings and engine-reported figures of one measured tick.
#[derive(Debug, Clone, Copy)]
pub struct TickRec {
    /// Batch handed over → estimate including it published.
    pub fresh_ns: u64,
    pub query_ns: u64,
    pub admitted: u64,
}

/// Everything one episode measured and counted.
#[derive(Debug)]
pub struct Episode {
    pub setup_ns: u64,
    pub cold_solve_us: u64,
    pub ticks: Vec<TickRec>,
    pub expected: Outcome,
    pub observed: Observed,
    pub solve: SolveStats,
    pub fingerprint: Fingerprint,
    pub window_keys: u64,
    pub window_integrity: f64,
    pub daemon: Option<DaemonStats>,
    pub queries: u64,
}

/// Held-out-cell scorer: the paper's NMAE (Definition 2) over the
/// cells the stream never sent, averaged over sampled estimates.
struct Scorer {
    seed: u64,
    truth: Truth,
    segments: usize,
    sum: f64,
    samples: u64,
}

impl Scorer {
    fn new(spec: &Spec, seed: u64, truth: Truth) -> Self {
        Self { seed, truth, segments: spec.segments, sum: 0.0, samples: 0 }
    }

    fn score(&mut self, head_slot: u64, rows: usize, est: impl Fn(usize, usize) -> f64) {
        let tail = head_slot + 1 - rows as u64;
        let (mut num, mut den) = (0.0, 0.0);
        for r in 0..rows {
            let slot = tail + r as u64;
            for seg in 0..self.segments {
                if held_out(self.seed, slot, seg as u64) {
                    let t = self.truth.speed(slot, seg);
                    num += (t - est(r, seg)).abs();
                    den += t.abs();
                }
            }
        }
        self.sum += num / den;
        self.samples += 1;
    }

    fn nmae(&self) -> f64 {
        self.sum / self.samples as f64
    }
}

fn estimate_digest(
    head_slot: u64,
    rows: usize,
    cols: usize,
    stale: bool,
    bits: impl Fn(usize, usize) -> u64,
) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(head_slot);
    h.write_u64(rows as u64);
    h.write_u64(cols as u64);
    h.write_u64(u64::from(stale));
    for r in 0..rows {
        for c in 0..cols {
            h.write_u64(bits(r, c));
        }
    }
    h.finish()
}

fn observed(end: ServeStats, start: ServeStats, stale: u64, wire_faults: u64) -> Observed {
    Observed {
        admitted: end.admitted - start.admitted,
        rejected: end.rejected - start.rejected,
        dropped_late: end.dropped_late - start.dropped_late,
        duplicates: end.duplicates - start.duplicates,
        queue_dropped: end.queue_dropped - start.queue_dropped,
        solves: end.solves - start.solves,
        degraded: end.degraded - start.degraded,
        stale,
        wire_faults,
    }
}

fn solve_delta(end: SolveStats, start: SolveStats) -> SolveStats {
    SolveStats {
        cache_hits: end.cache_hits - start.cache_hits,
        cache_misses: end.cache_misses - start.cache_misses,
        incremental_solves: end.incremental_solves - start.incremental_solves,
        full_solves: end.full_solves - start.full_solves,
        rows_resolved: end.rows_resolved - start.rows_resolved,
    }
}

fn path_of(d: &SolveStats) -> SolvePath {
    if d.full_solves > 0 {
        SolvePath::Full
    } else if d.incremental_solves > 0 {
        SolvePath::Incremental
    } else if d.cache_hits > 0 {
        SolvePath::Cache
    } else {
        SolvePath::None
    }
}

fn to_observation(r: &Report) -> Observation {
    Observation {
        vehicle: r.vehicle,
        timestamp_s: r.timestamp_s,
        segment: usize::try_from(r.segment).unwrap_or(usize::MAX),
        speed_kmh: r.speed_kmh,
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// One in-process episode on a `ShardedService` with the spec's shard
/// plan. With a recorder it also records spans and per-tick counts.
pub fn run_inproc(
    spec: &Spec,
    seed: u64,
    mut rec: Option<&mut Recorder>,
) -> Result<Episode, String> {
    let mut stream = Stream::new(spec, seed);
    let mut scorer = Scorer::new(spec, seed, stream.truth().clone());
    let mut reports = Vec::with_capacity(spec.reports_per_tick);
    let mut batch: Vec<Observation> = Vec::with_capacity(spec.reports_per_tick);

    let t = Instant::now();
    let mut svc = ShardedService::new(spec.serve_config()?).map_err(|e| e.to_string())?;
    let mut setup_ns = ns(t, Instant::now());
    let mut cold_solve_us = 0;
    for k in 0..spec.warmup_ticks() {
        stream.next_batch(&mut reports);
        batch.clear();
        batch.extend(reports.iter().map(to_observation));
        let t = Instant::now();
        for &obs in &batch {
            svc.push(obs);
        }
        let report = svc.tick();
        setup_ns += ns(t, Instant::now());
        if k == 0 {
            cold_solve_us = report.solve_us;
        }
    }

    let (stats0, solve0) = (svc.stats(), svc.solve_stats());
    let mut solve_prev = solve0;
    let mut expected = Outcome::default();
    let mut ticks = Vec::with_capacity(spec.measured_ticks);
    let mut stale = 0;
    for k in 0..spec.measured_ticks {
        let tick = stream.tick();
        expected.add(stream.next_batch(&mut reports));
        batch.clear();
        batch.extend(reports.iter().map(to_observation));

        let t0 = Instant::now();
        for &obs in &batch {
            svc.push(obs);
        }
        let t1 = rec.is_some().then(Instant::now);
        let report = svc.tick();
        let t2 = Instant::now();
        // The read a query consumer makes: copy the merged estimate out.
        let q0 = Instant::now();
        let est = black_box(svc.latest().cloned());
        let q1 = Instant::now();
        let est = est.ok_or("no estimate after a tick")?;

        if let (Some(rec), Some(t1)) = (rec.as_deref_mut(), t1) {
            let n = batch.len() as u64;
            let root = rec.span("bench.fresh", t0, t2, None, tick, n);
            rec.span("sharded.push", t0, t1, Some(root), tick, n);
            rec.span("sharded.tick", t1, t2, Some(root), tick, 0);
            rec.span("bench.query", q0, q1, None, tick, 0);
            let now = svc.solve_stats();
            let d = solve_delta(now, solve_prev);
            solve_prev = now;
            let path = path_of(&d);
            rec.ticks.push(TickCounts {
                tick,
                tick_us: report.tick_us,
                solve_us: report.solve_us,
                drained: (report.admitted + report.rejected + report.dropped_late) as u64,
                evict: spec.slides_window(tick),
                path,
                rows_resolved: d.rows_resolved,
                sweeps: if path == SolvePath::Full { est.sweeps as u64 } else { 0 },
            });
        }
        stale += u64::from(est.stale);
        if (k + 1) % spec.nmae_every == 0 {
            scorer.score(est.head_slot as u64, est.estimate.rows(), |r, c| est.estimate.get(r, c));
        }
        ticks.push(TickRec {
            fresh_ns: ns(t0, t2),
            query_ns: ns(q0, q1),
            admitted: report.admitted as u64,
        });
    }

    let est = svc.latest().ok_or("no final estimate")?;
    let (rows, cols) = (est.estimate.rows(), est.estimate.cols());
    let digest = estimate_digest(est.head_slot as u64, rows, cols, est.stale, |r, c| {
        est.estimate.get(r, c).to_bits()
    });
    let observed = observed(svc.stats(), stats0, stale, 0);
    let head_slot = est.head_slot as u64;
    Ok(Episode {
        setup_ns,
        cold_solve_us,
        queries: ticks.len() as u64,
        ticks,
        expected,
        observed,
        solve: solve_delta(svc.solve_stats(), solve0),
        fingerprint: Fingerprint {
            nmae_bits: scorer.nmae().to_bits(),
            observed,
            estimate_digest: digest,
            stream_digest: stream.digest(),
        },
        window_keys: stream.window_keys(head_slot),
        window_integrity: svc.window_snapshot().integrity(),
        daemon: None,
    })
}

/// The engine's answer to one forced tick.
struct Synced {
    pushed: u64,
    tick_us: u64,
    solve_us: u64,
    stats: WireStats,
}

fn serve_stats(w: &WireStats) -> ServeStats {
    ServeStats {
        admitted: w.admitted,
        rejected: w.rejected,
        dropped_late: w.dropped_late,
        duplicates: w.duplicates,
        queue_dropped: w.queue_dropped,
        solves: w.solves,
        degraded: w.degraded,
    }
}

/// Sends one tick's batch and forces the tick: encode the `ReportBatch`,
/// write it, then a `Sync` round trip. The same calls `Client::send`
/// and `Client::request` make, split so each can be timed. Returns the
/// reply and the clock at start, encoded, batch sent and synced.
fn push_and_sync(
    client: &mut Client,
    batch: Vec<WireReport>,
    frame_bytes: &mut u64,
) -> Result<(Synced, [Instant; 4]), String> {
    let t0 = Instant::now();
    let payload = Request::ReportBatch(batch).encode();
    let t1 = Instant::now();
    write_frame(client.conn_mut(), &payload).map_err(|e| format!("wire send: {e}"))?;
    let t2 = Instant::now();
    let reply = client.request(&Request::Sync).map_err(|e| format!("wire sync: {e}"))?;
    let t3 = Instant::now();
    *frame_bytes += (HEADER_LEN + payload.len()) as u64;
    match reply {
        Response::Synced { pushed, tick_us, solve_us, stats } => {
            Ok((Synced { pushed, tick_us, solve_us, stats }, [t0, t1, t2, t3]))
        }
        other => Err(format!("wire sync: expected Synced, got {other:?}")),
    }
}

/// A `QueryEstimate` round trip: returns the estimate, its payload size
/// and the clock at send, frame read and decode.
fn query(client: &mut Client) -> Result<(Option<WireEstimate>, usize, [Instant; 3]), String> {
    let q0 = Instant::now();
    write_frame(client.conn_mut(), &Request::QueryEstimate.encode())
        .map_err(|e| format!("wire query: {e}"))?;
    let payload = read_frame(client.conn_mut(), MAX_FRAME_LEN)
        .map_err(|e| format!("wire query: {e}"))?
        .ok_or("wire query: daemon closed the connection")?;
    let q1 = Instant::now();
    let resp = Response::decode(&payload).map_err(|e| format!("wire decode: {e}"))?;
    let q2 = Instant::now();
    match resp {
        Response::Estimate(est) => Ok((est, payload.len(), [q0, q1, q2])),
        _ => Ok((None, payload.len(), [q0, q1, q2])),
    }
}

fn to_wire(r: &Report) -> WireReport {
    WireReport::new(r.vehicle, r.timestamp_s, r.segment, r.speed_kmh)
}

/// One wire episode: a `Daemon` on a Unix socket at `sock`, one ordered
/// ingest connection (`ReportBatch` then `Sync` each tick) and one query
/// connection (`QueryEstimate` after each `Synced`, while the engine is
/// idle). The daemon's own tick timer is parked beyond the run, so
/// `Sync` alone forces ticks.
pub fn run_wire(
    spec: &Spec,
    seed: u64,
    sock: &Path,
    rec: Option<&mut Recorder>,
) -> Result<Episode, String> {
    let t = Instant::now();
    let mut cfg = DaemonConfig::new(BindAddr::Unix(sock.to_path_buf()), spec.serve_config()?);
    cfg.tick_interval = Duration::from_secs(86_400);
    cfg.poll_interval = Duration::from_millis(5);
    let daemon = Daemon::bind(cfg).map_err(|e| format!("daemon bind: {e}"))?;
    let handle = daemon.spawn().map_err(|e| format!("daemon spawn: {e}"))?;
    let connect = || {
        let c = Client::connect(handle.addr()).map_err(|e| format!("wire connect: {e}"))?;
        c.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        Ok::<_, String>(c)
    };
    let clients = connect().and_then(|a| Ok((a, connect()?)));
    let setup_ns = ns(t, Instant::now());
    let result = clients.and_then(|(mut ingest, mut reader)| {
        let r = wire_ticks(spec, seed, &mut ingest, &mut reader, rec, setup_ns);
        ingest.close();
        reader.close();
        r
    });
    handle.stop();
    let daemon = handle.join().map_err(|e| format!("daemon join: {e}"))?;
    let mut episode = result?;
    episode.observed.wire_faults += daemon.protocol_errors;
    episode.fingerprint.observed = episode.observed;
    episode.daemon = Some(daemon);
    Ok(episode)
}

/// The warm-up and measured ticks of [`run_wire`] over connected clients.
fn wire_ticks(
    spec: &Spec,
    seed: u64,
    ingest: &mut Client,
    reader: &mut Client,
    mut rec: Option<&mut Recorder>,
    mut setup_ns: u64,
) -> Result<Episode, String> {
    let mut stream = Stream::new(spec, seed);
    let mut scorer = Scorer::new(spec, seed, stream.truth().clone());
    let mut reports = Vec::with_capacity(spec.reports_per_tick);
    let mut frame_bytes = 0;
    let mut cold_solve_us = 0;
    let mut stats0 = WireStats::default();
    for k in 0..spec.warmup_ticks() {
        stream.next_batch(&mut reports);
        let batch: Vec<WireReport> = reports.iter().map(to_wire).collect();
        let (synced, [t0, .., t3]) = push_and_sync(ingest, batch, &mut frame_bytes)?;
        setup_ns += ns(t0, t3);
        if k == 0 {
            cold_solve_us = synced.solve_us;
        }
        stats0 = synced.stats;
    }

    let mut expected = Outcome::default();
    let mut ticks = Vec::with_capacity(spec.measured_ticks);
    let (mut stale, mut faults) = (0, 0);
    let mut prev = stats0;
    let mut last: Option<WireEstimate> = None;
    frame_bytes = 0;
    for k in 0..spec.measured_ticks {
        let tick = stream.tick();
        let outcome = stream.next_batch(&mut reports);
        expected.add(outcome);
        let batch: Vec<WireReport> = reports.iter().map(to_wire).collect();
        let (synced, [t0, t1, t2, t3]) = push_and_sync(ingest, batch, &mut frame_bytes)?;
        let (est, est_bytes, [q0, q1, q2]) = query(reader)?;
        faults += u64::from(synced.pushed != outcome.offered);
        if let Some(rec) = rec.as_deref_mut() {
            let root = rec.span("bench.fresh", t0, t3, None, tick, outcome.offered);
            rec.span("proto.encode", t0, t1, Some(root), tick, outcome.offered);
            rec.span("daemon.send", t1, t2, Some(root), tick, outcome.offered);
            rec.span("daemon.sync", t2, t3, Some(root), tick, 0);
            let q = rec.span("bench.query", q0, q2, None, tick, 0);
            rec.span("daemon.query", q0, q1, Some(q), tick, 0);
            rec.span("proto.decode", q1, q2, Some(q), tick, 0);
            rec.count("proto.estimate_bytes", est_bytes as u64);
            rec.ticks.push(TickCounts {
                tick,
                tick_us: synced.tick_us,
                solve_us: synced.solve_us,
                drained: outcome.offered,
                evict: spec.slides_window(tick),
                path: SolvePath::None,
                rows_resolved: 0,
                sweeps: 0,
            });
        }
        ticks.push(TickRec {
            fresh_ns: ns(t0, t3),
            query_ns: ns(q0, q2),
            admitted: synced.stats.admitted - prev.admitted,
        });
        prev = synced.stats;
        let Some(est) = est else {
            faults += 1;
            continue;
        };
        stale += u64::from(est.stale);
        if (k + 1) % spec.nmae_every == 0 {
            let cols = est.cols as usize;
            scorer.score(est.head_slot, est.rows as usize, |r, c| {
                f64::from_bits(est.values_bits[r * cols + c])
            });
        }
        last = Some(est);
    }
    if let Some(rec) = rec {
        rec.count("proto.batch_frame_bytes", frame_bytes);
    }
    let est = last.ok_or("no estimate was ever read back")?;
    let cols = est.cols as usize;
    let digest = estimate_digest(est.head_slot, est.rows as usize, cols, est.stale, |r, c| {
        est.values_bits[r * cols + c]
    });
    let observed = observed(serve_stats(&prev), serve_stats(&stats0), stale, faults);
    Ok(Episode {
        setup_ns,
        cold_solve_us,
        queries: spec.measured_ticks as u64,
        ticks,
        expected,
        observed,
        solve: SolveStats::default(),
        fingerprint: Fingerprint {
            nmae_bits: scorer.nmae().to_bits(),
            observed,
            estimate_digest: digest,
            stream_digest: stream.digest(),
        },
        window_keys: stream.window_keys(est.head_slot),
        window_integrity: 0.0,
        daemon: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate;

    fn tiny(name: &str) -> Spec {
        Spec {
            segments: 48,
            window_slots: 4,
            ticks_per_slot: 2,
            rank: 2,
            reports_per_tick: 400,
            measured_ticks: 10,
            nmae_every: 2,
            redeliver_per_10k: 200,
            late_per_10k: 200,
            malformed_per_10k: 100,
            ..Spec::named(name).expect("known workload")
        }
    }

    fn failed(checks: &[gate::Check]) -> Vec<&'static str> {
        checks.iter().filter(|c| !c.ok).map(|c| c.name).collect()
    }

    #[test]
    fn the_engine_meets_the_prediction_and_a_wrong_one_fails() {
        let spec = tiny("dense-core");
        let a = run_inproc(&spec, 5, None).expect("episode runs");
        assert!(failed(&gate::check_episode(&a.expected, &a.observed)).is_empty());
        assert!(
            a.expected.rejected > 0 && a.expected.dropped_late > 0 && a.expected.duplicates > 0
        );
        let mut rec = Recorder::default();
        let b = run_inproc(&spec, 5, Some(&mut rec)).expect("episode runs");
        assert!(gate::check_repeat(&a.fingerprint, &b.fingerprint).ok, "tracing changed results");
        assert_eq!(rec.ticks.len(), spec.measured_ticks);

        let mut wrong = a.expected;
        wrong.duplicates += 1;
        assert_eq!(failed(&gate::check_episode(&wrong, &a.observed)), ["duplicates"]);
    }

    #[test]
    fn a_wire_episode_matches_its_in_process_replay() {
        let spec = tiny("wire-mixed");
        let sock = std::path::PathBuf::from(format!("servebench-test-{}.sock", std::process::id()));
        let mut rec = Recorder::default();
        let wire = run_wire(&spec, 9, &sock, Some(&mut rec)).expect("wire episode runs");
        let replay = run_inproc(&spec, 9, None).expect("replay runs");
        assert!(failed(&gate::check_episode(&wire.expected, &wire.observed)).is_empty());
        assert!(gate::check_replay(&wire.fingerprint, &replay.fingerprint).ok);
        let daemon = wire.daemon.expect("daemon stats");
        // Two handshakes, a batch and a sync per tick, a query per measured tick.
        let ticks = (spec.warmup_ticks() + spec.measured_ticks) as u64;
        assert_eq!(daemon.frames, 2 + 2 * ticks + spec.measured_ticks as u64);
        assert_eq!(daemon.protocol_errors, 0);
        assert!(!sock.exists(), "the daemon removes its socket");
    }
}
