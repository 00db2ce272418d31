//! The differential oracle's model half: an independent re-implementation
//! of the streaming service's admission, backpressure, windowing, and
//! solve-scheduling semantics, built on plain `Vec`s and a modular ring
//! instead of the service's `VecDeque` machinery.
//!
//! The mirror is fed the *same* observation stream as a real one-shard
//! [`ShardedService`] and predicts, exactly:
//!
//! * every [`ServeStats`] counter (admitted / rejected / dropped_late /
//!   duplicates / queue_dropped / solves / degraded),
//! * the final window contents **bit-for-bit** — it replays the same
//!   f64 additions, retractions, and `sum / count` divisions in the
//!   same order per cell, so even accumulated rounding matches.
//!
//! Because it shares no code with the service (it does not even link
//! `probes::StreamingTcm`), agreement is evidence of correct behaviour
//! rather than of a common bug.
//!
//! [`ShardedService`]: traffic_cs::ShardedService

use std::collections::{HashMap, VecDeque};
use traffic_cs::service::{Backpressure, Observation, ServeStats, MAX_SPEED_KMH};

/// Independent model of a one-shard engine's observable state.
#[derive(Debug, Clone)]
pub struct Mirror {
    start_s: u64,
    slot_len_s: u64,
    window_slots: usize,
    num_segments: usize,
    queue_capacity: usize,
    backpressure: Backpressure,
    /// Ingest queue model (same bound + policy as the service's).
    queue: VecDeque<Observation>,
    /// Absolute index of the newest covered slot.
    head_slot: usize,
    /// Simulated clock: max non-malformed timestamp seen.
    clock_s: u64,
    /// Ring of per-slot accumulators keyed by `abs_slot % window_slots`
    /// — arithmetically identical to the service's pop-front/push-back
    /// ring because each absolute slot owns exactly one accumulator
    /// from first touch to eviction.
    sums: Vec<Vec<f64>>,
    counts: Vec<Vec<f64>>,
    /// Dedup map: admitted key -> last admitted speed.
    seen: HashMap<(u64, u64, usize), f64>,
    stats: ServeStats,
    dirty: bool,
    /// Whether any solve has succeeded (predicts `latest().is_some()`).
    has_estimate: bool,
}

impl Mirror {
    /// Builds a mirror for a service with the given grid and queue
    /// geometry. Parameters correspond to `ServeConfig` fields.
    pub fn new(
        start_s: u64,
        slot_len_s: u64,
        window_slots: usize,
        num_segments: usize,
        queue_capacity: usize,
        backpressure: Backpressure,
    ) -> Self {
        Self {
            start_s,
            slot_len_s,
            window_slots,
            num_segments,
            queue_capacity,
            backpressure,
            queue: VecDeque::new(),
            head_slot: window_slots - 1,
            clock_s: 0,
            sums: vec![vec![0.0; num_segments]; window_slots],
            counts: vec![vec![0.0; num_segments]; window_slots],
            seen: HashMap::new(),
            stats: ServeStats::default(),
            dirty: false,
            has_estimate: false,
        }
    }

    /// Predicted counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Predicts `ShardedService::latest().is_some()`.
    pub fn has_estimate(&self) -> bool {
        self.has_estimate
    }

    /// Oldest covered absolute slot.
    fn tail_slot(&self) -> usize {
        self.head_slot + 1 - self.window_slots
    }

    fn slot_of(&self, timestamp_s: u64) -> Option<usize> {
        timestamp_s.checked_sub(self.start_s).map(|d| (d / self.slot_len_s) as usize)
    }

    /// Mirrors `Service::push`: same bound, same policy, same counter.
    pub fn push(&mut self, obs: Observation) {
        if self.queue.len() >= self.queue_capacity {
            self.stats.queue_dropped += 1;
            match self.backpressure {
                Backpressure::DropNewest => return,
                Backpressure::DropOldest => {
                    self.queue.pop_front();
                }
            }
        }
        self.queue.push_back(obs);
    }

    /// Slides the window head to `slot`, zeroing every newly covered
    /// accumulator — the modular equivalent of the service's ring
    /// rotation (evicted and newly covered slots share storage).
    fn advance(&mut self, slot: usize) {
        let from = (self.head_slot + 1).max(slot.saturating_sub(self.window_slots - 1));
        for abs in from..=slot {
            let i = abs % self.window_slots;
            self.sums[i].iter_mut().for_each(|v| *v = 0.0);
            self.counts[i].iter_mut().for_each(|v| *v = 0.0);
        }
        self.head_slot = slot;
    }

    /// Mirrors `Service::admit` rule for rule, in the same order.
    fn admit(&mut self, obs: Observation) {
        if !(0.0..=MAX_SPEED_KMH).contains(&obs.speed_kmh) || obs.segment >= self.num_segments {
            self.stats.rejected += 1;
            return;
        }
        if obs.timestamp_s > self.clock_s {
            self.clock_s = obs.timestamp_s;
        }
        let slot = self.slot_of(obs.timestamp_s);
        let late = match slot {
            None => true,
            Some(s) => s < self.tail_slot(),
        };
        if late {
            self.stats.dropped_late += 1;
            return;
        }
        let slot = slot.expect("late check passed");
        let key = (obs.vehicle, obs.timestamp_s, obs.segment);
        if let Some(&old_speed) = self.seen.get(&key) {
            self.stats.duplicates += 1;
            // A seen key's slot is necessarily <= head (it was admitted
            // when head was no larger), so retraction never advances.
            let i = slot % self.window_slots;
            self.sums[i][obs.segment] -= old_speed;
            self.counts[i][obs.segment] -= 1.0;
            if self.counts[i][obs.segment] == 0.0 {
                self.sums[i][obs.segment] = 0.0;
            }
        }
        if slot > self.head_slot {
            self.advance(slot);
        }
        let i = slot % self.window_slots;
        self.sums[i][obs.segment] += obs.speed_kmh;
        self.counts[i][obs.segment] += 1.0;
        self.seen.insert(key, obs.speed_kmh);
        self.stats.admitted += 1;
        self.dirty = true;
    }

    fn prune_seen(&mut self) {
        let tail = self.tail_slot();
        let start = self.start_s;
        let slot_len = self.slot_len_s;
        self.seen.retain(|&(_, ts, _), _| match ts.checked_sub(start) {
            Some(d) => (d / slot_len) as usize >= tail,
            None => false,
        });
    }

    /// Cells currently holding at least one observation.
    pub fn observed_cells(&self) -> usize {
        self.counts.iter().flat_map(|row| row.iter()).filter(|&&c| c > 0.0).count()
    }

    /// Mirrors `Service::tick`: drain, prune, then predict the solve
    /// outcome. `zero_budget` marks a tick sabotaged with a zero
    /// wall-clock budget (a successful solve also counts as degraded).
    pub fn tick(&mut self, zero_budget: bool) {
        while let Some(obs) = self.queue.pop_front() {
            self.admit(obs);
        }
        self.prune_seen();
        if self.dirty {
            self.predict_solve(zero_budget);
        }
    }

    /// Mirrors `ShardedService::refresh` (no sabotage active): an
    /// engine that never admitted a report has nothing to solve.
    pub fn refresh(&mut self) {
        if self.stats.admitted > 0 {
            self.dirty = true;
            self.predict_solve(false);
        }
    }

    /// The solve contract: a non-empty dirty window always solves (the
    /// only solver error is "no observations"); an empty dirty window
    /// degrades and stays dirty so the next tick retries.
    fn predict_solve(&mut self, zero_budget: bool) {
        if self.observed_cells() > 0 {
            self.stats.solves += 1;
            self.dirty = false;
            self.has_estimate = true;
            if zero_budget {
                self.stats.degraded += 1;
            }
        } else {
            self.stats.degraded += 1;
        }
    }

    /// Materializes the predicted window as a [`probes::Tcm`], row 0 =
    /// oldest slot — for bit-for-bit comparison against
    /// `ShardedService::window_snapshot` and for the offline replay solve.
    pub fn expected_tcm(&self) -> probes::Tcm {
        let m = self.window_slots;
        let n = self.num_segments;
        let mut values = linalg::Matrix::zeros(m, n);
        let mut indicator = linalg::Matrix::zeros(m, n);
        for r in 0..m {
            let i = (self.tail_slot() + r) % self.window_slots;
            for c in 0..n {
                let cnt = self.counts[i][c];
                if cnt > 0.0 {
                    values.set(r, c, self.sums[i][c] / cnt);
                    indicator.set(r, c, 1.0);
                }
            }
        }
        probes::Tcm::new(values, indicator).expect("indicator is 0/1 by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_cs::service::ServeConfig;
    use traffic_cs::ShardedService;

    fn obs(vehicle: u64, ts: u64, segment: usize, speed: f64) -> Observation {
        Observation { vehicle, timestamp_s: ts, segment, speed_kmh: speed }
    }

    fn pair(policy: Backpressure, capacity: usize) -> (ShardedService, Mirror) {
        let cfg = ServeConfig::builder()
            .start_s(600)
            .slot_len_s(60)
            .window_slots(4)
            .num_segments(3)
            .queue_capacity(capacity)
            .backpressure(policy)
            .build()
            .unwrap();
        let service = ShardedService::new(cfg).unwrap();
        let mirror = Mirror::new(600, 60, 4, 3, capacity, policy);
        (service, mirror)
    }

    /// Every admission class plus dedup and eviction: the mirror must
    /// track the real service exactly — counters and window bits.
    #[test]
    fn mirror_tracks_service_through_mixed_stream() {
        let (mut service, mut mirror) = pair(Backpressure::DropNewest, 64);
        let stream = [
            obs(1, 610, 0, 30.0),          // admitted, slot 0
            obs(2, 610, 0, f64::NAN),      // rejected
            obs(6, 611, 1, 1e6),           // rejected: above the speed ceiling
            obs(6, 612, 1, MAX_SPEED_KMH), // admitted: at the ceiling
            obs(3, 5, 1, 40.0),            // pre-grid late
            obs(1, 610, 0, 35.0),          // duplicate, last write wins
            obs(4, 600 + 7 * 60, 2, 50.0), // admitted, advances head
            obs(5, 615, 0, 20.0),          // now-evicted slot -> late
        ];
        for o in stream {
            assert!(service.push(o));
            mirror.push(o);
        }
        service.tick();
        mirror.tick(false);
        assert_eq!(service.stats(), mirror.stats());
        let snap = service.window_snapshot();
        let exp = mirror.expected_tcm();
        for r in 0..snap.num_slots() {
            for c in 0..snap.num_segments() {
                assert_eq!(
                    snap.get(r, c).map(f64::to_bits),
                    exp.get(r, c).map(f64::to_bits),
                    "cell ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn mirror_tracks_backpressure_both_policies() {
        for policy in [Backpressure::DropNewest, Backpressure::DropOldest] {
            let (mut service, mut mirror) = pair(policy, 2);
            for i in 0..5u64 {
                let o = obs(i, 620 + i, 0, 25.0 + i as f64);
                service.push(o);
                mirror.push(o);
            }
            service.tick();
            mirror.tick(false);
            assert_eq!(service.stats(), mirror.stats(), "{policy:?}");
            assert_eq!(mirror.stats().queue_dropped, 3);
        }
    }

    #[test]
    fn refresh_of_a_never_fed_engine_attempts_no_solve() {
        let (mut service, mut mirror) = pair(Backpressure::DropNewest, 8);
        service.refresh();
        mirror.refresh();
        assert_eq!(service.stats(), mirror.stats());
        assert_eq!(mirror.stats().degraded, 0);
        assert_eq!(mirror.stats().solves, 0);
        assert!(!mirror.has_estimate());
        assert!(service.latest().is_none());
    }
}
