//! The seeded report stream: ground truth, holdout, injections, and the
//! exact outcome each report must meet at admission.
//!
//! Everything here is a pure function of `(spec, seed)`. The benchmark
//! forces every tick itself, so which reports land in which tick — and
//! therefore every counter, the window content, `nmae` and the estimate
//! digest — never depends on timing.

use crate::workload::Spec;
use telemetry::Fnv;

/// SplitMix64, the stream's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        fmix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn fmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-dependent hash of a few words.
pub fn hash(words: &[u64]) -> u64 {
    words.iter().fold(0x243f_6a88_85a3_08d3, |h, &w| fmix(h ^ fmix(w.wrapping_add(h))))
}

const HOLDOUT_SALT: u64 = 0x686f_6c64_6f75_7421;
const INCIDENT_SALT: u64 = 0x696e_6369_6465_6e74;
const TICK_SALT: u64 = 0x7469_636b_7469_636b;
const CITY_SEED: u64 = 0x6369_7479;
const HOT_SALT: u64 = 0x0068_6f74;

/// Whether cell `(slot, segment)` is held out for scoring: the stream
/// never sends a report into it. About one cell in ten.
pub fn held_out(seed: u64, slot: u64, segment: u64) -> bool {
    hash(&[HOLDOUT_SALT, seed, slot, segment]).is_multiple_of(10)
}

/// One probe report as generated, before it is shaped for an API.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Report {
    pub vehicle: u64,
    pub timestamp_s: u64,
    pub segment: u64,
    pub speed_kmh: f64,
}

/// Admission outcomes, predicted by the generator or read from the
/// engine. `duplicates` is a subset of `admitted`: a re-delivery
/// replaces the earlier speed and is admitted again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outcome {
    pub offered: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub dropped_late: u64,
    pub duplicates: u64,
}

impl Outcome {
    pub fn add(&mut self, o: Outcome) {
        self.offered += o.offered;
        self.admitted += o.admitted;
        self.rejected += o.rejected;
        self.dropped_late += o.dropped_late;
        self.duplicates += o.duplicates;
    }
}

/// Synthetic ground truth: free-flow speed times one minus a rank-3
/// congestion profile (base load plus morning and evening peaks), with
/// incidents that break the low-rank structure.
///
/// The city is part of the workload, like its geometry: it is the same
/// for every seed, which drives only the day's traffic (who reports
/// where and when, the noise, the holdout and the injections). With a
/// per-seed city, `nmae` moved ~18% between seeds on `dense-core`.
#[derive(Debug, Clone)]
pub struct Truth {
    slot_len_s: u64,
    free: Vec<f64>,
    load: Vec<[f64; 3]>,
}

/// The stream clock starts at 06:00 so the windows see the morning peak.
const DAY_START_S: u64 = 6 * 3600;

impl Truth {
    pub fn new(segments: usize, slot_len_s: u64) -> Self {
        let mut rng = Rng::new(CITY_SEED);
        let free = (0..segments).map(|_| 30.0 + 50.0 * rng.unit()).collect();
        let load = (0..segments).map(|_| [rng.unit(), rng.unit(), rng.unit()]).collect();
        Self { slot_len_s, free, load }
    }

    /// True mean speed of cell `(slot, segment)`, km/h.
    pub fn speed(&self, slot: u64, segment: usize) -> f64 {
        let t = (DAY_START_S + slot * self.slot_len_s + self.slot_len_s / 2) % 86_400;
        let hour = t as f64 / 3600.0;
        let morning = (-((hour - 8.0) / 1.5).powi(2)).exp();
        let evening = (-((hour - 17.5) / 2.0).powi(2)).exp();
        let l = &self.load[segment];
        let mut congestion = 0.1 * l[0] + 0.5 * l[1] * morning + 0.5 * l[2] * evening;
        // An incident holds for four slots on about one segment in 50.
        if hash(&[INCIDENT_SALT, segment as u64, slot / 4]).is_multiple_of(50) {
            congestion += 0.2;
        }
        self.free[segment] * (1.0 - congestion.min(0.85))
    }
}

/// Generates one workload's report stream tick by tick.
#[derive(Debug)]
pub struct Stream {
    spec: Spec,
    seed: u64,
    truth: Truth,
    hot: Vec<u64>,
    tick: u64,
    next_vehicle: u64,
    prev_fresh: Vec<Report>,
    cur_fresh: Vec<Report>,
    /// Fresh (first-delivery) reports per absolute slot; each is one
    /// distinct dedup key.
    fresh_per_slot: Vec<u64>,
    digest: Fnv,
}

impl Stream {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let mut rng = Rng::new(hash(&[HOT_SALT, seed]));
        let hot = (0..spec.hot_segments).map(|_| rng.next_u64() % spec.segments as u64).collect();
        Self {
            spec: spec.clone(),
            seed,
            truth: Truth::new(spec.segments, spec.slot_len_s),
            hot,
            tick: 0,
            next_vehicle: 1,
            prev_fresh: Vec::new(),
            cur_fresh: Vec::new(),
            fresh_per_slot: Vec::new(),
            digest: Fnv::new(),
        }
    }

    pub fn truth(&self) -> &Truth {
        &self.truth
    }

    /// Index of the next tick [`Stream::next_batch`] generates.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// FNV-1a over every report generated so far, in order.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Distinct admitted `(vehicle, ts, segment)` keys inside the window
    /// whose newest slot is `head_slot`: the dedup table's size after
    /// that tick's prune.
    pub fn window_keys(&self, head_slot: u64) -> u64 {
        let w = self.spec.window_slots as u64;
        let tail = (head_slot + 1).saturating_sub(w) as usize;
        let end = (head_slot as usize + 1).min(self.fresh_per_slot.len());
        self.fresh_per_slot.get(tail..end).map_or(0, |s| s.iter().sum())
    }

    /// Slot the current tick's fresh reports fall in.
    pub fn slot_of_tick(&self, tick: u64) -> u64 {
        tick / self.spec.ticks_per_slot
    }

    /// A valid segment whose cell in `slot` is not held out.
    fn segment(&self, rng: &mut Rng, slot: u64) -> u64 {
        let n = self.spec.segments as u64;
        let hot =
            !self.hot.is_empty() && rng.next_u64() % 10_000 < u64::from(self.spec.hot_per_10k);
        loop {
            let seg = if hot {
                self.hot[(rng.next_u64() % self.hot.len() as u64) as usize]
            } else {
                rng.next_u64() % n
            };
            if !held_out(self.seed, slot, seg) {
                return seg;
            }
        }
    }

    fn noisy(&self, rng: &mut Rng, slot: u64, segment: u64) -> f64 {
        self.truth.speed(slot, segment as usize) * (0.95 + 0.1 * rng.unit())
    }

    /// Fills `out` with the next tick's batch and returns the outcome
    /// counts the engine must report for it.
    pub fn next_batch(&mut self, out: &mut Vec<Report>) -> Outcome {
        out.clear();
        let Spec { slot_len_s, ticks_per_slot, window_slots, segments, reports_per_tick, .. } =
            self.spec;
        let dt = slot_len_s / ticks_per_slot;
        let t0 = self.tick * dt;
        let slot = self.slot_of_tick(self.tick);
        let mut rng = Rng::new(hash(&[TICK_SALT, self.seed, self.tick]));
        let mut expect = Outcome::default();
        // A late report lands two slots behind the window's tail, so it is
        // late whether or not this tick has slid the window yet.
        let late_slot = slot.checked_sub(window_slots as u64 + 1);
        let (malformed, late, redeliver) =
            (self.spec.malformed_per_10k, self.spec.late_per_10k, self.spec.redeliver_per_10k);
        for _ in 0..reports_per_tick {
            let cat = (rng.next_u64() % 10_000) as u32;
            let report = if cat < malformed {
                expect.rejected += 1;
                let vehicle = self.take_vehicle();
                let timestamp_s = t0 + rng.next_u64() % dt;
                let (segment, speed_kmh) = match rng.next_u64() % 3 {
                    0 => (self.segment(&mut rng, slot), -1.0),
                    1 => (self.segment(&mut rng, slot), f64::NAN),
                    _ => (segments as u64 + rng.next_u64() % 1000, 40.0),
                };
                Report { vehicle, timestamp_s, segment, speed_kmh }
            } else if let (true, Some(ls)) = (cat < malformed + late, late_slot) {
                expect.dropped_late += 1;
                let segment = self.segment(&mut rng, ls);
                let ts = ls * slot_len_s + rng.next_u64() % slot_len_s;
                let speed_kmh = self.noisy(&mut rng, ls, segment);
                Report { vehicle: self.take_vehicle(), timestamp_s: ts, segment, speed_kmh }
            } else if cat < malformed + late + redeliver && !self.prev_fresh.is_empty() {
                expect.duplicates += 1;
                expect.admitted += 1;
                self.prev_fresh[(rng.next_u64() % self.prev_fresh.len() as u64) as usize]
            } else {
                expect.admitted += 1;
                let segment = self.segment(&mut rng, slot);
                let ts = t0 + rng.next_u64() % dt;
                let speed_kmh = self.noisy(&mut rng, slot, segment);
                let r =
                    Report { vehicle: self.take_vehicle(), timestamp_s: ts, segment, speed_kmh };
                self.cur_fresh.push(r);
                r
            };
            self.digest.write_u64(report.vehicle);
            self.digest.write_u64(report.timestamp_s);
            self.digest.write_u64(report.segment);
            self.digest.write_u64(report.speed_kmh.to_bits());
            out.push(report);
        }
        expect.offered = out.len() as u64;
        let fresh = expect.admitted - expect.duplicates;
        if self.fresh_per_slot.len() <= slot as usize {
            self.fresh_per_slot.resize(slot as usize + 1, 0);
        }
        self.fresh_per_slot[slot as usize] += fresh;
        std::mem::swap(&mut self.prev_fresh, &mut self.cur_fresh);
        self.cur_fresh.clear();
        self.tick += 1;
        expect
    }

    fn take_vehicle(&mut self) -> u64 {
        let v = self.next_vehicle;
        self.next_vehicle += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Spec, DEFAULT_SEED};
    use std::collections::HashMap;

    fn small() -> Spec {
        Spec {
            segments: 40,
            window_slots: 3,
            ticks_per_slot: 2,
            reports_per_tick: 300,
            hot_segments: 6,
            hot_per_10k: 5000,
            redeliver_per_10k: 300,
            late_per_10k: 200,
            malformed_per_10k: 100,
            ..Spec::named("dense-core").expect("known workload")
        }
    }

    fn stream_digest(spec: &Spec, seed: u64, ticks: u64) -> u64 {
        let mut s = Stream::new(spec, seed);
        let mut batch = Vec::new();
        for _ in 0..ticks {
            s.next_batch(&mut batch);
        }
        s.digest()
    }

    #[test]
    fn stream_is_a_pure_function_of_the_seed() {
        for name in ["dense-core", "metro-sparse", "wire-mixed"] {
            let spec = Spec::named(name).expect("known workload");
            let a = stream_digest(&spec, DEFAULT_SEED, 12);
            assert_eq!(a, stream_digest(&spec, DEFAULT_SEED, 12), "{name}");
            assert_ne!(a, stream_digest(&spec, DEFAULT_SEED + 1, 12), "{name}");
        }
    }

    #[test]
    fn default_seed_digests_are_pinned() {
        let got: Vec<u64> = ["dense-core", "metro-sparse", "wire-mixed"]
            .iter()
            .map(|n| stream_digest(&Spec::named(n).expect("known workload"), DEFAULT_SEED, 12))
            .collect();
        assert_eq!(got, PINNED, "stream changed: got {got:#018x?}");
    }

    const PINNED: [u64; 3] = [0xa1f9_0a5f_a762_3daf, 0xe8b7_1ed1_f4e9_3c5a, 0xfb56_d08f_0692_04ac];

    #[test]
    fn holdout_is_a_pure_function_of_the_seed_and_near_a_tenth() {
        let cells: Vec<bool> =
            (0..200).flat_map(|s| (0..500).map(move |j| held_out(7, s, j))).collect();
        let again: Vec<bool> =
            (0..200).flat_map(|s| (0..500).map(move |j| held_out(7, s, j))).collect();
        assert_eq!(cells, again);
        let share = cells.iter().filter(|&&h| h).count() as f64 / cells.len() as f64;
        assert!((share - 0.1).abs() < 0.005, "holdout share {share}");
        let other: Vec<bool> =
            (0..200).flat_map(|s| (0..500).map(move |j| held_out(8, s, j))).collect();
        assert_ne!(cells, other);
    }

    #[test]
    fn held_out_cells_are_never_sent() {
        let spec = small();
        let mut s = Stream::new(&spec, 3);
        let mut batch = Vec::new();
        let mut sent = 0;
        for _ in 0..40 {
            s.next_batch(&mut batch);
            for r in &batch {
                if r.segment < spec.segments as u64 {
                    let slot = r.timestamp_s / spec.slot_len_s;
                    assert!(!held_out(3, slot, r.segment), "sent held-out cell {r:?}");
                    sent += 1;
                }
            }
        }
        assert!(sent > 10_000);
    }

    /// Admission rules re-implemented the plain way: a key set, a
    /// sliding tail, and a prune at the end of every tick.
    fn brute_force(spec: &Spec, batches: &[Vec<Report>]) -> (Outcome, u64) {
        let w = spec.window_slots as u64;
        let mut head = w - 1;
        let mut seen: HashMap<(u64, u64, u64), f64> = HashMap::new();
        let mut out = Outcome::default();
        for batch in batches {
            for r in batch {
                out.offered += 1;
                let bad_speed = !r.speed_kmh.is_finite() || r.speed_kmh < 0.0;
                if bad_speed || r.segment >= spec.segments as u64 {
                    out.rejected += 1;
                    continue;
                }
                let slot = r.timestamp_s / spec.slot_len_s;
                if slot + w <= head {
                    out.dropped_late += 1;
                    continue;
                }
                head = head.max(slot);
                if seen.insert((r.vehicle, r.timestamp_s, r.segment), r.speed_kmh).is_some() {
                    out.duplicates += 1;
                }
                out.admitted += 1;
            }
            seen.retain(|&(_, ts, _), _| ts / spec.slot_len_s + w > head);
        }
        (out, seen.len() as u64)
    }

    #[test]
    fn predicted_outcomes_match_a_brute_force_recount() {
        let spec = small();
        for seed in [1, 2, 3] {
            let mut s = Stream::new(&spec, seed);
            let mut predicted = Outcome::default();
            let mut batches = Vec::new();
            for _ in 0..30 {
                let mut batch = Vec::new();
                predicted.add(s.next_batch(&mut batch));
                batches.push(batch);
            }
            let (recount, keys) = brute_force(&spec, &batches);
            assert_eq!(predicted, recount, "seed {seed}");
            assert!(predicted.rejected > 0 && predicted.dropped_late > 0);
            assert!(predicted.duplicates > 0);
            assert_eq!(s.window_keys(s.slot_of_tick(s.tick() - 1)), keys, "seed {seed}");
        }
    }
}
