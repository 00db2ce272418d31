//! The serve engine: segment-range shards behind one surface.
//!
//! [`ShardedService`] is the one engine the serve daemon, the CSV
//! replayer, the chaos harnesses and servebench all drive. A validated
//! [`ShardPlan`] (one shard by default) splits the segment columns into
//! contiguous balanced ranges. Each range is owned by a shard running
//! the streaming loop of [`crate::service`] with its own `StreamingTcm`
//! window, warm `OnlineEstimator`, ingest queue and counters. A router
//! maps global segment indices to shards, and a merged query view
//! stitches the per-shard estimates back into one metro-wide matrix.
//!
//! # Determinism contract
//!
//! Shards never read each other's state, so per-shard results are
//! bit-for-bit identical at any thread count (shard ticks fan out over
//! [`workpool`]), and the merged estimate of N shards is each range's
//! one-shard engine side by side. The parity tests pin both properties.
//!
//! # Merged view semantics
//!
//! After each tick the shards' stream clocks are synchronized to the
//! maximum (lagging windows slide forward and re-solve), so shards that
//! carry data agree on the head slot. The merged [`LiveEstimate`]
//! places each shard's window block into its global column range;
//! columns of shards that have produced no estimate yet read 0.0 and
//! flag the merge `stale`, as does any head-slot disagreement — a
//! merged estimate is only `!stale` when every shard contributed a
//! fresh, aligned block.

use std::ops::Range;

use linalg::Matrix;

use crate::error::{ConfigError, Error};
use crate::service::{
    LiveEstimate, Observation, ServeConfig, ServeError, ServeStats, Service, SolveStats, TickReport,
};

/// A validated segment-range shard layout.
///
/// `count` shards split `num_segments` columns into contiguous,
/// balanced ranges: the first `num_segments % count` shards own one
/// extra column. The plan is carried by [`ServeConfig::shards`] and
/// validated with the rest of the config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of shard workers; each owns one contiguous segment range.
    pub count: usize,
}

impl Default for ShardPlan {
    fn default() -> Self {
        Self::single()
    }
}

impl ShardPlan {
    /// The trivial plan: one shard owning every segment.
    pub fn single() -> Self {
        Self { count: 1 }
    }

    /// A plan with `count` shards.
    pub fn with_count(count: usize) -> Self {
        Self { count }
    }

    pub(crate) fn validate(&self, num_segments: usize) -> Result<(), ConfigError> {
        if self.count == 0 {
            return Err(ConfigError::new("shards", "shard plan needs at least one shard"));
        }
        if self.count > num_segments {
            return Err(ConfigError::new(
                "shards",
                format!("{} shards cannot each own a segment of {num_segments}", self.count),
            ));
        }
        Ok(())
    }

    /// The global segment range shard `shard` owns.
    pub fn range(&self, num_segments: usize, shard: usize) -> Range<usize> {
        debug_assert!(shard < self.count);
        let base = num_segments / self.count;
        let rem = num_segments % self.count;
        let start = shard * base + shard.min(rem);
        let width = base + usize::from(shard < rem);
        start..start + width
    }

    /// The shard owning global segment `segment` (which must be in
    /// range — the router sends out-of-range segments to the last
    /// shard, whose admission rules reject them).
    pub fn shard_of(&self, num_segments: usize, segment: usize) -> usize {
        debug_assert!(segment < num_segments);
        let base = num_segments / self.count;
        let rem = num_segments % self.count;
        let split = rem * (base + 1);
        if segment < split {
            segment / (base + 1)
        } else {
            rem + (segment - split) / base
        }
    }
}

/// One shard worker: the streaming loop over a local segment range,
/// plus its global range and last tick report.
struct Shard {
    service: Service,
    range: Range<usize>,
    last: TickReport,
}

/// The serve engine: N segment-range shards behind one surface.
///
/// See the [module docs](self) for the routing, clock-sync, and merge
/// semantics. Constructed from a [`ServeConfig`] whose
/// [`ServeConfig::shards`] plan says how to split the columns.
pub struct ShardedService {
    config: ServeConfig,
    shards: Vec<Shard>,
    merged: Option<LiveEstimate>,
}

fn add_stats(into: &mut ServeStats, s: ServeStats) {
    into.admitted += s.admitted;
    into.rejected += s.rejected;
    into.dropped_late += s.dropped_late;
    into.duplicates += s.duplicates;
    into.queue_dropped += s.queue_dropped;
    into.solves += s.solves;
    into.degraded += s.degraded;
}

fn add_solve_stats(into: &mut SolveStats, s: SolveStats) {
    into.incremental_solves += s.incremental_solves;
    into.full_solves += s.full_solves;
    into.rows_resolved += s.rows_resolved;
}

/// The row holding slot `abs` of a window whose newest slot is `head`.
fn window_row(head: usize, slots: usize, abs: usize) -> Option<usize> {
    let tail = (head + 1).saturating_sub(slots);
    (tail..=head).contains(&abs).then(|| abs - tail)
}

fn merge_tick(into: &mut TickReport, r: &TickReport) {
    into.admitted += r.admitted;
    into.rejected += r.rejected;
    into.dropped_late += r.dropped_late;
    into.duplicates += r.duplicates;
    into.solved |= r.solved;
    into.degraded |= r.degraded;
    into.tick_us = into.tick_us.max(r.tick_us);
    into.solve_us = into.solve_us.max(r.solve_us);
}

impl ShardedService {
    /// Builds the shard workers from `config` (whose `shards` plan is
    /// validated along with everything else).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when the config or shard plan is invalid.
    pub fn new(config: ServeConfig) -> Result<Self, Error> {
        config.validate()?;
        let plan = config.shards;
        let mut shards = Vec::with_capacity(plan.count);
        for i in 0..plan.count {
            let range = plan.range(config.num_segments, i);
            let shard_cfg = ServeConfig {
                num_segments: range.len(),
                shards: ShardPlan::single(),
                ..config.clone()
            };
            shards.push(Shard {
                service: Service::new(shard_cfg)?,
                range,
                last: TickReport::default(),
            });
        }
        Ok(Self { config, shards, merged: None })
    }

    /// The global configuration (including the shard plan).
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of shard workers.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global segment range shard `shard` owns.
    pub fn shard_range(&self, shard: usize) -> Range<usize> {
        self.shards[shard].range.clone()
    }

    /// Routes a report to its shard and enqueues it there. Returns
    /// `false` when that shard's backpressure refused it.
    ///
    /// Out-of-range segments route to the last shard, whose admission
    /// rules reject them — exactly where a one-shard engine counts
    /// them, so counter totals are plan-independent.
    pub fn push(&mut self, obs: Observation) -> bool {
        let n = self.config.num_segments;
        let idx = if obs.segment < n {
            self.config.shards.shard_of(n, obs.segment)
        } else {
            self.shards.len() - 1
        };
        let start = self.shards[idx].range.start;
        let local = Observation { segment: obs.segment - start, ..obs };
        self.shards[idx].service.push(local)
    }

    /// Drains and solves every shard (fanned out over [`workpool`]),
    /// synchronizes the stream clocks to the fastest shard, re-solves
    /// any window that slid, and rebuilds the merged view if a shard
    /// solved or degraded (nothing else changes an estimate).
    pub fn tick(&mut self) -> TickReport {
        workpool::try_parallel_for_each_mut(&mut self.shards, 0, |_, shard| {
            shard.last = shard.service.tick();
            Ok::<(), std::convert::Infallible>(())
        })
        .expect("shard ticks are infallible");
        self.sync_clocks();
        let mut agg = TickReport::default();
        for shard in &self.shards {
            merge_tick(&mut agg, &shard.last);
        }
        if agg.solved || agg.degraded {
            self.rebuild_merged();
        }
        agg
    }

    /// Slides lagging shards' windows up to the global stream clock and
    /// re-solves the ones whose content changed, so every data-bearing
    /// shard reports the same head slot.
    fn sync_clocks(&mut self) {
        let global = self.clock_s();
        for shard in &mut self.shards {
            let before = shard.service.window().head_slot();
            shard.service.advance_clock(global);
            // Only windows that actually slid and hold data are worth a
            // solve; an empty shard has nothing to re-estimate.
            if shard.service.window().head_slot() != before && shard.service.stats().admitted > 0 {
                let extra = shard.service.tick();
                merge_tick(&mut shard.last, &extra);
            }
        }
    }

    /// Runs one solve attempt on every data-bearing shard (one that
    /// admitted a report) even if nothing new arrived — the recovery
    /// path after degraded ticks.
    pub fn refresh(&mut self) -> TickReport {
        let mut agg = TickReport::default();
        for shard in &mut self.shards {
            if shard.service.stats().admitted > 0 {
                shard.last = shard.service.refresh();
                merge_tick(&mut agg, &shard.last);
            }
        }
        self.sync_clocks();
        self.rebuild_merged();
        agg
    }

    /// Advances every shard's simulated clock without data.
    pub fn advance_clock(&mut self, now_s: u64) {
        for shard in &mut self.shards {
            shard.service.advance_clock(now_s);
        }
    }

    /// Resets every shard's solver state; windows and counters persist.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if a shard's estimator cannot be rebuilt.
    pub fn cold_restart(&mut self) -> Result<(), Error> {
        for shard in &mut self.shards {
            shard.service.cold_restart()?;
        }
        Ok(())
    }

    /// The merged live estimate, or `None` before any shard has solved.
    pub fn latest(&self) -> Option<&LiveEstimate> {
        self.merged.as_ref()
    }

    /// Admission counters summed over shards.
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for shard in &self.shards {
            add_stats(&mut total, shard.service.stats());
        }
        total
    }

    /// Per-shard admission counters, in shard order.
    pub fn stats_per_shard(&self) -> Vec<ServeStats> {
        self.shards.iter().map(|s| s.service.stats()).collect()
    }

    /// Solve-path counters summed over shards.
    pub fn solve_stats(&self) -> SolveStats {
        let mut total = SolveStats::default();
        for shard in &self.shards {
            add_solve_stats(&mut total, shard.service.solve_stats());
        }
        total
    }

    /// Reports queued across all shards right now.
    pub fn queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.service.queue_len()).sum()
    }

    /// The ingest sequence number the next report routed to `segment`'s
    /// shard will consume — the hook causal tracing uses to derive a
    /// trace ID ([`crate::service::report_trace_id`]) before pushing.
    pub fn ingest_seq_for(&self, segment: usize) -> u64 {
        let n = self.config.num_segments;
        let idx = if segment < n {
            self.config.shards.shard_of(n, segment)
        } else {
            self.shards.len() - 1
        };
        self.shards[idx].service.ingest_seq()
    }

    /// The global stream clock: the fastest shard's clock.
    pub fn clock_s(&self) -> u64 {
        self.shards.iter().map(|s| s.service.clock_s()).max().unwrap_or(0)
    }

    /// The newest window head slot across shards: merged views align on it.
    pub fn head_slot(&self) -> usize {
        self.shards.iter().map(|s| s.service.window().head_slot()).max().unwrap_or(0)
    }

    /// Wall-clock budget control, forwarded to every shard.
    pub fn set_solve_budget(&mut self, budget: Option<std::time::Duration>) {
        for shard in &mut self.shards {
            shard.service.set_solve_budget(budget);
        }
    }

    /// Warm sweep-cap control, forwarded to every shard.
    pub fn set_warm_sweep_cap(&mut self, cap: Option<usize>) {
        for shard in &mut self.shards {
            shard.service.set_warm_sweep_cap(cap);
        }
    }

    /// A copy of the merged sliding window as a global-width [`Tcm`],
    /// aligned on the newest head slot across shards: each shard's raw
    /// rows, `sum / count` per observed cell as a shard snapshot holds it.
    ///
    /// [`Tcm`]: probes::Tcm
    pub fn window_snapshot(&self) -> probes::Tcm {
        let (slots, segments) = (self.config.window_slots, self.config.num_segments);
        let tail = (self.head_slot() + 1).saturating_sub(slots);
        let mut values = Vec::with_capacity(slots * segments);
        let mut indicator = Vec::with_capacity(slots * segments);
        for abs in tail..tail + slots {
            for shard in &self.shards {
                let window = shard.service.window();
                let raw = window_row(window.head_slot(), slots, abs).map(|r| window.row_raw(r));
                for j in 0..shard.range.len() {
                    let (sum, count) =
                        raw.map_or((0.0, 0.0), |(sums, counts)| (sums[j], counts[j]));
                    values.push(if count > 0.0 { sum / count } else { 0.0 });
                    indicator.push(if count > 0.0 { 1.0 } else { 0.0 });
                }
            }
        }
        let matrix = |data| Matrix::from_vec(slots, segments, data).expect("every column stitched");
        probes::Tcm::new(matrix(values), matrix(indicator)).expect("matching dims by construction")
    }

    /// Rebuilds the merged estimate from the shards' latest solves, row
    /// by row into a fresh buffer (zeros where a shard has no row).
    fn rebuild_merged(&mut self) {
        let slots = self.config.window_slots;
        let latest = || self.shards.iter().map(|s| s.service.latest());
        let Some(head_slot) = latest().flatten().map(|est| est.head_slot).max() else {
            self.merged = None;
            return;
        };
        let mut stale = false;
        let mut solved_at_s = 0;
        let mut sweeps = 0;
        let mut objective = 0.0;
        for est in latest() {
            let Some(est) = est else {
                // A shard with no estimate yet contributes zero columns:
                // the merge is incomplete, hence stale.
                stale = true;
                continue;
            };
            stale |= est.stale || est.head_slot != head_slot;
            solved_at_s = solved_at_s.max(est.solved_at_s);
            sweeps = sweeps.max(est.sweeps);
            objective += est.objective;
        }
        let tail = (head_slot + 1).saturating_sub(slots);
        let mut data = Vec::with_capacity(slots * self.config.num_segments);
        for abs in tail..tail + slots {
            for shard in &self.shards {
                let row = shard.service.latest().and_then(|est| {
                    window_row(est.head_slot, slots, abs).map(|row| est.estimate.row(row))
                });
                match row {
                    Some(row) => data.extend_from_slice(row),
                    None => data.resize(data.len() + shard.range.len(), 0.0),
                }
            }
        }
        self.merged = Some(LiveEstimate {
            estimate: Matrix::from_vec(slots, self.config.num_segments, data)
                .expect("shards cover every column"),
            head_slot,
            solved_at_s,
            stale,
            sweeps,
            objective,
        });
    }

    /// Serializes every shard's `cs-serve-checkpoint v1` section (its
    /// clock, head slot and warm factors as `f64::to_bits` hex words)
    /// into one `cs-serve-shards v1` container, the one format.
    pub fn checkpoint(&self) -> String {
        let mut out = String::from("cs-serve-shards v1\n");
        out.push_str(&format!(
            "shards {} segments {}\n",
            self.shards.len(),
            self.config.num_segments
        ));
        for (i, shard) in self.shards.iter().enumerate() {
            let inner = shard.service.checkpoint();
            out.push_str(&format!("shard {i} {}\n", inner.len()));
            out.push_str(&inner);
        }
        out
    }

    /// Restores a `cs-serve-shards v1` container of the same shard plan.
    /// Only the solver state and clocks are restored — the window
    /// refills from the replayed stream.
    ///
    /// # Errors
    ///
    /// [`ServeError::Checkpoint`] (wrapped in [`enum@Error`]) naming the
    /// container line (and shard) on anything but a well-formed
    /// container of this plan, a bare section included;
    /// [`Error::Config`] on factors of another segment count or rank.
    pub fn restore(&mut self, text: &str) -> Result<(), Error> {
        let bad =
            |line: usize, msg: String| -> Error { ServeError::Checkpoint { line, msg }.into() };
        let header_end = text.find('\n').ok_or_else(|| bad(1, "empty checkpoint".into()))?;
        if &text[..header_end] != "cs-serve-shards v1" {
            return Err(bad(1, "not a cs-serve-shards v1 container".into()));
        }
        let rest = &text[header_end + 1..];
        let plan_end = rest.find('\n').ok_or_else(|| bad(2, "missing shard-plan line".into()))?;
        let plan_line = &rest[..plan_end];
        let fields: Vec<&str> = plan_line.split_whitespace().collect();
        let (count, segments) = match fields.as_slice() {
            ["shards", c, "segments", n] => (
                c.parse::<usize>().map_err(|_| bad(2, "bad shard count".into()))?,
                n.parse::<usize>().map_err(|_| bad(2, "bad segment count".into()))?,
            ),
            _ => return Err(bad(2, format!("malformed shard-plan line '{plan_line}'"))),
        };
        if count != self.shards.len() || segments != self.config.num_segments {
            return Err(bad(
                2,
                format!(
                    "container is {count} shards over {segments} segments, this service is {} over {}",
                    self.shards.len(),
                    self.config.num_segments
                ),
            ));
        }
        let mut cursor = &rest[plan_end + 1..];
        let mut line = 3;
        for i in 0..count {
            let hdr_end =
                cursor.find('\n').ok_or_else(|| bad(line, format!("missing shard {i} header")))?;
            let hdr = &cursor[..hdr_end];
            let fields: Vec<&str> = hdr.split_whitespace().collect();
            let len = match fields.as_slice() {
                ["shard", idx, len] if idx.parse::<usize>() == Ok(i) => {
                    len.parse::<usize>().map_err(|_| bad(line, "bad shard byte length".into()))?
                }
                _ => return Err(bad(line, format!("malformed shard header '{hdr}'"))),
            };
            // A corrupt length may overflow, overrun the container or
            // end inside a multi-byte character: all three are refused.
            let body_start = hdr_end + 1;
            let body = body_start
                .checked_add(len)
                .and_then(|end| cursor.get(body_start..end))
                .ok_or_else(|| bad(line, format!("shard {i} body truncated")))?;
            // A section counts lines from the one after its header.
            self.shards[i].service.restore(body).map_err(|e| match e {
                Error::Serve(ServeError::Checkpoint { line: at, msg }) => {
                    bad(line + at, format!("shard {i}: {msg}"))
                }
                other => other,
            })?;
            line += 1 + body.matches('\n').count();
            cursor = &cursor[body_start + len..];
        }
        if !cursor.is_empty() {
            return Err(bad(line, format!("{} trailing bytes after last shard", cursor.len())));
        }
        self.rebuild_merged();
        Ok(())
    }

    /// Writes [`ShardedService::checkpoint`] to `path` crash-safely: a
    /// synced `<path>.tmp` is renamed over `path`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] wrapped in [`enum@Error`].
    pub fn save_checkpoint(&self, path: &std::path::Path) -> Result<(), Error> {
        Ok(crate::service::write_checkpoint(path, &self.checkpoint())?)
    }

    /// Reads and restores a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on read failure, else whatever
    /// [`ShardedService::restore`] reports.
    pub fn load_checkpoint(&mut self, path: &std::path::Path) -> Result<(), Error> {
        let text = std::fs::read_to_string(path).map_err(|e| Error::Serve(ServeError::Io(e)))?;
        self.restore(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_ranges_are_balanced_and_cover() {
        for n in 1..40usize {
            for count in 1..=n {
                let plan = ShardPlan::with_count(count);
                plan.validate(n).unwrap();
                let mut next = 0;
                for shard in 0..count {
                    let range = plan.range(n, shard);
                    assert_eq!(range.start, next, "n={n} count={count} shard={shard}");
                    assert!(!range.is_empty());
                    for seg in range.clone() {
                        assert_eq!(plan.shard_of(n, seg), shard);
                    }
                    next = range.end;
                }
                assert_eq!(next, n);
                let widths: Vec<usize> = (0..count).map(|s| plan.range(n, s).len()).collect();
                let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced: {widths:?}");
            }
        }
    }

    #[test]
    fn plan_validation_rejects_degenerate_layouts() {
        assert!(ShardPlan::with_count(0).validate(4).is_err());
        assert!(ShardPlan::with_count(5).validate(4).is_err());
        assert!(ShardPlan::with_count(4).validate(4).is_ok());
    }
}
