//! The correctness gate: every run checks the engine's counters against
//! the generator's prediction, and every repeat against the first.

use crate::gen::Outcome;

/// Counters the engine reported over one episode's measured ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Observed {
    pub admitted: u64,
    pub rejected: u64,
    pub dropped_late: u64,
    pub duplicates: u64,
    pub queue_dropped: u64,
    pub solves: u64,
    pub degraded: u64,
    /// Estimates read back with the `stale` flag set.
    pub stale: u64,
    /// Wire protocol errors, failed queries and `Synced` replies whose
    /// report count disagreed with what was sent (0 in process).
    pub wire_faults: u64,
}

/// What must repeat bit for bit across episodes at one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub nmae_bits: u64,
    pub observed: Observed,
    pub estimate_digest: u64,
    pub stream_digest: u64,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Checks one episode's counters against the generator's prediction.
pub fn check_episode(expected: &Outcome, observed: &Observed) -> Vec<Check> {
    let (e, o) = (expected, observed);
    let accounted = o.admitted + o.rejected + o.dropped_late + o.queue_dropped;
    vec![
        check(
            "conservation",
            e.offered == accounted,
            format!(
                "offered {} vs admitted {} + rejected {} + dropped_late {} + queue_dropped {}",
                e.offered, o.admitted, o.rejected, o.dropped_late, o.queue_dropped
            ),
        ),
        check(
            "admitted",
            o.admitted == e.admitted,
            format!("{} vs predicted {}", o.admitted, e.admitted),
        ),
        check(
            "rejected",
            o.rejected == e.rejected,
            format!("{} vs injected {}", o.rejected, e.rejected),
        ),
        check(
            "dropped_late",
            o.dropped_late == e.dropped_late,
            format!("{} vs injected {}", o.dropped_late, e.dropped_late),
        ),
        check(
            "duplicates",
            o.duplicates == e.duplicates,
            format!("{} vs injected {}", o.duplicates, e.duplicates),
        ),
        check(
            "no_degraded_or_stale",
            o.degraded == 0 && o.stale == 0,
            format!("degraded {}, stale estimates {}", o.degraded, o.stale),
        ),
        check("no_wire_faults", o.wire_faults == 0, format!("{} wire faults", o.wire_faults)),
    ]
}

/// Checks that a repeat at the same seed reproduced the first episode.
pub fn check_repeat(first: &Fingerprint, again: &Fingerprint) -> Check {
    check("repeat_identical", first == again, format!("first {first:?}, repeat {again:?}"))
}

/// Checks that the wire episode and its in-process replay agree.
pub fn check_replay(wire: &Fingerprint, replay: &Fingerprint) -> Check {
    // Wire faults have no in-process counterpart.
    let engine_view =
        Fingerprint { observed: Observed { wire_faults: 0, ..wire.observed }, ..*wire };
    check("replay_parity", engine_view == *replay, format!("wire {wire:?}, replay {replay:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> (Outcome, Observed) {
        let e =
            Outcome { offered: 1000, admitted: 980, rejected: 5, dropped_late: 15, duplicates: 10 };
        let o = Observed {
            admitted: 980,
            rejected: 5,
            dropped_late: 15,
            duplicates: 10,
            solves: 10,
            ..Observed::default()
        };
        (e, o)
    }

    #[test]
    fn a_matching_prediction_passes() {
        let (e, o) = clean();
        assert!(check_episode(&e, &o).iter().all(|c| c.ok));
    }

    #[test]
    fn a_wrong_prediction_fails_and_names_the_check() {
        let (mut e, o) = clean();
        e.dropped_late += 1;
        e.admitted -= 1;
        let failed: Vec<&str> =
            check_episode(&e, &o).iter().filter(|c| !c.ok).map(|c| c.name).collect();
        assert_eq!(failed, ["admitted", "dropped_late"]);
    }

    #[test]
    fn queue_drops_and_degraded_solves_fail() {
        let (e, mut o) = clean();
        o.admitted -= 3;
        o.queue_dropped = 3;
        o.degraded = 1;
        let failed: Vec<&str> =
            check_episode(&e, &o).iter().filter(|c| !c.ok).map(|c| c.name).collect();
        assert_eq!(failed, ["admitted", "no_degraded_or_stale"]);
    }

    #[test]
    fn a_repeat_that_drifts_fails() {
        let (_, o) = clean();
        let a = Fingerprint { nmae_bits: 1, observed: o, estimate_digest: 2, stream_digest: 3 };
        assert!(check_repeat(&a, &a).ok);
        let b = Fingerprint { estimate_digest: 4, ..a };
        assert!(!check_repeat(&a, &b).ok);
    }
}
