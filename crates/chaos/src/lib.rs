//! Deterministic fault-injection simulator for the streaming traffic
//! estimation service, with a differential test harness.
//!
//! The paper's Section 6 sketches an online streaming deployment;
//! `traffic_cs::service` implements it with a hard "never panic,
//! always count" contract. This crate is the adversary that contract
//! is tested against. From a single seed it derives:
//!
//! 1. **A fault plan** ([`plan::FaultPlan`]) — a pre-resolved schedule
//!    of corrupted report lines, duplicate and reordered bursts, late
//!    reports into evicted slots, queue-pressure spikes (exercising
//!    both backpressure policies), solver sabotage through the runtime
//!    watchdog knobs, and checkpoint corruption.
//! 2. **A simulation run** ([`sim::run`]) — a synthetic probe stream
//!    from the `traffic-sim` ground-truth model replayed tick by tick
//!    through a real [`ShardedService`], with the plan's faults
//!    injected into the byte stream, and every injection logged.
//! 3. **A differential oracle** ([`oracle::Mirror`]) — an independent
//!    re-implementation of the admission/backpressure/window semantics
//!    that predicts every counter exactly and the final window
//!    bit-for-bit, plus an offline replay: the service's final
//!    estimate must equal `complete_matrix_detailed` on the predicted
//!    window at any thread count.
//!
//! Nothing in the run consumes ambient entropy or wall-clock-dependent
//! control flow (the one wall-clock sabotage is asserted through its
//! *counters*, not its timing), so any failure reproduces from its
//! seed alone: `cs-traffic-cli chaos --seed N` replays it.
//!
//! A second harness ([`net::run_net`]) points the same differential
//! method at the wire: faulty `cs-wire/v1` clients (mid-frame
//! disconnects, adversarial write boundaries, slow-loris stalls)
//! against a live sharded daemon, with a predicted-delivered replay as
//! the oracle — `cs-traffic-cli chaos-net` runs the sweep.
//!
//! [`ShardedService`]: traffic_cs::ShardedService

pub mod codec;
pub mod net;
pub mod oracle;
pub mod plan;
pub mod sim;

pub use codec::{CheckpointFault, LineFault};
pub use net::{run_net, ConnFault, NetChaosConfig, NetChaosReport};
pub use oracle::Mirror;
pub use plan::{FaultKind, FaultPlan, PlannedFault, Sabotage};
pub use sim::{run, run_seed, ChaosConfig, ChaosReport};

/// The harness's content hash for estimates, windows, and fault logs —
/// now shared with the service's trace IDs and the load generator's
/// stream hash, so it lives in [`telemetry::fnv`].
pub use telemetry::Fnv;
