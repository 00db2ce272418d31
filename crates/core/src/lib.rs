//! `traffic-cs` — the paper's contribution: compressive-sensing traffic
//! estimation from sparse probe data.
//!
//! Given a measurement matrix `M = X .× B` (observed average probe speeds
//! with indicator `B`), the goal is an estimate `X̂` of the complete
//! traffic condition matrix minimizing the normalized mean absolute error
//! over the missing entries (Definitions 2–3 of the paper).
//!
//! * [`cs`] — **Algorithm 1**: low-rank matrix completion by alternating
//!   ridge least squares on the factorization `X̂ = L Rᵀ`.
//! * [`ga`] — **Algorithm 2**: genetic search for the rank bound `r` and
//!   tradeoff coefficient `λ`.
//! * [`baselines`] — the three competitors of Section 4.2: naïve KNN,
//!   correlation-based KNN, and MSSA.
//! * [`pca`] / [`eigenflow`] — the Section 3.1 structure analysis:
//!   singular-value spectra, rank-k reconstruction, and the three-way
//!   eigenflow classification (Eq. 10).
//! * [`metrics`] — NMAE (Definition 2), per-entry relative errors, CDFs.
//! * [`estimator`] — a unified [`Estimator`] enum so experiments can
//!   sweep all four algorithms through one interface.
//! * [`sharded`] — the streaming serve engine, [`ShardedService`]:
//!   probe reports stream into per-shard sliding windows (one shard by
//!   default), each closed window is completed with warm starts, a
//!   merged view answers queries, and bad input degrades counters — not
//!   the process.
//! * [`service`] — the fault-tolerant loop each shard runs, and the
//!   config, report, counter and checkpoint-error types the engine
//!   speaks.
//! * [`daemon`] — the long-running network serve daemon speaking the
//!   versioned `cs-wire/v1` protocol (crate `proto`) over TCP or Unix
//!   sockets.
//! * [`error`] — the crate-wide [`enum@Error`] every fallible public
//!   API converges to, plus the [`ConfigError`] the validated builders
//!   return instead of panicking.
//!
//! # Example: recover a masked low-rank matrix
//!
//! ```
//! use linalg::Matrix;
//! use probes::Tcm;
//! use traffic_cs::cs::{CsConfig, complete_matrix};
//! use traffic_cs::metrics::nmae_on_missing;
//! use rand::SeedableRng;
//!
//! // Rank-1 ground truth.
//! let truth = Matrix::from_fn(20, 15, |r, c| 20.0 + (r as f64) * (c as f64 + 1.0) * 0.05);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! let mask = probes::mask::random_mask(20, 15, 0.5, &mut rng);
//! let tcm = Tcm::complete(truth.clone()).masked(&mask).unwrap();
//!
//! // λ is sized for this small demo matrix; the paper's λ = 100 default
//! // suits its full-scale (≈ 672 × 221) evaluation TCMs.
//! let cfg = CsConfig { rank: 2, lambda: 0.1, ..CsConfig::default() };
//! let estimate = complete_matrix(&tcm, &cfg).unwrap();
//! let err = nmae_on_missing(&truth, &estimate, tcm.indicator());
//! assert!(err < 0.05, "NMAE {err}");
//! ```

pub mod anomaly;
pub mod baselines;
pub mod cs;
pub mod daemon;
pub mod eigenflow;
pub mod error;
pub mod estimator;
pub mod ga;
pub mod metrics;
pub mod obs;
pub mod online;
pub mod pca;
pub mod selection;
pub mod service;
pub mod sharded;
pub mod weighted;

pub use cs::{complete_matrix, CsConfig, CsError};
pub use daemon::{Daemon, DaemonConfig, DaemonError, DaemonHandle, DaemonStats};
pub use error::{ConfigError, Error};
pub use estimator::{Estimator, EstimatorKind};
pub use ga::{GaConfig, GaResult};
// The daemon's wire types are part of this crate's public API surface
// (DaemonConfig embeds the bind address, handlers speak the message
// enums), so the protocol crate rides along — `traffic_cs::proto::…`
// works without a separate dependency edge.
pub use proto;
pub use service::{ServeConfig, ServeError};
pub use sharded::{ShardPlan, ShardedService};
