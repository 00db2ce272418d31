//! # cs-traffic — Compressive Sensing Approach to Urban Traffic Sensing
//!
//! A from-scratch Rust reproduction of Z. Li, Y. Zhu, H. Zhu, M. Li,
//! *"Compressive Sensing Approach to Urban Traffic Sensing"* (IEEE ICDCS
//! 2011; journal version IEEE TMC 2013): metropolitan-scale road-traffic
//! estimation from sparse GPS probe-vehicle data via low-rank matrix
//! completion.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`linalg`] — dense matrices, QR, Jacobi SVD, symmetric eigen, FFT,
//!   statistics (no external math dependencies).
//! * [`roadnet`] — road-network graph, synthetic grid-city generator,
//!   Dijkstra routing, GPS map matching.
//! * [`traffic_sim`] — generative ground-truth traffic model and
//!   probe-taxi fleet simulator (the stand-in for the paper's Shanghai /
//!   Shenzhen datasets; see DESIGN.md).
//! * [`probes`] — probe reports, time slotting, traffic-condition-matrix
//!   assembly, masking, integrity metrics.
//! * [`traffic_cs`] — the paper's contribution: Algorithm 1 (alternating
//!   least-squares matrix completion), Algorithm 2 (genetic parameter
//!   search), the KNN/MSSA baselines, PCA and eigenflow analysis, plus a
//!   fault-tolerant streaming estimation service ([`traffic_cs::service`]),
//!   its segment-range sharded wrapper ([`traffic_cs::sharded`]), and a
//!   socket-serving daemon ([`traffic_cs::daemon`]).
//! * [`proto`] — the `cs-wire/v1` protocol: versioned length-prefixed
//!   frames, typed request/response messages, TCP/Unix transport, and a
//!   blocking client.
//!
//! # Quickstart
//!
//! ```
//! use cs_traffic::prelude::*;
//!
//! // Simulate a small city and its taxi fleet.
//! let sim = ScenarioConfig::small_test().run();
//!
//! // Hide 80% of the ground truth, then recover it.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mask = random_mask(
//!     sim.ground_truth.num_slots(),
//!     sim.ground_truth.num_segments(),
//!     0.2,
//!     &mut rng,
//! );
//! let observed = sim.ground_truth.masked(&mask)?;
//! let cfg = CsConfig { rank: 2, lambda: 5.0, ..CsConfig::default() };
//! let estimate = complete_matrix(&observed, &cfg)?;
//! let err = nmae_on_missing(sim.ground_truth.values(), &estimate, observed.indicator());
//! assert!(err < 0.25, "NMAE {err}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use linalg;
pub use navigator;
pub use probes;
pub use proto;
pub use roadnet;
pub use traffic_cs;
pub use traffic_sim;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use linalg::{Matrix, Svd};
    pub use navigator::{planner, TravelTimeField};
    pub use probes::mask::random_mask;
    pub use probes::tcm::build_tcm_from_reports;
    pub use probes::{Granularity, ProbeReport, SlotGrid, Tcm, VehicleId};
    pub use proto::client::Client as WireClient;
    pub use proto::msg::{Request as WireRequest, Response as WireResponse};
    pub use proto::net::BindAddr;
    pub use rand::SeedableRng;
    pub use roadnet::generator::{generate_grid_city, GridCityConfig};
    pub use roadnet::matching::SegmentIndex;
    pub use roadnet::{RoadClass, RoadNetwork, SegmentId};
    pub use traffic_cs::baselines::{
        correlation_knn_impute, mssa_impute, naive_knn_impute, MssaConfig,
    };
    pub use traffic_cs::cs::{
        complete_matrix, complete_matrix_detailed, CompletionResult, CsConfig,
    };
    pub use traffic_cs::daemon::{Daemon, DaemonConfig, DaemonHandle, DaemonStats};
    pub use traffic_cs::eigenflow::{EigenflowAnalysis, EigenflowType};
    pub use traffic_cs::estimator::{Estimator, EstimatorKind};
    pub use traffic_cs::ga::{optimize_parameters, GaConfig};
    pub use traffic_cs::metrics::{nmae_on_missing, relative_error_cdf};
    pub use traffic_cs::online::OnlineEstimator;
    pub use traffic_cs::selection::{adaptive_matrix, select_correlated};
    pub use traffic_cs::service::{LiveEstimate, ServeConfig};
    pub use traffic_cs::sharded::{ShardPlan, ShardedService};
    pub use traffic_cs::weighted::{complete_matrix_weighted, WeightScheme};
    pub use traffic_cs::{ConfigError, Error as TrafficCsError};
    pub use traffic_sim::config::central_segments;
    pub use traffic_sim::fleet::FleetConfig;
    pub use traffic_sim::gps::GpsConfig;
    pub use traffic_sim::{GroundTruthConfig, GroundTruthModel, ScenarioConfig, SimulationOutput};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let cfg = CsConfig::default();
        assert_eq!(cfg.rank, 2);
        assert_eq!(Granularity::all().len(), 3);
        let serve = ServeConfig::builder().num_segments(4).build().unwrap();
        assert_eq!(ShardedService::new(serve).unwrap().shard_count(), 1);
        let sharded = ServeConfig::builder()
            .num_segments(4)
            .shards(ShardPlan::with_count(2))
            .build()
            .unwrap();
        assert_eq!(ShardedService::new(sharded).unwrap().shard_count(), 2);
        assert!(BindAddr::parse("tcp:127.0.0.1:0").is_ok());
    }
}
