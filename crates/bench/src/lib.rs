//! `cs-bench` — the experiment harness.
//!
//! Regenerates every table and figure of the paper's evaluation (see the
//! per-experiment index in DESIGN.md and the recorded results in
//! EXPERIMENTS.md):
//!
//! | Paper artifact | Module | Binary command |
//! |---|---|---|
//! | Table 1, Figs. 2–3 (integrity study)   | [`experiments::integrity`] | `experiments table1 fig2 fig3` |
//! | Figs. 4–8 (hidden structure / PCA)     | [`experiments::structure`] | `experiments fig4 … fig8` |
//! | Figs. 11–14 (accuracy vs integrity)    | [`experiments::accuracy`]  | `experiments fig11 … fig14` |
//! | Figs. 15–16, GA, convergence           | [`experiments::params`]    | `experiments fig15 fig16 ga convergence` |
//! | Figs. 17–18 (matrix selection)         | [`experiments::selection`] | `experiments fig17 fig18` |
//! | Table 2 (run times)                    | [`experiments::runtime`]   | `experiments table2` + `cargo bench` |
//! | §6 future-work extensions              | [`experiments::extensions`] | `experiments adaptive online weighted` |
//!
//! Every experiment prints a human-readable table mirroring the paper's
//! presentation and writes the raw series as CSV under `results/`.

pub mod datasets;
pub mod experiments;
pub mod report;
pub mod slo;
