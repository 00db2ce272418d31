//! Experiments for the future-work extensions this reproduction
//! implements beyond the paper's evaluation: adaptive matrix
//! construction, online (streaming) estimation, and sampling-aware
//! weighting. None of these has a paper figure to compare against; they
//! quantify the paper's Section 6 conjectures.

use crate::datasets::{shanghai_eval, small_eval, EvalDataset};
use crate::report::{fmt, format_table, save_csv};
use probes::mask::random_mask;
use probes::{Granularity, Tcm};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use traffic_cs::cs::{complete_matrix, complete_matrix_detailed, CsConfig};
use traffic_cs::online::OnlineEstimator;
use traffic_cs::selection::select_correlated;
use traffic_cs::weighted::{complete_matrix_weighted, WeightScheme};

fn dataset(quick: bool) -> EvalDataset {
    if quick {
        small_eval(Granularity::Min30)
    } else {
        shanghai_eval(Granularity::Min30)
    }
}

fn cs_cfg(truth: &Tcm) -> CsConfig {
    let cells = (truth.num_slots() * truth.num_segments()) as f64;
    CsConfig { rank: 2, lambda: (100.0 * cells / (672.0 * 221.0)).max(0.01), ..CsConfig::default() }
}

/// Adaptive vs random matrix construction for a target segment:
/// `(matrix size, adaptive NMAE of r0, mean random NMAE of r0)`.
pub fn adaptive(quick: bool) -> Vec<(usize, f64, f64)> {
    let ds = dataset(quick);
    let truth = &ds.truth;
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    // History at 50% integrity ranks candidates; evaluation at 20%.
    let history = {
        let mask = random_mask(truth.num_slots(), truth.num_segments(), 0.5, &mut rng);
        truth.masked(&mask).expect("mask shape matches")
    };
    let eval = {
        let mask = random_mask(truth.num_slots(), truth.num_segments(), 0.2, &mut rng);
        truth.masked(&mask).expect("mask shape matches")
    };
    let target = ds.r0;

    let nmae_r0 = |cols: &[usize]| {
        let sub_truth = truth.values().select_columns(cols);
        let sub = eval.select_segments(cols);
        let est = complete_matrix(&sub, &cs_cfg(&sub)).expect("completion runs");
        let mut num = 0.0;
        let mut den = 0.0;
        for t in 0..sub.num_slots() {
            if !sub.is_observed(t, 0) {
                num += (sub_truth.get(t, 0) - est.get(t, 0)).abs();
                den += sub_truth.get(t, 0).abs();
            }
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    };

    let mut out = Vec::new();
    for k in [6usize, 18, 45] {
        let k = k.min(truth.num_segments() - 1);
        let adaptive_cols = select_correlated(&history, target, k);
        let adaptive_err = nmae_r0(&adaptive_cols);
        let mut random_errs = Vec::new();
        for _ in 0..4 {
            let mut pool: Vec<usize> = (0..truth.num_segments()).filter(|&j| j != target).collect();
            pool.shuffle(&mut rng);
            let mut cols = vec![target];
            cols.extend(pool.into_iter().take(k));
            random_errs.push(nmae_r0(&cols));
        }
        let random_mean = random_errs.iter().sum::<f64>() / random_errs.len() as f64;
        out.push((k + 1, adaptive_err, random_mean));
    }
    out
}

/// Prints the adaptive-construction experiment.
pub fn print_adaptive(rows: &[(usize, f64, f64)]) {
    let table: Vec<Vec<String>> =
        rows.iter().map(|(k, a, r)| vec![k.to_string(), fmt(*a), fmt(*r)]).collect();
    println!(
        "{}",
        format_table(
            "Extension: adaptive matrix construction (NMAE of target segment, 20% integrity)",
            &["#segments", "correlation-ranked", "random (mean)"],
            &table
        )
    );
    let csv: Vec<Vec<String>> = rows
        .iter()
        .map(|(k, a, r)| vec![k.to_string(), format!("{a:.6}"), format!("{r:.6}")])
        .collect();
    if let Ok(p) = save_csv("ext_adaptive.csv", &["segments", "adaptive", "random"], &csv) {
        println!("   [csv: {}]", p.display());
    }
}

/// Online estimation: NMAE and sweep count per sliding-window update,
/// cold vs warm. Returns `(updates, mean warm sweeps, cold sweeps, mean
/// warm NMAE)`.
pub fn online(quick: bool) -> (u64, f64, usize, f64) {
    let ds = dataset(quick);
    let truth = ds.truth.values();
    let window = 48.min(truth.rows() / 2);
    let cfg = CsConfig { tol: 1e-4, ..cs_cfg(&ds.truth) };
    let mut rng = rand::rngs::StdRng::seed_from_u64(32);

    let window_at = |start: usize, rng: &mut rand::rngs::StdRng| {
        let truth_w = truth.submatrix(start, start + window, 0, truth.cols());
        let mask = random_mask(window, truth.cols(), 0.3, rng);
        (truth_w.clone(), Tcm::complete(truth_w).masked(&mask).expect("mask shape"))
    };

    // Cold solve on the first window for reference.
    let (_, w0) = window_at(0, &mut rng);
    let cold = complete_matrix_detailed(&w0, &CsConfig { tol: 1e-4, ..cfg.clone() })
        .expect("cold solve runs");

    let mut online = OnlineEstimator::new(cfg, window).expect("valid online config");
    let mut err_sum = 0.0;
    let steps = if quick { 6 } else { 12 };
    for step in 0..steps {
        let start = step * 4;
        if start + window > truth.rows() {
            break;
        }
        let (truth_w, w) = window_at(start, &mut rng);
        let result = online.update_detailed(&w).expect("online update runs");
        err_sum += traffic_cs::metrics::nmae_on_missing(&truth_w, &result.estimate, w.indicator());
    }
    let updates = online.updates();
    (updates, online.mean_sweeps(), cold.sweeps, err_sum / updates as f64)
}

/// Prints the online experiment.
pub fn print_online(result: (u64, f64, usize, f64)) {
    let (updates, warm_sweeps, cold_sweeps, nmae) = result;
    println!("== Extension: online (sliding-window) estimation ==");
    println!("   {updates} window updates, mean NMAE {}", fmt(nmae));
    println!("   mean ALS sweeps per warm-started update: {warm_sweeps:.1}");
    println!("   sweeps for a cold solve of the same window: {cold_sweeps}");
    println!();
}

/// Sampling-aware weighting: NMAE of plain vs count-weighted completion
/// on data whose cell noise scales as `1/√count`. Returns
/// `(plain NMAE, weighted NMAE)`.
pub fn weighted(quick: bool) -> (f64, f64) {
    let ds = dataset(quick);
    let truth = ds.truth.values();
    let (m, n) = truth.shape();
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    let mask = random_mask(m, n, 0.3, &mut rng);
    // Per-cell counts: most cells 1–2 probes, some well covered.
    use rand::RngExt;
    let mut counts = linalg::Matrix::zeros(m, n);
    let mut noisy = truth.clone();
    for (i, j, b) in mask.clone().iter() {
        if b == 1.0 {
            let k =
                *[1.0, 1.0, 2.0, 4.0, 10.0].as_slice().get(rng.random_range(0..5usize)).unwrap();
            counts.set(i, j, k);
            let noise = linalg::rng::normal(&mut rng, 0.0, 15.0 / k.sqrt());
            noisy.set(i, j, (truth.get(i, j) + noise).max(1.0));
        }
    }
    let tcm = Tcm::new(noisy, mask).expect("valid indicator");
    let cfg = cs_cfg(&ds.truth);
    let plain = complete_matrix(&tcm, &cfg).expect("plain completion runs");
    let weighted = complete_matrix_weighted(&tcm, &counts, WeightScheme::default(), &cfg)
        .expect("weighted completion runs");
    (
        traffic_cs::metrics::nmae_on_missing(truth, &plain, tcm.indicator()),
        traffic_cs::metrics::nmae_on_missing(truth, &weighted, tcm.indicator()),
    )
}

/// Prints the weighting experiment.
pub fn print_weighted(result: (f64, f64)) {
    let (plain, weighted) = result;
    println!("== Extension: sampling-aware (count-weighted) completion ==");
    println!("   plain Algorithm 1 NMAE:    {}", fmt(plain));
    println!("   count-weighted NMAE:       {}", fmt(weighted));
    println!("   (cell noise ∝ 1/√probes; weighting should help)\n");
}

/// Streaming-engine replay parity: the same masked TCM streamed through
/// [`traffic_cs::ShardedService`] observation by observation and
/// solved once must reproduce the offline Algorithm-1 estimate **bit for
/// bit**; fault injection on a second pass shows the admission counters
/// absorbing bad input without losing the answer. Returns
/// `(observations, parity max |Δ|, admitted, rejected, late, duplicates)`.
pub fn serve_replay(quick: bool) -> (u64, f64, u64, u64, u64, u64) {
    use traffic_cs::service::{Observation, ServeConfig};
    use traffic_cs::ShardedService;
    let ds = dataset(quick);
    let truth = &ds.truth;
    let (m, n) = truth.values().shape();
    let mut rng = rand::rngs::StdRng::seed_from_u64(34);
    let mask = random_mask(m, n, 0.3, &mut rng);
    let tcm = truth.masked(&mask).expect("mask shape matches");
    let slot_len = 60u64;

    let offline = complete_matrix_detailed(&tcm, &cs_cfg(truth)).expect("offline completion runs");

    let cfg = ServeConfig::builder()
        .slot_len_s(slot_len)
        .window_slots(m)
        .num_segments(n)
        .cs(cs_cfg(truth))
        .queue_capacity(m * n + 1)
        .build()
        .expect("valid serve config");
    let mut service = ShardedService::new(cfg.clone()).expect("engine constructs");
    let mut observations = 0u64;
    for slot in 0..m {
        for seg in 0..n {
            if let Some(speed) = tcm.get(slot, seg) {
                service.push(Observation {
                    vehicle: seg as u64,
                    timestamp_s: slot as u64 * slot_len,
                    segment: seg,
                    speed_kmh: speed,
                });
                observations += 1;
            }
        }
    }
    service.tick();
    let live = service.latest().expect("replay produced an estimate");
    let parity = live
        .estimate
        .as_slice()
        .iter()
        .zip(offline.estimate.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    // Fault pass: same stream plus malformed, late, and duplicate
    // reports — the service must absorb them into counters.
    let mut faulty = ShardedService::new(cfg).expect("engine constructs");
    for slot in 0..m {
        for seg in 0..n {
            if let Some(speed) = tcm.get(slot, seg) {
                faulty.push(Observation {
                    vehicle: seg as u64,
                    timestamp_s: slot as u64 * slot_len,
                    segment: seg,
                    speed_kmh: speed,
                });
            }
        }
    }
    // Malformed (NaN speed, unknown segment):
    faulty.push(Observation { vehicle: 1, timestamp_s: 10, segment: 0, speed_kmh: f64::NAN });
    faulty.push(Observation { vehicle: 1, timestamp_s: 11, segment: n + 7, speed_kmh: 30.0 });
    // Advance the window one slot, making slot 0 reports late:
    let advance =
        Observation { vehicle: 0, timestamp_s: (m as u64) * slot_len, segment: 0, speed_kmh: 30.0 };
    faulty.push(advance);
    faulty.push(Observation { vehicle: 0, timestamp_s: 0, segment: 0, speed_kmh: 25.0 });
    // Exact re-delivery of the advance report (corrected speed):
    faulty.push(Observation { speed_kmh: 28.0, ..advance });
    faulty.tick();
    let stats = faulty.stats();
    (observations, parity, stats.admitted, stats.rejected, stats.dropped_late, stats.duplicates)
}

/// Prints the serve replay-parity experiment.
pub fn print_serve_replay(result: (u64, f64, u64, u64, u64, u64)) {
    let (observations, parity, admitted, rejected, late, duplicates) = result;
    println!("== Extension: streaming service replay parity ==");
    println!("   {observations} observations streamed through `serve`");
    println!("   max |streamed - offline| on the final window: {parity:e}");
    println!("   (0 ⇒ bit-for-bit parity with build-tcm + estimate)");
    println!(
        "   fault pass: {admitted} admitted, {rejected} rejected, {late} late,          {duplicates} duplicates — loop kept answering
"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_replay_parity_is_exact() {
        let (observations, parity, admitted, rejected, late, duplicates) = serve_replay(true);
        assert!(observations > 0);
        assert_eq!(parity, 0.0, "streamed estimate must be bit-identical to offline");
        assert!(admitted >= observations, "fault pass admits at least the clean stream");
        assert_eq!(rejected, 2);
        assert!(late >= 1);
        assert_eq!(duplicates, 1);
    }

    #[test]
    fn adaptive_beats_or_matches_random() {
        let rows = adaptive(true);
        assert_eq!(rows.len(), 3);
        for (k, adaptive_err, random_err) in &rows {
            assert!(*adaptive_err <= random_err + 0.05, "size {k}: {adaptive_err} vs {random_err}");
        }
    }

    #[test]
    fn online_quality_holds() {
        let (updates, warm_sweeps, _cold, nmae) = online(true);
        assert!(updates >= 4);
        assert!(warm_sweeps > 0.0);
        assert!(nmae < 0.25, "online NMAE {nmae}");
    }

    #[test]
    fn weighting_improves_noisy_counts() {
        let (plain, weighted) = weighted(true);
        assert!(weighted < plain, "weighted {weighted} vs plain {plain}");
    }
}
