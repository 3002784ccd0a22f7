//! Configuration-label reduction (Sánchez Barrera et al., reused by the
//! paper): from the full 288/320-point space, select k configurations
//! (13, 6, or 2) such that picking the best of the k per region retains as
//! much of the full-space gains as possible.
//!
//! Greedy forward selection: start from the single configuration with the
//! best total gain, then repeatedly add the configuration that most
//! improves the attainable total. Greedy is the standard approach for this
//! submodular-style coverage objective.

/// Select `k` configuration indices from `times[region][config]`, where
/// `baseline[region]` is the default-configuration time. Rows are borrowed
/// (`Vec<f64>`, `&[f64]`, …), so callers never copy their sweeps.
///
/// Returns the chosen indices in selection order (most valuable first).
pub fn reduce_labels<R: AsRef<[f64]>>(times: &[R], baseline: &[f64], k: usize) -> Vec<usize> {
    assert!(!times.is_empty());
    let n_cfg = times[0].as_ref().len();
    assert!(times.iter().all(|r| r.as_ref().len() == n_cfg), "ragged time matrix");
    assert_eq!(times.len(), baseline.len());
    assert!(k >= 1 && k <= n_cfg);

    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    // best_time[region] under the currently chosen set.
    let mut best_time: Vec<f64> = vec![f64::INFINITY; times.len()];

    for _ in 0..k {
        let mut best_cfg = None;
        let mut best_score = f64::MIN;
        for c in 0..n_cfg {
            if chosen.contains(&c) {
                continue;
            }
            // Total speedup sum if we add c.
            let score: f64 = times
                .iter()
                .zip(&best_time)
                .zip(baseline)
                .map(|((row, &bt), &base)| base / bt.min(row.as_ref()[c]))
                .sum();
            if score > best_score {
                best_score = score;
                best_cfg = Some(c);
            }
        }
        let c = best_cfg.expect("space has unchosen configs");
        chosen.push(c);
        for (r, row) in times.iter().enumerate() {
            best_time[r] = best_time[r].min(row.as_ref()[c]);
        }
    }
    chosen
}

/// Fraction of full-space gains retained by a label set:
/// `mean(base/best_of_set) / mean(base/best_of_space)`.
pub fn coverage<R: AsRef<[f64]>>(times: &[R], baseline: &[f64], chosen: &[usize]) -> f64 {
    let mut got = 0.0;
    let mut full = 0.0;
    for (r, row) in times.iter().enumerate() {
        let row = row.as_ref();
        let best_all = row.iter().cloned().fold(f64::INFINITY, f64::min);
        let best_set = chosen.iter().map(|&c| row[c]).fold(f64::INFINITY, f64::min);
        got += baseline[r] / best_set;
        full += baseline[r] / best_all;
    }
    got / full
}

/// For each region, the index (within `chosen`) of its best configuration —
/// the training label of the static model.
pub fn label_per_region<R: AsRef<[f64]>>(times: &[R], chosen: &[usize]) -> Vec<usize> {
    times
        .iter()
        .map(|row| {
            let row = row.as_ref();
            // First strict minimum: ties resolve to the earliest-selected
            // (most valuable) configuration, deterministically.
            let mut best = 0usize;
            for (i, &c) in chosen.iter().enumerate() {
                if row[c] < row[chosen[best]] {
                    best = i;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 regions × 5 configs; config 4 is the default-ish mediocre one.
    fn toy() -> (Vec<Vec<f64>>, Vec<f64>) {
        let times = vec![
            vec![1.0, 5.0, 5.0, 5.0, 4.0], // region 0 wants cfg 0
            vec![5.0, 1.0, 5.0, 5.0, 4.0], // region 1 wants cfg 1
            vec![5.0, 5.0, 1.0, 5.0, 4.0], // region 2 wants cfg 2
            vec![5.0, 1.2, 5.0, 1.0, 4.0], // region 3 wants cfg 3, cfg 1 close
        ];
        let baseline = vec![4.0, 4.0, 4.0, 4.0];
        (times, baseline)
    }

    #[test]
    fn greedy_picks_the_winners() {
        let (times, base) = toy();
        let chosen = reduce_labels(&times, &base, 2);
        // cfg 1 covers regions 1 and 3 well; cfg 0 or 2 next.
        assert!(chosen.contains(&1), "{chosen:?}");
        assert_eq!(chosen.len(), 2);
    }

    #[test]
    fn full_k_reaches_full_coverage() {
        let (times, base) = toy();
        let chosen = reduce_labels(&times, &base, 5);
        let cov = coverage(&times, &base, &chosen);
        assert!((cov - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_grows_with_k() {
        let (times, base) = toy();
        let mut prev = 0.0;
        for k in 1..=5 {
            let chosen = reduce_labels(&times, &base, k);
            let cov = coverage(&times, &base, &chosen);
            assert!(cov >= prev - 1e-12, "coverage must be monotone in k");
            prev = cov;
        }
        assert!(prev > 0.99);
    }

    #[test]
    fn labels_point_to_best_in_set() {
        let (times, _) = toy();
        let chosen = vec![0, 1, 3];
        let labels = label_per_region(&times, &chosen);
        // Region 2's true winner (cfg 2) is not in the set: all chosen
        // configs tie at 5.0, so the first selected wins deterministically.
        assert_eq!(labels, vec![0, 1, 0, 2], "indices within the chosen set");
    }

    #[test]
    #[should_panic(expected = "ragged time matrix")]
    fn ragged_matrix_panics() {
        let times = vec![vec![1.0, 2.0], vec![1.0]];
        reduce_labels(&times, &[1.0, 1.0], 1);
    }
}
