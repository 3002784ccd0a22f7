//! Order statistics over measured samples.

/// The `q`-quantile (nearest rank on the sorted samples); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The fastest of several repetitions. Interference on a shared host
/// (hypervisor steal, a neighbour on the sibling hyperthread) only ever
/// slows a repetition down, so the minimum estimates the program's own
/// cost; medians are printed beside it.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `q`-quantile of the least disturbed window: the minimum over
/// windows of each window's own quantile (see [`best`]).
pub fn best_window(windows: &[Vec<f64>], q: f64) -> f64 {
    windows.iter().map(|w| quantile(w, q)).fold(f64::INFINITY, f64::min)
}

/// Items per second of summed latency (samples in ms).
pub fn pooled_rate(samples: &[f64]) -> f64 {
    samples.len() as f64 / (samples.iter().sum::<f64>() * 1e-3)
}

/// splitmix64: independent, reproducible sub-seeds from the workload seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
