//! Quartiles of timing samples.

/// First quartile, median and third quartile of `xs`, computed like
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method, whose middle cut is the median). A single sample is its own
/// quartiles. Panics on an empty slice: every caller has a sample.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = ld + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}
