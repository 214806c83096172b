//! Sample statistics: median, quartiles and the tail percentile.

/// How many samples must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle samples for an even count.
///
/// # Panics
/// On an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The first, second and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default "exclusive"
/// method). One sample gives that sample three times.
///
/// # Panics
/// On an empty slice.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    if v.len() == 1 {
        return [v[0]; 3];
    }
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        // Clamping at both ends is what Python does for short inputs.
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The tail of a latency sample: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Which percentile `value` is, in percent.
    pub percentile: f64,
    /// How many samples are larger in rank than `value`.
    pub beyond: usize,
}

/// The sample with exactly [`TAIL_BEYOND`] samples above it in rank, and
/// the percentile it stands for: `100 × (n − 10) / n`. `None` when there
/// are too few samples for any percentile to have ten beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let v = sorted(xs);
    Some(Tail {
        value: v[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        beyond: TAIL_BEYOND,
    })
}
