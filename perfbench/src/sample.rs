//! Sample statistics: interpolated quantiles, a smoothed median for
//! nanosecond-grained timings, and a fixed-size reservoir so a traced
//! busy-poll loop keeps bounded memory however many spans it records.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an ascending
/// slice; `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sorts `v` ascending as floats.
pub fn sorted_f64(v: &[u32]) -> Vec<f64> {
    let mut s: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of a float list (interpolated); `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// The mean of the order statistics within ±1% of rank around the
/// median. Timer ticks make raw medians of sub-microsecond spans land
/// on the same integer run after run; the central mean keeps the
/// median's robustness and the resolution of an average.
pub fn smooth_median(sorted: &[f64]) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let lo = ((n as f64) * 0.49).floor() as usize;
    let hi = (((n as f64) * 0.51).ceil() as usize).clamp(lo + 1, n);
    let w = &sorted[lo.min(n - 1)..hi];
    Some(w.iter().sum::<f64>() / w.len() as f64)
}

/// A uniform reservoir sample of at most `cap` values (Vitter's
/// algorithm R) with a deterministic xorshift stream.
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: u64,
    pub samples: Vec<u32>,
}

impl Reservoir {
    pub fn new(cap: usize) -> Reservoir {
        Reservoir { cap, seen: 0, rng: 0x9E37_79B9_7F4A_7C15, samples: Vec::new() }
    }

    pub fn push(&mut self, v: u32) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
            return;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.seen;
        if (j as usize) < self.cap {
            self.samples[j as usize] = v;
        }
    }

    pub fn clear(&mut self) {
        self.seen = 0;
        self.samples.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn smooth_median_is_central() {
        let s: Vec<f64> = (0..1000).map(|x| x as f64).collect();
        let m = smooth_median(&s).unwrap();
        assert!((m - 499.5).abs() < 1.0, "{m}");
        assert_eq!(smooth_median(&[7.0]), Some(7.0));
    }

    #[test]
    fn reservoir_is_bounded_and_uniform() {
        let mut r = Reservoir::new(1000);
        for v in 0..100_000u32 {
            r.push(v);
        }
        assert_eq!(r.samples.len(), 1000);
        let mean = r.samples.iter().map(|&v| v as f64).sum::<f64>() / 1000.0;
        assert!((mean - 50_000.0).abs() < 5_000.0, "{mean}");
    }
}
