//! Order statistics over timing samples. Every reported timing is a
//! median (or a named percentile) of the samples one run collected; the
//! sample count rides along so a reader can tell a median of 7 from a
//! median of 7000.

use std::time::Duration;

/// A bag of samples of one quantity, in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_s(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            f64::NAN
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// The `q`-quantile by linear interpolation between order
    /// statistics; NaN for an empty bag (the caller reports that as a
    /// failed check rather than a number).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Runs `f` until `budget` is spent, at least `min_reps` and at most
/// `max_reps` times, collecting its wall-clock in milliseconds.
pub fn time_reps(
    budget: Duration,
    min_reps: usize,
    max_reps: usize,
    mut f: impl FnMut(),
) -> Samples {
    let start = std::time::Instant::now();
    let mut out = Samples::new();
    while out.len() < max_reps && (out.len() < min_reps || start.elapsed() < budget) {
        let t = std::time::Instant::now();
        f();
        out.push_ms(t.elapsed());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for x in [4.0, 1.0, 3.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.mean(), 2.5);
        assert!(Samples::new().median().is_nan());
    }
}
