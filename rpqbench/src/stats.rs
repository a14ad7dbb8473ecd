//! Exact order statistics over the benchmark's own samples.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`: the smallest
/// sample with at least `p`% of the samples at or below it. Sorts in
/// place; `None` for an empty slice.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// A timing distribution: the samples of one quantity, in one unit.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile, 0 when there are no samples.
    pub fn pct(&self, p: f64) -> f64 {
        percentile(&mut self.0.clone(), p).unwrap_or(0.0)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

/// Geometric mean of positive ratios (1 for an empty slice).
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50.0));
        assert_eq!(percentile(&mut v, 99.0), Some(99.0));
        assert_eq!(percentile(&mut v, 100.0), Some(100.0));
        assert_eq!(percentile(&mut [3.0], 1.0), Some(3.0));
        assert_eq!(percentile(&mut [], 50.0), None);
    }
}
