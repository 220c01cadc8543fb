//! Sample summaries: medians and the tail percentile rule.

/// A set of timing (or other) samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    /// The median (mean of the two middle samples for an even count).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// The tail: the highest percentile with at least ten samples beyond
    /// it. Returns `(value, percentile)`; below 22 samples that percentile
    /// would sit under the median, so the median is returned instead.
    pub fn tail(&self) -> (f64, f64) {
        let v = self.sorted();
        let n = v.len();
        if n < 22 {
            return (self.median(), 50.0);
        }
        let idx = n - 11;
        (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
    }

    /// The tail of each consecutive chunk of `chunk` samples (in arrival
    /// order; a short last chunk joins the one before), then the median of
    /// those tails. One stall moves one chunk's tail, not the result.
    /// Returns `(value, percentile of one chunk, chunks)`.
    pub fn chunked_tail(&self, chunk: usize) -> (f64, f64, usize) {
        let k = (self.0.len() / chunk).max(1);
        let mut tails = Samples::default();
        let mut pct = 0.0;
        for i in 0..k {
            let end = if i + 1 == k {
                self.0.len()
            } else {
                (i + 1) * chunk
            };
            let (t, p) = Samples(self.0[i * chunk..end].to_vec()).tail();
            tails.push(t);
            if i == 0 {
                pct = p;
            }
        }
        (tails.median(), pct, k)
    }
}
