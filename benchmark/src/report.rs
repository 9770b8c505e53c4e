//! Named metrics and the result line the benchmark ends with.

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What one benchmark run found.
pub struct Outcome {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that panicked or failed a check.
    pub failed: u64,
    /// Every failure reason, for stderr.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The final stdout line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`. A non-finite value
    /// is a bug in the benchmark; it prints as 0 and clears `correct`.
    pub fn json_line(&self) -> String {
        let mut correct = self.failed == 0 && self.problems.is_empty();
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    m.value
                } else {
                    correct = false;
                    0.0
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}
