//! Order statistics and the result line.

use std::fmt::Write;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0.0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive finite values (1.0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Metrics of one workload, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Adds every metric of `other` with `prefix` in front of its name.
    pub fn extend_prefixed(&mut self, prefix: &str, other: Metrics) {
        for (name, value, unit) in other.entries {
            self.entries.push((format!("{prefix}{name}"), value, unit));
        }
    }

    /// One human-readable line per metric, for stderr.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(s, "  {name:<44} {value:>16.6} {unit}");
        }
        s
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // A non-finite value is not JSON; it can only come from a
            // broken measurement, which the caller has already failed.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// Counts of operations a workload attempted and failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Counts one operation; `ok == false` also counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The result line the benchmark prints last on stdout.
pub fn result_line(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        let line = result_line(
            true,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
