//! What a run accumulates: metric values and the operation tally.

use std::collections::BTreeMap;
use std::time::Duration;

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation, printed before the non-zero exit.
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Counts one operation (a request, an extraction, a training run or a
    /// correctness check); `what` describes it if it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_failures_with_their_description() {
        let mut r = Report::default();
        r.op(true, || unreachable!());
        r.op(false, || "broken".into());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.failures, vec!["broken".to_string()]);
    }
}
