//! The metric catalogue and the result line.
//!
//! Every workload reports the same named metrics: all end-to-end metrics
//! in a plain run, all per-layer metrics in a traced run. A per-layer
//! metric of a layer the workload does not exercise reads 0.

use crate::trace::{Breakdown, Span};
use std::fmt::Write as _;

/// End-to-end metrics: (name, unit). Each workload defines its unit of
/// work (a training round, a request) and its job (training to the
/// target, serving the request schedule); see `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput", "1/s"),
    ("p50_ms", "ms"),
    ("done_s", "s"),
];

/// Per-layer metrics: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    // nn / tensor
    ("nn.round_us", "us"),
    ("nn.round_share", "share"),
    ("nn.per_learner_us", "us"),
    ("nn.round_local_us", "us"),
    ("nn.predict_f32_us", "us"),
    ("nn.predict_int8_us", "us"),
    // sync
    ("sync.step_us", "us"),
    ("sync.step_share", "share"),
    ("sync.epochs_to_target", "count"),
    // data / shard
    ("data.gather_us", "us"),
    ("data.gather_share", "share"),
    ("data.worker_gather_us", "us"),
    // fleet / serve
    ("fleet.server_p50_us", "us"),
    ("fleet.server_p99_us", "us"),
    ("fleet.latency_p99_us", "us"),
    ("fleet.batch_mean", "count"),
    ("fleet.submit_p50_us", "us"),
    ("fleet.submit_p99_us", "us"),
    ("fleet.gen_lag_p50_us", "us"),
    ("fleet.gen_lag_p99_us", "us"),
    ("fleet.queue_max", "count"),
    ("fleet.shed", "count"),
    ("fleet.rejected", "count"),
    ("fleet.stolen_share", "share"),
    ("fleet.goodput.interactive", "share"),
    ("fleet.goodput.standard", "share"),
    ("fleet.goodput.batch", "share"),
    // comms
    ("comms.overhead_us", "us"),
    ("comms.share", "share"),
    ("comms.bytes_sent_per_round", "B"),
    ("comms.bytes_recv_per_round", "B"),
    ("comms.retries", "count"),
    ("comms.evictions", "count"),
    ("dist.formation_s", "s"),
    ("dist.teardown_s", "s"),
    // the trace itself
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "share"),
    ("trace.residual_share", "share"),
];

/// What one benchmark run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64)>,
    /// Failed correctness checks, printed before the result line.
    pub problems: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Vec<Span>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records a metric value (a later value under the same name wins).
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// Fails the run's correctness with a reason unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.problems.push(what.into());
        }
    }

    /// Records the traced run's self-time breakdown: prints where the
    /// root span's time went, sets `trace.residual_share`, and fails the
    /// run unless the layers' self times plus the residual add up to the
    /// root span.
    pub fn breakdown(&mut self, b: &Breakdown) {
        println!("{}", b.describe());
        self.set("trace.residual_share", b.residual_share());
        self.check(
            b.accounted_ns() == b.root_ns,
            "layer self times plus the residual do not add up to the root span",
        );
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Every metric of `catalogue` as (name, value, unit): metrics the
    /// workload did not set read 0; a non-finite value fails the run.
    pub fn values<'a>(&mut self, catalogue: &[(&'a str, &'a str)]) -> Vec<(&'a str, f64, &'a str)> {
        let mut values = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let v = self.value(name).unwrap_or(0.0);
            self.check(v.is_finite(), format!("{name} is not finite"));
            values.push((name, if v.is_finite() { v } else { 0.0 }, unit));
        }
        values
    }

    /// The result line: one JSON object holding `values`.
    pub fn result_line(&self, values: &[(&str, f64, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, v, unit)) in values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_catalogued_metric() {
        let mut r = Report::new();
        r.attempted = 3;
        r.set("p50_ms", 1.25);
        r.set("p50_ms", 1.5);
        let values = r.values(&[("p50_ms", "ms"), ("done_s", "s")]);
        let line = r.result_line(&values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"done_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        r.set("done_s", f64::NAN);
        let values = r.values(&[("done_s", "s")]);
        assert_eq!(values, vec![("done_s", 0.0, "s")]);
        assert!(r.result_line(&values).starts_with("{\"correct\": false"));
    }
}
