//! The result a run prints: an info line, then the contract's final JSON
//! line `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed (runs, requests, sessions).
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Host fingerprint, configuration that ran, sample counts.
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Counts one attempted operation; `Err` marks it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// The metrics as the final JSON line. Every value must be finite.
    pub fn result_line(&self) -> Result<String, String> {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if !x.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", x.name, x.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(&x.name),
                x.value,
                json_str(x.unit)
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        ))
    }

    /// The info pairs as one JSON object line.
    pub fn info_line(&self) -> String {
        let body: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!("{{\"info\": {{{}}}}}", body.join(", "))
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
