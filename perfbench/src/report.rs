//! What one run prints: context lines, one line per metric, the
//! correctness gate, and the final JSON object.

use crate::stats::{error_rate, valid_metric_name};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The correctness gate: every check counts as one attempt; a failed
/// check is recorded with its reason.
#[derive(Default)]
pub struct Gate {
    attempted: u64,
    failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
        ok
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failures.push(what);
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Deterministic counters of one run of a workload's job: pure functions
/// of the seed and the work done, so any two runs must agree exactly.
pub type Counts = BTreeMap<String, u64>;

/// Require `got` to equal the counts of an earlier round of the same run.
pub fn repeat_check(gate: &mut Gate, reference: &Counts, got: &Counts, what: &str) {
    gate.check(reference == got, || {
        format!(
            "{what}: counts differ between two rounds of the same seed: {reference:?} vs {got:?}"
        )
    });
}

/// Require `got` to equal the counts an earlier run with the same seed
/// left in `file`; the first run writes it.
pub fn persisted_repeat_check(gate: &mut Gate, file: &Path, got: &Counts) {
    let text: String = got.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(file) {
        Ok(prev) => {
            gate.check(prev == text, || {
                format!(
                    "counts differ from an earlier run with the same seed ({}):\n{prev}vs\n{text}",
                    file.display()
                )
            });
        }
        Err(_) => {
            let written = file
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(file, &text));
            gate.check(written.is_ok(), || {
                format!("cannot write {}", file.display())
            });
        }
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

/// Everything a run reports.
pub struct Report {
    header: String,
    lines: Vec<String>,
    metrics: Vec<Metric>,
    pub gate: Gate,
}

impl Report {
    pub fn new(header: String) -> Report {
        Report {
            header,
            lines: Vec::new(),
            metrics: Vec::new(),
            gate: Gate::default(),
        }
    }

    /// A context line (printed with a `#` prefix).
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// A named metric with its unit and a note on how it was taken
    /// (sample count, base, or "computed" for count-derived values).
    pub fn metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            note: note.into(),
        });
    }

    pub fn count(&mut self, name: &'static str, value: u64, note: impl Into<String>) {
        self.metric(name, "count", value as f64, note);
    }

    /// Print the report; the JSON object is the last line. Returns true
    /// when every check passed.
    pub fn print(mut self, expected: &[&str]) -> bool {
        for m in &self.metrics {
            let ok = valid_metric_name(m.name) && m.value.is_finite();
            self.gate.check(ok, || {
                format!("metric {} = {} is not reportable", m.name, m.value)
            });
        }
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        let mut expected = expected.to_vec();
        names.sort_unstable();
        expected.sort_unstable();
        self.gate.check(names == expected, || {
            format!("metric set {names:?} differs from the declared set {expected:?}")
        });
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.header);
        for l in &self.lines {
            let _ = writeln!(out, "# {l}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<34} {:>16.6} {:<8} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let (attempted, failed) = (self.gate.attempted(), self.gate.failed());
        let _ = writeln!(
            out,
            "# error_rate {} ({failed} failed / {attempted} checks attempted)",
            error_rate(failed, attempted)
        );
        for f in &self.gate.failures {
            let _ = writeln!(out, "# FAILED: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        let correct = failed == 0;
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
        print!("{out}");
        correct
    }
}
