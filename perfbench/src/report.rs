//! What a run found: metrics, counts of attempted and failed
//! operations, and human-readable notes, printed as `# ` lines followed
//! by the one-line JSON result.

use std::collections::BTreeMap;
use std::io::{self, Write};

/// The accumulating result of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Records (or overwrites) a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    /// Adds a human-readable line to the output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts `n` operations, `failed` of which went wrong (`why` says
    /// how, and is only built on failure).
    pub fn attempt(&mut self, n: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.problems.push(why());
        }
    }

    /// A check that failed outright: the run is not correct.
    pub fn fail(&mut self, why: String) {
        self.problems.push(why);
    }

    /// Prints the notes, then the JSON result carrying exactly the
    /// metrics `names` (with `maps_to` saying what each is expected to
    /// move). A name never recorded, or a non-finite value, makes the
    /// run incorrect.
    pub fn print(mut self, names: &[(String, String)], out: &mut impl Write) -> io::Result<()> {
        let mut json = Vec::new();
        for (name, maps_to) in names {
            match self.metrics.get(name) {
                Some(&(value, unit)) if value.is_finite() => {
                    self.notes
                        .push(format!("metric {name} = {value} {unit}  [{maps_to}]"));
                    json.push(format!(
                        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                    ));
                }
                _ => self
                    .problems
                    .push(format!("metric {name} was not measured")),
            }
        }
        for line in &self.notes {
            writeln!(out, "# {line}")?;
        }
        for line in &self.problems {
            writeln!(out, "# PROBLEM: {line}")?;
        }
        writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        )?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_only_the_named_metrics_and_flags_missing_ones() {
        let mut r = Report::default();
        r.metric("a", 1.25, "ms");
        r.metric("extra", 2.0, "s");
        r.attempt(10, 0, String::new);
        let mut out = Vec::new();
        r.print(&[("a".into(), "x".into())], &mut out)
            .expect("print");
        let text = String::from_utf8(out).expect("utf8");
        let last = text.lines().last().expect("json line");
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );

        let mut r = Report::default();
        r.attempt(3, 1, || "one wrong".into());
        let mut out = Vec::new();
        r.print(&[("a".into(), "x".into())], &mut out)
            .expect("print");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("# PROBLEM: one wrong"));
        assert!(text.contains("# PROBLEM: metric a was not measured"));
        assert!(text
            .lines()
            .last()
            .expect("json")
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"));
    }
}
