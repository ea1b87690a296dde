//! Single-line JSON run reports: the machine-readable summary the
//! examples print as `run_report_json=` and the server returns on `report`.

use crate::json::{escape, number};
use crate::metrics::HistSummary;

/// Builds one flat JSON object, emitted on a single line. Keys appear in
/// insertion order.
pub struct RunReport {
    parts: Vec<String>,
}

impl RunReport {
    pub fn new(name: &str) -> RunReport {
        RunReport {
            parts: vec![format!("\"name\":\"{}\"", escape(name))],
        }
    }

    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.parts.push(format!("\"{}\":{v}", escape(key)));
        self
    }

    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.parts
            .push(format!("\"{}\":{}", escape(key), number(v)));
        self
    }

    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.parts
            .push(format!("\"{}\":\"{}\"", escape(key), escape(v)));
        self
    }

    /// A nested object whose value is already-rendered JSON.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.parts.push(format!("\"{}\":{json}", escape(key)));
        self
    }

    /// A nested `{count, p50, p95, p99, mean, max}` object from a
    /// histogram summary (pre-scaled to the units the key advertises).
    pub fn hist(self, key: &str, s: &HistSummary) -> Self {
        self.raw(key, &hist_json(s))
    }

    /// The single-line JSON document.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

/// Render a histogram summary as a JSON object.
pub fn hist_json(s: &HistSummary) -> String {
    format!(
        "{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"mean\":{},\"max\":{}}}",
        s.count,
        number(s.p50),
        number(s.p95),
        number(s.p99),
        number(s.mean),
        number(s.max),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn report_is_one_parseable_line() {
        let line = RunReport::new("skewed_exec")
            .int("steals", 12)
            .num("task_skew", 2.5)
            .str("mode", "parallel")
            .hist(
                "iter_us",
                &HistSummary {
                    count: 3,
                    p50: 10.0,
                    p95: 20.0,
                    p99: 20.0,
                    mean: 13.0,
                    max: 21.0,
                },
            )
            .finish();
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("skewed_exec"));
        assert_eq!(v.get("steals").unwrap().as_f64(), Some(12.0));
        let h = v.get("iter_us").unwrap();
        assert_eq!(h.get("p50").unwrap().as_f64(), Some(10.0));
        assert_eq!(h.get("p99").unwrap().as_f64(), Some(20.0));
    }
}
