//! Single-line JSON run reports: the machine-readable summary the
//! examples print as `run_report_json=` and the server returns on `report`.

use std::sync::OnceLock;

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

/// The host a report was made on, as a JSON object: the CPU model (from
/// `/proc/cpuinfo` where it is readable, else `"unknown"`), the
/// `available_parallelism` the worker pool sizes itself by, and whether AVX
/// is detected (it picks SpMM's row loop). Read once per process.
pub(crate) fn host_json() -> &'static str {
    static HOST: OnceLock<String> = OnceLock::new();
    HOST.get_or_init(|| {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        #[cfg(target_arch = "x86_64")]
        let avx = std::is_x86_feature_detected!("avx");
        #[cfg(not(target_arch = "x86_64"))]
        let avx = false;
        format!(
            "{{\"cpu_model\":\"{}\",\"available_parallelism\":{threads},\"avx\":{avx}}}",
            escape(&cpu_model)
        )
    })
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

    #[test]
    fn host_names_its_cpu_parallelism_and_avx() {
        let host = Json::parse(host_json()).unwrap();
        let Json::Obj(fields) = &host else {
            panic!("host is not an object: {}", host_json());
        };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, ["available_parallelism", "avx", "cpu_model"]);
        assert!(!host.get("cpu_model").unwrap().as_str().unwrap().is_empty());
        assert!(host.get("available_parallelism").unwrap().as_f64().unwrap() >= 1.0);
        assert!(matches!(host.get("avx"), Some(Json::Bool(_))));
    }
}
