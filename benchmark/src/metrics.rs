//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics. `BENCHMARK.json` at the repo root lists the same
//! names; a unit test keeps the two in step.
//!
//! Owns: the tables, the result line's JSON (write and parse).
//! Does not own: how a value is measured (`measure`, `probes`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use spdistal_obs::json::Json;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "iter_small",
        why: "cached run() of a 3-statement SpMV chain: kernels are a few percent, fixed per-iteration overhead is the rest",
    },
    WorkloadDef {
        name: "iter_heavy",
        why: "cached run() of a 6-kernel independent sweep on skewed inputs: leaf kernels, span splitting and output fold dominate",
    },
    WorkloadDef {
        name: "compile_cold",
        why: "Program build plus first run with an empty plan cache: parse, distribution, lowering, codegen, first-run staging",
    },
    WorkloadDef {
        name: "stream_delta",
        why: "update_batch of 1% of rows plus run_incremental, ingestion inside the op: the write path of the tensors iter_* only read",
    },
    WorkloadDef {
        name: "serve_closed",
        why: "closed loop of SpMV submits from 2 connections to a spawned spd-server: codec, admission, per-request build, sockets",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every per-layer metric, printed for every workload by the traced pass.
/// A value of 0 means the workload's op does not pass through that layer.
/// `sim_us` is *simulated* time on the modelled machine, not wall clock.
pub const PER_LAYER: &[PerLayer] = &[
    // ir
    layer("ir.parse_us", "us", Lower),
    layer("ir.lower_us", "us", Lower),
    // sparse
    layer("sparse.pack_us", "us", Lower),
    layer("sparse.to_coo_us", "us", Lower),
    layer("sparse.driver_nnz", "count", Lower),
    // core.codegen
    layer("codegen.add_tensor_us", "us", Lower),
    layer("codegen.compile_us", "us", Lower),
    layer("codegen.colors", "count", Lower),
    // core.engine
    layer("engine.lookup_hit_ns", "ns", Lower),
    layer("engine.plan_cache_hit", "count", Higher),
    layer("engine.plan_cache_miss", "count", Lower),
    // core.plan / core.session
    layer("plan.ctx_run_us", "us", Lower),
    layer("plan.drain_us", "us", Lower),
    layer("plan.overhead_us", "us", Lower),
    layer("session.flush_us", "us", Lower),
    // core.program
    layer("program.build_us", "us", Lower),
    layer("program.first_run_us", "us", Lower),
    layer("program.iter_us", "us", Lower),
    layer("program.self_us", "us", Lower),
    // core.kernels
    layer("kernels.spmv_csr.spec_us", "us", Lower),
    layer("kernels.spmv_csr.walk_us", "us", Lower),
    layer("kernels.spmv_dcsr.spec_us", "us", Lower),
    layer("kernels.spmv_dcsr.walk_us", "us", Lower),
    layer("kernels.spmm_csr.spec_us", "us", Lower),
    layer("kernels.spmm_csr.walk_us", "us", Lower),
    layer("kernels.sddmm_csr.spec_us", "us", Lower),
    layer("kernels.sddmm_csr.walk_us", "us", Lower),
    layer("kernels.spmttkrp_csf.spec_us", "us", Lower),
    layer("kernels.spmttkrp_csf.walk_us", "us", Lower),
    layer("kernels.stmt0_wall_us", "us", Lower),
    layer("kernels.stmt1_wall_us", "us", Lower),
    layer("kernels.stmt2_wall_us", "us", Lower),
    layer("kernels.stmt3_wall_us", "us", Lower),
    layer("kernels.stmt4_wall_us", "us", Lower),
    layer("kernels.stmt5_wall_us", "us", Lower),
    layer("kernels.ops", "count", Lower),
    layer("kernels.bytes_computed", "B", Lower),
    layer("kernels.mnnz_per_s", "1/s", Higher),
    layer("kernels.specialized_share", "ratio", Higher),
    layer("kernels.share_of_op", "ratio", Higher),
    // runtime.sched
    layer("sched.drain_empty_us", "us", Lower),
    layer("sched.spans", "count", Lower),
    layer("sched.steals", "count", Lower),
    layer("sched.task_skew_milli", "count", Lower),
    layer("sched.busy_share", "ratio", Higher),
    // runtime.exec (the machine model; exact counts)
    layer("model.op_us", "sim_us", Lower),
    layer("model.launches", "count", Lower),
    layer("model.fences", "count", Lower),
    layer("model.comm_bytes", "B", Lower),
    layer("model.messages", "count", Lower),
    // core.streaming
    layer("streaming.update_batch_us", "us", Lower),
    layer("streaming.run_incremental_us", "us", Lower),
    layer("streaming.full_run_us", "us", Lower),
    layer("streaming.structural_us", "us", Lower),
    layer("streaming.skip_ratio", "ratio", Higher),
    layer("streaming.fallbacks", "count", Lower),
    layer("streaming.rows_dirty", "count", Lower),
    // core.admission
    layer("admission.roundtrip_ns", "ns", Lower),
    layer("admission.refused", "count", Lower),
    // client
    layer("proto.encode_submit_us", "us", Lower),
    layer("proto.decode_result_us", "us", Lower),
    layer("proto.result_bytes", "B", Lower),
    layer("proto.register_bytes", "B", Lower),
    layer("frame.roundtrip_us", "us", Lower),
    layer("client.register_ms", "ms", Lower),
    // server
    layer("server.exec_share", "ratio", Higher),
    layer("server.req_overhead_us", "us", Lower),
    layer("server.cpu_ms_per_req", "ms", Lower),
    layer("server.rss_mb", "MiB", Lower),
    layer("server.cross_tenant_hit", "count", Higher),
    // obs
    layer("obs.trace_overhead_pct", "%", Lower),
    layer("obs.events", "count", Lower),
    layer("obs.events_dropped", "count", Lower),
    layer("obs.span_cover_pct", "%", Higher),
];

/// Which end-to-end metric, on which workload, each layer's metrics are
/// expected to move ("layer prefix", "end-to-end metric @ workload").
/// On every other pairing the prediction is *no change*.
pub const MOVES: &[(&str, &str)] = &[
    ("ir.", "op_p50_ms @ compile_cold"),
    (
        "sparse.",
        "op_p50_ms @ stream_delta, compile_cold; setup_s everywhere",
    ),
    ("codegen.", "op_p50_ms @ compile_cold, serve_closed"),
    ("engine.", "op_p50_ms @ iter_small"),
    ("plan.", "op_p50_ms @ iter_small"),
    ("session.", "op_p50_ms @ iter_small"),
    (
        "program.",
        "op_p50_ms @ compile_cold (build, first run), iter_small (self)",
    ),
    ("kernels.", "op_p50_ms, ops_per_s @ iter_heavy"),
    (
        "sched.",
        "op_p50_ms @ iter_small (drain_empty); op_p90_ms @ iter_heavy (skew, steals)",
    ),
    (
        "model.",
        "none end to end: the simulated machine's own time, reported per layer",
    ),
    ("streaming.", "op_p50_ms @ stream_delta"),
    ("admission.", "op_p90_ms @ serve_closed"),
    ("proto.", "op_p50_ms @ serve_closed"),
    ("frame.", "op_p50_ms @ serve_closed"),
    ("client.", "setup_s @ serve_closed"),
    ("server.", "ops_per_s, op_p50_ms @ serve_closed"),
    (
        "obs.",
        "none: overhead must stay under 5 % and no event may be dropped",
    ),
];

/// One run's result: the last line of standard output.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name -> (value, unit), in name order.
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    /// The single-line JSON object the driver reads: exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (k, (name, (value, unit))) in self.metrics.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                spdistal_obs::json::number(*value)
            );
        }
        out.push_str("}}");
        out
    }

    pub fn parse(line: &str) -> Result<RunResult, String> {
        let v = Json::parse(line)?;
        let correct = match v.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("result has no boolean 'correct'".to_string()),
        };
        let whole = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("result has no whole number '{key}'"))
        };
        let Some(Json::Obj(map)) = v.get("metrics") else {
            return Err("result has no 'metrics' object".to_string());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in map {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric '{name}' has no numeric value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric '{name}' has no unit"))?;
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
        Ok(RunResult {
            correct,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            metrics,
        })
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_round_trips() {
        let mut metrics = BTreeMap::new();
        metrics.insert("op_p50_ms".to_string(), (1.203_456_789, "ms".to_string()));
        metrics.insert("setup_s".to_string(), (0.8127, "s".to_string()));
        metrics.insert("ops_per_s".to_string(), (1e-7, "1/s".to_string()));
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::parse(&line).unwrap(), r);
        // Exactly the four keys of the contract.
        match Json::parse(&line).unwrap() {
            Json::Obj(m) => assert_eq!(
                m.keys().map(String::as_str).collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            ),
            _ => panic!("result is an object"),
        }
        assert!(RunResult::parse("{\"correct\": true}").is_err());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "'{name}' is used twice");
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for (prefix, _) in MOVES {
            assert!(
                PER_LAYER.iter().any(|m| m.name.starts_with(prefix)),
                "no per-layer metric starts with '{prefix}'"
            );
        }
        for m in PER_LAYER {
            assert!(
                MOVES.iter().any(|(p, _)| m.name.starts_with(p)),
                "'{}' belongs to no layer of MOVES",
                m.name
            );
        }
    }

    /// `BENCHMARK.json` names what this binary prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = crate::host::package_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let v = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("no '{key}' array"))
                .iter()
                .map(|e| e.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        assert_eq!(
            sorted(names("end_to_end")),
            sorted(END_TO_END.iter().map(|m| m.name.to_string()).collect())
        );
        assert_eq!(
            sorted(names("per_layer")),
            sorted(PER_LAYER.iter().map(|m| m.name.to_string()).collect())
        );
        for e in v.get("end_to_end").unwrap().as_arr().unwrap() {
            let name = e.get("name").unwrap().as_str().unwrap();
            let table = END_TO_END.iter().find(|m| m.name == name).unwrap();
            assert_eq!(e.get("bound").unwrap().as_f64().unwrap(), table.bound);
            assert_eq!(e.get("unit").unwrap().as_str().unwrap(), table.unit);
            assert_eq!(
                e.get("better").unwrap().as_str().unwrap(),
                table.better.as_str()
            );
        }
        for e in v.get("per_layer").unwrap().as_arr().unwrap() {
            let name = e.get("name").unwrap().as_str().unwrap();
            let table = PER_LAYER.iter().find(|m| m.name == name).unwrap();
            assert_eq!(e.get("unit").unwrap().as_str().unwrap(), table.unit);
            assert_eq!(
                e.get("better").unwrap().as_str().unwrap(),
                table.better.as_str()
            );
        }
    }
}
