//! The repository benchmark: simulator host throughput, set-up time and
//! host memory on five access-pattern workloads, with per-layer metrics
//! from spans recorded around each call into a library layer.
//!
//! It calls only public entry points: `graph`, `accel::{System, Fabric,
//! RunConfig}`, `serve::Scheduler`, `moms::MomsSystem`,
//! `dram::MemorySystem`, `algos::golden`, and `bench::arch::ArchPoint`
//! for the named design points. See `README.md` for how to run it.

pub mod alloc;
pub mod calib;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod spans;
pub mod workloads;

/// Every binary linking this crate counts its heap, so `peak_heap_mib`
/// and the allocation counts are live in the benchmark and its tests.
#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

#[cfg(test)]
mod tests {
    use crate::json::{parse, Value};
    use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
    use crate::workloads::Workload;

    fn strings(v: &Value, key: &str) -> Vec<String> {
        match v.get(key) {
            Some(Value::Array(items)) => items
                .iter()
                .map(|i| i.as_str().expect("string").to_owned())
                .collect(),
            other => panic!("{key}: {other:?}"),
        }
    }

    fn check_metrics(v: &Value, key: &str, defs: &[MetricDef]) {
        let Some(Value::Array(items)) = v.get(key) else {
            panic!("{key} is not an array")
        };
        assert_eq!(items.len(), defs.len(), "{key}");
        for (item, def) in items.iter().zip(defs) {
            let Value::Object(fields) = item else {
                panic!("{key} entry is not an object")
            };
            let name = item.get("name").and_then(Value::as_str);
            assert_eq!(name, Some(def.name), "{key} order");
            assert_eq!(item.get("unit").and_then(Value::as_str), Some(def.unit));
            assert_eq!(
                item.get("better").and_then(Value::as_str),
                Some(def.better.as_str())
            );
            assert_eq!(item.get("bound").and_then(Value::as_f64), def.bound);
            assert_eq!(fields.len(), 3 + usize::from(def.bound.is_some()));
        }
    }

    /// `BENCHMARK.json` declares exactly the registry's workloads and
    /// metrics, so the two cannot drift apart.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
        let v = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(strings(&v, "paths"), ["benchmark"]);
        let command = strings(&v, "command");
        assert!(command.iter().any(|c| c == "benchmark/Cargo.toml"));
        let Some(Value::Array(workloads)) = v.get("workloads") else {
            panic!("workloads")
        };
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (item, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(item.get("name").and_then(Value::as_str), Some(w.name()));
            assert_eq!(item.get("why").and_then(Value::as_str), Some(w.why()));
        }
        check_metrics(&v, "end_to_end", END_TO_END);
        check_metrics(&v, "per_layer", PER_LAYER);
        let secs = v
            .get("run_seconds")
            .and_then(Value::as_f64)
            .expect("run_seconds");
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    }
}
