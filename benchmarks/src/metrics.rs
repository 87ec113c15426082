//! Every metric the benchmark reports, by name, with its unit and which way
//! is better. `BENCHMARK.json` lists the same names; a unit test holds the
//! two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; each is the quiet-side quartile over the
/// run's seven rounds.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("throughput_ops_s", "1/s"),
    lower("latency_p50_ms", "ms"),
    lower("cpu_ms_per_op", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers, measured in the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    higher("tensor.matmul_gflops", "GFLOP/s"),
    higher("tensor.batched_matmul_gflops", "GFLOP/s"),
    higher("tensor.conv2d_fwd_gflops", "GFLOP/s"),
    higher("tensor.conv2d_bwd_gflops", "GFLOP/s"),
    higher("tensor.elementwise_gbs", "GB/s"),
    lower("tensor.kernel_max_rel_err", "ratio"),
    lower("models.build_ms", "ms"),
    lower("sparse.apply_rule_us", "us"),
    lower("graph.autodiff_ms", "ms"),
    lower("passes.optimize_ms", "ms"),
    lower("memplan.plan_ms", "ms"),
    lower("runtime.executor_build_ms", "ms"),
    lower("graph.train_nodes", "count"),
    lower("passes.launches_per_step", "count"),
    higher("passes.fused_regions", "count"),
    higher("passes.pruned_nodes", "count"),
    lower("sparse.trainable_elements", "count"),
    lower("memplan.arena_bytes", "bytes"),
    lower("memplan.sparse_over_full_bytes", "ratio"),
    lower("runtime.train_step_ms", "ms"),
    lower("runtime.eval_step_ms", "ms"),
    lower("runtime.allocs_per_step", "count"),
    lower("runtime.fallback_dispatches", "count"),
    higher("sparse.step_speedup", "ratio"),
    lower("runtime.snapshot_ms", "ms"),
    lower("runtime.restore_ms", "ms"),
    lower("runtime.snapshot_bytes", "bytes"),
    lower("core.sync_us_per_req", "us"),
    lower("core.queue_us_per_req", "us"),
    lower("net.tcp_us_per_req", "us"),
    lower("fleet.hop_us_per_req", "us"),
    lower("core.queue_added_us", "us"),
    lower("net.tcp_added_us", "us"),
    lower("fleet.hop_added_us", "us"),
    lower("core.compile_ms", "ms"),
    lower("core.specialize_ms", "ms"),
    lower("net.connect_ms", "ms"),
    lower("fleet.boot_ms", "ms"),
    higher("core.batch_rows_mean", "rows"),
    lower("core.batch_expired_share", "ratio"),
    lower("core.pad_share", "ratio"),
    higher("core.cache_hit_share", "ratio"),
    lower("core.paced_p50_us", "us"),
    lower("net.encode_submit_ns", "ns"),
    lower("net.decode_submit_ns", "ns"),
    lower("net.encode_outcome_ns", "ns"),
    lower("net.decode_outcome_ns", "ns"),
    lower("net.bytes_per_req", "bytes"),
    lower("net.ack_rtt_us", "us"),
    lower("net.ping_rtt_us", "us"),
    lower("fleet.train_p50_ms", "ms"),
    higher("fleet.checkpoints_broadcast", "count"),
    lower("fleet.redispatches", "count"),
    lower("fleet.cancelled", "count"),
    lower("fleet.eval_imbalance", "ratio"),
    lower("data.stream_gen_ms", "ms"),
    lower("bench.trace_overhead_share", "ratio"),
    lower("bench.round_spread_share", "ratio"),
    lower("bench.latency_tail_ms", "ms"),
    higher("bench.latency_tail_quantile", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Workload;
    use pockengine::pe_data::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let text = |entry: &Json, field: &str| {
            entry
                .get(field)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.word().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_defined_here() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("valid json");
        assert_eq!(listed(&doc, "end_to_end"), defined(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), defined(PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }
}
