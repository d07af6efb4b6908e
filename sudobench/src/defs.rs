//! The benchmark's definitions as data: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repository root is rendered from
//! these tables (`sudobench define`), and a test keeps the committed file in step.

/// Length of one measured window in seconds (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// A named workload and the reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// The five workloads. Names are fixed: later issues cite them.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "em_pipeline",
        why: "build-once path: pretrain, embed, block, pseudo-label, fine-tune; nn and core do the work, index and serve almost none",
    },
    WorkloadDef {
        name: "join_dense",
        why: "offline blocking on the dense layout: full-tile f32 GEMM and top-k; routing, spill, i8, cache and serve do nothing",
    },
    WorkloadDef {
        name: "join_spilled_q8",
        why: "same corpus and batches, sharded under a 10% residency budget with i8: mmap fault, LRU, i8 scan and rescore dominate",
    },
    WorkloadDef {
        name: "serve_knn",
        why: "served request where the join is most of the work: unique topical batches, routing prunes, the cache never hits",
    },
    WorkloadDef {
        name: "serve_mixed",
        why: "reads beside writes: Zipf KNN over the query cache, EMBED, MATCH and delta publishes; serve, cache and model dominate",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit, which direction is better and — for end-to-end
/// metrics — the share of the parent's median by which it may worsen.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one of these; the
/// README says what one operation is on each workload.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("lat_p50_ms", "ms", Lower, 0.25),
    e2e("lat_tail_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers, measured from outside (timed calls into public functions, public
/// counters). Informational: no bound. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 42] = [
    layer("failed_share", "share", Lower),
    layer("lat.tail_percentile", "percentile", Higher),
    layer("lat.samples", "count", Higher),
    layer("quality.f1", "share", Higher),
    layer("quality.recall_at_k", "share", Higher),
    layer("core.pretrain_s", "s", Lower),
    layer("core.pretrain_steps_per_s", "1/s", Higher),
    layer("core.finetune_s", "s", Lower),
    layer("core.predict_pairs_per_s", "1/s", Higher),
    layer("core.embed_records_per_s", "1/s", Higher),
    layer("core.pseudo_s", "s", Lower),
    layer("text.serialize_s", "s", Lower),
    layer("core.train_share", "share", Higher),
    layer("nn.matmul_gflops", "GFLOP/s", Higher),
    layer("nn.dot_i8_gops", "Gop/s", Higher),
    layer("host.fma_gflops", "GFLOP/s", Higher),
    layer("host.memcpy_gbps", "GB/s", Higher),
    layer("index.build_rows_per_s", "1/s", Higher),
    layer("index.snapshot_save_s", "s", Lower),
    layer("index.snapshot_load_s", "s", Lower),
    layer("index.join_busy_s", "s", Lower),
    layer("index.scored_pairs_per_s", "1/s", Higher),
    layer("index.pruned_share", "share", Higher),
    layer("index.faults_per_visit", "ratio", Lower),
    layer("index.rescored_rows_per_query", "rows", Lower),
    layer("index.resident_mb", "MB", Lower),
    layer("index.cache_hit_share", "share", Higher),
    layer("index.publish_s", "s", Lower),
    layer("index.publishes", "count", Higher),
    layer("index.sharded_f32_queries_per_s", "1/s", Higher),
    layer("serve.protocol_us", "us", Lower),
    layer("serve.frame_bytes", "B", Lower),
    layer("serve.round_trip_ms", "ms", Lower),
    layer("serve.direct_ms", "ms", Lower),
    layer("serve.direct_share", "share", Higher),
    layer("serve.overhead_ms", "ms", Lower),
    layer("serve.coalesced_share", "share", Higher),
    layer("serve.busy_share", "share", Lower),
    layer("serve.knn_share", "share", Higher),
    layer("trace.coverage", "share", Higher),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.spans", "count", Higher),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Renders `BENCHMARK.json` — exactly the keys the driver's contract names.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"sudobench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"sudobench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
