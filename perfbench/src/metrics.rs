//! Metric names and units. `BENCHMARK.json` lists the same two tables;
//! a unit test keeps them in step.

/// End-to-end metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("host_throughput", "work/s"),
    ("sim_oovr_speedup", "x"),
    ("sim_link_traffic_saved_pct", "%"),
];

/// Per-layer metrics, reported by every workload (`--trace 1`). A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scene.build_ms", "ms"),
    ("frameworks.baseline_ms", "ms"),
    ("frameworks.object_ms", "ms"),
    ("core.ooapp_ms", "ms"),
    ("core.oovr_ms", "ms"),
    ("core.oovr_res_ms", "ms"),
    ("core.middleware_ms", "ms"),
    ("core.distribution_ms", "ms"),
    ("core.distribution_ns_per_frag", "ns"),
    ("core.batches", "count"),
    ("core.steals", "count"),
    ("core.prealloc_mb", "MiB"),
    ("core.migrations", "count"),
    ("core.shed_events", "count"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.fig15_s", "s"),
    ("core.fig16_s", "s"),
    ("core.resilience_s", "s"),
    ("gpu.executor_new_ms", "ms"),
    ("gpu.composition_ms", "ms"),
    ("gpu.fragments", "count"),
    ("gpu.quads", "count"),
    ("gpu.triangles", "count"),
    ("gpu.tiles_rejected_ratio", "ratio"),
    ("mem.l1_hit_rate", "ratio"),
    ("mem.l2_hit_rate", "ratio"),
    ("mem.inter_gpm_mb", "MiB"),
    ("serve.stream_measure_ms", "ms"),
    ("serve.simulate_ms", "ms"),
    ("serve.us_per_frame", "us"),
    ("serve.capacity_ms", "ms"),
    ("serve.cluster_ms", "ms"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.missed", "count"),
    ("serve.shed_frames", "count"),
    ("serve.cluster_failovers", "count"),
    ("serve.cluster_evicted", "count"),
    ("edge.simulate_ms", "ms"),
    ("edge.frames_lost", "count"),
    ("edge.frames_reprojected", "count"),
    ("edge.link_rejected", "count"),
    ("trace.render_overhead_pct", "%"),
    ("metrics.serve_overhead_pct", "%"),
    ("bench.span_overhead_pct", "%"),
];

/// Bytes in one MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables here and in `BENCHMARK.json` name the same metrics with
    /// the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
