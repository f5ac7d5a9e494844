//! GPU-side metrics sampling.
//!
//! Bridges a finished frame and the memory system into the
//! `oovr-metrics` registry, mirroring what the `trace` module's `ExecTracer`
//! does for the flight recorder: observers that read executor and memory
//! state through shared references and can never perturb the simulation.
//! Per-quantum activity reaches the registry via
//! `oovr_metrics::ingest_trace` on a drained recorder; the functions here
//! cover the frame-level report and the cache/traffic totals the trace
//! stream only carries as deltas.

use oovr_mem::{Cycle, MemorySystem};
use oovr_metrics::Registry;

use crate::report::FrameReport;

/// Fold one finished frame's report into the registry at cycle `now`.
pub fn record_report(reg: &mut Registry, now: Cycle, report: &FrameReport) {
    reg.inc("gpu_frames", "", now, 1);
    reg.inc("gpu_frame_cycles", "", now, report.frame_cycles);
    reg.inc("gpu_composition_cycles", "", now, report.composition_cycles);
    reg.inc("gpu_inter_gpm_bytes", "", now, report.inter_gpm_bytes());
    reg.inc("gpu_local_bytes", "", now, report.traffic.local_bytes());
    reg.inc("gpu_triangles", "", now, report.counts.triangles);
    reg.inc("gpu_pixels_out", "", now, report.counts.pixels_out);
    for &busy in &report.gpm_busy {
        reg.observe("gpu_gpm_busy_cycles", "", now, busy);
    }
    reg.set_gauge("gpu_l1_hit_rate", "", report.l1_hit_rate);
    reg.set_gauge("gpu_l2_hit_rate", "", report.l2_hit_rate);
    reg.set_gauge("gpu_imbalance_ratio", "", report.imbalance_ratio());
}

/// Snapshot the memory system's aggregate cache counters into gauges.
pub fn sample_memory(reg: &mut Registry, mem: &MemorySystem) {
    let (l1, l2) = mem.cache_totals();
    reg.set_gauge("mem_l1_hit_rate", "", l1.hit_rate());
    reg.set_gauge("mem_l2_hit_rate", "", l2.hit_rate());
    reg.set_gauge("mem_l1_accesses", "", l1.accesses as f64);
    reg.set_gauge("mem_l2_accesses", "", l2.accesses as f64);
    reg.set_gauge("mem_writebacks", "", (l1.writebacks + l2.writebacks) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_mem::Traffic;

    use crate::report::WorkCounts;

    #[test]
    fn report_folds_into_counters_and_gauges() {
        let report = FrameReport {
            scheme: "test".into(),
            workload: "demo".into(),
            frame_cycles: 1_000,
            composition_cycles: 100,
            gpm_busy: vec![400, 600],
            traffic: Traffic::new(2),
            counts: WorkCounts { triangles: 12, ..WorkCounts::default() },
            l1_hit_rate: 0.9,
            l2_hit_rate: 0.5,
            resident_bytes: vec![0, 0],
        };
        let mut reg = Registry::new(1_000);
        record_report(&mut reg, 0, &report);
        assert_eq!(reg.counter("gpu_frames", ""), 1);
        assert_eq!(reg.counter("gpu_frame_cycles", ""), 1_000);
        assert_eq!(reg.counter("gpu_triangles", ""), 12);
        assert_eq!(reg.gauge("gpu_l1_hit_rate", ""), Some(0.9));
        assert_eq!(reg.hist("gpu_gpm_busy_cycles", "").unwrap().count(), 2);
    }
}
