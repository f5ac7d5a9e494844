//! Serve-layer SLO catalogues and the fleet health gate.
//!
//! This module binds the generic `oovr-metrics` SLO machinery to the
//! metric names [`crate::scheduler::simulate_metered`] and
//! [`crate::cluster::simulate_cluster_metered`] emit:
//!
//! * [`serve_slos`] — the single-server objectives: missed-vsync rate,
//!   release-to-retire p99 motion-to-photon latency, and shed-time
//!   fraction. The latency target is `2·V`, not `V`: the log2 histogram
//!   never underestimates a quantile but may overestimate by strictly
//!   less than one octave, so a run whose exact p99 is at the vsync bound
//!   still passes (see `oovr_metrics::Hist::quantile`).
//! * [`cluster_slos`] — the fleet objectives, parameterized by the miss
//!   budget: the nominal budget ([`NOMINAL_MISS_BUDGET`]) bounds the
//!   residual misses a fault-free fleet at [`crate::chaos::CHAOS_LOAD`]
//!   of capacity is allowed; the faulted budget ([`FAULT_MISS_BUDGET`])
//!   is what the resilient router must hold under a severity-1.0
//!   link-down fault — and what the retry-free baseline demonstrably
//!   cannot (pinned by `prop_metrics`).
//! * [`health_cell`] / [`health_table`] — the `figures -- health` gate:
//!   per workload, re-create the chaos sweep's operating point (offered
//!   load = `CHAOS_LOAD` × fault-free N=4 capacity), run the fleet once
//!   nominal and once under the seed-scanned link-down plan, and evaluate
//!   the SLOs. A cell is healthy when every *aggregate* (`*`) row holds
//!   its budget; per-server and per-class rows are reported for
//!   attribution but do not gate — a server that died mid-run busts its
//!   own label's budget by construction, and the whole point of the
//!   resilient router is that the fleet absorbs it.

use oovr::experiments::{par_map, FigureTable};
use oovr_gpu::{FaultPlan, FaultScenario, GpuConfig};
use oovr_metrics::slo::{evaluate, Objective, Slo, SloEval};
use oovr_metrics::Registry;
use oovr_scene::BenchmarkSpec;
use oovr_trace::Cycle;

use crate::chaos::{effective_plan, CHAOS_LOAD};
use crate::cluster::{cluster_capacity, simulate_cluster_metered, ClusterConfig};
use crate::router::{Placement, RouterConfig};
use crate::scheduler::{simulate_metered, ServeConfig};
use crate::stream::ServeScheme;

/// Missed-vsync budget of a fault-free fleet at [`CHAOS_LOAD`] of its
/// measured capacity. Calibrated against the worst fault-free workload at
/// the chaos operating point (NFS, ~9.5% missed): the capacity search
/// itself tolerates residual misses, so nominal serving is lossy-but-
/// bounded rather than lossless.
pub const NOMINAL_MISS_BUDGET: f64 = 0.12;

/// Missed-vsync budget under the chaos sweep's severity-1.0 link-down
/// fault. Sits in the measured gap between the routers at the operating
/// point: the resilient router's failover/retry/shed machinery tops out
/// around 10.3% missed (NFS), while the fault-oblivious baseline parks
/// sessions on the dead server and never does better than ~16%. Pinned
/// on both sides by `prop_metrics`.
pub const FAULT_MISS_BUDGET: f64 = 0.13;

/// Shed-time budget: fraction of paced frames served below full shade
/// scale (single server) or degraded (cluster). Shedding is the *designed*
/// overload response, so the budget is generous — it exists to catch a
/// fleet living permanently degraded.
pub const SHED_TIME_BUDGET: f64 = 0.5;

/// Single-server missed-vsync budget for [`serve_slos`].
pub const SERVE_MISS_BUDGET: f64 = 0.05;

/// The single-server serving objectives over the metrics
/// [`simulate_metered`] emits.
pub fn serve_slos(vsync: Cycle) -> Vec<Slo> {
    vec![
        Slo {
            name: "missed-vsync-rate",
            objective: Objective::BadFraction { bad: "frames_missed", total: "frames" },
            target: SERVE_MISS_BUDGET,
        },
        Slo {
            name: "p99-motion-to-photon",
            // 2·V: one vsync of real deadline plus strictly less than one
            // octave of histogram overestimate.
            objective: Objective::QuantileAtMost { hist: "frame_latency_cycles", p: 99.0 },
            target: 2.0 * vsync as f64,
        },
        Slo {
            name: "shed-time-fraction",
            objective: Objective::BadFraction { bad: "frames_shed", total: "frames" },
            target: SHED_TIME_BUDGET,
        },
    ]
}

/// The fleet objectives over the metrics
/// [`simulate_cluster_metered`] emits, at the given missed-vsync budget.
pub fn cluster_slos(miss_budget: f64) -> Vec<Slo> {
    vec![
        Slo {
            name: "missed-vsync-rate",
            objective: Objective::BadFraction { bad: "frames_missed", total: "frames" },
            target: miss_budget,
        },
        Slo {
            name: "class-missed-vsync-rate",
            objective: Objective::BadFraction { bad: "class_frames_missed", total: "class_frames" },
            target: miss_budget,
        },
        Slo {
            name: "shed-time-fraction",
            objective: Objective::BadFraction { bad: "frames_degraded", total: "frames" },
            target: SHED_TIME_BUDGET,
        },
    ]
}

/// One workload's health evaluation at the chaos operating point.
#[derive(Debug, Clone)]
pub struct HealthCell {
    /// Workload name.
    pub workload: String,
    /// Fault-free N=4 least-loaded capacity the load was derived from.
    pub capacity: u32,
    /// Sessions offered ([`CHAOS_LOAD`] of capacity).
    pub sessions: u32,
    /// Seed of the settled (seed-scanned) link-down fault plan.
    pub fault_seed: u64,
    /// SLO rows of the fault-free run (budget [`NOMINAL_MISS_BUDGET`]).
    pub nominal: Vec<SloEval>,
    /// SLO rows under the link-down fault (budget [`FAULT_MISS_BUDGET`]).
    pub faulted: Vec<SloEval>,
}

impl HealthCell {
    /// Whether every aggregate (`*`) row of both runs holds its budget.
    pub fn healthy(&self) -> bool {
        self.aggregate_rows().all(|e| e.healthy)
    }

    /// Largest aggregate budget consumption across both runs.
    pub fn worst_budget(&self) -> f64 {
        self.aggregate_rows().map(|e| e.budget_consumed).fold(0.0, f64::max)
    }

    fn aggregate_rows(&self) -> impl Iterator<Item = &SloEval> {
        self.nominal.iter().chain(self.faulted.iter()).filter(|e| e.label == "*")
    }

    /// Aggregate achieved value of `slo` in the given rows (0 if absent).
    fn achieved(rows: &[SloEval], slo: &str) -> f64 {
        rows.iter().find(|e| e.label == "*" && e.slo == slo).map_or(0.0, |e| e.achieved)
    }
}

/// Evaluates fleet health for one workload under `router` at the chaos
/// sweep's operating point: offered load is [`CHAOS_LOAD`] of the
/// fault-free N=4 least-loaded capacity, faulted by the same seed-scanned
/// severity-1.0 link-down plan `figures -- chaos` would use.
pub fn health_cell(
    spec: &BenchmarkSpec,
    gpu: &GpuConfig,
    router: RouterConfig,
    cfg: &ClusterConfig,
) -> HealthCell {
    let servers = 4u32;
    let mix = vec![(ServeScheme::OoVr, spec.clone())];
    let cap = cluster_capacity(&mix, gpu, servers, Placement::LeastLoaded, cfg);
    let sessions = (((cap as f64) * CHAOS_LOAD) as u32).max(1);
    let v = cfg.vsync_cycles.max(1);
    let horizon = (cfg.arrival_intervals.saturating_sub(1) + cfg.frames_per_session) as u64 * v;
    let plan = effective_plan(FaultScenario::LinkDown, 1.0, cfg.seed, servers, horizon, v);
    let run = |fault: Option<FaultPlan>| -> Registry {
        let run_cfg =
            ClusterConfig { servers, sessions, policy: cfg.policy, router, fault, ..cfg.clone() };
        let mut reg = Registry::new(v);
        simulate_cluster_metered(&mix, gpu, &run_cfg, None, Some(&mut reg));
        reg
    };
    let fault_seed = plan.seed;
    let nominal = evaluate(&run(None), &cluster_slos(NOMINAL_MISS_BUDGET));
    let faulted = evaluate(&run(Some(plan)), &cluster_slos(FAULT_MISS_BUDGET));
    HealthCell {
        workload: spec.name.clone(),
        capacity: cap,
        sessions,
        fault_seed,
        nominal,
        faulted,
    }
}

/// The `figures -- health` table: one [`health_cell`] per workload under
/// the resilient router. Columns report the operating point, the nominal
/// and faulted aggregate miss rates (percent), the worst aggregate budget
/// consumption, and the gate verdict (1 = healthy).
pub fn health_table(
    specs: &[BenchmarkSpec],
    gpu: &GpuConfig,
    cfg: &ClusterConfig,
) -> (FigureTable, Vec<HealthCell>) {
    let cells = par_map(specs, |spec| health_cell(spec, gpu, RouterConfig::resilient(), cfg));
    let rows = cells
        .iter()
        .map(|c| {
            let nominal_miss = HealthCell::achieved(&c.nominal, "missed-vsync-rate");
            let faulted_miss = HealthCell::achieved(&c.faulted, "missed-vsync-rate");
            (
                c.workload.clone(),
                vec![
                    c.capacity as f64,
                    c.sessions as f64,
                    nominal_miss * 100.0,
                    faulted_miss * 100.0,
                    c.worst_budget(),
                    f64::from(u8::from(c.healthy())),
                ],
            )
        })
        .collect();
    let table = FigureTable {
        id: "health",
        title: format!(
            "Fleet health gate: OO-VR at {:.0}% of N=4 capacity, nominal vs link-down \
             (budgets: nominal {:.0}%, faulted {:.0}% missed vsyncs)",
            CHAOS_LOAD * 100.0,
            NOMINAL_MISS_BUDGET * 100.0,
            FAULT_MISS_BUDGET * 100.0
        ),
        columns: ["cap(N=4)", "sessions", "nom_miss%", "fault_miss%", "budget", "healthy"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    };
    (table, cells)
}

/// The `figures -- metrics` table: one metered single-server OO-VR run
/// per workload. Latency columns are histogram quantiles in kilocycles
/// (upper bounds within one octave of exact; see module docs).
pub fn metrics_table(
    specs: &[BenchmarkSpec],
    gpu: &GpuConfig,
    cfg: &ServeConfig,
) -> (FigureTable, Vec<Registry>) {
    let v = cfg.vsync_cycles.max(1);
    let runs: Vec<(String, Registry)> = par_map(specs, |spec| {
        let mut reg = Registry::new(v);
        simulate_metered(ServeScheme::OoVr, spec, gpu, cfg, None, Some(&mut reg));
        (spec.name.clone(), reg)
    });
    let rows = runs
        .iter()
        .map(|(name, reg)| {
            let frames = reg.counter_sum("frames") as f64;
            let pct = |p: f64| {
                reg.hist("frame_latency_cycles", "").map_or(0.0, |h| h.quantile(p) as f64 / 1_000.0)
            };
            let rate = |n: &'static str| {
                if frames > 0.0 {
                    reg.counter_sum(n) as f64 / frames * 100.0
                } else {
                    0.0
                }
            };
            (
                name.clone(),
                vec![
                    reg.counter_sum("sessions_admitted") as f64,
                    frames,
                    pct(50.0),
                    pct(99.0),
                    pct(99.9),
                    rate("frames_missed"),
                    rate("frames_shed"),
                ],
            )
        })
        .collect();
    let table = FigureTable {
        id: "metrics",
        title: "Serve metrics: metered OO-VR runs (latency quantiles in kilocycles, \
                log2-histogram upper bounds)"
            .to_string(),
        columns: ["admitted", "frames", "p50_kcyc", "p99_kcyc", "p99.9_kcyc", "miss%", "shed%"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    };
    (table, runs.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_scene::benchmarks;

    fn spec() -> BenchmarkSpec {
        benchmarks::hl2_640().scaled(0.05)
    }

    #[test]
    fn metered_serve_matches_qos_accounting() {
        let cfg = ServeConfig { sessions: 6, frames_per_session: 8, ..ServeConfig::default() };
        let gpu = GpuConfig::default();
        let mut reg = Registry::new(cfg.vsync_cycles);
        let out = simulate_metered(ServeScheme::OoVr, &spec(), &gpu, &cfg, None, Some(&mut reg));
        let qos = out.qos();
        assert_eq!(reg.counter_sum("frames"), u64::from(qos.frames));
        assert_eq!(
            reg.counter_sum("frames_missed"),
            u64::from(qos.missed + qos.dropped),
            "metered misses must equal qos missed+dropped"
        );
        assert_eq!(reg.counter_sum("sessions_admitted") as usize, out.sessions.len());
        assert_eq!(reg.counter_sum("sessions_rejected") as usize, out.rejects.len());
        let evals = evaluate(&reg, &serve_slos(cfg.vsync_cycles));
        let miss = evals.iter().find(|e| e.slo == "missed-vsync-rate").unwrap();
        assert!((miss.achieved - qos.miss_rate).abs() < 1e-12);
    }

    #[test]
    fn metered_cluster_miss_rate_matches_outcome() {
        let gpu = GpuConfig::default();
        let cfg =
            ClusterConfig { sessions: 40, frames_per_session: 16, ..ClusterConfig::default() };
        let mix = vec![(ServeScheme::OoVr, spec())];
        let mut reg = Registry::new(cfg.vsync_cycles);
        let out = simulate_cluster_metered(&mix, &gpu, &cfg, None, Some(&mut reg));
        assert_eq!(reg.counter_sum("frames"), out.frames_offered);
        assert_eq!(reg.counter_sum("frames_missed"), out.frames_offered - out.on_time);
        let evals = evaluate(&reg, &cluster_slos(NOMINAL_MISS_BUDGET));
        let agg = evals.iter().find(|e| e.slo == "missed-vsync-rate" && e.label == "*").unwrap();
        assert!((agg.achieved - out.miss_rate()).abs() < 1e-12);
    }
}
