//! `paper-grid`: what a researcher runs — Fig. 15, Fig. 16 and a reduced
//! resilience grid through `oovr::experiments`, with the render memo and
//! `par_map` at the host's parallelism. Every round renames its specs
//! (`<name>#<round>`): the name is only a label to the scene generator but
//! part of every memo key, so a repeated input starts from an empty memo
//! exactly as a fresh process would, and renders the same scenes.

use oovr::experiments::{fig15, fig16, resilience_grid, FigureTable};
use oovr_gpu::FaultScenario;
use oovr_scene::{benchmarks, BenchmarkSpec};

use crate::bench::{self, Outcome, Params, Round, Workload};
use crate::check::{hex_of, Checks, Digest};
use crate::counters::Counters;
use crate::spans::Spans;
use crate::stats::{geomean, median};

/// Scene scale at `--scale 1`: a grid round takes about a second.
const SCALE: f64 = 0.25;
/// Derived seeds; the tables of the first pass make up the simulated
/// metrics and the digest.
const SEEDS: usize = 5;
/// The two fault scenarios of the reduced resilience grid.
const SCENARIOS: [FaultScenario; 2] = [FaultScenario::LinkDown, FaultScenario::GpmThrottle];
/// Fault severity of every resilience cell.
const SEVERITIES: [f64; 1] = [0.5];

/// The four paper workloads of derived seed `d`, reseeded.
fn specs(seed: u64, d: usize, scale: f64) -> Vec<BenchmarkSpec> {
    bench::reseeded(
        [benchmarks::hl2_1280(), benchmarks::nfs(), benchmarks::ut3(), benchmarks::we()],
        seed,
        d,
        scale,
    )
}

struct Tables {
    fig15: FigureTable,
    fig16: FigureTable,
    resilience: FigureTable,
    memo: Counters,
}

struct PaperGrid {
    seed: u64,
    scale: f64,
    /// The renamed specs of the current round.
    specs: Vec<BenchmarkSpec>,
    fixed: Vec<Tables>,
}

/// Columns and exact values of a table; row labels carry the round's name
/// suffix and are left out.
fn table_text(t: &FigureTable) -> String {
    let mut s = format!("{} {:?}\n", t.id, t.columns);
    for (_, vals) in &t.rows {
        let bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        s.push_str(&format!("{bits:?}\n"));
    }
    s
}

fn avg(t: &FigureTable, column: &str) -> f64 {
    t.value("Avg.", column).unwrap_or(f64::NAN)
}

impl Workload for PaperGrid {
    const NAME: &'static str = "paper-grid";
    const CYCLE: usize = SEEDS;
    const SETUP_EVERY_ROUND: bool = true;

    fn setup(&mut self, r: usize, d: usize, spans: &mut Spans, checks: &mut Checks) {
        self.specs = specs(self.seed, d, self.scale);
        for s in &mut self.specs {
            s.name = format!("{}#{r}", s.name);
        }
        checks.attempt(self.specs.len() as u64);
        for s in &self.specs {
            spans.time("scene.build", |_| oovr::cache::scene_for(s));
        }
    }

    fn round(&mut self, d: usize, first: bool, spans: &mut Spans, checks: &mut Checks) -> Round {
        let specs = &self.specs;
        let before = Counters::now();
        let f15 = spans.time("core.fig15", |_| fig15(specs));
        let f16 = spans.time("core.fig16", |_| fig16(specs));
        let res =
            spans.time("core.resilience", |_| resilience_grid(specs, &SCENARIOS, &SEVERITIES));
        let memo = Counters::now().since(before);
        checks.attempt(3);
        checks.expect(memo.scene_builds == 0, || {
            format!("round {d} rebuilt {} scenes", memo.scene_builds)
        });
        checks.expect(memo.frame_misses > 0, || format!("round {d} found every render memoized"));
        let shape_ok = f15.rows.len() == specs.len() + 1
            && f16.rows.len() == specs.len() + 1
            && res.rows.len() == SCENARIOS.len() * SEVERITIES.len()
            && [&f15, &f16, &res]
                .iter()
                .all(|t| t.rows.iter().flat_map(|(_, v)| v).all(|v| v.is_finite()));
        checks.expect(shape_ok, || format!("round {d}: malformed or non-finite tables"));
        let text = format!("{}{}{}", table_text(&f15), table_text(&f16), table_text(&res));
        if first {
            self.fixed.push(Tables { fig15: f15, fig16: f16, resilience: res, memo });
        }
        Round { work: 1.0, fingerprint: hex_of(&text) }
    }
}

/// Runs the workload.
pub fn run(p: &Params, spans: &mut Spans, checks: &mut Checks) -> Outcome {
    let mut wl =
        PaperGrid { seed: p.seed, scale: SCALE * p.scale, specs: Vec::new(), fixed: Vec::new() };
    let timing = bench::run_rounds(&mut wl, p, spans, checks);

    let fixed = &wl.fixed;
    let speedup = geomean(fixed.iter().map(|t| avg(&t.fig15, "OOVR")));
    let traffic = geomean(fixed.iter().map(|t| avg(&t.fig16, "OOVR")));
    let col = |t: &FigureTable| t.columns.iter().position(|c| c == "OOVR+RES").expect("column");
    let retained = geomean(
        fixed
            .iter()
            .flat_map(|t| t.resilience.rows.iter().map(move |(_, v)| v[col(&t.resilience)])),
    );
    let hits: u64 = fixed.iter().map(|t| t.memo.frame_hits).sum();
    let misses: u64 = fixed.iter().map(|t| t.memo.frame_misses).sum();

    let mut digest = Digest::new(PaperGrid::NAME);
    for t in fixed {
        for table in [&t.fig15, &t.fig16, &t.resilience] {
            digest.line(&table_text(table));
        }
    }
    let throughput = timing.best_rate();
    Outcome {
        e2e: vec![
            ("setup_s", median(&timing.setup_s)),
            ("host_throughput", throughput),
            ("sim_oovr_speedup", speedup),
            ("sim_link_traffic_saved_pct", (1.0 - traffic) * 100.0),
        ],
        layer: vec![
            ("scene.build_ms", spans.median_self_ms("scene.build")),
            ("core.cache_hits", hits as f64),
            ("core.cache_misses", misses as f64),
            ("core.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64),
            ("core.fig15_s", spans.median_self_ms("core.fig15") / 1e3),
            ("core.fig16_s", spans.median_self_ms("core.fig16") / 1e3),
            ("core.resilience_s", spans.median_self_ms("core.resilience") / 1e3),
            ("bench.span_overhead_pct", timing.span_overhead_pct()),
        ],
        named: vec![
            ("grid_s", "s", 1.0 / throughput),
            ("grid_s_median", "s", 1.0 / timing.median_rate()),
            ("sim_res_retained_speedup", "x", retained),
        ],
        digest: digest.hex(),
    }
}
