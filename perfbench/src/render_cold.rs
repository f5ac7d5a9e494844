//! `render-cold`: one cold frame per (scene, scheme), one thread, memo
//! bypassed. The raster, texture-memory and distribution substrate does
//! nearly all the work.

use std::hint::black_box;

use oovr::mem::Placement;
use oovr::{build_batches, run_distribution, DistributionConfig, MiddlewareConfig, OoApp, OoVr};
use oovr_frameworks::{Baseline, ObjectSfr, RenderScheme};
use oovr_gpu::{
    ColorMode, Composition, Executor, FaultPlan, FaultScenario, FbOrg, FrameReport, GpuConfig,
};
use oovr_scene::{benchmarks, BenchmarkSpec, Scene};
use oovr_trace::TraceConfig;

use crate::bench::{self, derive, Outcome, Params, Round, Workload};
use crate::check::{hex_of, Checks, Digest};
use crate::counters::Counters;
use crate::metrics::MIB;
use crate::spans::Spans;
use crate::stats::{geomean, median};

/// Scene scale at `--scale 1`: half the paper's linear resolution, so a
/// round (two scenes × four schemes) takes about a second and a run holds
/// several.
const SCALE: f64 = 0.5;
/// Derived seeds the rounds cycle through.
const SEEDS: usize = 6;

/// The four schemes, as (span name, scheme).
fn schemes() -> [(&'static str, Box<dyn RenderScheme>); 4] {
    [
        ("frameworks.baseline", Box::new(Baseline::new())),
        ("frameworks.object", Box::new(ObjectSfr::new())),
        ("core.ooapp", Box::new(OoApp::new())),
        ("core.oovr", Box::new(OoVr::new())),
    ]
}

/// The HL2-640-class and NFS-class specs of derived seed `d`.
fn specs(seed: u64, d: usize, scale: f64) -> Vec<BenchmarkSpec> {
    bench::reseeded([benchmarks::hl2_640(), benchmarks::nfs()], seed, d, scale)
}

struct RenderCold {
    seed: u64,
    scale: f64,
    cfg: GpuConfig,
    scenes: Vec<Vec<Scene>>,
    /// Reports of the first pass over each derived seed: `[d][scene][scheme]`.
    reports: Vec<Vec<Vec<FrameReport>>>,
    tiles_at_start: Option<Counters>,
    tiles_fixed: Option<Counters>,
}

impl Workload for RenderCold {
    const NAME: &'static str = "render-cold";
    const CYCLE: usize = SEEDS;
    const SETUP_REPEATS: usize = 5;

    fn setup(&mut self, _r: usize, d: usize, spans: &mut Spans, checks: &mut Checks) {
        let specs = specs(self.seed, d, self.scale);
        checks.attempt(specs.len() as u64);
        let scenes = specs.iter().map(|s| spans.time("scene.build", |_| s.build())).collect();
        if self.scenes.len() <= d {
            self.scenes.push(scenes);
        } else {
            self.scenes[d] = scenes;
        }
    }

    fn round(&mut self, d: usize, first: bool, spans: &mut Spans, checks: &mut Checks) -> Round {
        if self.tiles_at_start.is_none() {
            self.tiles_at_start = Some(Counters::now());
        }
        let mut per_scene = Vec::new();
        let mut frags = 0u64;
        for scene in &self.scenes[d] {
            let reports: Vec<FrameReport> = schemes()
                .iter()
                .map(|(name, s)| {
                    spans.time(name, |_| black_box(s.render_frame(black_box(scene), &self.cfg)))
                })
                .collect();
            checks.attempt(reports.len() as u64);
            frags += reports.iter().map(|r| r.counts.fragments).sum::<u64>();
            per_scene.push(reports);
        }
        let text: String = per_scene.iter().flatten().map(|r| format!("{r:?}\n")).collect();
        if first {
            for (scene, reports) in self.scenes[d].iter().zip(&per_scene) {
                let c0 = reports[0].counts;
                for r in &reports[1..] {
                    checks.expect(
                        (r.counts.fragments, r.counts.quads, r.counts.triangles)
                            == (c0.fragments, c0.quads, c0.triangles),
                        || {
                            format!(
                                "{} on {}: work counts differ from Baseline",
                                r.scheme,
                                scene.name()
                            )
                        },
                    );
                }
            }
            self.reports.push(per_scene);
            if self.reports.len() == SEEDS {
                self.tiles_fixed = Some(Counters::now());
            }
        }
        Round { work: frags as f64 / 1e6, fingerprint: hex_of(&text) }
    }
}

/// Runs the workload.
pub fn run(p: &Params, spans: &mut Spans, checks: &mut Checks) -> Outcome {
    let mut wl = RenderCold {
        seed: p.seed,
        scale: SCALE * p.scale,
        cfg: GpuConfig::default(),
        scenes: Vec::new(),
        reports: Vec::new(),
        tiles_at_start: None,
        tiles_fixed: None,
    };
    let memo_before = Counters::now();
    let timing = bench::run_rounds(&mut wl, p, spans, checks);
    let memo = Counters::now().since(memo_before);
    checks
        .expect(!memo.memo_touched(), || format!("render-cold touched the render memo: {memo:?}"));
    let tiles = wl.tiles_fixed.expect("fixed rounds ran").since(wl.tiles_at_start.expect("ran"));

    // Fixed-round statistics: every distinct scene once.
    let all: Vec<&Vec<FrameReport>> = wl.reports.iter().flatten().collect();
    let speedup = geomean(all.iter().map(|r| r[3].speedup_over(&r[0])));
    let traffic = geomean(all.iter().map(|r| {
        r[3].steady_inter_gpm_bytes().max(1) as f64 / r[0].steady_inter_gpm_bytes().max(1) as f64
    }));
    let n = all.len() as f64;
    let oovr = || all.iter().map(|r| &r[3]);
    let counts = |f: fn(&FrameReport) -> u64| all.iter().map(|r| f(&r[0])).sum::<u64>() as f64;

    let mut digest = Digest::new(RenderCold::NAME);
    for r in all.iter().flat_map(|r| r.iter()) {
        digest.line(&format!("{r:?}"));
    }
    let layer_pass = layer_pass(&wl, p, spans, checks, &mut digest);

    let throughput = timing.best_rate();
    let e2e = vec![
        ("setup_s", median(&timing.setup_s)),
        ("host_throughput", throughput),
        ("sim_oovr_speedup", speedup),
        ("sim_link_traffic_saved_pct", (1.0 - traffic) * 100.0),
    ];
    let mut layer = vec![
        ("scene.build_ms", spans.median_self_ms("scene.build")),
        ("frameworks.baseline_ms", spans.median_self_ms("frameworks.baseline")),
        ("frameworks.object_ms", spans.median_self_ms("frameworks.object")),
        ("core.ooapp_ms", spans.median_self_ms("core.ooapp")),
        ("core.oovr_ms", spans.median_self_ms("core.oovr")),
        ("gpu.fragments", counts(|r| r.counts.fragments)),
        ("gpu.quads", counts(|r| r.counts.quads)),
        ("gpu.triangles", counts(|r| r.counts.triangles)),
        ("gpu.tiles_rejected_ratio", tiles.tiles_rejected as f64 / tiles.tiles_total.max(1) as f64),
        ("mem.l1_hit_rate", oovr().map(|r| r.l1_hit_rate).sum::<f64>() / n),
        ("mem.l2_hit_rate", oovr().map(|r| r.l2_hit_rate).sum::<f64>() / n),
        ("mem.inter_gpm_mb", oovr().map(|r| r.inter_gpm_bytes() as f64).sum::<f64>() / n / MIB),
        ("bench.span_overhead_pct", timing.span_overhead_pct()),
    ];
    layer.extend(layer_pass);
    Outcome {
        e2e,
        layer,
        named: vec![
            ("render_mfrag_per_s", "Mfrag/s", throughput),
            ("render_mfrag_per_s_median", "Mfrag/s", timing.median_rate()),
        ],
        digest: digest.hex(),
    }
}

/// After the timed rounds: on derived seed 0's scenes, a decomposed OO-VR
/// pass (middleware, executor, distribution, composition timed apart) that
/// must equal `OoVr::render_frame`, a traced render that must equal the
/// untraced one, and a resilient render under a seeded link fault.
fn layer_pass(
    wl: &RenderCold,
    p: &Params,
    spans: &mut Spans,
    checks: &mut Checks,
    digest: &mut Digest,
) -> Vec<(&'static str, f64)> {
    let cfg = &wl.cfg;
    let mut dist_ns_per_frag = Vec::new();
    let mut trace_overhead = Vec::new();
    let (mut batches, mut steals, mut prealloc, mut migrations, mut sheds) = (0, 0, 0, 0, 0);
    for (i, scene) in wl.scenes[0].iter().enumerate() {
        let reference = &wl.reports[0][i];
        let t = std::time::Instant::now();
        let (report, stats, n_batches, dist_ns) = spans.time("core.oovr_decomposed", |sp| {
            let b =
                sp.time("core.middleware", |_| build_batches(scene, MiddlewareConfig::default()));
            let mut ex = sp.time("gpu.executor_new", |_| {
                Executor::new(
                    cfg.clone(),
                    scene,
                    Placement::FirstTouch,
                    FbOrg::Columns,
                    ColorMode::Deferred,
                )
            });
            let mark = ex.begin_frame();
            let t = std::time::Instant::now();
            let stats = sp.time("core.distribution", |_| {
                run_distribution(&mut ex, &b, &DistributionConfig::default())
            });
            let dist_ns = t.elapsed().as_nanos() as f64;
            let r = sp.time("gpu.composition", |_| {
                ex.finish_frame(&mark, "OOVR", Composition::Distributed)
            });
            (r, stats, b.len(), dist_ns)
        });
        let plain_s = t.elapsed().as_secs_f64();
        checks.attempt(4);
        checks.expect(format!("{report:?}") == format!("{:?}", reference[3]), || {
            format!("decomposed OO-VR pass differs from OoVr::render_frame on {}", scene.name())
        });
        dist_ns_per_frag.push(dist_ns / report.counts.fragments.max(1) as f64);
        batches += n_batches;
        steals += stats.steals;
        prealloc += stats.prealloc_bytes;

        let t = std::time::Instant::now();
        let (traced, rec) = OoVr::new().render_frame_traced(scene, cfg, TraceConfig::default());
        trace_overhead.push((t.elapsed().as_secs_f64() / plain_s - 1.0) * 100.0);
        checks.attempt(1);
        checks.expect(
            rec.is_some() && format!("{traced:?}") == format!("{:?}", reference[3]),
            || format!("traced OO-VR render differs from the untraced one on {}", scene.name()),
        );

        // Resilient OO-VR under a seeded link outage, with the resilience
        // grid's deadline rule (1.25x the fault-free OO-VR frame).
        let plan = FaultPlan::new(FaultScenario::LinkDown, 0.5, derive(p.seed, 0, 100 + i as u64))
            .with_horizon(reference[0].frame_cycles.max(1));
        let deadline = (reference[3].frame_cycles as f64 * 1.25) as u64;
        let faulted = cfg.clone().with_fault(plan);
        let (res, rs) = spans.time("core.oovr_res", |_| {
            OoVr::resilient_with_deadline(deadline).render_frame_with_stats(scene, &faulted)
        });
        checks.attempt(1);
        migrations += rs.migrations;
        sheds += rs.shed_events;
        digest.line(&format!("decomposed {stats:?}"));
        digest.line(&format!("resilient {res:?} {rs:?}"));
    }
    let frames = wl.scenes[0].len() as f64;
    vec![
        ("core.oovr_res_ms", spans.median_self_ms("core.oovr_res")),
        ("core.middleware_ms", spans.median_self_ms("core.middleware")),
        ("core.distribution_ms", spans.median_self_ms("core.distribution")),
        ("core.distribution_ns_per_frag", median(&dist_ns_per_frag)),
        ("core.batches", batches as f64),
        ("core.steals", steals as f64),
        ("core.prealloc_mb", prealloc as f64 / MIB / frames),
        ("core.migrations", migrations as f64),
        ("core.shed_events", sheds as f64),
        ("gpu.executor_new_ms", spans.median_self_ms("gpu.executor_new")),
        ("gpu.composition_ms", spans.median_self_ms("gpu.composition")),
        ("trace.render_overhead_pct", median(&trace_overhead)),
    ]
}
