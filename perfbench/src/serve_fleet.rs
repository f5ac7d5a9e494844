//! `serve-fleet`: the scheduler, admission, cluster router and edge link
//! over cost streams warmed in set-up. One thread; once set-up ends the
//! render substrate does no work.

use std::sync::Arc;
use std::time::Instant;

use oovr_edge::{simulate_edge, Display, EdgeConfig};
use oovr_gpu::{FaultPlan, FaultScenario, GpuConfig, VSYNC_90HZ_CYCLES};
use oovr_metrics::Registry;
use oovr_scene::{benchmarks, BenchmarkSpec};
use oovr_serve::{
    capacity, percentile, simulate, simulate_cluster, simulate_metered, ClusterConfig, ServeConfig,
    ServeScheme, SessionCostStream,
};

use crate::bench::{self, derive, Outcome, Params, Round, Workload};
use crate::check::{hex_of, Checks, Digest};
use crate::counters::Counters;
use crate::spans::Spans;
use crate::stats::{geomean, median};

/// Scene scale at `--scale 1`: the paper's 640×480 workloads, where OO-VR
/// holds about 250 sessions per server.
const SCALE: f64 = 1.0;
/// Derived seeds the rounds cycle through (each warms its own streams).
const SEEDS: usize = 2;
/// The schemes whose streams set-up warms.
const SCHEMES: [ServeScheme; 4] =
    [ServeScheme::OoVr, ServeScheme::OoVrShed, ServeScheme::OoVrTemporal, ServeScheme::Baseline];
/// Offered load as a multiple of the scheme's measured capacity.
const LOADS: [f64; 3] = [0.8, 1.0, 1.25];
/// Paced frames per session.
const FRAMES: u32 = 8;
/// Servers in the cluster runs.
const SERVERS: u32 = 4;

/// The HL2-640 and DM3-640 specs of derived seed `d`.
fn specs(seed: u64, d: usize, scale: f64) -> Vec<BenchmarkSpec> {
    bench::reseeded([benchmarks::hl2_640(), benchmarks::dm3_640()], seed, d, scale)
}

/// Open-loop arrivals at `load` × `cap` concurrent sessions: each session
/// lives `FRAMES + 2` intervals, and arrivals span about three lifetimes.
fn serve_cfg(cap: u32, load: f64, seed: u64) -> ServeConfig {
    let concurrent = (load * f64::from(cap)).max(1.0);
    let lifetime = f64::from(FRAMES + 2) * VSYNC_90HZ_CYCLES as f64;
    ServeConfig {
        sessions: (3.0 * concurrent).ceil() as u32,
        frames_per_session: FRAMES,
        mean_interarrival: ((lifetime / concurrent) as u64).max(2),
        seed,
        ..ServeConfig::default()
    }
}

/// A server-level link outage that bites within `horizon` (seed scan, as
/// the chaos sweeps do).
fn link_down(seed: u64, horizon: u64) -> FaultPlan {
    (0..64)
        .map(|k| {
            FaultPlan::new(FaultScenario::LinkDown, 0.5, seed.wrapping_add(k)).with_horizon(horizon)
        })
        .find(|p| p.disturbs_servers(SERVERS as usize, VSYNC_90HZ_CYCLES))
        .unwrap_or_else(|| FaultPlan::new(FaultScenario::LinkDown, 0.5, seed).with_horizon(horizon))
}

/// Simulated statistics of the fixed rounds.
#[derive(Default)]
struct Sim {
    offered: u64,
    missed: u64,
    admitted: u64,
    rejected: u64,
    late: u64,
    shed: u64,
    failovers: u64,
    evicted: u64,
    lost: u64,
    reprojected: u64,
    link_rejected: u64,
    mtp: Vec<u64>,
    oovr_capacity: Vec<f64>,
    digest: Vec<String>,
}

struct ServeFleet {
    seed: u64,
    scale: f64,
    gpu: GpuConfig,
    specs: Vec<Vec<BenchmarkSpec>>,
    /// `[d][spec]` → (Baseline stream, OO-VR stream).
    streams: Vec<Vec<(Arc<SessionCostStream>, Arc<SessionCostStream>)>>,
    us_per_frame: Vec<f64>,
    sim: Sim,
}

impl Workload for ServeFleet {
    const NAME: &'static str = "serve-fleet";
    const CYCLE: usize = SEEDS;

    fn setup(&mut self, _r: usize, d: usize, spans: &mut Spans, checks: &mut Checks) {
        let specs = specs(self.seed, d, self.scale);
        let before = Counters::now();
        let mut streams = Vec::new();
        for spec in &specs {
            spans.time("scene.build", |_| oovr::cache::scene_for(spec));
            let mut base = None;
            let mut oovr = None;
            for scheme in SCHEMES {
                let s = spans.time("serve.stream_measure", |_| {
                    oovr_serve::cost_stream(scheme, spec, &self.gpu)
                });
                match scheme {
                    ServeScheme::Baseline => base = Some(s),
                    ServeScheme::OoVr => oovr = Some(s),
                    _ => {}
                }
            }
            streams.push((base.expect("baseline warmed"), oovr.expect("oovr warmed")));
        }
        let memo = Counters::now().since(before);
        let expected = (specs.len() * SCHEMES.len()) as u64;
        checks.attempt(expected + specs.len() as u64);
        checks.expect(memo.stream_misses == expected, || {
            format!("set-up measured {} streams, expected {expected}", memo.stream_misses)
        });
        self.specs.push(specs);
        self.streams.push(streams);
    }

    fn round(&mut self, d: usize, first: bool, spans: &mut Spans, checks: &mut Checks) -> Round {
        let before = Counters::now();
        let gpu = &self.gpu;
        let mut text = String::new();
        let mut frames = 0u64;
        // Statistics accumulate over the first pass only.
        let mut repeat = Sim::default();
        let sim = if first { &mut self.sim } else { &mut repeat };
        let mut oovr_caps = Vec::new();
        for (i, spec) in self.specs[d].iter().enumerate() {
            for (si, scheme) in SCHEMES.into_iter().enumerate() {
                let probe = ServeConfig {
                    seed: derive(self.seed, d as u64, 10 + i as u64),
                    ..ServeConfig::default()
                };
                let cap = spans.time("serve.capacity", |_| capacity(scheme, spec, gpu, &probe));
                checks.attempt(1);
                checks.expect(cap > 0, || {
                    format!("{} on {}: zero capacity", scheme.label(), spec.name)
                });
                if scheme == ServeScheme::OoVr {
                    oovr_caps.push(cap);
                    sim.oovr_capacity.push(f64::from(cap));
                }
                for (k, &load) in LOADS.iter().enumerate() {
                    let seed = derive(self.seed, d as u64, 100 + (i * 16 + si * 4 + k) as u64);
                    let cfg = serve_cfg(cap, load, seed);
                    let t = Instant::now();
                    let out =
                        spans.time("serve.simulate", |_| simulate(scheme, spec, gpu, &cfg, None));
                    let offered = u64::from(cfg.sessions) * u64::from(FRAMES);
                    self.us_per_frame.push(t.elapsed().as_secs_f64() * 1e6 / offered as f64);
                    let q = out.qos();
                    checks.attempt(1);
                    checks.expect(q.admitted + q.rejected == cfg.sessions, || {
                        format!("{} on {}: sessions not conserved", scheme.label(), spec.name)
                    });
                    frames += offered;
                    sim.offered += offered;
                    sim.missed +=
                        u64::from(q.missed + q.dropped) + u64::from(q.rejected) * u64::from(FRAMES);
                    sim.admitted += u64::from(q.admitted);
                    sim.rejected += u64::from(q.rejected);
                    sim.late += u64::from(q.missed + q.dropped);
                    sim.shed += u64::from(q.shed_frames);
                    text.push_str(&format!(
                        "serve {} {} {load} {cap} {q:?}\n",
                        scheme.label(),
                        spec.name
                    ));
                }
            }
            // Edge tier over the default lossy link, OO-VR at each load.
            for (k, &load) in LOADS.iter().enumerate() {
                let seed = derive(self.seed, d as u64, 200 + (i * 4 + k) as u64);
                let cfg = EdgeConfig {
                    serve: serve_cfg(oovr_caps[i], load, seed),
                    ..EdgeConfig::default()
                };
                let out = spans.time("edge.simulate", |_| {
                    simulate_edge(ServeScheme::OoVr, spec, gpu, &cfg, None)
                });
                let sessions = cfg.serve.sessions;
                checks.attempt(1);
                checks.expect(out.sessions.len() + out.rejects.len() == sessions as usize, || {
                    format!("edge on {}: sessions not conserved", spec.name)
                });
                frames += u64::from(sessions) * u64::from(FRAMES);
                let all = || out.sessions.iter().flat_map(|s| s.frames.iter());
                sim.lost += all().filter(|f| f.lost).count() as u64;
                sim.reprojected += all()
                    .filter(|f| matches!(f.display, Display::Reprojected { .. }))
                    .count() as u64;
                sim.link_rejected += u64::from(out.link_rejected);
                sim.mtp.extend(
                    all().filter(|f| f.record.frame > 0).map(|f| f.photon - f.record.release),
                );
                text.push_str(&format!(
                    "edge {} {load} {:?} {:?}\n",
                    spec.name,
                    out.qos(),
                    out.motion_to_photon()
                ));
            }
        }
        // Cluster: N servers, OO-VR sessions of both workloads, nominal and
        // under a server link outage, at and above the summed capacity.
        let mix: Vec<_> = self.specs[d].iter().map(|s| (ServeScheme::OoVr, s.clone())).collect();
        let fleet_cap = f64::from(SERVERS) * oovr_caps.iter().map(|&c| f64::from(c)).sum::<f64>()
            / oovr_caps.len() as f64;
        for (k, load) in [1.0f64, 1.25].into_iter().enumerate() {
            for faulted in [false, true] {
                let seed = derive(self.seed, d as u64, 300 + (k * 2 + usize::from(faulted)) as u64);
                let mut cfg = ClusterConfig {
                    servers: SERVERS,
                    sessions: (load * fleet_cap) as u32,
                    seed,
                    ..ClusterConfig::default()
                };
                let horizon =
                    u64::from(cfg.frames_per_session + cfg.arrival_intervals) * cfg.vsync_cycles;
                cfg.fault = faulted.then(|| link_down(seed, horizon));
                let out = spans.time("serve.cluster", |_| simulate_cluster(&mix, gpu, &cfg, None));
                checks.attempt(1);
                checks.expect(out.admitted + out.rejected <= out.offered, || {
                    "cluster admitted more than offered".into()
                });
                frames += out.frames_offered;
                sim.failovers += out.failovers;
                sim.evicted += u64::from(out.evicted);
                text.push_str(&format!(
                    "cluster {load} {faulted} {} {} {} {} {} {} {}\n",
                    out.admitted,
                    out.rejected,
                    out.evicted,
                    out.failovers,
                    out.migrations,
                    out.on_time,
                    out.degraded
                ));
            }
        }
        let memo = Counters::now().since(before);
        checks.expect(memo.frame_misses + memo.stream_misses + memo.scene_builds == 0, || {
            format!("serve-fleet rendered in its timed phase: {memo:?}")
        });
        sim.digest.push(text.clone());
        Round { work: frames as f64 / 1e3, fingerprint: hex_of(&text) }
    }
}

/// Runs the workload.
pub fn run(p: &Params, spans: &mut Spans, checks: &mut Checks) -> Outcome {
    let mut wl = ServeFleet {
        seed: p.seed,
        scale: SCALE * p.scale,
        gpu: GpuConfig::default(),
        specs: Vec::new(),
        streams: Vec::new(),
        us_per_frame: Vec::new(),
        sim: Sim::default(),
    };
    let timing = bench::run_rounds(&mut wl, p, spans, checks);
    let metered = metered_overhead(&wl, checks);

    let pairs: Vec<_> = wl.streams.iter().flatten().collect();
    let speedup = geomean(pairs.iter().map(|(b, o)| o.cold().speedup_over(b.cold())));
    let traffic = geomean(pairs.iter().map(|(b, o)| {
        o.cold().steady_inter_gpm_bytes().max(1) as f64
            / b.cold().steady_inter_gpm_bytes().max(1) as f64
    }));
    let s = &wl.sim;
    let mut digest = Digest::new(ServeFleet::NAME);
    for (b, o) in &pairs {
        digest.line(&format!("{:?}\n{:?}", b.reports, o.reports));
    }
    for t in &s.digest {
        digest.line(t);
    }
    let ms = |c: u64| c as f64 / 1e6;
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
            ("serve.stream_measure_ms", spans.median_self_ms("serve.stream_measure")),
            ("serve.simulate_ms", spans.median_self_ms("serve.simulate")),
            ("serve.us_per_frame", median(&wl.us_per_frame)),
            ("serve.capacity_ms", spans.median_self_ms("serve.capacity")),
            ("serve.cluster_ms", spans.median_self_ms("serve.cluster")),
            ("serve.admitted", s.admitted as f64),
            ("serve.rejected", s.rejected as f64),
            ("serve.missed", s.late as f64),
            ("serve.shed_frames", s.shed as f64),
            ("serve.cluster_failovers", s.failovers as f64),
            ("serve.cluster_evicted", s.evicted as f64),
            ("edge.simulate_ms", spans.median_self_ms("edge.simulate")),
            ("edge.frames_lost", s.lost as f64),
            ("edge.frames_reprojected", s.reprojected as f64),
            ("edge.link_rejected", s.link_rejected as f64),
            ("metrics.serve_overhead_pct", metered),
            ("bench.span_overhead_pct", timing.span_overhead_pct()),
        ],
        named: vec![
            ("sched_kframes_per_s", "kframe/s", throughput),
            ("sched_kframes_per_s_median", "kframe/s", timing.median_rate()),
            ("sim_miss_rate", "ratio", s.missed as f64 / s.offered.max(1) as f64),
            ("sim_mtp_p50_ms", "ms", ms(percentile(&s.mtp, 50.0))),
            ("sim_mtp_p99_ms", "ms", ms(percentile(&s.mtp, 99.0))),
            (
                "sim_capacity_sessions",
                "sessions",
                s.oovr_capacity.iter().sum::<f64>() / s.oovr_capacity.len().max(1) as f64,
            ),
        ],
        digest: digest.hex(),
    }
}

/// `simulate_metered` against `simulate` on one OO-VR run at capacity
/// (median of alternating pairs); the metered outcome must be identical.
fn metered_overhead(wl: &ServeFleet, checks: &mut Checks) -> f64 {
    let spec = &wl.specs[0][0];
    let cap = capacity(ServeScheme::OoVr, spec, &wl.gpu, &ServeConfig::default());
    let cfg = serve_cfg(cap, 1.0, derive(wl.seed, 0, 400));
    let mut ratios = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let plain = simulate(ServeScheme::OoVr, spec, &wl.gpu, &cfg, None);
        let plain_s = t.elapsed().as_secs_f64();
        let mut registry = Registry::new(cfg.vsync_cycles);
        let t = Instant::now();
        let metered =
            simulate_metered(ServeScheme::OoVr, spec, &wl.gpu, &cfg, None, Some(&mut registry));
        ratios.push(t.elapsed().as_secs_f64() / plain_s.max(1e-9));
        checks.attempt(2);
        checks
            .expect(plain.sessions == metered.sessions && plain.rejects == metered.rejects, || {
                "metered serve run differs from the plain one".into()
            });
    }
    (median(&ratios) - 1.0) * 100.0
}
