//! Microbenchmarks of the temporal-reuse hot path: the per-frame reuse
//! decision (one batched motion pass over every object's probe, then the
//! per-GPM load fold), the capacity probe built from thousands of those
//! decisions, and the OU pose step that feeds them. The decision runs once
//! per session per frame in the serving layer, so its cost bounds how many
//! concurrent sessions the capacity probe can price.

mod common;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use oovr::schemes::OoVr;
use oovr::temporal::DEFAULT_REUSE_THRESHOLD;
use oovr_gpu::GpuConfig;
use oovr_scene::PoseTrajectory;
use oovr_serve::{capacity, ServeConfig, ServeScheme};

fn bench(c: &mut Criterion) {
    let scene = common::scene();
    let cfg = GpuConfig::default();
    let (_, profile) = OoVr::new().render_frames_profiled(&scene, &cfg, 2);
    let mut traj = PoseTrajectory::new(7);
    let from = traj.current();
    let to = traj.step();

    // The per-frame reuse decision at the default threshold: computes the
    // pose-pair delta once, measures every object's motion in one batched
    // loop, and rebuilds the per-GPM load vector.
    c.bench_function("temporal_reuse_decision", |b| {
        b.iter(|| black_box(profile.decide(&from, &to, DEFAULT_REUSE_THRESHOLD).saved))
    });

    // The exact path short-circuits before the probe walk; its cost is the
    // floor every non-temporal frame pays when a profile is attached.
    c.bench_function("temporal_reuse_decision_exact", |b| {
        b.iter(|| black_box(profile.decide(&from, &to, 0.0).rerendered))
    });

    // The OOVR+temporal capacity probe on the same workload: per-session
    // cost vectors from up to 256 seeded trajectories, one decision per
    // session frame. The cost stream is memoized process-wide, so after
    // the first call this times the decisions and the EDF search.
    let spec = common::spec();
    let serve = ServeConfig::default();
    c.bench_function("temporal_capacity_probe", |b| {
        b.iter(|| black_box(capacity(ServeScheme::OoVrTemporal, &spec, &cfg, &serve)))
    });

    // One OU pose step: the head-motion model advanced once per 90 Hz frame
    // for every live session.
    c.bench_function("pose_step", |b| {
        let mut walk = PoseTrajectory::new(42);
        b.iter(|| black_box(walk.step().yaw))
    });
}

criterion_group! {
    name = benches;
    config = common::criterion();
    targets = bench
}
criterion_main!(benches);
