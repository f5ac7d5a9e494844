//! Property tests for pose-correlated temporal reuse.
//!
//! Two guarantees make `OOVR+temporal` safe to ship as a first-class
//! scheme, and both are pinned here over random workloads, pose seeds,
//! and serving configurations:
//!
//! * **Exactness at threshold 0.** With `TemporalConfig::exact()` the
//!   temporal scheme is *bit-identical* to plain OO-VR serving: same
//!   admitted sessions, same per-frame schedule, same rejects, same QoS.
//!   Reuse is a strict `motion < threshold` comparison against a
//!   non-negative motion, so a zero threshold reuses nothing and saves
//!   nothing, and the admission discount passes through exactly at 0.
//! * **Monotonicity in the threshold.** Raising `reuse_threshold` never
//!   decreases the reuse ratio and never increases any frame's cost (or
//!   their total): a larger bound only grows the reuse set, and each
//!   reused object's warp is clamped to the busy it replaces.
//!
//! A third, differential guarantee pins the batched reuse kernel: for any
//! pose pair, every object's batched motion equals the scalar
//! `RenderObject::projected_motion` bit for bit, and `decide` equals the
//! decision folded from those scalar motions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use oovr::temporal::{TemporalConfig, TemporalProfile};
use oovr_gpu::GpuConfig;
use oovr_scene::benchmarks;
use oovr_scene::pose::{Pose, PoseTrajectory};
use oovr_serve::{cost_stream, simulate, ServeConfig, ServeScheme};
use oovr_trace::Cycle;

/// The sweep's workload pool, small enough to stay cheap in debug builds.
fn specs() -> Vec<oovr_scene::BenchmarkSpec> {
    vec![
        benchmarks::hl2_640().scaled(0.05),
        benchmarks::dm3_640().scaled(0.05),
        benchmarks::we().scaled(0.05),
    ]
}

/// Reuse thresholds the differential property decides at: off, the
/// smallest positive, everyday values, and reuse-everything.
const THRESHOLDS: [f64; 6] = [0.0, 1e-9, 2.0, 16.0, 64.0, f64::INFINITY];

/// GPM counts the differential property attributes busy over.
const GPMS: [usize; 4] = [1, 2, 4, 16];

/// A pose pair of one of three kinds: `0` identical poses, `1` one step of
/// the seeded OU walk, `2` a yaw turn of `90° + turn · 90°` either way
/// with a small head move, which carries bound corners behind the viewer.
fn pose_pair(kind: u32, seed: u64, turn: f64) -> (Pose, Pose) {
    let mut traj = PoseTrajectory::new(seed);
    for _ in 0..seed % 5 {
        traj.step();
    }
    let from = traj.current();
    let to = match kind {
        0 => from,
        1 => traj.step(),
        _ => {
            let yaw = std::f64::consts::FRAC_PI_2 * (1.0 + turn);
            let mut to = traj.step();
            to.yaw = from.yaw + if seed.is_multiple_of(2) { yaw } else { -yaw };
            to
        }
    };
    (from, to)
}

/// A profile of `scene` over `n_gpms` GPMs with seeded synthetic busy and
/// pixel attribution, so every GPM count is cheap to cover.
fn synthetic_profile(scene: &oovr_scene::Scene, n_gpms: usize, seed: u64) -> TemporalProfile {
    let n = scene.objects().len();
    let mut rng = StdRng::seed_from_u64(seed);
    let busy: Vec<Cycle> = (0..n * n_gpms).map(|_| rng.gen_range(0..50_000u64)).collect();
    let pixels: Vec<u64> = (0..n).map(|_| rng.gen_range(0..200_000u64)).collect();
    let steady = busy.iter().sum::<Cycle>() + 1;
    TemporalProfile::new(scene, &GpuConfig::default(), n_gpms, busy, &pixels, steady)
}

/// Total cycles the renderer spent on executed frames.
fn busy_cycles(out: &oovr_serve::ServeOutcome) -> Cycle {
    out.sessions
        .iter()
        .flat_map(|s| &s.frames)
        .filter(|f| !f.dropped)
        .map(|f| f.end - f.start)
        .sum()
}

proptest! {
    // Streams are memoized process-wide, so each case only pays the
    // scheduling and decide() walks.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The differential guard: at `reuse_threshold == 0.0` the temporal
    /// scheme serves bit-identically to plain OO-VR — sessions, frame
    /// schedules, rejects, and QoS all agree exactly.
    #[test]
    fn zero_threshold_temporal_serving_is_bit_identical_to_oovr(
        spec_ix in 0usize..3,
        sessions in 1u32..6,
        paced in 1u32..8,
        seed in 0u64..10_000,
    ) {
        let spec = &specs()[spec_ix];
        let gpu = GpuConfig::default();
        let cfg = ServeConfig {
            sessions,
            frames_per_session: paced,
            seed,
            temporal: TemporalConfig::exact(),
            ..ServeConfig::default()
        };
        let plain = simulate(ServeScheme::OoVr, spec, &gpu, &cfg, None);
        let exact = simulate(ServeScheme::OoVrTemporal, spec, &gpu, &cfg, None);
        prop_assert_eq!(&plain.sessions, &exact.sessions);
        prop_assert_eq!(&plain.rejects, &exact.rejects);
        prop_assert_eq!(plain.qos(), exact.qos());
    }

    /// Raising the threshold never decreases the per-frame reuse ratio and
    /// never increases the per-frame saving, for any pose delta on any
    /// workload's profile.
    #[test]
    fn decide_is_monotone_in_the_threshold(
        spec_ix in 0usize..3,
        pose_seed in 0u64..100_000,
        steps in 1u32..8,
        t1 in 0.0f64..64.0,
        t2 in 0.0f64..64.0,
    ) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let spec = &specs()[spec_ix];
        let gpu = GpuConfig::default();
        let stream = cost_stream(ServeScheme::OoVrTemporal, spec, &gpu);
        let profile = stream.temporal.as_ref().expect("temporal stream carries a profile");
        let mut traj = PoseTrajectory::new(pose_seed);
        let mut prev = traj.current();
        for _ in 0..steps {
            let cur = traj.step();
            let a = profile.decide(&prev, &cur, lo);
            let b = profile.decide(&prev, &cur, hi);
            prop_assert!(b.reuse_ratio() >= a.reuse_ratio(), "reuse ratio must not drop: {} -> {}", a.reuse_ratio(), b.reuse_ratio());
            prop_assert!(b.saved >= a.saved, "saving must not drop: {} -> {}", a.saved, b.saved);
            let steady = profile.steady_cycles();
            prop_assert!(b.apply(steady) <= a.apply(steady), "frame cost must not rise");
            prev = cur;
        }
    }

    /// The batched kernel is exact: each object's batched motion equals
    /// the scalar metric bit for bit, and `decide` equals the decision
    /// folded from the scalar motions — on the real profile and on
    /// synthetic ones over every GPM count, for still, walked and
    /// behind-the-viewer pose pairs, at every threshold of the grid.
    #[test]
    fn batched_reuse_decision_equals_the_scalar_metric(
        spec_ix in 0usize..3,
        pose_seed in 0u64..100_000,
        turn in 0.0f64..1.0,
        busy_seed in 0u64..1_000_000,
    ) {
        let spec = &specs()[spec_ix];
        let scene = spec.build();
        let res = scene.resolution();
        let stream = cost_stream(ServeScheme::OoVrTemporal, spec, &GpuConfig::default());
        let real: &TemporalProfile =
            stream.temporal.as_ref().expect("temporal stream carries a profile");
        let synthetic: Vec<TemporalProfile> =
            GPMS.iter().map(|&g| synthetic_profile(&scene, g, busy_seed)).collect();
        let diag = f64::from(res.width).hypot(f64::from(res.height));
        for kind in 0..3 {
            let (from, to) = pose_pair(kind, pose_seed, turn);
            let scalar: Vec<f64> =
                scene.objects().iter().map(|o| o.projected_motion(res, &from, &to)).collect();
            for profile in std::iter::once(real).chain(&synthetic) {
                let batched = profile.motions(&from, &to);
                prop_assert_eq!(batched.len(), scalar.len());
                for (o, (b, s)) in batched.iter().zip(&scalar).enumerate() {
                    prop_assert_eq!(b.to_bits(), s.to_bits(), "object {} moved {} batched, {} scalar", o, b, s);
                }
                for t in THRESHOLDS {
                    prop_assert_eq!(profile.decide(&from, &to, t), profile.decide_motions(&scalar, t), "threshold {}", t);
                }
            }
            match kind {
                0 => prop_assert!(scalar.iter().all(|&m| m == 0.0), "identical poses measure zero"),
                2 => prop_assert!(
                    scalar.iter().any(|&m| (m - diag).abs() < 1e-9),
                    "a turn past 90° must carry some bound behind the viewer"
                ),
                _ => {}
            }
        }
    }

    /// End to end on a single always-admitted session: a higher threshold
    /// never increases the total cycles the renderer spends, and the
    /// temporal run never exceeds the plain OO-VR run it discounts.
    #[test]
    fn higher_thresholds_never_cost_more_cycles(
        spec_ix in 0usize..3,
        paced in 1u32..8,
        seed in 0u64..10_000,
        t1 in 0.0f64..64.0,
        t2 in 0.0f64..64.0,
    ) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let spec = &specs()[spec_ix];
        let gpu = GpuConfig::default();
        let run = |threshold: f64| {
            let cfg = ServeConfig {
                sessions: 1,
                frames_per_session: paced,
                seed,
                temporal: TemporalConfig { reuse_threshold: threshold },
                ..ServeConfig::default()
            };
            busy_cycles(&simulate(ServeScheme::OoVrTemporal, spec, &gpu, &cfg, None))
        };
        let at_lo = run(lo);
        let at_hi = run(hi);
        prop_assert!(at_hi <= at_lo, "busy cycles rose with the threshold: {at_lo} -> {at_hi}");
        let plain = {
            let cfg = ServeConfig {
                sessions: 1,
                frames_per_session: paced,
                seed,
                ..ServeConfig::default()
            };
            busy_cycles(&simulate(ServeScheme::OoVr, spec, &gpu, &cfg, None))
        };
        prop_assert!(at_lo <= plain, "temporal serving must never cost more than plain OO-VR");
    }
}
