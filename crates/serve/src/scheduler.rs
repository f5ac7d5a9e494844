//! The deterministic multi-session vsync scheduler.
//!
//! [`simulate`] runs an open-loop serving experiment entirely in simulated
//! time: seeded session arrivals over a horizon, Eq. 3 admission control at
//! the door, and earliest-deadline-first multiplexing of every admitted
//! session's frame stream onto the one 4-GPM rendering system against the
//! 90 Hz vsync grid. Nothing reads a wall clock and every tie-break is a
//! total order over integers, so a (scheme, workload, config, seed) tuple
//! replays bit-identically — the property the serving proptests pin.
//! The loop itself is [`run_edf`], the one EDF core: the edge tier runs
//! the same function with its link byte budget as an [`AdmissionGate`].
//!
//! The model:
//!
//! * A session admitted at `t0` releases frame `f` at `t0 + f·V` with
//!   deadline `t0 + (f+1)·V` (`V` = one vsync interval). Frame 0 is the
//!   cold warmup frame (PA distribution); it is scheduled like any other
//!   frame but excluded from the SLO accounting (see [`crate::qos`]).
//! * The renderer serves one frame at a time (the whole 4-GPM system is
//!   the unit of multiplexing — intra-frame parallelism is inside the cost
//!   model). Ready frames are served in EDF order with ties broken by
//!   (session, frame), which is deadline-optimal on one server.
//! * A frame whose start would be more than one vsync past its deadline is
//!   *dropped* as stale without consuming render time — presenting it
//!   could only delay younger frames further.
//! * Under [`ServeScheme::sheds`] schemes, a frame projected to miss its
//!   deadline is re-shaded at a degraded scale (`shed_step`/`shed_floor`
//!   from [`ResilienceConfig`], the same knobs the in-frame deadline
//!   monitor uses), trading shade quality for timeliness; on-time frames
//!   recover scale multiplicatively.
//!
//! Every lifecycle transition (admit/reject/frame-start/span/miss/shed/
//! drop) is emitted as an [`oovr_trace`] event, so `figures -- trace`
//! renders serving timelines with per-session tracks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

use oovr::{ResilienceConfig, TemporalConfig};
use oovr_gpu::{FrameReport, GpuConfig, VSYNC_90HZ_CYCLES};
use oovr_metrics::Registry;
use oovr_scene::pose::{Pose, PoseTrajectory};
use oovr_scene::BenchmarkSpec;
use oovr_trace::{Cycle, Recorder, TraceEvent, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::admission::{
    calibrate_discounted, AdmissionController, AdmissionDecision, DEFAULT_HEADROOM,
};
use crate::qos::{aggregate_qos, session_qos, AggregateQos, SessionQos};
use crate::stream::{cost_stream, ServeScheme, SessionCostStream};

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Vsync interval in cycles (default: 90 Hz at the 1 GHz clock).
    pub vsync_cycles: Cycle,
    /// Session arrivals generated over the run.
    pub sessions: u32,
    /// Paced frames per session after the warmup frame.
    pub frames_per_session: u32,
    /// Mean gap between consecutive arrivals in cycles (gaps are drawn
    /// uniformly from `[mean/2, 3·mean/2]`, seeded).
    pub mean_interarrival: Cycle,
    /// Seed for arrivals and head-pose trajectories.
    pub seed: u64,
    /// Admission headroom fraction of the vsync budget.
    pub headroom: f64,
    /// Shedding knobs (`shed_step`, `shed_floor`) for schemes that shed.
    pub resilience: ResilienceConfig,
    /// Temporal-reuse knob ([`TemporalConfig::reuse_threshold`]) for
    /// [`ServeScheme::temporal`] schemes. A threshold of `0.0` disables
    /// reuse bit-exactly (every frame re-renders at full cost).
    pub temporal: TemporalConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            vsync_cycles: VSYNC_90HZ_CYCLES,
            sessions: 8,
            frames_per_session: 16,
            mean_interarrival: VSYNC_90HZ_CYCLES / 4,
            seed: 0x00D1_5EED,
            headroom: DEFAULT_HEADROOM,
            resilience: ResilienceConfig::on(),
            temporal: TemporalConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Checks every field the scheduler cannot serve sensibly:
    /// - `headroom` must lie in `(0, 1]` (NaN fails);
    /// - `vsync_cycles` must be nonzero;
    /// - `temporal.reuse_threshold` must be finite;
    /// - `resilience.shed_step` and `resilience.shed_floor` must lie in
    ///   `(0, 1]`.
    ///
    /// [`simulate`] and [`capacity`](crate::capacity()) do not call it; the
    /// front ends that build configs do.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        let unit = |v: f64| v > 0.0 && v <= 1.0;
        if !unit(self.headroom) {
            return Err(ServeConfigError::Headroom(self.headroom));
        }
        if self.vsync_cycles == 0 {
            return Err(ServeConfigError::ZeroVsync);
        }
        if !self.temporal.reuse_threshold.is_finite() {
            return Err(ServeConfigError::ReuseThreshold(self.temporal.reuse_threshold));
        }
        if !unit(self.resilience.shed_step) {
            return Err(ServeConfigError::ShedStep(self.resilience.shed_step));
        }
        if !unit(self.resilience.shed_floor) {
            return Err(ServeConfigError::ShedFloor(self.resilience.shed_floor));
        }
        Ok(())
    }
}

/// A [`ServeConfig`] field out of range; see [`ServeConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeConfigError {
    /// `headroom` is NaN or outside `(0, 1]`.
    Headroom(f64),
    /// `vsync_cycles` is zero.
    ZeroVsync,
    /// `temporal.reuse_threshold` is NaN or infinite.
    ReuseThreshold(f64),
    /// `resilience.shed_step` is NaN or outside `(0, 1]`.
    ShedStep(f64),
    /// `resilience.shed_floor` is NaN or outside `(0, 1]`.
    ShedFloor(f64),
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeConfigError::Headroom(v) => write!(f, "headroom must be in (0, 1], got {v}"),
            ServeConfigError::ZeroVsync => write!(f, "vsync_cycles must be nonzero"),
            ServeConfigError::ReuseThreshold(v) => {
                write!(f, "reuse_threshold must be finite, got {v}")
            }
            ServeConfigError::ShedStep(v) => write!(f, "shed_step must be in (0, 1], got {v}"),
            ServeConfigError::ShedFloor(v) => write!(f, "shed_floor must be in (0, 1], got {v}"),
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// One scheduled frame of an admitted session.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// Frame index within the session (0 = warmup).
    pub frame: u32,
    /// Index into the cost stream's reports backing this frame.
    pub report_index: usize,
    /// Release (vsync grid) cycle.
    pub release: Cycle,
    /// Presentation deadline (`release + V`).
    pub deadline: Cycle,
    /// Cycle rendering started (equals `end` for dropped frames).
    pub start: Cycle,
    /// Cycle rendering retired.
    pub end: Cycle,
    /// Shade scale the frame ran at (1.0 = full quality).
    pub scale: f64,
    /// Whether the frame retired after its deadline.
    pub missed: bool,
    /// Whether the frame was dropped as stale without rendering.
    pub dropped: bool,
    /// Head pose the session's client submitted for this frame.
    pub pose: Pose,
}

/// One admitted session's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Global session id (arrival order, shared with rejected sessions).
    pub id: u32,
    /// Arrival (= admission) cycle.
    pub arrival: Cycle,
    /// Predicted per-vsync demand at admission (Eq. 3).
    pub predicted: f64,
    /// Scheduled frames in frame order.
    pub frames: Vec<FrameRecord>,
}

/// A session turned away at admission.
#[derive(Debug, Clone, PartialEq)]
pub struct Reject {
    /// Global session id.
    pub id: u32,
    /// Arrival cycle.
    pub arrival: Cycle,
    /// Predicted per-vsync demand that did not fit.
    pub predicted: f64,
}

/// Everything a serving run produced.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Scheme the run multiplexed under.
    pub scheme: ServeScheme,
    /// Workload name.
    pub workload: String,
    /// Vsync interval used.
    pub vsync: Cycle,
    /// Admitted sessions in arrival order.
    pub sessions: Vec<SessionOutcome>,
    /// Rejected sessions in arrival order.
    pub rejects: Vec<Reject>,
    /// The shared cost stream (for report access).
    pub stream: Arc<SessionCostStream>,
}

impl ServeOutcome {
    /// Aggregate QoS over all admitted sessions.
    pub fn qos(&self) -> AggregateQos {
        aggregate_qos(self)
    }

    /// Per-session QoS summaries.
    pub fn session_qos(&self) -> Vec<SessionQos> {
        self.sessions.iter().map(session_qos).collect()
    }

    /// The frame reports session `idx` (index into
    /// [`sessions`](Self::sessions)) replayed, in frame order — for
    /// bit-identity checks against a standalone warm-executor run.
    pub fn session_reports(&self, idx: usize) -> Vec<&FrameReport> {
        self.sessions[idx].frames.iter().map(|f| &self.stream.reports[f.report_index]).collect()
    }
}

/// Runs one deterministic serving experiment. `trace`, when given,
/// receives the session-lifecycle events in cycle order.
pub fn simulate(
    scheme: ServeScheme,
    spec: &BenchmarkSpec,
    gpu: &GpuConfig,
    cfg: &ServeConfig,
    trace: Option<&mut Recorder>,
) -> ServeOutcome {
    simulate_metered(scheme, spec, gpu, cfg, trace, None)
}

/// [`simulate`] with an optional [`Registry`] receiving serve-layer
/// metrics (frame counts, misses, sheds, the release-to-retire latency
/// histogram, admission and temporal counters), windowed by the vsync
/// interval. The registry is a pure observer: a metered run is
/// bit-identical to an unmetered one (pinned by `prop_metrics`), and with
/// `None` nothing is folded — the same contract the trace recorder
/// honours.
pub fn simulate_metered(
    scheme: ServeScheme,
    spec: &BenchmarkSpec,
    gpu: &GpuConfig,
    cfg: &ServeConfig,
    trace: Option<&mut Recorder>,
    metrics: Option<&mut Registry>,
) -> ServeOutcome {
    let stream = cost_stream(scheme, spec, gpu);
    let mut events = Vec::new();
    let (sessions, rejects) = run_edf(scheme, &stream, cfg, &mut (), &mut events);
    if let Some(reg) = metrics {
        record_metrics(reg, &sessions, &rejects, &events);
    }
    if let Some(rec) = trace {
        record_trace(rec, events);
    }
    let vsync = cfg.vsync_cycles.max(1);
    ServeOutcome { scheme, workload: spec.name.clone(), vsync, sessions, rejects, stream }
}

/// Hands a run's events to `rec`. Emission order is simulation order; the
/// exporters require non-decreasing timestamps per track, so events are
/// sorted by cycle (stable — same-cycle events keep their causal order).
pub fn record_trace(rec: &mut Recorder, mut events: Vec<TraceEvent>) {
    events.sort_by_key(|e| e.cycle());
    for e in events {
        rec.record(e);
    }
}

/// Folds one run's serve-layer metrics from its outcome and its
/// temporal-reuse events. Frame metrics cover paced frames only — warmup
/// is outside the SLO accounting, matching [`session_qos`].
fn record_metrics(
    reg: &mut Registry,
    sessions: &[SessionOutcome],
    rejects: &[Reject],
    events: &[TraceEvent],
) {
    for s in sessions {
        reg.inc("sessions_admitted", "", s.arrival, 1);
        reg.observe("admission_predicted_cycles", "", s.arrival, s.predicted as Cycle);
        for f in s.frames.iter().filter(|f| f.frame > 0) {
            reg.inc("frames", "", f.end, 1);
            if f.missed {
                reg.inc("frames_missed", "", f.end, 1);
            }
            if f.dropped {
                reg.inc("frames_dropped", "", f.end, 1);
                continue;
            }
            reg.observe("frame_latency_cycles", "", f.end, f.end - f.release);
            if f.scale < 1.0 {
                reg.inc("frames_shed", "", f.end, 1);
            }
        }
    }
    for r in rejects {
        reg.inc("sessions_rejected", "", r.arrival, 1);
    }
    for e in events {
        if let TraceEvent::TemporalReuse { cycle, reused, rerendered, saved, .. } = *e {
            reg.inc("temporal_frames", "", cycle, 1);
            reg.inc("temporal_objects_reused", "", cycle, u64::from(reused));
            reg.inc("temporal_objects_rerendered", "", cycle, u64::from(rerendered));
            reg.inc("temporal_saved_cycles", "", cycle, saved);
        }
    }
    let min_scale = sessions
        .iter()
        .flat_map(|s| s.frames.iter())
        .filter(|f| !f.dropped)
        .map(|f| f.scale)
        .fold(1.0f64, f64::min);
    reg.set_gauge("min_scale", "", min_scale);
}

/// An extra admission constraint [`run_edf`] checks at the door, before
/// the Eq. 3 compute controller. A gate draws no randomness, so one that
/// passes every session leaves the run bit-identical to local serving.
/// `()` is local serving's no-op gate; the edge tier's link byte budget
/// is the other implementation.
pub trait AdmissionGate {
    /// `Some((predicted, reason))` turns away the session arriving at
    /// `arrival`; `None` passes it on to the compute controller.
    fn check(&mut self, arrival: Cycle) -> Option<(f64, &'static str)>;

    /// The session passed both gates and holds its load until `departure`.
    fn admit(&mut self, departure: Cycle);
}

impl AdmissionGate for () {
    fn check(&mut self, _arrival: Cycle) -> Option<(f64, &'static str)> {
        None
    }

    fn admit(&mut self, _departure: Cycle) {}
}

/// The one EDF core behind every serving run: seeded arrivals, `gate`
/// then Eq. 3 admission, per-session pose paths, and EDF over the release
/// list with stale drops, shedding and temporal reuse. Lifecycle events
/// are appended to `events` in simulation order. Returns the admitted
/// sessions (frames in frame order) and the rejects, both in arrival
/// order.
pub fn run_edf(
    scheme: ServeScheme,
    stream: &SessionCostStream,
    cfg: &ServeConfig,
    gate: &mut impl AdmissionGate,
    events: &mut Vec<TraceEvent>,
) -> (Vec<SessionOutcome>, Vec<Reject>) {
    let v = cfg.vsync_cycles.max(1);
    let total_frames = cfg.frames_per_session + 1; // warmup + paced

    // Calibrate Eq. 3 from the measured stream (whole-frame samples) and
    // run every arrival through the admission controller. Temporal schemes
    // price warm frames at their temporally-reused cost: the measured
    // cycles minus the mean reuse saving over a reference trajectory
    // seeded from the run seed (zero at threshold 0, so calibration stays
    // bit-identical to plain OO-VR).
    let threshold = cfg.temporal.reuse_threshold;
    let discount = if scheme.temporal() {
        stream.mean_temporal_saving(threshold, cfg.seed, cfg.frames_per_session.max(1))
    } else {
        0
    };
    let report_refs: Vec<&FrameReport> = stream.reports.iter().collect();
    let mut admission =
        AdmissionController::new(calibrate_discounted(&report_refs, discount), v, cfg.headroom);
    let steady_tris = stream.steady().counts.triangles;

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut sessions: Vec<SessionOutcome> = Vec::new();
    let mut poses: Vec<Vec<Pose>> = Vec::new();
    let mut rejects: Vec<Reject> = Vec::new();

    let mut arrival: Cycle = 0;
    for id in 0..cfg.sessions {
        if id > 0 {
            let mean = cfg.mean_interarrival;
            arrival += rng.gen_range(mean / 2..=mean + mean / 2);
        }
        // A session holds its budget until one interval past its last
        // deadline (slack for queueing delay).
        let departure = arrival + Cycle::from(total_frames + 1) * v;
        let decision = match gate.check(arrival) {
            Some((predicted, reason)) => AdmissionDecision::Rejected { predicted, reason },
            None => admission.offer(arrival, steady_tris, departure),
        };
        match decision {
            AdmissionDecision::Admitted { active, predicted } => {
                events.push(TraceEvent::SessionAdmit {
                    cycle: arrival,
                    session: id,
                    predicted,
                    active,
                });
                gate.admit(departure);
                // The head-pose trajectory is per-session seeded: frame 0
                // presents the rest pose, each paced frame steps the walk.
                let mut traj = PoseTrajectory::new(
                    cfg.seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let mut path = vec![traj.current()];
                path.extend((0..cfg.frames_per_session).map(|_| traj.step()));
                poses.push(path);
                sessions.push(SessionOutcome {
                    id,
                    arrival,
                    predicted,
                    frames: Vec::with_capacity(total_frames as usize),
                });
            }
            AdmissionDecision::Rejected { predicted, reason } => {
                events.push(TraceEvent::SessionReject {
                    cycle: arrival,
                    session: id,
                    predicted,
                    reason,
                });
                rejects.push(Reject { id, arrival, predicted });
            }
        }
    }

    // All frame releases of admitted sessions, in release order. `slot`
    // indexes the admitted-session vectors; ids stay global.
    let mut releases: Vec<(Cycle, u32, u32)> = Vec::new(); // (release, slot, frame)
    for (slot, s) in sessions.iter().enumerate() {
        for f in 0..total_frames {
            releases.push((s.arrival + Cycle::from(f) * v, slot as u32, f));
        }
    }
    releases.sort_unstable();

    // EDF over the single render engine. Keys are integers only, totally
    // ordered by (deadline, slot, frame) — no ties, no float compares.
    let temporal = if scheme.temporal() { stream.temporal.as_deref() } else { None };
    let sheds = scheme.sheds();
    let (step, floor) = (cfg.resilience.shed_step, cfg.resilience.shed_floor);
    let mut scales = vec![1.0f64; sessions.len()];
    let mut heap: BinaryHeap<Reverse<(Cycle, u32, u32, Cycle)>> = BinaryHeap::new();
    let mut now: Cycle = 0;
    let mut next = 0usize;
    while next < releases.len() || !heap.is_empty() {
        while next < releases.len() && releases[next].0 <= now {
            let (release, slot, frame) = releases[next];
            heap.push(Reverse((release + v, slot, frame, release)));
            next += 1;
        }
        let Some(Reverse((deadline, slot, frame, release))) = heap.pop() else {
            now = releases[next].0; // engine idles until the next release
            continue;
        };
        let session = &mut sessions[slot as usize];
        let id = session.id;
        let report_index = stream.report_index(frame);
        let pose = poses[slot as usize][frame as usize];

        if now > deadline + v {
            // More than one interval stale: presenting it would only push
            // younger frames later. Drop without consuming render time.
            events.push(TraceEvent::FrameDrop { cycle: now, session: id, frame, reason: "stale" });
            session.frames.push(FrameRecord {
                frame,
                report_index,
                release,
                deadline,
                start: now,
                end: now,
                scale: scales[slot as usize],
                missed: true,
                dropped: true,
                pose,
            });
            continue;
        }

        // Temporal schemes price warm frames by the pose delta since the
        // previous frame: objects whose projected bound moved less than
        // the threshold are warped (ATW) instead of re-rendered. Frame 0
        // has no predecessor and always pays the full cold cost.
        let tdec = temporal.filter(|_| frame > 0).map(|profile| {
            profile.decide(&poses[slot as usize][frame as usize - 1], &pose, threshold)
        });
        let base = stream.cost_for(frame);
        let base = tdec.as_ref().map_or(base, |d| d.apply(base));
        let mut scale = scales[slot as usize];
        let cost_at = |s: f64| (((base as f64) * s).round() as Cycle).max(1);
        if sheds {
            let before = scale;
            while scale > floor && now + cost_at(scale) > deadline {
                scale = (scale * step).max(floor);
            }
            if scale < before {
                scales[slot as usize] = scale;
                events.push(TraceEvent::FrameShed { cycle: now, session: id, frame, scale });
            }
        }
        let cost = if sheds { cost_at(scale) } else { base };
        let (start, end) = (now, now + cost);
        events.push(TraceEvent::FrameStart { cycle: start, session: id, frame, deadline });
        events.push(TraceEvent::FrameSpan { session: id, frame, start, end, scale });
        if let Some(d) = &tdec {
            events.push(TraceEvent::TemporalReuse {
                cycle: start,
                session: id,
                frame,
                reused: d.reused,
                rerendered: d.rerendered,
                saved: d.saved,
            });
        }
        let missed = end > deadline;
        if missed {
            events.push(TraceEvent::DeadlineMiss { cycle: end, session: id, frame, deadline });
        } else if sheds && scale < 1.0 {
            // Backpressure released: recover shade quality multiplicatively.
            scales[slot as usize] = (scale / step).min(1.0);
        }
        session.frames.push(FrameRecord {
            frame,
            report_index,
            release,
            deadline,
            start,
            end,
            scale,
            missed,
            dropped: false,
            pose,
        });
        now = end;
    }

    for s in &mut sessions {
        s.frames.sort_by_key(|f| f.frame);
    }
    (sessions, rejects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_scene::benchmarks;
    use oovr_trace::TraceConfig;

    fn spec() -> BenchmarkSpec {
        benchmarks::hl2_640().scaled(0.05)
    }

    fn small(sessions: u32, frames: u32) -> ServeConfig {
        ServeConfig { sessions, frames_per_session: frames, ..ServeConfig::default() }
    }

    #[test]
    fn single_session_replays_the_warm_stream() {
        let out = simulate(ServeScheme::OoVr, &spec(), &GpuConfig::default(), &small(1, 3), None);
        assert_eq!(out.sessions.len(), 1);
        assert!(out.rejects.is_empty());
        let frames = &out.sessions[0].frames;
        assert_eq!(frames.len(), 4);
        let reports = out.session_reports(0);
        let direct = oovr::schemes::OoVr::new().render_frames(
            &oovr::cache::scene_for(&spec()),
            &GpuConfig::default(),
            4,
        );
        for (got, want) in reports.iter().zip(&direct) {
            assert_eq!(got.frame_cycles, want.frame_cycles);
            assert_eq!(got.counts, want.counts);
        }
        // Alone on the machine at reduced scale, every frame is on time.
        assert!(frames.iter().all(|f| !f.missed && !f.dropped));
        let qos = out.qos();
        assert_eq!(qos.frames, 3);
        assert_eq!(qos.goodput, 1.0);
    }

    #[test]
    fn identical_seeds_replay_bit_identically() {
        let cfg = small(6, 8);
        let gpu = GpuConfig::default();
        let a = simulate(ServeScheme::OoVr, &spec(), &gpu, &cfg, None);
        let b = simulate(ServeScheme::OoVr, &spec(), &gpu, &cfg, None);
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.rejects, b.rejects);
    }

    #[test]
    fn tight_vsync_rejects_the_overflow() {
        // Shrink the interval until only a couple of sessions fit.
        let steady =
            cost_stream(ServeScheme::OoVr, &spec(), &GpuConfig::default()).steady().frame_cycles;
        let cfg = ServeConfig {
            vsync_cycles: steady * 2,
            mean_interarrival: 0,
            headroom: 1.0,
            ..small(8, 4)
        };
        let out = simulate(ServeScheme::OoVr, &spec(), &GpuConfig::default(), &cfg, None);
        assert!(!out.sessions.is_empty(), "at least one session fits");
        assert!(!out.rejects.is_empty(), "the overflow must be turned away");
        assert_eq!(out.sessions.len() + out.rejects.len(), 8);
        // Predicted demand of what was admitted stays within the budget.
        let admitted: f64 = out.sessions.iter().map(|s| s.predicted).sum();
        assert!(admitted <= cfg.vsync_cycles as f64 + 1e-9);
    }

    #[test]
    fn shedding_degrades_scale_instead_of_missing() {
        let stream = cost_stream(ServeScheme::OoVrShed, &spec(), &GpuConfig::default());
        let (cold, steady) = (stream.cold().frame_cycles, stream.steady().frame_cycles);
        // V = (5·cold + 3·steady)/4 sits strictly between the admission
        // bound for two sessions ((cold + 3·steady)/2, Eq. 3 over the
        // 4-frame stream) and the 2·cold both cold frames need back to
        // back — so both sessions are admitted, and the second session's
        // warmup provably overruns its deadline unless the scheduler sheds.
        let cfg = ServeConfig {
            vsync_cycles: (5 * cold + 3 * steady) / 4,
            mean_interarrival: 0,
            headroom: 1.0,
            ..small(2, 12)
        };
        let shed = simulate(ServeScheme::OoVrShed, &spec(), &GpuConfig::default(), &cfg, None);
        assert_eq!(shed.sessions.len(), 2);
        let q = shed.qos();
        assert!(q.shed_frames > 0, "overload must trigger shedding");
        assert!(q.min_scale < 1.0);
        assert!(q.min_scale >= cfg.resilience.shed_floor - 1e-12);
        // The same offered load without shedding misses more vsyncs.
        let hard = simulate(ServeScheme::OoVr, &spec(), &GpuConfig::default(), &cfg, None);
        assert!(q.miss_rate <= hard.qos().miss_rate);
    }

    #[test]
    fn trace_sink_sees_the_session_lifecycle_in_cycle_order() {
        let mut rec = Recorder::new(TraceConfig::default());
        let cfg = small(4, 4);
        let out = simulate(ServeScheme::OoVr, &spec(), &GpuConfig::default(), &cfg, Some(&mut rec));
        let events: Vec<_> = rec.events().cloned().collect();
        let admits = events.iter().filter(|e| matches!(e, TraceEvent::SessionAdmit { .. })).count();
        let spans = events.iter().filter(|e| matches!(e, TraceEvent::FrameSpan { .. })).count();
        assert_eq!(admits, out.sessions.len());
        let executed: usize =
            out.sessions.iter().map(|s| s.frames.iter().filter(|f| !f.dropped).count()).sum();
        assert_eq!(spans, executed);
        let mut last = 0;
        for e in &events {
            assert!(e.cycle() >= last, "events must be cycle-ordered");
            last = e.cycle();
        }
    }

    #[test]
    fn temporal_reuse_cuts_warm_frame_costs_and_traces_it() {
        let mut rec = Recorder::new(TraceConfig::default());
        let cfg = small(2, 8);
        let gpu = GpuConfig::default();
        let t = simulate(ServeScheme::OoVrTemporal, &spec(), &gpu, &cfg, Some(&mut rec));
        let o = simulate(ServeScheme::OoVr, &spec(), &gpu, &cfg, None);
        let busy = |out: &ServeOutcome| -> Cycle {
            out.sessions
                .iter()
                .flat_map(|s| s.frames.iter().filter(|f| !f.dropped))
                .map(|f| f.end - f.start)
                .sum()
        };
        assert!(
            busy(&t) < busy(&o),
            "temporal reuse must cut total render cycles ({} vs {})",
            busy(&t),
            busy(&o)
        );
        let reused: u64 = rec
            .events()
            .filter_map(|e| match e {
                TraceEvent::TemporalReuse { reused, .. } => Some(u64::from(*reused)),
                _ => None,
            })
            .sum();
        assert!(reused > 0, "the default threshold must reuse some objects");
    }

    #[test]
    fn temporal_at_zero_threshold_matches_plain_oovr_bit_exactly() {
        let cfg = ServeConfig { temporal: oovr::TemporalConfig::exact(), ..small(4, 6) };
        let gpu = GpuConfig::default();
        let t = simulate(ServeScheme::OoVrTemporal, &spec(), &gpu, &cfg, None);
        let o = simulate(ServeScheme::OoVr, &spec(), &gpu, &cfg, None);
        assert_eq!(t.sessions, o.sessions);
        assert_eq!(t.rejects, o.rejects);
    }

    #[test]
    fn poses_differ_across_sessions_but_replay_per_seed() {
        let cfg = small(3, 6);
        let out = simulate(ServeScheme::Baseline, &spec(), &GpuConfig::default(), &cfg, None);
        assert!(out.sessions.len() >= 2);
        let a: Vec<Pose> = out.sessions[0].frames.iter().map(|f| f.pose).collect();
        let b: Vec<Pose> = out.sessions[1].frames.iter().map(|f| f.pose).collect();
        assert_ne!(a, b, "sessions follow distinct head paths");
        let again = simulate(ServeScheme::Baseline, &spec(), &GpuConfig::default(), &cfg, None);
        let a2: Vec<Pose> = again.sessions[0].frames.iter().map(|f| f.pose).collect();
        assert_eq!(a, a2);
    }

    #[test]
    fn validate_accepts_only_servable_configs() {
        use ServeConfigError as E;
        let d = ServeConfig::default();
        let with_headroom = |headroom| ServeConfig { headroom, ..d.clone() };
        let with_threshold = |reuse_threshold| ServeConfig {
            temporal: oovr::TemporalConfig { reuse_threshold },
            ..d.clone()
        };
        let with_shed = |shed_step, shed_floor| ServeConfig {
            resilience: ResilienceConfig { shed_step, shed_floor, ..d.resilience },
            ..d.clone()
        };
        let cases: Vec<(&str, ServeConfig, Result<(), ServeConfigError>)> = vec![
            ("default", d.clone(), Ok(())),
            ("headroom 1", with_headroom(1.0), Ok(())),
            ("tiny headroom", with_headroom(1e-9), Ok(())),
            ("headroom 0", with_headroom(0.0), Err(E::Headroom(0.0))),
            ("headroom -1", with_headroom(-1.0), Err(E::Headroom(-1.0))),
            ("headroom > 1", with_headroom(1.5), Err(E::Headroom(1.5))),
            ("headroom inf", with_headroom(f64::INFINITY), Err(E::Headroom(f64::INFINITY))),
            ("vsync 0", ServeConfig { vsync_cycles: 0, ..d.clone() }, Err(E::ZeroVsync)),
            ("vsync 1", ServeConfig { vsync_cycles: 1, ..d.clone() }, Ok(())),
            ("exact threshold", with_threshold(0.0), Ok(())),
            ("negative threshold", with_threshold(-3.0), Ok(())),
            ("inf threshold", with_threshold(f64::INFINITY), Err(E::ReuseThreshold(f64::INFINITY))),
            ("shed 1/1", with_shed(1.0, 1.0), Ok(())),
            ("shed step 0", with_shed(0.0, 0.4), Err(E::ShedStep(0.0))),
            ("shed step > 1", with_shed(1.2, 0.4), Err(E::ShedStep(1.2))),
            ("shed floor 0", with_shed(0.8, 0.0), Err(E::ShedFloor(0.0))),
            ("shed floor -1", with_shed(0.8, -1.0), Err(E::ShedFloor(-1.0))),
        ];
        for (name, cfg, want) in cases {
            assert_eq!(cfg.validate(), want, "{name}");
        }
        // NaN never equals itself, so match the variant instead.
        assert!(matches!(with_headroom(f64::NAN).validate(), Err(E::Headroom(v)) if v.is_nan()));
        assert!(matches!(
            with_threshold(f64::NAN).validate(),
            Err(E::ReuseThreshold(v)) if v.is_nan()
        ));
        assert!(matches!(with_shed(f64::NAN, 0.4).validate(), Err(E::ShedStep(v)) if v.is_nan()));
        assert!(matches!(with_shed(0.8, f64::NAN).validate(), Err(E::ShedFloor(v)) if v.is_nan()));
        assert_eq!(E::ZeroVsync.to_string(), "vsync_cycles must be nonzero");
    }
}
