//! The deterministic multi-server cluster tier: N EDF servers behind the
//! session router.
//!
//! One [`simulate_cluster`] run shards sessions across `N` servers on a
//! shared vsync grid, entirely in simulated time. Each server is the
//! per-interval quantum abstraction of one PR 5 EDF server: at interval
//! `k` (cycle `t = k·V`) a server has `V · rate(s, t)` cycles of render
//! budget — `rate` comes from a *server-level* [`FaultPlan`]
//! ([`FaultPlan::server_rate_at`]; the server index plays the GPM role,
//! `link-down` kills a server outright, `gpm-throttle` shrinks its
//! capacity) — and serves its resident sessions' due frames in session-id
//! order, which is EDF order under the shared per-interval deadline. A
//! frame that does not fit misses its vsync without consuming budget.
//!
//! Cost comes from the memoized per-(scheme, workload, config) cost
//! streams: a session's first served frame after admission, failover, or
//! migration is charged the stream's *cold* PA frame (warm-restart cost),
//! later frames the steady frame. A server hosting more than one distinct
//! cost stream pays a cross-stream working-set tax of
//! `switch_frac · V` cycles per extra stream per interval — the term that
//! makes workload-affinity packing ([`crate::router::Placement::Affinity`])
//! genuinely cheaper than spreading streams everywhere.
//!
//! Frames pace from the session's *arrival*: frame `f` is due in interval
//! `arrival + f`. A session stuck in admission backoff therefore loses the
//! frames that pass it by — retry is strictly better than rejection, never
//! free. Goodput counts on-time frames (at any shed scale) over all
//! offered frames, including sessions that were rejected or lost, so every
//! robustness feature has to *earn* its place in the chaos tables.
//!
//! Everything the router does — route, retry, failover, migrate, shed,
//! evict — lands in the trace as cluster-level [`TraceEvent`]s when a
//! recorder is supplied.

use std::sync::Arc;

use oovr::{ResilienceConfig, TemporalConfig};
use oovr_gpu::{FaultPlan, GpuConfig, VSYNC_90HZ_CYCLES};
use oovr_metrics::Registry;
use oovr_scene::BenchmarkSpec;
use oovr_trace::{Cycle, Recorder, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::admission::{calibrate_discounted, DEFAULT_HEADROOM};
use crate::capacity::{search, MISS_BUDGET};
use crate::router::{Placement, RouterConfig, ServerView};
use crate::scheduler::record_trace;
use crate::stream::{cost_stream, ServeScheme, SessionCostStream};

/// Probe horizon of [`cluster_capacity`], in vsync intervals (matches the
/// single-server probe in [`crate::capacity()`]).
pub const CLUSTER_PROBE_FRAMES: u32 = 64;

/// Configuration of one cluster serving run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of servers in the fleet.
    pub servers: u32,
    /// Vsync interval in cycles (default: 90 Hz at the 1 GHz clock).
    pub vsync_cycles: Cycle,
    /// Session arrivals offered to the cluster.
    pub sessions: u32,
    /// Paced frames per session (frame 0 is the warmup frame).
    pub frames_per_session: u32,
    /// Arrivals land uniformly (seeded) over this many leading intervals.
    pub arrival_intervals: u32,
    /// Seed for arrival jitter.
    pub seed: u64,
    /// Admission headroom fraction of each server's vsync budget.
    pub headroom: f64,
    /// Placement policy of the session router.
    pub policy: Placement,
    /// Robustness knobs of the session router.
    pub router: RouterConfig,
    /// Server-level fault plan; `None` (or a zero-severity plan) keeps
    /// every server at nominal rate.
    pub fault: Option<FaultPlan>,
    /// Cross-stream working-set tax: fraction of one vsync interval a
    /// server pays per distinct resident cost stream beyond the first.
    pub switch_frac: f64,
    /// Shedding knobs (`shed_step`, `shed_floor`) for cluster-wide
    /// graceful degradation.
    pub resilience: ResilienceConfig,
    /// Consecutive missed vsyncs at the shedding floor before a session is
    /// evicted (last resort, [`RouterConfig::evict`]).
    pub evict_after: u32,
    /// Temporal-reuse knob for [`ServeScheme::temporal`] mix entries:
    /// their steady cost and Eq. 3 demand are discounted by the mean
    /// pose-correlated reuse saving over a reference trajectory.
    pub temporal: TemporalConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            servers: 4,
            vsync_cycles: VSYNC_90HZ_CYCLES,
            sessions: 24,
            frames_per_session: 32,
            arrival_intervals: 8,
            seed: 0xC105_7E4D,
            headroom: DEFAULT_HEADROOM,
            policy: Placement::LeastLoaded,
            router: RouterConfig::resilient(),
            fault: None,
            switch_frac: 0.04,
            resilience: ResilienceConfig::on(),
            evict_after: 16,
            temporal: TemporalConfig::default(),
        }
    }
}

/// Per-session outcome of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSession {
    /// Global session id (arrival order).
    pub id: u32,
    /// Index of the session's cost stream in the deduplicated mix.
    pub stream: usize,
    /// Arrival interval.
    pub arrival: u32,
    /// Interval the session was admitted, if it ever was.
    pub admitted_at: Option<u32>,
    /// Final server the session lived on, if admitted.
    pub server: Option<u32>,
    /// Paced frames presented on time (any shed scale).
    pub on_time: u64,
    /// Subset of `on_time` served below full shade scale.
    pub degraded: u64,
    /// Failovers plus migrations the session went through.
    pub moves: u32,
    /// Whether the session was evicted before finishing.
    pub evicted: bool,
}

/// Everything one cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Servers in the fleet.
    pub servers: u32,
    /// Sessions offered.
    pub offered: u32,
    /// Sessions admitted (on any attempt).
    pub admitted: u32,
    /// Sessions never admitted.
    pub rejected: u32,
    /// Sessions evicted after admission.
    pub evicted: u32,
    /// Admission retries the router issued.
    pub retries: u64,
    /// Overload migrations performed.
    pub migrations: u64,
    /// Dead-server failovers performed.
    pub failovers: u64,
    /// Server up→down transitions observed.
    pub downs: u64,
    /// Total paced frames offered (`sessions × frames_per_session`).
    pub frames_offered: u64,
    /// Paced frames presented on time, at any shed scale.
    pub on_time: u64,
    /// Subset of `on_time` served below full shade scale.
    pub degraded: u64,
    /// Lowest cluster-wide shed scale reached (1.0 = never shed).
    pub min_scale: f64,
    /// Per-session outcomes, in id order.
    pub sessions: Vec<ClusterSession>,
}

impl ClusterOutcome {
    /// On-time paced frames over all offered frames — rejected and lost
    /// sessions count against it.
    pub fn goodput(&self) -> f64 {
        if self.frames_offered == 0 {
            return 1.0;
        }
        self.on_time as f64 / self.frames_offered as f64
    }

    /// Fraction of offered paced frames that never presented on time.
    pub fn miss_rate(&self) -> f64 {
        1.0 - self.goodput()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Waiting,
    Active,
    Done,
    Rejected,
    Evicted,
}

struct Sess {
    stream: usize,
    arrival: u32,
    state: State,
    attempts: u32,
    next_attempt: u32,
    admitted_at: Option<u32>,
    server: usize,
    last_move: u32,
    cold_pending: bool,
    on_time: u64,
    degraded: u64,
    misses_in_a_row: u32,
    moves: u32,
    /// Paced frames the metrics registry has accounted (served or missed
    /// while `Active`). Only advanced when a registry is attached; the
    /// end-of-run reconciliation charges `frames − metered` to the
    /// `unrouted` label so the aggregate SLO miss rate equals
    /// [`ClusterOutcome::miss_rate`] exactly.
    metered: u64,
}

/// The deduplicated cost streams of a session mix, plus per-stream derived
/// numbers the simulation charges.
struct Streams {
    /// Stream index of session `i % mix.len()`.
    of_mix: Vec<usize>,
    /// Eq. 3 predicted per-vsync demand per stream.
    demand: Vec<f64>,
    /// Cold (PA-paying) frame cost per stream.
    cold: Vec<Cycle>,
    /// Steady frame cost per stream.
    steady: Vec<Cycle>,
}

fn resolve_streams(
    mix: &[(ServeScheme, BenchmarkSpec)],
    gpu: &GpuConfig,
    cfg: &ClusterConfig,
) -> Streams {
    let mut streams: Vec<Arc<SessionCostStream>> = Vec::new();
    let mut of_mix = Vec::with_capacity(mix.len());
    for (scheme, spec) in mix {
        let s = cost_stream(*scheme, spec, gpu);
        let idx = match streams.iter().position(|e| Arc::ptr_eq(e, &s)) {
            Some(i) => i,
            None => {
                streams.push(Arc::clone(&s));
                streams.len() - 1
            }
        };
        of_mix.push(idx);
    }
    // Temporal streams are charged their mean pose-correlated cost: the
    // measured steady frame minus the mean reuse saving over a reference
    // trajectory (zero for every other stream, and exactly zero at
    // threshold 0, so the tier collapses to plain costs bit-identically).
    let saving: Vec<Cycle> = streams
        .iter()
        .map(|s| {
            s.mean_temporal_saving(
                cfg.temporal.reuse_threshold,
                cfg.seed,
                cfg.frames_per_session.max(1),
            )
        })
        .collect();
    let demand = streams
        .iter()
        .zip(&saving)
        .map(|(s, &saved)| {
            let refs: Vec<_> = s.reports.iter().collect();
            calibrate_discounted(&refs, saved).predict_total(s.steady().counts.triangles.max(1))
        })
        .collect();
    let cold = streams.iter().map(|s| s.cold().frame_cycles.max(1)).collect();
    let steady = streams
        .iter()
        .zip(&saving)
        .map(|(s, &saved)| s.steady().frame_cycles.saturating_sub(saved).max(1))
        .collect();
    Streams { of_mix, demand, cold, steady }
}

/// Runs one deterministic cluster serving experiment over `mix` (sessions
/// round-robin the mix entries; entries naming the same (scheme, workload,
/// config) share one memoized cost stream). `trace`, when given, receives
/// the cluster-level events in cycle order.
///
/// # Panics
///
/// Panics if `mix` is empty or `cfg.servers` is zero.
pub fn simulate_cluster(
    mix: &[(ServeScheme, BenchmarkSpec)],
    gpu: &GpuConfig,
    cfg: &ClusterConfig,
    trace: Option<&mut Recorder>,
) -> ClusterOutcome {
    simulate_cluster_metered(mix, gpu, cfg, trace, None)
}

/// [`simulate_cluster`] with an optional [`Registry`] receiving fleet
/// metrics: per-server frame/miss/degrade counters (`srv0…srvN`), per
/// session-class counters keyed by workload name, router activity
/// (routes, retries, failovers, migrations, evictions, sheds) and server
/// up/down transitions. Frames of sessions that were never admitted —
/// rejected, lost to backoff, or evicted mid-run — are reconciled into an
/// `unrouted` label at the end of the run, so the aggregate metered miss
/// rate equals [`ClusterOutcome::miss_rate`] exactly. Observation-only:
/// a metered run is bit-identical to an unmetered one (pinned by
/// `prop_metrics`).
///
/// # Panics
///
/// Panics if `mix` is empty or `cfg.servers` is zero.
pub fn simulate_cluster_metered(
    mix: &[(ServeScheme, BenchmarkSpec)],
    gpu: &GpuConfig,
    cfg: &ClusterConfig,
    trace: Option<&mut Recorder>,
    mut metrics: Option<&mut Registry>,
) -> ClusterOutcome {
    assert!(!mix.is_empty(), "cluster mix must name at least one workload");
    let n = cfg.servers as usize;
    assert!(n > 0, "cluster needs at least one server");
    let st = resolve_streams(mix, gpu, cfg);
    let v = cfg.vsync_cycles.max(1);
    let frames = cfg.frames_per_session;
    let shed_floor = cfg.resilience.shed_floor.clamp(0.05, 1.0);
    let shed_step = cfg.resilience.shed_step.clamp(0.05, 0.99);
    let switch_tax = ((v as f64) * cfg.switch_frac.max(0.0)) as u64;

    // Seeded arrival jitter: one interval per session, in id order.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC1_05_7E_12);
    let mut sessions: Vec<Sess> = (0..cfg.sessions)
        .map(|i| {
            let arrival =
                if cfg.arrival_intervals > 1 { rng.gen_range(0..cfg.arrival_intervals) } else { 0 };
            Sess {
                stream: st.of_mix[i as usize % st.of_mix.len()],
                arrival,
                state: State::Waiting,
                attempts: 0,
                next_attempt: arrival,
                admitted_at: None,
                server: 0,
                last_move: 0,
                cold_pending: false,
                on_time: 0,
                degraded: 0,
                misses_in_a_row: 0,
                moves: 0,
                metered: 0,
            }
        })
        .collect();

    // Session-class label per stream (the workload name of the first mix
    // entry backing it); built only when a registry is attached.
    let class_of_stream: Vec<String> = if metrics.is_some() {
        let mut classes = vec![String::new(); st.demand.len()];
        for (j, &si) in st.of_mix.iter().enumerate() {
            if classes[si].is_empty() {
                classes[si] = mix[j].1.name.clone();
            }
        }
        classes
    } else {
        Vec::new()
    };

    let mut events: Vec<TraceEvent> = Vec::new();
    let tracing = trace.is_some();
    let mut alive_prev = vec![false; n];
    let mut scale = 1.0f64;
    let mut min_scale = 1.0f64;
    let mut retries = 0u64;
    let mut migrations = 0u64;
    let mut failovers = 0u64;
    let mut downs = 0u64;
    let fault_reason = cfg.fault.as_ref().map_or("fault", |p| p.scenario.name());

    // Latest interval anything can still happen: the last arrival's final
    // frame, plus the longest possible backoff chain.
    let backoff_span: u32 = (1..cfg.router.max_attempts).map(|a| cfg.router.backoff_for(a)).sum();
    let k_max = cfg.arrival_intervals + frames + backoff_span + 2;

    // Incremental per-server aggregates over the *active* sessions. Every
    // state transition (admit, failover, migrate, finish, evict, cold→warm)
    // updates them in O(1), so router decisions stay O(servers) instead of
    // re-scanning every session — the difference between quadratic and
    // linear intervals at fleet-sized session counts.
    #[derive(Clone)]
    struct Srv {
        /// Aggregate Eq. 3 predicted demand of resident sessions.
        load: f64,
        /// Resident active sessions.
        active: u32,
        /// Resident session count per cost stream.
        stream_cnt: Vec<u32>,
        /// Full-scale frame-cost sum (cold for cold-pending sessions).
        cost: u64,
    }
    fn attach(srv: &mut [Srv], s: usize, stream: usize, demand: f64, cost: u64) {
        let e = &mut srv[s];
        e.load += demand;
        e.active += 1;
        e.stream_cnt[stream] += 1;
        e.cost += cost;
    }
    fn detach(srv: &mut [Srv], s: usize, stream: usize, demand: f64, cost: u64) {
        let e = &mut srv[s];
        e.load -= demand;
        e.active -= 1;
        e.stream_cnt[stream] -= 1;
        e.cost -= cost;
    }
    fn distinct(e: &Srv) -> usize {
        e.stream_cnt.iter().filter(|&&c| c > 0).count()
    }
    let n_streams = st.demand.len();
    let mut srv: Vec<Srv> =
        vec![Srv { load: 0.0, active: 0, stream_cnt: vec![0; n_streams], cost: 0 }; n];

    // Per-server demand at full scale, including the cross-stream tax.
    let server_demand = |srv: &[Srv], s: usize| -> u64 {
        srv[s].cost + switch_tax * distinct(&srv[s]).saturating_sub(1) as u64
    };

    let views = |srv: &[Srv], alive: &[bool]| -> Vec<ServerView> {
        srv.iter()
            .enumerate()
            .map(|(s, e)| ServerView {
                alive: alive[s],
                load: e.load,
                active: e.active,
                streams: (0..n_streams).filter(|&i| e.stream_cnt[i] > 0).collect(),
            })
            .collect()
    };

    // Compile the fault plan once into per-server schedules; the interval
    // loop then samples multipliers instead of re-deriving the product
    // schedule every quantum.
    let server_scheds: Vec<Option<oovr_gpu::RateSchedule>> =
        (0..n).map(|s| cfg.fault.as_ref().and_then(|p| p.server_schedule(s, n))).collect();

    for k in 0..=k_max {
        let t = k as Cycle * v;

        // 1. Server rates and up/down transitions.
        let rates: Vec<f64> = server_scheds
            .iter()
            .map(|sch| sch.as_ref().map_or(1.0, |s| s.multiplier_at(t)))
            .collect();
        let alive: Vec<bool> = rates.iter().map(|&r| r > 0.0).collect();
        for s in 0..n {
            if alive[s] && !alive_prev[s] {
                if tracing {
                    events.push(TraceEvent::ServerUp { cycle: t, server: s as u32 });
                }
                if let Some(reg) = metrics.as_deref_mut() {
                    reg.inc("server_up_transitions", &format!("srv{s}"), t, 1);
                }
            } else if !alive[s] && alive_prev[s] {
                downs += 1;
                if tracing {
                    events.push(TraceEvent::ServerDown {
                        cycle: t,
                        server: s as u32,
                        reason: fault_reason,
                    });
                }
                if let Some(reg) = metrics.as_deref_mut() {
                    reg.inc("server_down_transitions", &format!("srv{s}"), t, 1);
                }
            }
        }
        alive_prev.clone_from(&alive);

        // 2. Failover: pull in-flight sessions off dead servers. The
        //    residency guard does not apply — a dead host overrides
        //    placement stability. Warm restart is charged via the cold
        //    frame on the destination.
        if cfg.router.failover && alive.iter().any(|a| !a) {
            for (i, sess) in sessions.iter_mut().enumerate() {
                let server = sess.server;
                if sess.state != State::Active || alive[server] {
                    continue;
                }
                let vw = views(&srv, &alive);
                let key = cfg.seed ^ (i as u64).wrapping_mul(0x5851_F42D_4C95_7F2D);
                let stream = sess.stream;
                let dest = cfg
                    .policy
                    .order(key, stream, &vw)
                    .into_iter()
                    .find(|&d| alive[d] && d != server);
                if let Some(d) = dest {
                    let cost = if sess.cold_pending { st.cold[stream] } else { st.steady[stream] };
                    detach(&mut srv, server, stream, st.demand[stream], cost);
                    attach(&mut srv, d, stream, st.demand[stream], st.cold[stream]);
                    failovers += 1;
                    sess.moves += 1;
                    sess.cold_pending = true;
                    sess.last_move = k;
                    sess.server = d;
                    if tracing {
                        events.push(TraceEvent::SessionFailover {
                            cycle: t,
                            session: i as u32,
                            from: server as u32,
                            to: d as u32,
                        });
                    }
                    if let Some(reg) = metrics.as_deref_mut() {
                        reg.inc("session_failovers", "", t, 1);
                    }
                }
            }
        }

        // 3. Admission: arrivals and backed-off retries due this interval,
        //    in id order. The resilient router health-checks candidates
        //    (a dead server never admits); the fault-oblivious baseline
        //    will place sessions on one. When no candidate fits *right
        //    now*, the retrying router backs off and tries again, the
        //    baseline rejects.
        for (i, sess) in sessions.iter_mut().enumerate() {
            if sess.state != State::Waiting || sess.next_attempt != k {
                continue;
            }
            if k > sess.arrival + frames {
                // Backed off past its own last frame: nothing left to serve.
                sess.state = State::Rejected;
                if tracing {
                    events.push(TraceEvent::SessionReject {
                        cycle: t,
                        session: i as u32,
                        predicted: st.demand[sess.stream],
                        reason: "backoff-expired",
                    });
                }
                if let Some(reg) = metrics.as_deref_mut() {
                    reg.inc("sessions_rejected", "", t, 1);
                }
                continue;
            }
            let vw = views(&srv, &alive);
            let key = cfg.seed ^ (i as u64).wrapping_mul(0x5851_F42D_4C95_7F2D);
            let stream = sess.stream;
            let order = cfg.policy.order(key, stream, &vw);
            let attempt = sess.attempts + 1;
            sess.attempts = attempt;
            let demand = st.demand[stream];
            // First candidate in preference order with room right now; an
            // attempt fails only when *no* server fits, and only then do
            // retry/backoff (resilient) or rejection (baseline) differ.
            // Health checking is a router feature: the resilient router
            // never places a session on a dead server, while the
            // fault-oblivious baseline happily does. Both book capacity
            // against nominal budgets — refusing a merely *degraded*
            // server outright would waste the capacity it still has;
            // migration and shedding absorb the shortfall instead.
            let headroom = cfg.headroom.clamp(0.05, 1.0);
            let aware = cfg.router.failover;
            let cand = order
                .into_iter()
                .find(|&c| (!aware || alive[c]) && vw[c].load + demand <= headroom * v as f64);
            if let Some(cand) = cand {
                attach(&mut srv, cand, stream, demand, st.cold[stream]);
                sess.state = State::Active;
                sess.server = cand;
                sess.admitted_at = Some(k);
                sess.last_move = k;
                sess.cold_pending = true;
                if tracing {
                    events.push(TraceEvent::SessionRoute {
                        cycle: t,
                        session: i as u32,
                        server: cand as u32,
                        attempt,
                    });
                }
                if let Some(reg) = metrics.as_deref_mut() {
                    reg.inc("sessions_admitted", &format!("srv{cand}"), t, 1);
                }
            } else if cfg.router.retry && attempt < cfg.router.max_attempts {
                let backoff = cfg.router.backoff_for(attempt);
                sess.next_attempt = k + backoff;
                retries += 1;
                if tracing {
                    events.push(TraceEvent::RouteRetry {
                        cycle: t,
                        session: i as u32,
                        attempt,
                        backoff: backoff as Cycle * v,
                    });
                }
                if let Some(reg) = metrics.as_deref_mut() {
                    reg.inc("route_retries", "", t, 1);
                }
            } else {
                sess.state = State::Rejected;
                if tracing {
                    events.push(TraceEvent::SessionReject {
                        cycle: t,
                        session: i as u32,
                        predicted: demand,
                        reason: "capacity",
                    });
                }
                if let Some(reg) = metrics.as_deref_mut() {
                    reg.inc("sessions_rejected", "", t, 1);
                }
            }
        }

        // 4. Overload migration, behind the anti-ping-pong residency guard.
        if cfg.router.migrate {
            for s in 0..n {
                if !alive[s] {
                    continue;
                }
                let budget = (v as f64 * rates[s]) as u64;
                if server_demand(&srv, s) <= budget {
                    continue;
                }
                // Movers, most recently placed first, among sessions that
                // have sat out the residency guard; long-resident sessions
                // stay put. The eligible set only shrinks while we migrate
                // off `s`, so one scan per interval suffices.
                let mut movers: Vec<usize> = (0..sessions.len())
                    .filter(|&i| {
                        sessions[i].state == State::Active
                            && sessions[i].server == s
                            && k.saturating_sub(sessions[i].last_move) >= cfg.router.min_residency
                    })
                    .collect();
                movers.sort_by_key(|&i| (sessions[i].last_move, i));
                while server_demand(&srv, s) > budget {
                    let Some(i) = movers.pop() else { break };
                    let vw = views(&srv, &alive);
                    let key = cfg.seed ^ (i as u64).wrapping_mul(0x5851_F42D_4C95_7F2D);
                    let stream = sessions[i].stream;
                    let dest = cfg.policy.order(key, stream, &vw).into_iter().find(|&d| {
                        d != s
                            && alive[d]
                            && server_demand(&srv, d) + st.cold[stream]
                                <= (v as f64 * rates[d]) as u64
                    });
                    let Some(d) = dest else { break };
                    let cost =
                        if sessions[i].cold_pending { st.cold[stream] } else { st.steady[stream] };
                    detach(&mut srv, s, stream, st.demand[stream], cost);
                    attach(&mut srv, d, stream, st.demand[stream], st.cold[stream]);
                    migrations += 1;
                    sessions[i].moves += 1;
                    sessions[i].cold_pending = true;
                    sessions[i].last_move = k;
                    let from = sessions[i].server;
                    sessions[i].server = d;
                    if tracing {
                        events.push(TraceEvent::SessionMigrate {
                            cycle: t,
                            session: i as u32,
                            from: from as u32,
                            to: d as u32,
                            reason: "overload",
                        });
                    }
                    if let Some(reg) = metrics.as_deref_mut() {
                        reg.inc("session_migrations", "", t, 1);
                    }
                }
            }
        }

        // 5. Cluster-wide graceful degradation: shed shade scale so the
        //    most overloaded server fits, never below the floor; recover
        //    multiplicatively once no server is overloaded.
        if cfg.router.shed {
            let mut worst = 1.0f64;
            for s in 0..n {
                if !alive[s] {
                    continue;
                }
                let demand = server_demand(&srv, s);
                let budget = v as f64 * rates[s];
                if demand > 0 {
                    worst = worst.min(budget / demand as f64);
                }
            }
            if worst < 1.0 {
                let target = worst.max(shed_floor);
                if target < scale {
                    scale = target;
                    min_scale = min_scale.min(scale);
                    if tracing {
                        events.push(TraceEvent::Shed {
                            cycle: t,
                            scale,
                            reason: "cluster-overload",
                        });
                    }
                    if let Some(reg) = metrics.as_deref_mut() {
                        reg.inc("cluster_sheds", "", t, 1);
                    }
                }
            } else if scale < 1.0 {
                scale = (scale / shed_step).min(1.0);
            }
        }

        // 6. Serve: per server, sessions in id order (EDF under the shared
        //    per-interval deadline); frames that do not fit miss without
        //    consuming budget. Dead servers serve nothing.
        let eff_scale = if cfg.router.shed { scale } else { 1.0 };
        let mut remaining: Vec<u64> = (0..n)
            .map(|s| {
                if !alive[s] {
                    return 0;
                }
                ((v as f64 * rates[s]) as u64)
                    .saturating_sub(switch_tax * distinct(&srv[s]).saturating_sub(1) as u64)
            })
            .collect();
        for sess in sessions.iter_mut() {
            if sess.state != State::Active || k < sess.arrival {
                continue;
            }
            let f = k - sess.arrival;
            if f > frames {
                continue;
            }
            let s = sess.server;
            let full = if f == 0 || sess.cold_pending {
                st.cold[sess.stream]
            } else {
                st.steady[sess.stream]
            };
            let cost = (((full as f64) * eff_scale).round() as u64).max(1);
            if alive[s] && cost <= remaining[s] {
                remaining[s] -= cost;
                if sess.cold_pending {
                    srv[s].cost = srv[s].cost - st.cold[sess.stream] + st.steady[sess.stream];
                }
                sess.cold_pending = false;
                sess.misses_in_a_row = 0;
                if f >= 1 {
                    sess.on_time += 1;
                    if eff_scale < 1.0 {
                        sess.degraded += 1;
                    }
                    if let Some(reg) = metrics.as_deref_mut() {
                        sess.metered += 1;
                        let label = format!("srv{s}");
                        reg.inc("frames", &label, t, 1);
                        if eff_scale < 1.0 {
                            reg.inc("frames_degraded", &label, t, 1);
                        }
                        let class = &class_of_stream[sess.stream];
                        reg.inc("class_frames", class, t, 1);
                    }
                }
            } else {
                sess.misses_in_a_row += 1;
                if f >= 1 {
                    if let Some(reg) = metrics.as_deref_mut() {
                        sess.metered += 1;
                        let label = format!("srv{s}");
                        reg.inc("frames", &label, t, 1);
                        reg.inc("frames_missed", &label, t, 1);
                        let class = &class_of_stream[sess.stream];
                        reg.inc("class_frames", class, t, 1);
                        reg.inc("class_frames_missed", class, t, 1);
                    }
                }
            }
            if f == frames {
                let held =
                    if sess.cold_pending { st.cold[sess.stream] } else { st.steady[sess.stream] };
                detach(&mut srv, s, sess.stream, st.demand[sess.stream], held);
                sess.state = State::Done;
            }
        }

        // 7. Eviction, strictly last resort: only once shedding is pinned
        //    at the floor and a session still cannot make its vsyncs.
        if cfg.router.evict {
            let at_floor = !cfg.router.shed || scale <= shed_floor + 1e-9;
            for (i, sess) in sessions.iter_mut().enumerate() {
                if sess.state == State::Active
                    && at_floor
                    && sess.misses_in_a_row >= cfg.evict_after.max(1)
                {
                    let held = if sess.cold_pending {
                        st.cold[sess.stream]
                    } else {
                        st.steady[sess.stream]
                    };
                    detach(&mut srv, sess.server, sess.stream, st.demand[sess.stream], held);
                    sess.state = State::Evicted;
                    if tracing {
                        events.push(TraceEvent::FrameDrop {
                            cycle: t,
                            session: i as u32,
                            frame: k - sess.arrival,
                            reason: "evicted",
                        });
                    }
                    if let Some(reg) = metrics.as_deref_mut() {
                        reg.inc("sessions_evicted", "", t, 1);
                    }
                }
            }
        }

        if sessions
            .iter()
            .all(|s| matches!(s.state, State::Done | State::Rejected | State::Evicted))
        {
            break;
        }
    }

    if let Some(rec) = trace {
        record_trace(rec, events);
    }

    if let Some(reg) = metrics {
        // Reconcile never-served frames: goodput charges rejected, lost and
        // evicted sessions' frames against the cluster, so the registry
        // must too. Whatever phase 6 did not account lands on the
        // `unrouted` label at the session's last deadline, making
        // `frames_missed/frames` over all labels equal `miss_rate()`.
        for s in &sessions {
            let lost = u64::from(frames).saturating_sub(s.metered);
            if lost > 0 {
                let t_last = Cycle::from(s.arrival + frames) * v;
                reg.inc("frames", "unrouted", t_last, lost);
                reg.inc("frames_missed", "unrouted", t_last, lost);
                let class = &class_of_stream[s.stream];
                reg.inc("class_frames", class, t_last, lost);
                reg.inc("class_frames_missed", class, t_last, lost);
            }
        }
        reg.set_gauge("min_scale", "", min_scale);
    }

    let outcomes: Vec<ClusterSession> = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| ClusterSession {
            id: i as u32,
            stream: s.stream,
            arrival: s.arrival,
            admitted_at: s.admitted_at,
            server: s.admitted_at.map(|_| s.server as u32),
            on_time: s.on_time,
            degraded: s.degraded,
            moves: s.moves,
            evicted: s.state == State::Evicted,
        })
        .collect();
    let admitted = outcomes.iter().filter(|s| s.admitted_at.is_some()).count() as u32;
    ClusterOutcome {
        servers: cfg.servers,
        offered: cfg.sessions,
        admitted,
        rejected: cfg.sessions - admitted,
        evicted: outcomes.iter().filter(|s| s.evicted).count() as u32,
        retries,
        migrations,
        failovers,
        downs,
        frames_offered: cfg.sessions as u64 * frames as u64,
        on_time: outcomes.iter().map(|s| s.on_time).sum(),
        degraded: outcomes.iter().map(|s| s.degraded).sum(),
        min_scale,
        sessions: outcomes,
    }
}

/// Exact feasibility of `m` warm sessions of `mix` on `n` fault-free
/// servers under `policy`: sessions are placed once (first candidate with
/// room at full utilization, forced onto the first candidate when nothing
/// fits), then every session serves a steady frame per interval for
/// [`CLUSTER_PROBE_FRAMES`] intervals. Feasible while the missed-vsync
/// fraction stays under [`MISS_BUDGET`].
fn cluster_feasible(
    m: u32,
    st: &Streams,
    n: usize,
    v: Cycle,
    switch_tax: u64,
    policy: Placement,
    seed: u64,
) -> bool {
    if m == 0 {
        return true;
    }
    // Placement pass over per-server (demand, streams) state.
    let mut demand = vec![0u64; n];
    let mut streams: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut placed: Vec<(usize, usize)> = Vec::with_capacity(m as usize); // (server, stream)
    let mut vw: Vec<ServerView> =
        (0..n).map(|_| ServerView { alive: true, ..ServerView::default() }).collect();
    for i in 0..m {
        let stream = st.of_mix[i as usize % st.of_mix.len()];
        let key = seed ^ (i as u64).wrapping_mul(0x5851_F42D_4C95_7F2D);
        let order = policy.order(key, stream, &vw);
        let fits = |s: usize| {
            let tax = if streams[s].is_empty() || streams[s].contains(&stream) {
                switch_tax * streams[s].len().saturating_sub(1) as u64
            } else {
                switch_tax * streams[s].len() as u64
            };
            demand[s] + st.steady[stream] + tax <= v
        };
        let s = order.iter().copied().find(|&s| fits(s)).unwrap_or(order[0]);
        demand[s] += st.steady[stream];
        if !streams[s].contains(&stream) {
            streams[s].push(stream);
        }
        placed.push((s, stream));
        vw[s].load += st.demand[stream];
        vw[s].active += 1;
        if !vw[s].streams.contains(&stream) {
            vw[s].streams.push(stream);
        }
    }
    // Steady serving: per interval, per server, id order.
    let total = m as u64 * CLUSTER_PROBE_FRAMES as u64;
    let allowed = ((total as f64) * MISS_BUDGET).floor() as u64;
    let budget: Vec<u64> = (0..n)
        .map(|s| v.saturating_sub(switch_tax * streams[s].len().saturating_sub(1) as u64))
        .collect();
    let mut missed = 0u64;
    for _ in 0..CLUSTER_PROBE_FRAMES {
        let mut remaining = budget.clone();
        for &(s, stream) in &placed {
            let cost = st.steady[stream];
            if cost <= remaining[s] {
                remaining[s] -= cost;
            } else {
                missed += 1;
                if missed > allowed {
                    return false;
                }
            }
        }
    }
    true
}

/// Maximum concurrent warm sessions of `mix` an `n_servers` fault-free
/// cluster sustains under `policy` at under [`MISS_BUDGET`] missed vsyncs.
/// Deterministic and pure; the single-server case (`n_servers == 1`)
/// is the per-interval analogue of [`crate::capacity::capacity`].
pub fn cluster_capacity(
    mix: &[(ServeScheme, BenchmarkSpec)],
    gpu: &GpuConfig,
    n_servers: u32,
    policy: Placement,
    cfg: &ClusterConfig,
) -> u32 {
    assert!(!mix.is_empty(), "cluster mix must name at least one workload");
    let n = (n_servers as usize).max(1);
    let st = resolve_streams(mix, gpu, cfg);
    let v = cfg.vsync_cycles.max(1);
    let switch_tax = ((v as f64) * cfg.switch_frac.max(0.0)) as u64;
    // Seed at the utilization bound over the cheapest stream.
    let min_steady = st.steady.iter().copied().min().unwrap_or(1).max(1);
    search(n as Cycle * v, min_steady, |m| {
        cluster_feasible(m, &st, n, v, switch_tax, policy, cfg.seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_gpu::FaultScenario;
    use oovr_scene::benchmarks;

    fn mix() -> Vec<(ServeScheme, BenchmarkSpec)> {
        vec![(ServeScheme::OoVr, benchmarks::hl2_640().scaled(0.05))]
    }

    fn two_stream_mix() -> Vec<(ServeScheme, BenchmarkSpec)> {
        vec![
            (ServeScheme::OoVr, benchmarks::hl2_640().scaled(0.05)),
            (ServeScheme::OoVr, benchmarks::we().scaled(0.05)),
        ]
    }

    fn small_cfg() -> ClusterConfig {
        ClusterConfig { sessions: 40, frames_per_session: 16, ..ClusterConfig::default() }
    }

    #[test]
    fn fault_free_cluster_serves_everything_it_admits() {
        let out = simulate_cluster(&mix(), &GpuConfig::default(), &small_cfg(), None);
        assert_eq!(out.offered, 40);
        assert_eq!(out.admitted, 40, "a small offered load must fully admit");
        assert_eq!(out.on_time, out.frames_offered, "fault-free run must serve every frame");
        assert_eq!(out.downs, 0);
        assert_eq!(out.failovers, 0);
        assert!((out.goodput() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_mix_entries_share_one_stream() {
        let gpu = GpuConfig::default();
        let doubled = vec![mix()[0].clone(), mix()[0].clone()];
        let st = resolve_streams(&doubled, &gpu, &ClusterConfig::default());
        assert_eq!(st.cold.len(), 1);
        assert_eq!(st.of_mix, vec![0, 0]);
    }

    #[test]
    fn temporal_mix_raises_cluster_capacity_and_collapses_at_zero() {
        let gpu = GpuConfig::default();
        let cfg = ClusterConfig::default();
        let spec = benchmarks::hl2_640().scaled(0.05);
        let plain = vec![(ServeScheme::OoVr, spec.clone())];
        let temporal = vec![(ServeScheme::OoVrTemporal, spec)];
        let base = cluster_capacity(&plain, &gpu, 2, Placement::LeastLoaded, &cfg);
        let reuse = cluster_capacity(&temporal, &gpu, 2, Placement::LeastLoaded, &cfg);
        assert!(reuse > base, "temporal cluster capacity {reuse} must exceed plain {base}");
        // Threshold 0: the temporal stream's discounted costs equal the
        // plain OO-VR stream's, so the tier behaves identically.
        let exact = ClusterConfig { temporal: oovr::TemporalConfig::exact(), ..cfg };
        let st_t = resolve_streams(&temporal, &gpu, &exact);
        let st_p = resolve_streams(&plain, &gpu, &exact);
        assert_eq!(st_t.steady, st_p.steady);
        assert_eq!(st_t.cold, st_p.cold);
        for (a, b) in st_t.demand.iter().zip(&st_p.demand) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let gpu = GpuConfig::default();
        let cfg = ClusterConfig {
            fault: Some(FaultPlan::new(FaultScenario::GpmThrottle, 0.7, 11)),
            ..small_cfg()
        };
        let a = simulate_cluster(&two_stream_mix(), &gpu, &cfg, None);
        let b = simulate_cluster(&two_stream_mix(), &gpu, &cfg, None);
        assert_eq!(a.on_time, b.on_time);
        assert_eq!(a.sessions, b.sessions);
    }

    #[test]
    fn dead_server_triggers_failover_and_baseline_loses_more() {
        let gpu = GpuConfig::default();
        let horizon = VSYNC_90HZ_CYCLES * 24;
        let plan = FaultPlan::new(FaultScenario::LinkDown, 1.0, 3).with_horizon(horizon);
        assert!(plan.disturbs_servers(4, VSYNC_90HZ_CYCLES));
        let resilient = ClusterConfig { sessions: 200, fault: Some(plan.clone()), ..small_cfg() };
        let baseline = ClusterConfig { router: RouterConfig::baseline(), ..resilient.clone() };
        let r = simulate_cluster(&mix(), &gpu, &resilient, None);
        let b = simulate_cluster(&mix(), &gpu, &baseline, None);
        assert!(r.downs > 0, "the fault must kill a server at least once");
        assert!(r.failovers > 0, "dead server must trigger failovers");
        assert_eq!(b.failovers, 0);
        assert!(
            r.goodput() > b.goodput(),
            "resilient {} must strictly beat baseline {}",
            r.goodput(),
            b.goodput()
        );
    }

    #[test]
    fn capacity_scales_with_servers() {
        let gpu = GpuConfig::default();
        let cfg = ClusterConfig::default();
        let one = cluster_capacity(&mix(), &gpu, 1, Placement::LeastLoaded, &cfg);
        let four = cluster_capacity(&mix(), &gpu, 4, Placement::LeastLoaded, &cfg);
        assert!(one > 0);
        assert!(
            four as f64 >= 0.9 * 4.0 * one as f64,
            "N=4 capacity {four} must reach 90% of 4x the N=1 capacity {one}"
        );
    }

    #[test]
    fn affinity_packing_beats_least_loaded_on_shared_streams() {
        let gpu = GpuConfig::default();
        let cfg = ClusterConfig::default();
        let ll = cluster_capacity(&two_stream_mix(), &gpu, 4, Placement::LeastLoaded, &cfg);
        let af = cluster_capacity(&two_stream_mix(), &gpu, 4, Placement::Affinity, &cfg);
        assert!(
            af > ll,
            "affinity packing ({af}) must strictly beat least-loaded ({ll}) on a shared-stream mix"
        );
    }

    #[test]
    fn zero_severity_fault_plan_is_bit_identical_to_no_plan() {
        let gpu = GpuConfig::default();
        let base = small_cfg();
        let with_noop = ClusterConfig { fault: Some(FaultPlan::none()), ..base.clone() };
        let a = simulate_cluster(&two_stream_mix(), &gpu, &base, None);
        let b = simulate_cluster(&two_stream_mix(), &gpu, &with_noop, None);
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.on_time, b.on_time);
        assert_eq!(a.retries, b.retries);
    }

    #[test]
    fn cluster_runs_emit_cluster_events() {
        let gpu = GpuConfig::default();
        let horizon = VSYNC_90HZ_CYCLES * 24;
        let cfg = ClusterConfig {
            sessions: 200,
            fault: Some(FaultPlan::new(FaultScenario::LinkDown, 1.0, 3).with_horizon(horizon)),
            ..small_cfg()
        };
        let mut rec = Recorder::new(oovr_trace::TraceConfig::default());
        let out = simulate_cluster(&mix(), &gpu, &cfg, Some(&mut rec));
        let events = rec.into_events();
        let ups = events.iter().filter(|e| matches!(e, TraceEvent::ServerUp { .. })).count();
        let routes = events.iter().filter(|e| matches!(e, TraceEvent::SessionRoute { .. })).count();
        let fails =
            events.iter().filter(|e| matches!(e, TraceEvent::SessionFailover { .. })).count();
        assert!(ups >= 4, "every server must announce itself");
        assert_eq!(routes as u32, out.admitted);
        assert_eq!(fails as u64, out.failovers);
        assert!(fails > 0);
    }
}
