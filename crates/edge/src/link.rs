//! The client–edge network link: bandwidth, latency, and seeded loss.
//!
//! The link is deliberately "just another bandwidth server": the same
//! [`BandwidthServer`] queueing model the memory system uses for DRAM
//! and inter-GPM fabric, provisioned against the aggregate encoded-frame
//! demand and shaped by the same compiled [`FaultPlan`] schedules the
//! cluster tier applies to its servers ([`FaultPlan::server_schedule`]).
//! Loss rides the same schedule: while the fault plan degrades the link
//! multiplier below 1.0, the per-frame loss probability rises from
//! [`LinkConfig::base_loss`] toward `base_loss + fault_loss`. Every loss
//! draw is seeded per `(session, frame)`, so the link replays
//! bit-identically and is independent of propagation latency and of the
//! client's reprojection policy.

use oovr_gpu::FaultPlan;
use oovr_mem::{BandwidthServer, RateSchedule};
use oovr_trace::Cycle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the client–edge link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Link capacity as a multiple of the aggregate steady encoded-frame
    /// demand (`sessions × steady_bytes / V`). `f64::INFINITY` models an
    /// ideal unbounded link (no queueing, no byte-budget admission); a
    /// zero, negative or NaN provision carries nothing.
    pub provision: f64,
    /// Fixed propagation latency in cycles, added after queueing.
    pub latency: Cycle,
    /// Encoded frame size per 1000 shaded pixels, in bytes.
    pub bytes_per_kpixel: u64,
    /// Edge-side encode cost per 1000 shaded pixels, in cycles. The
    /// default (1.2 cycles/px, a hardware-class encoder) is sized so the
    /// heaviest paper workload's encode + serialization + propagation
    /// still fits inside its measured full-scale EDF slack (~11M cycles
    /// at 4.5 Mpx): 2 cycles/px would push every DM3-1600 delivery past
    /// its deadline on an otherwise healthy link.
    pub encode_cycles_per_kpixel: Cycle,
    /// Frame loss probability on the healthy link.
    pub base_loss: f64,
    /// Additional loss probability at full link degradation (scaled by
    /// `1 - multiplier` of the compiled fault schedule).
    pub fault_loss: f64,
    /// Fault plan compiled onto the link (the plan's victim-server
    /// schedule shapes both bandwidth and loss, so every scenario bites).
    pub fault: Option<FaultPlan>,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            provision: 2.0,
            latency: oovr_gpu::VSYNC_90HZ_CYCLES / 8,
            bytes_per_kpixel: 200,
            encode_cycles_per_kpixel: 1200,
            base_loss: 0.01,
            fault_loss: 0.5,
            fault: None,
        }
    }
}

impl LinkConfig {
    /// The degenerate (ideal) link: unbounded bandwidth, zero latency,
    /// zero encode cost, zero bytes, zero loss, no fault plan. A split
    /// run over this link is bit-identical to local-only serving
    /// (pinned by `prop_edge`).
    pub fn degenerate() -> Self {
        LinkConfig {
            provision: f64::INFINITY,
            latency: 0,
            bytes_per_kpixel: 0,
            encode_cycles_per_kpixel: 0,
            base_loss: 0.0,
            fault_loss: 0.0,
            fault: None,
        }
    }

    /// The fault schedule compiled onto the link, if any: the plan's
    /// victim server in a 2-node (client, edge) world, so link-degrade,
    /// link-down, GPM-throttle, stall, and mixed scenarios all surface
    /// as link capacity/loss windows.
    pub fn compiled_schedule(&self) -> Option<RateSchedule> {
        let plan = self.fault.as_ref()?;
        plan.server_schedule(plan.victim(2).index(), 2)
    }
}

/// The simulated link: a seeded lossy bandwidth server.
#[derive(Debug, Clone)]
pub struct NetworkLink {
    /// Capacity in bytes per cycle; `None` = unbounded.
    capacity: Option<f64>,
    server: Option<BandwidthServer>,
    schedule: Option<RateSchedule>,
    latency: Cycle,
    base_loss: f64,
    fault_loss: f64,
    seed: u64,
}

impl NetworkLink {
    /// Builds the link for one run. `session_rate` is one session's
    /// steady encoded-byte demand per cycle; the capacity is
    /// `provision × sessions × session_rate`. Only an infinite provision
    /// or zero demand leaves the link unbounded: zero demand carries
    /// nothing worth queueing and degrades to a pure-latency link. A
    /// zero, negative or NaN provision is a bounded link of zero
    /// capacity, which admission turns every session away from.
    pub fn new(cfg: &LinkConfig, session_rate: f64, sessions: u32, seed: u64) -> Self {
        let schedule = cfg.compiled_schedule();
        let bounded = cfg.provision != f64::INFINITY && session_rate > 0.0;
        let capacity =
            bounded.then(|| (cfg.provision * session_rate * f64::from(sessions.max(1))).max(0.0));
        let server = capacity.filter(|&c| c > 0.0).map(|c| {
            let mut srv = BandwidthServer::new(c, cfg.latency);
            srv.set_schedule(schedule.clone());
            srv
        });
        NetworkLink {
            capacity,
            server,
            schedule,
            latency: cfg.latency,
            base_loss: cfg.base_loss,
            fault_loss: cfg.fault_loss,
            seed,
        }
    }

    /// Bytes-per-cycle capacity of a bounded link (`None` = unbounded).
    pub fn bytes_per_cycle(&self) -> Option<f64> {
        self.capacity
    }

    /// Queues `bytes` at `now` and returns the client-side arrival cycle
    /// (serialization + queueing + propagation). Lost frames are charged
    /// through here too — a dropped packet still burned the air time.
    pub fn transfer(&mut self, now: Cycle, bytes: u64) -> Cycle {
        match &mut self.server {
            Some(srv) => srv.transfer(now, bytes),
            None => now + self.latency,
        }
    }

    /// Loss probability for a frame entering the link at `at`.
    pub fn loss_probability(&self, at: Cycle) -> f64 {
        let mult = self.schedule.as_ref().map_or(1.0, |s| s.multiplier_at(at));
        (self.base_loss + self.fault_loss * (1.0 - mult)).clamp(0.0, 1.0)
    }

    /// Seeded loss draw for `(session, frame)` entering the link at
    /// `at`. Zero-probability windows draw nothing, so an all-zero loss
    /// config is bit-free (no RNG state is ever created).
    pub fn is_lost(&self, session: u32, frame: u32, at: Cycle) -> bool {
        let p = self.loss_probability(at);
        if p <= 0.0 {
            return false;
        }
        let key = ((u64::from(session) << 32) | u64::from(frame)).wrapping_add(1);
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ 0x00ED_6E11 ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        rng.gen_bool(p.min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_gpu::FaultScenario;

    #[test]
    fn degenerate_link_is_free_and_lossless() {
        let cfg = LinkConfig::degenerate();
        let mut link = NetworkLink::new(&cfg, 0.0, 8, 42);
        assert_eq!(link.transfer(1234, 999_999), 1234);
        assert_eq!(link.loss_probability(0), 0.0);
        assert!(!link.is_lost(0, 1, 0));
        assert!(link.bytes_per_cycle().is_none());
    }

    #[test]
    fn bounded_link_serializes_and_adds_latency() {
        let cfg = LinkConfig { provision: 1.0, latency: 100, ..LinkConfig::default() };
        // One session at 2 bytes/cycle steady demand → capacity 2 B/cyc.
        let mut link = NetworkLink::new(&cfg, 2.0, 1, 0);
        // 200 bytes at 2 B/cyc = 100 cycles serialization + 100 latency.
        assert_eq!(link.transfer(0, 200), 200);
        // Queued behind the first transfer.
        assert_eq!(link.transfer(0, 200), 300);
    }

    #[test]
    fn fault_plan_raises_loss_inside_degraded_windows() {
        let plan = FaultPlan::new(FaultScenario::LinkDown, 1.0, 3).with_horizon(1_000_000);
        let cfg = LinkConfig { fault: Some(plan), ..LinkConfig::default() };
        let link = NetworkLink::new(&cfg, 1.0, 4, 7);
        let sched = cfg.compiled_schedule().expect("link-down compiles a schedule");
        // Find an outage window and a healthy window.
        let outage = (0..1_000_000u64).step_by(1000).find(|&t| sched.multiplier_at(t) == 0.0);
        let t_down = outage.expect("severity-1.0 link-down must have an outage");
        assert!(link.loss_probability(t_down) > cfg.base_loss + 0.4);
        let t_up = (0..1_000_000u64)
            .step_by(1000)
            .find(|&t| sched.multiplier_at(t) == 1.0)
            .expect("link recovers between outages");
        assert!((link.loss_probability(t_up) - cfg.base_loss).abs() < 1e-12);
    }

    #[test]
    fn loss_draws_replay_per_seed_and_key() {
        let cfg = LinkConfig { base_loss: 0.5, ..LinkConfig::default() };
        let a = NetworkLink::new(&cfg, 1.0, 4, 99);
        let b = NetworkLink::new(&cfg, 1.0, 4, 99);
        for s in 0..4 {
            for f in 0..16 {
                assert_eq!(a.is_lost(s, f, 0), b.is_lost(s, f, 0));
            }
        }
        // Across many keys both outcomes occur at p=0.5.
        let lost = (0..256).filter(|&f| a.is_lost(0, f, 0)).count();
        assert!(lost > 64 && lost < 192, "loss rate should be near 0.5, got {lost}/256");
    }
}
