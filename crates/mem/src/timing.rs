//! Bandwidth/timing model: DRAM channels and NVLinks as FIFO servers.
//!
//! Table 2 of the paper: 1 TB/s local DRAM per GPM, 64 GB/s unidirectional
//! NVLink per GPM pair, 1 GHz clock. At 1 GHz, 1 TB/s = 1000 B/cycle and
//! 64 GB/s = 64 B/cycle. Each server drains a FIFO of byte quanta; the
//! completion time of a transfer is when the server has drained it, which
//! models both bandwidth and queueing delay without per-packet events.

use crate::placement::GpmId;
use crate::stats::Traffic;

/// Simulation time in GPU clock cycles (1 GHz per Table 2).
pub type Cycle = u64;

/// A piecewise-constant service-rate multiplier over simulated time.
///
/// Fault injection (link retrain, thermal throttling, transient stalls)
/// modulates a server's nominal rate: during a segment with multiplier `m`,
/// the server delivers `m ×` its nominal bytes/cycle (or, for a GPM pipeline
/// server, retires `m ×` its nominal compute). A multiplier of `0` models a
/// fully stalled window (e.g. an NVLink retraining). The schedule's *last*
/// segment extends forever and must have a positive multiplier, so every
/// transfer eventually completes.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    /// `(start_cycle, multiplier)` breakpoints, sorted by start. The first
    /// segment starts at cycle 0; each segment lasts until the next start.
    segments: Vec<(Cycle, f64)>,
}

impl RateSchedule {
    /// Creates a schedule from `(start_cycle, multiplier)` breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, does not start at cycle 0, has
    /// non-increasing starts, contains a negative or non-finite multiplier,
    /// or ends on a zero multiplier (the tail must make progress).
    pub fn new(segments: Vec<(Cycle, f64)>) -> Self {
        assert!(!segments.is_empty(), "rate schedule needs at least one segment");
        assert_eq!(segments[0].0, 0, "rate schedule must start at cycle 0");
        for w in segments.windows(2) {
            assert!(w[0].0 < w[1].0, "rate schedule starts must be strictly increasing");
        }
        for &(_, m) in &segments {
            assert!(m.is_finite() && m >= 0.0, "rate multiplier must be finite and >= 0");
        }
        let last = segments.last().map(|&(_, m)| m).unwrap_or(0.0);
        assert!(last > 0.0, "final schedule segment must have a positive multiplier");
        RateSchedule { segments }
    }

    /// A constant schedule (useful as an explicit identity).
    pub fn constant(multiplier: f64) -> Self {
        RateSchedule::new(vec![(0, multiplier)])
    }

    /// The rate multiplier in effect at cycle `t`.
    pub fn multiplier_at(&self, t: Cycle) -> f64 {
        let i = self.segments.partition_point(|&(s, _)| s <= t);
        self.segments[i - 1].1
    }

    /// The `(start_cycle, multiplier)` breakpoints, sorted by start. Lets
    /// schedule *combinators* (e.g. the fault compiler's per-server product
    /// of a GPM schedule and a link schedule) walk the exact segment
    /// structure instead of sampling.
    pub fn segments(&self) -> &[(Cycle, f64)] {
        &self.segments
    }

    /// Completion time of `work` nominal cycles of service starting at
    /// `start` (both in fractional cycles): walks the segments, spending
    /// `multiplier × wall-time` of work in each. Zero-multiplier segments
    /// contribute wall time but no progress.
    pub fn advance(&self, start: f64, work: f64) -> f64 {
        self.advance_with_hint(0, start, work).0
    }

    /// Like [`advance`](Self::advance), but resumes the segment search from
    /// `hint` — the index returned by the previous call. Servers and GPM
    /// clocks only move forward in time, so a cached cursor replaces the
    /// per-call binary search with (usually) zero forward steps. A hint that
    /// does not cover `start` (stale, or out of range) falls back to the
    /// search, so any `hint` is safe and `0` reproduces
    /// [`advance`](Self::advance) exactly. Returns
    /// `(completion_time, segment_index_at_completion)`.
    pub fn advance_with_hint(&self, hint: usize, start: f64, work: f64) -> (f64, usize) {
        debug_assert!(work >= 0.0 && start >= 0.0);
        let mut pos = start.max(0.0);
        let mut left = work;
        let mut i = if hint < self.segments.len() && (self.segments[hint].0 as f64) <= pos {
            let mut i = hint;
            while i + 1 < self.segments.len() && (self.segments[i + 1].0 as f64) <= pos {
                i += 1;
            }
            i
        } else {
            self.segments.partition_point(|&(s, _)| (s as f64) <= pos).saturating_sub(1)
        };
        while i + 1 < self.segments.len() {
            let m = self.segments[i].1;
            let seg_end = self.segments[i + 1].0 as f64;
            let capacity = m * (seg_end - pos).max(0.0);
            if m > 0.0 && left <= capacity {
                return (pos + left / m, i);
            }
            left -= capacity;
            pos = seg_end;
            i += 1;
        }
        // Tail segment: positive multiplier guaranteed by the constructor.
        (pos + left / self.segments[i].1, i)
    }
}

/// A FIFO bandwidth server: `bytes_per_cycle` of service rate, optionally
/// modulated by a fault-injection [`RateSchedule`].
#[derive(Debug, Clone)]
pub struct BandwidthServer {
    bytes_per_cycle: f64,
    /// Time at which previously queued work drains.
    free_at_fp: f64,
    /// Fixed latency added to every transfer (propagation + protocol).
    latency: Cycle,
    /// Total bytes served (utilization accounting).
    served: u64,
    /// Busy cycles accumulated.
    busy: f64,
    /// Time-varying rate multiplier; `None` is the exact fixed-rate path.
    schedule: Option<RateSchedule>,
    /// Segment cursor into `schedule` from the last transfer: a server's
    /// start times are monotone, so [`RateSchedule::advance_with_hint`]
    /// resumes here instead of re-searching the breakpoints.
    cursor: usize,
}

impl BandwidthServer {
    /// Creates a server.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive.
    pub fn new(bytes_per_cycle: f64, latency: Cycle) -> Self {
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        BandwidthServer {
            bytes_per_cycle,
            free_at_fp: 0.0,
            latency,
            served: 0,
            busy: 0.0,
            schedule: None,
            cursor: 0,
        }
    }

    /// Installs (or clears) a fault-injection rate schedule.
    pub fn set_schedule(&mut self, schedule: Option<RateSchedule>) {
        self.schedule = schedule;
        self.cursor = 0;
    }

    /// The installed rate schedule, if any.
    pub fn schedule(&self) -> Option<&RateSchedule> {
        self.schedule.as_ref()
    }

    /// Enqueues a transfer of `bytes` arriving at `now`; returns the cycle
    /// at which the last byte is delivered.
    pub fn transfer(&mut self, now: Cycle, bytes: u64) -> Cycle {
        if bytes == 0 {
            return now;
        }
        let start = self.free_at_fp.max(now as f64);
        let service = bytes as f64 / self.bytes_per_cycle;
        match &self.schedule {
            None => {
                self.free_at_fp = start + service;
                self.busy += service;
            }
            Some(s) => {
                let (end, cur) = s.advance_with_hint(self.cursor, start, service);
                self.cursor = cur;
                self.free_at_fp = end;
                self.busy += end - start;
            }
        }
        self.served += bytes;
        (self.free_at_fp.ceil() as Cycle) + self.latency
    }

    /// Time the server becomes idle (ignoring latency).
    pub fn free_at(&self) -> Cycle {
        self.free_at_fp.ceil() as Cycle
    }

    /// Queue depth at `now`, expressed as the number of cycles a request
    /// arriving at `now` would wait before the server is free. Used by the
    /// tracing layer's bandwidth-window samples; purely observational.
    pub fn queue_depth_at(&self, now: Cycle) -> Cycle {
        self.free_at().saturating_sub(now)
    }

    /// Total bytes served.
    pub fn served_bytes(&self) -> u64 {
        self.served
    }

    /// Busy cycles accumulated.
    pub fn busy_cycles(&self) -> f64 {
        self.busy
    }

    /// Service rate in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }
}

/// Timing parameters of the NUMA fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricParams {
    /// Local DRAM bandwidth per GPM, bytes/cycle (Table 2: 1000).
    pub dram_bytes_per_cycle: f64,
    /// Link bandwidth per directed GPM pair, bytes/cycle (Table 2: 64).
    pub link_bytes_per_cycle: f64,
    /// DRAM access latency in cycles. Kept small: a quantum represents
    /// thousands of in-flight threads whose latency the GPU hides (§6.2 of
    /// the paper: inter-GPM delays are "fully hidden by executing thousands
    /// of threads"); bandwidth, not latency, is the modeled bottleneck.
    pub dram_latency: Cycle,
    /// Additional link latency in cycles.
    pub link_latency: Cycle,
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams {
            dram_bytes_per_cycle: 1000.0,
            link_bytes_per_cycle: 64.0,
            dram_latency: 0,
            link_latency: 0,
        }
    }
}

/// The timed NUMA fabric: one DRAM server per GPM and one link server per
/// directed GPM pair (the paper assumes dedicated pairwise links: "each pair
/// of ports is used to connect two GPMs", §3).
#[derive(Debug, Clone)]
pub struct NumaTiming {
    n: usize,
    dram: Vec<BandwidthServer>,
    links: Vec<BandwidthServer>,
    params: FabricParams,
}

impl NumaTiming {
    /// Creates the fabric for `n_gpms` GPMs.
    pub fn new(n_gpms: usize, params: FabricParams) -> Self {
        assert!(n_gpms >= 1, "need at least one GPM");
        NumaTiming {
            n: n_gpms,
            dram: (0..n_gpms)
                .map(|_| BandwidthServer::new(params.dram_bytes_per_cycle, params.dram_latency))
                .collect(),
            links: (0..n_gpms * n_gpms)
                .map(|_| BandwidthServer::new(params.link_bytes_per_cycle, params.link_latency))
                .collect(),
            params,
        }
    }

    /// Fabric parameters.
    pub fn params(&self) -> FabricParams {
        self.params
    }

    /// Applies a drained [`Traffic`] ledger starting at `now`; returns the
    /// cycle at which all of its transfers complete.
    ///
    /// DRAM bytes are charged to each GPM's DRAM server; link bytes to each
    /// directed link server. The maximum completion across servers is the
    /// ready time of the work quantum that generated the traffic — the
    /// quantum stalls on its slowest resource, which is exactly the
    /// remote-bandwidth bottleneck mechanism of the paper.
    pub fn apply(&mut self, now: Cycle, traffic: &Traffic) -> Cycle {
        let mut ready = now;
        for (i, &bytes) in traffic.dram.iter().enumerate() {
            if bytes > 0 {
                ready = ready.max(self.dram[i].transfer(now, bytes));
            }
        }
        for from in 0..self.n {
            for to in 0..self.n {
                let bytes = traffic.links.get(GpmId(from as u8), GpmId(to as u8));
                if bytes > 0 {
                    ready = ready.max(self.links[from * self.n + to].transfer(now, bytes));
                }
            }
        }
        ready
    }

    /// The DRAM server of one GPM (for inspection).
    pub fn dram(&self, gpm: GpmId) -> &BandwidthServer {
        &self.dram[gpm.index()]
    }

    /// The directed link server `from → to` (for inspection).
    pub fn link(&self, from: GpmId, to: GpmId) -> &BandwidthServer {
        &self.links[from.index() * self.n + to.index()]
    }

    /// Installs a fault schedule on the directed link `from → to`.
    pub fn set_link_schedule(&mut self, from: GpmId, to: GpmId, schedule: Option<RateSchedule>) {
        self.links[from.index() * self.n + to.index()].set_schedule(schedule);
    }

    /// Installs a fault schedule on one GPM's DRAM server.
    pub fn set_dram_schedule(&mut self, gpm: GpmId, schedule: Option<RateSchedule>) {
        self.dram[gpm.index()].set_schedule(schedule);
    }

    /// The rate multiplier on the directed link `from → to` at cycle `t`
    /// (`1.0` when no schedule is installed). The runtime's reachability
    /// probe: a multiplier of `0` means the link is down (retraining).
    pub fn link_multiplier_at(&self, from: GpmId, to: GpmId, t: Cycle) -> f64 {
        match self.links[from.index() * self.n + to.index()].schedule() {
            None => 1.0,
            Some(s) => s.multiplier_at(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TrafficClass;

    #[test]
    fn server_serializes_transfers() {
        let mut s = BandwidthServer::new(10.0, 0);
        let t1 = s.transfer(0, 100); // 10 cycles
        let t2 = s.transfer(0, 100); // queued behind
        assert_eq!(t1, 10);
        assert_eq!(t2, 20);
        assert_eq!(s.served_bytes(), 200);
        // A transfer arriving after the queue drains starts immediately.
        let t3 = s.transfer(100, 10);
        assert_eq!(t3, 101);
    }

    #[test]
    fn latency_is_added_per_transfer() {
        let mut s = BandwidthServer::new(64.0, 100);
        assert_eq!(s.transfer(0, 64), 101);
    }

    #[test]
    fn zero_bytes_is_free() {
        let mut s = BandwidthServer::new(1.0, 50);
        assert_eq!(s.transfer(7, 0), 7);
    }

    #[test]
    fn fabric_bottleneck_is_slowest_resource() {
        let params = FabricParams {
            dram_bytes_per_cycle: 1000.0,
            link_bytes_per_cycle: 64.0,
            dram_latency: 0,
            link_latency: 0,
        };
        let mut fabric = NumaTiming::new(2, params);
        let mut t = Traffic::new(2);
        // 64 KB remote: DRAM at home takes 65.5 cycles, link takes 1024.
        t.add_remote(GpmId(1), GpmId(0), TrafficClass::Texture, 65536);
        let ready = fabric.apply(0, &t);
        assert_eq!(ready, 1024);
        assert_eq!(fabric.link(GpmId(1), GpmId(0)).served_bytes(), 65536);
    }

    #[test]
    fn local_traffic_uses_fast_dram() {
        let mut fabric = NumaTiming::new(
            2,
            FabricParams { dram_latency: 0, link_latency: 0, ..Default::default() },
        );
        let mut t = Traffic::new(2);
        t.add_local(GpmId(0), TrafficClass::Texture, 65536);
        let ready = fabric.apply(0, &t);
        assert_eq!(ready, 66); // 65536/1000 rounded up
    }

    #[test]
    fn schedule_multiplier_lookup() {
        let s = RateSchedule::new(vec![(0, 1.0), (100, 0.25), (200, 1.0)]);
        assert_eq!(s.multiplier_at(0), 1.0);
        assert_eq!(s.multiplier_at(99), 1.0);
        assert_eq!(s.multiplier_at(100), 0.25);
        assert_eq!(s.multiplier_at(199), 0.25);
        assert_eq!(s.multiplier_at(5000), 1.0);
    }

    #[test]
    fn schedule_advance_walks_segments() {
        // Full rate until 100, quarter rate until 200, full rate after.
        let s = RateSchedule::new(vec![(0, 1.0), (100, 0.25), (200, 1.0)]);
        // Fits entirely in the first segment.
        assert_eq!(s.advance(0.0, 50.0), 50.0);
        // 100 cycles of work starting at 50: 50 at full rate, 25 during the
        // quarter-rate window (its full capacity), 25 in the full-rate tail.
        assert_eq!(s.advance(50.0, 100.0), 225.0);
        // Starting inside the slow segment and spilling past it: segment
        // 100..200 has capacity 25 from t=100; 30 work = 25 there + 5 after.
        assert_eq!(s.advance(100.0, 30.0), 205.0);
    }

    #[test]
    fn schedule_zero_segment_stalls() {
        // Link down (retrain) between 10 and 20.
        let s = RateSchedule::new(vec![(0, 1.0), (10, 0.0), (20, 1.0)]);
        // 15 work from t=0: 10 done, stall to 20, 5 more.
        assert_eq!(s.advance(0.0, 15.0), 25.0);
        // Work arriving mid-stall waits out the outage.
        assert_eq!(s.advance(12.0, 1.0), 21.0);
    }

    #[test]
    #[should_panic(expected = "positive multiplier")]
    fn schedule_rejects_zero_tail() {
        let _ = RateSchedule::new(vec![(0, 1.0), (10, 0.0)]);
    }

    #[test]
    fn unity_schedule_matches_no_schedule() {
        let mut plain = BandwidthServer::new(64.0, 3);
        let mut scheduled = BandwidthServer::new(64.0, 3);
        scheduled.set_schedule(Some(RateSchedule::constant(1.0)));
        for (now, bytes) in [(0, 1000), (5, 64), (200, 77), (201, 1)] {
            assert_eq!(plain.transfer(now, bytes), scheduled.transfer(now, bytes));
        }
        assert_eq!(plain.free_at(), scheduled.free_at());
        assert_eq!(plain.served_bytes(), scheduled.served_bytes());
    }

    #[test]
    fn degraded_server_is_slower_and_busier() {
        let mut s = BandwidthServer::new(10.0, 0);
        s.set_schedule(Some(RateSchedule::new(vec![(0, 0.5)])));
        // 100 bytes = 10 nominal cycles of service at half rate = 20 cycles.
        assert_eq!(s.transfer(0, 100), 20);
        assert_eq!(s.busy_cycles(), 20.0);
    }

    #[test]
    fn fabric_schedule_installation() {
        let mut fabric = NumaTiming::new(
            2,
            FabricParams { dram_latency: 0, link_latency: 0, ..Default::default() },
        );
        fabric.set_link_schedule(
            GpmId(0),
            GpmId(1),
            Some(RateSchedule::new(vec![(0, 0.0), (1000, 1.0)])),
        );
        assert_eq!(fabric.link_multiplier_at(GpmId(0), GpmId(1), 500), 0.0);
        assert_eq!(fabric.link_multiplier_at(GpmId(0), GpmId(1), 1000), 1.0);
        assert_eq!(fabric.link_multiplier_at(GpmId(1), GpmId(0), 500), 1.0);
        let mut t = Traffic::new(2);
        t.add_link_only(GpmId(0), GpmId(1), TrafficClass::Composition, 64);
        // One nominal cycle of link work, but the link is down until 1000.
        assert_eq!(fabric.apply(0, &t), 1001);
    }

    #[test]
    fn pairwise_links_are_independent() {
        let mut fabric = NumaTiming::new(
            4,
            FabricParams { dram_latency: 0, link_latency: 0, ..Default::default() },
        );
        let mut t1 = Traffic::new(4);
        t1.add_link_only(GpmId(0), GpmId(1), TrafficClass::Composition, 6400);
        let mut t2 = Traffic::new(4);
        t2.add_link_only(GpmId(2), GpmId(3), TrafficClass::Composition, 6400);
        let r1 = fabric.apply(0, &t1);
        let r2 = fabric.apply(0, &t2);
        assert_eq!(r1, 100);
        assert_eq!(r2, 100, "disjoint pairs do not contend");
        // Same pair contends.
        let r3 = fabric.apply(0, &t1);
        assert_eq!(r3, 200);
    }
}
