//! Differential correctness: the optimized memory substrate against plain
//! reference models.
//!
//! The hot-path implementations trade clarity for speed: `SetAssocCache`
//! packs valid/dirty flags into the tag word, probes an MRU way first and
//! skips refreshing its LRU stamp; `PageTable` translates through a chunked
//! dense array with a per-accessor lookaside instead of a hash map;
//! `MemorySystem` drains its traffic ledger by swapping scratch buffers
//! instead of allocating per quantum. These properties drive the optimized
//! types and straightforward reference models — a recency-list LRU, a
//! `HashMap` page table, and a drain that materializes a fresh ledger every
//! epoch — through identical operation streams and require *bit-identical*
//! observable behavior: per-access outcomes, write-back addresses, hit/miss
//! statistics, placement decisions, capacity accounting, and per-class
//! per-link traffic.

use std::collections::HashMap;

use proptest::prelude::*;

use oovr_mem::{
    AccessLevel, Addr, GpmId, MemConfig, MemorySystem, PageTable, Placement, Region, SetAssocCache,
    Traffic, TrafficClass, LINE_SIZE, PAGE_SIZE,
};

// ---------------------------------------------------------------------------
// Reference cache: LRU as an explicit recency list.
// ---------------------------------------------------------------------------

struct RefLine {
    line: u64,
    dirty: bool,
}

/// Textbook set-associative LRU cache: each set is a recency-ordered list
/// (front = least recent). No flag packing, no MRU probe, no stamps.
struct RefCache {
    ways: usize,
    sets: usize,
    line_size: u64,
    data: Vec<Vec<RefLine>>,
    accesses: u64,
    hits: u64,
    writebacks: u64,
}

impl RefCache {
    fn new(capacity_bytes: u64, ways: usize, line_size: u64) -> Self {
        // Same geometry derivation as `SetAssocCache::new`.
        let lines = capacity_bytes / line_size;
        let target = (lines / ways as u64).max(1);
        let sets = (1u64 << (63 - target.leading_zeros())) as usize;
        RefCache {
            ways,
            sets,
            line_size,
            data: (0..sets).map(|_| Vec::new()).collect(),
            accesses: 0,
            hits: 0,
            writebacks: 0,
        }
    }

    /// Returns `(hit, write-back address)`.
    fn access(&mut self, addr: Addr, write: bool) -> (bool, Option<Addr>) {
        self.accesses += 1;
        let line = addr.0 / self.line_size;
        let set = &mut self.data[(line as usize) & (self.sets - 1)];
        if let Some(pos) = set.iter().position(|l| l.line == line) {
            let mut l = set.remove(pos);
            l.dirty |= write;
            set.push(l);
            self.hits += 1;
            return (true, None);
        }
        let mut writeback = None;
        if set.len() == self.ways {
            let victim = set.remove(0);
            if victim.dirty {
                self.writebacks += 1;
                writeback = Some(Addr(victim.line * self.line_size));
            }
        }
        set.push(RefLine { line, dirty: write });
        (false, writeback)
    }

    fn flush_dirty(&mut self) -> Vec<Addr> {
        let mut out = Vec::new();
        for set in &mut self.data {
            for l in set.iter_mut() {
                if l.dirty {
                    out.push(Addr(l.line * self.line_size));
                    l.dirty = false;
                }
            }
        }
        self.writebacks += out.len() as u64;
        out
    }
}

// ---------------------------------------------------------------------------
// Reference page table: a plain hash map.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct RefPage {
    home: u8,
    replicas: u16,
}

struct RefPageTable {
    n_gpms: usize,
    default_policy: Placement,
    regions: Vec<(Region, Placement)>,
    pages: HashMap<u64, RefPage>,
    resident: Vec<u64>,
}

impl RefPageTable {
    fn new(n_gpms: usize, default_policy: Placement) -> Self {
        RefPageTable {
            n_gpms,
            default_policy,
            regions: Vec::new(),
            pages: HashMap::new(),
            resident: vec![0; n_gpms],
        }
    }

    fn set_policy(&mut self, region: Region, policy: Placement) {
        self.regions.push((region, policy));
    }

    fn policy_for(&self, addr: Addr) -> Placement {
        for (r, p) in &self.regions {
            if r.contains(addr) {
                return *p;
            }
        }
        self.default_policy
    }

    fn resolve(&mut self, addr: Addr, accessor: GpmId) -> GpmId {
        let page = addr.page();
        if let Some(e) = self.pages.get(&page) {
            return if e.replicas & (1 << accessor.0) != 0 { accessor } else { GpmId(e.home) };
        }
        let policy = self.policy_for(addr);
        let home = match policy {
            Placement::FirstTouch | Placement::Replicated => accessor,
            Placement::Interleaved => GpmId((page % self.n_gpms as u64) as u8),
            Placement::Fixed(g) => g,
        };
        let replicas = if policy == Placement::Replicated {
            for r in &mut self.resident {
                *r += PAGE_SIZE;
            }
            (1u16 << self.n_gpms) - 1
        } else {
            self.resident[home.index()] += PAGE_SIZE;
            0
        };
        self.pages.insert(page, RefPage { home: home.0, replicas });
        home
    }

    fn migrate(&mut self, addr: Addr, to: GpmId) -> Option<GpmId> {
        let page = addr.page();
        match self.pages.get_mut(&page) {
            Some(e) if e.home == to.0 => None,
            Some(e) => {
                let from = GpmId(e.home);
                e.home = to.0;
                e.replicas = 0;
                self.resident[from.index()] = self.resident[from.index()].saturating_sub(PAGE_SIZE);
                self.resident[to.index()] += PAGE_SIZE;
                Some(from)
            }
            None => {
                self.pages.insert(page, RefPage { home: to.0, replicas: 0 });
                self.resident[to.index()] += PAGE_SIZE;
                None
            }
        }
    }

    fn replicate(&mut self, addr: Addr, at: GpmId) -> Option<GpmId> {
        let page = addr.page();
        match self.pages.get_mut(&page) {
            Some(e) => {
                if e.home == at.0 || e.replicas & (1 << at.0) != 0 {
                    return None;
                }
                e.replicas |= 1 << at.0;
                self.resident[at.index()] += PAGE_SIZE;
                Some(GpmId(e.home))
            }
            None => {
                self.pages.insert(page, RefPage { home: at.0, replicas: 0 });
                self.resident[at.index()] += PAGE_SIZE;
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reference memory system: reference cache + reference page table, with the
// pre-optimization drain scheme (a freshly allocated ledger per epoch).
// ---------------------------------------------------------------------------

struct RefMemorySystem {
    page_table: RefPageTable,
    l1: Vec<RefCache>,
    l2: Vec<RefCache>,
    pending: Traffic,
    total: Traffic,
}

impl RefMemorySystem {
    fn new(n_gpms: usize, cfg: MemConfig, default_policy: Placement) -> Self {
        RefMemorySystem {
            page_table: RefPageTable::new(n_gpms, default_policy),
            l1: (0..n_gpms).map(|_| RefCache::new(cfg.l1_bytes, cfg.l1_ways, LINE_SIZE)).collect(),
            l2: (0..n_gpms).map(|_| RefCache::new(cfg.l2_bytes, cfg.l2_ways, LINE_SIZE)).collect(),
            pending: Traffic::new(n_gpms),
            total: Traffic::new(n_gpms),
        }
    }

    fn read(&mut self, gpm: GpmId, addr: Addr, class: TrafficClass, use_l1: bool) -> AccessLevel {
        let line = addr.line_base();
        let g = gpm.index();
        if use_l1 && self.l1[g].access(line, false).0 {
            return AccessLevel::L1;
        }
        if self.l2[g].access(line, false).0 {
            return AccessLevel::L2;
        }
        let home = self.page_table.resolve(line, gpm);
        if home == gpm {
            self.pending.add_local(gpm, class, LINE_SIZE);
            self.total.add_local(gpm, class, LINE_SIZE);
            AccessLevel::LocalDram
        } else {
            self.pending.add_remote(home, gpm, class, LINE_SIZE);
            self.total.add_remote(home, gpm, class, LINE_SIZE);
            AccessLevel::RemoteDram(home)
        }
    }

    fn write(&mut self, gpm: GpmId, addr: Addr, class: TrafficClass) {
        let line = addr.line_base();
        let g = gpm.index();
        if self.l2[g].access(line, false).0 {
            return;
        }
        let home = self.page_table.resolve(line, gpm);
        if home == gpm {
            self.pending.add_local(gpm, class, LINE_SIZE);
            self.total.add_local(gpm, class, LINE_SIZE);
        } else {
            self.pending.dram[home.index()] += LINE_SIZE;
            self.total.dram[home.index()] += LINE_SIZE;
            self.pending.add_link_only(gpm, home, class, LINE_SIZE);
            self.total.add_link_only(gpm, home, class, LINE_SIZE);
        }
    }

    /// The pre-optimization drain: materialize a fresh ledger every epoch.
    fn drain_pending(&mut self) -> Traffic {
        std::mem::replace(&mut self.pending, Traffic::new(self.total.n_gpms()))
    }
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

const CLASSES: [TrafficClass; 4] =
    [TrafficClass::Vertex, TrafficClass::Texture, TrafficClass::Depth, TrafficClass::Color];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed/MRU/stamp-skipping cache behaves exactly like a textbook
    /// recency-list LRU: same outcome, same write-back address on every
    /// access, same dirty set at flush, same statistics. Also exercises the
    /// non-power-of-two line-size fallback (no shift strength reduction).
    #[test]
    fn cache_matches_reference_lru(
        geometry in (0u64..3, 1usize..5, 0usize..2),
        ops in prop::collection::vec((0u64..1 << 14, 0u8..4), 1..600),
    ) {
        let (cap_sel, ways_exp, line_sel) = geometry;
        let capacity = 1u64 << (10 + cap_sel); // 1–4 KiB: small, collides hard
        let ways = 1 << ways_exp; // 2–16
        let line_size = [64u64, 48][line_sel]; // 48 exercises the divide path
        let mut opt = SetAssocCache::new(capacity, ways, line_size);
        let mut reference = RefCache::new(capacity, ways, line_size);
        prop_assert_eq!(opt.sets(), reference.sets);
        for (i, &(a, kind)) in ops.iter().enumerate() {
            if kind == 3 && i % 97 == 0 {
                // Occasional flush, as the executor does at frame boundaries.
                let mut d_opt = opt.flush_dirty();
                let mut d_ref = reference.flush_dirty();
                d_opt.sort();
                d_ref.sort();
                prop_assert_eq!(d_opt, d_ref, "flush divergence at op {}", i);
                continue;
            }
            let write = kind == 1;
            let (hit_ref, wb_ref) = reference.access(Addr(a), write);
            let out = opt.access(Addr(a), write);
            prop_assert_eq!(out.is_hit(), hit_ref, "outcome divergence at op {} addr {}", i, a);
            let wb_opt = match out {
                oovr_mem::cache::CacheOutcome::Miss { writeback } => writeback,
                oovr_mem::cache::CacheOutcome::Hit => None,
            };
            prop_assert_eq!(wb_opt, wb_ref, "write-back divergence at op {} addr {}", i, a);
        }
        let s = opt.stats();
        prop_assert_eq!(s.accesses, reference.accesses);
        prop_assert_eq!(s.hits, reference.hits);
        prop_assert_eq!(s.writebacks, reference.writebacks);
        let mut d_opt = opt.flush_dirty();
        let mut d_ref = reference.flush_dirty();
        d_opt.sort();
        d_ref.sort();
        prop_assert_eq!(d_opt, d_ref, "final dirty sets differ");
    }

    /// The chunked dense page table with its per-accessor lookaside resolves,
    /// migrates and replicates exactly like a plain hash-map model, for
    /// every placement policy, including pages beyond the dense range and
    /// region-scoped policy overrides.
    #[test]
    fn page_table_matches_reference_map(
        policy_sel in 0u8..4,
        n_gpms in 1usize..5,
        ops in prop::collection::vec((0u8..8, 0u64..64, 0u8..4), 1..400),
    ) {
        let default_policy = match policy_sel {
            0 => Placement::FirstTouch,
            1 => Placement::Interleaved,
            2 => Placement::Fixed(GpmId(0)),
            _ => Placement::Replicated,
        };
        let mut opt = PageTable::new(n_gpms, default_policy);
        let mut reference = RefPageTable::new(n_gpms, default_policy);
        // A fixed-policy region overriding the default for pages 8..16.
        let override_region = Region { base: 8 * PAGE_SIZE, size: 8 * PAGE_SIZE };
        opt.set_policy(override_region, Placement::Fixed(GpmId((n_gpms - 1) as u8)));
        reference.set_policy(override_region, Placement::Fixed(GpmId((n_gpms - 1) as u8)));
        for (i, &(op, page_sel, gpm)) in ops.iter().enumerate() {
            let gpm = GpmId(gpm % n_gpms as u8);
            // Mostly dense-range pages; every 5th lands beyond DENSE_LIMIT
            // (≥ 2^22 pages) to exercise the overflow hash path.
            let page = if page_sel % 5 == 0 { (1 << 22) + page_sel } else { page_sel };
            let addr = Addr(page * PAGE_SIZE + (page_sel % PAGE_SIZE));
            match op {
                0..=5 => {
                    // Resolution dominates, as in real streams.
                    prop_assert_eq!(
                        opt.resolve(addr, gpm),
                        reference.resolve(addr, gpm),
                        "resolve divergence at op {} page {} gpm {}", i, page, gpm
                    );
                }
                6 => {
                    prop_assert_eq!(
                        opt.migrate(addr, gpm),
                        reference.migrate(addr, gpm),
                        "migrate divergence at op {} page {}", i, page
                    );
                }
                _ => {
                    prop_assert_eq!(
                        opt.replicate(addr, gpm),
                        reference.replicate(addr, gpm),
                        "replicate divergence at op {} page {}", i, page
                    );
                }
            }
        }
        prop_assert_eq!(opt.resident_bytes(), &reference.resident[..]);
        prop_assert_eq!(opt.placed_pages(), reference.pages.len());
    }

    /// The full memory system — optimized caches, page table, and the
    /// swap-based epoch drain — produces bit-identical access levels,
    /// per-epoch traffic ledgers, and cumulative per-class per-link totals
    /// against the reference composition that allocates a fresh ledger per
    /// epoch. Each generated read or write repeats its line 1–6 times at
    /// varying in-line offsets, the same-line run shape of the executor's
    /// texture and color streams, and a closing probe sweep over every line
    /// pins the final cache contents (tags and LRU order), not just stats.
    #[test]
    fn memory_system_matches_reference(
        n_gpms in 1usize..5,
        ops in prop::collection::vec(((0u8..8, 0u8..6), 0u64..1 << 15, 0u8..4, 0u8..4), 1..500),
    ) {
        // Small caches so misses, evictions and remote fills all occur.
        let cfg = MemConfig { l1_bytes: 2048, l1_ways: 2, l2_bytes: 4096, l2_ways: 4 };
        let mut opt = MemorySystem::new(n_gpms, cfg, Placement::FirstTouch);
        let mut reference = RefMemorySystem::new(n_gpms, cfg, Placement::FirstTouch);
        let mut scratch = Traffic::new(n_gpms);
        for (i, &((op, run), a, gpm, class_sel)) in ops.iter().enumerate() {
            let gpm = GpmId(gpm % n_gpms as u8);
            let class = CLASSES[class_sel as usize];
            let line = a - a % LINE_SIZE;
            let run_addrs = (0..u64::from(run) + 1).map(|r| Addr(line + (a + r * 17) % LINE_SIZE));
            match op {
                0..=3 => {
                    let use_l1 = op % 2 == 0;
                    for addr in run_addrs {
                        prop_assert_eq!(
                            opt.read(gpm, addr, class, use_l1),
                            reference.read(gpm, addr, class, use_l1),
                            "read divergence at op {} addr {}", i, addr.0
                        );
                    }
                }
                4 | 5 => {
                    for addr in run_addrs {
                        opt.write(gpm, addr, class);
                        reference.write(gpm, addr, class);
                    }
                }
                _ => {
                    // Epoch boundary: drain both and compare ledgers. The
                    // optimized side reuses one scratch buffer across all
                    // epochs; the reference allocates a fresh ledger.
                    prop_assert_eq!(
                        opt.has_pending(),
                        !reference.pending.is_empty(),
                        "pending flag divergence at op {}", i
                    );
                    opt.drain_pending_into(&mut scratch);
                    let expected = reference.drain_pending();
                    prop_assert_eq!(&scratch, &expected, "epoch ledger divergence at op {}", i);
                }
            }
        }
        prop_assert_eq!(opt.total_traffic(), &reference.total, "cumulative ledgers differ");
        opt.drain_pending_into(&mut scratch);
        prop_assert_eq!(&scratch, &reference.drain_pending(), "final pending ledgers differ");
        for g in GpmId::all(n_gpms) {
            let (l1o, l1r) = (opt.l1_stats(g), &reference.l1[g.index()]);
            prop_assert_eq!(l1o.accesses, l1r.accesses);
            prop_assert_eq!(l1o.hits, l1r.hits);
            let (l2o, l2r) = (opt.l2_stats(g), &reference.l2[g.index()]);
            prop_assert_eq!(l2o.accesses, l2r.accesses);
            prop_assert_eq!(l2o.hits, l2r.hits);
        }
        prop_assert_eq!(
            opt.page_table().resident_bytes(),
            &reference.page_table.resident[..]
        );
        // Probe sweep: identical reads on both systems must see identical
        // levels, which a wrong tag or LRU order anywhere would break.
        for line in (0..1u64 << 15).step_by(LINE_SIZE as usize) {
            for g in GpmId::all(n_gpms) {
                prop_assert_eq!(
                    opt.read(g, Addr(line), TrafficClass::Vertex, true),
                    reference.read(g, Addr(line), TrafficClass::Vertex, true),
                    "probe divergence at line {} gpm {}", line / LINE_SIZE, g
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Render cache and rate-schedule cursor differentials.
// ---------------------------------------------------------------------------

/// Field-by-field frame equality (`FrameReport` deliberately has no
/// `PartialEq`; float rates compare by bit pattern, as the render cache
/// promises bit-identity, not mere closeness).
fn assert_frames_identical(
    a: &oovr_gpu::FrameReport,
    b: &oovr_gpu::FrameReport,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(a.frame_cycles, b.frame_cycles);
    prop_assert_eq!(a.composition_cycles, b.composition_cycles);
    prop_assert_eq!(&a.gpm_busy, &b.gpm_busy);
    prop_assert_eq!(&a.traffic, &b.traffic);
    prop_assert_eq!(a.counts, b.counts);
    prop_assert_eq!(a.l1_hit_rate.to_bits(), b.l1_hit_rate.to_bits());
    prop_assert_eq!(a.l2_hit_rate.to_bits(), b.l2_hit_rate.to_bits());
    prop_assert_eq!(&a.resident_bytes, &b.resident_bytes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A memoized render — scene built through the content-addressed scene
    /// cache, frame served by the render cache (miss on first call, hit on
    /// second) — is bit-identical to rendering an independently built scene
    /// directly, across workloads, schemes, and link-bandwidth configs.
    #[test]
    fn cached_render_matches_uncached(
        wl in 0usize..9,
        scheme_sel in 0usize..4,
        link_sel in 0usize..3,
        seed_bump in 0u64..3,
    ) {
        use oovr::experiments::SchemeKind;
        let kinds = [
            SchemeKind::Baseline,
            SchemeKind::ObjectLevel,
            SchemeKind::OoVr,
            SchemeKind::SortMiddle,
        ];
        let kind = kinds[scheme_sel];
        let mut spec = oovr_scene::benchmarks::all()[wl].scaled(0.06);
        // Perturb the workload seed so this test cannot accidentally share
        // cache entries with other tests' identically-parameterized specs.
        spec.seed ^= 0xD1F7 + seed_bump;
        let cfg = oovr_gpu::GpuConfig::default()
            .with_link_gbps([32.0, 64.0, 128.0][link_sel]);

        let scene = oovr::cache::scene_for(&spec);
        let miss = oovr::cache::render(kind, &scene, &cfg);
        let hit = oovr::cache::render(kind, &scene, &cfg);
        let direct = kind.render(&spec.build(), &cfg);
        assert_frames_identical(&miss, &hit)?;
        assert_frames_identical(&miss, &direct)?;
    }

    /// Same property for the resilient render path (deadline-keyed cache
    /// entries, countermeasure runtime) under an injected fault plan.
    #[test]
    fn cached_resilient_render_matches_uncached(
        wl in 0usize..9,
        scenario_sel in 0usize..5,
        severity in 0.1f64..0.9,
    ) {
        use oovr_frameworks::RenderScheme as _;
        let mut spec = oovr_scene::benchmarks::all()[wl].scaled(0.06);
        spec.seed ^= 0x5EED;
        let plan = oovr_gpu::FaultPlan::new(
            oovr_gpu::FaultScenario::ALL[scenario_sel],
            severity,
            7,
        );
        let cfg = oovr_gpu::GpuConfig::default().with_fault(plan);
        let deadline = 2_000_000u64;

        let scene = oovr::cache::scene_for(&spec);
        let miss = oovr::cache::render_resilient(deadline, &scene, &cfg);
        let hit = oovr::cache::render_resilient(deadline, &scene, &cfg);
        let direct =
            oovr::schemes::OoVr::resilient_with_deadline(deadline).render_frame(&spec.build(), &cfg);
        assert_frames_identical(&miss, &hit)?;
        assert_frames_identical(&miss, &direct)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `RateSchedule::advance_with_hint` equals the hint-free binary-search
    /// walk for *any* hint value, including stale and out-of-range ones, and
    /// the returned cursor is the segment containing the completion time.
    #[test]
    fn schedule_hint_matches_search(
        breaks in prop::collection::vec((1u64..10_000, 0u32..5), 0..12),
        queries in prop::collection::vec((0u64..20_000u64, 0u64..5_000, 0usize..16), 1..40),
    ) {
        use oovr_mem::RateSchedule;
        let mut segs = vec![(0u64, 1.0f64)];
        for &(dt, m) in &breaks {
            let t = segs.last().unwrap().0 + dt;
            segs.push((t, f64::from(m) * 0.25));
        }
        // The tail must make progress.
        if segs.last().unwrap().1 == 0.0 {
            segs.last_mut().unwrap().1 = 0.5;
        }
        let s = RateSchedule::new(segs);
        for &(start, work, hint) in &queries {
            let (start, work) = (start as f64, work as f64);
            let plain = s.advance(start, work);
            let (hinted, cursor) = s.advance_with_hint(hint, start, work);
            prop_assert_eq!(plain.to_bits(), hinted.to_bits());
            // The returned cursor must itself be a valid resume point:
            // resuming from it reproduces the hint-free walk exactly.
            let (again, _) = s.advance_with_hint(cursor, hinted, 0.0);
            prop_assert_eq!(again.to_bits(), s.advance(hinted, 0.0).to_bits());
        }
    }
}
