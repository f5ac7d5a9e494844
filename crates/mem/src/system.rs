//! The combined per-GPM memory system: caches + page table + traffic ledger.
//!
//! Each GPM has an aggregated L1 (the unified 128 KiB texture/L1 caches of
//! its 8 SMs, Table 2) and a memory-side L2 slice. Reads fill through
//! L1 → L2 → home DRAM; the home is resolved through the NUMA page table
//! and remote homes charge the inter-GPM link. Remote lines are cached in
//! L2 (the baseline's remote-cache scheme). Depth/color writes are
//! write-through with L2-presence coalescing: a write whose line is L2
//! resident is absorbed (write combining); otherwise a full line is charged
//! to the home — this keeps every byte attributed to its true traffic class.

use crate::address::{Addr, Region, LINE_SIZE, PAGE_SIZE};
use crate::cache::{CacheStats, SetAssocCache};
use crate::error::MemError;
use crate::placement::{GpmId, PageTable, Placement};
use crate::stats::{Traffic, TrafficClass};

/// Cache configuration per GPM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Aggregated L1 capacity per GPM in bytes (8 SMs × 128 KiB in Table 2).
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 slice capacity per GPM in bytes (Table 2: 4 MiB / 4 GPMs).
    pub l2_bytes: u64,
    /// L2 associativity (Table 2: 16).
    pub l2_ways: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig { l1_bytes: 8 * 128 * 1024, l1_ways: 8, l2_bytes: 1024 * 1024, l2_ways: 16 }
    }
}

/// Rejects a cache level that [`SetAssocCache::new`] would panic on: it
/// needs at least one way and room for one set of `LINE_SIZE`-byte lines.
fn check_cache_geometry(level: &'static str, bytes: u64, ways: usize) -> Result<(), MemError> {
    if ways == 0 || bytes / LINE_SIZE < ways as u64 {
        return Err(MemError::InvalidCache { level, bytes, ways });
    }
    Ok(())
}

/// Where a read was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessLevel {
    /// Hit in the GPM's L1.
    L1,
    /// Hit in the GPM's L2 (possibly a cached remote line).
    L2,
    /// Filled from the GPM's own DRAM.
    LocalDram,
    /// Filled from another GPM's DRAM over the link.
    RemoteDram(GpmId),
}

/// The functional NUMA memory system of the multi-GPM package.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    page_table: PageTable,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    /// Ledger drained per work quantum for timing.
    pending: Traffic,
    /// Whether anything was recorded into `pending` since the last drain.
    /// Lets quanta with no memory traffic skip the ledger walk entirely.
    pending_any: bool,
    /// Cumulative ledger for end-of-frame reporting.
    total: Traffic,
}

impl MemorySystem {
    /// Creates the memory system for `n_gpms` GPMs.
    ///
    /// # Panics
    ///
    /// Panics if `n_gpms` is outside `1..=16` or a cache level of `cfg`
    /// cannot hold one set; use [`try_new`](Self::try_new) for a fallible
    /// variant.
    pub fn new(n_gpms: usize, cfg: MemConfig, default_policy: Placement) -> Self {
        match Self::try_new(n_gpms, cfg, default_policy) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates the memory system, reporting invalid GPM counts and cache
    /// geometries as typed errors instead of panicking.
    pub fn try_new(
        n_gpms: usize,
        cfg: MemConfig,
        default_policy: Placement,
    ) -> Result<Self, MemError> {
        check_cache_geometry("L1", cfg.l1_bytes, cfg.l1_ways)?;
        check_cache_geometry("L2", cfg.l2_bytes, cfg.l2_ways)?;
        Ok(MemorySystem {
            page_table: PageTable::try_new(n_gpms, default_policy)?,
            l1: (0..n_gpms)
                .map(|_| SetAssocCache::new(cfg.l1_bytes, cfg.l1_ways, LINE_SIZE))
                .collect(),
            l2: (0..n_gpms)
                .map(|_| SetAssocCache::new(cfg.l2_bytes, cfg.l2_ways, LINE_SIZE))
                .collect(),
            pending: Traffic::new(n_gpms),
            pending_any: false,
            total: Traffic::new(n_gpms),
        })
    }

    /// Number of GPMs.
    pub fn n_gpms(&self) -> usize {
        self.page_table.n_gpms()
    }

    /// The NUMA page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutable access to the NUMA page table (placement policies).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// Reads the line containing `addr` from `gpm`. `use_l1` selects whether
    /// the stream goes through the GPM's L1 (texture/vertex reads do; depth
    /// reads go straight to L2 as in real ROP paths).
    ///
    /// Inlined so the texture/depth streams' cache hits resolve inside the
    /// executor's rasterization loop; only a miss in both cache levels takes
    /// the outlined DRAM continuation.
    #[inline]
    pub fn read(
        &mut self,
        gpm: GpmId,
        addr: Addr,
        class: TrafficClass,
        use_l1: bool,
    ) -> AccessLevel {
        let line = addr.line_base();
        let g = gpm.index();
        if use_l1 && self.l1[g].access(line, false).is_hit() {
            return AccessLevel::L1;
        }
        if self.l2[g].access(line, false).is_hit() {
            return AccessLevel::L2;
        }
        self.read_dram(gpm, line, class)
    }

    /// DRAM continuation of [`read`](Self::read): NUMA home resolution plus
    /// the pending/total ledger charges. Outlined — it runs only on misses.
    #[cold]
    fn read_dram(&mut self, gpm: GpmId, line: Addr, class: TrafficClass) -> AccessLevel {
        let home = self.page_table.resolve(line, gpm);
        self.pending_any = true;
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

    /// Writes the line containing `addr` from `gpm` (depth/color output).
    ///
    /// Write-through with L2-presence coalescing: L2-resident lines absorb
    /// the write; otherwise a full line is charged to the home and the line
    /// becomes L2 resident.
    ///
    /// Inlined for the same reason as [`read`](Self::read): the coalesced
    /// (L2-resident) case is the common one in the pixel-output stream.
    #[inline]
    pub fn write(&mut self, gpm: GpmId, addr: Addr, class: TrafficClass) {
        let line = addr.line_base();
        let g = gpm.index();
        if self.l2[g].access(line, false).is_hit() {
            return;
        }
        self.write_dram(gpm, line, class);
    }

    /// DRAM continuation of [`write`](Self::write) for non-coalesced writes.
    #[cold]
    fn write_dram(&mut self, gpm: GpmId, line: Addr, class: TrafficClass) {
        let home = self.page_table.resolve(line, gpm);
        self.pending_any = true;
        if home == gpm {
            self.pending.add_local(gpm, class, LINE_SIZE);
            self.total.add_local(gpm, class, LINE_SIZE);
        } else {
            // Write travels accessor → home.
            self.pending.dram[home.index()] += LINE_SIZE;
            self.total.dram[home.index()] += LINE_SIZE;
            self.pending.add_link_only(gpm, home, class, LINE_SIZE);
            self.total.add_link_only(gpm, home, class, LINE_SIZE);
        }
    }

    /// Transfers raw bytes over the link `from → to` (draw command
    /// distribution, composition pushes). Local (`from == to`) transfers
    /// charge DRAM only.
    pub fn transfer(&mut self, from: GpmId, to: GpmId, class: TrafficClass, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.pending_any = true;
        if from == to {
            self.pending.add_local(to, class, bytes);
            self.total.add_local(to, class, bytes);
        } else {
            self.pending.add_link_only(from, to, class, bytes);
            self.total.add_link_only(from, to, class, bytes);
        }
    }

    /// Pre-allocates (migrates) all pages of `region` to `to`, charging link
    /// transfers for pages that previously lived elsewhere (OO-VR PA units,
    /// §5.2). Returns the number of bytes copied over links.
    pub fn prealloc_region(&mut self, region: Region, to: GpmId) -> u64 {
        let mut moved = 0;
        for page in region.pages() {
            let addr = Addr(page * PAGE_SIZE);
            if let Some(from) = self.page_table.migrate(addr, to) {
                self.pending_any = true;
                self.pending.add_link_only(from, to, TrafficClass::PreAlloc, PAGE_SIZE);
                self.total.add_link_only(from, to, TrafficClass::PreAlloc, PAGE_SIZE);
                moved += PAGE_SIZE;
            }
        }
        moved
    }

    /// Replicates all pages of `region` at `at` (fine-grained stealing's
    /// data duplication, §5.2). Returns bytes copied over links.
    pub fn replicate_region(&mut self, region: Region, at: GpmId) -> u64 {
        let mut moved = 0;
        for page in region.pages() {
            let addr = Addr(page * PAGE_SIZE);
            if let Some(from) = self.page_table.replicate(addr, at) {
                self.pending_any = true;
                self.pending.add_link_only(from, at, TrafficClass::PreAlloc, PAGE_SIZE);
                self.total.add_link_only(from, at, TrafficClass::PreAlloc, PAGE_SIZE);
                moved += PAGE_SIZE;
            }
        }
        moved
    }

    /// Whether any traffic was recorded since the last drain. Cheap flag
    /// check so quanta that touched no memory skip draining altogether.
    pub fn has_pending(&self) -> bool {
        self.pending_any
    }

    /// Drains and returns the pending (since last drain) traffic ledger.
    pub fn drain_pending(&mut self) -> Traffic {
        let mut out = Traffic::new(self.n_gpms());
        self.drain_pending_into(&mut out);
        out
    }

    /// Drains the pending ledger into a caller-owned scratch `Traffic`,
    /// swapping buffers instead of allocating. `out`'s previous contents are
    /// discarded; it is resized if its GPM count does not match.
    pub fn drain_pending_into(&mut self, out: &mut Traffic) {
        if out.n_gpms() != self.n_gpms() {
            *out = Traffic::new(self.n_gpms());
        }
        std::mem::swap(&mut self.pending, out);
        self.pending.clear();
        self.pending_any = false;
    }

    /// Discards the pending ledger without materializing it (callers that
    /// fold the traffic into `total` only).
    pub fn discard_pending(&mut self) {
        if self.pending_any {
            self.pending.clear();
            self.pending_any = false;
        }
    }

    /// The cumulative traffic ledger.
    pub fn total_traffic(&self) -> &Traffic {
        &self.total
    }

    /// L1 statistics of one GPM.
    pub fn l1_stats(&self, gpm: GpmId) -> CacheStats {
        self.l1[gpm.index()].stats()
    }

    /// L2 statistics of one GPM.
    pub fn l2_stats(&self, gpm: GpmId) -> CacheStats {
        self.l2[gpm.index()].stats()
    }

    /// Aggregate `(L1, L2)` statistics across every GPM, for samplers that
    /// want a fleet-level cache view without iterating GPMs themselves.
    pub fn cache_totals(&self) -> (CacheStats, CacheStats) {
        let fold = |caches: &[crate::SetAssocCache]| {
            caches.iter().map(|c| c.stats()).fold(CacheStats::default(), |mut acc, s| {
                acc.accesses += s.accesses;
                acc.hits += s.hits;
                acc.writebacks += s.writebacks;
                acc
            })
        };
        (fold(&self.l1), fold(&self.l2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(n: usize) -> MemorySystem {
        MemorySystem::new(n, MemConfig::default(), Placement::FirstTouch)
    }

    #[test]
    fn read_fills_through_hierarchy() {
        let mut m = sys(2);
        assert_eq!(m.read(GpmId(0), Addr(0), TrafficClass::Texture, true), AccessLevel::LocalDram);
        assert_eq!(m.read(GpmId(0), Addr(0), TrafficClass::Texture, true), AccessLevel::L1);
        assert_eq!(m.read(GpmId(0), Addr(32), TrafficClass::Texture, true), AccessLevel::L1);
        // Other GPM misses its own caches and goes remote.
        assert_eq!(
            m.read(GpmId(1), Addr(0), TrafficClass::Texture, true),
            AccessLevel::RemoteDram(GpmId(0))
        );
        assert_eq!(m.total_traffic().inter_gpm_bytes(), LINE_SIZE);
        // Remote line is now L2-cached at GPM1 (remote cache scheme).
        assert_eq!(m.read(GpmId(1), Addr(0), TrafficClass::Texture, false), AccessLevel::L2);
    }

    #[test]
    fn write_coalescing_absorbs_repeat_writes() {
        let mut m = sys(2);
        m.write(GpmId(0), Addr(0), TrafficClass::Color);
        m.write(GpmId(0), Addr(16), TrafficClass::Color);
        m.write(GpmId(0), Addr(48), TrafficClass::Color);
        assert_eq!(m.total_traffic().local_of(TrafficClass::Color), LINE_SIZE);
    }

    #[test]
    fn remote_write_charges_link_toward_home() {
        let mut m = sys(2);
        // Page homed at GPM0 via first touch.
        m.read(GpmId(0), Addr(0), TrafficClass::Depth, false);
        // GPM1 writes a *different line* of the same page: remote write.
        m.write(GpmId(1), Addr(128), TrafficClass::Depth);
        assert_eq!(m.total_traffic().links.get(GpmId(1), GpmId(0)), LINE_SIZE);
    }

    #[test]
    fn prealloc_moves_pages_once() {
        let mut m = sys(2);
        // Home page 0 at GPM0.
        m.read(GpmId(0), Addr(0), TrafficClass::Texture, false);
        let region = Region { base: 0, size: PAGE_SIZE };
        let moved = m.prealloc_region(region, GpmId(1));
        assert_eq!(moved, PAGE_SIZE);
        assert_eq!(m.total_traffic().remote_of(TrafficClass::PreAlloc), PAGE_SIZE);
        // Second prealloc to the same GPM is free.
        assert_eq!(m.prealloc_region(region, GpmId(1)), 0);
        // Unplaced pages place for free.
        let region2 = Region { base: 4 * PAGE_SIZE, size: PAGE_SIZE };
        assert_eq!(m.prealloc_region(region2, GpmId(1)), 0);
    }

    #[test]
    fn replicate_region_localizes_reads() {
        let mut m = sys(2);
        m.read(GpmId(0), Addr(0), TrafficClass::Texture, false);
        let region = Region { base: 0, size: PAGE_SIZE };
        assert_eq!(m.replicate_region(region, GpmId(1)), PAGE_SIZE);
        // New cold line of that page read from GPM1 is now local.
        assert_eq!(
            m.read(GpmId(1), Addr(512), TrafficClass::Texture, false),
            AccessLevel::LocalDram
        );
    }

    #[test]
    fn drain_pending_resets_only_pending() {
        let mut m = sys(2);
        m.read(GpmId(0), Addr(0), TrafficClass::Vertex, false);
        let p = m.drain_pending();
        assert_eq!(p.local_bytes(), LINE_SIZE);
        assert!(m.drain_pending().is_empty());
        assert_eq!(m.total_traffic().local_bytes(), LINE_SIZE);
    }

    #[test]
    fn command_transfer_local_and_remote() {
        let mut m = sys(2);
        m.transfer(GpmId(0), GpmId(0), TrafficClass::Command, 256);
        m.transfer(GpmId(0), GpmId(1), TrafficClass::Command, 256);
        assert_eq!(m.total_traffic().inter_gpm_bytes(), 256);
        assert_eq!(m.total_traffic().local_of(TrafficClass::Command), 256);
    }
}
