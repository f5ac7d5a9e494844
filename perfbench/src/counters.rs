//! The one adapter over the repository's process-global counters.
//!
//! The render memo (`oovr::cache`), the serve cost-stream memo
//! (`oovr_serve::stream`) and the raster tile classifier keep process-wide
//! counters. Everything else in the benchmark takes its counts from
//! returned values; these three are read only here, and only as the
//! difference between two snapshots, so that moving the counters into
//! run-scoped handles changes this file alone.

use oovr_gpu::raster_tile_stats;

/// A snapshot of every process-global counter the benchmark reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Scenes built by the render memo.
    pub scene_builds: u64,
    /// Frame renders answered from the render memo.
    pub frame_hits: u64,
    /// Frame renders the render memo executed.
    pub frame_misses: u64,
    /// Cost streams answered from the serve memo.
    pub stream_hits: u64,
    /// Cost streams the serve memo measured.
    pub stream_misses: u64,
    /// Raster tiles rejected whole.
    pub tiles_rejected: u64,
    /// Raster tiles classified (accepted + rejected + partial).
    pub tiles_total: u64,
}

impl Counters {
    /// Reads the current values.
    pub fn now() -> Self {
        let cache = oovr::cache::stats();
        let serve = oovr_serve::serve_cache_stats();
        let tiles = raster_tile_stats();
        Counters {
            scene_builds: cache.scene_builds,
            frame_hits: cache.frame_hits,
            frame_misses: cache.frame_misses,
            stream_hits: serve.stream_hits,
            stream_misses: serve.stream_misses,
            tiles_rejected: tiles.rejected,
            tiles_total: tiles.accepted + tiles.rejected + tiles.partial,
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            scene_builds: self.scene_builds - earlier.scene_builds,
            frame_hits: self.frame_hits - earlier.frame_hits,
            frame_misses: self.frame_misses - earlier.frame_misses,
            stream_hits: self.stream_hits - earlier.stream_hits,
            stream_misses: self.stream_misses - earlier.stream_misses,
            tiles_rejected: self.tiles_rejected - earlier.tiles_rejected,
            tiles_total: self.tiles_total - earlier.tiles_total,
        }
    }

    /// Whether either memo did any work or answered any lookup.
    pub fn memo_touched(&self) -> bool {
        self.scene_builds
            + self.frame_hits
            + self.frame_misses
            + self.stream_hits
            + self.stream_misses
            > 0
    }
}
