//! # oovr-gpu
//!
//! A discrete-event, cycle-accounting simulator of the future NUMA-based
//! multi-GPU system of the OO-VR paper (Xie et al., ISCA 2019) — the
//! substitute for the authors' extended ATTILA-sim (see `DESIGN.md` for the
//! substitution argument).
//!
//! The model follows Table 2: 4 GPMs at 1 GHz, 8 SMs × 64 cores each,
//! 8 ROPs × 4 px/cycle, 16×16 tiled rasterization, 128 KiB unified L1 per
//! SM, a 4 MiB 16-way L2, 1 TB/s local DRAM and 64 GB/s pairwise NVLinks.
//! The rendering pipeline implements the paper's Fig. 2: geometry → SMP
//! multi-projection → rasterization → fragment → color output.
//!
//! Entry point: [`Executor`] — schedulers submit [`RenderUnit`]s per GPM and
//! finish with a [`Composition`] pass to obtain a [`FrameReport`].
//!
//! ```
//! use oovr_gpu::{ColorMode, Composition, Executor, FbOrg, GpuConfig, RenderUnit};
//! use oovr_mem::Placement;
//! use oovr_scene::benchmarks;
//!
//! let scene = benchmarks::hl2_640().scaled(0.1).build();
//! let mut ex = Executor::new(
//!     GpuConfig::default(),
//!     &scene,
//!     Placement::FirstTouch,
//!     FbOrg::InterleavedPages,
//!     ColorMode::Direct,
//! );
//! for obj in scene.objects() {
//!     let gpm = ex.least_loaded_gpm();
//!     ex.exec_unit(gpm, &RenderUnit::smp(obj.id()));
//! }
//! let report = ex.finish("demo", Composition::None);
//! assert!(report.frame_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod energy;
pub mod error;
pub mod executor;
pub mod fault;
pub mod layout;
pub mod raster;
pub mod report;
pub mod sample;
pub mod tasks;
mod trace;

pub use config::{GpuConfig, ModelParams, VSYNC_90HZ_CYCLES};
pub use energy::EnergySummary;
pub use error::GpuError;
pub use executor::{
    partition_of_column, partition_of_row, ColorMode, Composition, Executor, FbOrg, FrameMark,
    GpmState, RunningUnit,
};
pub use fault::{CompiledFault, FaultPlan, FaultScenario, VR_DEADLINE_CYCLES};
pub use layout::{SceneLayout, ZBuffer};
pub use oovr_mem::RateSchedule;
pub use raster::{fragment_count, raster_tile_stats, rasterize, QuadFragment, RasterTileStats};
pub use report::{FrameReport, WorkCounts, IMBALANCE_SENTINEL};
pub use tasks::{eye_clip, geometry_work, EyeMode, GeometryWork, RenderUnit};
