//! Microbenchmarks of the simulator substrate: cache probes, rasterization,
//! TSL batching, scene generation, and the full executor fast path.

mod common;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use oovr::middleware::{build_batches, MiddlewareConfig};
use oovr_gpu::{fragment_count, ColorMode, Composition, Executor, FbOrg, GpuConfig, RenderUnit};
use oovr_mem::{
    Addr, GpmId, MemConfig, MemorySystem, PageTable, Placement, SetAssocCache, Traffic,
    TrafficClass,
};
use oovr_scene::{benchmarks, Eye};

fn bench(c: &mut Criterion) {
    // Cache probe throughput: streaming and thrashing patterns.
    c.bench_function("cache_probe_stream", |b| {
        let mut cache = SetAssocCache::new(1024 * 1024, 8, 64);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 64) % (512 * 1024);
            black_box(cache.access(Addr(i), false).is_hit())
        })
    });

    // MRU-way fast path: repeated hits on one line resolve from the probe.
    c.bench_function("cache_probe_mru_hit", |b| {
        let mut cache = SetAssocCache::new(1024 * 1024, 8, 64);
        cache.access(Addr(0), false);
        b.iter(|| black_box(cache.access(Addr(0), false).is_hit()))
    });

    // Page translation: line-granular streaming (lookaside-friendly — ~64
    // consecutive lines per page) vs page-striding (a fresh page each call,
    // exercising the dense chunked table).
    c.bench_function("page_translate_stream", |b| {
        let mut pt = PageTable::new(4, Placement::FirstTouch);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 64) % (32 * 1024 * 1024);
            black_box(pt.resolve(Addr(i), GpmId(0)))
        })
    });

    c.bench_function("page_translate_stride", |b| {
        let mut pt = PageTable::new(4, Placement::Interleaved);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 4096) % (32 * 1024 * 1024);
            black_box(pt.resolve(Addr(i), GpmId(1)))
        })
    });

    // Quantum epoch turnaround: record a little traffic, then drain it into
    // a reusable scratch ledger (the executor does this once per quantum).
    c.bench_function("drain_pending_epoch", |b| {
        let mut mem = MemorySystem::new(4, MemConfig::default(), Placement::FirstTouch);
        let mut scratch = Traffic::new(4);
        let mut i = 0u64;
        b.iter(|| {
            i += 64;
            mem.read(GpmId(0), Addr(i % (1 << 20)), TrafficClass::Texture, true);
            mem.drain_pending_into(&mut scratch);
            black_box(scratch.local_bytes())
        })
    });

    c.bench_function("memory_system_read", |b| {
        let mut mem = MemorySystem::new(4, MemConfig::default(), Placement::FirstTouch);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 64) % (8 * 1024 * 1024);
            black_box(mem.read(GpmId((i / 64 % 4) as u8), Addr(i), TrafficClass::Texture, true))
        })
    });

    // Rasterizer throughput on a mid-size triangle.
    let scene = common::scene();
    let tri = scene.objects()[0]
        .triangles(scene.resolution(), Eye::Left)
        .next()
        .expect("object has triangles");
    c.bench_function("rasterize_triangle", |b| {
        b.iter(|| black_box(fragment_count(&tri, None, 128, 96)))
    });

    // TSL batching over a full draw list.
    let big = benchmarks::nfs().scaled(0.2).build();
    c.bench_function("tsl_batching_nfs", |b| {
        b.iter(|| black_box(build_batches(&big, MiddlewareConfig::default()).len()))
    });

    // Scene generation.
    c.bench_function("scene_generation", |b| {
        let spec = benchmarks::hl2_640().scaled(0.2);
        b.iter(|| black_box(spec.build().draw_count()))
    });

    // One object through the full pipeline.
    c.bench_function("executor_single_object", |b| {
        b.iter(|| {
            let mut ex = Executor::new(
                GpuConfig::default(),
                &scene,
                Placement::FirstTouch,
                FbOrg::InterleavedPages,
                ColorMode::Direct,
            );
            ex.exec_unit(GpmId(0), &RenderUnit::smp(scene.objects()[0].id()));
            black_box(ex.finish("bench", Composition::None).frame_cycles)
        })
    });
}

criterion_group! {
    name = benches;
    config = common::criterion();
    targets = bench
}
criterion_main!(benches);
