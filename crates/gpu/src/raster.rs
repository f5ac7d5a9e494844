//! Quad-granularity rasterization.
//!
//! The raster engine walks a triangle's bounding box in 2×2 pixel quads (the
//! granularity real GPUs shade and sample at), emitting covered quads with
//! interpolated texel coordinates. Triangles are clipped to an optional
//! screen rectangle (tile schemes, per-eye SMP clipping).

use oovr_scene::{Rect, ScreenTriangle, Vec2};

/// Raster tile-classification counters. The per-pixel rasterizer classifies
/// no tiles, so every field is always zero; the type and
/// [`raster_tile_stats`] stay only because the repository benchmark's
/// counter adapter (`perfbench/src/counters.rs`) reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasterTileStats {
    /// Tiles emitted whole without per-pixel tests (always 0).
    pub accepted: u64,
    /// Tiles skipped without per-pixel work (always 0).
    pub rejected: u64,
    /// Tiles walked per pixel (always 0).
    pub partial: u64,
}

/// Always-zero raster tile counters; see [`RasterTileStats`].
pub fn raster_tile_stats() -> RasterTileStats {
    RasterTileStats::default()
}

/// A shaded 2×2 quad of fragments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadFragment {
    /// X of the quad's top-left pixel (even).
    pub x: u32,
    /// Y of the quad's top-left pixel (even).
    pub y: u32,
    /// Coverage mask: bit 0 = (x,y), bit 1 = (x+1,y), bit 2 = (x,y+1),
    /// bit 3 = (x+1,y+1).
    pub mask: u8,
    /// Texel coordinates at the quad centroid (mean of covered samples).
    pub uv: Vec2,
    /// Depth of the quad (constant per triangle in this model).
    pub z: f32,
}

impl QuadFragment {
    /// Number of covered fragments in the quad (1–4).
    pub fn coverage(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Iterates the covered pixel coordinates.
    pub fn pixels(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..4u32)
            .filter(|i| self.mask & (1 << i) != 0)
            .map(move |i| (self.x + (i & 1), self.y + (i >> 1)))
    }
}

/// Rasterizes `tri` clipped to `clip` (in stereo-frame pixels) over a frame
/// of `frame_w × frame_h`, invoking `sink` for every covered quad in
/// row-major quad order. A quad's UV is the mean of its covered samples.
///
/// Returns the number of covered quads emitted.
pub fn rasterize(
    tri: &ScreenTriangle,
    clip: Option<&Rect>,
    frame_w: u32,
    frame_h: u32,
    mut sink: impl FnMut(QuadFragment),
) -> u64 {
    // `[x0, x1) × [y0, y1)` are the sampled pixels; quads start on even
    // coordinates at or before `(x0, y0)`.
    let (mut x0, mut y0, mut x1, mut y1) = tri.bounds_clamped(frame_w, frame_h);
    if let Some(c) = clip {
        x0 = x0.max(c.x.floor().max(0.0) as u32);
        y0 = y0.max(c.y.floor().max(0.0) as u32);
        x1 = x1.min(c.x1().ceil().max(0.0) as u32);
        y1 = y1.min(c.y1().ceil().max(0.0) as u32);
    }
    if x0 >= x1 || y0 >= y1 {
        return 0;
    }
    let sampler = tri.sampler();
    // Degenerate triangles cover no sample; the walk would emit nothing
    // after testing every pixel.
    if sampler.is_degenerate() {
        return 0;
    }
    let mut quads = 0;
    let mut y = y0 & !1;
    while y < y1 {
        let mut x = x0 & !1;
        while x < x1 {
            let mut mask = 0u8;
            let mut usum = 0.0f32;
            let mut vsum = 0.0f32;
            let mut n = 0u32;
            for i in 0..4u32 {
                let px = x + (i & 1);
                let py = y + (i >> 1);
                if px < x0 || px >= x1 || py < y0 || py >= y1 {
                    continue;
                }
                if let Some(uv) = sampler.sample(px, py) {
                    mask |= 1 << i;
                    usum += uv.x;
                    vsum += uv.y;
                    n += 1;
                }
            }
            if mask != 0 {
                quads += 1;
                let uv = Vec2::new(usum / n as f32, vsum / n as f32);
                sink(QuadFragment { x, y, mask, uv, z: tri.z });
            }
            x += 2;
        }
        y += 2;
    }
    quads
}

/// Counts the fragments (covered pixels) a triangle produces under a clip —
/// a cheaper call when only counts matter.
pub fn fragment_count(
    tri: &ScreenTriangle,
    clip: Option<&Rect>,
    frame_w: u32,
    frame_h: u32,
) -> u64 {
    let mut frags = 0u64;
    rasterize(tri, clip, frame_w, frame_h, |q| frags += u64::from(q.coverage()));
    frags
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_scene::TextureId;

    fn tri(v: [(f32, f32); 3]) -> ScreenTriangle {
        ScreenTriangle {
            v: [Vec2::new(v[0].0, v[0].1), Vec2::new(v[1].0, v[1].1), Vec2::new(v[2].0, v[2].1)],
            uv: [Vec2::new(0.0, 0.0), Vec2::new(32.0, 0.0), Vec2::new(0.0, 32.0)],
            z: 0.5,
            texture: TextureId(0),
        }
    }

    #[test]
    fn right_triangle_covers_half_its_box() {
        let t = tri([(0.0, 0.0), (16.0, 0.0), (0.0, 16.0)]);
        let frags = fragment_count(&t, None, 64, 64);
        // Half of 256 pixels, within rasterization tolerance.
        assert!((100..=156).contains(&frags), "frags = {frags}");
    }

    #[test]
    fn full_square_from_two_triangles_covers_exactly() {
        let a = tri([(0.0, 0.0), (16.0, 0.0), (0.0, 16.0)]);
        let b = tri([(16.0, 0.0), (16.0, 16.0), (0.0, 16.0)]);
        let frags = fragment_count(&a, None, 64, 64) + fragment_count(&b, None, 64, 64);
        assert_eq!(frags, 256, "two triangles tile the 16×16 square");
    }

    #[test]
    fn clip_restricts_coverage() {
        let t = tri([(0.0, 0.0), (16.0, 0.0), (0.0, 16.0)]);
        let clip = Rect::new(0.0, 0.0, 8.0, 16.0);
        let clipped = fragment_count(&t, Some(&clip), 64, 64);
        let full = fragment_count(&t, None, 64, 64);
        assert!(clipped < full);
        assert!(clipped > 0);
    }

    #[test]
    fn disjoint_clip_is_empty() {
        let t = tri([(0.0, 0.0), (16.0, 0.0), (0.0, 16.0)]);
        let clip = Rect::new(32.0, 32.0, 8.0, 8.0);
        assert_eq!(fragment_count(&t, Some(&clip), 64, 64), 0);
    }

    #[test]
    fn quads_have_valid_masks_and_pixels() {
        let t = tri([(0.0, 0.0), (8.0, 0.0), (0.0, 8.0)]);
        let mut total = 0;
        rasterize(&t, None, 64, 64, |q| {
            assert!(q.mask != 0 && q.mask < 16);
            assert_eq!(q.x % 2, 0);
            assert_eq!(q.y % 2, 0);
            assert_eq!(q.pixels().count() as u32, q.coverage());
            for (px, py) in q.pixels() {
                assert!(px < 8 && py < 8);
            }
            total += q.coverage();
        });
        assert!(total > 0);
    }

    #[test]
    fn offscreen_triangle_emits_nothing() {
        let t = tri([(100.0, 100.0), (120.0, 100.0), (100.0, 120.0)]);
        assert_eq!(fragment_count(&t, None, 64, 64), 0);
    }

    #[test]
    fn uv_interpolation_increases_along_x() {
        let t = tri([(0.0, 0.0), (32.0, 0.0), (0.0, 32.0)]);
        let mut left_uv = None;
        let mut right_uv = None;
        rasterize(&t, None, 64, 64, |q| {
            if q.x == 0 && q.y == 0 {
                left_uv = Some(q.uv.x);
            }
            if q.x == 16 && q.y == 0 {
                right_uv = Some(q.uv.x);
            }
        });
        assert!(right_uv.unwrap() > left_uv.unwrap());
    }
}
