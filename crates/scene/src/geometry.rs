//! Minimal screen-space geometry: vectors, rectangles, and triangles.
//!
//! The simulator rasterizes real screen-space triangles (the paper's
//! experiments hinge on fragment volume, overlap and texture footprints, all
//! of which derive from geometry), but we deliberately stay in 2.5D screen
//! space: objects carry a depth and a screen rectangle rather than a full 3D
//! transform. The geometry *stage cost* (vertex shading etc.) is modeled in
//! `oovr-gpu` from triangle/vertex counts.

use crate::types::TextureId;

/// A 2D vector / point in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
}

impl Vec2 {
    /// Creates a vector.
    pub fn new(x: f32, y: f32) -> Self {
        Vec2 { x, y }
    }
}

/// An axis-aligned rectangle in normalized eye coordinates (`[0,1]²`) or in
/// pixels, depending on context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x: f32,
    /// Top edge.
    pub y: f32,
    /// Width (non-negative).
    pub w: f32,
    /// Height (non-negative).
    pub h: f32,
}

impl Rect {
    /// Creates a rectangle.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is negative.
    pub fn new(x: f32, y: f32, w: f32, h: f32) -> Self {
        assert!(w >= 0.0 && h >= 0.0, "rect extent must be non-negative");
        Rect { x, y, w, h }
    }

    /// Right edge.
    pub fn x1(&self) -> f32 {
        self.x + self.w
    }

    /// Bottom edge.
    pub fn y1(&self) -> f32 {
        self.y + self.h
    }

    /// Area.
    pub fn area(&self) -> f64 {
        f64::from(self.w) * f64::from(self.h)
    }

    /// Intersection with another rect, or `None` if disjoint.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = self.x1().min(other.x1());
        let y1 = self.y1().min(other.y1());
        if x1 > x0 && y1 > y0 {
            Some(Rect::new(x0, y0, x1 - x0, y1 - y0))
        } else {
            None
        }
    }

    /// Whether the rectangles overlap with positive area.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.intersect(other).is_some()
    }
}

/// A screen-space triangle ready for rasterization.
///
/// Vertices are in stereo-frame pixel coordinates. `uv` are texel
/// coordinates into `texture`; `z` is the (constant-per-object in our model)
/// depth used for the Z test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenTriangle {
    /// The three vertices in pixels.
    pub v: [Vec2; 3],
    /// Texel coordinates at each vertex.
    pub uv: [Vec2; 3],
    /// Depth in `[0,1)`; smaller is nearer.
    pub z: f32,
    /// Texture sampled by this triangle's fragments.
    pub texture: TextureId,
}

impl ScreenTriangle {
    /// Twice the signed area of the triangle (negative when wound clockwise).
    pub fn double_area(&self) -> f32 {
        let [a, b, c] = self.v;
        (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)
    }

    /// Absolute area in pixels².
    pub fn area(&self) -> f32 {
        self.double_area().abs() * 0.5
    }

    /// Axis-aligned pixel bounding box `(x0, y0, x1, y1)`, inclusive of x0/y0
    /// and exclusive of x1/y1, clamped to the given frame extent.
    pub fn bounds_clamped(&self, frame_w: u32, frame_h: u32) -> (u32, u32, u32, u32) {
        let min_x = self.v.iter().map(|p| p.x).fold(f32::INFINITY, f32::min);
        let min_y = self.v.iter().map(|p| p.y).fold(f32::INFINITY, f32::min);
        let max_x = self.v.iter().map(|p| p.x).fold(f32::NEG_INFINITY, f32::max);
        let max_y = self.v.iter().map(|p| p.y).fold(f32::NEG_INFINITY, f32::max);
        let x0 = min_x.floor().max(0.0) as u32;
        let y0 = min_y.floor().max(0.0) as u32;
        let x1 = (max_x.ceil().max(0.0) as u32).min(frame_w);
        let y1 = (max_y.ceil().max(0.0) as u32).min(frame_h);
        (x0.min(frame_w), y0.min(frame_h), x1, y1)
    }

    /// Barycentric-style coverage test for pixel center `(px + 0.5, py + 0.5)`.
    ///
    /// Returns interpolated UV when covered. Sample points carry a tiny
    /// deterministic offset so pixel centers never lie exactly on shared
    /// mesh edges: adjacent triangles then cover each pixel exactly once,
    /// like hardware top-left fill rules guarantee.
    pub fn sample(&self, px: u32, py: u32) -> Option<Vec2> {
        self.sampler().sample(px, py)
    }

    /// Per-triangle sampling state for a rasterization loop: the double
    /// area, its degeneracy test, and its winding sign are invariant across
    /// every pixel of the triangle, so callers probing many pixels hoist
    /// them here once. [`TriSampler::sample`] performs bit-for-bit the same
    /// arithmetic as [`sample`](Self::sample).
    pub fn sampler(&self) -> TriSampler<'_> {
        let d = self.double_area();
        TriSampler { tri: self, d, degenerate: d.abs() < 1e-12, ccw: d > 0.0 }
    }
}

/// Hoisted per-triangle state for repeated [`ScreenTriangle::sample`]
/// queries; see [`ScreenTriangle::sampler`].
#[derive(Debug, Clone, Copy)]
pub struct TriSampler<'a> {
    tri: &'a ScreenTriangle,
    d: f32,
    degenerate: bool,
    ccw: bool,
}

impl TriSampler<'_> {
    /// Whether the triangle is degenerate (`|2A| < 1e-12`). Every
    /// [`sample`](Self::sample) of a degenerate triangle returns `None`, so
    /// rasterizers may skip its pixels wholesale.
    pub fn is_degenerate(&self) -> bool {
        self.degenerate
    }

    /// Coverage/UV test for pixel `(px, py)`; identical results to
    /// [`ScreenTriangle::sample`].
    #[inline]
    pub fn sample(&self, px: u32, py: u32) -> Option<Vec2> {
        if self.degenerate {
            return None;
        }
        let p = Vec2::new(px as f32 + 0.5 + 1.0 / 64.0, py as f32 + 0.5 + 1.0 / 128.0);
        let [a, b, c] = self.tri.v;
        let n0 = (b.x - p.x) * (c.y - p.y) - (c.x - p.x) * (b.y - p.y);
        let n1 = (c.x - p.x) * (a.y - p.y) - (a.x - p.x) * (c.y - p.y);
        // `w_i = n_i / d` and IEEE division preserves sign (±0 compares equal
        // to 0), so `w_i >= 0` can be decided from the numerator signs alone —
        // outside pixels skip both divisions in this per-pixel hot path.
        let edges_ok = if self.ccw { n0 >= 0.0 && n1 >= 0.0 } else { n0 <= 0.0 && n1 <= 0.0 };
        if !edges_ok {
            return None;
        }
        let w0 = n0 / self.d;
        let w1 = n1 / self.d;
        let w2 = 1.0 - w0 - w1;
        if w2 >= 0.0 {
            let uv = Vec2::new(
                w0 * self.tri.uv[0].x + w1 * self.tri.uv[1].x + w2 * self.tri.uv[2].x,
                w0 * self.tri.uv[0].y + w1 * self.tri.uv[1].y + w2 * self.tri.uv[2].y,
            );
            Some(uv)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri(v: [(f32, f32); 3]) -> ScreenTriangle {
        ScreenTriangle {
            v: [Vec2::new(v[0].0, v[0].1), Vec2::new(v[1].0, v[1].1), Vec2::new(v[2].0, v[2].1)],
            uv: [Vec2::default(); 3],
            z: 0.5,
            texture: TextureId(0),
        }
    }

    #[test]
    fn triangle_area() {
        let t = tri([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]);
        assert_eq!(t.area(), 50.0);
    }

    #[test]
    fn rect_intersection() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(5.0, 5.0, 10.0, 10.0);
        let i = a.intersect(&b).unwrap();
        assert_eq!((i.x, i.y, i.w, i.h), (5.0, 5.0, 5.0, 5.0));
        let c = Rect::new(20.0, 20.0, 1.0, 1.0);
        assert!(a.intersect(&c).is_none());
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn sample_inside_and_outside() {
        let t = tri([(0.0, 0.0), (8.0, 0.0), (0.0, 8.0)]);
        assert!(t.sample(1, 1).is_some());
        assert!(t.sample(7, 7).is_none());
    }

    #[test]
    fn bounds_clamping() {
        let t = tri([(-5.0, -5.0), (100.0, 0.0), (0.0, 100.0)]);
        let (x0, y0, x1, y1) = t.bounds_clamped(64, 64);
        assert_eq!((x0, y0, x1, y1), (0, 0, 64, 64));
    }

    #[test]
    fn degenerate_triangle_covers_nothing() {
        let t = tri([(0.0, 0.0), (10.0, 10.0), (20.0, 20.0)]);
        assert!(t.sample(5, 5).is_none());
        assert_eq!(t.area(), 0.0);
    }

    #[test]
    fn uv_interpolation_matches_corners() {
        let mut t = tri([(0.0, 0.0), (16.0, 0.0), (0.0, 16.0)]);
        t.uv = [Vec2::new(0.0, 0.0), Vec2::new(64.0, 0.0), Vec2::new(0.0, 64.0)];
        let uv = t.sample(0, 0).expect("corner pixel covered");
        assert!(uv.x < 8.0 && uv.y < 8.0, "near-origin pixel maps near uv origin: {uv:?}");
    }
}
