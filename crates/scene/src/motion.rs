//! The projected-bound motion metric behind temporal reuse.
//!
//! [`MotionProbe::motion`] measures how far one object's viewport bound
//! moves on screen between two head poses. The temporal-reuse layer asks
//! that for every object of a scene, once per frame per session, so the
//! metric's inputs are split by what they depend on:
//!
//! * `PoseDelta` is the pose-pair half — the equality flag, both view
//!   matrices and the positional shift — computed once per call;
//! * [`MotionProbe`] is the per-object half — the bound's corners, their
//!   view rays under the canonical frustum, the viewport diagonal and the
//!   parallax weight — computed once when the probe is built;
//! * [`MotionProbes`] lays many probes out as columns (per corner, per
//!   component, one `Vec<f64>` across objects), and
//!   [`for_each_motion`](MotionProbes::for_each_motion) builds one
//!   `PoseDelta` and measures every probe in one loop, handing each
//!   motion to the caller's fold, so a decision allocates nothing.
//!
//! # Exactness
//!
//! The scalar and batched paths call one per-object function, so they
//! agree bit for bit. Hoisting changes *where* a value is computed, never
//! *how*: each hoisted value is the same expression on the same operands,
//! and each object's remaining operations keep their order — the two
//! matrix-vector products are not pre-composed into one, no sum is
//! reassociated, no multiply-add is fused, and `f64::max`/`f64::min` keep
//! their semantics. The one rewrite is the farthest corner, picked by
//! squared distance before a single square root; `moving_motion` shows why
//! that is exact. Vectorising across objects is exact as well: lane-wise
//! add, multiply, divide and square root round like their scalar forms.

use crate::pose::Pose;

/// The pose-pair half of the motion metric for `from → to`: everything that
/// does not depend on the object, computed once and shared by every probe.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PoseDelta {
    /// `from == to`: every probe measures exactly zero.
    still: bool,
    /// World→view basis of the old pose.
    from_view: [[f64; 3]; 3],
    /// World→view basis of the new pose.
    to_view: [[f64; 3]; 3],
    /// Euclidean head displacement in meters.
    shift: f64,
}

impl PoseDelta {
    /// The delta from `from` to `to`.
    fn new(from: &Pose, to: &Pose) -> Self {
        let dp = [
            to.position[0] - from.position[0],
            to.position[1] - from.position[1],
            to.position[2] - from.position[2],
        ];
        PoseDelta {
            still: from == to,
            from_view: from.view_matrix(),
            to_view: to.view_matrix(),
            shift: (dp[0] * dp[0] + dp[1] * dp[1] + dp[2] * dp[2]).sqrt(),
        }
    }
}

/// Precomputed reprojection data of one object's viewport bound — see
/// [`RenderObject::motion_probe`](crate::object::RenderObject::motion_probe).
/// The probe assumes the canonical 90° symmetric frustum
/// (`tan(fov/2) = 1` on both axes), which is all the motion *metric*
/// needs: it ranks pose deltas, it does not rasterize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionProbe {
    /// Pixel-space corners of the left-eye viewport bound.
    corners: [[f64; 2]; 4],
    /// Each corner's view ray `(x, y, 1)` under the canonical frustum; the
    /// constant `z = 1` is not stored.
    rays: [[f64; 2]; 4],
    /// Parallax weight `1 - depth`; nearer objects shift more.
    near: f64,
    /// Per-eye viewport width in pixels.
    width: f64,
    /// Per-eye viewport height in pixels.
    height: f64,
    /// Viewport diagonal in pixels: the full-screen move motion saturates at.
    diag: f64,
}

impl MotionProbe {
    /// A probe of the bound with pixel-space `corners` at `depth` in a
    /// `width × height` viewport.
    pub(crate) fn new(corners: [[f64; 2]; 4], depth: f64, width: f64, height: f64) -> Self {
        // Pixel -> NDC -> view-space ray under the canonical frustum.
        let rays = corners.map(|[px, py]| [px / width * 2.0 - 1.0, py / height * 2.0 - 1.0]);
        MotionProbe {
            corners,
            rays,
            near: 1.0 - depth,
            width,
            height,
            diag: (width * width + height * height).sqrt(),
        }
    }

    /// Projected-bound motion in pixels between `from` and `to`: the
    /// maximum screen displacement of the bound's corners when their view
    /// rays are carried from the old view basis into the new one, plus a
    /// positional parallax term scaled by `(1 - depth)`. A corner whose
    /// reprojected ray leaves the forward frustum counts as a full-screen
    /// move (the object must be re-rendered, not warped).
    ///
    /// Callers measuring many probes under one pose pair should use
    /// [`MotionProbes::motions`], which does the pose-pair work once; both
    /// agree bit for bit.
    pub fn motion(&self, from: &Pose, to: &Pose) -> f64 {
        let delta = PoseDelta::new(from, to);
        if delta.still {
            0.0
        } else {
            moving_motion(&delta, self)
        }
    }
}

/// One probe's motion under a delta whose poses differ — the single
/// definition of the metric's arithmetic.
///
/// Every corner is evaluated and a corner behind the viewer sets a flag
/// instead of returning early, so a loop over probes has no exit and no
/// data-dependent branch. The result equals stopping at the first such
/// corner: it is then `diag` whatever the other corners measured.
///
/// The farthest corner is found by squared distance and only its distance
/// takes a square root. That equals the maximum of per-corner roots bit for
/// bit: `sqrt` is correctly rounded and monotone, a sum of squares is never
/// `-0.0`, and `f64::max` skips a NaN operand either way.
#[inline(always)]
fn moving_motion(d: &PoseDelta, p: &MotionProbe) -> f64 {
    let mut worst_sq = 0.0f64;
    let mut behind = false;
    for (&[px, py], &[rx, ry]) in p.corners.iter().zip(&p.rays) {
        let v = [rx, ry, 1.0];
        // View matrices map world->view with orthonormal rows, so the
        // world ray is R_from^T · v and the new view ray R_to · world.
        let mut w = [0.0f64; 3];
        for (i, vi) in v.iter().enumerate() {
            for (j, wj) in w.iter_mut().enumerate() {
                *wj += d.from_view[i][j] * vi;
            }
        }
        let mut n = [0.0f64; 3];
        for (i, ni) in n.iter_mut().enumerate() {
            for (j, wj) in w.iter().enumerate() {
                *ni += d.to_view[i][j] * wj;
            }
        }
        behind |= n[2] <= 1e-9;
        let nx = (n[0] / n[2] + 1.0) * 0.5 * p.width;
        let ny = (n[1] / n[2] + 1.0) * 0.5 * p.height;
        worst_sq = worst_sq.max((nx - px) * (nx - px) + (ny - py) * (ny - py));
    }
    let parallax = d.shift * p.near * 0.5 * p.width;
    if behind {
        p.diag
    } else {
        (worst_sq.sqrt() + parallax).min(p.diag)
    }
}

/// Many [`MotionProbe`]s as structure-of-arrays: one `Vec<f64>` per corner
/// per component, and one per scalar field, each indexed by object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MotionProbes {
    corner_x: [Vec<f64>; 4],
    corner_y: [Vec<f64>; 4],
    ray_x: [Vec<f64>; 4],
    ray_y: [Vec<f64>; 4],
    near: Vec<f64>,
    width: Vec<f64>,
    height: Vec<f64>,
    diag: Vec<f64>,
}

impl MotionProbes {
    /// Number of probes.
    pub fn len(&self) -> usize {
        self.near.len()
    }

    /// Whether there are no probes.
    pub fn is_empty(&self) -> bool {
        self.near.is_empty()
    }

    fn push(&mut self, p: MotionProbe) {
        for k in 0..4 {
            self.corner_x[k].push(p.corners[k][0]);
            self.corner_y[k].push(p.corners[k][1]);
            self.ray_x[k].push(p.rays[k][0]);
            self.ray_y[k].push(p.rays[k][1]);
        }
        self.near.push(p.near);
        self.width.push(p.width);
        self.height.push(p.height);
        self.diag.push(p.diag);
    }

    /// Every probe's motion between `from` and `to`, in order.
    /// Bit-identical to calling [`MotionProbe::motion`] per probe.
    pub fn motions(&self, from: &Pose, to: &Pose) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_motion(from, to, |_, m| out.push(m));
        out
    }

    /// Calls `f(o, motion)` for every probe `o` in order, with the motions
    /// of [`motions`](Self::motions): a caller folds them without
    /// allocating.
    pub fn for_each_motion(&self, from: &Pose, to: &Pose, mut f: impl FnMut(usize, f64)) {
        let n = self.len();
        let delta = PoseDelta::new(from, to);
        if delta.still {
            (0..n).for_each(|o| f(o, 0.0));
            return;
        }
        // Slicing every column to `n` once lets the compiler drop the
        // per-object bounds checks.
        let cx = self.corner_x.each_ref().map(|c| &c[..n]);
        let cy = self.corner_y.each_ref().map(|c| &c[..n]);
        let rx = self.ray_x.each_ref().map(|c| &c[..n]);
        let ry = self.ray_y.each_ref().map(|c| &c[..n]);
        let (near, width, height, diag) =
            (&self.near[..n], &self.width[..n], &self.height[..n], &self.diag[..n]);
        for o in 0..n {
            let p = MotionProbe {
                corners: [0, 1, 2, 3].map(|k| [cx[k][o], cy[k][o]]),
                rays: [0, 1, 2, 3].map(|k| [rx[k][o], ry[k][o]]),
                near: near[o],
                width: width[o],
                height: height[o],
                diag: diag[o],
            };
            f(o, moving_motion(&delta, &p));
        }
    }
}

impl FromIterator<MotionProbe> for MotionProbes {
    fn from_iter<I: IntoIterator<Item = MotionProbe>>(iter: I) -> Self {
        let mut probes = MotionProbes::default();
        for p in iter {
            probes.push(p);
        }
        probes
    }
}
