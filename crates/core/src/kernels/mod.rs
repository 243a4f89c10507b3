//! Portable SIMD kernels for the EGG-update hot loops.
//!
//! The update and termination inner loops are wide, regular f64 arithmetic
//! — the shape the paper exploits on a GPU and a CPU vector unit eats just
//! as well. This module provides a fixed-width 4-lane vector type
//! ([`F64x4`], a plain `[f64; 4]` wrapper whose operations reliably
//! autovectorize on stable Rust) plus the blocked kernels built on it:
//!
//! * [`pair_term_cell`] — the partial-cell pair term
//!   `sin q · cos p − cos q · sin p` over one cell's lane range, striping
//!   four neighbor rows of the grid-sorted lane tables per step;
//! * [`distance_sq_lanes`] — four point-to-point squared distances at once,
//!   accumulated **dimension-major without fused multiply-add**, so each
//!   lane reproduces the scalar `d² += d·d` sequence bit for bit and every
//!   neighborhood predicate (`d² ≤ ε²`) is *exact*, not merely close.
//!
//! Each kernel has one source and no dispatch of its own: it is
//! `#[inline(always)]` portable code, compiled by its caller. The host
//! update's candidate walk
//! ([`CandidateWalk::visit`](crate::egg::update::CandidateWalk::visit))
//! compiles the pair term a second time inside a
//! `#[target_feature(enable = "avx2")]` wrapper where [`avx2_available`]
//! confirms the CPU has it. Both compilations run the same operations in
//! the same order — separate multiply and add, never FMA — so they give
//! the same bits.
//!
//! Only the order of the cross-lane reduction differs from the scalar
//! oracle: the pair-term partial sums are folded `((l₀+l₁)+l₂)+l₃` at the
//! end of a point's neighborhood walk. That reassociation is the sole
//! source of divergence, covered by the 1e-9 tolerance the trig-table fast
//! path already established; the scalar path remains the oracle.

use crate::algorithms::gpu_sync::MAX_DIM;

/// Fixed vector width of the kernel layer, in f64 lanes.
pub const LANES: usize = 4;

/// Round `len` up to the next multiple of [`LANES`] — the padded length
/// of the device grid's lane-aligned allocations.
#[inline]
pub const fn lane_pad(len: usize) -> usize {
    len.div_ceil(LANES) * LANES
}

/// Four f64 lanes. Operations are plain per-lane arithmetic on a fixed
/// array, written so the compiler reliably autovectorizes them on stable.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct F64x4(pub [f64; LANES]);

impl F64x4 {
    /// All lanes zero.
    pub const ZERO: Self = Self([0.0; LANES]);

    /// Broadcast `v` into every lane.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; LANES])
    }

    /// Load the first [`LANES`] elements of `src`.
    #[inline(always)]
    pub fn load(src: &[f64]) -> Self {
        Self(src[..LANES].try_into().unwrap())
    }

    /// The lanes as a plain array.
    #[inline(always)]
    pub fn to_array(self) -> [f64; LANES] {
        self.0
    }

    /// Per-lane `self ≤ rhs`.
    #[inline(always)]
    pub fn le(self, rhs: Self) -> Mask4 {
        let mut out = [false; LANES];
        for i in 0..LANES {
            out[i] = self.0[i] <= rhs.0[i];
        }
        Mask4(out)
    }

    /// Per-lane `self > rhs`.
    #[inline(always)]
    pub fn gt(self, rhs: Self) -> Mask4 {
        let mut out = [false; LANES];
        for i in 0..LANES {
            out[i] = self.0[i] > rhs.0[i];
        }
        Mask4(out)
    }

    /// Per-lane `self` where `self > rhs`, else `rhs`: the operand rule of
    /// x86's `maxpd`, which it matches bit for bit, signed zeros and NaNs
    /// included.
    #[inline(always)]
    pub fn larger(self, rhs: Self) -> Self {
        let mut out = rhs.0;
        for i in 0..LANES {
            if self.0[i] > rhs.0[i] {
                out[i] = self.0[i];
            }
        }
        Self(out)
    }

    /// Per-lane `self ≤ rhs` as lane bit patterns: all ones where it
    /// holds, zero elsewhere (`vcmppd`'s result), so the mask applies by a
    /// bitwise and ([`F64x4::and_bits`]) and counts by integer subtraction
    /// without leaving the vector registers.
    #[inline(always)]
    fn le_bits(self, rhs: Self) -> [u64; LANES] {
        let mut out = [0; LANES];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&rhs.0)) {
            *o = u64::from(a <= b).wrapping_neg();
        }
        out
    }

    /// Per-lane bitwise `self & mask`: the lane where its mask lane is all
    /// ones, `+0.0` where it is zero.
    #[inline(always)]
    fn and_bits(self, mask: [u64; LANES]) -> Self {
        let mut out = self.0;
        for (o, m) in out.iter_mut().zip(mask) {
            *o = f64::from_bits(o.to_bits() & m);
        }
        Self(out)
    }

    /// Ordered horizontal sum `((l₀ + l₁) + l₂) + l₃` — a fixed fold, so
    /// the reduction is deterministic for any worker count.
    #[inline(always)]
    pub fn reduce_sum(self) -> f64 {
        ((self.0[0] + self.0[1]) + self.0[2]) + self.0[3]
    }
}

impl std::ops::Add for F64x4 {
    type Output = Self;

    /// Per-lane addition.
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(&rhs.0) {
            *o += r;
        }
        Self(out)
    }
}

impl std::ops::AddAssign for F64x4 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub for F64x4 {
    type Output = Self;

    /// Per-lane subtraction.
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(&rhs.0) {
            *o -= r;
        }
        Self(out)
    }
}

impl std::ops::Mul for F64x4 {
    type Output = Self;

    /// Per-lane multiplication.
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(&rhs.0) {
            *o *= r;
        }
        Self(out)
    }
}

/// Four boolean lanes, the predicate companion of [`F64x4`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct Mask4(pub [bool; LANES]);

impl Mask4 {
    /// The lanes as bits, lane `j` at bit `j` (`vmovmskpd`'s layout).
    #[inline(always)]
    pub fn bits(self) -> u32 {
        self.0
            .iter()
            .enumerate()
            .map(|(j, &b)| u32::from(b) << j)
            .sum()
    }
}

/// Whether the AVX2 fast path is available on this CPU (always `false` off
/// `x86_64`). Detected once and cached.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Squared distances from `p` to the four points of one lane block of the
/// lane-blocked coordinate table (`block[i * LANES + j]` = dimension `i` of
/// the block's lane-`j` point).
///
/// Accumulated dimension-major with separate multiply and add, each lane
/// reproduces the scalar `d² += d·d` loop **bit for bit** — predicates
/// derived from these distances (`d² ≤ ε²`, shell membership) are exact,
/// never approximations of the scalar oracle.
#[inline(always)]
pub fn distance_sq_lanes(block: &[f64], p: &[f64]) -> F64x4 {
    let mut d2 = F64x4::ZERO;
    for (i, &pi) in p.iter().enumerate() {
        let d = F64x4::load(&block[i * LANES..]) - F64x4::splat(pi);
        d2 += d * d;
    }
    d2
}

/// The partial-cell pair term over lane indices `lo..hi` of the
/// lane-blocked tables: for every lane within `eps_sq` of `p`, add the
/// angle-addition term `sin q · cos p − cos q · sin p` to its lane of the
/// per-dimension accumulators `acc` (reduced once per point by the
/// caller). Returns the number of accepted lanes — with the exact lane
/// distances this equals the scalar path's neighbor count for the range.
///
/// `D` is the dimension, or 0 to take `dim` at run time. One portable body
/// with no dispatch: a caller compiled for AVX2 and specialized on `D`
/// (the candidate walk's `visit_avx2`) gets it with the accumulators and
/// the broadcasts of `p`, `sin p` and `cos p` in registers for the whole
/// range, and every compilation gives the same bits:
///
/// * each lane's distance is the scalar `d² += d·d` chain, dimension-major
///   with separate multiply and add ([`distance_sq_lanes`]);
/// * a lane's mask is a bit pattern, so every block adds `term & mask`
///   without a branch, and hits are counted per lane by integer
///   subtraction (an accepted lane is all ones, −1), summed once at the
///   end. Only the first and last block can straddle `lo..hi`, so only
///   they take a slot-range mask;
/// * a rejected lane adds `+0.0`, which leaves every accumulator that is
///   not `−0.0` unchanged. A fresh accumulator starts at `+0.0` and never
///   becomes `−0.0`: under round-to-nearest a sum is `−0.0` only when
///   both addends are.
///
/// # Panics
/// If `lo >= hi`, `dim` is 0 or above the engine's cap of 64, `p`,
/// `sin_p`, `cos_p` or `acc` hold fewer than `dim` elements, or a table is
/// too short for block `(hi − 1) / LANES`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn pair_term_cell<const D: usize>(
    lane_coords: &[f64],
    lane_sins: &[f64],
    lane_coss: &[f64],
    dim: usize,
    lo: usize,
    hi: usize,
    p: &[f64],
    sin_p: &[f64],
    cos_p: &[f64],
    eps_sq: f64,
    acc: &mut [F64x4],
) -> u32 {
    assert!(lo < hi, "empty lane range {lo}..{hi}");
    debug_assert!(D == 0 || D == dim, "D = {D} for dim {dim}");
    let dim = if D == 0 { dim } else { D };
    let (sin_p, cos_p) = (&sin_p[..dim], &cos_p[..dim]);
    // the point and the accumulators as locals, which the compiler keeps in
    // registers across the range
    let (mut p_row, mut sums) = ([0.0; MAX_DIM], [F64x4::ZERO; MAX_DIM]);
    p_row[..dim].copy_from_slice(&p[..dim]);
    sums[..dim].copy_from_slice(&acc[..dim]);
    let (p, sums) = (&p_row[..dim], &mut sums[..dim]);
    let (first, last) = (lo / LANES, (hi - 1) / LANES);
    // the slot-range masks as lane bit patterns: the first block keeps the
    // lanes from `lo`'s on, the last those up to `hi − 1`'s. Loaded from a
    // table, not built from compares: the compiler would turn compare
    // results back into booleans, and with them every block's mask
    const FROM_LANE: [[u64; LANES]; LANES + 1] = [
        [!0, !0, !0, !0],
        [0, !0, !0, !0],
        [0, 0, !0, !0],
        [0, 0, 0, !0],
        [0, 0, 0, 0],
    ];
    let head = FROM_LANE[lo % LANES];
    let tail = FROM_LANE[(hi - 1) % LANES + 1].map(|m| !m);
    let (bs, eps) = (dim * LANES, F64x4::splat(eps_sq));
    let mut hits = [0u64; LANES];
    let span = first * bs..(last + 1) * bs;
    let blocks = lane_coords[span.clone()]
        .chunks_exact(bs)
        .zip(lane_sins[span.clone()].chunks_exact(bs))
        .zip(lane_coss[span].chunks_exact(bs));
    // the first block takes `head`, the last `tail`, and the blocks between
    // keep every lane
    let mut edge = head;
    for (k, ((q, s), c)) in blocks.enumerate() {
        if k == last - first {
            edge = and_lanes(edge, tail);
        }
        let mask = and_lanes(distance_sq_lanes(q, p).le_bits(eps), edge);
        for (h, m) in hits.iter_mut().zip(mask) {
            *h = h.wrapping_sub(m);
        }
        for i in 0..dim {
            // sin(q−p) = sin q · cos p − cos q · sin p, four neighbors at once
            let term = F64x4::load(&s[i * LANES..]) * F64x4::splat(cos_p[i])
                - F64x4::load(&c[i * LANES..]) * F64x4::splat(sin_p[i]);
            sums[i] += term.and_bits(mask);
        }
        edge = [!0; LANES];
    }
    acc[..dim].copy_from_slice(sums);
    hits.iter().sum::<u64>() as u32
}

/// Per-lane `a & b` of two lane bit patterns.
#[inline(always)]
fn and_lanes(a: [u64; LANES], b: [u64; LANES]) -> [u64; LANES] {
    let mut out = a;
    for (o, m) in out.iter_mut().zip(b) {
        *o &= m;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_pad_rounds_up_to_lane_multiples() {
        assert_eq!(lane_pad(0), 0);
        assert_eq!(lane_pad(1), 4);
        assert_eq!(lane_pad(4), 4);
        assert_eq!(lane_pad(5), 8);
        assert_eq!(lane_pad(2 * 3), 8);
        assert_eq!(lane_pad(2 * 8), 16);
    }

    #[test]
    fn f64x4_arithmetic_is_per_lane() {
        let a = F64x4([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4([0.5, 0.5, 0.5, 0.5]);
        assert_eq!((a + b).0, [1.5, 2.5, 3.5, 4.5]);
        assert_eq!((a - b).0, [0.5, 1.5, 2.5, 3.5]);
        assert_eq!((a * b).0, [0.5, 1.0, 1.5, 2.0]);
        assert_eq!(a.reduce_sum(), 10.0);
        assert_eq!(F64x4::splat(7.0).0, [7.0; 4]);
    }

    #[test]
    fn mask_operations() {
        let v = F64x4([1.0, 5.0, 2.0, 9.0]);
        let m = v.le(F64x4::splat(4.0));
        assert_eq!(m.0, [true, false, true, false]);
        assert_eq!(m.bits(), 0b0101);
        assert_eq!(v.gt(F64x4::splat(4.0)).bits(), 0b1010);
        let bits = v.le_bits(F64x4::splat(4.0));
        assert_eq!(bits, [u64::MAX, 0, u64::MAX, 0]);
        // a rejected lane becomes +0.0, whatever its sign
        let kept = F64x4([-1.5, -2.0, -0.0, 3.0]).and_bits(bits);
        assert_eq!(
            kept.0.map(f64::to_bits),
            [-1.5f64, 0.0, -0.0, 0.0].map(f64::to_bits)
        );
    }

    #[test]
    fn reduce_sum_is_the_fixed_left_fold() {
        // pick lanes whose sum is order-sensitive in f64
        let v = F64x4([1e16, 1.0, -1e16, 1.0]);
        assert_eq!(v.reduce_sum(), ((1e16 + 1.0) + -1e16) + 1.0);
    }

    /// Build a lane block (`dim × LANES`, dimension-major) from 4 points.
    fn block_of(points: &[[f64; 3]; LANES]) -> Vec<f64> {
        let mut out = vec![0.0; 3 * LANES];
        for (j, p) in points.iter().enumerate() {
            for i in 0..3 {
                out[i * LANES + j] = p[i];
            }
        }
        out
    }

    #[test]
    fn distance_lanes_match_scalar_sequence_bitwise() {
        let qs = [
            [0.1, 0.7, 0.3],
            [0.9999, 0.0001, 0.5],
            [0.25, 0.25, 0.25],
            [0.6, 0.4, 0.8],
        ];
        let p = [0.3, 0.3, 0.31];
        let block = block_of(&qs);
        let lanes = distance_sq_lanes(&block, &p).to_array();
        for (j, q) in qs.iter().enumerate() {
            let mut d_sq = 0.0;
            for i in 0..3 {
                let d = q[i] - p[i];
                d_sq += d * d;
            }
            assert_eq!(lanes[j].to_bits(), d_sq.to_bits(), "lane {j}");
        }
    }

    /// `pair_term_cell::<D>` against the scalar pair loop over the same
    /// lanes: the exact hit count, and the lane-reduced sums within 1e-12.
    /// Four blocks of rows, so lane ranges can sit inside one block,
    /// straddle several or cover all of them, at every lane offset.
    fn check_pair_term_cell<const D: usize>(dim: usize) {
        const BLOCKS: usize = 4;
        // golden-ratio sequence: spread over [0, 1), so every eps² below
        // accepts a different share of the lanes, trailing ones included
        let val = |k: usize| (k as f64 * 0.618_033_988_749_895).fract();
        let coords: Vec<f64> = (0..BLOCKS * dim * LANES).map(val).collect();
        let sins: Vec<f64> = coords.iter().map(|x| x.sin()).collect();
        let coss: Vec<f64> = coords.iter().map(|x| x.cos()).collect();
        let p: Vec<f64> = (0..dim).map(|i| 0.4 + 0.05 * i as f64).collect();
        let sin_p: Vec<f64> = p.iter().map(|x| x.sin()).collect();
        let cos_p: Vec<f64> = p.iter().map(|x| x.cos()).collect();
        // dimension `i` of lane `l`: block `l / LANES`, column `l % LANES`
        let at = |l: usize, i: usize| (l / LANES * dim + i) * LANES + l % LANES;
        for offset in 0..LANES {
            // one slot, inside one block, a whole block, straddling two
            // and three blocks, all four
            let ranges = [(0, 1), (1, 3), (4, 8), (2, 7), (3, 13), (0, BLOCKS * LANES)];
            for (s_lo, s_hi) in ranges {
                let (lo, hi) = (offset + s_lo, (offset + s_hi).min(BLOCKS * LANES));
                // eps² 0.002 leaves most blocks without a hit, 3.0 accepts
                // nearly every lane
                for eps_sq in [0.002f64, 0.05, 0.3, 3.0] {
                    let mut acc = vec![F64x4::ZERO; dim];
                    let hits = pair_term_cell::<D>(
                        &coords, &sins, &coss, dim, lo, hi, &p, &sin_p, &cos_p, eps_sq, &mut acc,
                    );
                    let (mut want_hits, mut want) = (0, vec![0.0; dim]);
                    for l in lo..hi {
                        let mut d_sq = 0.0;
                        for i in 0..dim {
                            let d = coords[at(l, i)] - p[i];
                            d_sq += d * d;
                        }
                        if d_sq <= eps_sq {
                            want_hits += 1;
                            for i in 0..dim {
                                want[i] += sins[at(l, i)] * cos_p[i] - coss[at(l, i)] * sin_p[i];
                            }
                        }
                    }
                    let case = format!("D {D} dim {dim} lanes {lo}..{hi} eps² {eps_sq}");
                    assert_eq!(hits, want_hits, "{case}");
                    for i in 0..dim {
                        let got = acc[i].reduce_sum();
                        assert!(
                            (got - want[i]).abs() <= 1e-12,
                            "{case}: dim {i}: {got} vs {}",
                            want[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pair_term_cell_matches_the_scalar_pair_loop() {
        macro_rules! each_dim {
            ($($d:literal)*) => { $(check_pair_term_cell::<$d>($d);)* };
        }
        each_dim!(1 2 3 4 5 6 7 8);
        for dim in 1..=9 {
            check_pair_term_cell::<0>(dim);
        }
    }
}
