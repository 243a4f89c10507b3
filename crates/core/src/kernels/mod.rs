//! Portable SIMD kernels for the EGG-update hot loops.
//!
//! The update and termination inner loops are wide, regular f64 arithmetic
//! — the shape the paper exploits on a GPU and a CPU vector unit eats just
//! as well. This module provides a fixed-width 4-lane vector type
//! ([`F64x4`], a plain `[f64; 4]` wrapper whose operations reliably
//! autovectorize on stable Rust) plus the blocked kernels built on it:
//!
//! * [`pair_term_block`] — one lane block of the partial-cell pair term
//!   `sin q · cos p − cos q · sin p`, striping four neighbor rows of the
//!   grid-sorted lane tables per step;
//! * [`distance_sq_lanes`] — four point-to-point squared distances at once,
//!   accumulated **dimension-major without fused multiply-add**, so each
//!   lane reproduces the scalar `d² += d·d` sequence bit for bit and every
//!   neighborhood predicate (`d² ≤ ε²`) is *exact*, not merely close;
//! * [`accumulate_row`] — element-wise row accumulation for the lane-padded
//!   per-cell Σsin/Σcos summary rows (bitwise identical to the scalar loop,
//!   since each element's addition chain is unchanged).
//!
//! On `x86_64` an AVX2 fast path behind runtime CPU detection
//! ([`avx2_available`]) mirrors the portable operations instruction for
//! instruction (mul/add/sub/compare/mask — deliberately no FMA), so the
//! two implementations produce **bitwise identical** results and switching
//! between them is pure performance.
//!
//! Only the order of the cross-lane reduction differs from the scalar
//! oracle: the pair-term partial sums are folded `((l₀+l₁)+l₂)+l₃` at the
//! end of a point's neighborhood walk. That reassociation is the sole
//! source of divergence, covered by the 1e-9 tolerance the trig-table fast
//! path already established; the scalar path remains the oracle.

/// Fixed vector width of the kernel layer, in f64 lanes.
pub const LANES: usize = 4;

/// Round `len` up to the next multiple of [`LANES`] — the padded row
/// length of the lane-aligned trig-table and summary rows.
#[inline]
pub const fn lane_pad(len: usize) -> usize {
    len.div_ceil(LANES) * LANES
}

/// Four f64 lanes. Operations are plain per-lane arithmetic on a fixed
/// array, written so the compiler reliably autovectorizes them on stable;
/// the AVX2 fast path mirrors them exactly.
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

    /// Per-lane fused `self * a + b`. **Not** used by the exactness-bearing
    /// kernels: `f64::mul_add` rounds once where `mul` + `add` round twice,
    /// which would break the bitwise parity between the portable and AVX2
    /// paths and between the lane distances and the scalar oracle. Provided
    /// for kernels that only need the 1e-9 contract.
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        let mut out = self.0;
        for i in 0..LANES {
            out[i] = out[i].mul_add(a.0[i], b.0[i]);
        }
        Self(out)
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
    /// x86's `maxpd`, so it matches `_mm256_max_pd(self, rhs)` bit for bit,
    /// signed zeros and NaNs included.
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

    /// Lane-wise choice: `t` where the mask is set, `f` elsewhere.
    #[inline(always)]
    pub fn select(mask: Mask4, t: Self, f: Self) -> Self {
        let mut out = f.0;
        for i in 0..LANES {
            if mask.0[i] {
                out[i] = t.0[i];
            }
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
    /// Per-lane conjunction.
    #[inline(always)]
    pub fn and(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(&rhs.0) {
            *o &= r;
        }
        Self(out)
    }

    /// Number of set lanes.
    #[inline(always)]
    pub fn count(self) -> u32 {
        self.0.iter().map(|&b| b as u32).sum()
    }

    /// The lanes as bits, lane `j` at bit `j` (`_mm256_movemask_pd`'s
    /// layout).
    #[inline(always)]
    pub fn bits(self) -> u32 {
        self.0
            .iter()
            .enumerate()
            .map(|(j, &b)| u32::from(b) << j)
            .sum()
    }

    /// Lane `j` set iff grid-sorted slot `base + j` lies in `[lo, hi)` —
    /// the in-cell mask of a lane block covering slots `base..base+LANES`.
    #[inline(always)]
    pub fn slot_range(base: usize, lo: usize, hi: usize) -> Self {
        let mut out = [false; LANES];
        for (j, o) in out.iter_mut().enumerate() {
            let slot = base + j;
            *o = slot >= lo && slot < hi;
        }
        Self(out)
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

/// One lane block of the partial-cell pair term: compute the four
/// neighbor distances, mask to the lanes that are inside the cell's slot
/// range **and** within `eps_sq`, and accumulate the angle-addition term
/// `sin q · cos p − cos q · sin p` of every accepted lane into `acc`
/// (per-dimension lane accumulators, reduced once per point by the
/// caller). Returns the number of accepted lanes — with the exact lane
/// distances this equals the scalar path's neighbor count for the block.
///
/// `coords`, `sins`, `coss` are the block's rows of the lane-blocked
/// tables (`dim * LANES` elements each, `dim = p.len()`); `use_avx2`
/// requests the bitwise identical [`std::arch`] mirror, taken only when
/// [`avx2_available`] confirms the CPU supports it.
///
/// # Panics
/// If a table row holds fewer than `dim * LANES` elements, or `sin_p`,
/// `cos_p` or `acc` fewer than `dim`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn pair_term_block(
    coords: &[f64],
    sins: &[f64],
    coss: &[f64],
    p: &[f64],
    sin_p: &[f64],
    cos_p: &[f64],
    eps_sq: f64,
    lane_mask: Mask4,
    acc: &mut [F64x4],
    use_avx2: bool,
) -> u32 {
    let dim = p.len();
    assert!(
        coords.len() >= dim * LANES && sins.len() >= dim * LANES && coss.len() >= dim * LANES,
        "lane block rows shorter than dim × LANES"
    );
    assert!(sin_p.len() >= dim && cos_p.len() >= dim && acc.len() >= dim);
    #[cfg(target_arch = "x86_64")]
    if use_avx2 && avx2_available() {
        // SAFETY: AVX2 was detected at runtime, and the asserts above
        // cover every element the body reads through raw pointers
        // (`dim * LANES` of each table row).
        return unsafe {
            pair_term_block_avx2(coords, sins, coss, p, sin_p, cos_p, eps_sq, lane_mask, acc)
        };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_avx2;
    pair_term_block_portable(coords, sins, coss, p, sin_p, cos_p, eps_sq, lane_mask, acc)
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn pair_term_block_portable(
    coords: &[f64],
    sins: &[f64],
    coss: &[f64],
    p: &[f64],
    sin_p: &[f64],
    cos_p: &[f64],
    eps_sq: f64,
    lane_mask: Mask4,
    acc: &mut [F64x4],
) -> u32 {
    let dim = p.len();
    let mask = distance_sq_lanes(coords, p)
        .le(F64x4::splat(eps_sq))
        .and(lane_mask);
    let hits = mask.count();
    if hits == 0 {
        return 0;
    }
    for i in 0..dim {
        // sin(q−p) = sin q · cos p − cos q · sin p, four neighbors at once
        let term = F64x4::load(&sins[i * LANES..]) * F64x4::splat(cos_p[i])
            - F64x4::load(&coss[i * LANES..]) * F64x4::splat(sin_p[i]);
        acc[i] += F64x4::select(mask, term, F64x4::ZERO);
    }
    hits
}

/// AVX2 mirror of [`pair_term_block`]: the same multiply/add/subtract/
/// compare/mask sequence as the portable path, intrinsic for intrinsic and
/// **without FMA**, so its results are bitwise identical — runtime dispatch
/// never changes the output, only the throughput.
///
/// # Safety
/// Requires AVX2, and `coords`, `sins`, `coss` of at least
/// `p.len() * LANES` elements (read through raw pointers).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn pair_term_block_avx2(
    coords: &[f64],
    sins: &[f64],
    coss: &[f64],
    p: &[f64],
    sin_p: &[f64],
    cos_p: &[f64],
    eps_sq: f64,
    lane_mask: Mask4,
    acc: &mut [F64x4],
) -> u32 {
    use std::arch::x86_64::*;
    let dim = p.len();
    let mut d2 = _mm256_setzero_pd();
    for (i, &pi) in p.iter().enumerate() {
        // SAFETY: `i * LANES + LANES <= coords.len()` by the caller's contract
        let q = _mm256_loadu_pd(coords.as_ptr().add(i * LANES));
        let d = _mm256_sub_pd(q, _mm256_set1_pd(pi));
        d2 = _mm256_add_pd(d2, _mm256_mul_pd(d, d));
    }
    let in_lane = _mm256_set_pd(
        f64::from_bits(u64::MAX * lane_mask.0[3] as u64),
        f64::from_bits(u64::MAX * lane_mask.0[2] as u64),
        f64::from_bits(u64::MAX * lane_mask.0[1] as u64),
        f64::from_bits(u64::MAX * lane_mask.0[0] as u64),
    );
    let mask = _mm256_and_pd(
        _mm256_cmp_pd::<_CMP_LE_OQ>(d2, _mm256_set1_pd(eps_sq)),
        in_lane,
    );
    let hits = _mm256_movemask_pd(mask).count_ones();
    if hits == 0 {
        return 0;
    }
    for i in 0..dim {
        // SAFETY: as above for `sins` and `coss`; `acc[i]` is bounds-checked
        let term = _mm256_sub_pd(
            _mm256_mul_pd(
                _mm256_loadu_pd(sins.as_ptr().add(i * LANES)),
                _mm256_set1_pd(cos_p[i]),
            ),
            _mm256_mul_pd(
                _mm256_loadu_pd(coss.as_ptr().add(i * LANES)),
                _mm256_set1_pd(sin_p[i]),
            ),
        );
        // masked lanes contribute +0.0, exactly like the portable select
        let a = _mm256_add_pd(
            _mm256_loadu_pd(acc[i].0.as_ptr()),
            _mm256_and_pd(term, mask),
        );
        _mm256_storeu_pd(acc[i].0.as_mut_ptr(), a);
    }
    hits
}

/// The partial-cell pair term for a whole cell: every lane block covering
/// lane indices `lo..hi` of the lane-blocked tables, accumulated into
/// `acc` exactly as per-block [`pair_term_block`] calls would. Returns the
/// cell's accepted-lane (= exact neighbor) count.
///
/// This is the form the update hot loop should call: the AVX2 dispatch
/// happens **once per cell**, not once per 4-row block. A
/// `#[target_feature]` function cannot inline into a caller compiled
/// without the feature, so per-block dispatch pays a real function call
/// every 4 rows — enough to cancel the 256-bit win at small `dim`. For
/// `dim` 1–8 the AVX2 body is specialized on the dimension, which keeps
/// the lane accumulators and broadcasts in registers for the whole cell
/// (`pair_term_cell_avx2_dim`); it adds `+0.0` where the per-block
/// path skips a block without hits, so `acc` must hold no `−0.0` lane for
/// the two to agree bit for bit. A fresh accumulator starts at `+0.0` and
/// never becomes `−0.0`: under round-to-nearest a sum is `−0.0` only when
/// both addends are.
///
/// # Panics
/// If `lo >= hi`, `p`, `sin_p`, `cos_p` or `acc` hold fewer than `dim`
/// elements, or a table is too short for block `(hi − 1) / LANES`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn pair_term_cell(
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
    use_avx2: bool,
) -> u32 {
    assert!(lo < hi, "empty lane range {lo}..{hi}");
    let p = &p[..dim];
    let (sin_p, cos_p, acc) = (&sin_p[..dim], &cos_p[..dim], &mut acc[..dim]);
    let end = ((hi - 1) / LANES + 1).checked_mul(dim * LANES);
    assert!(
        end.is_some_and(|end| {
            lane_coords.len() >= end && lane_sins.len() >= end && lane_coss.len() >= end
        }),
        "lane tables end before lane {hi}"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2 && avx2_available() {
        macro_rules! by_dim {
            ($($d:literal)*) => {
                match dim {
                    $($d => pair_term_cell_avx2_dim::<$d>(
                        lane_coords, lane_sins, lane_coss, lo, hi, p, sin_p, cos_p, eps_sq, acc,
                    ),)*
                    _ => pair_term_cell_avx2(
                        lane_coords, lane_sins, lane_coss, dim, lo, hi, p, sin_p, cos_p, eps_sq,
                        acc,
                    ),
                }
            };
        }
        // SAFETY: AVX2 was detected at runtime; `p`, `sin_p`, `cos_p` and
        // `acc` were cut to exactly `dim` elements, and the tables hold
        // every block up to `(hi − 1) / LANES` (asserted above).
        return unsafe { by_dim!(1 2 3 4 5 6 7 8) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_avx2;
    let mut hits = 0;
    for b in lo / LANES..=(hi - 1) / LANES {
        let at = b * dim * LANES;
        hits += pair_term_block_portable(
            &lane_coords[at..at + dim * LANES],
            &lane_sins[at..at + dim * LANES],
            &lane_coss[at..at + dim * LANES],
            p,
            sin_p,
            cos_p,
            eps_sq,
            Mask4::slot_range(b * LANES, lo, hi),
            acc,
        );
    }
    hits
}

/// Generic AVX2 body of [`pair_term_cell`], for dimensions above 8: the
/// per-block loop inside one feature-enabled frame, so
/// [`pair_term_block_avx2`] inlines and the whole cell runs without a call
/// per block. Bitwise identical to the portable loop, like every AVX2
/// mirror in this module.
///
/// # Safety
/// Requires AVX2, `p.len() == dim`, and `sin_p`, `cos_p`, `acc` of at
/// least `dim` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn pair_term_cell_avx2(
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
    let mut hits = 0;
    for b in lo / LANES..=(hi - 1) / LANES {
        let at = b * dim * LANES;
        // SAFETY: each row slice is bounds-checked to `dim * LANES`
        // elements, all that the block reads for `p.len() == dim`
        hits += pair_term_block_avx2(
            &lane_coords[at..at + dim * LANES],
            &lane_sins[at..at + dim * LANES],
            &lane_coss[at..at + dim * LANES],
            p,
            sin_p,
            cos_p,
            eps_sq,
            Mask4::slot_range(b * LANES, lo, hi),
            acc,
        );
    }
    hits
}

/// AVX2 body of [`pair_term_cell`] specialized on the dimension `D`. The
/// `D` lane accumulators and the broadcast `p`, `sin p`, `cos p` are loaded
/// once and stay in registers for the whole cell (at `D = 8` some
/// broadcasts spill to the stack), and the block loop is branch-free:
///
/// * only the first and last block can straddle `lo..hi`, so only they
///   get a slot-range mask, built by integer compare of the lane indices;
/// * every block adds `term & mask`, where the per-block path skips blocks
///   without hits. A masked lane adds `+0.0`, which leaves every
///   accumulator that is not `−0.0` unchanged — bitwise neutral under
///   [`pair_term_cell`]'s contract;
/// * hits are counted by subtracting the all-ones mask lanes from an
///   integer vector, summed once at the end.
///
/// The distance chain starts from the first dimension's square instead of
/// `0.0 + d·d`: a square is never `−0.0`, so the two are the same value.
///
/// # Safety
/// Requires AVX2, `p`, `sin_p`, `cos_p`, `acc` of at least `D` elements,
/// and tables of at least `((hi − 1) / LANES + 1) · D · LANES` elements
/// (read through raw pointers).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn pair_term_cell_avx2_dim<const D: usize>(
    lane_coords: &[f64],
    lane_sins: &[f64],
    lane_coss: &[f64],
    lo: usize,
    hi: usize,
    p: &[f64],
    sin_p: &[f64],
    cos_p: &[f64],
    eps_sq: f64,
    acc: &mut [F64x4],
) -> u32 {
    use std::arch::x86_64::*;
    let (mut pv, mut sv, mut cv) = (
        [_mm256_setzero_pd(); D],
        [_mm256_setzero_pd(); D],
        [_mm256_setzero_pd(); D],
    );
    let mut accv = [_mm256_setzero_pd(); D];
    for i in 0..D {
        pv[i] = _mm256_set1_pd(p[i]);
        sv[i] = _mm256_set1_pd(sin_p[i]);
        cv[i] = _mm256_set1_pd(cos_p[i]);
        accv[i] = _mm256_loadu_pd(acc[i].0.as_ptr());
    }
    let eps = _mm256_set1_pd(eps_sq);
    // lane index j of block b is b·LANES + j; in range iff lo−1 < j < hi
    let lane_offsets = _mm256_set_epi64x(3, 2, 1, 0);
    let (after_lo, before_hi) = (
        _mm256_set1_epi64x(lo as i64 - 1),
        _mm256_set1_epi64x(hi as i64),
    );
    let mut hits = _mm256_setzero_si256();
    let (first, last) = (lo / LANES, (hi - 1) / LANES);
    for b in first..=last {
        // SAFETY: block `b ≤ last` ends at `(b + 1) · D · LANES`, within
        // every table by the caller's contract
        let at = b * D * LANES;
        let (q, s, c) = (
            lane_coords.as_ptr().add(at),
            lane_sins.as_ptr().add(at),
            lane_coss.as_ptr().add(at),
        );
        let d = _mm256_sub_pd(_mm256_loadu_pd(q), pv[0]);
        let mut d2 = _mm256_mul_pd(d, d);
        for i in 1..D {
            let d = _mm256_sub_pd(_mm256_loadu_pd(q.add(i * LANES)), pv[i]);
            d2 = _mm256_add_pd(d2, _mm256_mul_pd(d, d));
        }
        let mut mask = _mm256_cmp_pd::<_CMP_LE_OQ>(d2, eps);
        if b == first || b == last {
            let lane = _mm256_add_epi64(_mm256_set1_epi64x((b * LANES) as i64), lane_offsets);
            let in_range = _mm256_and_si256(
                _mm256_cmpgt_epi64(lane, after_lo),
                _mm256_cmpgt_epi64(before_hi, lane),
            );
            mask = _mm256_and_pd(mask, _mm256_castsi256_pd(in_range));
        }
        // an accepted lane is all ones, i.e. −1 as an integer
        hits = _mm256_sub_epi64(hits, _mm256_castpd_si256(mask));
        for i in 0..D {
            // sin(q−p) = sin q · cos p − cos q · sin p, four neighbors at once
            let term = _mm256_sub_pd(
                _mm256_mul_pd(_mm256_loadu_pd(s.add(i * LANES)), cv[i]),
                _mm256_mul_pd(_mm256_loadu_pd(c.add(i * LANES)), sv[i]),
            );
            accv[i] = _mm256_add_pd(accv[i], _mm256_and_pd(term, mask));
        }
    }
    for i in 0..D {
        _mm256_storeu_pd(acc[i].0.as_mut_ptr(), accv[i]);
    }
    let mut per_lane = [0u64; LANES];
    _mm256_storeu_si256(per_lane.as_mut_ptr().cast(), hits);
    per_lane.iter().sum::<u64>() as u32
}

/// Element-wise `sums[i] += row[i]` over lane-padded rows, four lanes per
/// step. Each element's addition chain is identical to the scalar loop, so
/// the result is bitwise identical — the summary rows stay exact.
#[inline(always)]
pub fn accumulate_row(sums: &mut [f64], row: &[f64]) {
    debug_assert_eq!(sums.len(), row.len());
    debug_assert_eq!(sums.len() % LANES, 0);
    for (s, r) in sums.chunks_exact_mut(LANES).zip(row.chunks_exact(LANES)) {
        let v = F64x4::load(s) + F64x4::load(r);
        s.copy_from_slice(&v.0);
    }
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
        assert_eq!(a.mul_add(b, b).0, [1.0, 1.5, 2.0, 2.5]);
        assert_eq!(a.reduce_sum(), 10.0);
        assert_eq!(F64x4::splat(7.0).0, [7.0; 4]);
    }

    #[test]
    fn mask_operations() {
        let m = F64x4([1.0, 5.0, 2.0, 9.0]).le(F64x4::splat(4.0));
        assert_eq!(m.0, [true, false, true, false]);
        assert_eq!(m.count(), 2);
        let r = Mask4::slot_range(8, 9, 11);
        assert_eq!(r.0, [false, true, true, false]);
        assert_eq!(m.and(r).0, [false, false, true, false]);
        let sel = F64x4::select(m, F64x4::splat(1.0), F64x4::ZERO);
        assert_eq!(sel.0, [1.0, 0.0, 1.0, 0.0]);
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

    fn trig_blocks(qs: &[[f64; 3]; LANES]) -> (Vec<f64>, Vec<f64>) {
        let mut sins = vec![0.0; 3 * LANES];
        let mut coss = vec![0.0; 3 * LANES];
        for (j, q) in qs.iter().enumerate() {
            for i in 0..3 {
                sins[i * LANES + j] = q[i].sin();
                coss[i * LANES + j] = q[i].cos();
            }
        }
        (sins, coss)
    }

    #[test]
    fn pair_term_block_counts_and_accumulates_like_scalar() {
        let qs = [
            [0.30, 0.30, 0.32], // close: accepted
            [0.90, 0.90, 0.90], // far: rejected by distance
            [0.31, 0.29, 0.30], // close but masked out by the slot range
            [0.32, 0.31, 0.30], // close: accepted
        ];
        let p = [0.3, 0.3, 0.3];
        let (sin_p, cos_p) = (p.map(f64::sin), p.map(f64::cos));
        let eps_sq = 0.05 * 0.05;
        let coords = block_of(&qs);
        let (sins, coss) = trig_blocks(&qs);
        let lane_mask = Mask4([true, true, false, true]);
        let mut acc = [F64x4::ZERO; 3];
        let hits = pair_term_block(
            &coords, &sins, &coss, &p, &sin_p, &cos_p, eps_sq, lane_mask, &mut acc, false,
        );
        assert_eq!(hits, 2);
        for i in 0..3 {
            let mut expected = 0.0;
            for j in [0usize, 3] {
                expected += qs[j][i].sin() * cos_p[i] - qs[j][i].cos() * sin_p[i];
            }
            let got = acc[i].reduce_sum();
            assert!(
                (got - expected).abs() <= 1e-12,
                "dim {i}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn avx2_path_is_bitwise_identical_to_portable() {
        if !avx2_available() {
            return; // nothing to compare on this CPU
        }
        let qs = [
            [0.30, 0.30, 0.32],
            [0.90, 0.90, 0.90],
            [0.31, 0.29, 0.30],
            [0.32, 0.31, 0.30],
        ];
        let p = [0.3, 0.3, 0.3];
        let (sin_p, cos_p) = (p.map(f64::sin), p.map(f64::cos));
        let coords = block_of(&qs);
        let (sins, coss) = trig_blocks(&qs);
        for eps in [0.01f64, 0.05, 0.5] {
            for mask in [
                Mask4([true; LANES]),
                Mask4([true, false, true, false]),
                Mask4([false; LANES]),
            ] {
                let mut a = [F64x4::splat(0.125); 3];
                let mut b = a;
                let ha = pair_term_block(
                    &coords,
                    &sins,
                    &coss,
                    &p,
                    &sin_p,
                    &cos_p,
                    eps * eps,
                    mask,
                    &mut a,
                    false,
                );
                let hb = pair_term_block(
                    &coords,
                    &sins,
                    &coss,
                    &p,
                    &sin_p,
                    &cos_p,
                    eps * eps,
                    mask,
                    &mut b,
                    true,
                );
                assert_eq!(ha, hb, "eps {eps}");
                for i in 0..3 {
                    let (la, lb) = (a[i].to_array(), b[i].to_array());
                    for j in 0..LANES {
                        assert_eq!(la[j].to_bits(), lb[j].to_bits(), "dim {i} lane {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn pair_term_cell_is_bitwise_identical_to_per_block_calls() {
        // dims 1–8 take the dimension-specialized AVX2 body, 9 the generic
        // one; 4 blocks of rows, so lane ranges can sit inside one block,
        // straddle several or cover all of them at every lane phase
        const BLOCKS: usize = 4;
        // golden-ratio sequence: spread over [0, 1), so every eps² below
        // accepts a different share of the lanes, trailing ones included
        let val = |k: usize| (k as f64 * 0.618_033_988_749_895).fract();
        for dim in 1..=9 {
            let coords: Vec<f64> = (0..BLOCKS * dim * LANES).map(val).collect();
            let sins: Vec<f64> = coords.iter().map(|x| x.sin()).collect();
            let coss: Vec<f64> = coords.iter().map(|x| x.cos()).collect();
            let p: Vec<f64> = (0..dim).map(|i| 0.4 + 0.05 * i as f64).collect();
            let sin_p: Vec<f64> = p.iter().map(|x| x.sin()).collect();
            let cos_p: Vec<f64> = p.iter().map(|x| x.cos()).collect();
            for phase in 0..LANES {
                // slot ranges: one slot, inside one block, a whole block,
                // straddling two and three blocks, everything
                let ranges = [(0, 1), (1, 3), (4, 8), (2, 7), (3, 13), (0, BLOCKS * LANES)];
                for (s_lo, s_hi) in ranges {
                    let (lo, hi) = (phase + s_lo, (phase + s_hi).min(BLOCKS * LANES));
                    // eps² 0.002 leaves most blocks without a hit, 3.0
                    // accepts nearly every lane
                    for eps_sq in [0.002f64, 0.05, 0.3, 3.0] {
                        // a fresh accumulator and pre-seeded ones (no −0.0)
                        for seed in [0.0f64, 0.25, -1.5] {
                            let acc0: Vec<F64x4> = (0..dim)
                                .map(|i| F64x4::splat(seed * (i + 1) as f64))
                                .collect();
                            let mut by_block = acc0.clone();
                            let mut hits_block = 0;
                            for b in lo / LANES..=(hi - 1) / LANES {
                                let at = b * dim * LANES;
                                hits_block += pair_term_block(
                                    &coords[at..at + dim * LANES],
                                    &sins[at..at + dim * LANES],
                                    &coss[at..at + dim * LANES],
                                    &p,
                                    &sin_p,
                                    &cos_p,
                                    eps_sq,
                                    Mask4::slot_range(b * LANES, lo, hi),
                                    &mut by_block,
                                    false,
                                );
                            }
                            for use_avx2 in [false, true] {
                                let mut by_cell = acc0.clone();
                                let hits_cell = pair_term_cell(
                                    &coords,
                                    &sins,
                                    &coss,
                                    dim,
                                    lo,
                                    hi,
                                    &p,
                                    &sin_p,
                                    &cos_p,
                                    eps_sq,
                                    &mut by_cell,
                                    use_avx2,
                                );
                                let case = format!(
                                    "dim {dim} lanes {lo}..{hi} eps² {eps_sq} seed {seed} \
                                     avx2={use_avx2}"
                                );
                                assert_eq!(hits_block, hits_cell, "{case}");
                                for i in 0..dim {
                                    let (a, b) = (by_block[i].to_array(), by_cell[i].to_array());
                                    for j in 0..LANES {
                                        assert_eq!(
                                            a[j].to_bits(),
                                            b[j].to_bits(),
                                            "{case}: dim {i} lane {j}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane block rows shorter than dim × LANES")]
    fn pair_term_block_rejects_short_rows() {
        // rows for one dimension, called with a 2-d point: the AVX2 body
        // would read past them
        let row = [0.5; LANES];
        let mut acc = [F64x4::ZERO; 2];
        let (p, sin_p, cos_p) = ([0.5; 2], [0.0; 2], [1.0; 2]);
        let mask = Mask4([true; LANES]);
        pair_term_block(
            &row, &row, &row, &p, &sin_p, &cos_p, 1.0, mask, &mut acc, true,
        );
    }

    #[test]
    #[should_panic(expected = "lane tables end before lane 5")]
    fn pair_term_cell_rejects_short_tables() {
        // one block of 2-d rows, asked for a lane of the second block
        let table = [0.5; 2 * LANES];
        let mut acc = [F64x4::ZERO; 2];
        let (p, sin_p, cos_p) = ([0.5; 2], [0.0; 2], [1.0; 2]);
        pair_term_cell(
            &table, &table, &table, 2, 0, 5, &p, &sin_p, &cos_p, 1.0, &mut acc, true,
        );
    }

    #[test]
    fn accumulate_row_is_bitwise_elementwise_addition() {
        let mut sums = vec![0.1, 1e16, -3.0, 0.0, 2.0, 4.0, 8.0, 16.0];
        let row = vec![0.2, 1.0, 3.0, 0.0, -2.0, 0.5, 0.25, 0.125];
        let mut expected = sums.clone();
        for (s, r) in expected.iter_mut().zip(&row) {
            *s += r;
        }
        accumulate_row(&mut sums, &row);
        for (s, e) in sums.iter().zip(&expected) {
            assert_eq!(s.to_bits(), e.to_bits());
        }
    }
}
