//! From-scratch fast transforms backing PUFFER's electrostatic solver.
//!
//! The ePlace density model (paper §II-B, Eq. (3)–(6)) expresses the bin
//! potential as a 2-D cosine series with frequencies `ω_k = 2πk/M`. Solving
//! it needs forward/backward cosine- and sine-series transforms, which this
//! crate provides on top of an iterative radix-2 complex FFT — no external
//! FFT dependency.
//!
//! * [`Plan`] — everything about a length that does not depend on the
//!   data (bit-reversal swaps, stage twiddles, DCT twiddles), built once per
//!   length and shared process-wide through [`plan`]; its transforms run in
//!   place on the caller's slice with reusable scratch, and every table
//!   entry is computed the way an unplanned transform would compute it, so
//!   results are bit-identical to the table-free formulation;
//! * [`fft`]/[`ifft`] — in-place complex FFT for power-of-two lengths;
//! * [`dct2`]/[`dct3`]/[`dst3_shifted`] — the real transforms of the
//!   Poisson solver as allocating one-liners over the shared plan;
//! * [`transform2d_in_place`] — the separable 2-D pass with arbitrary 1-D
//!   closures (rows in place, transpose, columns in place, transpose back)
//!   over `puffer-par`, bit-identical for any worker count;
//!   [`transform2d_threaded`]/[`transform2d_mixed_threaded`] run it with
//!   allocating transforms;
//! * [`dct2_2d`]/[`synthesis_2d`] — the density solver's passes, each
//!   complex FFT carrying two real lines (DESIGN.md, "Electrostatic
//!   solver"); bit-identical for any lane count.
//!
//! # Example
//!
//! ```
//! use puffer_fft::{fft, ifft, Complex};
//! let mut data: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
//! let original = data.clone();
//! fft(&mut data);
//! ifft(&mut data);
//! for (a, b) in data.iter().zip(&original) {
//!     assert!((a.re - b.re).abs() < 1e-9);
//! }
//! ```

#![forbid(unsafe_code)]

use std::f64::consts::PI;
use std::ops::{Add, Mul, Neg, Range, Sub};
use std::sync::OnceLock;

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Creates a complex number.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{iθ}`.
    pub fn from_angle(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Scales by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// In-place radix-2 decimation-in-time FFT.
///
/// Computes `X[k] = Σ_n x[n]·e^{-2πi·kn/N}`.
///
/// # Panics
///
/// Panics if the length is not a power of two (lengths 0 and 1 are allowed
/// and are no-ops).
pub fn fft(data: &mut [Complex]) {
    if !data.is_empty() {
        plan(data.len()).fft(data);
    }
}

/// In-place inverse FFT (includes the `1/N` normalisation).
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn ifft(data: &mut [Complex]) {
    if !data.is_empty() {
        plan(data.len()).ifft(data);
    }
}

/// Which 1-D real transform a planned pass applies; see [`dct2`], [`dct3`]
/// and [`dst3_shifted`] for the definitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// DCT-II analysis.
    Dct2,
    /// DCT-III synthesis.
    Dct3,
    /// Shifted DST-III synthesis.
    Dst3Shifted,
}

/// Everything about a length-`N` transform that does not depend on the
/// data: the bit-reversal swaps, the butterfly twiddles of every stage in
/// both directions, and the DCT-II/III twiddles.
///
/// Every table entry is produced by the arithmetic an unplanned transform
/// would perform at that point — `w ← w·w_len` from `w = 1` within a stage,
/// one [`Complex::from_angle`] per DCT twiddle — so planned results carry
/// the same bits (pinned by `tests/transform_bits.rs`). What a plan removes
/// is the `N + log₂N` `sin`/`cos` pairs and the scratch allocations per
/// call: transforms run in place on the caller's slice, through a reusable
/// complex scratch buffer.
#[derive(Debug)]
pub struct Plan {
    n: usize,
    /// Index pairs `(i, j)`, `i < j`, exchanged by the bit-reversal.
    swaps: Vec<(usize, usize)>,
    /// The bit-reversal as a table: `bitrev[k]` is where element `k` goes.
    bitrev: Vec<usize>,
    /// `e^{∓2πi·k/len}` for `k < len/2`, stages `len = 2, 4, …, N`
    /// back-to-back (the stage with half-length `h` starts at `h − 1`).
    forward: Vec<Complex>,
    inverse: Vec<Complex>,
    /// `e^{−iπk/2N}`: the DCT-II post-twiddles.
    dct2_post: Vec<Complex>,
    /// `e^{+iπk/2N}`: the DCT-III pre-twiddles.
    dct3_pre: Vec<Complex>,
}

impl Plan {
    /// Builds the tables for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "fft length {n} is not a power of two");
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i, j));
            }
        }
        let mut reversed: Vec<usize> = (0..n).collect();
        for &(i, j) in &swaps {
            reversed.swap(i, j);
        }
        let stage_twiddles = |sign: f64| {
            let mut table = Vec::with_capacity(n - 1);
            let mut len = 2;
            while len <= n {
                let wlen = Complex::from_angle(sign * 2.0 * PI / len as f64);
                let mut w = Complex::new(1.0, 0.0);
                for _ in 0..len / 2 {
                    table.push(w);
                    w = w * wlen;
                }
                len <<= 1;
            }
            table
        };
        let dct_twiddles = |sign: f64| {
            (0..n)
                .map(|k| Complex::from_angle(sign * PI * k as f64 / (2.0 * n as f64)))
                .collect()
        };
        Plan {
            n,
            swaps,
            bitrev: reversed,
            forward: stage_twiddles(-1.0),
            inverse: stage_twiddles(1.0),
            dct2_post: dct_twiddles(-1.0),
            dct3_pre: dct_twiddles(1.0),
        }
    }

    /// In-place forward FFT; see [`fft`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan's length.
    pub fn fft(&self, data: &mut [Complex]) {
        self.butterflies(data, &self.forward);
    }

    /// In-place inverse FFT with the `1/N` normalisation; see [`ifft`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan's length.
    pub fn ifft(&self, data: &mut [Complex]) {
        self.butterflies(data, &self.inverse);
        let s = 1.0 / self.n as f64;
        for v in data.iter_mut() {
            *v = v.scale(s);
        }
    }

    fn butterflies(&self, data: &mut [Complex], twiddles: &[Complex]) {
        assert_eq!(data.len(), self.n, "data length differs from the plan's");
        for &(i, j) in &self.swaps {
            data.swap(i, j);
        }
        let mut half = 1;
        while half < self.n {
            let stage = &twiddles[half - 1..2 * half - 1];
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi).zip(stage) {
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                }
            }
            half <<= 1;
        }
    }

    /// Applies the 1-D transform `kind` to `x` in place. `scratch` is
    /// resized as needed and holds nothing between calls: keep one per
    /// worker and reuse it.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan's length.
    pub fn apply(&self, kind: Kind, x: &mut [f64], scratch: &mut Vec<Complex>) {
        assert_eq!(x.len(), self.n, "data length differs from the plan's");
        scratch.resize(self.n, Complex::ZERO);
        match kind {
            Kind::Dct2 => self.dct2(x, scratch),
            Kind::Dct3 => self.dct3(x, scratch),
            Kind::Dst3Shifted => {
                // sin(π(2n+1)k/(2N)) = (−1)ⁿ·cos(π(2n+1)(N−k)/(2N)): feed
                // DCT-III the reversed coefficients x[N−k] with a zero in
                // slot 0 (which cancels its X[0]/2 term), then flip the
                // sign of the odd outputs.
                x[0] = 0.0;
                x[1..].reverse();
                self.dct3(x, scratch);
                for v in x.iter_mut().skip(1).step_by(2) {
                    *v = -*v;
                }
            }
        }
    }

    /// DCT-II through one length-`N` FFT of the even/odd reordered input:
    /// `v[i] = x[2i]` in the first half, `v[N−1−i] = x[2i+1]` in the second.
    fn dct2(&self, x: &mut [f64], v: &mut [Complex]) {
        let n = self.n;
        for i in 0..n.div_ceil(2) {
            v[i] = Complex::new(x[2 * i], 0.0);
        }
        for i in 0..n / 2 {
            v[n - 1 - i] = Complex::new(x[2 * i + 1], 0.0);
        }
        self.fft(v);
        for ((out, &vk), &w) in x.iter_mut().zip(v.iter()).zip(&self.dct2_post) {
            *out = (vk * w).re;
        }
    }

    /// DCT-III by inverting the [`Plan::dct2`] pipeline: rebuild
    /// `V[k] = e^{iπk/(2N)}·(x[k] − i·x[N−k])/2` (with `x[N] ≡ 0`), run the
    /// unnormalised inverse FFT `Σ V_k e^{+2πikn/N}`, and undo the
    /// even/odd reordering.
    fn dct3(&self, x: &mut [f64], v: &mut [Complex]) {
        let n = self.n;
        if n == 1 {
            x[0] /= 2.0;
            return;
        }
        v[0] = Complex::new(x[0] / 2.0, 0.0);
        for k in 1..n {
            let z = Complex::new(x[k] / 2.0, -x[n - k] / 2.0);
            v[k] = self.dct3_pre[k] * z;
        }
        self.butterflies(v, &self.inverse);
        for i in 0..n.div_ceil(2) {
            x[2 * i] = v[i].re;
        }
        for i in 0..n / 2 {
            x[2 * i + 1] = v[n - 1 - i].re;
        }
    }
}

/// The process-wide plan for length `n`, built on first use and shared by
/// every caller: the tables are immutable and depend on `n` alone.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn plan(n: usize) -> &'static Plan {
    static PLANS: [OnceLock<Plan>; usize::BITS as usize] =
        [const { OnceLock::new() }; usize::BITS as usize];
    assert!(n.is_power_of_two(), "fft length {n} is not a power of two");
    PLANS[n.trailing_zeros() as usize].get_or_init(|| Plan::new(n))
}

/// `kind` of a copy of `x` through the shared plan.
fn planned(kind: Kind, x: &[f64]) -> Vec<f64> {
    let mut out = x.to_vec();
    if !out.is_empty() {
        plan(out.len()).apply(kind, &mut out, &mut Vec::new());
    }
    out
}

/// DCT-II: `X[k] = Σ_n x[n]·cos(π(2n+1)k/(2N))`, computed via a length-`N`
/// FFT of the even/odd reordered input.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn dct2(x: &[f64]) -> Vec<f64> {
    planned(Kind::Dct2, x)
}

/// DCT-III: `y[i] = X[0]/2 + Σ_{k≥1} X[k]·cos(π(2i+1)k/(2N))`.
///
/// This is the unnormalised inverse of [`dct2`]; `dct3(&dct2(x))` scaled by
/// `2/N` recovers `x` (see the round-trip test). Computed by inverting the
/// [`dct2`] pipeline, again with a single length-`N` complex FFT.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn dct3(x: &[f64]) -> Vec<f64> {
    planned(Kind::Dct3, x)
}

/// Shifted DST-III synthesis: `y[n] = Σ_{k=1}^{N−1} X[k]·sin(π(2n+1)k/(2N))`
/// (the `X[0]` entry is ignored — its basis function is identically zero).
///
/// This is the sine partner of [`dct3`], used to evaluate the electric
/// field `E = −∇ψ` at bin centres: differentiating the DCT-III cosine basis
/// produces exactly this sine basis. Computed through [`dct3`] via the
/// identity `sin(π(2n+1)k/(2N)) = (−1)ⁿ·cos(π(2n+1)(N−k)/(2N))`.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn dst3_shifted(x: &[f64]) -> Vec<f64> {
    planned(Kind::Dst3Shifted, x)
}

/// The one 2-D pass: applies `fx` to every row and then `fy` to every
/// column of the dense row-major `nx × ny` matrix `data` (row length `nx`),
/// in place.
///
/// Rows are transformed where they lie; the matrix is then transposed into
/// `transposed` so that the columns are contiguous too, transformed there,
/// and transposed back. Both passes run on up to `lanes.len()` workers
/// through [`puffer_par::for_each_block`], each 1-D call receiving its
/// worker's lane as scratch. A 1-D transform reads and writes its own line
/// only and the transposes are pure data movement — there is no
/// accumulation, so the output is bit-identical for any lane count.
///
/// # Panics
///
/// Panics if `data` or `transposed` is not `nx * ny` long, or `lanes` is
/// empty.
pub fn transform2d_in_place<S, FX, FY>(
    data: &mut [f64],
    nx: usize,
    ny: usize,
    transposed: &mut [f64],
    lanes: &mut [S],
    fx: FX,
    fy: FY,
) where
    S: Send,
    FX: Fn(&mut [f64], &mut S) + Sync,
    FY: Fn(&mut [f64], &mut S) + Sync,
{
    assert_eq!(data.len(), nx * ny, "matrix shape mismatch");
    assert_eq!(
        transposed.len(),
        nx * ny,
        "transpose scratch shape mismatch"
    );
    if nx == 0 || ny == 0 {
        return;
    }
    puffer_par::for_each_block(data, nx, lanes, |_, rows, lane| {
        for row in rows.chunks_exact_mut(nx) {
            fx(row, lane);
        }
    });
    transpose(data, nx, transposed);
    puffer_par::for_each_block(transposed, ny, lanes, |_, cols, lane| {
        for col in cols.chunks_exact_mut(ny) {
            fy(col, lane);
        }
    });
    transpose(transposed, ny, data);
}

/// One worker's scratch for [`dct2_2d`] and [`synthesis_2d`]: the complex
/// working array of its band of complex columns, in two planes.
#[derive(Debug, Clone, Default)]
pub struct Lane {
    re: Vec<f64>,
    im: Vec<f64>,
}

/// A pass's complex columns in `count` bands of `width`, a power of two of them.
#[derive(Clone, Copy)]
struct Bands {
    count: usize,
    width: usize,
}

impl Bands {
    fn new(total: usize, lanes: usize) -> Self {
        let count = 1 << puffer_par::clamp_threads(lanes).min(total).ilog2();
        let width = total / count;
        Bands { count, width }
    }

    fn span(self, band: usize) -> Range<usize> {
        band * self.width..(band + 1) * self.width
    }

    /// Phase 1: `work(columns, re, im)` on each band's lane, `n` rows deep.
    fn run(
        self,
        lanes: &mut [Lane],
        n: usize,
        work: impl Fn(Range<usize>, &mut [f64], &mut [f64]) + Sync,
    ) {
        let mut workers = vec![(); self.count];
        let lanes = &mut lanes[..self.count];
        puffer_par::for_each_block(lanes, 1, &mut workers, |band, lane, ()| {
            let Lane { re, im } = &mut lane[0];
            let span = self.span(band);
            // Grown, never shrunk: a regrown tail would be zeroed again.
            let len = n * span.len();
            if re.len() < len {
                re.resize(len, 0.0);
                im.resize(len, 0.0);
            }
            work(span, &mut re[..len], &mut im[..len]);
        });
    }

    /// Phase 2: the real (`im`: imaginary) planes become lines `at..` of
    /// `dst`, the columns (`transposed`: rows) of a row-major matrix; a
    /// line's element `k` is plane row `row(k).0`, negated when `row(k).1`.
    #[expect(clippy::too_many_arguments, reason = "one pass's write-back")]
    fn write(
        self,
        lanes: &[Lane],
        im: bool,
        dst: &mut [f64],
        at: usize,
        n: usize,
        transposed: bool,
        row: impl Fn(usize) -> (usize, bool) + Sync,
    ) {
        let plane = |band: usize| if im { &lanes[band].im } else { &lanes[band].re };
        let value = |v: f64, negate: bool| if negate { -v } else { v };
        let mut workers = vec![(); self.count];
        if transposed {
            let dst = &mut dst[at * n..(at + self.count * self.width) * n];
            puffer_par::for_each_block(dst, n, &mut workers, |first, lines, ()| {
                for (c, out) in (first..).zip(lines.chunks_exact_mut(n)) {
                    let (from, off) = (plane(c / self.width), c % self.width);
                    for (k, o) in out.iter_mut().enumerate() {
                        let (src, negate) = row(k);
                        *o = value(from[src * self.width + off], negate);
                    }
                }
            });
            return;
        }
        let lines = dst.len() / n;
        puffer_par::for_each_block(dst, lines, &mut workers, |first, rows, ()| {
            for (k, out) in (first..).zip(rows.chunks_exact_mut(lines)) {
                let (src, negate) = row(k);
                for band in 0..self.count {
                    let span = self.span(band);
                    let from = &plane(band)[src * self.width..][..self.width];
                    let to = &mut out[at + span.start..at + span.end];
                    for (o, &v) in to.iter_mut().zip(from) {
                        *o = value(v, negate);
                    }
                }
            }
        });
    }
}

impl Plan {
    /// [`Plan::butterflies`] without the swaps, across whole rows of planes
    /// `width` wide; a stage's first twiddle is 1 and is not multiplied in.
    fn butterfly_planes(&self, re: &mut [f64], im: &mut [f64], width: usize, twiddles: &[Complex]) {
        let mut half = 1;
        while half < self.n {
            let stage = &twiddles[half - 1..2 * half - 1];
            let blocks = re
                .chunks_exact_mut(2 * half * width)
                .zip(im.chunks_exact_mut(2 * half * width));
            for (re, im) in blocks {
                let ((re_lo, re_hi), (im_lo, im_hi)) =
                    (re.split_at_mut(half * width), im.split_at_mut(half * width));
                let lo = re_lo
                    .chunks_exact_mut(width)
                    .zip(im_lo.chunks_exact_mut(width));
                let hi = re_hi
                    .chunks_exact_mut(width)
                    .zip(im_hi.chunks_exact_mut(width));
                for (j, ((ar, ai), (br, bi))) in lo.zip(hi).enumerate() {
                    let w = stage[j];
                    let rows = ar.iter_mut().zip(ai).zip(br.iter_mut().zip(bi));
                    for ((ar, ai), (br, bi)) in rows {
                        let (vr, vi) = if j == 0 {
                            (*br, *bi)
                        } else {
                            (*br * w.re - *bi * w.im, *br * w.im + *bi * w.re)
                        };
                        (*ar, *ai, *br, *bi) = (*ar + vr, *ai + vi, *ar - vr, *ai - vi);
                    }
                }
            }
            half <<= 1;
        }
    }

    /// The DCT-IIs of `a` and `b` from the FFT `Z` of `a + i·b` (reordered
    /// as in [`Plan::dct2`]): `A[k] = (Z[k] + conj Z[N−k])/2` and
    /// `B[k] = (Z[k] − conj Z[N−k])/2i`, then the post-twiddle, in place.
    fn separate(&self, re: &mut [f64], im: &mut [f64], width: usize) {
        let n = self.n;
        for k in 0..=n / 2 {
            let j = (n - k) % n;
            let (wk, wj) = (self.dct2_post[k].scale(0.5), self.dct2_post[j].scale(0.5));
            let parts = |(pr, pi): (f64, f64), (qr, qi): (f64, f64)| {
                let (sr, si, dr, di) = (pr + qr, pi + qi, qr - pr, pi - qi);
                let a_k = sr * wk.re - di * wk.im;
                let b_k = si * wk.re - dr * wk.im;
                [a_k, b_k, sr * wj.re + di * wj.im, si * wj.re + dr * wj.im]
            };
            if j == k {
                let row = k * width..(k + 1) * width;
                for (r, i) in re[row.clone()].iter_mut().zip(&mut im[row]) {
                    [*r, *i, _, _] = parts((*r, *i), (*r, *i));
                }
                continue;
            }
            let ((re_k, re_j), (im_k, im_j)) =
                (re.split_at_mut(j * width), im.split_at_mut(j * width));
            let row_k = re_k[k * width..][..width]
                .iter_mut()
                .zip(&mut im_k[k * width..][..width]);
            for ((rk, ik), (rj, ij)) in row_k.zip(re_j.iter_mut().zip(im_j.iter_mut())) {
                [*rk, *ik, *rj, *ij] = parts((*rk, *ik), (*rj, *ij));
            }
        }
    }

    /// `V = V_0 + i·V_1` in bit-reversed rows, `V_l` the DCT-III input of line `l`
    /// pre-twiddled as in [`Plan::dct3`] (a `sine` line reversed first, as in
    /// [`Plan::apply`]); each `V_l` is Hermitian, so the inverse FFT is `v_0 + i·v_1`.
    fn pre_twiddle<'s>(
        &self,
        line: impl Fn(usize, usize) -> &'s [f64],
        sine: [bool; 2],
        re: &mut [f64],
        im: &mut [f64],
    ) {
        let n = self.n;
        let width = re.len() / n;
        // V_l[0] = x[0]/2, and 0 for a sine line, whose reversed x[0] is 0.
        for (l, v) in [&mut *re, &mut *im].into_iter().enumerate() {
            for (v, &x) in v[..width].iter_mut().zip(line(l, 0)) {
                *v = if sine[l] { 0.0 } else { 0.5 * x };
            }
        }
        for k in 1..=n / 2 {
            let j = n - k;
            // Rows k and N − k; a reversed line reads them swapped.
            let rows = |l: usize| match sine[l] {
                true => (line(l, j), line(l, k)),
                false => (line(l, k), line(l, j)),
            };
            let ((ak, aj), (bk, bj)) = (rows(0), rows(1));
            let h = self.dct3_pre[k].scale(0.5);
            let (to_k, to_j) = (self.bitrev[k] * width, self.bitrev[j] * width);
            // At k = N/2 the second write lands on the first.
            for e in 0..width {
                let va = h * Complex::new(ak[e], -aj[e]);
                let vb = h * Complex::new(bk[e], -bj[e]);
                (re[to_k + e], im[to_k + e]) = (va.re - vb.im, va.im + vb.re);
                (re[to_j + e], im[to_j + e]) = (va.re + vb.im, vb.re - va.im);
            }
        }
    }
}

/// DCT-II down the columns of `data` (`n` rows); `c` and `c + width/2` share a complex FFT.
fn dct2_columns(data: &mut [f64], n: usize, transposed: bool, lanes: &mut [Lane]) {
    let lines = data.len() / n;
    let half = lines / 2;
    let bands = Bands::new(half.max(1), lanes.len());
    let p = plan(n);
    let src: &[f64] = data;
    bands.run(lanes, n, |span, re, im| {
        let w = span.len();
        let rows = re.chunks_exact_mut(w).zip(im.chunks_exact_mut(w));
        for ((re, im), &q) in rows.zip(&p.bitrev) {
            // Row `q` of the FFT input, as `Plan::dct2` reorders it.
            let s = if q < n.div_ceil(2) {
                2 * q
            } else {
                2 * (n - 1 - q) + 1
            };
            let row = &src[s * lines..][..lines];
            re.copy_from_slice(&row[span.clone()]);
            match half {
                0 => im.fill(0.0),
                _ => im.copy_from_slice(&row[half + span.start..half + span.end]),
            }
        }
        p.butterfly_planes(re, im, w, &p.forward);
        p.separate(re, im, w);
    });
    bands.write(lanes, false, data, 0, n, transposed, |k| (k, false));
    if half > 0 {
        bands.write(lanes, true, data, half, n, transposed, |k| (k, false));
    }
}

/// DCT-III or shifted DST-III (`sine`) down the columns of `a` and `b`
/// (`n` rows), column `c` of both in one complex FFT.
fn synthesis_columns(
    [a, b]: [&mut [f64]; 2],
    n: usize,
    sine: [bool; 2],
    transposed: bool,
    lanes: &mut [Lane],
) {
    let lines = a.len() / n;
    let bands = Bands::new(lines, lanes.len());
    let p = plan(n);
    let src: [&[f64]; 2] = [a, b];
    bands.run(lanes, n, |span, re, im| {
        let line = |l: usize, k: usize| &src[l][k * lines..][span.clone()];
        p.pre_twiddle(line, sine, re, im);
        p.butterfly_planes(re, im, span.len(), &p.inverse);
    });
    // Undo the even/odd reordering, y[2i] = v[i] and y[2i+1] = v[N−1−i];
    // a sine line's odd outputs change sign.
    let order = |sine: bool| {
        move |k: usize| match k % 2 {
            0 => (k / 2, false),
            _ => (n - 1 - k / 2, sine),
        }
    };
    bands.write(lanes, false, a, 0, n, transposed, order(sine[0]));
    bands.write(lanes, true, b, 0, n, transposed, order(sine[1]));
}

/// The density solver's DCT-II along `y`, then `x`, of the row-major
/// `nx × ny` matrix `data` (row length `nx`), in place, every complex FFT
/// carrying two real columns; the spectrum is left **transposed**, `(u, v)`
/// at `data[u * ny + v]`. Lanes split the complex columns into bands, so
/// the bits ignore the lane count; they differ from [`dct2`]'s in rounding.
///
/// # Panics
///
/// Panics if `data` is not `nx * ny` long, `lanes` is empty, or `nx` or
/// `ny` is not a power of two.
pub fn dct2_2d(data: &mut [f64], nx: usize, ny: usize, lanes: &mut [Lane]) {
    assert_eq!(data.len(), nx * ny, "matrix shape mismatch");
    if nx == 0 || ny == 0 {
        return;
    }
    dct2_columns(data, ny, true, lanes);
    dct2_columns(data, nx, false, lanes);
}

/// The density solver's syntheses, in place: each of two planes of
/// coefficients, laid out as [`dct2_2d`] leaves a spectrum, through its
/// transforms along `x` and `y` ([`Kind::Dct3`] or [`Kind::Dst3Shifted`]),
/// ending row-major. Plane 0 rides in the real and plane 1 in the
/// imaginary part of every complex FFT; bits as in [`dct2_2d`].
///
/// # Panics
///
/// Panics if a plane is not `nx * ny` long, a kind is [`Kind::Dct2`],
/// `lanes` is empty, or `nx` or `ny` is not a power of two.
pub fn synthesis_2d(
    nx: usize,
    ny: usize,
    [(a, ka), (b, kb)]: [(&mut [f64], (Kind, Kind)); 2],
    lanes: &mut [Lane],
) {
    assert!(
        a.len() == nx * ny && b.len() == nx * ny,
        "matrix shape mismatch"
    );
    let sine = |kinds: [Kind; 2]| {
        kinds.map(|kind| {
            assert_ne!(kind, Kind::Dct2, "a synthesis is a DCT-III or a DST-III");
            kind == Kind::Dst3Shifted
        })
    };
    let [x, y] = [[ka.0, kb.0], [ka.1, kb.1]].map(sine);
    if nx > 0 && ny > 0 {
        synthesis_columns([&mut *a, &mut *b], nx, x, true, lanes);
        synthesis_columns([a, b], ny, y, false, lanes);
    }
}

/// Writes the transpose of the row-major `src` (row length `width`) into
/// `dst` (row length `src.len() / width`), tile by tile so that both sides
/// stay cache-resident.
fn transpose(src: &[f64], width: usize, dst: &mut [f64]) {
    const TILE: usize = 16;
    let height = src.len() / width;
    for y0 in (0..height).step_by(TILE) {
        let y1 = (y0 + TILE).min(height);
        for x0 in (0..width).step_by(TILE) {
            for x in x0..(x0 + TILE).min(width) {
                for y in y0..y1 {
                    dst[x * height + y] = src[y * width + x];
                }
            }
        }
    }
}

/// Applies a 1-D transform to every row, then every column, of a dense
/// row-major `nx × ny` matrix (row length `nx`) on up to `threads` workers;
/// bit-identical for any thread count.
///
/// # Panics
///
/// Panics if `data.len() != nx * ny` or the transform changes lengths.
pub fn transform2d_threaded(
    data: &[f64],
    nx: usize,
    ny: usize,
    f: impl Fn(&[f64]) -> Vec<f64> + Sync,
    threads: usize,
) -> Vec<f64> {
    transform2d_mixed_threaded(data, nx, ny, &f, &f, threads)
}

/// Applies independent allocating 1-D transforms along x (rows) and y
/// (columns) — the mixed sine/cosine field transforms of the electrostatic
/// solver: [`transform2d_in_place`] on a copy of `data`, on up to `threads`
/// workers, and so bit-identical for any thread count.
///
/// # Panics
///
/// Panics if `data.len() != nx * ny` or a transform changes lengths.
pub fn transform2d_mixed_threaded(
    data: &[f64],
    nx: usize,
    ny: usize,
    fx: impl Fn(&[f64]) -> Vec<f64> + Sync,
    fy: impl Fn(&[f64]) -> Vec<f64> + Sync,
    threads: usize,
) -> Vec<f64> {
    assert_eq!(data.len(), nx * ny, "matrix shape mismatch");
    let mut out = data.to_vec();
    let mut transposed = vec![0.0; out.len()];
    let mut lanes = vec![(); puffer_par::clamp_threads(threads)];
    transform2d_in_place(
        &mut out,
        nx,
        ny,
        &mut transposed,
        &mut lanes,
        |row, ()| overwrite(row, &fx, "x-transform changed row length"),
        |col, ()| overwrite(col, &fy, "y-transform changed column length"),
    );
    out
}

fn overwrite(line: &mut [f64], f: &impl Fn(&[f64]) -> Vec<f64>, complaint: &str) {
    let transformed = f(line);
    assert_eq!(transformed.len(), line.len(), "{complaint}");
    line.copy_from_slice(&transformed);
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-based sums mirror the transform definitions
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (i, &v) in x.iter().enumerate() {
                    acc = acc + v * Complex::from_angle(-2.0 * PI * (k * i) as f64 / n as f64);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fft_matches_naive_dft() {
        let x: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let expect = naive_dft(&x);
        let mut got = x.clone();
        fft(&mut got);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g.re - e.re).abs() < 1e-9 && (g.im - e.im).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_ifft_round_trip() {
        let x: Vec<Complex> = (0..64)
            .map(|i| Complex::new(i as f64, (i * i % 7) as f64))
            .collect();
        let mut y = x.clone();
        fft(&mut y);
        ifft(&mut y);
        for (a, b) in y.iter().zip(&x) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut x = vec![Complex::ZERO; 12];
        fft(&mut x);
    }

    #[test]
    fn tiny_lengths_are_fine() {
        let mut x = vec![Complex::new(5.0, 0.0)];
        fft(&mut x);
        assert_eq!(x[0], Complex::new(5.0, 0.0));
        let mut e: Vec<Complex> = vec![];
        fft(&mut e);
    }

    /// Every supported length: 1, 2, 4, …, 512.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..10).map(|p| 1usize << p)
    }

    fn coefficients(n: usize, stride: usize) -> Vec<f64> {
        (0..n).map(|k| ((k * stride % 11) as f64) - 4.5).collect()
    }

    /// `got` against `Σ_k coef[k]·basis(i, k)`, to a tolerance that scales
    /// with the length of the sum.
    fn assert_matches_sum(
        what: &str,
        got: &[f64],
        coef: &[f64],
        basis: impl Fn(usize, usize) -> f64,
    ) {
        let n = coef.len();
        for i in 0..n {
            let expect: f64 = (0..n).map(|k| coef[k] * basis(i, k)).sum();
            assert!(
                (got[i] - expect).abs() < 1e-10 * (n * n) as f64,
                "{what} n={n} i={i}: {} vs {expect}",
                got[i]
            );
        }
    }

    fn angle(i: usize, k: usize, n: usize) -> f64 {
        PI * (2 * i + 1) as f64 * k as f64 / (2.0 * n as f64)
    }

    #[test]
    fn dct2_matches_definition() {
        for n in lengths() {
            let x = coefficients(n, 7);
            // X[k] = Σ_i x[i]·cos(π(2i+1)k/2N): the sum runs over inputs.
            assert_matches_sum("dct2", &dct2(&x), &x, |k, i| angle(i, k, n).cos());
        }
    }

    #[test]
    fn dct3_matches_definition() {
        for n in lengths() {
            let coef = coefficients(n, 3);
            assert_matches_sum("dct3", &dct3(&coef), &coef, |i, k| {
                if k == 0 {
                    0.5
                } else {
                    angle(i, k, n).cos()
                }
            });
        }
    }

    #[test]
    fn dct_round_trip() {
        let n = 16;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos() * 3.0).collect();
        let back = dct3(&dct2(&x));
        for (a, b) in back.iter().zip(&x) {
            assert!((a * 2.0 / n as f64 - b).abs() < 1e-9);
        }
    }

    #[test]
    fn transform2d_is_separable() {
        let data: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let same = transform2d_threaded(&data, 8, 4, |row| row.to_vec(), 1);
        assert_eq!(same, data);
        let quad =
            transform2d_threaded(&data, 8, 4, |row| row.iter().map(|v| 2.0 * v).collect(), 1);
        for (q, d) in quad.iter().zip(&data) {
            assert_eq!(*q, 4.0 * d);
        }
    }

    #[test]
    fn transform2d_mixed_applies_each_axis_once() {
        let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let out = transform2d_mixed_threaded(
            &data,
            4,
            3,
            |row| row.iter().map(|v| v + 1.0).collect(),
            |col| col.iter().map(|v| v * 10.0).collect(),
            1,
        );
        for iy in 0..3 {
            for ix in 0..4 {
                assert_eq!(out[iy * 4 + ix], (data[iy * 4 + ix] + 1.0) * 10.0);
            }
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64usize;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 / 3.0).cos()))
            .collect();
        let energy_t: f64 = x.iter().map(|c| c.abs().powi(2)).sum();
        let mut y = x;
        fft(&mut y);
        let energy_f: f64 = y.iter().map(|c| c.abs().powi(2)).sum::<f64>() / n as f64;
        assert!((energy_t - energy_f).abs() < 1e-6);
    }

    #[test]
    fn dst3_shifted_matches_definition() {
        for n in lengths() {
            let coef = coefficients(n, 5);
            assert_matches_sum("dst3_shifted", &dst3_shifted(&coef), &coef, |i, k| {
                angle(i, k, n).sin()
            });
        }
    }

    #[test]
    fn plans_are_shared_and_reject_other_lengths() {
        assert!(std::ptr::eq(plan(64), plan(64)));
        let wrong = std::panic::catch_unwind(|| {
            plan(64).apply(Kind::Dct2, &mut [0.0; 32], &mut Vec::new())
        });
        assert!(wrong.is_err());
    }

    #[test]
    fn in_place_pass_handles_rectangles_and_any_lane_count() {
        // 40 × 24 spans several transpose tiles with ragged edges.
        let (nx, ny) = (40, 24);
        let data: Vec<f64> = (0..nx * ny).map(|i| (i as f64 * 0.37).sin()).collect();
        for lanes in [1usize, 2, 5] {
            let mut got = data.clone();
            let mut transposed = vec![0.0; got.len()];
            let mut scratch = vec![0usize; lanes];
            transform2d_in_place(
                &mut got,
                nx,
                ny,
                &mut transposed,
                &mut scratch,
                |row, calls| {
                    *calls += 1;
                    row.reverse();
                },
                |col, calls| {
                    *calls += 1;
                    col.iter_mut().for_each(|v| *v *= 2.0);
                },
            );
            for iy in 0..ny {
                for ix in 0..nx {
                    assert_eq!(got[iy * nx + ix], 2.0 * data[iy * nx + (nx - 1 - ix)]);
                }
            }
            assert_eq!(scratch.iter().sum::<usize>(), nx + ny, "lanes={lanes}");
        }
    }

    /// The paired passes against the transposing pass over the 1-D
    /// transforms, down to one-element and two-element lines and more
    /// lanes than complex columns.
    #[test]
    fn paired_passes_match_the_transposing_pass_on_small_shapes() {
        type Free = fn(&[f64]) -> Vec<f64>;
        let syntheses: [(Kind, Free); 2] = [(Kind::Dct3, dct3), (Kind::Dst3Shifted, dst3_shifted)];
        for (nx, ny) in [(1, 1), (1, 8), (8, 1), (2, 4), (4, 2), (16, 2), (2, 16)] {
            let data: Vec<f64> = (0..nx * ny)
                .map(|i| (i as f64 * 0.61).sin() - 0.3)
                .collect();
            // The passes' layouts: the spectrum and the coefficients are
            // transposed (`(u, v)` at `u * ny + v`).
            let transposed: Vec<f64> = (0..nx * ny).map(|i| data[(i % ny) * nx + i / ny]).collect();
            let close = |got: &[f64], expect: &[f64], what: &str| {
                for (g, e) in got.iter().zip(expect) {
                    assert!((g - e).abs() < 1e-12, "{nx}x{ny} {what}: {g} vs {e}");
                }
            };
            for lanes in [1, 2, 5] {
                let mut lanes = vec![Lane::default(); lanes];
                let mut got = data.clone();
                dct2_2d(&mut got, nx, ny, &mut lanes);
                let expect = transform2d_mixed_threaded(&data, nx, ny, dct2, dct2, 1);
                let expect: Vec<f64> = (0..nx * ny)
                    .map(|i| expect[(i % ny) * nx + i / ny])
                    .collect();
                close(&got, &expect, "dct2");
                for (kx, fx) in syntheses {
                    for (ky, fy) in syntheses {
                        let expect = transform2d_mixed_threaded(&data, nx, ny, fx, fy, 1);
                        let (mut a, mut b) = (transposed.clone(), transposed.clone());
                        let planes = [(&mut a[..], (kx, ky)), (&mut b[..], (ky, kx))];
                        synthesis_2d(nx, ny, planes, &mut lanes);
                        close(&a, &expect, &format!("{kx:?}*{ky:?}"));
                        let expect = transform2d_mixed_threaded(&data, nx, ny, fy, fx, 1);
                        close(&b, &expect, &format!("{ky:?}*{kx:?} partner"));
                    }
                }
            }
        }
    }

    #[test]
    fn dst3_shifted_ignores_dc() {
        let mut a = vec![0.0, 1.0, -2.0, 0.5];
        let base = dst3_shifted(&a);
        a[0] = 100.0;
        assert_eq!(dst3_shifted(&a), base);
    }

    #[test]
    fn dct_handles_length_one_and_two() {
        assert_eq!(dct2(&[3.0]), vec![3.0]);
        let x = [1.0, 2.0];
        let d = dct2(&x);
        // X[0] = 3, X[1] = cos(pi/4) - 2 cos(3pi/4).
        assert!((d[0] - 3.0).abs() < 1e-12);
        let expect = (PI / 4.0).cos() + 2.0 * (3.0 * PI / 4.0).cos();
        assert!((d[1] - expect).abs() < 1e-12);
        let back = dct3(&d);
        for (a, b) in back.iter().zip(&x) {
            assert!((a * 2.0 / 2.0 - b).abs() < 1e-9);
        }
    }
}
