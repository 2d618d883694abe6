//! From-scratch fast transforms backing PUFFER's electrostatic solver.
//!
//! The ePlace density model (paper §II-B, Eq. (3)–(6)) expresses the bin
//! potential as a 2-D cosine series with frequencies `ω_k = 2πk/M`. Solving
//! it needs forward/backward cosine- and sine-series transforms, which this
//! crate provides on top of an iterative radix-2 complex FFT — no external
//! FFT dependency.
//!
//! * [`fft`]/[`ifft`] — in-place complex FFT for power-of-two lengths;
//! * [`dct2`]/[`dct3`] — classical DCT-II/III pairs (an independent
//!   cross-check and available for Neumann-boundary variants);
//! * [`transform2d`]/[`transform2d_mixed`] — separable application of 1-D
//!   transforms to rows and columns of a dense matrix, with
//!   [`transform2d_threaded`]/[`transform2d_mixed_threaded`] variants that
//!   chunk rows/columns across workers via `puffer-par` and are
//!   bit-identical to the serial path for any thread count.
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
use std::ops::{Add, Mul, Neg, Sub};

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

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
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
    fft_dir(data, false)
}

/// In-place inverse FFT (includes the `1/N` normalisation).
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn ifft(data: &mut [Complex]) {
    fft_dir(data, true);
    let n = data.len();
    if n > 0 {
        let s = 1.0 / n as f64;
        for v in data.iter_mut() {
            *v = v.scale(s);
        }
    }
}

fn fft_dir(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two(), "fft length {n} is not a power of two");

    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }

    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex::from_angle(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// DCT-II: `X[k] = Σ_n x[n]·cos(π(2n+1)k/(2N))`, computed via a length-`N`
/// FFT of the even/odd reordered input.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn dct2(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    // v[i] = x[2i] for the first half, v[N-1-i] = x[2i+1] for the second.
    let mut v = vec![Complex::ZERO; n];
    for i in 0..n.div_ceil(2) {
        v[i] = Complex::new(x[2 * i], 0.0);
    }
    for i in 0..n / 2 {
        v[n - 1 - i] = Complex::new(x[2 * i + 1], 0.0);
    }
    fft(&mut v);
    (0..n)
        .map(|k| {
            let w = Complex::from_angle(-PI * k as f64 / (2.0 * n as f64));
            (v[k] * w).re
        })
        .collect()
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
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![x[0] / 2.0];
    }
    // Reconstruct V[k] = e^{iπk/(2N)} (x[k]/2 - i·x̃[k]/2) where x̃ is the
    // odd-reflected partner; concretely V[k] = (x[k] - i·x[N-k]) · w / 2 with
    // x[N] ≡ 0, so that Re(FFT^{-1}(V))·(reorder) gives the DCT-III.
    let mut v = vec![Complex::ZERO; n];
    v[0] = Complex::new(x[0] / 2.0, 0.0);
    for k in 1..n {
        let w = Complex::from_angle(PI * k as f64 / (2.0 * n as f64));
        let z = Complex::new(x[k] / 2.0, -x[n - k] / 2.0);
        v[k] = w * z;
    }
    let mut buf = v;
    fft_dir(&mut buf, true); // unnormalised inverse: Σ V_k e^{+2πikn/N}
    let mut out = vec![0.0; n];
    for i in 0..n.div_ceil(2) {
        out[2 * i] = buf[i].re;
    }
    for i in 0..n / 2 {
        out[2 * i + 1] = buf[n - 1 - i].re;
    }
    out
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
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![0.0];
    }
    let mut rev = vec![0.0; n];
    // rev[k] = x[N−k]; rev[0] = 0 cancels the X[0]/2 term inside dct3.
    for k in 1..n {
        rev[k] = x[n - k];
    }
    let mut out = dct3(&rev);
    for (i, v) in out.iter_mut().enumerate() {
        if i % 2 == 1 {
            *v = -*v;
        }
    }
    out
}

/// Applies a 1-D transform to every row, then every column, of a dense
/// row-major `nx × ny` matrix (row length `nx`).
///
/// # Panics
///
/// Panics if `data.len() != nx * ny` or the transform changes lengths.
pub fn transform2d(
    data: &[f64],
    nx: usize,
    ny: usize,
    f: impl Fn(&[f64]) -> Vec<f64> + Sync,
) -> Vec<f64> {
    transform2d_mixed_threaded(data, nx, ny, &f, &f, 1)
}

/// Applies independent 1-D transforms along x (rows) and y (columns); used
/// for the mixed sine/cosine field transforms of the electrostatic solver.
///
/// # Panics
///
/// Panics if `data.len() != nx * ny` or a transform changes lengths.
pub fn transform2d_mixed(
    data: &[f64],
    nx: usize,
    ny: usize,
    fx: impl Fn(&[f64]) -> Vec<f64> + Sync,
    fy: impl Fn(&[f64]) -> Vec<f64> + Sync,
) -> Vec<f64> {
    transform2d_mixed_threaded(data, nx, ny, fx, fy, 1)
}

/// Parallel [`transform2d`] over up to `threads` workers; bit-identical to
/// the serial result for any thread count.
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

/// Parallel [`transform2d_mixed`]: rows, then columns, are processed in
/// fixed index chunks (`puffer_par::chunk_ranges`) on up to `threads`
/// workers. Each 1-D transform reads its own row/column and the results
/// are written back to disjoint spans — there is no accumulation, so the
/// output is bit-identical to the serial path for any thread count.
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
    if nx == 0 || ny == 0 {
        return Vec::new();
    }
    // Rows pass: each chunk of rows yields its transformed rows
    // back-to-back; concatenating in chunk order rebuilds the matrix.
    let row_parts = puffer_par::map_chunks(ny, threads, |r| {
        let mut part = Vec::with_capacity(r.len() * nx);
        for iy in r {
            let t = fx(&data[iy * nx..(iy + 1) * nx]);
            assert_eq!(t.len(), nx, "x-transform changed row length");
            part.extend_from_slice(&t);
        }
        part
    });
    let mut rows = Vec::with_capacity(nx * ny);
    for part in row_parts {
        rows.extend_from_slice(&part);
    }
    // Columns pass: per-chunk column scratch, transformed columns
    // scattered back to disjoint output columns.
    let rows_ref = &rows;
    let col_parts = puffer_par::map_chunks(nx, threads, |r| {
        let mut part = Vec::with_capacity(r.len() * ny);
        let mut col = vec![0.0; ny];
        for ix in r {
            for (iy, c) in col.iter_mut().enumerate() {
                *c = rows_ref[iy * nx + ix];
            }
            let t = fy(&col);
            assert_eq!(t.len(), ny, "y-transform changed column length");
            part.extend_from_slice(&t);
        }
        part
    });
    let mut out = vec![0.0; nx * ny];
    let mut ix0 = 0;
    for part in col_parts {
        for (k, tcol) in part.chunks_exact(ny).enumerate() {
            for (iy, v) in tcol.iter().enumerate() {
                out[iy * nx + (ix0 + k)] = *v;
            }
        }
        ix0 += part.len() / ny;
    }
    out
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
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
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

    #[test]
    fn dct2_matches_definition() {
        let n = 8;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 - 3.5) * 0.25).collect();
        let got = dct2(&x);
        for k in 0..n {
            let expect: f64 = x
                .iter()
                .enumerate()
                .map(|(i, &v)| v * (PI * (2 * i + 1) as f64 * k as f64 / (2.0 * n as f64)).cos())
                .sum();
            assert!(
                (got[k] - expect).abs() < 1e-9,
                "k={k}: {} vs {}",
                got[k],
                expect
            );
        }
    }

    #[test]
    fn dct3_matches_definition() {
        let n = 8;
        let coef: Vec<f64> = (0..n).map(|k| ((k * 7 % 5) as f64) - 2.0).collect();
        let got = dct3(&coef);
        for i in 0..n {
            let expect: f64 = coef[0] / 2.0
                + (1..n)
                    .map(|k| {
                        coef[k] * (PI * (2 * i + 1) as f64 * k as f64 / (2.0 * n as f64)).cos()
                    })
                    .sum::<f64>();
            assert!(
                (got[i] - expect).abs() < 1e-8,
                "i={i}: {} vs {}",
                got[i],
                expect
            );
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
        let same = transform2d(&data, 8, 4, |row| row.to_vec());
        assert_eq!(same, data);
        let quad = transform2d(&data, 8, 4, |row| row.iter().map(|v| 2.0 * v).collect());
        for (q, d) in quad.iter().zip(&data) {
            assert_eq!(*q, 4.0 * d);
        }
    }

    #[test]
    fn transform2d_mixed_applies_each_axis_once() {
        let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let out = transform2d_mixed(
            &data,
            4,
            3,
            |row| row.iter().map(|v| v + 1.0).collect(),
            |col| col.iter().map(|v| v * 10.0).collect(),
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
        let n = 8;
        let coef: Vec<f64> = (0..n).map(|k| ((k * 5 % 11) as f64) - 4.0).collect();
        let got = dst3_shifted(&coef);
        for i in 0..n {
            let expect: f64 = (1..n)
                .map(|k| coef[k] * (PI * (2 * i + 1) as f64 * k as f64 / (2.0 * n as f64)).sin())
                .sum();
            assert!(
                (got[i] - expect).abs() < 1e-8,
                "i={i}: {} vs {}",
                got[i],
                expect
            );
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
