//! The density solver's paired passes, [`dct2_2d`] and [`synthesis_2d`],
//! against direct sums of the transform definitions. Nothing here goes
//! through the crate's FFT or its tables: every basis value is one `cos`
//! or `sin` of the definition's angle.

use puffer_fft::{dct2_2d, synthesis_2d, Kind, Lane};
use std::f64::consts::PI;

const SHAPES: [(usize, usize); 6] = [(1, 1), (2, 1), (1, 4), (16, 8), (32, 32), (64, 16)];

/// `basis[i][k]` of a length-`n` transform `kind`, from its definition:
/// DCT-II `cos(π(2i+1)k/2N)` (indexed `[k][i]`: the sum runs over `i`),
/// DCT-III the same cosine with `1/2` at `k = 0`, shifted DST-III
/// `sin(π(2i+1)k/2N)`.
fn basis(kind: Kind, n: usize) -> Vec<Vec<f64>> {
    let angle = |i: usize, k: usize| PI * (2 * i + 1) as f64 * k as f64 / (2 * n) as f64;
    (0..n)
        .map(|a| {
            (0..n)
                .map(|b| match kind {
                    Kind::Dct2 => angle(b, a).cos(),
                    Kind::Dct3 if b == 0 => 0.5,
                    Kind::Dct3 => angle(a, b).cos(),
                    Kind::Dst3Shifted => angle(a, b).sin(),
                })
                .collect()
        })
        .collect()
}

/// `out[r][c] = Σ_{p,q} bx[c][p]·by[r][q]·input(p, q)`, with `out` row-major
/// (row length `nx`).
fn direct(
    nx: usize,
    ny: usize,
    (bx, by): (&[Vec<f64>], &[Vec<f64>]),
    input: impl Fn(usize, usize) -> f64,
) -> Vec<f64> {
    let mut out = vec![0.0; nx * ny];
    for r in 0..ny {
        for c in 0..nx {
            let mut sum = 0.0;
            for (p, bxp) in bx[c].iter().enumerate() {
                for (q, byq) in by[r].iter().enumerate() {
                    sum += bxp * byq * input(p, q);
                }
            }
            out[r * nx + c] = sum;
        }
    }
    out
}

fn samples(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// Every element of `got` within `1e-12` of the largest expected magnitude
/// of `scale`.
fn assert_close(what: &str, got: &[f64], expect: &[f64], scale: &[&[f64]]) {
    let largest = scale
        .iter()
        .flat_map(|v| v.iter())
        .fold(0.0f64, |m, v| m.max(v.abs()));
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert!(
            (g - e).abs() <= 1e-12 * largest,
            "{what}: element {i}: {g} vs {e} (largest {largest})"
        );
    }
}

fn lanes(n: usize) -> Vec<Lane> {
    vec![Lane::default(); n]
}

#[test]
fn the_forward_pass_is_the_2d_dct2_left_transposed() {
    for (nx, ny) in SHAPES {
        let rho = samples(nx * ny, (nx * 31 + ny) as u64);
        let (bx, by) = (basis(Kind::Dct2, nx), basis(Kind::Dct2, ny));
        // Row-major spectrum: a[v][u] = Σ_x Σ_y cos_u(x)·cos_v(y)·ρ[y][x].
        let expect = direct(nx, ny, (&bx, &by), |x, y| rho[y * nx + x]);
        for threads in [1, 3] {
            let mut got = rho.clone();
            dct2_2d(&mut got, nx, ny, &mut lanes(threads));
            // The pass leaves a_{u,v} at u·ny + v.
            let transposed: Vec<f64> = (0..nx * ny).map(|i| got[(i % nx) * ny + i / nx]).collect();
            let what = format!("dct2 {nx}x{ny}, {threads} lanes");
            assert_close(&what, &transposed, &expect, &[&expect]);
        }
    }
}

#[test]
fn the_paired_synthesis_is_two_2d_syntheses() {
    let field = [
        (Kind::Dst3Shifted, Kind::Dct3),
        (Kind::Dct3, Kind::Dst3Shifted),
    ];
    let cases = [
        field,
        [(Kind::Dct3, Kind::Dct3); 2],
        [
            (Kind::Dst3Shifted, Kind::Dst3Shifted),
            (Kind::Dct3, Kind::Dct3),
        ],
    ];
    for (nx, ny) in SHAPES {
        let coef = [
            samples(nx * ny, (nx + 7 * ny) as u64),
            samples(nx * ny, (3 * nx + ny) as u64),
        ];
        // Coefficient (u, v) of each plane sits at u·ny + v.
        let expect = |(kx, ky): (Kind, Kind), plane: &[f64]| {
            let (bx, by) = (basis(kx, nx), basis(ky, ny));
            direct(nx, ny, (&bx, &by), |u, v| plane[u * ny + v])
        };
        for [kinds_a, kinds_b] in cases {
            let expect_a = expect(kinds_a, &coef[0]);
            let expect_b = expect(kinds_b, &coef[1]);
            for threads in [1, 3] {
                let (mut a, mut b) = (coef[0].clone(), coef[1].clone());
                let planes = [(&mut a[..], kinds_a), (&mut b[..], kinds_b)];
                synthesis_2d(nx, ny, planes, &mut lanes(threads));
                let what = format!("{kinds_a:?}+{kinds_b:?} {nx}x{ny}, {threads} lanes");
                let scale = [&expect_a[..], &expect_b[..]];
                assert_close(&what, &a, &expect_a, &scale);
                assert_close(&what, &b, &expect_b, &scale);
            }
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn both_passes_give_the_same_bits_at_any_lane_count() {
    let n = 512;
    let data = samples(n * n, 512);
    let other = samples(n * n, 513);
    let run = |threads: usize| {
        let mut lanes = lanes(threads);
        let mut spectrum = data.clone();
        dct2_2d(&mut spectrum, n, n, &mut lanes);
        let (mut ex, mut ey) = (spectrum, other.clone());
        synthesis_2d(
            n,
            n,
            [
                (&mut ex, (Kind::Dst3Shifted, Kind::Dct3)),
                (&mut ey, (Kind::Dct3, Kind::Dst3Shifted)),
            ],
            &mut lanes,
        );
        [bits(&ex), bits(&ey)]
    };
    let one = run(1);
    for threads in [2, 3, 8] {
        assert!(run(threads) == one, "{threads} lanes differ from one");
    }
}

#[test]
fn one_nan_bin_makes_every_output_nan() {
    let (nx, ny) = (16, 8);
    let mut rho = samples(nx * ny, 5);
    rho[3 * nx + 11] = f64::NAN;
    dct2_2d(&mut rho, nx, ny, &mut lanes(2));
    assert!(rho.iter().all(|v| v.is_nan()), "dct2 left a finite output");
    // A coefficient both transforms of its plane read (a sine transform
    // ignores its k = 0 term).
    let mut a = samples(nx * ny, 6);
    let mut b = samples(nx * ny, 7);
    a[5 * ny + 3] = f64::NAN;
    synthesis_2d(
        nx,
        ny,
        [
            (&mut a, (Kind::Dst3Shifted, Kind::Dct3)),
            (&mut b, (Kind::Dct3, Kind::Dst3Shifted)),
        ],
        &mut lanes(2),
    );
    assert!(
        a.iter().chain(&b).all(|v| v.is_nan()),
        "synthesis left a finite output"
    );
}
