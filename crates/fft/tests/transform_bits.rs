//! Bit-level pin of the transforms: `fixtures/transform_bits.txt` was
//! rendered by the allocating, table-free implementations this crate
//! shipped before the planned ones (one `sin`/`cos` pair per twiddle per
//! call), and every path since must reproduce it **bit for bit** — the
//! density solve feeds checkpoint journals and golden metrics.
//!
//! One line per case: the 1-D transforms list every output as hex `f64`
//! bits; the 2-D cases (all nine kind pairs at 32×16, 128×128, 256×64 and
//! 512×512, the largest bin grid the placer picks) record an FNV-1a digest
//! of the output bits, which pins the same thing in a line per case instead
//! of the whole matrix. The last two shapes were rendered by the transposing
//! column pass.
//!
//! The `dct2_2d` and `synthesis_2d` lines pin the density solver's paired
//! passes at the same four shapes (the forward transform; the field pair
//! E_x/E_y, one digest per plane; the potential with a zero partner). They
//! round differently from the 1-D transforms and were rendered by the
//! passes' first implementation.

use puffer_fft::{
    dct2, dct2_2d, dct3, dst3_shifted, synthesis_2d, transform2d_mixed_threaded, Kind, Lane,
};

const FIXTURE: &str = include_str!("fixtures/transform_bits.txt");
type Free = fn(&[f64]) -> Vec<f64>;
const KINDS: [(&str, Free); 3] = [
    ("dct2", dct2),
    ("dct3", dct3),
    ("dst3_shifted", dst3_shifted),
];
const LENGTHS: [usize; 4] = [1, 2, 8, 128];
const SHAPES: [(usize, usize); 4] = [(32, 16), (128, 128), (256, 64), (512, 512)];

/// Awkward magnitudes (thirteen decades, both signs) so that any change in
/// operation order or in a twiddle's last bit flips output bits.
fn samples(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|i| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let unit =
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
            (unit - 0.5) * 10f64.powi((i % 13) as i32 - 6)
        })
        .collect()
}

fn digest(values: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The fixture text as the code under test computes it, every 2-D case on
/// `threads` workers.
fn render(threads: usize) -> String {
    let mut out = String::new();
    for (name, f) in KINDS {
        for n in LENGTHS {
            out.push_str(&format!("{name} {n}"));
            for v in f(&samples(n, n as u64)) {
                out.push_str(&format!(" {:016x}", v.to_bits()));
            }
            out.push('\n');
        }
    }
    for (nx, ny) in SHAPES {
        let data = samples(nx * ny, (nx * ny) as u64);
        for (x_name, fx) in KINDS {
            for (y_name, fy) in KINDS {
                let got = transform2d_mixed_threaded(&data, nx, ny, fx, fy, threads);
                out.push_str(&format!(
                    "{x_name}*{y_name} {nx}x{ny} {:016x}\n",
                    digest(&got)
                ));
            }
        }
    }
    for (nx, ny) in SHAPES {
        let mut lanes = vec![Lane::default(); threads];
        let mut a = samples(nx * ny, (nx * ny) as u64);
        dct2_2d(&mut a, nx, ny, &mut lanes);
        out.push_str(&format!("dct2_2d {nx}x{ny} {:016x}\n", digest(&a)));
        let mut b = samples(nx * ny, (nx * ny + 1) as u64);
        synthesis_2d(
            nx,
            ny,
            [
                (&mut a, (Kind::Dst3Shifted, Kind::Dct3)),
                (&mut b, (Kind::Dct3, Kind::Dst3Shifted)),
            ],
            &mut lanes,
        );
        out.push_str(&format!(
            "synthesis_2d dst3_shifted*dct3+dct3*dst3_shifted {nx}x{ny} {:016x} {:016x}\n",
            digest(&a),
            digest(&b)
        ));
        let (mut psi, mut zero) = (samples(nx * ny, (nx * ny + 2) as u64), vec![0.0; nx * ny]);
        let cosine = (Kind::Dct3, Kind::Dct3);
        synthesis_2d(
            nx,
            ny,
            [(&mut psi, cosine), (&mut zero, cosine)],
            &mut lanes,
        );
        out.push_str(&format!(
            "synthesis_2d dct3*dct3 {nx}x{ny} {:016x}\n",
            digest(&psi)
        ));
    }
    out
}

fn assert_matches_fixture(what: &str, got: &str) {
    assert_eq!(
        got.lines().count(),
        FIXTURE.lines().count(),
        "{what}: line count"
    );
    for (line, (g, e)) in got.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(g, e, "{what}: fixture line {} differs", line + 1);
    }
}

#[test]
fn every_path_reproduces_the_fixture_at_every_thread_count() {
    for threads in [1, 2, 3] {
        assert_matches_fixture(&format!("threads {threads}"), &render(threads));
    }
}
