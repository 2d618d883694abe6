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
//! column pass, before the planned pass ran its columns across whole rows.

use puffer_fft::{dct2, dct3, dst3_shifted, transform2d_mixed_threaded, transform2d_planned, Kind};

const FIXTURE: &str = include_str!("fixtures/transform_bits.txt");
type Free = fn(&[f64]) -> Vec<f64>;
const KINDS: [(&str, Free, Kind); 3] = [
    ("dct2", dct2, Kind::Dct2),
    ("dct3", dct3, Kind::Dct3),
    ("dst3_shifted", dst3_shifted, Kind::Dst3Shifted),
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

/// The fixture text as the code under test computes it, the 2-D cases on
/// `threads` workers: through the closure-taking free functions, or
/// (`planned`) through the in-place planned pass the density solver runs.
fn render(threads: usize, planned: bool) -> String {
    let mut out = String::new();
    for (name, f, _) in KINDS {
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
        for (x_name, fx, kx) in KINDS {
            for (y_name, fy, ky) in KINDS {
                let got = if planned {
                    let mut got = data.clone();
                    let mut transposed = vec![0.0; got.len()];
                    let mut lanes = vec![Vec::new(); threads];
                    transform2d_planned(&mut got, nx, ny, (kx, ky), &mut transposed, &mut lanes);
                    got
                } else {
                    transform2d_mixed_threaded(&data, nx, ny, fx, fy, threads)
                };
                out.push_str(&format!(
                    "{x_name}*{y_name} {nx}x{ny} {:016x}\n",
                    digest(&got)
                ));
            }
        }
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
        for planned in [false, true] {
            let what = format!("threads {threads}, planned {planned}");
            assert_matches_fixture(&what, &render(threads, planned));
        }
    }
}
