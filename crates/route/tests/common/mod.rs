//! What the router's bit pins share: the FNV-1a digest and the generated,
//! congested design every `gen` line routes.

#![allow(
    dead_code,
    reason = "each test crate that mounts this module uses its own subset"
)]

use puffer_db::design::{Design, Placement};
use puffer_db::geom::Point;
use puffer_gen::{generate, GeneratorConfig};
use puffer_rng::StdRng;
use puffer_route::{GlobalRouter, RouterConfig};

/// 64-bit FNV-1a over little-endian words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Digest of the `f64` bits of `values`, in order.
pub fn digest_f64(values: &[f64]) -> u64 {
    let mut h = Fnv::new();
    for v in values {
        h.word(v.to_bits());
    }
    h.0
}

/// A design whose cells sit in the middle 45 % of the die: the pattern
/// pass overflows and rip-up never clears it.
pub fn congested() -> (Design, Placement) {
    let design = generate(&GeneratorConfig {
        num_cells: 700,
        num_nets: 800,
        num_macros: 1,
        hotspot: 0.6,
        seed: 19,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED_0019);
    let region = design.region();
    let c = region.center();
    let mut placement = design.initial_placement();
    for id in design.netlist().movable_cells() {
        let x = c.x + (rng.next_f64() - 0.5) * 0.45 * region.width();
        let y = c.y + (rng.next_f64() - 0.5) * 0.45 * region.height();
        placement.set(id, Point::new(x, y));
    }
    (design, placement)
}

pub fn router(design: &Design, threads: usize) -> GlobalRouter {
    GlobalRouter::new(
        design,
        RouterConfig {
            threads,
            ..RouterConfig::default()
        },
    )
}
