//! Synthetic industrial benchmark generator for PUFFER.
//!
//! The paper evaluates on ten proprietary industrial designs (Table I).
//! Those netlists are not available, so this crate generates synthetic
//! designs whose *routability-relevant* characteristics are controlled
//! explicitly:
//!
//! * clustered connectivity (cells are grouped into logical clusters; most
//!   nets are intra-cluster, a configurable fraction is global) — this is
//!   what makes cells bunch up during global placement, the phenomenon
//!   PUFFER's congestion estimator is built around (§III-A);
//! * a fanout distribution with a geometric tail, reproducing the
//!   nets ≈ cells and pins/net ≈ 3–4 ratios of Table I;
//! * fixed macros acting as placement and routing blockages;
//! * a `hotspot` knob concentrating extra pin-dense, high-fanout logic into
//!   one region to reproduce the congested designs (MEDIA_SUBSYS,
//!   A53_ADB_WRAP) where the paper's Table II shows the largest spreads.
//!
//! [`presets`] provides ten named configurations mirroring the Table I rows
//! at a configurable scale.
//!
//! # Example
//!
//! ```
//! use puffer_gen::{generate, presets};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = presets::or1200(0.01)?; // 1% scale for a quick run
//! let design = generate(&config)?;
//! assert!(design.stats().movable_cells > 1000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

use puffer_db::design::Design;
use puffer_db::error::DbError;
use puffer_db::geom::{Point, Rect};
use puffer_db::netlist::{CellId, CellKind, NetlistBuilder};
use puffer_db::tech::Technology;
use puffer_rng::StdRng;

pub mod presets;

/// Errors produced while building a generator configuration (as opposed to
/// [`DbError`], which [`generate`] returns when a *valid* configuration
/// still yields a degenerate design).
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// The scale factor passed to [`GeneratorConfig::scaled`] (or a
    /// [`presets`] function) was zero, negative, or non-finite.
    Scale {
        /// The offending factor.
        factor: f64,
    },
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::Scale { factor } => {
                write!(f, "scale factor must be positive and finite, got {factor}")
            }
        }
    }
}

impl std::error::Error for GenError {}

/// Configuration of a synthetic design.
///
/// All counts are *targets*; tiny rounding differences can occur (e.g. the
/// last cluster may be smaller). Use [`presets`] for Table I shaped
/// configurations, or construct directly for custom experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Design name.
    pub name: String,
    /// Number of movable standard cells.
    pub num_cells: usize,
    /// Number of fixed macros.
    pub num_macros: usize,
    /// Number of nets.
    pub num_nets: usize,
    /// Target average pins per net (≥ 2); the tail is geometric.
    pub avg_net_degree: f64,
    /// Placement utilization (movable area / free area), typically 0.6–0.85.
    pub utilization: f64,
    /// Mean logical cluster size in cells.
    pub cluster_size: usize,
    /// Probability that a net stays inside one cluster.
    pub locality: f64,
    /// Extra congestion pressure in `[0, 1]`: concentrates high-fanout,
    /// pin-dense logic into a hotspot covering ~10% of clusters.
    pub hotspot: f64,
    /// Fraction of the region edge covered by each macro (per side), before
    /// jitter; macros are sized relative to the region.
    pub macro_fraction: f64,
    /// RNG seed; identical configs generate identical designs.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            name: "synthetic".into(),
            num_cells: 10_000,
            num_macros: 8,
            num_nets: 11_000,
            avg_net_degree: 3.4,
            utilization: 0.72,
            cluster_size: 48,
            locality: 0.90,
            hotspot: 0.0,
            macro_fraction: 0.06,
            seed: 42,
        }
    }
}

impl GeneratorConfig {
    /// Scales cell/net/macro counts by `factor` (min 1 macro kept when the
    /// original had any), returning a new config. Used by [`presets`].
    ///
    /// # Errors
    ///
    /// [`GenError::Scale`] when `factor` is zero, negative, or non-finite.
    pub fn scaled(mut self, factor: f64) -> Result<Self, GenError> {
        if !factor.is_finite() || factor <= 0.0 {
            return Err(GenError::Scale { factor });
        }
        self.num_cells = ((self.num_cells as f64 * factor) as usize).max(16);
        self.num_nets = ((self.num_nets as f64 * factor) as usize).max(16);
        if self.num_macros > 0 {
            self.num_macros = ((self.num_macros as f64 * factor.sqrt()) as usize).clamp(1, 400);
        }
        Ok(self)
    }
}

/// Generates a design from a configuration.
///
/// The generated design has all macros placed, rows filled, and passes
/// [`Design::check_macros_placed`]. Identical configs produce identical
/// designs.
///
/// # Errors
///
/// Returns [`DbError::Validate`] naming the field when `utilization`,
/// `hotspot`, `locality`, `macro_fraction` or `avg_net_degree` is NaN or
/// outside the range the floorplan arithmetic is defined on, and
/// [`DbError`] if an in-range configuration still produces a degenerate
/// floorplan (e.g. no cells, or a macro larger than the region).
pub fn generate(config: &GeneratorConfig) -> Result<Design, DbError> {
    // NaN is in no range, so `contains` rejects it along with the rest.
    // 24 is `max_degree`, the clip of the net-degree tail below.
    let c = config;
    let ranges = [
        (
            "utilization",
            c.utilization,
            c.utilization > 0.0 && c.utilization <= 1.0,
            "(0, 1]",
        ),
        (
            "hotspot",
            c.hotspot,
            (0.0..=1.0).contains(&c.hotspot),
            "[0, 1]",
        ),
        (
            "locality",
            c.locality,
            (0.0..=1.0).contains(&c.locality),
            "[0, 1]",
        ),
        (
            "macro_fraction",
            c.macro_fraction,
            (0.0..1.0).contains(&c.macro_fraction),
            "[0, 1)",
        ),
        (
            "avg_net_degree",
            c.avg_net_degree,
            (2.0..=24.0).contains(&c.avg_net_degree),
            "[2, 24]",
        ),
    ];
    for (field, value, ok, range) in ranges {
        if !ok {
            return Err(DbError::Validate(format!(
                "generator config: {field} must be in {range}, got {value}"
            )));
        }
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let tech = Technology::default();

    // --- Cell sizes --------------------------------------------------------
    // Widths in sites: mostly 2-6 sites, pin-dense cells wider.
    let mut nb = NetlistBuilder::with_capacity(
        config.num_cells + config.num_macros,
        config.num_nets,
        (config.num_nets as f64 * config.avg_net_degree) as usize,
    );
    let site = tech.site_width;
    let row_h = tech.row_height;
    let mut movable_area = 0.0;
    let mut cell_ids = Vec::with_capacity(config.num_cells);
    let mut cell_widths = Vec::with_capacity(config.num_cells);
    for i in 0..config.num_cells {
        let sites = match rng.gen_range(0..100) {
            0..=39 => 2,
            40..=69 => 3,
            70..=84 => 4,
            85..=94 => 6,
            _ => 8,
        };
        let w = sites as f64 * site;
        movable_area += w * row_h;
        cell_ids.push(nb.try_add_cell(format!("c{i}"), w, row_h, CellKind::Movable)?);
        cell_widths.push(w);
    }

    // --- Floorplan ---------------------------------------------------------
    // Estimate macro area as a fraction of the core, then solve for the core
    // side so that movable_area / (core - macro_area) == utilization.
    let per_macro_frac = config.macro_fraction * config.macro_fraction;
    let macro_area_frac = (config.num_macros as f64 * per_macro_frac).min(0.35);
    let core_area = movable_area / config.utilization / (1.0 - macro_area_frac);
    let side = core_area.sqrt();
    // Snap height to whole rows and width to whole sites.
    let height = (side / row_h).ceil() * row_h;
    let width = (side / site).ceil() * site;
    let region = Rect::new(0.0, 0.0, width, height);

    // --- Macros ------------------------------------------------------------
    let mut macro_ids = Vec::with_capacity(config.num_macros);
    for i in 0..config.num_macros {
        let frac = config.macro_fraction * rng.gen_range(0.6..1.4);
        let mw = ((width * frac) / site).max(4.0).round() * site;
        let mh = ((height * frac) / row_h).max(4.0).round() * row_h;
        macro_ids.push(nb.try_add_cell(format!("m{i}"), mw, mh, CellKind::FixedMacro)?);
    }

    // --- Clusters ----------------------------------------------------------
    let n_clusters = (config.num_cells / config.cluster_size.max(1)).max(1);
    let hotspot_clusters = ((n_clusters as f64 * 0.10).ceil() as usize).max(1);

    // --- Nets --------------------------------------------------------------
    // Geometric fanout tail: degree = 2 + Geometric(p), clipped.
    let mean_extra = (config.avg_net_degree - 2.0).max(0.05);
    let p_stop = 1.0 / (1.0 + mean_extra);
    let max_degree = 24usize;
    for i in 0..config.num_nets {
        let net = nb.add_net(format!("n{i}"));
        // Hotspot nets are denser and more numerous inside the hotspot.
        let in_hotspot = rng.gen_bool((config.hotspot * 0.35).clamp(0.0, 1.0));
        let cluster = if in_hotspot {
            rng.gen_range(0..hotspot_clusters)
        } else {
            rng.gen_range(0..n_clusters)
        };
        let mut degree = 2;
        while degree < max_degree && !rng.gen_bool(p_stop) {
            degree += 1;
        }
        if in_hotspot {
            degree = (degree + 2).min(max_degree);
        }
        let local = rng.gen_bool(config.locality.clamp(0.0, 1.0));
        let mut used = Vec::with_capacity(degree);
        for _ in 0..degree {
            let cell = if local {
                // Pick within the chosen cluster (contiguous index range).
                let lo = cluster * config.num_cells / n_clusters;
                let hi = (((cluster + 1) * config.num_cells) / n_clusters).max(lo + 1);
                rng.gen_range(lo..hi)
            } else {
                rng.gen_range(0..config.num_cells)
            };
            if used.contains(&cell) {
                continue; // skip duplicate connections on the same net
            }
            used.push(cell);
            let c = cell_ids[cell];
            let (w, h) = (cell_widths[cell], row_h);
            let dx = rng.gen_range(-0.4..0.4) * w;
            let dy = rng.gen_range(-0.4..0.4) * h;
            nb.connect(net, c, Point::new(dx, dy))?;
        }
        // A net needs at least two distinct pins to contribute wirelength;
        // duplicate picks above may have left it degenerate, so top it up
        // with fresh cells (bounded re-draws keep this loop finite).
        let mut attempts = 0;
        while used.len() < 2 && config.num_cells >= 2 && attempts < 64 {
            attempts += 1;
            let cell = rng.gen_range(0..config.num_cells);
            if used.contains(&cell) {
                continue;
            }
            used.push(cell);
            let c = cell_ids[cell];
            let (w, h) = (cell_widths[cell], row_h);
            let dx = rng.gen_range(-0.4..0.4) * w;
            let dy = rng.gen_range(-0.4..0.4) * h;
            nb.connect(net, c, Point::new(dx, dy))?;
        }
        // Occasionally tie a net to a macro pin (I/O of the block).
        if !macro_ids.is_empty() && rng.gen_bool(0.02) {
            let m = macro_ids[rng.gen_range(0..macro_ids.len())];
            nb.connect(net, m, Point::ORIGIN)?;
        }
    }

    // A few extra pins on hotspot cells to raise local pin density.
    if config.hotspot > 0.0 {
        let hot_cells = hotspot_clusters * config.num_cells / n_clusters;
        let extra_nets = (config.hotspot * hot_cells as f64 * 0.4) as usize;
        for i in 0..extra_nets {
            let net = nb.add_net(format!("hot{i}"));
            for _ in 0..2 {
                let cell = rng.gen_range(0..hot_cells.max(2));
                nb.connect(net, cell_ids[cell], Point::ORIGIN)?;
            }
        }
    }

    let netlist = nb.build()?;
    let mut design = Design::new(config.name.clone(), netlist, tech, region)?;

    // --- Macro placement ---------------------------------------------------
    // Macros go on a jittered coarse grid with a margin, skipping overlaps.
    place_macros(&mut design, &macro_ids, &mut rng)?;
    design.check_macros_placed()?;
    Ok(design)
}

fn place_macros(
    design: &mut Design,
    macro_ids: &[CellId],
    rng: &mut StdRng,
) -> Result<(), DbError> {
    let region = design.region();
    let mut placed: Vec<Rect> = Vec::new();
    for &m in macro_ids {
        let cell = design.netlist().cell(m).clone();
        // The centre is clamped into `region` shrunk by half the macro; an
        // empty clamp interval (which `f64::clamp` panics on) is a macro
        // the floorplan cannot hold.
        if cell.width > region.width() || cell.height > region.height() {
            return Err(DbError::Validate(format!(
                "macro '{}' ({} x {}) does not fit the region {region}",
                cell.name, cell.width, cell.height
            )));
        }
        let mut done = false;
        for attempt in 0..400 {
            // Bias towards the periphery like real floorplans, drifting to
            // fully random placement if the periphery is packed.
            let t = attempt as f64 / 400.0;
            let (x, y) = if t < 0.5 && rng.gen_bool(0.7) {
                let side = rng.gen_range(0..4);
                let along = rng.gen_range(0.05..0.95);
                let depth = rng.gen_range(0.02..0.18 + t * 0.5);
                match side {
                    0 => (
                        region.xl + along * region.width(),
                        region.yl + depth * region.height(),
                    ),
                    1 => (
                        region.xl + along * region.width(),
                        region.yh - depth * region.height(),
                    ),
                    2 => (
                        region.xl + depth * region.width(),
                        region.yl + along * region.height(),
                    ),
                    _ => (
                        region.xh - depth * region.width(),
                        region.yl + along * region.height(),
                    ),
                }
            } else {
                (
                    rng.gen_range(region.xl..region.xh),
                    rng.gen_range(region.yl..region.yh),
                )
            };
            let x = x.clamp(region.xl + cell.width / 2.0, region.xh - cell.width / 2.0);
            let y = y.clamp(region.yl + cell.height / 2.0, region.yh - cell.height / 2.0);
            let shape = Rect::from_center(Point::new(x, y), cell.width, cell.height);
            let margin = shape.expanded((cell.width.min(cell.height)) * 0.15);
            if placed.iter().any(|r| r.overlaps(&margin)) {
                continue;
            }
            design.place_macro(m, Point::new(x, y))?;
            placed.push(shape);
            done = true;
            break;
        }
        if !done {
            // Fall back to anywhere legal, overlaps allowed as a last resort
            // (mirrors messy real floorplans rather than failing).
            let x = rng.gen_range(
                region.xl + cell.width / 2.0
                    ..(region.xh - cell.width / 2.0).max(region.xl + cell.width / 2.0 + 1e-9),
            );
            let y = rng.gen_range(
                region.yl + cell.height / 2.0
                    ..(region.yh - cell.height / 2.0).max(region.yl + cell.height / 2.0 + 1e-9),
            );
            design.place_macro(m, Point::new(x, y))?;
            placed.push(Rect::from_center(Point::new(x, y), cell.width, cell.height));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GeneratorConfig {
        GeneratorConfig {
            num_cells: 800,
            num_nets: 900,
            num_macros: 3,
            ..GeneratorConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small();
        let a = generate(&cfg).unwrap();
        let b = generate(&cfg).unwrap();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.region(), b.region());
        let ma: Vec<_> = a.macro_shapes().iter().map(|(_, r)| *r).collect();
        let mb: Vec<_> = b.macro_shapes().iter().map(|(_, r)| *r).collect();
        assert_eq!(ma, mb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small()).unwrap();
        let b = generate(&GeneratorConfig {
            seed: 43,
            ..small()
        })
        .unwrap();
        let ra: Vec<_> = a.macro_shapes().iter().map(|(_, r)| *r).collect();
        let rb: Vec<_> = b.macro_shapes().iter().map(|(_, r)| *r).collect();
        assert_ne!(ra, rb);
    }

    #[test]
    fn stats_hit_targets() {
        let cfg = small();
        let d = generate(&cfg).unwrap();
        let s = d.stats();
        assert_eq!(s.movable_cells, 800);
        assert_eq!(s.macros, 3);
        assert!(s.nets >= 900); // hotspot nets may add more
                                // Average net degree in a sane band.
        let avg = d.netlist().num_pins() as f64 / s.nets as f64;
        assert!((2.0..6.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn utilization_is_near_target() {
        let cfg = small();
        let d = generate(&cfg).unwrap();
        let u = d.utilization();
        assert!(
            (cfg.utilization * 0.7..=cfg.utilization * 1.3).contains(&u),
            "utilization {u} vs target {}",
            cfg.utilization
        );
    }

    #[test]
    fn macros_are_inside_region() {
        let d = generate(&GeneratorConfig {
            num_macros: 10,
            ..small()
        })
        .unwrap();
        for (_, r) in d.macro_shapes() {
            assert!(r.xl >= d.region().xl - 1e-9 && r.xh <= d.region().xh + 1e-9);
            assert!(r.yl >= d.region().yl - 1e-9 && r.yh <= d.region().yh + 1e-9);
        }
        assert!(d.check_macros_placed().is_ok());
    }

    #[test]
    fn hotspot_raises_pin_concentration() {
        let calm = generate(&GeneratorConfig {
            hotspot: 0.0,
            ..small()
        })
        .unwrap();
        let hot = generate(&GeneratorConfig {
            hotspot: 1.0,
            ..small()
        })
        .unwrap();
        // Hotspot config adds extra nets and pins on the first cells.
        let pins_on_first = |d: &Design| -> usize {
            (0..80)
                .map(|i| d.netlist().cell_pins(CellId(i)).len())
                .sum()
        };
        assert!(pins_on_first(&hot) > pins_on_first(&calm));
    }

    #[test]
    fn scaled_reduces_counts() {
        let cfg = presets::bit_coin(0.01).unwrap();
        assert!(cfg.num_cells < 10_000);
        assert!(cfg.num_cells >= 16);
        let d = generate(&cfg).unwrap();
        assert!(d.stats().movable_cells > 5000);
    }

    #[test]
    fn degenerate_scale_factors_are_structured_errors() {
        // Regression: these were an `assert!` panic; callers (CLI flags,
        // daemon job specs) need a recoverable error instead.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = GeneratorConfig::default().scaled(bad).unwrap_err();
            assert!(matches!(err, GenError::Scale { .. }), "{err}");
            assert!(err.to_string().contains("scale factor"), "{err}");
            if !bad.is_nan() {
                assert!(err.to_string().contains(&bad.to_string()), "{err}");
            }
        }
        assert!(GeneratorConfig::default().scaled(0.5).is_ok());
    }

    #[test]
    fn out_of_range_floats_are_structured_errors_naming_the_field() {
        // Regression: `utilization: 0.0` panicked in `add_cell` (macro
        // width `inf`), `5.0` in `f64::clamp` inside `place_macros`.
        let d = GeneratorConfig::default;
        let bad = [
            (
                "utilization",
                GeneratorConfig {
                    utilization: 0.0,
                    ..d()
                },
            ),
            (
                "utilization",
                GeneratorConfig {
                    utilization: 5.0,
                    ..d()
                },
            ),
            (
                "utilization",
                GeneratorConfig {
                    utilization: f64::NAN,
                    ..d()
                },
            ),
            (
                "hotspot",
                GeneratorConfig {
                    hotspot: -0.1,
                    ..d()
                },
            ),
            (
                "locality",
                GeneratorConfig {
                    locality: f64::NAN,
                    ..d()
                },
            ),
            (
                "macro_fraction",
                GeneratorConfig {
                    macro_fraction: 1.0,
                    ..d()
                },
            ),
            (
                "avg_net_degree",
                GeneratorConfig {
                    avg_net_degree: f64::INFINITY,
                    ..d()
                },
            ),
        ];
        for (field, cfg) in bad {
            let err = generate(&cfg).unwrap_err();
            assert!(matches!(err, DbError::Validate(_)), "{err}");
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
        // In range, but the minimum-size macros outgrow a 10-cell region.
        let err = generate(&GeneratorConfig {
            num_cells: 10,
            num_nets: 11,
            utilization: 1.0,
            ..d()
        })
        .unwrap_err();
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    #[test]
    fn fanout_distribution_has_geometric_tail() {
        let d = generate(&GeneratorConfig {
            num_cells: 2000,
            num_nets: 2500,
            num_macros: 0,
            avg_net_degree: 3.4,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let mut degree_counts = [0usize; 30];
        for (id, _) in d.netlist().iter_nets() {
            degree_counts[d.netlist().net_degree(id).min(29)] += 1;
        }
        // 2-pin nets dominate, higher degrees decay, a tail exists.
        assert!(degree_counts[2] > degree_counts[3]);
        assert!(degree_counts[3] > degree_counts[5]);
        let tail: usize = degree_counts[6..].iter().sum();
        assert!(tail > 20, "tail too thin: {tail}");
        // No net exceeds the fanout clip.
        assert_eq!(degree_counts[25..].iter().sum::<usize>(), 0);
    }

    #[test]
    fn locality_controls_cluster_confinement() {
        // With locality 1.0 every multi-pin net stays within one cluster's
        // contiguous index range (width <= cluster size).
        let cfg = GeneratorConfig {
            num_cells: 1000,
            num_nets: 1200,
            num_macros: 0,
            locality: 1.0,
            hotspot: 0.0,
            cluster_size: 50,
            ..GeneratorConfig::default()
        };
        let d = generate(&cfg).unwrap();
        let n_clusters = cfg.num_cells / cfg.cluster_size;
        let span_limit = cfg.num_cells / n_clusters; // one cluster range
        let mut confined = 0;
        let mut total = 0;
        for (id, _) in d.netlist().iter_nets() {
            let idxs: Vec<usize> = d
                .netlist()
                .net_pins(id)
                .iter()
                .map(|&p| d.netlist().pin(p).cell.index())
                .collect();
            if idxs.len() < 2 {
                continue;
            }
            total += 1;
            let span = idxs.iter().max().unwrap() - idxs.iter().min().unwrap();
            if span <= span_limit {
                confined += 1;
            }
        }
        assert!(
            confined * 100 >= total * 95,
            "only {confined}/{total} nets confined to a cluster"
        );
    }
}
