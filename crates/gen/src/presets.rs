//! The ten Table I benchmark presets.
//!
//! Each preset reproduces a row of the paper's Table I: the macro, cell,
//! net, and pin counts (pins are controlled indirectly through the average
//! net degree `#Pins / #Nets`). The congestion character is set from the
//! paper's Table II behaviour: designs where all three placers struggled
//! (MEDIA_SUBSYS, A53_ADB_WRAP) get a strong hotspot and higher utilization;
//! clean designs (CT_TOP, BIT_COIN) are mild.
//!
//! `scale` multiplies cell and net counts (macro counts scale with √scale);
//! `1.0` is full Table I size. The default harness runs at small scales so
//! the whole suite finishes on one machine.

use crate::{GenError, GeneratorConfig};

#[allow(clippy::too_many_arguments, reason = "mirrors the Table I columns")]
fn base(
    name: &str,
    macros: usize,
    cells_k: usize,
    nets_k: usize,
    pins_k: usize,
    utilization: f64,
    hotspot: f64,
    seed: u64,
) -> GeneratorConfig {
    GeneratorConfig {
        name: name.into(),
        num_cells: cells_k * 1000,
        num_macros: macros,
        num_nets: nets_k * 1000,
        avg_net_degree: pins_k as f64 / nets_k as f64,
        utilization,
        cluster_size: 48,
        locality: 0.90,
        hotspot,
        macro_fraction: 0.05,
        seed,
    }
}

/// OR1200: small but congested CPU core (paper HOF 0.79–0.92%).
pub fn or1200(scale: f64) -> Result<GeneratorConfig, GenError> {
    base("OR1200", 22, 122, 193, 660, 0.80, 0.55, 0x0120_0001).scaled(scale)
}

/// ASIC_ENTITY: clean mid-size block.
pub fn asic_entity(scale: f64) -> Result<GeneratorConfig, GenError> {
    base("ASIC_ENTITY", 45, 149, 155, 630, 0.68, 0.10, 0x0120_0002).scaled(scale)
}

/// BIT_COIN: large, very routable datapath.
pub fn bit_coin(scale: f64) -> Result<GeneratorConfig, GenError> {
    base("BIT_COIN", 43, 760, 760, 3151, 0.62, 0.02, 0x0120_0003).scaled(scale)
}

/// MEDIA_SUBSYS: the most congested design in Table II (VOF up to 14.8%).
pub fn media_subsys(scale: f64) -> Result<GeneratorConfig, GenError> {
    base(
        "MEDIA_SUBSYS",
        70,
        1228,
        1296,
        5235,
        0.84,
        0.95,
        0x0120_0004,
    )
    .scaled(scale)
}

/// MEDIA_PG_MODIFY: same block after a power-grid fix; much milder.
pub fn media_pg_modify(scale: f64) -> Result<GeneratorConfig, GenError> {
    base(
        "MEDIA_PG_MODIFY",
        70,
        1228,
        1296,
        5235,
        0.74,
        0.30,
        0x0120_0005,
    )
    .scaled(scale)
}

/// A53_ADB_WRAP: congested CPU wrapper (paper VOF 2.4–14.4%).
pub fn a53_adb_wrap(scale: f64) -> Result<GeneratorConfig, GenError> {
    base("A53_ADB_WRAP", 7, 1232, 1300, 5242, 0.83, 0.85, 0x0120_0006).scaled(scale)
}

/// CT_SCAN: large and clean.
pub fn ct_scan(scale: f64) -> Result<GeneratorConfig, GenError> {
    base("CT_SCAN", 39, 1249, 1317, 5282, 0.66, 0.08, 0x0120_0007).scaled(scale)
}

/// CT_TOP: the cleanest large design (zero HOF for all placers).
pub fn ct_top(scale: f64) -> Result<GeneratorConfig, GenError> {
    base("CT_TOP", 38, 1270, 1272, 4091, 0.60, 0.0, 0x0120_0008).scaled(scale)
}

/// E31_ECOREPLEX: big but routable core complex.
pub fn e31_ecoreplex(scale: f64) -> Result<GeneratorConfig, GenError> {
    base(
        "E31_ECOREPLEX",
        56,
        1533,
        1537,
        6303,
        0.64,
        0.05,
        0x0120_0009,
    )
    .scaled(scale)
}

/// OPENC910: the largest design, macro-heavy, mildly congested.
pub fn openc910(scale: f64) -> Result<GeneratorConfig, GenError> {
    let mut c = base("OPENC910", 332, 1590, 1741, 7276, 0.68, 0.12, 0x0120_000A).scaled(scale)?;
    // 332 macros are necessarily small ones; keep the blocked area in a
    // realistic band instead of letting the default per-macro size blow it up.
    c.macro_fraction = 0.03;
    Ok(c)
}

/// All ten presets in Table I order.
///
/// # Errors
///
/// [`GenError::Scale`] when `scale` is zero, negative, or non-finite.
pub fn all(scale: f64) -> Result<Vec<GeneratorConfig>, GenError> {
    Ok(vec![
        or1200(scale)?,
        asic_entity(scale)?,
        bit_coin(scale)?,
        media_subsys(scale)?,
        media_pg_modify(scale)?,
        a53_adb_wrap(scale)?,
        ct_scan(scale)?,
        ct_top(scale)?,
        e31_ecoreplex(scale)?,
        openc910(scale)?,
    ])
}

/// Looks a preset up by its (case-insensitive) Table I name; `Ok(None)`
/// means the name is unknown.
///
/// # Errors
///
/// [`GenError::Scale`] when `scale` is zero, negative, or non-finite.
pub fn by_name(name: &str, scale: f64) -> Result<Option<GeneratorConfig>, GenError> {
    Ok(all(scale)?
        .into_iter()
        .find(|c| c.name.eq_ignore_ascii_case(name)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_presets_in_table_order() {
        let v = all(1.0).unwrap();
        assert_eq!(v.len(), 10);
        assert_eq!(v[0].name, "OR1200");
        assert_eq!(v[9].name, "OPENC910");
        // Full-scale counts match Table I.
        assert_eq!(v[0].num_cells, 122_000);
        assert_eq!(v[3].num_nets, 1_296_000);
        assert_eq!(v[9].num_macros, 332);
    }

    #[test]
    fn degrees_match_pin_ratios() {
        // OR1200: 660K pins / 193K nets.
        let c = or1200(1.0).unwrap();
        assert!((c.avg_net_degree - 660.0 / 193.0).abs() < 1e-9);
    }

    #[test]
    fn congested_presets_are_marked() {
        let (subsys, wrap) = (media_subsys(1.0).unwrap(), a53_adb_wrap(1.0).unwrap());
        assert!(subsys.hotspot > wrap.hotspot * 0.9);
        assert!(subsys.hotspot > ct_top(1.0).unwrap().hotspot);
        assert!(subsys.utilization > bit_coin(1.0).unwrap().utilization);
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(by_name("media_subsys", 0.1).unwrap().is_some());
        assert!(by_name("MEDIA_SUBSYS", 0.1).unwrap().is_some());
        assert!(by_name("nope", 0.1).unwrap().is_none());
        assert!(by_name("media_subsys", 0.0).is_err());
    }

    #[test]
    fn scaling_keeps_ratios() {
        let full = bit_coin(1.0).unwrap();
        let tiny = bit_coin(0.01).unwrap();
        let r_full = full.num_nets as f64 / full.num_cells as f64;
        let r_tiny = tiny.num_nets as f64 / tiny.num_cells as f64;
        assert!((r_full - r_tiny).abs() < 0.05);
        assert_eq!(tiny.avg_net_degree, full.avg_net_degree);
    }

    /// Every preset's region at scale 1.0 is a legal `Design` region. The
    /// region grows with the cell count, so a 0.1 % sample's region is
    /// scaled to twice the full-scale area (the macro share grows with the
    /// scale too); CT_TOP keeps the 32x headroom the bound was sized for.
    #[test]
    fn full_scale_regions_fit_the_design_area_bound() {
        use puffer_db::design::Design;
        use puffer_db::geom::Rect;
        use puffer_db::netlist::NetlistBuilder;
        const SAMPLE: f64 = 0.001;
        for config in all(SAMPLE).unwrap() {
            let design = crate::generate(&config).unwrap();
            let r = design.region();
            let margin = if config.name == "CT_TOP" { 32.0 } else { 2.0 };
            let grow = (margin / SAMPLE).sqrt();
            let full = Rect::new(0.0, 0.0, r.width() * grow, r.height() * grow);
            let empty = NetlistBuilder::new().build().unwrap();
            Design::new(&config.name, empty, design.tech().clone(), full)
                .unwrap_or_else(|e| panic!("{}: {e}", config.name));
        }
    }

    #[test]
    fn seeds_are_distinct() {
        let seeds: Vec<u64> = all(1.0).unwrap().iter().map(|c| c.seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }
}
