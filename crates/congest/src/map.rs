//! The congestion map and the paper's overflow/congestion quantities.

use puffer_db::cast;
use puffer_db::grid::Grid;

/// Per-Gcell capacity and demand in both routing directions, with the
/// derived quantities of paper Eq. (7) and Eq. (10)–(11).
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionMap {
    h_cap: Grid<f64>,
    v_cap: Grid<f64>,
    h_dmd: Grid<f64>,
    v_dmd: Grid<f64>,
}

impl CongestionMap {
    /// Assembles a map from its four grids.
    ///
    /// # Panics
    ///
    /// Panics if the grids disagree in shape.
    pub fn new(h_cap: Grid<f64>, v_cap: Grid<f64>, h_dmd: Grid<f64>, v_dmd: Grid<f64>) -> Self {
        assert_eq!(h_cap.nx(), v_cap.nx());
        assert_eq!(h_cap.nx(), h_dmd.nx());
        assert_eq!(h_cap.nx(), v_dmd.nx());
        assert_eq!(h_cap.ny(), v_cap.ny());
        assert_eq!(h_cap.ny(), h_dmd.ny());
        assert_eq!(h_cap.ny(), v_dmd.ny());
        CongestionMap {
            h_cap,
            v_cap,
            h_dmd,
            v_dmd,
        }
    }

    /// Horizontal capacity grid.
    pub fn h_capacity(&self) -> &Grid<f64> {
        &self.h_cap
    }

    /// Vertical capacity grid.
    pub fn v_capacity(&self) -> &Grid<f64> {
        &self.v_cap
    }

    /// Horizontal demand grid.
    pub fn h_demand(&self) -> &Grid<f64> {
        &self.h_dmd
    }

    /// Vertical demand grid.
    pub fn v_demand(&self) -> &Grid<f64> {
        &self.v_dmd
    }

    /// Mutable demand grids `(horizontal, vertical)` — used by the detour
    /// expansion pass.
    pub(crate) fn demand_mut(&mut self) -> (&mut Grid<f64>, &mut Grid<f64>) {
        (&mut self.h_dmd, &mut self.v_dmd)
    }

    /// Grid width in Gcells.
    pub fn nx(&self) -> usize {
        self.h_cap.nx()
    }

    /// Grid height in Gcells.
    pub fn ny(&self) -> usize {
        self.h_cap.ny()
    }

    /// Horizontal overflow of a Gcell: `max(0, Dmd − Cap)` in tracks
    /// (the track-count form of Eq. (7)).
    pub fn overflow_h(&self, ix: usize, iy: usize) -> f64 {
        (self.h_dmd.at(ix, iy) - self.h_cap.at(ix, iy)).max(0.0)
    }

    /// Vertical overflow of a Gcell in tracks.
    pub fn overflow_v(&self, ix: usize, iy: usize) -> f64 {
        (self.v_dmd.at(ix, iy) - self.v_cap.at(ix, iy)).max(0.0)
    }

    /// Signed horizontal congestion of Eq. (11):
    /// `(Dmd − Cap) / max(Cap, 1)`. Negative values mean slack; the paper
    /// deliberately keeps them (§III-B.1).
    pub fn cg_h(&self, ix: usize, iy: usize) -> f64 {
        let cap = *self.h_cap.at(ix, iy);
        (self.h_dmd.at(ix, iy) - cap) / cap.max(1.0)
    }

    /// Signed vertical congestion of Eq. (11).
    pub fn cg_v(&self, ix: usize, iy: usize) -> f64 {
        let cap = *self.v_cap.at(ix, iy);
        (self.v_dmd.at(ix, iy) - cap) / cap.max(1.0)
    }

    /// Combined congestion of Eq. (10): when the horizontal and vertical
    /// congestion have opposite signs, take the max; otherwise their sum.
    pub fn cg(&self, ix: usize, iy: usize) -> f64 {
        let h = self.cg_h(ix, iy);
        let v = self.cg_v(ix, iy);
        if h * v < 0.0 {
            h.max(v)
        } else {
            h + v
        }
    }

    /// Total horizontal overflow ratio: `Σ overflow / Σ capacity` — the
    /// estimator-side analogue of the router-reported HOF.
    ///
    /// The sum runs over the zipped demand/capacity slices in row-major
    /// order — the same accumulation order as the old per-cell index walk
    /// (so the ratio is bit-identical), but in a dependence-free loop LLVM
    /// can vectorize.
    pub fn overflow_ratio_h(&self) -> f64 {
        Self::overflow_ratio(&self.h_dmd, &self.h_cap)
    }

    /// Total vertical overflow ratio.
    pub fn overflow_ratio_v(&self) -> f64 {
        Self::overflow_ratio(&self.v_dmd, &self.v_cap)
    }

    fn overflow_ratio(dmd: &Grid<f64>, cap: &Grid<f64>) -> f64 {
        let total_cap = cap.sum();
        if total_cap <= 0.0 {
            return 0.0;
        }
        let of: f64 = dmd
            .as_slice()
            .iter()
            .zip(cap.as_slice())
            .map(|(d, c)| (d - c).max(0.0))
            .sum();
        of / total_cap
    }

    /// Sum of demand in both directions (sanity metric).
    pub fn total_demand(&self) -> f64 {
        self.h_dmd.sum() + self.v_dmd.sum()
    }

    /// Number of Gcells with positive overflow in either direction.
    pub fn congested_cells(&self) -> usize {
        (0..self.ny())
            .flat_map(|iy| (0..self.nx()).map(move |ix| (ix, iy)))
            .filter(|&(ix, iy)| self.overflow_h(ix, iy) > 0.0 || self.overflow_v(ix, iy) > 0.0)
            .count()
    }

    /// Renders a direction's utilisation (`demand / capacity`) as an ASCII
    /// heatmap, top row first: ` .:-=+*#%@` from empty to ≥ 2× capacity.
    pub fn render_ascii(&self, horizontal: bool) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let (dmd, cap) = if horizontal {
            (&self.h_dmd, &self.h_cap)
        } else {
            (&self.v_dmd, &self.v_cap)
        };
        let mut out = String::with_capacity((self.nx() + 1) * self.ny());
        for iy in (0..self.ny()).rev() {
            for ix in 0..self.nx() {
                let u = dmd.at(ix, iy) / cap.at(ix, iy).max(1e-9);
                let level = ((u / 2.0) * cast::idx_f64(RAMP.len() - 1))
                    .round()
                    .clamp(0.0, cast::idx_f64(RAMP.len() - 1));
                let level = cast::trunc_idx(level);
                out.push(char::from(RAMP[level]));
            }
            out.push('\n');
        }
        out
    }

    /// Renders a direction's utilisation as a binary PGM (P5) grayscale
    /// image, one pixel per Gcell, top row first: black = empty, white =
    /// ≥ 2× capacity. Suitable for direct viewing or conversion to PNG —
    /// the image analogue of the paper's Fig. 5 panels.
    pub fn to_pgm(&self, horizontal: bool) -> Vec<u8> {
        let (dmd, cap) = if horizontal {
            (&self.h_dmd, &self.h_cap)
        } else {
            (&self.v_dmd, &self.v_cap)
        };
        let mut out = format!("P5\n{} {}\n255\n", self.nx(), self.ny()).into_bytes();
        for iy in (0..self.ny()).rev() {
            for ix in 0..self.nx() {
                let u = dmd.at(ix, iy) / cap.at(ix, iy).max(1e-9);
                out.push(cast::round_u8((u / 2.0).clamp(0.0, 1.0) * 255.0));
            }
        }
        out
    }

    /// Serialises a direction's utilisation as CSV (one row per Gcell row,
    /// bottom row first), for the Fig. 5 artifacts.
    pub fn to_csv(&self, horizontal: bool) -> String {
        let (dmd, cap) = if horizontal {
            (&self.h_dmd, &self.h_cap)
        } else {
            (&self.v_dmd, &self.v_cap)
        };
        let mut out = String::new();
        for iy in 0..self.ny() {
            let row: Vec<String> = (0..self.nx())
                .map(|ix| format!("{:.4}", dmd.at(ix, iy) / cap.at(ix, iy).max(1e-9)))
                .collect();
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_db::geom::Rect;

    fn map_with(hd: f64, hc: f64, vd: f64, vc: f64) -> CongestionMap {
        let r = Rect::new(0.0, 0.0, 4.0, 4.0);
        CongestionMap::new(
            Grid::filled(r, 2, 2, hc),
            Grid::filled(r, 2, 2, vc),
            Grid::filled(r, 2, 2, hd),
            Grid::filled(r, 2, 2, vd),
        )
    }

    #[test]
    fn overflow_clamps_at_zero() {
        let m = map_with(5.0, 10.0, 12.0, 10.0);
        assert_eq!(m.overflow_h(0, 0), 0.0);
        assert_eq!(m.overflow_v(0, 0), 2.0);
    }

    #[test]
    fn cg_keeps_negative_values() {
        let m = map_with(5.0, 10.0, 12.0, 10.0);
        assert!((m.cg_h(0, 0) - (-0.5)).abs() < 1e-12);
        assert!((m.cg_v(0, 0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn cg_combination_follows_eq10() {
        // Opposite signs: take the max.
        let m = map_with(5.0, 10.0, 12.0, 10.0);
        assert!((m.cg(0, 0) - 0.2).abs() < 1e-12);
        // Same sign: sum.
        let m2 = map_with(12.0, 10.0, 15.0, 10.0);
        assert!((m2.cg(0, 0) - (0.2 + 0.5)).abs() < 1e-12);
        let m3 = map_with(5.0, 10.0, 8.0, 10.0);
        assert!((m3.cg(0, 0) - (-0.5 + -0.2)).abs() < 1e-12);
    }

    #[test]
    fn cg_uses_max_with_one_for_tiny_capacity() {
        let m = map_with(0.5, 0.1, 0.0, 0.1);
        // cap 0.1 < 1, so denominator is 1.
        assert!((m.cg_h(0, 0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn overflow_ratios() {
        let m = map_with(12.0, 10.0, 5.0, 10.0);
        assert!((m.overflow_ratio_h() - 0.2).abs() < 1e-12);
        assert_eq!(m.overflow_ratio_v(), 0.0);
        assert_eq!(m.congested_cells(), 4);
    }

    /// Regression: the slice-based overflow ratio must accumulate in the
    /// same row-major order as the old per-index walk, so the result is
    /// bit-identical (`congest.round` records and the `congest_bits`
    /// fixture embed these ratios).
    #[test]
    fn overflow_ratio_matches_indexed_walk_bitwise() {
        let r = Rect::new(0.0, 0.0, 8.0, 6.0);
        let mut dmd = Grid::new(r, 4, 3);
        let mut cap = Grid::new(r, 4, 3);
        for iy in 0..3 {
            for ix in 0..4 {
                *dmd.at_mut(ix, iy) = (ix * 7 + iy * 13) as f64 * 0.37 + 0.001;
                *cap.at_mut(ix, iy) = (ix + iy) as f64 * 0.9 + 0.5;
            }
        }
        let m = CongestionMap::new(cap.clone(), cap.clone(), dmd.clone(), dmd.clone());
        let total_cap = cap.sum();
        let indexed: f64 = (0..3)
            .flat_map(|iy| (0..4).map(move |ix| (ix, iy)))
            .map(|(ix, iy)| m.overflow_h(ix, iy))
            .sum();
        assert_eq!(
            (indexed / total_cap).to_bits(),
            m.overflow_ratio_h().to_bits()
        );
    }

    #[test]
    fn ascii_rendering_has_grid_shape() {
        let m = map_with(12.0, 10.0, 5.0, 10.0);
        let art = m.render_ascii(true);
        assert_eq!(art.lines().count(), 2);
        assert!(art.lines().all(|l| l.len() == 2));
        // 120% utilisation should be visibly dark (past the midpoint ramp).
        assert!(art.contains('*') || art.contains('+') || art.contains('#'));
    }

    #[test]
    fn pgm_has_header_and_one_byte_per_gcell() {
        let m = map_with(20.0, 10.0, 0.0, 10.0);
        let pgm = m.to_pgm(true);
        let header = b"P5\n2 2\n255\n";
        assert_eq!(&pgm[..header.len()], header);
        assert_eq!(pgm.len(), header.len() + 4);
        // Utilisation 2.0 saturates to white.
        assert!(pgm[header.len()..].iter().all(|&b| b == 255));
        let empty = m.to_pgm(false);
        assert!(empty[header.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn csv_has_one_value_per_gcell() {
        let m = map_with(1.0, 2.0, 1.0, 2.0);
        let csv = m.to_csv(false);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.lines().all(|l| l.split(',').count() == 2));
        assert!(csv.contains("0.5000"));
    }

    #[test]
    #[should_panic]
    fn mismatched_shapes_panic() {
        let r = Rect::new(0.0, 0.0, 4.0, 4.0);
        let _ = CongestionMap::new(
            Grid::filled(r, 2, 2, 1.0),
            Grid::filled(r, 3, 2, 1.0),
            Grid::filled(r, 2, 2, 1.0),
            Grid::filled(r, 2, 2, 1.0),
        );
    }
}
