//! Size-aware strategy ladder.
//!
//! Million-cell designs cannot afford the same per-round effort as the
//! small academic benchmarks: a full-resolution congestion map and a wide
//! detailed-placement window dominate runtime long before quality stops
//! improving. The flow therefore classifies every design into a
//! [`ScaleClass`] by cell count and derives its strategy knobs from the
//! class — full resolution for small designs, a coarsened Gcell grid plus
//! a narrowed detailed-placement window for huge ones. The class is
//! worked out once at flow start and recorded in the `flow.init` trace
//! record. Being a function of the cell count alone, it needs no place in
//! the checkpoint journal: a journal resumes only on a design of its own
//! cell count, so never under another strategy.

use std::fmt;

/// The design-size band a run operates in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleClass {
    /// Below [`ScaleClass::MEDIUM_MIN_CELLS`] cells: full-resolution
    /// congestion estimation, default detailed-placement window.
    Small,
    /// The mid band: the congestion grid is coarsened 2x so the per-round
    /// RSMT/Gcell cost grows sublinearly with the design.
    Medium,
    /// At or above [`ScaleClass::HUGE_MIN_CELLS`] cells: 4x-coarsened
    /// congestion grid and a windowed (single-pass, narrow) detailed
    /// placement, the regime Table I's million-cell rows run in.
    Huge,
}

impl ScaleClass {
    /// First cell count that classifies as [`ScaleClass::Medium`].
    pub const MEDIUM_MIN_CELLS: usize = 100_000;
    /// First cell count that classifies as [`ScaleClass::Huge`].
    pub const HUGE_MIN_CELLS: usize = 800_000;

    /// All classes, smallest band first.
    pub const ALL: [ScaleClass; 3] = [ScaleClass::Small, ScaleClass::Medium, ScaleClass::Huge];

    /// Classifies a design by total cell count.
    ///
    /// ```
    /// use puffer::ScaleClass;
    /// assert_eq!(ScaleClass::classify(400), ScaleClass::Small);
    /// assert_eq!(ScaleClass::classify(100_000), ScaleClass::Medium);
    /// assert_eq!(ScaleClass::classify(1_200_000), ScaleClass::Huge);
    /// ```
    pub fn classify(num_cells: usize) -> ScaleClass {
        if num_cells >= ScaleClass::HUGE_MIN_CELLS {
            ScaleClass::Huge
        } else if num_cells >= ScaleClass::MEDIUM_MIN_CELLS {
            ScaleClass::Medium
        } else {
            ScaleClass::Small
        }
    }

    /// Factor by which the congestion estimator's Gcell grid is coarsened
    /// at flow init, or `None` to keep full resolution. Applied before the
    /// first congestion round so the whole run (and the audit's
    /// histogram-conservation check) sees one consistent baseline grid.
    pub fn congestion_coarsen_factor(self) -> Option<f64> {
        match self {
            ScaleClass::Small => None,
            ScaleClass::Medium => Some(2.0),
            ScaleClass::Huge => Some(4.0),
        }
    }

    /// Detailed-placement window (rows above/below considered per move)
    /// for this band. Huge designs search a single neighbouring row.
    pub fn dp_window(self) -> usize {
        match self {
            ScaleClass::Small | ScaleClass::Medium => 3,
            ScaleClass::Huge => 1,
        }
    }

    /// Detailed-placement pass count for this band.
    pub fn dp_passes(self) -> usize {
        match self {
            ScaleClass::Small => 3,
            ScaleClass::Medium => 2,
            ScaleClass::Huge => 1,
        }
    }

    /// Stable token used by trace records.
    pub fn as_str(self) -> &'static str {
        match self {
            ScaleClass::Small => "small",
            ScaleClass::Medium => "medium",
            ScaleClass::Huge => "huge",
        }
    }
}

impl fmt::Display for ScaleClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_partition_the_cell_count_axis() {
        assert_eq!(ScaleClass::classify(0), ScaleClass::Small);
        assert_eq!(
            ScaleClass::classify(ScaleClass::MEDIUM_MIN_CELLS - 1),
            ScaleClass::Small
        );
        assert_eq!(
            ScaleClass::classify(ScaleClass::MEDIUM_MIN_CELLS),
            ScaleClass::Medium
        );
        assert_eq!(
            ScaleClass::classify(ScaleClass::HUGE_MIN_CELLS - 1),
            ScaleClass::Medium
        );
        assert_eq!(
            ScaleClass::classify(ScaleClass::HUGE_MIN_CELLS),
            ScaleClass::Huge
        );
        assert_eq!(ScaleClass::classify(usize::MAX), ScaleClass::Huge);
    }

    #[test]
    fn tokens_round_trip() {
        // A record's token names exactly one class.
        for class in ScaleClass::ALL {
            let named: Vec<ScaleClass> = ScaleClass::ALL
                .into_iter()
                .filter(|c| c.as_str() == class.as_str())
                .collect();
            assert_eq!(named, [class]);
            assert_eq!(class.to_string(), class.as_str());
        }
    }

    #[test]
    fn strategy_knobs_tighten_monotonically() {
        assert_eq!(ScaleClass::Small.congestion_coarsen_factor(), None);
        assert_eq!(ScaleClass::Medium.congestion_coarsen_factor(), Some(2.0));
        assert_eq!(ScaleClass::Huge.congestion_coarsen_factor(), Some(4.0));
        assert!(ScaleClass::Huge.dp_window() <= ScaleClass::Small.dp_window());
        assert!(ScaleClass::Huge.dp_passes() <= ScaleClass::Small.dp_passes());
    }
}
