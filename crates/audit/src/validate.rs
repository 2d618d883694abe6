//! Deep invariant checkers: [`Validate`] implementations for the data
//! structures the flow hands between stages, plus file-level audits for
//! checkpoint journals and metrics JSONL, and the cross-file consistency
//! check between the two.
//!
//! Every checker reports *all* violations it finds, each with enough
//! context (cell/net/record index, offending value) to locate the defect
//! without a debugger.

use crate::{Validate, Violation};
use puffer::checkpoint::{FlowCheckpoint, FlowStage};
use puffer::flow::{StageObserver, StagePoint};
use puffer_congest::CongestionMap;
use puffer_db::design::{Design, Placement};
use puffer_db::netlist::CellKind;
use puffer_pad::{PaddingState, PaddingStrategy};
use puffer_trace::{ParsedRecord, Value};
use std::path::Path;

/// Absolute slack for geometric containment checks, scaled by the extent
/// of the quantity under test so large coordinates don't trip on rounding.
fn geom_eps(extent: f64) -> f64 {
    1e-9 * (1.0 + extent.abs())
}

// ---------------------------------------------------------------------------
// Design / netlist
// ---------------------------------------------------------------------------

impl Validate for Design {
    fn subject(&self) -> String {
        format!("design '{}'", self.name())
    }

    fn check_into(&self, out: &mut Vec<Violation>) {
        let region = self.region();
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if !positive(region.width()) || !positive(region.height()) {
            out.push(Violation {
                check: "region",
                message: format!("degenerate core region {region}"),
            });
        }
        let tech = self.tech();
        if !positive(tech.row_height) || !positive(tech.site_width) {
            out.push(Violation {
                check: "technology",
                message: format!(
                    "non-positive row height {} or site width {}",
                    tech.row_height, tech.site_width
                ),
            });
        }

        let nl = self.netlist();
        for (id, cell) in nl.iter_cells() {
            if !cell.width.is_finite()
                || !cell.height.is_finite()
                || cell.width <= 0.0
                || cell.height <= 0.0
            {
                out.push(Violation {
                    check: "zero-area-cell",
                    message: format!(
                        "cell {} '{}' has degenerate shape {} x {}",
                        id.index(),
                        cell.name,
                        cell.width,
                        cell.height
                    ),
                });
            }
            for &pid in nl.cell_pins(id) {
                if nl.pin(pid).cell != id {
                    out.push(Violation {
                        check: "pin-backref",
                        message: format!(
                            "cell {} lists pin {} which claims cell {}",
                            id.index(),
                            pid.index(),
                            nl.pin(pid).cell.index()
                        ),
                    });
                }
            }
            if cell.kind == CellKind::FixedMacro && self.fixed_position(id).is_none() {
                out.push(Violation {
                    check: "unplaced-macro",
                    message: format!("macro {} '{}' has no fixed position", id.index(), cell.name),
                });
            }
        }

        for (id, net) in nl.iter_nets() {
            if !net.weight.is_finite() || net.weight < 0.0 {
                out.push(Violation {
                    check: "net-weight",
                    message: format!(
                        "net {} '{}' has invalid weight {}",
                        id.index(),
                        net.name,
                        net.weight
                    ),
                });
            }
            if net.weight > 0.0 && nl.net_degree(id) < 2 {
                out.push(Violation {
                    check: "degenerate-net",
                    message: format!(
                        "net {} '{}' has weight {} but only {} pin(s); it can never \
                         contribute wirelength",
                        id.index(),
                        net.name,
                        net.weight,
                        nl.net_degree(id)
                    ),
                });
            }
            for &pid in nl.net_pins(id) {
                if nl.pin(pid).net != id {
                    out.push(Violation {
                        check: "pin-backref",
                        message: format!(
                            "net {} lists pin {} which claims net {}",
                            id.index(),
                            pid.index(),
                            nl.pin(pid).net.index()
                        ),
                    });
                }
            }
        }

        // A dangling pin is one reachable from neither its cell nor its
        // net — it exists in the pin table but nothing references it, so
        // wirelength and density silently ignore it.
        let mut referenced = vec![false; nl.num_pins()];
        for (id, _) in nl.iter_cells() {
            for &pid in nl.cell_pins(id) {
                referenced[pid.index()] = true;
            }
        }
        for (id, _) in nl.iter_nets() {
            for &pid in nl.net_pins(id) {
                referenced[pid.index()] = true;
            }
        }
        for (i, (seen, pin)) in referenced.iter().zip(nl.pins()).enumerate() {
            if !seen {
                out.push(Violation {
                    check: "dangling-pin",
                    message: format!(
                        "pin {i} (cell {}, net {}) is referenced by neither its cell nor \
                         its net",
                        pin.cell.index(),
                        pin.net.index()
                    ),
                });
            }
            let cell = nl.cell(pin.cell);
            let (hw, hh) = (cell.width / 2.0, cell.height / 2.0);
            if !pin.offset.x.is_finite()
                || !pin.offset.y.is_finite()
                || pin.offset.x.abs() > hw + geom_eps(cell.width)
                || pin.offset.y.abs() > hh + geom_eps(cell.height)
            {
                out.push(Violation {
                    check: "pin-outside-cell",
                    message: format!(
                        "pin {i} offset ({}, {}) lies outside cell {} '{}' \
                         ({} x {}, half-extent {hw} x {hh})",
                        pin.offset.x,
                        pin.offset.y,
                        pin.cell.index(),
                        cell.name,
                        cell.width,
                        cell.height
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

/// Which containment guarantee a placement carries at this point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStage {
    /// Mid-flow: the Nesterov projector keeps movable cell *centers*
    /// inside the core region, but cell edges may still poke out.
    Global,
    /// Post-legalization: every movable cell rectangle lies fully inside
    /// the core region.
    Legal,
}

/// Audits a placement against its design: finite coordinates, the right
/// cell count, and the containment guarantee of `stage`.
pub struct PlacementAudit<'a> {
    /// The design the placement belongs to.
    pub design: &'a Design,
    /// The placement under audit.
    pub placement: &'a Placement,
    /// Which containment guarantee to enforce.
    pub stage: PlacementStage,
}

impl Validate for PlacementAudit<'_> {
    fn subject(&self) -> String {
        format!(
            "{:?} placement of design '{}'",
            self.stage,
            self.design.name()
        )
    }

    fn check_into(&self, out: &mut Vec<Violation>) {
        let nl = self.design.netlist();
        if self.placement.len() != nl.num_cells() {
            out.push(Violation {
                check: "cell-count",
                message: format!(
                    "placement holds {} cells but the design has {}",
                    self.placement.len(),
                    nl.num_cells()
                ),
            });
            return; // every per-cell check below would index out of bounds
        }
        let region = self.design.region();
        let (ex, ey) = (geom_eps(region.width()), geom_eps(region.height()));
        for id in nl.movable_cells() {
            let p = self.placement.pos(id);
            if !p.x.is_finite() || !p.y.is_finite() {
                out.push(Violation {
                    check: "finite-coords",
                    message: format!(
                        "cell {} '{}' is at non-finite ({}, {})",
                        id.index(),
                        nl.cell(id).name,
                        p.x,
                        p.y
                    ),
                });
                continue;
            }
            let cell = nl.cell(id);
            let (margin_x, margin_y) = match self.stage {
                PlacementStage::Global => (0.0, 0.0),
                PlacementStage::Legal => (cell.width / 2.0, cell.height / 2.0),
            };
            if p.x < region.xl + margin_x - ex
                || p.x > region.xh - margin_x + ex
                || p.y < region.yl + margin_y - ey
                || p.y > region.yh - margin_y + ey
            {
                out.push(Violation {
                    check: "outside-core",
                    message: format!(
                        "cell {} '{}' at ({}, {}) violates the {:?}-stage containment \
                         of region {region}",
                        id.index(),
                        cell.name,
                        p.x,
                        p.y,
                        self.stage
                    ),
                });
            }
        }
        for id in nl.fixed_macros() {
            if let Some(fixed) = self.design.fixed_position(id) {
                let p = self.placement.pos(id);
                if p != fixed {
                    out.push(Violation {
                        check: "macro-moved",
                        message: format!(
                            "macro {} is at ({}, {}) but is fixed at ({}, {})",
                            id.index(),
                            p.x,
                            p.y,
                            fixed.x,
                            fixed.y
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Congestion map
// ---------------------------------------------------------------------------

impl Validate for CongestionMap {
    fn subject(&self) -> String {
        format!("congestion map ({} x {} Gcells)", self.nx(), self.ny())
    }

    fn check_into(&self, out: &mut Vec<Violation>) {
        let grids: [(&str, &puffer_db::grid::Grid<f64>); 4] = [
            ("h_capacity", self.h_capacity()),
            ("v_capacity", self.v_capacity()),
            ("h_demand", self.h_demand()),
            ("v_demand", self.v_demand()),
        ];
        for (name, grid) in grids {
            for ((ix, iy), &v) in grid.iter() {
                if !v.is_finite() || v < 0.0 {
                    out.push(Violation {
                        check: "nonneg-grid",
                        message: format!("{name}[{ix}, {iy}] = {v} (must be finite and >= 0)"),
                    });
                }
            }
        }
        // Histogram conservation: bucketing every Gcell's congestion must
        // account for exactly nx * ny cells in each direction — the same
        // invariant `audit_metrics` enforces on the emitted h_hist/v_hist.
        let gcells = self.nx() * self.ny();
        for (name, horizontal) in [("h", true), ("v", false)] {
            let mut hist = [0usize; 8];
            for iy in 0..self.ny() {
                for ix in 0..self.nx() {
                    let cg = if horizontal {
                        self.cg_h(ix, iy)
                    } else {
                        self.cg_v(ix, iy)
                    };
                    if cg.is_nan() {
                        out.push(Violation {
                            check: "histogram-conservation",
                            message: format!("{name}-congestion at [{ix}, {iy}] is NaN"),
                        });
                        continue;
                    }
                    hist[((cg / 0.25) as usize).min(7)] += 1;
                }
            }
            let total: usize = hist.iter().sum();
            if total != gcells {
                out.push(Violation {
                    check: "histogram-conservation",
                    message: format!(
                        "{name}-congestion histogram sums to {total} but the map has \
                         {gcells} Gcells"
                    ),
                });
            }
        }
        if self.congested_cells() > gcells {
            out.push(Violation {
                check: "congested-count",
                message: format!(
                    "{} congested Gcells reported out of {gcells}",
                    self.congested_cells()
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Padding state
// ---------------------------------------------------------------------------

/// Audits a padding history against its design and strategy: the padded
/// width of every cell must be at least its physical width (pad >= 0),
/// respect the per-cell cap, leave macros untouched, and the claimed
/// utilization must stay within the strategy's `pu_high` cap.
pub struct PadAudit<'a> {
    /// The design the padding belongs to.
    pub design: &'a Design,
    /// The padding history under audit.
    pub state: &'a PaddingState,
    /// The strategy whose caps apply.
    pub strategy: &'a PaddingStrategy,
}

impl Validate for PadAudit<'_> {
    fn subject(&self) -> String {
        format!(
            "padding state (round {}) of design '{}'",
            self.state.round,
            self.design.name()
        )
    }

    fn check_into(&self, out: &mut Vec<Violation>) {
        let nl = self.design.netlist();
        if self.state.pad.len() != nl.num_cells() || self.state.pad_count.len() != nl.num_cells() {
            out.push(Violation {
                check: "cell-count",
                message: format!(
                    "padding vectors hold {} / {} entries but the design has {} cells",
                    self.state.pad.len(),
                    self.state.pad_count.len(),
                    nl.num_cells()
                ),
            });
            return;
        }
        for (id, cell) in nl.iter_cells() {
            let pad = self.state.pad[id.index()];
            if !pad.is_finite() || pad < 0.0 {
                out.push(Violation {
                    check: "pad-width",
                    message: format!(
                        "cell {} '{}' has padding {pad}; padded width must stay >= the \
                         physical width",
                        id.index(),
                        cell.name
                    ),
                });
                continue;
            }
            if cell.kind == CellKind::FixedMacro && pad > 0.0 {
                out.push(Violation {
                    check: "macro-pad",
                    message: format!("macro {} '{}' carries padding {pad}", id.index(), cell.name),
                });
            }
            let cap = self.strategy.max_pad_widths * cell.width;
            if pad > cap + geom_eps(cap) {
                out.push(Violation {
                    check: "pad-cap",
                    message: format!(
                        "cell {} '{}' padding {pad} exceeds the per-cell cap {cap} \
                         ({} cell widths)",
                        id.index(),
                        cell.name,
                        self.strategy.max_pad_widths
                    ),
                });
            }
            if self.state.pad_count[id.index()] as usize > self.state.round {
                out.push(Violation {
                    check: "pad-count",
                    message: format!(
                        "cell {} was padded in {} rounds but only {} ran",
                        id.index(),
                        self.state.pad_count[id.index()],
                        self.state.round
                    ),
                });
            }
        }
        // Utilization cap of Eq. (16): the padding may claim at most
        // pu_high of the macro-free core area.
        let padded_area: f64 = nl
            .iter_cells()
            .map(|(id, cell)| self.state.pad[id.index()].max(0.0) * cell.height)
            .sum();
        let available = self.design.free_area();
        if available > 0.0 {
            let utilization = padded_area / available;
            if utilization > self.strategy.pu_high + 1e-6 {
                out.push(Violation {
                    check: "utilization-cap",
                    message: format!(
                        "padding claims {utilization:.4} of the available area; the \
                         strategy caps it at pu_high = {}",
                        self.strategy.pu_high
                    ),
                });
            }
        }
        if self.state.last_utilization.is_nan() || self.state.last_utilization < 0.0 {
            out.push(Violation {
                check: "utilization-cap",
                message: format!(
                    "last_utilization is {} (must be >= 0; +inf marks a fresh state)",
                    self.state.last_utilization
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint journal
// ---------------------------------------------------------------------------

impl Validate for FlowCheckpoint {
    fn subject(&self) -> String {
        format!(
            "checkpoint of design '{}' at iteration {}",
            self.design_name, self.placer.iter
        )
    }

    fn check_into(&self, out: &mut Vec<Violation>) {
        if self.design_name.is_empty() {
            out.push(Violation {
                check: "journal-design",
                message: "checkpoint carries an empty design name".to_string(),
            });
        }
        if self.placer.placement.len() != self.num_cells {
            out.push(Violation {
                check: "cell-count",
                message: format!(
                    "checkpoint placement holds {} cells but claims {}",
                    self.placer.placement.len(),
                    self.num_cells
                ),
            });
        }
        for (i, (&x, &y)) in self
            .placer
            .placement
            .xs()
            .iter()
            .zip(self.placer.placement.ys())
            .enumerate()
        {
            if !x.is_finite() || !y.is_finite() {
                out.push(Violation {
                    check: "finite-coords",
                    message: format!("checkpoint cell {i} is at non-finite ({x}, {y})"),
                });
            }
        }
        if !self.placer.lambda.is_finite() || self.placer.lambda <= 0.0 {
            out.push(Violation {
                check: "placer-scalars",
                message: format!("lambda = {} (must be finite and > 0)", self.placer.lambda),
            });
        }
        if !self.placer.step_scale.is_finite()
            || self.placer.step_scale <= 0.0
            || self.placer.step_scale > 1.0
        {
            out.push(Violation {
                check: "placer-scalars",
                message: format!(
                    "step_scale = {} (must be in (0, 1])",
                    self.placer.step_scale
                ),
            });
        }
        if self.pad.pad.len() != self.num_cells || self.pad.pad_count.len() != self.num_cells {
            out.push(Violation {
                check: "cell-count",
                message: format!(
                    "checkpoint padding vectors hold {} / {} entries but the design has \
                     {} cells",
                    self.pad.pad.len(),
                    self.pad.pad_count.len(),
                    self.num_cells
                ),
            });
        }
        for (i, &p) in self.pad.pad.iter().enumerate() {
            if !p.is_finite() || p < 0.0 {
                out.push(Violation {
                    check: "pad-width",
                    message: format!("checkpoint padding[{i}] = {p}"),
                });
            }
        }
        if let Some(opt) = &self.placer.opt {
            let n = opt.u.len();
            if opt.v.len() != n || opt.v_prev.len() != n || opt.g_prev.len() != n {
                out.push(Violation {
                    check: "optimizer-state",
                    message: format!(
                        "optimizer vectors have inconsistent lengths {} / {} / {} / {}",
                        n,
                        opt.v.len(),
                        opt.v_prev.len(),
                        opt.g_prev.len()
                    ),
                });
            }
            if !opt.a.is_finite() || !opt.alpha.is_finite() || opt.alpha <= 0.0 {
                out.push(Violation {
                    check: "optimizer-state",
                    message: format!(
                        "optimizer scalars a = {}, alpha = {} (alpha must be finite > 0)",
                        opt.a, opt.alpha
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics JSONL
// ---------------------------------------------------------------------------

/// What [`audit_metrics`] extracted from a telemetry file, for cross-file
/// checks and CLI reporting.
#[derive(Debug, Clone, Default)]
pub struct MetricsSummary {
    /// Total records in the file.
    pub records: usize,
    /// Highest `place.iter` iteration seen.
    pub last_iter: Option<usize>,
    /// Number of `pad.round` records.
    pub pad_rounds: usize,
    /// Gcell count the congestion histograms agreed on (updated when a
    /// recorded `coarse-congestion` degradation shrinks the grid mid-run).
    pub gcells: Option<usize>,
    /// `gp_iterations` claimed by the `flow.done` record.
    pub done_iterations: Option<usize>,
    /// `pad_rounds` claimed by the `flow.done` record.
    pub done_pad_rounds: Option<usize>,
}

fn hist_sum(record: &ParsedRecord, field: &str, index: usize, out: &mut Vec<Violation>) -> Option<f64> {
    let Some(Value::Arr(items)) = record.get(field) else {
        out.push(Violation {
            check: "histogram-conservation",
            message: format!("congest.round record {index} is missing the {field} array"),
        });
        return None;
    };
    let mut sum = 0.0;
    for (i, item) in items.iter().enumerate() {
        match item {
            Some(v) if v.is_finite() && *v >= 0.0 && v.fract() == 0.0 => sum += v,
            other => {
                out.push(Violation {
                    check: "histogram-conservation",
                    message: format!(
                        "congest.round record {index} {field}[{i}] = {other:?} (buckets \
                         must be non-negative integers)"
                    ),
                });
                return None;
            }
        }
    }
    Some(sum)
}

/// Audits a metrics JSONL file: every record parses and carries a kind and
/// a timestamp no earlier than the record before it, per-iteration
/// quantities are finite, the congestion
/// histograms of every round bucket exactly the same number of Gcells in
/// both directions, the `flow.done` totals agree with the per-record
/// streams, and the exact counters of the density and WA kernels and of
/// the router's maze search are possible.
///
/// # Errors
///
/// [`crate::AuditReport`] listing each violated invariant.
pub fn audit_metrics(path: &Path) -> Result<MetricsSummary, crate::AuditReport> {
    let mut out = Vec::new();
    let mut summary = MetricsSummary::default();
    let records = match puffer_trace::read_jsonl(path) {
        Ok(r) => r,
        Err(e) => {
            return Err(crate::AuditReport {
                subject: format!("metrics file {}", path.display()),
                violations: vec![Violation {
                    check: "jsonl-parse",
                    message: e.to_string(),
                }],
            })
        }
    };
    summary.records = records.len();
    let mut last_stamp = 0.0f64;
    let mut congest_index = 0usize;
    let mut pending_coarsen = false;
    let mut density_evals = None;
    let mut transforms2d = None;
    let mut wa_grad_evals = None;
    // Written only by placers that still evaluated a value-only WA form.
    let mut wa_value_evals = None;
    let mut wa_exp_calls = None;
    let mut wa_exp_terms = None;
    for (i, r) in records.iter().enumerate() {
        let Some(kind) = r.kind() else {
            out.push(Violation {
                check: "record-kind",
                message: format!("record {i} has no \"t\" kind field"),
            });
            continue;
        };
        match r.num("elapsed_s") {
            Some(t) if t.is_finite() && t >= 0.0 => {
                // The sink stamps each record under its write lock.
                if t < last_stamp {
                    out.push(Violation {
                        check: "record-timestamp",
                        message: format!(
                            "{kind} record {i}: elapsed_s = {t} is earlier than the \
                             record before it ({last_stamp})"
                        ),
                    });
                }
                last_stamp = t;
            }
            _ => out.push(Violation {
                check: "record-timestamp",
                message: format!("{kind} record {i} lacks a finite elapsed_s timestamp"),
            }),
        }
        match kind {
            "place.iter" => {
                let iter = r.num("iter").unwrap_or(-1.0);
                if iter < 1.0 || iter.fract() != 0.0 {
                    out.push(Violation {
                        check: "place-iter",
                        message: format!("place.iter record {i} has invalid iter {iter}"),
                    });
                } else {
                    let iter = iter as usize;
                    if let Some(prev) = summary.last_iter {
                        if iter <= prev {
                            out.push(Violation {
                                check: "place-iter",
                                message: format!(
                                    "place.iter record {i} repeats iteration {iter} \
                                     (previous record was {prev})"
                                ),
                            });
                        }
                    }
                    summary.last_iter = Some(summary.last_iter.unwrap_or(0).max(iter));
                }
                for field in ["hpwl", "overflow", "lambda"] {
                    if r.num(field).is_none_or(|v| !v.is_finite()) {
                        out.push(Violation {
                            check: "place-iter",
                            message: format!("place.iter record {i} has non-finite {field}"),
                        });
                    }
                }
            }
            "pad.round" => summary.pad_rounds += 1,
            "counter" => match r.str_field("name") {
                Some("place.density_evals") => density_evals = r.num("value"),
                Some("fft.transforms2d") => transforms2d = r.num("value"),
                Some("place.wa_grad_evals") => wa_grad_evals = r.num("value"),
                Some("place.wa_value_evals") => wa_value_evals = r.num("value"),
                Some("place.wa_exp_calls") => wa_exp_calls = r.num("value"),
                Some("place.wa_exp_terms") => wa_exp_terms = r.num("value"),
                _ => {}
            },
            "flow.degrade" if r.str_field("step") == Some("coarse-congestion") => {
                pending_coarsen = true;
            }
            "congest.round" => {
                let h = hist_sum(r, "h_hist", congest_index, &mut out);
                let v = hist_sum(r, "v_hist", congest_index, &mut out);
                if let (Some(h), Some(v)) = (h, v) {
                    if h != v {
                        out.push(Violation {
                            check: "histogram-conservation",
                            message: format!(
                                "congest.round record {congest_index}: h_hist sums to {h} \
                                 but v_hist sums to {v} (both bucket the same grid)"
                            ),
                        });
                    }
                    let gcells = h as usize;
                    match summary.gcells {
                        None => summary.gcells = Some(gcells),
                        // A recorded coarse-congestion degradation shrinks
                        // the estimation grid; later rounds bucket fewer
                        // Gcells, never more.
                        Some(expected) if pending_coarsen && gcells < expected => {
                            summary.gcells = Some(gcells);
                            pending_coarsen = false;
                        }
                        Some(expected) if expected != gcells => {
                            out.push(Violation {
                                check: "histogram-conservation",
                                message: format!(
                                    "congest.round record {congest_index} buckets {gcells} \
                                     Gcells but earlier rounds bucketed {expected}"
                                ),
                            });
                        }
                        Some(_) => {}
                    }
                    if r.num("congested").is_some_and(|c| c > h) {
                        out.push(Violation {
                            check: "congested-count",
                            message: format!(
                                "congest.round record {congest_index} reports more \
                                 congested Gcells than the grid holds"
                            ),
                        });
                    }
                }
                congest_index += 1;
            }
            "route.done" => {
                // The router's search counters: a segment is rerouted at
                // most once per round, and a search pops only what it (or
                // its source push) put on the heap. Files written before
                // the counters existed carry none and pass.
                if let (Some(reroutes), Some(segments), Some(rounds)) =
                    (r.num("reroutes"), r.num("segments"), r.num("rounds"))
                {
                    if reroutes > segments * rounds {
                        out.push(Violation {
                            check: "route-counters",
                            message: format!(
                                "route.done record {i}: reroutes = {reroutes} exceeds \
                                 segments = {segments} x rounds = {rounds}"
                            ),
                        });
                    }
                }
                if let (Some(pops), Some(pushes)) = (r.num("maze_pops"), r.num("maze_pushes")) {
                    if pops > pushes {
                        out.push(Violation {
                            check: "route-counters",
                            message: format!(
                                "route.done record {i}: maze_pops = {pops} exceeds \
                                 maze_pushes = {pushes}"
                            ),
                        });
                    }
                }
            }
            "flow.done" => {
                summary.done_iterations = r.num("gp_iterations").map(|v| v as usize);
                summary.done_pad_rounds = r.num("pad_rounds").map(|v| v as usize);
                if r.num("hpwl").is_none_or(|v| !v.is_finite() || v < 0.0) {
                    out.push(Violation {
                        check: "flow-done",
                        message: format!("flow.done record {i} has invalid hpwl"),
                    });
                }
            }
            _ => {}
        }
    }
    // A resumed run appends to a fresh file, so per-record streams may
    // cover only a suffix of the totals — they must never exceed them.
    if let (Some(done), Some(last)) = (summary.done_iterations, summary.last_iter) {
        if last > done {
            out.push(Violation {
                check: "flow-done",
                message: format!(
                    "flow.done claims {done} GP iterations but place.iter records reach \
                     iteration {last}"
                ),
            });
        }
    }
    if let Some(done) = summary.done_pad_rounds {
        if summary.pad_rounds > done {
            out.push(Violation {
                check: "flow-done",
                message: format!(
                    "flow.done claims {done} padding rounds but the file holds {} \
                     pad.round records",
                    summary.pad_rounds
                ),
            });
        }
    }
    // A density evaluation is a gradient (3 transforms) or a statistics
    // pass (none): transforms come in threes, at most three an evaluation.
    if let (Some(evals), Some(transforms)) = (density_evals, transforms2d) {
        if transforms % 3.0 != 0.0 || transforms > 3.0 * evals {
            out.push(Violation {
                check: "density-counters",
                message: format!(
                    "fft.transforms2d = {transforms} is not a multiple of 3 at most 3x \
                     place.density_evals = {evals}"
                ),
            });
        }
    }
    // The WA kernel never calls `exp` more often than Eq. (2) names it, and
    // every evaluation names the same 4-per-active-pin terms. An older file's
    // value-only evaluations name them too.
    if let (Some(grads), Some(calls), Some(terms)) = (wa_grad_evals, wa_exp_calls, wa_exp_terms) {
        let values = wa_value_evals.unwrap_or(0.0);
        let evals = grads + values;
        if calls > terms {
            out.push(Violation {
                check: "wa-counters",
                message: format!(
                    "place.wa_exp_calls = {calls} exceeds place.wa_exp_terms = {terms}"
                ),
            });
        }
        let whole_pins = if evals == 0.0 {
            terms == 0.0
        } else {
            terms % (4.0 * evals) == 0.0
        };
        if !whole_pins {
            out.push(Violation {
                check: "wa-counters",
                message: format!(
                    "place.wa_exp_terms = {terms} is not a whole number of pins (4 terms each) \
                     per evaluation ({evals} evaluations)"
                ),
            });
        }
    }
    if out.is_empty() {
        Ok(summary)
    } else {
        Err(crate::AuditReport {
            subject: format!("metrics file {}", path.display()),
            violations: out,
        })
    }
}

// ---------------------------------------------------------------------------
// Cross-file consistency
// ---------------------------------------------------------------------------

/// Audits a checkpoint journal against the metrics JSONL of the run that
/// wrote it: both files must be internally valid, and their shared
/// quantities (iteration counts, padding rounds) must agree.
///
/// # Errors
///
/// [`crate::AuditReport`] listing each violated invariant, including
/// parse failures of either file.
pub fn audit_run(journal: &Path, metrics: &Path) -> Result<MetricsSummary, crate::AuditReport> {
    let subject = format!(
        "run consistency ({} vs {})",
        journal.display(),
        metrics.display()
    );
    let mut out = Vec::new();
    let checkpoint = match FlowCheckpoint::load(journal) {
        Ok(c) => Some(c),
        Err(e) => {
            out.push(Violation {
                check: "journal-parse",
                message: e.to_string(),
            });
            None
        }
    };
    if let Some(c) = &checkpoint {
        c.check_into(&mut out);
    }
    let summary = match audit_metrics(metrics) {
        Ok(s) => Some(s),
        Err(report) => {
            out.extend(report.violations);
            None
        }
    };
    if let (Some(c), Some(s)) = (&checkpoint, &summary) {
        // The journal is written mid-run or at GlobalDone; the metrics file
        // of the same run must have advanced at least as far.
        if let Some(last) = s.last_iter {
            if c.placer.iter > last {
                out.push(Violation {
                    check: "run-consistency",
                    message: format!(
                        "journal was written at iteration {} but the metrics only \
                         reach iteration {last}",
                        c.placer.iter
                    ),
                });
            }
        }
        if c.stage == FlowStage::GlobalDone {
            if let Some(done) = s.done_iterations {
                if done != c.placer.iter {
                    out.push(Violation {
                        check: "run-consistency",
                        message: format!(
                            "completed journal records {} GP iterations but flow.done \
                             claims {done}",
                            c.placer.iter
                        ),
                    });
                }
            }
            if let Some(done) = s.done_pad_rounds {
                if done != c.pad.round {
                    out.push(Violation {
                        check: "run-consistency",
                        message: format!(
                            "completed journal records {} padding rounds but flow.done \
                             claims {done}",
                            c.pad.round
                        ),
                    });
                }
            }
        }
    }
    match (out.is_empty(), summary) {
        (true, Some(s)) => Ok(s),
        (true, None) => Ok(MetricsSummary::default()),
        (false, _) => Err(crate::AuditReport {
            subject,
            violations: out,
        }),
    }
}

// ---------------------------------------------------------------------------
// Flow stage observer
// ---------------------------------------------------------------------------

/// Builds the `--validate` stage observer: at every flow stage boundary it
/// re-checks the design (once, at init), the placement (global containment
/// mid-flow, full containment after legalization), the padding state, and
/// that the reported density overflow is sane. The first failing boundary
/// aborts the flow with the full violation report.
pub fn flow_validator() -> StageObserver {
    StageObserver::new(|r| {
        let mut violations = Vec::new();
        if r.point == StagePoint::Init {
            r.design.check_into(&mut violations);
        }
        let stage = match r.point {
            StagePoint::Legalized => PlacementStage::Legal,
            _ => PlacementStage::Global,
        };
        PlacementAudit {
            design: r.design,
            placement: r.placement,
            stage,
        }
        .check_into(&mut violations);
        PadAudit {
            design: r.design,
            state: r.padding,
            strategy: r.strategy,
        }
        .check_into(&mut violations);
        if !r.overflow.is_finite() || r.overflow < 0.0 {
            violations.push(Violation {
                check: "overflow-bounds",
                message: format!(
                    "density overflow {} at iteration {} (must be finite and >= 0)",
                    r.overflow, r.iter
                ),
            });
        }
        if violations.is_empty() {
            Ok(())
        } else {
            let lines: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
            Err(format!(
                "{} invariant violation(s): {}",
                lines.len(),
                lines.join("; ")
            ))
        }
    })
}
