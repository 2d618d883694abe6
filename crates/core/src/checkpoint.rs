//! On-disk flow checkpoints: a versioned plain-text journal that lets a
//! killed `Job::run` continue where it stopped.
//!
//! The journal captures everything the flow mutates: the placer snapshot
//! ([`puffer_place::PlacerSnapshot`] — placement, padding, λ, iteration
//! counter, Nesterov solver vectors and carried γ) plus the routability optimizer's
//! [`puffer_pad::PaddingState`]. Every `f64` is written as the 16 lowercase
//! hex digits of its bits (`f64::to_bits`), so a resumed flow continues the
//! original trajectory bit-for-bit; kill-then-resume reproduces the same
//! final placement as an uninterrupted run (see the flow tests).
//!
//! The format is deliberately line-based text in the spirit of
//! [`puffer_db::io`] — greppable, diffable, and dependency-free. `<f>` is
//! one float field, `<n>` a decimal count:
//!
//! ```text
//! puffer_checkpoint 3
//! design <num_cells> <name>
//! stage global | global_done
//! iter <n>
//! lambda <f>                     (then overflow, step_scale: <f>;
//! recoveries <n>                  pad_round: <n>; pad_util: <f>)
//! cell <i> <x> <y> <engine_pad> <history_pad> <pad_rounds>
//! opt_scalars <a> <alpha> <gamma> (present only when the solver was live;
//!                                 gamma is the γ the next opening WA
//!                                 gradient takes)
//! opt_u <f> <f> ...              (solver vectors u, v, vp, gp, one line
//!                                 each, 2n floats)
//! degradation <step,step,...>    (present only when the ladder engaged)
//! pending_round 1                (present only when a cancellation
//!                                 suppressed this pass's padding round)
//! end
//! ```
//!
//! A float field has one spelling: exactly 16 characters of `[0-9a-f]`
//! (`3ff8000000000000` is 1.5, `7ff0000000000000` is +∞). Anything else —
//! uppercase digits, a sign, a short field, decimal text — is a parse
//! error naming its line. Each field having a fixed width, [`render`] sizes
//! its buffer once and encodes the digits by hand; float formatting was
//! most of a checkpoint write's cost.
//!
//! Only the build that wrote a journal can continue its trajectory bit for
//! bit (step changes move the bits), so a journal of any other version is
//! a parse error naming that version, never a resume that drifts.
//!
//! A journal file is exactly one record. Writes are atomic (temp file +
//! fsync + rename), so a crash mid-write — or even right after the rename
//! — leaves the complete previous or the complete new record on disk, and
//! [`FlowCheckpoint::load`] is the only reader. The trailing `end` marker
//! detects a file truncated by a crash mid-copy; any text after it (a
//! second record, stray bytes) is a parse error, never silently ignored.
//!
//! [`render`]: FlowCheckpoint::render

use puffer_budget::{fsx, DegradeStep};
use puffer_db::design::{Design, Placement};
use puffer_pad::PaddingState;
use puffer_place::{NesterovState, PlacerSnapshot};
use std::path::{Path, PathBuf};

/// Journal format version written and read by this build.
pub const JOURNAL_VERSION: u32 = 3;

/// Why a journal could not be written, read, or applied.
#[derive(Debug)]
pub enum JournalError {
    /// Reading or writing the journal file failed.
    Io(std::io::Error),
    /// The journal text is malformed, truncated, or a different version.
    Parse {
        /// 1-based line of the offending text (0 for whole-file problems).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The journal is well-formed but does not belong to this design.
    Mismatch(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Parse { line, message } => {
                write!(f, "journal parse error at line {line}: {message}")
            }
            JournalError::Mismatch(m) => write!(f, "journal/design mismatch: {m}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Where in the flow a checkpoint was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStage {
    /// Inside the global-placement loop; resuming re-enters the loop.
    GlobalPlace,
    /// Global placement finished; resuming goes straight to legalization.
    GlobalDone,
}

impl FlowStage {
    fn token(self) -> &'static str {
        match self {
            FlowStage::GlobalPlace => "global",
            FlowStage::GlobalDone => "global_done",
        }
    }

    fn from_token(s: &str) -> Option<Self> {
        match s {
            "global" => Some(FlowStage::GlobalPlace),
            "global_done" => Some(FlowStage::GlobalDone),
            _ => None,
        }
    }
}

/// When and where the flow writes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Journal file; each write atomically replaces the previous one.
    pub path: PathBuf,
    /// Global-placement iterations between journal writes; `0` writes only
    /// the final (post-loop) checkpoint.
    pub every: usize,
    /// Keep every mid-loop checkpoint as `<path>.iter<NNNNNN>` instead of
    /// overwriting `path` (the final checkpoint still lands on `path`).
    /// Useful for post-mortems and for testing resume-from-the-middle.
    pub keep_history: bool,
}

impl CheckpointPolicy {
    /// A policy writing to `path` every 25 iterations, no history.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            path: path.into(),
            every: 25,
            keep_history: false,
        }
    }

    /// Whether a mid-loop checkpoint is due at `iter`.
    pub(crate) fn due(&self, iter: usize) -> bool {
        self.every > 0 && iter > 0 && iter.is_multiple_of(self.every)
    }

    /// The file a checkpoint at `stage`/`iter` goes to.
    pub(crate) fn file_for(&self, stage: FlowStage, iter: usize) -> PathBuf {
        if self.keep_history && stage == FlowStage::GlobalPlace {
            let name = self
                .path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "checkpoint".to_string());
            self.path.with_file_name(format!("{name}.iter{iter:06}"))
        } else {
            self.path.clone()
        }
    }
}

/// A resumable snapshot of the PUFFER flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowCheckpoint {
    /// Name of the design the checkpoint belongs to.
    pub design_name: String,
    /// Total cell count (movable + fixed) of that design.
    pub num_cells: usize,
    /// Flow stage at capture time.
    pub stage: FlowStage,
    /// Global placer state (placement, padding, λ, solver).
    pub placer: PlacerSnapshot,
    /// Routability-optimizer padding history.
    pub pad: PaddingState,
    /// Degradation-ladder rungs engaged before this checkpoint (in
    /// engagement order). A resumed run re-applies them so its fidelity
    /// matches the run that wrote the journal.
    pub degradation: Vec<DegradeStep>,
    /// Whether the checkpointed pass's padding round was *suppressed* by a
    /// cooperative cancellation (an exhausted budget skips the pad round on
    /// its way out of the loop). A resumed run must then re-evaluate the
    /// pad trigger at this iteration before stepping, so that resuming an
    /// interrupted run reproduces the uninterrupted trajectory exactly.
    pub pending_round: bool,
}

impl FlowCheckpoint {
    /// Bundles the flow's mutable state into a checkpoint.
    pub fn capture(
        design: &Design,
        stage: FlowStage,
        placer: PlacerSnapshot,
        pad: PaddingState,
    ) -> Self {
        FlowCheckpoint {
            design_name: design.name().to_string(),
            num_cells: design.netlist().num_cells(),
            stage,
            placer,
            pad,
            degradation: Vec::new(),
            pending_round: false,
        }
    }

    /// Records the degradation-ladder rungs engaged at capture time.
    pub fn with_degradation(mut self, steps: Vec<DegradeStep>) -> Self {
        self.degradation = steps;
        self
    }

    /// Records that a cancellation suppressed the checkpointed pass's
    /// padding round (see the field docs).
    pub fn with_pending_round(mut self, pending: bool) -> Self {
        self.pending_round = pending;
        self
    }

    /// Checks that the checkpoint belongs to `design` (same cell count;
    /// the name is advisory and only mismatched counts are fatal — deeper
    /// shape validation happens in [`puffer_place::GlobalPlacer::restore`]).
    /// An equal count also means an equal [`crate::ScaleClass`], which is a
    /// function of the count alone.
    ///
    /// # Errors
    ///
    /// [`JournalError::Mismatch`] when the cell counts differ.
    pub fn matches(&self, design: &Design) -> Result<(), JournalError> {
        let n = design.netlist().num_cells();
        if self.num_cells != n {
            return Err(JournalError::Mismatch(format!(
                "checkpoint of '{}' has {} cells, design '{}' has {n}",
                self.design_name,
                self.num_cells,
                design.name()
            )));
        }
        if self.placer.placement.len() != n
            || self.placer.padding.len() != n
            || self.pad.pad.len() != n
            || self.pad.pad_count.len() != n
        {
            return Err(JournalError::Mismatch(
                "checkpoint vectors disagree with its own cell count".into(),
            ));
        }
        Ok(())
    }

    /// Serializes the checkpoint to its journal text.
    pub fn render(&self) -> String {
        // Every byte is ASCII but the design name's, which is a `String`:
        // the lossy arm never runs.
        String::from_utf8(self.render_bytes())
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// The journal text as bytes, written into one buffer sized up front.
    fn render_bytes(&self) -> Vec<u8> {
        let opt_floats = self.placer.opt.as_ref().map_or(0, |(o, _)| {
            3 + o.u.len() + o.v.len() + o.v_prev.len() + o.g_prev.len()
        });
        let mut w = Writer(Vec::with_capacity(
            Writer::HEADER_BOUND
                + self.design_name.len()
                + self.num_cells * Writer::CELL_LINE_BOUND
                + opt_floats * Writer::FLOAT_FIELD,
        ));
        w.tag("puffer_checkpoint")
            .uint(JOURNAL_VERSION.into())
            .eol();
        w.tag("design")
            .uint(self.num_cells as u64)
            .text(&self.design_name)
            .eol();
        w.tag("stage").text(self.stage.token()).eol();
        w.tag("iter").uint(self.placer.iter as u64).eol();
        w.tag("lambda").float(self.placer.lambda).eol();
        w.tag("overflow").float(self.placer.last_overflow).eol();
        w.tag("step_scale").float(self.placer.step_scale).eol();
        w.tag("recoveries")
            .uint(self.placer.recoveries as u64)
            .eol();
        w.tag("pad_round").uint(self.pad.round as u64).eol();
        w.tag("pad_util").float(self.pad.last_utilization).eol();
        let (xs, ys) = (self.placer.placement.xs(), self.placer.placement.ys());
        for i in 0..self.num_cells {
            w.tag("cell")
                .uint(i as u64)
                .float(xs[i])
                .float(ys[i])
                .float(self.placer.padding[i])
                .float(self.pad.pad[i])
                .uint(self.pad.pad_count[i].into())
                .eol();
        }
        if let Some((opt, gamma)) = &self.placer.opt {
            w.tag("opt_scalars")
                .float(opt.a)
                .float(opt.alpha)
                .float(*gamma)
                .eol();
            for (tag, v) in [
                ("opt_u", &opt.u),
                ("opt_v", &opt.v),
                ("opt_vp", &opt.v_prev),
                ("opt_gp", &opt.g_prev),
            ] {
                w.tag(tag);
                for &x in v {
                    w.float(x);
                }
                w.eol();
            }
        }
        if !self.degradation.is_empty() {
            let list: Vec<&str> = self.degradation.iter().map(|s| s.as_str()).collect();
            w.tag("degradation").text(&list.join(",")).eol();
        }
        if self.pending_round {
            w.tag("pending_round").uint(1).eol();
        }
        w.tag("end").eol();
        w.0
    }

    /// Atomically writes the journal via [`fsx::atomic_write`]: the text
    /// goes to a sibling temp file which is fsynced and then renamed over
    /// `path` (with a parent-directory fsync to commit the rename). The
    /// sync-before-rename ordering matters: without it a crash (or power
    /// cut) shortly after the rename could persist the new name pointing at
    /// not-yet-flushed data, replacing a good journal with a truncated one.
    /// With it, a crash at any point leaves either the complete previous
    /// journal or the complete new one — never a half-record that happens
    /// to parse.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the filesystem refuses.
    pub fn save(&self, path: &Path) -> Result<(), JournalError> {
        fsx::atomic_write(path, &self.render_bytes()).map_err(JournalError::Io)
    }

    /// Reads a journal file.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file cannot be read and
    /// [`JournalError::Parse`] for malformed or truncated text.
    pub fn load(path: &Path) -> Result<Self, JournalError> {
        let text = std::fs::read_to_string(path).map_err(JournalError::Io)?;
        Self::parse(&text)
    }

    /// Parses journal text (see the module docs for the format).
    ///
    /// # Errors
    ///
    /// [`JournalError::Parse`] with the offending line number.
    pub fn parse(text: &str) -> Result<Self, JournalError> {
        let mut p = Parser::new(text);

        let (version,) = p.line1::<u32>("puffer_checkpoint")?;
        if version != JOURNAL_VERSION {
            return Err(p.err(format!(
                "unsupported journal version {version} (this build reads {JOURNAL_VERSION})"
            )));
        }
        let (num_cells, design_name) = p.line_count_rest("design")?;
        // The count sizes five vectors below: bound it by what the text can
        // hold (a `cell` line is at least 16 bytes) before allocating.
        if num_cells > text.len() / 16 {
            return Err(p.err(format!(
                "design line claims {num_cells} cells, more than the record can hold"
            )));
        }
        let stage_token = p.line_rest("stage")?;
        let stage = FlowStage::from_token(stage_token.trim())
            .ok_or_else(|| p.err(format!("unknown stage '{stage_token}'")))?;
        let (iter,) = p.line1::<usize>("iter")?;
        let lambda = p.line_f64("lambda")?;
        let last_overflow = p.line_f64("overflow")?;
        let step_scale = p.line_f64("step_scale")?;
        let (recoveries,) = p.line1::<usize>("recoveries")?;
        let (pad_round,) = p.line1::<usize>("pad_round")?;
        let pad_util = p.line_f64("pad_util")?;

        let mut xs = Vec::with_capacity(num_cells);
        let mut ys = Vec::with_capacity(num_cells);
        let mut epad = Vec::with_capacity(num_cells);
        let mut hpad = Vec::with_capacity(num_cells);
        let mut counts = Vec::with_capacity(num_cells);
        for i in 0..num_cells {
            let fields = p.line_fields("cell")?;
            if fields.len() != 6 {
                return Err(p.err(format!("cell line needs 6 fields, got {}", fields.len())));
            }
            let idx: usize = p.parse_field(fields[0])?;
            if idx != i {
                return Err(p.err(format!(
                    "cell index {idx}, expected {i} (journal reordered?)"
                )));
            }
            xs.push(p.float(fields[1])?);
            ys.push(p.float(fields[2])?);
            epad.push(p.float(fields[3])?);
            hpad.push(p.float(fields[4])?);
            counts.push(p.parse_field::<u32>(fields[5])?);
        }

        let opt = if p.peek_tag() == Some("opt_scalars") {
            let fields = p.line_fields("opt_scalars")?;
            if fields.len() != 3 {
                return Err(p.err("opt_scalars needs 3 fields".into()));
            }
            let a = p.float(fields[0])?;
            let alpha = p.float(fields[1])?;
            let gamma = p.float(fields[2])?;
            let u = p.line_f64_vec("opt_u")?;
            let v = p.line_f64_vec("opt_v")?;
            let v_prev = p.line_f64_vec("opt_vp")?;
            let g_prev = p.line_f64_vec("opt_gp")?;
            if u.len() != v.len() || v.len() != v_prev.len() || v_prev.len() != g_prev.len() {
                return Err(p.err("optimizer vectors differ in length".into()));
            }
            let state = NesterovState {
                u,
                v,
                v_prev,
                g_prev,
                a,
                alpha,
            };
            Some((state, gamma))
        } else {
            None
        };

        let degradation = if p.peek_tag() == Some("degradation") {
            let rest = p.line_rest("degradation")?.trim().to_string();
            let mut steps = Vec::new();
            for token in rest.split(',').filter(|t| !t.is_empty()) {
                steps.push(
                    token
                        .parse::<DegradeStep>()
                        .map_err(|e| p.err(format!("bad degradation step: {e}")))?,
                );
            }
            steps
        } else {
            Vec::new()
        };

        let pending_round = if p.peek_tag() == Some("pending_round") {
            let rest = p.line_rest("pending_round")?;
            match rest.trim() {
                "1" => true,
                "0" => false,
                other => return Err(p.err(format!("bad pending_round value '{other}'"))),
            }
        } else {
            false
        };

        let end = p.line_rest("end").map_err(|_| JournalError::Parse {
            line: p.line_no,
            message: "missing 'end' marker (journal truncated?)".into(),
        })?;
        if !end.trim().is_empty() {
            return Err(p.err("trailing text after 'end'".into()));
        }
        for line in p.lines.by_ref() {
            p.line_no += 1;
            if let Some(tag) = line.split_whitespace().next() {
                return Err(JournalError::Parse {
                    line: p.line_no,
                    message: format!("'{tag}' after 'end' (a journal holds exactly one record)"),
                });
            }
        }

        Ok(FlowCheckpoint {
            design_name,
            num_cells,
            stage,
            placer: PlacerSnapshot {
                placement: Placement::from_coords(xs, ys),
                padding: epad,
                lambda,
                iter,
                last_overflow,
                step_scale,
                recoveries,
                opt,
            },
            pad: PaddingState {
                pad: hpad,
                pad_count: counts,
                round: pad_round,
                last_utilization: pad_util,
            },
            degradation,
            pending_round,
        })
    }
}

/// The journal text under construction. Fields are appended by hand-rolled
/// encoders, one `extend_from_slice` each, with no formatting machinery.
struct Writer(Vec<u8>);

impl Writer {
    /// A float field: a space and 16 hex digits.
    const FLOAT_FIELD: usize = 17;
    /// An integer field: a space and at most 20 decimal digits.
    const UINT_FIELD: usize = 21;
    /// A `cell` line: tag, index, four floats, count, newline.
    const CELL_LINE_BOUND: usize = 4 + 2 * Self::UINT_FIELD + 4 * Self::FLOAT_FIELD + 1;
    /// Every line but the design name, the `cell` lines and the floats of
    /// the `opt_*` lines: tags, scalars, the degradation list.
    const HEADER_BOUND: usize = 512;

    /// Starts a line with `tag`.
    fn tag(&mut self, tag: &str) -> &mut Self {
        self.0.extend_from_slice(tag.as_bytes());
        self
    }

    /// ` <text>`.
    fn text(&mut self, text: &str) -> &mut Self {
        self.0.push(b' ');
        self.0.extend_from_slice(text.as_bytes());
        self
    }

    /// ` <v in decimal>`.
    fn uint(&mut self, mut v: u64) -> &mut Self {
        let mut field = [b' '; Self::UINT_FIELD];
        let mut at = field.len();
        loop {
            at -= 1;
            field[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.0.extend_from_slice(&field[at - 1..]);
        self
    }

    /// ` <the 16 lowercase hex digits of x's bits>`, most significant first.
    fn float(&mut self, x: f64) -> &mut Self {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let bits = x.to_bits();
        let mut field = [b' '; Self::FLOAT_FIELD];
        for (k, digit) in field[1..].iter_mut().enumerate() {
            *digit = DIGITS[(bits >> (60 - 4 * k)) as usize & 0xf];
        }
        self.0.extend_from_slice(&field);
        self
    }

    /// Ends the line.
    fn eol(&mut self) {
        self.0.push(b'\n');
    }
}

/// Reads one float field: exactly 16 lowercase hex digits, the one
/// spelling [`Writer::float`] gives each value.
fn hex_float(field: &str) -> Option<f64> {
    if field.len() != 16 {
        return None;
    }
    field
        .bytes()
        .try_fold(0u64, |bits, b| {
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                _ => return None,
            };
            Some(bits << 4 | u64::from(digit))
        })
        .map(f64::from_bits)
}

/// Line-by-line journal reader tracking the current line number so every
/// error points at the offending text.
struct Parser<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            lines: text.lines(),
            line_no: 0,
        }
    }

    fn err(&self, message: String) -> JournalError {
        JournalError::Parse {
            line: self.line_no,
            message,
        }
    }

    /// Advances to the next line, which must start with `tag`, and returns
    /// the rest of the line.
    fn line_rest(&mut self, tag: &str) -> Result<&'a str, JournalError> {
        let line = self.lines.next().ok_or(JournalError::Parse {
            line: self.line_no + 1,
            message: format!("unexpected end of journal (expected '{tag}')"),
        })?;
        self.line_no += 1;
        let rest = line.strip_prefix(tag).ok_or_else(|| {
            self.err(format!(
                "expected '{tag}', got '{}'",
                line.split_whitespace().next().unwrap_or("")
            ))
        })?;
        if !rest.is_empty() && !rest.starts_with(' ') {
            return Err(self.err(format!("expected '{tag}', got a longer token")));
        }
        Ok(rest)
    }

    /// `tag <value>` for one parseable value.
    fn line1<T: std::str::FromStr>(&mut self, tag: &str) -> Result<(T,), JournalError> {
        let rest = self.line_rest(tag)?.trim();
        let v = rest
            .parse()
            .map_err(|_| self.err(format!("cannot parse '{rest}'")))?;
        Ok((v,))
    }

    /// `tag <float>`.
    fn line_f64(&mut self, tag: &str) -> Result<f64, JournalError> {
        let rest = self.line_rest(tag)?.trim();
        self.float(rest)
    }

    /// `tag <count> <rest-of-line-as-string>`.
    fn line_count_rest(&mut self, tag: &str) -> Result<(usize, String), JournalError> {
        let rest = self.line_rest(tag)?.trim();
        let mut it = rest.splitn(2, ' ');
        let count_tok = it.next().unwrap_or("");
        let count = count_tok
            .parse()
            .map_err(|_| self.err(format!("cannot parse count '{count_tok}'")))?;
        Ok((count, it.next().unwrap_or("").to_string()))
    }

    /// `tag f f f ...` whitespace-separated fields (unparsed).
    fn line_fields(&mut self, tag: &str) -> Result<Vec<&'a str>, JournalError> {
        let rest = self.line_rest(tag)?;
        Ok(rest.split_whitespace().collect())
    }

    fn line_f64_vec(&mut self, tag: &str) -> Result<Vec<f64>, JournalError> {
        let fields = self.line_fields(tag)?;
        fields.into_iter().map(|f| self.float(f)).collect()
    }

    /// One float field.
    fn float(&self, field: &str) -> Result<f64, JournalError> {
        hex_float(field).ok_or_else(|| {
            self.err(format!(
                "cannot parse '{field}' (a float is 16 lowercase hex digits)"
            ))
        })
    }

    fn parse_field<T: std::str::FromStr>(&self, field: &str) -> Result<T, JournalError> {
        field
            .parse()
            .map_err(|_| self.err(format!("cannot parse '{field}'")))
    }

    /// The tag of the next line without consuming it.
    fn peek_tag(&self) -> Option<&'a str> {
        self.lines
            .clone()
            .next()
            .and_then(|l| l.split_whitespace().next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_gen::{generate, GeneratorConfig};
    use puffer_place::{GlobalPlacer, PlacerConfig};

    fn design() -> Design {
        generate(&GeneratorConfig {
            num_cells: 60,
            num_nets: 70,
            num_macros: 1,
            ..GeneratorConfig::default()
        })
        .unwrap()
    }

    fn checkpoint_after(design: &Design, steps: usize) -> FlowCheckpoint {
        let mut placer = GlobalPlacer::new(design, PlacerConfig::default()).unwrap();
        for _ in 0..steps {
            placer.step();
        }
        FlowCheckpoint::capture(
            design,
            FlowStage::GlobalPlace,
            placer.snapshot(),
            PaddingState::new(design.netlist().num_cells()),
        )
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("puffer-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn render_parse_roundtrip_is_exact() {
        let d = design();
        let ckpt = checkpoint_after(&d, 5);
        assert!(ckpt.placer.opt.is_some(), "solver should be live");
        let parsed = FlowCheckpoint::parse(&ckpt.render()).unwrap();
        assert_eq!(ckpt, parsed);
    }

    #[test]
    fn roundtrip_preserves_awkward_floats() {
        let d = design();
        let mut ckpt = checkpoint_after(&d, 1);
        // Values Display would mangle; the bits carry even a zero's sign
        // and a NaN's payload.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        ckpt.placer.lambda = 0.1 + 0.2;
        ckpt.pad.last_utilization = 1e-300;
        ckpt.placer.padding[0] = f64::MIN_POSITIVE;
        ckpt.placer.padding[1] = -0.0;
        ckpt.pad.pad[2] = nan;
        let text = ckpt.render();
        let parsed = FlowCheckpoint::parse(&text).unwrap();
        assert_eq!(parsed.placer.lambda.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(parsed.pad.last_utilization, 1e-300);
        assert_eq!(parsed.placer.padding[0], f64::MIN_POSITIVE);
        assert_eq!(parsed.placer.padding[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(parsed.pad.pad[2].to_bits(), nan.to_bits());
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn floats_are_the_hex_digits_of_their_bits() {
        let d = design();
        let mut ckpt = checkpoint_after(&d, 1);
        ckpt.placer.lambda = 1.5;
        ckpt.placer.last_overflow = -2.0;
        ckpt.pad.last_utilization = f64::INFINITY;
        let text = ckpt.render();
        assert!(text.starts_with("puffer_checkpoint 3\n"), "{text}");
        for line in [
            "lambda 3ff8000000000000",
            "overflow c000000000000000",
            "pad_util 7ff0000000000000",
        ] {
            assert!(text.contains(&format!("\n{line}\n")), "{line}");
        }
    }

    /// A state has one text: a journal that parses renders back byte for
    /// byte, every optional line included.
    #[test]
    fn render_of_parse_is_the_same_text() {
        let d = design();
        let ckpt = checkpoint_after(&d, 5)
            .with_degradation(vec![DegradeStep::CoarseCongestion, DegradeStep::CapTrials])
            .with_pending_round(true);
        assert!(ckpt.placer.opt.is_some(), "solver should be live");
        let text = ckpt.render();
        for tag in ["opt_scalars ", "degradation ", "pending_round 1"] {
            assert!(text.contains(tag), "no '{tag}' line");
        }
        let parsed = FlowCheckpoint::parse(&text).unwrap();
        assert_eq!(parsed, ckpt);
        assert_eq!(parsed.render(), text);
    }

    /// A float field is exactly 16 characters of `[0-9a-f]`;
    /// every other spelling of the same value is refused at its line.
    #[test]
    fn a_float_field_with_another_spelling_is_a_parse_error() {
        let d = design();
        let text = checkpoint_after(&d, 3).render();
        let lines: Vec<&str> = text.lines().collect();
        for tag in ["lambda ", "cell 4 ", "opt_scalars ", "opt_gp "] {
            let at = lines.iter().position(|l| l.starts_with(tag)).unwrap();
            let line = lines[at];
            // The line's first float field (a cell line's x).
            let field = line[tag.len()..].split(' ').next().unwrap();
            let field = if tag == "cell 4 " {
                line.split(' ').nth(2).unwrap()
            } else {
                field
            };
            let value = hex_float(field).unwrap();
            for (case, bad) in [
                ("uppercase", field.to_uppercase()),
                ("sign", format!("+{field}")),
                ("short", field[1..].to_string()),
                ("long", format!("0{field}")),
                ("decimal", format!("{value:?}")),
            ] {
                assert_ne!(bad, field, "{tag}{case}");
                let mut scribbled = lines.clone();
                let replaced = line.replacen(field, &bad, 1);
                scribbled[at] = &replaced;
                let err = FlowCheckpoint::parse(&(scribbled.join("\n") + "\n")).unwrap_err();
                match &err {
                    JournalError::Parse { line, message } => {
                        assert_eq!(*line, at + 1, "{tag}{case}: {err}");
                        assert!(message.contains(&bad), "{tag}{case}: {err}");
                    }
                    other => panic!("{tag}{case}: expected a parse error, got {other:?}"),
                }
            }
        }
    }

    /// The carried γ is the third field of `opt_scalars`, read back bit for
    /// bit; a live solver's line without it is a parse error naming it.
    #[test]
    fn the_carried_gamma_roundtrips_in_opt_scalars() {
        let d = design();
        let ckpt = checkpoint_after(&d, 4);
        let (opt, gamma) = ckpt.placer.opt.as_ref().expect("solver should be live");
        let scalars = format!(
            "opt_scalars {:016x} {:016x}",
            opt.a.to_bits(),
            opt.alpha.to_bits()
        );
        let line = format!("{scalars} {:016x}\n", gamma.to_bits());
        let text = ckpt.render();
        assert!(text.contains(&format!("\n{line}")), "{text}");
        assert_eq!(FlowCheckpoint::parse(&text).unwrap(), ckpt);

        let without = text.replacen(&line, &format!("{scalars}\n"), 1);
        let err = FlowCheckpoint::parse(&without).unwrap_err();
        assert!(
            err.to_string().contains("opt_scalars needs 3 fields"),
            "{err}"
        );

        // No solver, no line.
        let cold = checkpoint_after(&d, 0);
        assert!(cold.placer.opt.is_none());
        assert!(!cold.render().contains("opt_scalars"));
    }

    #[test]
    fn save_load_roundtrip() {
        let d = design();
        let ckpt = checkpoint_after(&d, 3);
        let path = tmp("roundtrip.pj");
        ckpt.save(&path).unwrap();
        assert_eq!(FlowCheckpoint::load(&path).unwrap(), ckpt);
    }

    #[test]
    fn degradation_line_roundtrips() {
        let d = design();
        let ckpt = checkpoint_after(&d, 2).with_degradation(vec![
            DegradeStep::CoarseCongestion,
            DegradeStep::FreezePadding,
        ]);
        let text = ckpt.render();
        assert!(
            text.contains("degradation coarse-congestion,freeze-padding"),
            "{text}"
        );
        let parsed = FlowCheckpoint::parse(&text).unwrap();
        assert_eq!(parsed, ckpt);
        // Unknown steps are a parse error, not silently dropped.
        let bad = text.replace("coarse-congestion", "melt-everything");
        let err = FlowCheckpoint::parse(&bad).unwrap_err();
        assert!(err.to_string().contains("degradation"), "{err}");
    }

    #[test]
    fn truncated_journal_is_a_parse_error() {
        let d = design();
        let text = checkpoint_after(&d, 3).render();
        let cut = text.len() / 2;
        let err = FlowCheckpoint::parse(&text[..cut]).unwrap_err();
        assert!(matches!(err, JournalError::Parse { .. }), "{err}");
    }

    #[test]
    fn missing_end_marker_is_detected() {
        let d = design();
        let text = checkpoint_after(&d, 3).render();
        let no_end = text.strip_suffix("end\n").unwrap();
        let err = FlowCheckpoint::parse(no_end).unwrap_err();
        assert!(err.to_string().contains("end"), "{err}");
    }

    #[test]
    fn text_after_the_end_marker_is_a_parse_error_naming_its_line() {
        let d = design();
        let text = checkpoint_after(&d, 2).render();
        let end_line = text.lines().count();
        // A second record and a stray line are both rejected at the first
        // line after `end`; blank lines there are harmless.
        for (tail, tag) in [
            (text.clone(), "puffer_checkpoint"),
            ("x\n".to_string(), "x"),
        ] {
            let err = FlowCheckpoint::parse(&format!("{text}{tail}")).unwrap_err();
            match &err {
                JournalError::Parse { line, message } => {
                    assert_eq!(*line, end_line + 1, "{err}");
                    assert!(message.contains(&format!("'{tag}' after 'end'")), "{err}");
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
        let blank = FlowCheckpoint::parse(&format!("{text}\n  \n")).unwrap();
        assert_eq!(blank.render(), text);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let d = design();
        let text = checkpoint_after(&d, 1).render();
        let current = format!("puffer_checkpoint {JOURNAL_VERSION}\n");
        // Version 1 (decimal floats) and version 2 (γ on a line of its own)
        // are refused like any other.
        for version in [0, 1, 2, JOURNAL_VERSION + 1, 99] {
            let bumped = text.replacen(&current, &format!("puffer_checkpoint {version}\n"), 1);
            assert_ne!(bumped, text);
            let err = FlowCheckpoint::parse(&bumped).unwrap_err();
            assert!(matches!(err, JournalError::Parse { line: 1, .. }), "{err}");
            assert!(
                err.to_string()
                    .contains(&format!("unsupported journal version {version} ")),
                "{err}"
            );
        }
    }

    #[test]
    fn a_cell_count_the_record_cannot_hold_is_rejected_before_allocating() {
        let d = design();
        let text = checkpoint_after(&d, 1).render();
        let n = d.netlist().num_cells();
        // 2^32 cells would size five vectors at 32 GiB apiece.
        let inflated = text.replacen(&format!("design {n} "), "design 4294967296 ", 1);
        let err = FlowCheckpoint::parse(&inflated).unwrap_err();
        assert!(
            err.to_string().contains("more than the record can hold"),
            "{err}"
        );
    }

    #[test]
    fn garbage_is_rejected_with_line_numbers() {
        let err = FlowCheckpoint::parse("not a journal\n").unwrap_err();
        match err {
            JournalError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_design_is_rejected() {
        let d = design();
        let other = generate(&GeneratorConfig {
            num_cells: 10,
            num_nets: 12,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let ckpt = checkpoint_after(&d, 1);
        let err = ckpt.matches(&other).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch(_)), "{err}");
        ckpt.matches(&d).unwrap();
    }

    #[test]
    fn policy_history_names_and_due() {
        let p = CheckpointPolicy {
            path: PathBuf::from("/tmp/run.pj"),
            every: 10,
            keep_history: true,
        };
        assert!(!p.due(0));
        assert!(!p.due(5));
        assert!(p.due(10));
        assert_eq!(
            p.file_for(FlowStage::GlobalPlace, 10),
            PathBuf::from("/tmp/run.pj.iter000010")
        );
        assert_eq!(
            p.file_for(FlowStage::GlobalDone, 40),
            PathBuf::from("/tmp/run.pj")
        );
        let no_mid = CheckpointPolicy {
            every: 0,
            ..CheckpointPolicy::new("/tmp/x.pj")
        };
        assert!(!no_mid.due(25));
    }
}
