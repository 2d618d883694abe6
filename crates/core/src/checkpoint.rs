//! On-disk flow checkpoints: a versioned plain-text journal that lets a
//! killed `Job::run` continue where it stopped.
//!
//! The journal captures everything the flow mutates: the placer snapshot
//! ([`puffer_place::PlacerSnapshot`] — placement, padding, λ, iteration
//! counter, Nesterov solver vectors) plus the routability optimizer's
//! [`puffer_pad::PaddingState`]. Rust's `f64` formatting round-trips
//! exactly, so a resumed flow continues the original trajectory
//! bit-for-bit; kill-then-resume reproduces the same final placement as an
//! uninterrupted run (see the flow tests).
//!
//! The format is deliberately line-based text in the spirit of
//! [`puffer_db::io`] — greppable, diffable, and dependency-free:
//!
//! ```text
//! puffer_checkpoint 1
//! design <num_cells> <name>
//! stage global | global_done
//! iter <n>
//! lambda <f> ... (scalar placer state)
//! cell <i> <x> <y> <engine_pad> <history_pad> <pad_rounds>
//! opt_scalars <a> <alpha>        (present only when the solver was live)
//! opt_u <2n floats> ...          (solver vectors, one line each)
//! degradation <step,step,...>    (present only when the ladder engaged)
//! pending_round 1                (present only when a cancellation
//!                                 suppressed this pass's padding round)
//! scale_class <small|medium|huge> (band the run resolved to; absent in
//!                                 journals from earlier builds)
//! end
//! ```
//!
//! Writes are atomic (temp file + fsync + rename), so a crash mid-write —
//! or even right after the rename — leaves a complete journal on disk, and
//! the trailing `end` marker detects files truncated by a crash mid-copy.

use crate::scale::ScaleClass;
use puffer_budget::{fsx, DegradeStep};
use puffer_db::design::{Design, Placement};
use puffer_pad::PaddingState;
use puffer_place::{NesterovState, PlacerSnapshot};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Journal format version written by this build.
pub const JOURNAL_VERSION: u32 = 1;

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
    /// Absent from journals written by earlier builds (defaults to false).
    pub pending_round: bool,
    /// Size band ([`ScaleClass`]) the run that wrote the journal resolved
    /// to. A resumed run must resolve to the same band (the coarsened
    /// congestion grid is part of the recorded trajectory). `None` in
    /// journals written by earlier builds, which skips the resume check.
    pub scale_class: Option<ScaleClass>,
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
            scale_class: None,
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

    /// Records the scale class the run resolved to (see the field docs).
    pub fn with_scale_class(mut self, class: Option<ScaleClass>) -> Self {
        self.scale_class = class;
        self
    }

    /// Checks that the checkpoint belongs to `design` (same cell count;
    /// the name is advisory and only mismatched counts are fatal — deeper
    /// shape validation happens in [`puffer_place::GlobalPlacer::restore`]).
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
        let mut out = String::new();
        let _ = writeln!(out, "puffer_checkpoint {JOURNAL_VERSION}");
        let _ = writeln!(out, "design {} {}", self.num_cells, self.design_name);
        let _ = writeln!(out, "stage {}", self.stage.token());
        let _ = writeln!(out, "iter {}", self.placer.iter);
        let _ = writeln!(out, "lambda {:?}", self.placer.lambda);
        let _ = writeln!(out, "overflow {:?}", self.placer.last_overflow);
        let _ = writeln!(out, "step_scale {:?}", self.placer.step_scale);
        let _ = writeln!(out, "recoveries {}", self.placer.recoveries);
        let _ = writeln!(out, "pad_round {}", self.pad.round);
        let _ = writeln!(out, "pad_util {:?}", self.pad.last_utilization);
        let (xs, ys) = (self.placer.placement.xs(), self.placer.placement.ys());
        for i in 0..self.num_cells {
            let _ = writeln!(
                out,
                "cell {i} {:?} {:?} {:?} {:?} {}",
                xs[i], ys[i], self.placer.padding[i], self.pad.pad[i], self.pad.pad_count[i]
            );
        }
        if let Some(opt) = &self.placer.opt {
            let _ = writeln!(out, "opt_scalars {:?} {:?}", opt.a, opt.alpha);
            for (tag, v) in [
                ("opt_u", &opt.u),
                ("opt_v", &opt.v),
                ("opt_vp", &opt.v_prev),
                ("opt_gp", &opt.g_prev),
            ] {
                out.push_str(tag);
                for x in v {
                    let _ = write!(out, " {x:?}");
                }
                out.push('\n');
            }
        }
        if !self.degradation.is_empty() {
            let list: Vec<&str> = self.degradation.iter().map(|s| s.as_str()).collect();
            let _ = writeln!(out, "degradation {}", list.join(","));
        }
        if self.pending_round {
            let _ = writeln!(out, "pending_round 1");
        }
        if let Some(class) = self.scale_class {
            let _ = writeln!(out, "scale_class {}", class.as_str());
        }
        out.push_str("end\n");
        out
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
        fsx::atomic_write(path, self.render().as_bytes()).map_err(JournalError::Io)
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

    /// Reads a journal file, tolerating a torn (partially written) final
    /// record: the journal is split into records at `end` markers, every
    /// complete record is parsed strictly, the latest one wins, and any
    /// trailing bytes after the last `end` are dropped and reported via
    /// [`Recovered::dropped_torn_tail`] so callers can warn.
    ///
    /// This is the resume-side contract for both journal shapes: a
    /// [`FlowCheckpoint::save`] journal is one complete record (recovery is
    /// then identical to [`FlowCheckpoint::load`]), while an
    /// [`FlowCheckpoint::append`] journal may end in a record a crash cut
    /// short. Corruption *inside* a complete record is still an error —
    /// only truncation at the tail is forgiven.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file cannot be read,
    /// [`JournalError::Parse`] when a complete record is malformed or when
    /// not a single complete record exists (nothing to resume from).
    pub fn recover(path: &Path) -> Result<Recovered, JournalError> {
        let text = std::fs::read_to_string(path).map_err(JournalError::Io)?;
        Self::recover_text(&text)
    }

    /// [`FlowCheckpoint::recover`] over in-memory journal text.
    ///
    /// # Errors
    ///
    /// See [`FlowCheckpoint::recover`].
    pub fn recover_text(text: &str) -> Result<Recovered, JournalError> {
        // The shared torn-tail rule: anything after the last complete
        // record — even a lone "end" missing its newline — is dropped.
        let journal = fsx::Journal::from_text(text, fsx::RecordShape::EndMarker("end"));
        let Some(last) = journal.last() else {
            return Err(JournalError::Parse {
                line: 0,
                message: "no complete checkpoint record (journal truncated before its first \
                          'end' marker)"
                    .into(),
            });
        };
        let checkpoint = Self::parse(last)?;
        Ok(Recovered {
            checkpoint,
            records: journal.len(),
            dropped_torn_tail: journal.dropped_torn_tail(),
        })
    }

    /// Parses journal text (see the module docs for the format).
    ///
    /// # Errors
    ///
    /// [`JournalError::Parse`] with the offending line number.
    pub fn parse(text: &str) -> Result<Self, JournalError> {
        let mut p = Parser::new(text);

        let (version,) = p.line1::<usize>("puffer_checkpoint")?;
        if version != JOURNAL_VERSION as usize {
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
                return Err(p.err(format!("cell index {idx}, expected {i} (journal reordered?)")));
            }
            xs.push(p.parse_field::<f64>(fields[1])?);
            ys.push(p.parse_field::<f64>(fields[2])?);
            epad.push(p.parse_field::<f64>(fields[3])?);
            hpad.push(p.parse_field::<f64>(fields[4])?);
            counts.push(p.parse_field::<u32>(fields[5])?);
        }

        let opt = if p.peek_tag() == Some("opt_scalars") {
            let fields = p.line_fields("opt_scalars")?;
            if fields.len() != 2 {
                return Err(p.err("opt_scalars needs 2 fields".into()));
            }
            let a: f64 = p.parse_field(fields[0])?;
            let alpha: f64 = p.parse_field(fields[1])?;
            let u = p.line_f64_vec("opt_u")?;
            let v = p.line_f64_vec("opt_v")?;
            let v_prev = p.line_f64_vec("opt_vp")?;
            let g_prev = p.line_f64_vec("opt_gp")?;
            if u.len() != v.len() || v.len() != v_prev.len() || v_prev.len() != g_prev.len() {
                return Err(p.err("optimizer vectors differ in length".into()));
            }
            Some(NesterovState {
                u,
                v,
                v_prev,
                g_prev,
                a,
                alpha,
            })
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

        let scale_class = if p.peek_tag() == Some("scale_class") {
            let rest = p.line_rest("scale_class")?;
            Some(
                rest.trim()
                    .parse::<ScaleClass>()
                    .map_err(|e| p.err(format!("bad scale_class: {e}")))?,
            )
        } else {
            None
        };

        let end = p.line_rest("end").map_err(|_| JournalError::Parse {
            line: p.line_no,
            message: "missing 'end' marker (journal truncated?)".into(),
        })?;
        if !end.trim().is_empty() {
            return Err(p.err("trailing text after 'end'".into()));
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
            scale_class,
        })
    }
}

/// The outcome of a lenient journal read ([`FlowCheckpoint::recover`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// The latest complete checkpoint in the journal.
    pub checkpoint: FlowCheckpoint,
    /// How many complete records the journal held.
    pub records: usize,
    /// Whether bytes after the last complete record were dropped (a torn
    /// write from a crash mid-append). Callers should surface a warning.
    pub dropped_torn_tail: bool,
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

    fn line_f64(&mut self, tag: &str) -> Result<f64, JournalError> {
        self.line1::<f64>(tag).map(|(v,)| v)
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
        fields
            .into_iter()
            .map(|f| self.parse_field::<f64>(f))
            .collect()
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
        // Values Display would mangle but {:?} round-trips exactly.
        ckpt.placer.lambda = 0.1 + 0.2;
        ckpt.pad.last_utilization = 1e-300;
        ckpt.placer.padding[0] = f64::MIN_POSITIVE;
        let parsed = FlowCheckpoint::parse(&ckpt.render()).unwrap();
        assert_eq!(parsed.placer.lambda.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(parsed.pad.last_utilization, 1e-300);
        assert_eq!(parsed.placer.padding[0], f64::MIN_POSITIVE);
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
    fn append_accumulates_records_and_recover_returns_the_latest() {
        let d = design();
        let first = checkpoint_after(&d, 1);
        let second = checkpoint_after(&d, 4);
        let path = tmp("append.pj");
        std::fs::write(&path, first.render() + &second.render()).unwrap();
        let rec = FlowCheckpoint::recover(&path).unwrap();
        assert_eq!(rec.checkpoint, second, "latest record wins");
        assert_eq!(rec.records, 2);
        assert!(!rec.dropped_torn_tail);
        // A save() journal (single atomic record) recovers identically.
        let single = tmp("single.pj");
        first.save(&single).unwrap();
        let rec = FlowCheckpoint::recover(&single).unwrap();
        assert_eq!((rec.checkpoint, rec.records), (first, 1));
    }

    #[test]
    fn recover_drops_a_torn_tail_at_every_byte_boundary() {
        // Regression test for torn appends: a journal holding one complete
        // record plus the last record truncated at EVERY byte boundary must
        // always recover to the complete record, flagging the drop —
        // except at the exact end, where the tail is complete and wins.
        let d = design();
        let keep = checkpoint_after(&d, 2);
        let tail = checkpoint_after(&d, 5).render();
        let base = keep.render();
        for cut in 0..=tail.len() {
            let mut text = base.clone();
            text.push_str(&tail[..cut]);
            let rec = FlowCheckpoint::recover_text(&text)
                .unwrap_or_else(|e| panic!("cut at byte {cut}/{}: {e}", tail.len()));
            if cut == tail.len() {
                assert!(!rec.dropped_torn_tail, "full tail is a complete record");
                assert_eq!(rec.records, 2);
            } else {
                assert_eq!(rec.checkpoint, keep, "cut at byte {cut}");
                assert_eq!(rec.dropped_torn_tail, cut != 0, "cut at byte {cut}");
            }
        }
    }

    #[test]
    fn recover_without_a_complete_record_is_an_error() {
        let d = design();
        let text = checkpoint_after(&d, 2).render();
        // Truncation before the first 'end' leaves nothing to resume from.
        let err = FlowCheckpoint::recover_text(&text[..text.len() / 2]).unwrap_err();
        assert!(matches!(err, JournalError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("no complete checkpoint"), "{err}");
        // Corruption inside a complete record is still rejected: recovery
        // forgives truncation, never garbage that parses as a record shape.
        let garbled = text.replacen("lambda", "lambada", 1);
        let err = FlowCheckpoint::recover_text(&garbled).unwrap_err();
        assert!(matches!(err, JournalError::Parse { .. }), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let d = design();
        let text = checkpoint_after(&d, 1).render();
        let bumped = text.replacen("puffer_checkpoint 1", "puffer_checkpoint 99", 1);
        let err = FlowCheckpoint::parse(&bumped).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn a_cell_count_the_record_cannot_hold_is_rejected_before_allocating() {
        let d = design();
        let text = checkpoint_after(&d, 1).render();
        let n = d.netlist().num_cells();
        // 2^32 cells would size five vectors at 32 GiB apiece.
        let inflated = text.replacen(&format!("design {n} "), "design 4294967296 ", 1);
        let err = FlowCheckpoint::parse(&inflated).unwrap_err();
        assert!(err.to_string().contains("more than the record can hold"), "{err}");
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
