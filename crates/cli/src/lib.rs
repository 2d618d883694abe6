//! Implementation of the `puffer` command-line tool.
//!
//! The binary wires the workspace crates into a file-based flow over the
//! [`puffer_db::io`] text format. [`COMMANDS`] is the one declaration of
//! every subcommand: its positional arguments and its flags with their
//! help lines, defaults and rules. The parser checks arguments against a
//! command's row, and `puffer help` and `puffer <cmd> --help` are rendered
//! from the same rows.
//!
//! All logic lives in this library so it can be unit-tested; `main.rs` only
//! forwards `std::env::args` and sets the exit code.

#![forbid(unsafe_code)]

use puffer::{
    evaluate_bounded, CheckpointPolicy, Flow, FlowCheckpoint, Job, PufferConfig, ScaleClass,
};
use puffer_audit::{
    audit_metrics, audit_run, flow_validator, lint_workspace, LintConfig, Validate,
};
use puffer_budget::fsx;
use puffer_budget::{Budget, CancelToken};
use puffer_db::io::{read_design, read_placement, write_design, write_placement};
use puffer_dp::{refine_bounded, DetailedConfig};
use puffer_explore::{explore_params_bounded, ExplorationConfig};
use puffer_gen::{generate, presets, GeneratorConfig};
use puffer_route::{assign_layers, RouterConfig};
use puffer_serve::{
    serve_lines, serve_listener, Action, Engine, JsonLine, ServeConfig, ServerOutcome,
};
use puffer_trace::Trace;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

/// A CLI failure: message for stderr plus the process exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code (always non-zero).
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    fn run(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// What the parser enforces for one flag beyond its name and arity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// Optional.
    Free,
    /// Must be given.
    Required,
    /// A count: an integer of at least 1.
    Count,
    /// Refused unless the command runs `--flow puffer` (journal flags).
    PufferOnly,
}

/// One flag of a [`Command`] row.
struct Flag {
    /// `o` is spelled `-o`, every other name `--<name>`.
    name: &'static str,
    /// The value's metavar; empty for a switch.
    value: &'static str,
    help: &'static str,
    /// The value the command body reads when the flag is absent.
    default: Option<&'static str>,
    rule: Rule,
}

const fn flag(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value,
        help,
        default: None,
        rule: Rule::Free,
    }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    flag(name, "", help)
}

impl Flag {
    const fn or(mut self, default: &'static str) -> Flag {
        self.default = Some(default);
        self
    }

    const fn rule(mut self, rule: Rule) -> Flag {
        self.rule = rule;
        self
    }

    fn spelled(&self) -> String {
        if self.name.len() == 1 {
            format!("-{}", self.name)
        } else {
            format!("--{}", self.name)
        }
    }
}

/// The signature of every command body.
type Body = fn(&Flags, &mut String) -> Result<(), CliError>;

/// One subcommand: the single declaration its parser and help come from.
struct Command {
    name: &'static str,
    /// Positional metavars; a `[bracketed]` one is optional.
    args: &'static [&'static str],
    run: Body,
    about: &'static str,
    flags: &'static [Flag],
}

const fn command(
    name: &'static str,
    args: &'static [&'static str],
    run: Body,
    about: &'static str,
) -> Command {
    Command {
        name,
        args,
        run,
        about,
        flags: &[],
    }
}

/// Every `puffer` subcommand, in help order.
const COMMANDS: &[Command] = &[
    command(
        "gen",
        &[],
        cmd_gen,
        "generate a synthetic design from a preset, or from --cells",
    )
    .flags(&[
        flag("preset", "<name>", "Table I preset (see presets below)"),
        flag("scale", "<f>", "preset scale").or("0.01"),
        flag("cells", "<n>", "movable cells, without --preset"),
        flag("nets", "<n>", "nets (default: cells + cells/10)"),
        flag("macros", "<n>", "fixed macros"),
        flag("hotspot", "<f>", "congestion hotspot strength"),
        flag("utilization", "<f>", "target utilization"),
        flag("seed", "<n>", "generator seed"),
        flag("o", "<design.pd>", "output design").rule(Rule::Required),
    ]),
    command(
        "convert",
        &["<design.aux>"],
        cmd_convert,
        "import a Bookshelf design",
    )
    .flags(&[flag("o", "<design.pd>", "output design").rule(Rule::Required)]),
    command(
        "stats",
        &["<design.pd>"],
        cmd_stats,
        "print design statistics",
    ),
    command(
        "place",
        &["<design.pd>"],
        cmd_place,
        "place with the PUFFER flow or a baseline",
    )
    .flags(&[
        flag("o", "<placed.pl>", "output placement").rule(Rule::Required),
        flag("flow", "<name>", "puffer, reference or replace").or("puffer"),
        flag("max-iters", "<n>", "global-placement iteration cap"),
        flag("threads", "<n>", "worker threads").rule(Rule::Count),
        flag("journal", "<run.pj>", "write checkpoints here").rule(Rule::PufferOnly),
        flag(
            "checkpoint-every",
            "<n>",
            "GP iterations between checkpoints",
        )
        .or("25"),
        flag("resume", "<run.pj>", "resume from this journal").rule(Rule::PufferOnly),
        switch("validate", "check invariants at every stage"),
        flag("metrics", "<run.jsonl>", "write telemetry as JSONL"),
        switch("trace-summary", "stage timings to stderr"),
        flag("deadline", "<secs>", "stop early, degrading as it nears"),
    ]),
    command(
        "eval",
        &["<design.pd>", "<placed.pl>"],
        cmd_eval,
        "route a placement: overflow, WL",
    )
    .flags(&[
        flag("maps", "<dir>", "write congestion maps (CSV + PGM)"),
        switch("layers", "print per-layer usage"),
        switch("validate", "check design and congestion-map invariants"),
        flag("threads", "<n>", "worker threads").rule(Rule::Count),
        flag("metrics", "<run.jsonl>", "write telemetry as JSONL"),
        switch("trace-summary", "stage timings to stderr"),
        flag("deadline", "<secs>", "bound the rip-up rounds"),
    ]),
    command(
        "explore",
        &["<design.pd>"],
        cmd_explore,
        "SMBO padding-strategy exploration",
    )
    .flags(&[
        flag("trials", "<n>", "trials").or("12").rule(Rule::Count),
        flag("max-iters", "<n>", "GP iterations per trial").or("60"),
        flag(
            "deadline",
            "<secs>",
            "bound the search, degrading as it nears",
        ),
        flag("metrics", "<run.jsonl>", "write telemetry as JSONL"),
        switch("trace-summary", "stage timings to stderr"),
    ]),
    command(
        "trace",
        &["<run.jsonl>"],
        cmd_trace,
        "check a telemetry file, count its records",
    )
    .flags(&[switch(
        "check",
        "require a complete place run's spans and records",
    )]),
    command(
        "refine",
        &["<design.pd>", "<placed.pl>"],
        cmd_refine,
        "detailed placement",
    )
    .flags(&[
        flag("o", "<refined.pl>", "output placement").rule(Rule::Required),
        switch("guard", "refuse moves into congested Gcells"),
        flag("deadline", "<secs>", "bound the refinement passes"),
    ]),
    command(
        "draw",
        &["<design.pd>", "<placed.pl>"],
        cmd_draw,
        "render a placement as SVG",
    )
    .flags(&[
        flag("o", "<out.svg>", "output picture").rule(Rule::Required),
        switch("rows", "draw the placement rows"),
    ]),
    command(
        "serve",
        &[],
        cmd_serve,
        "job daemon (one of --listen or --stdin)",
    )
    .flags(&[
        flag("listen", "<addr>", "serve newline-delimited JSON over TCP"),
        switch("stdin", "serve over stdin/stdout; EOF drains"),
        flag("journal-dir", "<dir>", "per-job journals").rule(Rule::Required),
        flag("workers", "<n>", "worker threads")
            .or("2")
            .rule(Rule::Count),
        flag("queue", "<n>", "admission-queue capacity")
            .or("16")
            .rule(Rule::Count),
        flag("checkpoint-every", "<n>", "GP iterations per checkpoint")
            .or("10")
            .rule(Rule::Count),
    ]),
    command(
        "lint",
        &[],
        cmd_lint,
        "crate layering + forbid(unsafe_code)",
    )
    .flags(&[
        flag("root", "<dir>", "workspace root").or("."),
        switch("json", "findings as JSONL, no summary line"),
    ]),
    command(
        "audit",
        &["design|journal|run", "<file>", "[<file>]"],
        cmd_audit,
        "check an artifact: design <design.pd> | journal <run.pj> [<design.pd>] | \
         run <run.pj> <run.jsonl> (a metrics file alone: puffer trace)",
    ),
];

impl Command {
    const fn flags(mut self, flags: &'static [Flag]) -> Command {
        self.flags = flags;
        self
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// This command's section of the help text.
    fn help(&self) -> String {
        let usage = [&[self.name], self.args].concat().join(" ");
        let mut out = format!("  puffer {usage}\n      {}\n", self.about);
        for f in self.flags {
            let left = format!("{} {}", f.spelled(), f.value);
            let note = match (f.rule, f.default) {
                (Rule::Required, _) => " (required)".to_string(),
                (Rule::PufferOnly, _) => " (--flow puffer only)".to_string(),
                (Rule::Count, Some(d)) => format!(" (at least 1, default {d})"),
                (Rule::Count, None) => " (at least 1)".to_string(),
                (Rule::Free, Some(d)) => format!(" (default {d})"),
                (Rule::Free, None) => String::new(),
            };
            let _ = writeln!(out, "        {left:<26} {}{note}", f.help);
        }
        out
    }
}

/// The full help text: every command's section, then the preset names.
fn help() -> String {
    let mut out = String::from(
        "puffer — routability-driven placement (PUFFER, DAC 2023 reproduction)\n\n\
         usage: puffer <command> [args] [flags]   (puffer <command> --help: one command)\n\n",
    );
    for cmd in COMMANDS {
        out.push_str(&cmd.help());
    }
    out.push_str("\npresets:");
    for preset in presets::all(1.0).unwrap_or_default() {
        let _ = write!(out, " {}", preset.name.to_lowercase());
    }
    out.push('\n');
    out
}

/// Runs the CLI on the given arguments (without the program name).
/// Output lines are pushed to `out` so tests can capture them.
///
/// # Errors
///
/// Returns [`CliError`] with a usage (2) or runtime (1) exit code.
pub fn run(args: &[String], out: &mut String) -> Result<(), CliError> {
    let Some(name) = args.first() else {
        return Err(CliError::usage(help()));
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        out.push_str(&help());
        return Ok(());
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(CliError::usage(format!(
            "unknown command '{name}'\n\n{}",
            help()
        )));
    };
    let rest = &args[1..];
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        out.push_str(&cmd.help());
        return Ok(());
    }
    (cmd.run)(&Flags::parse(rest, cmd)?, out)
}

/// A command's arguments, checked against its [`Command`] row.
struct Flags {
    cmd: &'static Command,
    positional: Vec<String>,
    /// Given flags in order, a switch with an empty value.
    given: Vec<(&'static str, String)>,
}

impl Flags {
    fn parse(args: &[String], cmd: &'static Command) -> Result<Self, CliError> {
        let (mut positional, mut given) = (Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) else {
                positional.push(a.clone());
                continue;
            };
            let Some(flag) = cmd.flag(name) else {
                return Err(CliError::usage(format!(
                    "unknown flag '{a}'\n\n{}",
                    cmd.help()
                )));
            };
            let value = match flag.value {
                "" => String::new(),
                _ => it
                    .next()
                    .ok_or_else(|| CliError::usage(format!("{} needs a value", flag.spelled())))?
                    .clone(),
            };
            given.push((flag.name, value));
        }
        let required = cmd.args.iter().filter(|a| !a.starts_with('[')).count();
        if !(required..=cmd.args.len()).contains(&positional.len()) {
            let message = format!("wrong number of arguments\n\n{}", cmd.help());
            return Err(CliError::usage(message));
        }
        let f = Flags {
            cmd,
            positional,
            given,
        };
        // An unknown --flow is the command's to reject, by its name.
        let baseline = matches!(
            f.get("flow").and_then(Flow::from_name),
            Some(Flow::Baseline(_))
        );
        for flag in cmd.flags {
            let (name, given) = (flag.spelled(), f.has(flag.name));
            let problem = match flag.rule {
                Rule::Required if !given => format!("{} needs {name} {}", cmd.name, flag.value),
                Rule::Count if f.get_parsed::<u64>(flag.name)? == Some(0) => {
                    format!("{name} must be at least 1")
                }
                Rule::PufferOnly if given && baseline => {
                    format!("{name} only applies to --flow puffer")
                }
                _ => continue,
            };
            return Err(CliError::usage(problem));
        }
        Ok(f)
    }

    /// The flag's last given value, else its row's default.
    fn get(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
            .or_else(|| self.cmd.flag(name).and_then(|f| f.default))
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::usage(format!("--{name}: cannot parse '{v}'"))),
        }
    }

    /// The value of a required or defaulted flag.
    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        self.get_parsed(name)?
            .ok_or_else(|| CliError::usage(format!("--{name} needs a value")))
    }

    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(k, _)| *k == name)
    }
}

fn load_design(path: &str) -> Result<puffer_db::design::Design, CliError> {
    let file = File::open(path).map_err(|e| CliError::run(format!("cannot open {path}: {e}")))?;
    read_design(file).map_err(|e| CliError::run(format!("cannot parse {path}: {e}")))
}

fn load_placement(path: &str, num_cells: usize) -> Result<puffer_db::design::Placement, CliError> {
    let file = File::open(path).map_err(|e| CliError::run(format!("cannot open {path}: {e}")))?;
    read_placement(file, num_cells).map_err(|e| CliError::run(format!("cannot parse {path}: {e}")))
}

fn cmd_gen(flags: &Flags, out: &mut String) -> Result<(), CliError> {
    let scale: f64 = flags.value("scale")?;
    let config: GeneratorConfig = if let Some(name) = flags.get("preset") {
        presets::by_name(name, scale)
            .map_err(|e| CliError::usage(e.to_string()))?
            .ok_or_else(|| CliError::usage(format!("unknown preset '{name}'")))?
    } else {
        let cells: usize = flags
            .get_parsed("cells")?
            .ok_or_else(|| CliError::usage("gen needs --preset or --cells"))?;
        let d = GeneratorConfig::default();
        GeneratorConfig {
            name: "custom".into(),
            num_cells: cells,
            num_nets: flags.get_parsed("nets")?.unwrap_or(cells + cells / 10),
            num_macros: flags.get_parsed("macros")?.unwrap_or(d.num_macros),
            hotspot: flags.get_parsed("hotspot")?.unwrap_or(d.hotspot),
            utilization: flags.get_parsed("utilization")?.unwrap_or(d.utilization),
            seed: flags.get_parsed("seed")?.unwrap_or(d.seed),
            ..d
        }
    };
    let output: String = flags.value("o")?;
    let design = generate(&config).map_err(|e| CliError::run(format!("generation failed: {e}")))?;
    let mut buf = Vec::new();
    write_design(&design, &mut buf).map_err(|e| CliError::run(format!("write failed: {e}")))?;
    fsx::atomic_write(Path::new(&output), &buf)
        .map_err(|e| CliError::run(format!("cannot write {output}: {e}")))?;
    let s = design.stats();
    let _ = writeln!(
        out,
        "wrote {} ({} cells, {} nets, {} pins, {} macros)",
        output, s.movable_cells, s.nets, s.movable_pins, s.macros
    );
    Ok(())
}

fn cmd_convert(flags: &Flags, out: &mut String) -> Result<(), CliError> {
    let aux_path = &flags.positional[0];
    let output: String = flags.value("o")?;
    // Stream the Bookshelf files through the fsx read hook, so chaos runs
    // exercise the same ingestion path the CLI uses in production.
    let design = puffer_db::bookshelf::read_aux_with(aux_path, &mut |p: &Path| {
        Ok(Box::new(fsx::open_read(p)?) as Box<dyn std::io::BufRead>)
    })
    .map_err(|e| CliError::run(format!("cannot read {aux_path}: {e}")))?;
    design
        .check_macros_placed()
        .map_err(|e| CliError::run(format!("{aux_path}: {e} (is the .pl complete?)")))?;
    let mut buf = Vec::new();
    write_design(&design, &mut buf).map_err(|e| CliError::run(format!("write failed: {e}")))?;
    fsx::atomic_write(Path::new(&output), &buf)
        .map_err(|e| CliError::run(format!("cannot write {output}: {e}")))?;
    let s = design.stats();
    let _ = writeln!(
        out,
        "converted {} -> {} ({} cells, {} nets, {} macros)",
        aux_path, output, s.movable_cells, s.nets, s.macros
    );
    Ok(())
}

fn cmd_stats(flags: &Flags, out: &mut String) -> Result<(), CliError> {
    let design = load_design(&flags.positional[0])?;
    let s = design.stats();
    let _ = writeln!(out, "design    : {}", design.name());
    let _ = writeln!(out, "region    : {}", design.region());
    let _ = writeln!(out, "#Macros   : {}", s.macros);
    let _ = writeln!(out, "#Cells    : {}", s.movable_cells);
    let _ = writeln!(out, "#Nets     : {}", s.nets);
    let _ = writeln!(out, "#Pins     : {}", s.movable_pins);
    let _ = writeln!(out, "avg pins/cell : {:.2}", s.avg_pins_per_cell());
    let _ = writeln!(out, "utilization   : {:.3}", design.utilization());
    Ok(())
}

/// Builds the optional telemetry handle for `--metrics` / `--trace-summary`.
fn open_trace(flags: &Flags) -> Result<Option<Trace>, CliError> {
    if let Some(path) = flags.get("metrics") {
        Trace::with_sink(path)
            .map(Some)
            .map_err(|e| CliError::run(format!("cannot create {path}: {e}")))
    } else if flags.has("trace-summary") {
        Ok(Some(Trace::enabled()))
    } else {
        Ok(None)
    }
}

/// Finishes a traced run: emits the span/counter summary records to
/// the sink, surfaces any deferred sink write error, and prints the
/// per-stage timing table to stderr under `--trace-summary`.
fn finish_trace(trace: &Option<Trace>, flags: &Flags) -> Result<(), CliError> {
    let Some(trace) = trace else { return Ok(()) };
    trace.write_summary();
    trace
        .flush()
        .map_err(|e| CliError::run(format!("metrics write failed: {e}")))?;
    if flags.has("trace-summary") {
        eprint!("{}", trace.summary_table());
    }
    Ok(())
}

/// The budget `--deadline <secs>` asks for: bounded, so a degrading one
/// (see [`puffer_budget::LadderState`]), or unbounded without the flag.
fn deadline_budget(flags: &Flags) -> Result<Budget, CliError> {
    match flags.get_parsed::<f64>("deadline")? {
        None => Ok(Budget::unbounded()),
        // `try_from_secs_f64` refuses what a `Duration` cannot hold
        // (negative, NaN, infinite, 1e300); zero it holds, so that is ours.
        Some(d) => match Duration::try_from_secs_f64(d) {
            Ok(limit) if !limit.is_zero() => Ok(Budget::with_deadline(limit)),
            _ => Err(CliError::usage("--deadline must be positive seconds")),
        },
    }
}

/// One summary line for a run that stopped early: the cause is the
/// deadline when one was given, else an interrupt (SIGINT/SIGTERM).
fn degradation_note(out: &mut String, result: &puffer::FlowResult, deadline: bool) {
    if !result.cancelled {
        return;
    }
    let cause = if deadline { "deadline" } else { "interrupted" };
    let steps: Vec<&str> = result.degradation.iter().map(|s| s.as_str()).collect();
    let steps = if steps.is_empty() {
        "none".to_string()
    } else {
        steps.join(",")
    };
    let _ = writeln!(
        out,
        "{cause}: stopped early at iteration {} (degradation: {steps}); \
         placement is the legalized best-so-far",
        result.gp_iterations
    );
}

fn cmd_place(flags: &Flags, out: &mut String) -> Result<(), CliError> {
    // A usage error, so checked before anything is read.
    let name = flags.get("flow").unwrap_or_default();
    let flow =
        Flow::from_name(name).ok_or_else(|| CliError::usage(format!("unknown flow '{name}'")))?;
    let output: String = flags.value("o")?;
    let max_iters: Option<usize> = flags.get_parsed("max-iters")?;
    let threads: Option<usize> = flags.get_parsed("threads")?;
    let every: usize = flags.value("checkpoint-every")?;
    let resume = flags.get("resume");
    // SIGINT/SIGTERM cancel the flow cooperatively: the run checkpoints
    // (under --journal), legalizes the best-so-far state, writes it, and
    // exits cleanly — never dies mid-write.
    let budget = deadline_budget(flags)?.with_token(CancelToken::cancel_on_signal());
    let trace = open_trace(flags)?;
    let design = load_design(&flags.positional[0])?;
    let mut job = flow.job(max_iters, threads).with_budget(budget);
    if let Some(t) = &trace {
        job = job.with_trace(t.clone());
    }
    if flags.has("validate") {
        job = job.with_observer(flow_validator());
    }
    // Resume keeps journaling: to --journal when given, else back to the
    // journal it resumed from.
    if let Some(path) = flags.get("journal").or(resume) {
        job = job.with_checkpoints(CheckpointPolicy {
            path: path.into(),
            every,
            keep_history: false,
        });
    }
    let result = if let Some(from) = resume {
        let checkpoint = FlowCheckpoint::load(Path::new(from))
            .map_err(|e| CliError::run(format!("cannot resume from {from}: {e}")))?;
        job.run_from(&design, checkpoint)
    } else {
        job.run(&design)
    }
    .map_err(|e| CliError::run(format!("placement failed: {e}")))?;
    finish_trace(&trace, flags)?;
    let mut buf = Vec::new();
    write_placement(&result.placement, &mut buf)
        .map_err(|e| CliError::run(format!("write failed: {e}")))?;
    fsx::atomic_write(Path::new(&output), &buf)
        .map_err(|e| CliError::run(format!("cannot write {output}: {e}")))?;
    let _ = writeln!(
        out,
        "wrote {} (HPWL {:.0}, {} GP iterations, {} padding rounds, {:.1}s)",
        output, result.hpwl, result.gp_iterations, result.pad_rounds, result.runtime_s
    );
    degradation_note(out, &result, flags.has("deadline"));
    Ok(())
}

fn cmd_eval(flags: &Flags, out: &mut String) -> Result<(), CliError> {
    let (design_path, placement_path) = (&flags.positional[0], &flags.positional[1]);
    // SIGINT/SIGTERM stop refinement cooperatively between rip-up rounds;
    // the report then describes the best routing so far.
    let budget = deadline_budget(flags)?.with_token(CancelToken::cancel_on_signal());
    let design = load_design(design_path)?;
    let placement = load_placement(placement_path, design.netlist().num_cells())?;
    let mut router_cfg = RouterConfig::default();
    router_cfg.threads = flags.get_parsed("threads")?.unwrap_or(router_cfg.threads);
    let trace = open_trace(flags)?;
    let report = evaluate_bounded(
        &design,
        &placement,
        &router_cfg,
        &budget,
        trace.as_ref().unwrap_or(&Trace::disabled()),
    )
    .map_err(|e| CliError::run(format!("cannot evaluate {placement_path}: {e}")))?;
    finish_trace(&trace, flags)?;
    if flags.has("validate") {
        design
            .validate()
            .map_err(|r| CliError::run(r.to_string()))?;
        report
            .congestion
            .validate()
            .map_err(|r| CliError::run(r.to_string()))?;
        let _ = writeln!(
            out,
            "validate OK: design and congestion map invariants hold"
        );
    }
    let _ = writeln!(
        out,
        "HOF {:.2}%  VOF {:.2}%  WL {:.0}  ({} overflowed Gcells; 1%-criterion: {})",
        report.hof_pct,
        report.vof_pct,
        report.wirelength,
        report.overflow_gcells,
        if report.passes() { "PASS" } else { "FAIL" }
    );
    if flags.has("layers") {
        let assignment = assign_layers(&design, &report.paths, report.congestion.h_capacity());
        let _ = writeln!(out, "layer assignment ({} vias):", assignment.vias);
        for l in &assignment.layers {
            let _ = writeln!(
                out,
                "  {:<4} {}  usage {:>10.1}  overflow {:>6.3}%",
                l.name,
                l.direction,
                l.usage.sum(),
                l.overflow_ratio * 100.0
            );
        }
    }
    if let Some(dir) = flags.get("maps") {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::run(format!("cannot create {dir}: {e}")))?;
        for (horizontal, tag) in [(true, "h"), (false, "v")] {
            let base = Path::new(dir).join(format!("congestion_{tag}"));
            fsx::atomic_write(
                &base.with_extension("csv"),
                report.congestion.to_csv(horizontal).as_bytes(),
            )
            .map_err(|e| CliError::run(format!("write failed: {e}")))?;
            fsx::atomic_write(
                &base.with_extension("pgm"),
                &report.congestion.to_pgm(horizontal),
            )
            .map_err(|e| CliError::run(format!("write failed: {e}")))?;
        }
        let _ = writeln!(out, "wrote congestion maps to {dir}/");
    }
    Ok(())
}

/// Every span path a PUFFER `place` run emits: the first three always, the
/// padding rounds' when one fires, and the checkpoint writes' under
/// `--journal` (in the loop, and the final one).
const STAGE_SPANS: [&str; 6] = ["init", "gp", "legal", "gp/pad", "gp/journal", "journal"];

/// `puffer trace <run.jsonl>` — audits a telemetry file
/// ([`audit_metrics`]) and prints the record inventory. With `--check` it
/// additionally requires the stage spans and per-iteration records a
/// complete `place --metrics` run emits, and no span outside
/// [`STAGE_SPANS`] (this is what the CI metrics smoke step calls).
fn cmd_trace(flags: &Flags, out: &mut String) -> Result<(), CliError> {
    let path = &flags.positional[0];
    audit_metrics(Path::new(path)).map_err(|report| CliError::run(format!("invalid {report}")))?;
    let records = puffer_trace::read_jsonl(Path::new(path))
        .map_err(|e| CliError::run(format!("invalid metrics file {path}: {e}")))?;
    if records.is_empty() {
        return Err(CliError::run(format!("{path}: no telemetry records")));
    }
    // The audit guarantees every record a kind.
    let mut kinds: Vec<(&str, usize)> = Vec::new();
    for kind in records.iter().filter_map(|r| r.kind()) {
        match kinds.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => kinds.push((kind, 1)),
        }
    }
    for (k, n) in &kinds {
        let _ = writeln!(out, "{k:<16} {n:>7}");
    }
    let _ = writeln!(out, "{:<16} {:>7}", "total", records.len());
    if flags.has("check") {
        let span_labels: Vec<&str> = records
            .iter()
            .filter(|r| r.kind() == Some("span"))
            .filter_map(|r| r.str_field("label"))
            .collect();
        for stage in &STAGE_SPANS[..3] {
            if !span_labels.contains(stage) {
                return Err(CliError::run(format!(
                    "{path}: missing stage span '{stage}'"
                )));
            }
        }
        if let Some(label) = span_labels.iter().find(|l| !STAGE_SPANS.contains(l)) {
            return Err(CliError::run(format!(
                "{path}: unknown stage span '{label}'"
            )));
        }
        for kind in ["place.iter", "flow.done"] {
            if !kinds.iter().any(|(k, _)| *k == kind) {
                return Err(CliError::run(format!("{path}: missing {kind} records")));
            }
        }
        let _ = writeln!(out, "check OK: stage spans and flow records complete");
    }
    Ok(())
}

fn cmd_draw(flags: &Flags, out: &mut String) -> Result<(), CliError> {
    let (design_path, placement_path) = (&flags.positional[0], &flags.positional[1]);
    let output: String = flags.value("o")?;
    let design = load_design(design_path)?;
    let placement = load_placement(placement_path, design.netlist().num_cells())?;
    let svg = puffer_db::svg::render_svg(
        &design,
        &placement,
        &puffer_db::svg::SvgOptions {
            draw_rows: flags.has("rows"),
            ..puffer_db::svg::SvgOptions::default()
        },
    );
    fsx::atomic_write(Path::new(&output), svg.as_bytes())
        .map_err(|e| CliError::run(format!("write failed: {e}")))?;
    let _ = writeln!(out, "wrote {output}");
    Ok(())
}

fn cmd_refine(flags: &Flags, out: &mut String) -> Result<(), CliError> {
    let (design_path, placement_path) = (&flags.positional[0], &flags.positional[1]);
    let output: String = flags.value("o")?;
    let budget = deadline_budget(flags)?;
    let design = load_design(design_path)?;
    let placement = load_placement(placement_path, design.netlist().num_cells())?;
    let zeros = vec![0u32; design.netlist().num_cells()];
    // Size-aware windowing: huge designs refine with a narrow window and a
    // single pass so detailed placement stays linear-ish in cell count.
    let class = ScaleClass::classify(design.netlist().num_cells());
    let dp_config = DetailedConfig {
        window: class.dp_window(),
        max_passes: class.dp_passes(),
    };
    let congestion = if flags.has("guard") {
        let report = evaluate_bounded(
            &design,
            &placement,
            &RouterConfig::default(),
            &Budget::unbounded(),
            &Trace::disabled(),
        )
        .map_err(|e| CliError::run(format!("cannot evaluate {placement_path}: {e}")))?;
        Some(report.congestion)
    } else {
        None
    };
    let outcome = refine_bounded(
        &design,
        &placement,
        &zeros,
        &dp_config,
        congestion.as_ref(),
        &budget,
    )
    .map_err(|e| CliError::run(format!("refinement failed: {e}")))?;
    let mut buf = Vec::new();
    write_placement(&outcome.placement, &mut buf)
        .map_err(|e| CliError::run(format!("write failed: {e}")))?;
    fsx::atomic_write(Path::new(&output), &buf)
        .map_err(|e| CliError::run(format!("cannot write {output}: {e}")))?;
    let _ = writeln!(
        out,
        "wrote {} (HPWL {:.0} -> {:.0}, {} moves)",
        output, outcome.hpwl_before, outcome.hpwl_after, outcome.moves
    );
    Ok(())
}

/// `puffer explore <design.pd>` — SMBO strategy exploration (§III-C) over
/// the padding-parameter space. Each trial runs a short PUFFER flow with
/// the candidate strategy and scores it by routed overflow; `--deadline`
/// bounds the whole search cooperatively, and the degradation ladder caps
/// the remaining trials as it nears.
fn cmd_explore(flags: &Flags, out: &mut String) -> Result<(), CliError> {
    let trials: usize = flags.value("trials")?;
    let max_iters: usize = flags.value("max-iters")?;
    let budget = deadline_budget(flags)?;
    let design = load_design(&flags.positional[0])?;
    let trace = open_trace(flags)?;
    let space = puffer::strategy_space();
    let config = ExplorationConfig {
        max_evals: trials,
        ..ExplorationConfig::default()
    };
    let objective = |values: &[f64]| -> f64 {
        let mut cfg = PufferConfig::default();
        cfg.placer.max_iters = max_iters;
        cfg.strategy = puffer::tuned_strategy(&space, values);
        // Trials share the search budget, so a mid-trial expiry returns the
        // trial's best-so-far quickly instead of overrunning the deadline.
        // Non-finite objectives are counted as failed trials.
        let Ok(result) = Job::new(cfg).with_budget(budget.clone()).run(&design) else {
            return f64::NAN;
        };
        evaluate_bounded(
            &design,
            &result.placement,
            &RouterConfig::default(),
            &Budget::unbounded(),
            &Trace::disabled(),
        )
        .map_or(f64::NAN, |report| report.hof_pct + report.vof_pct)
    };
    let outcome = explore_params_bounded(
        &space,
        objective,
        &config,
        trace.as_ref().unwrap_or(&Trace::disabled()),
        &budget,
    )
    .map_err(|e| CliError::run(format!("exploration failed: {e}")))?;
    finish_trace(&trace, flags)?;
    let _ = writeln!(
        out,
        "explore: best overflow score {:.4} after {} trial(s) ({} failed{})",
        outcome.best_value,
        outcome.evals,
        outcome.failed_trials,
        if outcome.stopped_early {
            ", stopped early"
        } else {
            ""
        }
    );
    // The strategy the best trial ran with — `PaddingStrategy::apply`
    // clamps `pu_high` up to `pu_low` — so these values reproduce the score.
    let best = puffer::tuned_strategy(&space, &outcome.best);
    for (i, value) in best.alpha.iter().enumerate() {
        let _ = writeln!(out, "  {:<24} {value:.4}", format!("alpha{i}"));
    }
    for (name, value) in [
        ("beta", best.beta),
        ("mu", best.mu),
        ("zeta", best.zeta),
        ("pu_low", best.pu_low),
        ("pu_high", best.pu_high),
        ("tau", best.tau),
        ("eta", best.eta),
        ("theta", best.theta),
    ] {
        let _ = writeln!(out, "  {name:<24} {value:.4}");
    }
    Ok(())
}

/// `puffer serve` — the long-running job daemon.
///
/// It accepts newline-delimited JSON requests (`submit`, `cancel`,
/// `status`, `wait`, `ping`, `drain`, `shutdown`) over TCP (`--listen`) or
/// stdin (`--stdin`), runs jobs on a bounded worker pool with per-job
/// journals under `--journal-dir`, and re-enqueues interrupted jobs on the
/// next start. SIGINT/SIGTERM drain gracefully.
fn cmd_serve(flags: &Flags, out: &mut String) -> Result<(), CliError> {
    let listen = flags.get("listen");
    if listen.is_some() == flags.has("stdin") {
        return Err(CliError::usage(
            "serve needs exactly one of --listen <addr> or --stdin",
        ));
    }
    let cfg = ServeConfig {
        workers: flags.value("workers")?,
        queue_capacity: flags.value("queue")?,
        journal_dir: flags.value::<String>("journal-dir")?.into(),
        checkpoint_every: flags.value("checkpoint-every")?,
        ..ServeConfig::default()
    };
    let summary = if let Some(addr) = listen {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| CliError::run(format!("cannot listen on {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| CliError::run(format!("cannot resolve listen address: {e}")))?;
        // SIGINT/SIGTERM drain the daemon: stop admitting, finish every
        // accepted job, exit.
        let signal = CancelToken::cancel_on_signal();
        let outcome = Engine::run(cfg, |h| {
            // Announce readiness on stdout *now*, before blocking in the
            // accept loop — clients (and the integration test) parse this
            // line to learn the bound port under `--listen 127.0.0.1:0`.
            let ready = JsonLine::new("serve.ready")
                .str("addr", &local.to_string())
                .int("workers", h.workers() as i64)
                .int("queue", h.capacity() as i64)
                .finish();
            println!("{ready}");
            let _ = std::io::stdout().flush();
            serve_listener(h, &listener, &signal)
        })
        .map_err(|e| CliError::run(format!("serve failed: {e}")))?
        .map_err(|e| CliError::run(format!("serve transport failed: {e}")))?;
        match outcome {
            ServerOutcome::Drained => "drained (all accepted jobs completed)",
            ServerOutcome::Shutdown => "shutdown (interrupted jobs are resumable)",
            ServerOutcome::Signalled => "signalled, drained (all accepted jobs completed)",
        }
    } else {
        let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
        let action = Engine::run(cfg, |h| serve_lines(h, stdin.lock(), stdout.lock()))
            .map_err(|e| CliError::run(format!("serve failed: {e}")))?
            .map_err(|e| CliError::run(format!("serve transport failed: {e}")))?;
        match action {
            Action::Shutdown => "shutdown (interrupted jobs are resumable)",
            _ => "drained (all accepted jobs completed)",
        }
    };
    let _ = writeln!(out, "serve: {summary}");
    Ok(())
}

/// `puffer lint [--root <dir>] [--json]` — runs the structural policy
/// check (see [`puffer_audit::lint`]) and exits non-zero on any finding.
/// This is the CI gate beside `scripts/policy.sh`. With `--json` the
/// findings come out as JSONL (one flat object per line) and the human
/// summary line is suppressed, for tooling that consumes the gate.
fn cmd_lint(flags: &Flags, out: &mut String) -> Result<(), CliError> {
    let report = lint_workspace(&LintConfig {
        root: flags.value::<String>("root")?.into(),
    })
    .map_err(|e| CliError::run(format!("lint failed: {e}")))?;
    if flags.has("json") {
        out.push_str(&report.json_lines());
    } else {
        for finding in &report.findings {
            let _ = writeln!(out, "{finding}");
        }
        let _ = writeln!(
            out,
            "lint: {} crate roots in {} crates, {} finding(s)",
            report.files_scanned,
            report.crates_scanned,
            report.findings.len()
        );
    }
    if report.findings.is_empty() {
        Ok(())
    } else {
        Err(CliError::run(format!(
            "{} lint finding(s)",
            report.findings.len()
        )))
    }
}

/// `puffer audit <design|journal|run> <files..>` — deep invariant
/// verification of on-disk artifacts (see [`puffer_audit::validate`]).
fn cmd_audit(flags: &Flags, out: &mut String) -> Result<(), CliError> {
    let positional: Vec<&str> = flags.positional.iter().map(String::as_str).collect();
    match positional.as_slice() {
        ["design", path] => {
            let design = load_design(path)?;
            design
                .validate()
                .map_err(|r| CliError::run(r.to_string()))?;
            let s = design.stats();
            let _ = writeln!(
                out,
                "audit OK: design '{}' ({} cells, {} nets, {} pins)",
                design.name(),
                s.movable_cells,
                s.nets,
                s.movable_pins
            );
            Ok(())
        }
        ["journal", path, rest @ ..] if rest.len() <= 1 => {
            let checkpoint = FlowCheckpoint::load(Path::new(path))
                .map_err(|e| CliError::run(format!("cannot read {path}: {e}")))?;
            checkpoint
                .validate()
                .map_err(|r| CliError::run(r.to_string()))?;
            if let [design_path] = rest {
                let design = load_design(design_path)?;
                checkpoint
                    .matches(&design)
                    .map_err(|e| CliError::run(format!("journal does not fit the design: {e}")))?;
            }
            let _ = writeln!(
                out,
                "audit OK: checkpoint of '{}' at iteration {} ({} cells)",
                checkpoint.design_name, checkpoint.placer.iter, checkpoint.num_cells
            );
            Ok(())
        }
        ["run", journal, metrics] => {
            let summary = audit_run(Path::new(journal), Path::new(metrics))
                .map_err(|r| CliError::run(r.to_string()))?;
            let _ = writeln!(
                out,
                "audit OK: journal and metrics are consistent ({} records)",
                summary.records
            );
            Ok(())
        }
        _ => Err(CliError::usage(flags.cmd.help())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("puffer-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_commands() {
        let mut out = String::new();
        run(&strs(&["help"]), &mut out).unwrap();
        assert!(out.contains("usage:"));
        // `chaos` is a test target (`tests/chaos.rs`), not a command.
        for name in ["bogus", "chaos"] {
            let err = run(&strs(&[name]), &mut String::new()).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(err.message.contains("unknown command"), "{}", err.message);
        }
        let err = run(&[], &mut String::new()).unwrap_err();
        assert_eq!(err.code, 2);
    }

    /// `cmd`'s section of the full help text.
    fn help_section(cmd: &str) -> String {
        let mut out = String::new();
        run(&strs(&["help"]), &mut out).unwrap();
        let start = out.find(&format!("  puffer {cmd}")).unwrap();
        let rest = &out[start + 1..];
        rest[..rest.find("  puffer ").unwrap_or(rest.len())].to_string()
    }

    #[test]
    fn explore_help_lists_trace_summary() {
        let mut out = String::new();
        run(&strs(&["explore", "--help"]), &mut out).unwrap();
        assert!(out.contains("--trace-summary"), "{out}");
        assert!(help_section("explore").contains("--trace-summary"));
    }

    #[test]
    fn every_command_help_names_each_of_its_rows() {
        for cmd in COMMANDS {
            let mut out = String::new();
            run(&strs(&[cmd.name, "--help"]), &mut out)
                .unwrap_or_else(|e| panic!("{} --help: {e}", cmd.name));
            assert_eq!(out, cmd.help());
            assert!(help_section(cmd.name).contains(cmd.about), "{}", cmd.name);
            for arg in cmd.args {
                assert!(out.contains(arg), "{} --help misses {arg}: {out}", cmd.name);
            }
            for flag in cmd.flags {
                let row = format!("{} {}", flag.spelled(), flag.value);
                assert!(
                    out.contains(&row),
                    "{} --help misses {row}: {out}",
                    cmd.name
                );
                assert!(
                    out.contains(flag.help),
                    "{} --help misses {row}'s help",
                    cmd.name
                );
            }
        }
    }

    /// The words of every `<program> <cmd> …` line in `text` (continuation
    /// lines joined), cut at a comment, pipe or redirect. With `fenced`,
    /// only lines inside fenced code blocks count.
    fn invocations(text: &str, program: &str, fenced: bool) -> Vec<Vec<String>> {
        let joined = text.replace("\\\n", " ");
        let mut in_fence = false;
        let mut found = Vec::new();
        for line in joined.lines() {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                continue;
            }
            let mut words = line.split_whitespace();
            if (fenced && !in_fence) || words.next() != Some(program) {
                continue;
            }
            let words = words.take_while(|w| !["#", "|", ">", "2>&1"].contains(w));
            found.push(words.map(str::to_string).collect());
        }
        found
    }

    #[test]
    fn readme_and_ci_name_only_declared_flags() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
        let ci = std::fs::read_to_string(root.join("scripts/ci.sh")).unwrap();
        let mut lines = invocations(&readme, "puffer", true);
        let from_readme = lines.len();
        lines.extend(invocations(&ci, "\"$PUFFER\"", false));
        assert!(
            from_readme > 20 && lines.len() > from_readme + 10,
            "{lines:?}"
        );
        for words in &lines {
            let cmd = COMMANDS
                .iter()
                .find(|c| Some(c.name) == words.first().map(String::as_str))
                .unwrap_or_else(|| panic!("unknown command in {words:?}"));
            for word in words {
                let Some(name) = word.strip_prefix("--").or_else(|| word.strip_prefix('-')) else {
                    continue;
                };
                assert!(
                    cmd.flag(name).is_some(),
                    "{words:?}: {word} is no row of {}",
                    cmd.name
                );
            }
        }
    }

    #[test]
    fn gen_requires_output_and_validates_preset() {
        let err = run(&strs(&["gen", "--preset", "or1200"]), &mut String::new()).unwrap_err();
        assert!(err.message.contains("-o"));
        let err = run(
            &strs(&["gen", "--preset", "nope", "-o", &tmp("x.pd")]),
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.message.contains("unknown preset"));
    }

    #[test]
    fn full_pipeline_gen_stats_place_eval_refine() {
        let design_path = tmp("pipe.pd");
        let placed_path = tmp("pipe.pl");
        let refined_path = tmp("pipe_ref.pl");
        let mut out = String::new();
        run(
            &strs(&[
                "gen",
                "--cells",
                "300",
                "--nets",
                "330",
                "--macros",
                "1",
                "--utilization",
                "0.6",
                "-o",
                &design_path,
            ]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("300 cells"));

        let mut out = String::new();
        run(&strs(&["stats", &design_path]), &mut out).unwrap();
        assert!(out.contains("#Cells    : 300"));

        let mut out = String::new();
        run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &placed_path,
                "--max-iters",
                "120",
            ]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("HPWL"));

        let mut out = String::new();
        run(&strs(&["eval", &design_path, &placed_path]), &mut out).unwrap();
        assert!(out.contains("HOF"));

        let mut out = String::new();
        run(
            &strs(&["refine", &design_path, &placed_path, "-o", &refined_path]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("->"));
        assert!(std::path::Path::new(&refined_path).exists());
    }

    #[test]
    fn convert_imports_bookshelf() {
        let dir = std::env::temp_dir().join("puffer-cli-bookshelf");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("t.nodes"), "UCLA nodes 1.0\na 2 1\nb 2 1\n").unwrap();
        std::fs::write(
            dir.join("t.nets"),
            "UCLA nets 1.0\nNetDegree : 2 n0\n a I : 0 0\n b O : 0 0\n",
        )
        .unwrap();
        std::fs::write(dir.join("t.pl"), "UCLA pl 1.0\na 0 0 : N\nb 4 0 : N\n").unwrap();
        let scl: String = (0..10)
            .map(|i| {
                format!(
                    "CoreRow Horizontal\n Coordinate : {i}\n Height : 1\n Sitewidth : 1\n \
                     SubrowOrigin : 0 NumSites : 20\nEnd\n"
                )
            })
            .collect();
        std::fs::write(dir.join("t.scl"), scl).unwrap();
        std::fs::write(
            dir.join("t.aux"),
            "RowBasedPlacement : t.nodes t.nets t.pl t.scl\n",
        )
        .unwrap();
        let out_pd = dir.join("t.pd");
        let mut out = String::new();
        run(
            &strs(&[
                "convert",
                dir.join("t.aux").to_str().unwrap(),
                "-o",
                out_pd.to_str().unwrap(),
            ]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("2 cells"));
        // The converted design is loadable by every other subcommand.
        let mut stats_out = String::new();
        run(&strs(&["stats", out_pd.to_str().unwrap()]), &mut stats_out).unwrap();
        assert!(stats_out.contains("#Cells    : 2"));
    }

    #[test]
    fn eval_writes_maps() {
        let design_path = tmp("maps.pd");
        let placed_path = tmp("maps.pl");
        let maps_dir = tmp("maps_out");
        run(
            &strs(&["gen", "--cells", "200", "-o", &design_path]),
            &mut String::new(),
        )
        .unwrap();
        run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &placed_path,
                "--max-iters",
                "60",
            ]),
            &mut String::new(),
        )
        .unwrap();
        let mut out = String::new();
        run(
            &strs(&["eval", &design_path, &placed_path, "--maps", &maps_dir]),
            &mut out,
        )
        .unwrap();
        assert!(Path::new(&maps_dir).join("congestion_h.csv").exists());
        assert!(Path::new(&maps_dir).join("congestion_v.pgm").exists());
    }

    #[test]
    fn eval_rejects_a_non_finite_placement_naming_the_cell() {
        let design_path = tmp("nonfinite.pd");
        run(
            &strs(&["gen", "--cells", "80", "-o", &design_path]),
            &mut String::new(),
        )
        .unwrap();
        let design = load_design(&design_path).unwrap();
        // Unlisted cells default to the origin, so one line is a whole .pl.
        for (index, line) in [(0u32, "place 0 nan 0\n"), (3, "place 3 1.5 inf\n")] {
            let placed_path = tmp("nonfinite.pl");
            std::fs::write(&placed_path, line).unwrap();
            let err = run(
                &strs(&["eval", &design_path, &placed_path]),
                &mut String::new(),
            )
            .unwrap_err();
            assert_eq!(err.code, 1, "{err}");
            let name = &design.netlist().cell(puffer_db::CellId(index)).name;
            assert!(err.message.contains(&format!("'{name}'")), "{err}");
            assert_eq!(err.message.lines().count(), 1, "{err}");
        }
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = run(
            &strs(&["gen", "--cells", "100", "--wat", "3", "-o", &tmp("y.pd")]),
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.message.contains("unknown flag"));
        assert_eq!(err.code, 2);
    }

    #[test]
    fn bad_numeric_values_are_reported() {
        let err = run(
            &strs(&["gen", "--cells", "abc", "-o", &tmp("z.pd")]),
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.message.contains("cannot parse"));
        // Parseable but out of range: a runtime error naming the field
        // (these two panicked inside the generator).
        for utilization in ["0", "5"] {
            let err = run(
                &strs(&[
                    "gen",
                    "--cells",
                    "10",
                    "--utilization",
                    utilization,
                    "-o",
                    &tmp("z.pd"),
                ]),
                &mut String::new(),
            )
            .unwrap_err();
            assert_eq!(err.code, 1);
            assert!(err.message.contains("utilization"), "{}", err.message);
        }
    }

    #[test]
    fn place_journal_and_resume_roundtrip() {
        let design_path = tmp("ckpt.pd");
        let placed_path = tmp("ckpt.pl");
        let resumed_path = tmp("ckpt_resumed.pl");
        let journal_path = tmp("ckpt.pj");
        run(
            &strs(&["gen", "--cells", "200", "-o", &design_path]),
            &mut String::new(),
        )
        .unwrap();
        let mut out = String::new();
        run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &placed_path,
                "--max-iters",
                "80",
                "--journal",
                &journal_path,
                "--checkpoint-every",
                "20",
            ]),
            &mut out,
        )
        .unwrap();
        assert!(Path::new(&journal_path).exists(), "journal not written");

        // Resuming from the final checkpoint reproduces the placement file.
        let mut out = String::new();
        run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &resumed_path,
                "--max-iters",
                "80",
                "--resume",
                &journal_path,
            ]),
            &mut out,
        )
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&placed_path).unwrap(),
            std::fs::read_to_string(&resumed_path).unwrap(),
            "resumed run diverged from the original"
        );
    }

    #[test]
    fn place_metrics_produces_a_checkable_trace() {
        let design_path = tmp("metrics.pd");
        let placed_path = tmp("metrics.pl");
        let metrics_path = tmp("metrics.jsonl");
        run(
            &strs(&["gen", "--cells", "200", "-o", &design_path]),
            &mut String::new(),
        )
        .unwrap();
        run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &placed_path,
                "--max-iters",
                "80",
                "--threads",
                "2",
                "--metrics",
                &metrics_path,
                "--trace-summary",
            ]),
            &mut String::new(),
        )
        .unwrap();

        // The validator accepts the file and sees the full stage set.
        let mut out = String::new();
        run(&strs(&["trace", &metrics_path, "--check"]), &mut out).unwrap();
        assert!(out.contains("place.iter"), "{out}");
        assert!(out.contains("flow.done"), "{out}");
        assert!(out.contains("check OK"), "{out}");

        // A span no place run emits fails the check.
        let renamed = tmp("metrics_unknown_span.jsonl");
        let mut text = std::fs::read_to_string(&metrics_path).unwrap();
        text.push_str(
            "{\"t\":\"span\",\"elapsed_s\":9.0,\"label\":\"gp/journaling\",\"count\":1}\n",
        );
        std::fs::write(&renamed, text).unwrap();
        let err = run(&strs(&["trace", &renamed, "--check"]), &mut String::new()).unwrap_err();
        assert!(
            err.message.contains("unknown stage span 'gp/journaling'"),
            "{}",
            err.message
        );

        // eval shares the trace plumbing via evaluate_bounded.
        let eval_metrics = tmp("metrics_eval.jsonl");
        run(
            &strs(&[
                "eval",
                &design_path,
                &placed_path,
                "--threads",
                "2",
                "--metrics",
                &eval_metrics,
            ]),
            &mut String::new(),
        )
        .unwrap();
        let mut out = String::new();
        run(&strs(&["trace", &eval_metrics]), &mut out).unwrap();
        assert!(out.contains("route.done"), "{out}");
    }

    #[test]
    fn trace_rejects_garbage_and_zero_threads_are_usage_errors() {
        let bad = tmp("bad.jsonl");
        std::fs::write(&bad, "not json at all\n").unwrap();
        let err = run(&strs(&["trace", &bad]), &mut String::new()).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            err.message.contains("invalid metrics file"),
            "{}",
            err.message
        );

        let err = run(
            &strs(&["place", "x.pd", "-o", "y.pl", "--threads", "0"]),
            &mut String::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--threads"), "{}", err.message);
    }

    #[test]
    fn metrics_flags_apply_to_baseline_flows() {
        let design_path = tmp("baseline_metrics.pd");
        let metrics_path = tmp("baseline_metrics.jsonl");
        run(
            &strs(&["gen", "--cells", "200", "-o", &design_path]),
            &mut String::new(),
        )
        .unwrap();
        run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &tmp("baseline_metrics.pl"),
                "--flow",
                "reference",
                "--max-iters",
                "120",
                "--metrics",
                &metrics_path,
            ]),
            &mut String::new(),
        )
        .unwrap();
        let mut out = String::new();
        run(&strs(&["trace", &metrics_path, "--check"]), &mut out).unwrap();
        assert!(out.contains("check OK"), "{out}");
    }

    #[test]
    fn place_resume_from_garbage_fails_cleanly() {
        let design_path = tmp("ckpt_bad.pd");
        run(
            &strs(&["gen", "--cells", "100", "-o", &design_path]),
            &mut String::new(),
        )
        .unwrap();
        let bad = tmp("bad.pj");
        std::fs::write(&bad, "definitely not a checkpoint\n").unwrap();
        let err = run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &tmp("ckpt_bad.pl"),
                "--resume",
                &bad,
            ]),
            &mut String::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("cannot resume"), "{}", err.message);
    }

    #[test]
    fn place_resume_from_a_scribbled_journal_fails_cleanly() {
        let design_path = tmp("ckpt_scribbled.pd");
        let journal_path = tmp("ckpt_scribbled.pj");
        let placed_path = tmp("ckpt_scribbled.pl");
        run(
            &strs(&["gen", "--cells", "200", "-o", &design_path]),
            &mut String::new(),
        )
        .unwrap();
        let place = |extra: &[&str]| {
            let mut args = vec![
                "place",
                &design_path,
                "-o",
                &placed_path,
                "--max-iters",
                "80",
            ];
            args.extend_from_slice(extra);
            run(&strs(&args), &mut String::new())
        };
        place(&["--journal", &journal_path]).unwrap();

        // Still parses as a journal, but the optimizer's utilization is NaN
        // (a journal float is the hex of its bits).
        let journal = std::fs::read_to_string(&journal_path).unwrap();
        let scribbled: Vec<&str> = journal
            .lines()
            .map(|l| {
                if l.starts_with("pad_util ") {
                    "pad_util 7ff8000000000000"
                } else {
                    l
                }
            })
            .collect();
        std::fs::write(&journal_path, scribbled.join("\n") + "\n").unwrap();

        let err = place(&["--resume", &journal_path]).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            err.message.contains("resume failed: pad_util"),
            "{}",
            err.message
        );
    }

    #[test]
    fn journal_flags_require_puffer_flow() {
        let err = run(
            &strs(&[
                "place",
                "x.pd",
                "-o",
                "y.pl",
                "--flow",
                "reference",
                "--journal",
                "z.pj",
            ]),
            &mut String::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--flow puffer"), "{}", err.message);
    }

    #[test]
    fn place_rejects_unknown_flow() {
        let design_path = tmp("flow.pd");
        run(
            &strs(&["gen", "--cells", "100", "-o", &design_path]),
            &mut String::new(),
        )
        .unwrap();
        let err = run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &tmp("flow.pl"),
                "--flow",
                "magic",
            ]),
            &mut String::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown flow"));
        // The flow is checked before the design is read: a missing design
        // is still a usage error, not a failed run.
        let err = run(
            &strs(&[
                "place",
                &tmp("no-such-design.pd"),
                "-o",
                &tmp("flow.pl"),
                "--flow",
                "magic",
            ]),
            &mut String::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
        assert!(err.message.contains("unknown flow"), "{}", err.message);
        // ... and before the flags that only a PUFFER run takes.
        let err = run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &tmp("flow.pl"),
                "--flow",
                "magic",
                "--journal",
                &tmp("flow.pj"),
            ]),
            &mut String::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
        assert!(err.message.contains("unknown flow"), "{}", err.message);
    }

    #[test]
    fn validate_flag_runs_the_flow_observers() {
        let design_path = tmp("val.pd");
        let placed_path = tmp("val.pl");
        let mut out = String::new();
        run(
            &strs(&["gen", "--cells", "220", "--nets", "240", "-o", &design_path]),
            &mut out,
        )
        .unwrap();
        run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &placed_path,
                "--validate",
                "--max-iters",
                "50",
            ]),
            &mut out,
        )
        .expect("a validated flow on a healthy design must pass");

        let mut out = String::new();
        run(
            &strs(&["eval", &design_path, &placed_path, "--validate"]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("validate OK"), "{out}");
    }

    #[test]
    fn audit_command_checks_artifacts() {
        let design_path = tmp("audit.pd");
        let placed_path = tmp("audit.pl");
        let journal_path = tmp("audit.pj");
        let metrics_path = tmp("audit.jsonl");
        let mut out = String::new();
        run(
            &strs(&["gen", "--cells", "220", "--nets", "240", "-o", &design_path]),
            &mut out,
        )
        .unwrap();
        run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &placed_path,
                "--max-iters",
                "50",
                "--journal",
                &journal_path,
                "--metrics",
                &metrics_path,
            ]),
            &mut out,
        )
        .unwrap();

        let mut out = String::new();
        run(&strs(&["audit", "design", &design_path]), &mut out).unwrap();
        run(
            &strs(&["audit", "journal", &journal_path, &design_path]),
            &mut out,
        )
        .unwrap();
        run(
            &strs(&["audit", "run", &journal_path, &metrics_path]),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.matches("audit OK").count(), 3, "{out}");
        // A metrics file alone is `puffer trace`'s to check.
        run(&strs(&["trace", &metrics_path]), &mut out).unwrap();
        let err = run(
            &strs(&["audit", "metrics", &metrics_path]),
            &mut String::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);

        // Corrupt the metrics file; the check must fail with exit code 1.
        std::fs::write(
            &metrics_path,
            "{\"t\":\"place.iter\",\"elapsed_s\":0.1,\"iter\":0}\n",
        )
        .unwrap();
        let err = run(&strs(&["trace", &metrics_path]), &mut String::new()).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            err.message.contains("place.iter record 0 has invalid iter"),
            "{}",
            err.message
        );

        let err = run(&strs(&["audit", "bogus"]), &mut String::new()).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn lint_rejects_a_non_workspace_root() {
        let dir = std::env::temp_dir()
            .join("puffer-cli-tests")
            .join("empty-root");
        std::fs::create_dir_all(&dir).unwrap();
        let err = run(
            &strs(&["lint", "--root", dir.to_str().unwrap()]),
            &mut String::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("lint failed"), "{}", err.message);
    }

    #[test]
    fn lint_json_emits_jsonl_findings_without_the_summary_line() {
        // A minimal one-crate workspace whose root lacks forbid(unsafe_code).
        let root = std::env::temp_dir()
            .join("puffer-cli-tests")
            .join("lint-json");
        let _ = std::fs::remove_dir_all(&root);
        let src = root.join("crates").join("db").join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            root.join("crates").join("db").join("Cargo.toml"),
            "[package]\nname = \"puffer-db\"\n",
        )
        .unwrap();
        std::fs::write(src.join("lib.rs"), "pub fn ok() {}\n").unwrap();

        let mut out = String::new();
        let err = run(
            &strs(&["lint", "--root", root.to_str().unwrap(), "--json"]),
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err.code, 1);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "{out}");
        assert!(lines[0].starts_with("{\"rule\":\"forbid-unsafe\""), "{out}");
        assert!(!lines[0].contains("\"line\""), "{out}");
        assert!(
            !out.contains("lint:"),
            "summary line must be suppressed: {out}"
        );
    }

    #[test]
    fn place_with_expired_deadline_reports_best_so_far() {
        let design_path = tmp("deadline.pd");
        let placed_path = tmp("deadline.pl");
        run(
            &strs(&["gen", "--cells", "250", "-o", &design_path]),
            &mut String::new(),
        )
        .unwrap();
        // A microscopic deadline expires on the first budget check: the run
        // must still exit 0 with a legalized best-so-far placement, and the
        // deadline alone arms every rung of the ladder.
        let mut out = String::new();
        run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &placed_path,
                "--deadline",
                "0.000001",
            ]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("deadline: stopped early"), "{out}");
        assert!(
            out.contains("degradation: coarse-congestion,freeze-padding,cap-trials,early-exit-gp"),
            "{out}"
        );
        assert!(std::path::Path::new(&placed_path).exists());
    }

    #[test]
    fn interrupted_run_does_not_blame_a_deadline() {
        // A cancelled token and no --deadline: what SIGINT leaves behind.
        let design = generate(&GeneratorConfig {
            num_cells: 200,
            num_nets: 220,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let result = Flow::Puffer
            .job(Some(20), Some(1))
            .with_budget(Budget::unbounded().with_token(token))
            .run(&design)
            .unwrap();
        let mut out = String::new();
        degradation_note(&mut out, &result, false);
        assert!(
            out.starts_with("interrupted: stopped early") && !out.contains("deadline:"),
            "{out}"
        );
        assert!(out.contains("(degradation: none)"), "{out}");
    }

    #[test]
    fn bounded_flags_are_validated() {
        let design_path = tmp("boundedflags.pd");
        let out_pl = tmp("boundedflags.pl");
        run(
            &strs(&["gen", "--cells", "200", "-o", &design_path]),
            &mut String::new(),
        )
        .unwrap();
        let err = run(
            &strs(&["place", &design_path, "-o", &out_pl, "--deadline", "-3"]),
            &mut String::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        // Finite and positive, but more seconds than a `Duration` holds.
        let err = run(
            &strs(&["place", &design_path, "-o", &out_pl, "--deadline", "1e300"]),
            &mut String::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--deadline"), "{}", err.message);
        // The ladder is a constant a deadline arms, not a flag.
        for cmd in [
            &["place", &design_path, "-o", &out_pl][..],
            &["explore", &design_path],
        ] {
            let mut args = strs(cmd);
            args.extend(strs(&["--deadline", "5", "--degrade", "default"]));
            let err = run(&args, &mut String::new()).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(
                err.message.contains("unknown flag '--degrade'"),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn explore_reports_best_strategy() {
        let design_path = tmp("explore.pd");
        run(
            &strs(&["gen", "--cells", "150", "-o", &design_path]),
            &mut String::new(),
        )
        .unwrap();
        let mut out = String::new();
        run(
            &strs(&[
                "explore",
                &design_path,
                "--trials",
                "3",
                "--max-iters",
                "30",
            ]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("best overflow score"), "{out}");
        assert!(out.contains("3 trial(s)"), "{out}");
    }

    #[test]
    fn explore_prints_the_strategy_the_best_trial_ran_with() {
        let design_path = tmp("explore_applied.pd");
        run(
            &strs(&["gen", "--cells", "150", "-o", &design_path]),
            &mut String::new(),
        )
        .unwrap();
        // The explorer's first draw has pu_high (0.0961) below pu_low
        // (0.0984); the trial runs with pu_high clamped up to pu_low.
        let mut out = String::new();
        run(
            &strs(&["explore", &design_path, "--trials", "1", "--max-iters", "0"]),
            &mut out,
        )
        .unwrap();
        let printed = |name: &str| -> f64 {
            let line = out.lines().find(|l| l.trim_start().starts_with(name));
            let value = line.and_then(|l| l.split_whitespace().nth(1));
            value
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no {name} in {out}"))
        };
        assert_eq!(printed("pu_low"), 0.0984, "{out}");
        assert_eq!(printed("pu_high"), 0.0984, "{out}");
        assert_eq!(
            out.lines().count(),
            1 + puffer::strategy_space().len(),
            "{out}"
        );
    }

    #[test]
    fn serve_flag_validation() {
        // Daemon mode needs a journal directory and exactly one transport.
        let err = run(&strs(&["serve"]), &mut String::new()).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--journal-dir"), "{}", err.message);
        let err = run(
            &strs(&[
                "serve",
                "--journal-dir",
                "j",
                "--listen",
                "127.0.0.1:0",
                "--stdin",
            ]),
            &mut String::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("exactly one"), "{}", err.message);
        // Fault injection is a test target, not a flag, and the retry
        // schedule is ServeConfig's default.
        for gone in [
            &["--chaos"][..],
            &["--seeds", "3"][..],
            &["--retries", "5"][..],
            &["--backoff-ms", "10"][..],
        ] {
            let mut args = strs(&["serve", "--journal-dir", "j", "--stdin"]);
            args.extend(strs(gone));
            let err = run(&args, &mut String::new()).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(err.message.contains("unknown flag"), "{}", err.message);
        }
        let err = run(
            &strs(&["serve", "--stdin", "--journal-dir", "j", "--workers", "0"]),
            &mut String::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn place_resume_rejects_a_journal_with_a_second_record() {
        let design_path = tmp("two_records.pd");
        let placed_path = tmp("two_records.pl");
        let journal_path = tmp("two_records.pj");
        run(
            &strs(&["gen", "--cells", "200", "-o", &design_path]),
            &mut String::new(),
        )
        .unwrap();
        run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &placed_path,
                "--max-iters",
                "40",
                "--journal",
                &journal_path,
            ]),
            &mut String::new(),
        )
        .unwrap();
        // No writer appends to a checkpoint journal: a second record is a
        // file this build never wrote, refused at the line after `end`.
        let text = std::fs::read_to_string(&journal_path).unwrap();
        std::fs::write(&journal_path, text.repeat(2)).unwrap();
        let err = run(
            &strs(&[
                "place",
                &design_path,
                "-o",
                &placed_path,
                "--resume",
                &journal_path,
            ]),
            &mut String::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 1, "{}", err.message);
        let line = text.lines().count() + 1;
        assert!(
            err.message.contains(&format!(
                "journal parse error at line {line}: 'puffer_checkpoint' after 'end'"
            )),
            "{}",
            err.message
        );
    }
}
