//! `puffer chaos` — the one deterministic fault-injection harness.
//!
//! A single scenario table of `(name, group, runner)` rows: the `flow` rows
//! attack the placement flow, the `fs` rows drive the `fsx` filesystem
//! fault hook (the only I/O-fault seam), and the `serve` rows
//! ([`puffer_serve::chaos::ROWS`]) attack a live job engine. Every seed
//! deterministically picks a row (`table[seed % n]` over the rows
//! `--classes` selects), an injection point and a magnitude, and the row
//! asserts the bounded-execution contract: a valid degraded result, a
//! resumable checkpoint, or a structured error — never a hang or a corrupt
//! artifact.

use super::{CliError, Flags};
use puffer::{CheckpointPolicy, Flow, FlowCheckpoint};
use puffer_audit::{audit_run, Validate};
use puffer_budget::{fsx, Budget, ChaosPlan, FaultClass};
use puffer_db::design::Design;
use puffer_explore::{explore_params_bounded, ExplorationConfig};
use puffer_gen::{generate, GeneratorConfig};
use puffer_legal::check_legal;
use puffer_rng::StdRng;
use puffer_serve::chaos::{Case, Runner, ROWS as SERVE_ROWS};
use puffer_trace::Trace;
use std::fmt::Write as _;

/// One scenario: its name, the group it belongs to (the `--classes`
/// vocabulary: `flow`, `fs` or `serve`), and its runner.
type Row = (&'static str, &'static str, Runner);

/// The scenario table, in dispatch order.
fn table() -> Vec<Row> {
    let own: [Row; 7] = [
        ("worker-panic", "flow", worker_panic),
        ("nan-burst", "flow", nan_burst),
        ("disk-full", "fs", |c| failed_save(c, FaultClass::DiskFull)),
        ("torn-write", "fs", |c| {
            failed_save(c, FaultClass::TornWrite)
        }),
        ("fsync-fail", "fs", fsync_fail),
        ("rename-fail", "fs", |c| {
            failed_save(c, FaultClass::RenameFail)
        }),
        ("short-read", "fs", short_read),
    ];
    let serve = SERVE_ROWS
        .into_iter()
        .map(|(name, run)| (name, "serve", run));
    own.into_iter().chain(serve).collect()
}

/// The rows `--classes <classes>` selects (`all`, or one group name).
fn select(classes: &str) -> Vec<Row> {
    table()
        .into_iter()
        .filter(|(_, group, _)| classes == "all" || classes == *group)
        .collect()
}

/// The seed → scenario dispatch: `n` consecutive seeds visit each of `n`
/// rows once.
fn pick(rows: &[Row], seed: u64) -> Row {
    rows[(seed % rows.len() as u64) as usize]
}

pub(super) fn cmd_chaos(flags: &Flags, out: &mut String) -> Result<(), CliError> {
    let seeds: u64 = flags.value("seeds")?;
    let cells: usize = flags.value("cells")?;
    let max_iters: usize = flags.value("max-iters")?;
    if max_iters < 10 {
        return Err(CliError::usage(
            "--max-iters must be at least 10 (injection points are drawn from 2..10)",
        ));
    }
    let classes: String = flags.value("classes")?;
    let rows = select(&classes);
    if rows.is_empty() {
        return Err(CliError::usage(format!(
            "--classes must be all, flow, fs, or serve (got '{classes}')"
        )));
    }
    let base = std::env::temp_dir().join("puffer-chaos");
    for seed in 0..seeds {
        let (name, _, run) = pick(&rows, seed);
        let mut rng = StdRng::seed_from_u64(0xC4A05 ^ seed);
        let case = Case {
            seed,
            at: rng.gen_range(2..10),
            magnitude: rng.gen_range(5..30),
            cells,
            max_iters,
            dir: base.join(format!("seed{seed}")),
        };
        let _ = std::fs::remove_dir_all(&case.dir);
        std::fs::create_dir_all(&case.dir)
            .map_err(|e| CliError::run(format!("cannot create {}: {e}", case.dir.display())))?;
        let verdict =
            run(&case).map_err(|m| CliError::run(format!("chaos seed {seed} ({name}): {m}")))?;
        let _ = writeln!(out, "seed {seed:>2} {name:<23} {verdict}");
    }
    let _ = writeln!(
        out,
        "chaos OK: {seeds} seed(s), {} scenario(s) exercised, every injection yielded a \
         valid degraded result, a resumable checkpoint, or a structured error",
        rows.len().min(seeds as usize)
    );
    Ok(())
}

fn chaos_design(case: &Case) -> Result<Design, String> {
    generate(&GeneratorConfig {
        name: format!("chaos{}", case.seed),
        num_cells: case.cells,
        num_nets: case.cells + case.cells / 10,
        utilization: 0.6,
        hotspot: 0.5,
        seed: 9000 + case.seed,
        ..GeneratorConfig::default()
    })
    .map_err(|e| format!("generation failed: {e}"))
}

/// Disarms the `fsx` hook, reporting whether the armed fault had fired.
fn disarm_fired() -> bool {
    let fired = !fsx::fault::armed();
    fsx::fault::disarm();
    fired
}

fn check_placement(design: &Design, result: &puffer::FlowResult) -> Result<(), String> {
    let zeros = vec![0u32; design.netlist().num_cells()];
    check_legal(design, &result.placement, &zeros)
        .map_err(|e| format!("placement is not legal: {e}"))
}

/// One SMBO objective call panics; the run must isolate it as a failed
/// trial and still return an outcome.
fn worker_panic(case: &Case) -> Result<String, String> {
    let space = puffer::strategy_space();
    let config = ExplorationConfig {
        max_evals: 6,
        ..ExplorationConfig::default()
    };
    let panic_at = case.at % 5;
    let mut trial = 0usize;
    let outcome = explore_params_bounded(
        &space,
        |values| {
            let i = trial;
            trial += 1;
            // assert! (not the banned panic! token) fires only on the
            // injected trial.
            assert!(i != panic_at, "chaos: injected worker panic");
            values.iter().map(|v| (v - 1.0) * (v - 1.0)).sum::<f64>()
        },
        &config,
        &Trace::disabled(),
        &Budget::unbounded(),
    )
    .map_err(|e| format!("exploration died instead of isolating the panic: {e}"))?;
    if outcome.failed_trials == 0 {
        return Err("panic was not recorded as a failed trial".into());
    }
    Ok(format!(
        "OK: panic isolated ({} trials, {} failed)",
        outcome.evals, outcome.failed_trials
    ))
}

/// A burst of NaN coordinates poisons the placer mid-run; the divergence
/// sentinel must recover it and the artifacts must audit clean.
fn nan_burst(case: &Case) -> Result<String, String> {
    let design = chaos_design(case)?;
    let journal = case.dir.join("run.pj");
    let metrics = case.dir.join("run.jsonl");
    let trace =
        Trace::with_sink(&metrics).map_err(|e| format!("cannot create metrics sink: {e}"))?;
    let policy = CheckpointPolicy {
        path: journal.clone(),
        every: 10,
        keep_history: false,
    };
    let result = Flow::Puffer
        .job(Some(case.max_iters), None)
        .with_trace(trace.clone())
        .with_checkpoints(policy)
        .with_chaos(ChaosPlan {
            class: FaultClass::NanBurst,
            at: case.at,
            magnitude: case.magnitude,
        })
        .run(&design)
        .map_err(|e| format!("flow must recover, not fail: {e}"))?;
    trace.write_summary();
    trace
        .flush()
        .map_err(|e| format!("metrics write failed: {e}"))?;
    // The burst lands right before the step to iteration `at + 1`.
    let records =
        puffer_trace::read_jsonl(&metrics).map_err(|e| format!("metrics unreadable: {e}"))?;
    let burst = (case.at + 1) as f64;
    let reason = records
        .iter()
        .filter(|r| r.kind() == Some("place.recover") && r.num("iter") == Some(burst))
        .find_map(|r| r.str_field("reason"))
        .ok_or("the sentinel never recovered the injected burst")?;
    if reason != "non-finite objective" {
        return Err(format!(
            "the burst was recovered as '{reason}', not as non-finite"
        ));
    }
    check_placement(&design, &result)?;
    audit_run(&journal, &metrics).map_err(|r| format!("journal/metrics inconsistent: {r}"))?;
    Ok(format!(
        "OK: sentinel recovered the burst ({reason}), artifacts audit clean"
    ))
}

/// A filesystem fault strikes a checkpoint save mid-run. The `fsx` hook
/// fires once at a seeded guarded operation; the save must surface a
/// structured Journal error while the previously committed journal stays
/// valid and resumable.
fn failed_save(case: &Case, class: FaultClass) -> Result<String, String> {
    let design = chaos_design(case)?;
    let journal = case.dir.join("run.pj");
    let policy = CheckpointPolicy {
        path: journal.clone(),
        every: 2,
        keep_history: false,
    };
    // Each save is exactly one atomic_write: 1 data write, 2 fsyncs (file +
    // parent dir), 1 rename. Skip past the first committed save so there is
    // a prior journal to fall back to.
    let per_save = match class {
        FaultClass::DiskFull => 2, // matches writes AND renames
        _ => 1,
    };
    let skip = per_save + (case.at % 3) * per_save;
    fsx::fault::arm(class, skip);
    let job = Flow::Puffer
        .job(Some(case.max_iters), None)
        .with_checkpoints(policy);
    let outcome = job.run(&design);
    if !disarm_fired() {
        return Err("armed filesystem fault never fired".into());
    }
    let Err(e) = outcome else {
        return Err("injected filesystem failure did not surface".into());
    };
    if !matches!(e, puffer::PufferError::Journal(_)) {
        return Err(format!("wrong error class: {e}"));
    }
    let checkpoint = FlowCheckpoint::load(&journal)
        .map_err(|e| format!("prior journal corrupted by failed save: {e}"))?;
    checkpoint
        .validate()
        .map_err(|r| format!("prior journal invalid: {r}"))?;
    let resumed = job
        .run_or_resume(&design)
        .map_err(|e| format!("resume from prior journal failed: {e}"))?;
    check_placement(&design, &resumed)?;
    Ok(format!(
        "OK: failed save left prior journal valid, resume completed ({} iterations)",
        resumed.gp_iterations
    ))
}

/// The metrics sink's final fsync fails. The flow result stands, and the
/// failure must surface as a structured TraceError from flush — never a
/// silently dropped record.
fn fsync_fail(case: &Case) -> Result<String, String> {
    let design = chaos_design(case)?;
    let metrics = case.dir.join("metrics.jsonl");
    let trace =
        Trace::with_sink(&metrics).map_err(|e| format!("cannot create metrics sink: {e}"))?;
    // Guarded fsyncs in this run: the sink directory fsync already happened
    // at creation; the next one is the flush itself.
    fsx::fault::arm(FaultClass::FsyncFail, 0);
    let result = Flow::Puffer
        .job(Some(case.max_iters), None)
        .with_trace(trace.clone())
        .run(&design);
    let flushed = trace.flush();
    if !disarm_fired() {
        return Err("armed fsync fault never fired".into());
    }
    let result = result.map_err(|e| format!("flow failed under fsync fault: {e}"))?;
    check_placement(&design, &result)?;
    let Err(te) = flushed else {
        return Err("fsync failure did not surface from flush".into());
    };
    if !matches!(te, puffer_trace::TraceError::Io { .. }) {
        return Err(format!("wrong trace error shape: {te}"));
    }
    // The records themselves are intact: the sink wrote each line before
    // the failed durability barrier.
    let records = puffer_trace::read_jsonl(&metrics)
        .map_err(|e| format!("metrics unreadable after fsync fault: {e}"))?;
    if records.is_empty() {
        return Err("metrics lost despite per-record writes".into());
    }
    Ok(format!(
        "OK: fsync failure surfaced as structured TraceError, {} records intact",
        records.len()
    ))
}

/// A guarded read dies while the streaming Bookshelf parser is mid-way
/// through the .nets file. The parser must surface a structured DbError
/// carrying the file and line — never hand back a partial netlist.
fn short_read(case: &Case) -> Result<String, String> {
    let design = chaos_design(case)?;
    let nl = design.netlist();
    let mut nodes = String::from("UCLA nodes 1.0\n");
    for (_, c) in nl.iter_cells() {
        let tag = if c.is_movable() { "" } else { " terminal" };
        let _ = writeln!(nodes, "{} {} {}{tag}", c.name, c.width, c.height);
    }
    let mut nets = String::from("UCLA nets 1.0\n");
    for (id, net) in nl.iter_nets() {
        let _ = writeln!(nets, "NetDegree : {} {}", nl.net_degree(id), net.name);
        for &pid in nl.net_pins(id) {
            let pin = nl.pin(pid);
            let _ = writeln!(
                nets,
                " {} B : {} {}",
                nl.cell(pin.cell).name,
                pin.offset.x,
                pin.offset.y
            );
        }
    }
    let nodes_path = case.dir.join("chaos.nodes");
    let nets_path = case.dir.join("chaos.nets");
    fsx::atomic_write(&nodes_path, nodes.as_bytes())
        .map_err(|e| format!("cannot write fixture: {e}"))?;
    fsx::atomic_write(&nets_path, nets.as_bytes())
        .map_err(|e| format!("cannot write fixture: {e}"))?;
    let parse = |guard_nets: bool| -> Result<_, puffer_db::DbError> {
        use std::io::BufRead;
        let nodes = std::io::BufReader::new(std::fs::File::open(&nodes_path)?);
        let nets: Box<dyn BufRead> = if guard_nets {
            Box::new(fsx::open_read(&nets_path)?)
        } else {
            Box::new(std::io::BufReader::new(std::fs::File::open(&nets_path)?))
        };
        puffer_db::bookshelf::parse_bookshelf_streaming("chaos", nodes, nets, &b""[..], &b""[..])
    };
    // Control: the unfaulted streaming parse reproduces the design.
    let control = parse(false).map_err(|e| format!("control parse must succeed: {e}"))?;
    if control.stats().nets != design.stats().nets {
        return Err("control parse lost nets".into());
    }
    // The guarded .nets reader sees at least two read calls (data + EOF
    // probe), so a skip of 0 or 1 always fires mid-parse.
    fsx::fault::arm(FaultClass::ShortRead, case.at % 2);
    let outcome = parse(true);
    if !disarm_fired() {
        return Err("armed short-read fault never fired".into());
    }
    let Err(e) = outcome else {
        return Err("truncated read produced a design instead of an error".into());
    };
    match e {
        puffer_db::DbError::Read { ref file, line, .. } => Ok(format!(
            "OK: short read surfaced as structured DbError ({file} after line {line}), \
             no partial netlist",
        )),
        other => Err(format!("wrong error class: {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_are_unique_and_seeds_cover_every_row_of_a_group() {
        let all = table();
        for (i, (name, _, _)) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|(other, _, _)| other != name),
                "duplicate scenario name '{name}'"
            );
        }
        assert_eq!(select("all").len(), all.len());
        assert!(select("bogus").is_empty());
        for group in ["flow", "fs", "serve"] {
            let rows = select(group);
            assert!(!rows.is_empty(), "group '{group}' has no scenario");
            assert!(rows.iter().all(|(_, g, _)| *g == group));
            // n consecutive seeds of a group hit each of its n rows once.
            let n = rows.len() as u64;
            let mut hit: Vec<&str> = (n..2 * n).map(|seed| pick(&rows, seed).0).collect();
            hit.sort_unstable();
            hit.dedup();
            assert_eq!(hit.len(), rows.len());
        }
    }

    #[test]
    fn chaos_flags_are_validated() {
        for bad in [
            &["--seeds", "0"][..],
            &["--classes", "bogus"][..],
            &["--max-iters", "5"][..],
            &["extra"][..],
        ] {
            let args: Vec<String> = ["chaos"].iter().chain(bad).map(|s| s.to_string()).collect();
            let err = crate::run(&args, &mut String::new()).unwrap_err();
            assert_eq!(err.code, 2, "{bad:?}: {}", err.message);
        }
    }
}
