//! The end-to-end run of one workload: set-up, then the timed commands as
//! fresh children of the shipped `puffer` binary, repeated for the
//! measuring window, with every output checked. Telemetry is off.

use crate::child::{self, ChildRun};
use crate::json::Json;
use crate::layers;
use crate::spec::{Kind, Workload, END_TO_END, SERVE_JOBS, SERVE_WORKERS};
use crate::stats::{lower_quartile, median};
use puffer_budget::fsx::atomic_write;
use puffer_db::Design;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Where the binary under test and the scratch space are.
#[derive(Debug, Clone)]
pub struct Env {
    /// The root-built `target/release/puffer`.
    pub puffer: PathBuf,
    /// `benchmark/work`, wiped at start; every input and output lives here.
    pub work: PathBuf,
}

impl Env {
    pub fn command(&self, args: &[&str]) -> Command {
        let mut c = Command::new(&self.puffer);
        c.args(args);
        c
    }
}

/// Operations attempted and failed, with the reasons. An operation is one
/// child command together with the checks on what it wrote.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; `outcome` carries the reason when it failed.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            eprintln!("FAILED {what}: {why}");
            self.failures.push(format!("{what}: {why}"));
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Adds another tally to this one.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// The Table II line `puffer eval` prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalLine {
    pub hof_pct: f64,
    pub vof_pct: f64,
    pub routed_wl: f64,
}

impl EvalLine {
    /// Parses `HOF 0.24%  VOF 0.20%  WL 115662  (…)`; every value must be
    /// finite.
    pub fn parse(stdout: &str) -> Result<EvalLine, String> {
        let line = stdout
            .lines()
            .find(|l| l.starts_with("HOF "))
            .ok_or("no HOF line in eval output")?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        let value = |label: &str| -> Result<f64, String> {
            let i = toks
                .iter()
                .position(|t| *t == label)
                .ok_or(format!("no {label} in '{line}'"))?;
            let v: f64 = toks
                .get(i + 1)
                .map(|t| t.trim_end_matches('%'))
                .and_then(|t| t.parse().ok())
                .ok_or(format!("bad {label} in '{line}'"))?;
            if v.is_finite() {
                Ok(v)
            } else {
                Err(format!("{label} is not finite in '{line}'"))
            }
        };
        Ok(EvalLine {
            hof_pct: value("HOF")?,
            vof_pct: value("VOF")?,
            routed_wl: value("WL")?,
        })
    }
}

/// A workload's inputs on disk, made by the benchmark from the seed.
pub struct Prepared {
    pub design: Design,
    pub dir: PathBuf,
    pub design_path: PathBuf,
    /// The placement `eval` reads: written by `refine` in the chains, by
    /// set-up in the eval-only workload.
    pub refined_path: PathBuf,
}

pub fn path_str(p: &Path) -> &str {
    p.to_str().expect("work paths are UTF-8")
}

/// Generates the workload's design, relabels it by `seed`, writes its `.pd`.
pub fn write_inputs(env: &Env, w: &Workload, seed: u64) -> Result<Prepared, String> {
    let dir = env.work.join(w.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let generated = layers::generate(&w.generator().map_err(|e| e.to_string())?)?;
    let (design, _) = layers::relabel(&generated, seed)?;
    let design_path = dir.join("design.pd");
    atomic_write(&design_path, &layers::design_bytes(&design)?)
        .map_err(|e| format!("write design: {e}"))?;
    Ok(Prepared {
        design,
        refined_path: dir.join("refined.pl"),
        dir,
        design_path,
    })
}

/// Inputs of the eval-only workload.
pub struct EvalInputs {
    /// The design as generated, which set-up placed and refined once.
    pub as_placed: Prepared,
    pub set_up: Placed,
    /// What `eval` reads: that design and its refined placement, relabelled
    /// together by the seed.
    pub routed: Prepared,
}

/// The design as generated is placed and refined once by the binary, then
/// design and placement are relabelled together by `seed`, so every seed
/// routes the same pins in another order. (Relabelling before placing would
/// hand each seed a different placement, and rip-up work swings ±40 % with
/// where the overflow happens to fall.)
pub fn write_eval_inputs(
    ops: &mut Ops,
    env: &Env,
    w: &Workload,
    seed: u64,
) -> Result<EvalInputs, String> {
    let as_placed = write_inputs(env, w, 0)?;
    let set_up = place_and_refine(ops, env, w, &as_placed, None)?;
    let placement = layers::read_placement(&set_up.refined, &as_placed.design)?;
    let (design, renamed) = layers::relabel(&as_placed.design, seed)?;
    let placement = layers::relabel_placement(&placement, &renamed);
    let routed = Prepared {
        design_path: as_placed.dir.join("routed.pd"),
        refined_path: as_placed.dir.join("routed.pl"),
        dir: as_placed.dir.clone(),
        design,
    };
    atomic_write(&routed.design_path, &layers::design_bytes(&routed.design)?)
        .map_err(|e| format!("write design: {e}"))?;
    atomic_write(&routed.refined_path, &layers::placement_bytes(&placement)?)
        .map_err(|e| format!("write placement: {e}"))?;
    Ok(EvalInputs {
        as_placed,
        set_up,
        routed,
    })
}

/// Runs one `.pl`-writing command and checks what it wrote: exit status,
/// parse, legality, that all `outputs` agree, (when `expect` is given) byte
/// equality with it, and finally `also`. Counts one operation; returns the
/// measurement and the bytes of the first output.
#[allow(clippy::too_many_arguments)] // one call shape for place, refine and serve
pub fn run_pl_command(
    ops: &mut Ops,
    what: &str,
    mut command: Command,
    stdin: &[u8],
    outputs: &[&Path],
    design: &Design,
    expect: Option<&[u8]>,
    also: impl FnOnce() -> Result<(), String>,
) -> Result<(ChildRun, Vec<u8>), String> {
    for out in outputs {
        let _ = std::fs::remove_file(out);
    }
    let run = child::run(&mut command, stdin)?;
    let mut first = Vec::new();
    let outcome = (|| {
        if !run.exit_ok {
            return Err(format!("exit status non-zero: {}", run.stderr.trim()));
        }
        for (i, out) in outputs.iter().enumerate() {
            let bytes = std::fs::read(out).map_err(|e| format!("read {}: {e}", out.display()))?;
            let placement = layers::read_placement(&bytes, design)?;
            layers::check_legal(design, &placement)
                .map_err(|e| format!("{}: {e}", out.display()))?;
            if i == 0 {
                first = bytes;
            } else if bytes != first {
                return Err(format!(
                    "{} differs from {}",
                    out.display(),
                    outputs[0].display()
                ));
            }
        }
        if expect.is_some_and(|want| want != first.as_slice()) {
            return Err("output bytes differ from the first repetition".into());
        }
        also()
    })();
    ops.record(what, outcome);
    Ok((run, first))
}

/// Runs `puffer eval` and checks its report (finite values; byte-equal to
/// `expect` when given).
pub fn run_eval(
    ops: &mut Ops,
    env: &Env,
    w: &Workload,
    design_path: &Path,
    placement: &Path,
    expect: Option<&str>,
) -> Result<(ChildRun, Option<EvalLine>), String> {
    let threads = w.threads.to_string();
    let run = child::run(
        &mut env.command(&[
            "eval",
            path_str(design_path),
            path_str(placement),
            "--threads",
            &threads,
        ]),
        b"",
    )?;
    let parsed = if run.exit_ok {
        EvalLine::parse(&run.stdout)
    } else {
        Err(format!("exit status non-zero: {}", run.stderr.trim()))
    };
    let outcome = match (&parsed, expect) {
        (Err(e), _) => Err(e.clone()),
        (Ok(_), Some(want)) if want != run.stdout => {
            Err("eval report differs from the first repetition".into())
        }
        _ => Ok(()),
    };
    ops.record("eval", outcome);
    Ok((run, parsed.ok()))
}

/// What one repetition of the timed section cost, and what it produced.
#[derive(Default)]
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_kib: u64,
    /// The final placement's bytes and the eval report, for the
    /// determinism check against repetition 1.
    final_pl: Vec<u8>,
    eval_stdout: String,
    eval: Option<EvalLine>,
    stage_pl: Vec<u8>,
}

impl Rep {
    /// Sums the cost of the repetition's commands.
    fn measure(&mut self, runs: &[ChildRun]) {
        self.wall_s = runs.iter().map(|r| r.wall_s).sum();
        self.cpu_s = runs.iter().map(ChildRun::cpu_s).sum();
        self.peak_rss_kib = runs.iter().map(|r| r.peak_rss_kib).max().unwrap_or(0);
    }
}

pub fn place_command(env: &Env, w: &Workload, design: &Path, out: &Path) -> Command {
    env.command(&[
        "place",
        path_str(design),
        "-o",
        path_str(out),
        "--threads",
        &w.threads.to_string(),
    ])
}

/// One `place` → `refine` of the binary: both runs and what each wrote.
pub struct Placed {
    pub place: ChildRun,
    pub refine: ChildRun,
    pub placed: Vec<u8>,
    pub refined: Vec<u8>,
}

/// `place` → `refine` (into `p.refined_path`). `expect` is the pair of
/// outputs an earlier repetition wrote.
pub fn place_and_refine(
    ops: &mut Ops,
    env: &Env,
    w: &Workload,
    p: &Prepared,
    expect: Option<(&[u8], &[u8])>,
) -> Result<Placed, String> {
    let placed = p.dir.join("placed.pl");
    let refined = &p.refined_path;
    let (place, placed_bytes) = run_pl_command(
        ops,
        "place",
        place_command(env, w, &p.design_path, &placed),
        b"",
        &[&placed],
        &p.design,
        expect.map(|e| e.0),
        || Ok(()),
    )?;
    let (refine, refined_bytes) = run_pl_command(
        ops,
        "refine",
        env.command(&[
            "refine",
            path_str(&p.design_path),
            path_str(&placed),
            "-o",
            path_str(refined),
        ]),
        b"",
        &[refined],
        &p.design,
        expect.map(|e| e.1),
        || Ok(()),
    )?;
    Ok(Placed {
        place,
        refine,
        placed: placed_bytes,
        refined: refined_bytes,
    })
}

/// The `submit` × [`SERVE_JOBS`] + `drain` request stream.
pub fn serve_requests(p: &Prepared, w: &Workload, out_dir: &Path) -> (Vec<u8>, Vec<PathBuf>) {
    let mut text = String::new();
    let mut outs = Vec::new();
    for job in 1..=SERVE_JOBS {
        let out = out_dir.join(format!("out{job}.pl"));
        let submit = Json::obj([
            ("t", Json::str("submit")),
            ("design", Json::str(path_str(&p.design_path))),
            ("threads", Json::Num(w.threads as f64)),
            ("out", Json::str(path_str(&out))),
        ]);
        text.push_str(&submit.render());
        text.push('\n');
        outs.push(out);
    }
    text.push_str("{\"t\":\"drain\"}\n");
    (text.into_bytes(), outs)
}

/// One batch through `puffer serve --stdin`; checks four `result.json`
/// with `"state":"done"` and four legal, identical placements.
pub fn serve_batch(
    ops: &mut Ops,
    env: &Env,
    w: &Workload,
    p: &Prepared,
    journal: &Path,
    expect: Option<&[u8]>,
) -> Result<(ChildRun, Vec<u8>), String> {
    let _ = std::fs::remove_dir_all(journal);
    let (requests, outs) = serve_requests(p, w, &p.dir);
    let out_refs: Vec<&Path> = outs.iter().map(PathBuf::as_path).collect();
    let command = env.command(&[
        "serve",
        "--stdin",
        "--workers",
        &SERVE_WORKERS.to_string(),
        "--journal-dir",
        path_str(journal),
    ]);
    let all_done = || {
        let done = (1..=SERVE_JOBS)
            .filter(|job| {
                std::fs::read_to_string(journal.join(format!("job-{job}")).join("result.json"))
                    .is_ok_and(|r| r.contains("\"state\":\"done\""))
            })
            .count();
        if done == SERVE_JOBS {
            Ok(())
        } else {
            Err(format!("{done} of {SERVE_JOBS} result.json are \"done\""))
        }
    };
    run_pl_command(
        ops,
        "serve batch",
        command,
        &requests,
        &out_refs,
        &p.design,
        expect,
        all_done,
    )
}

fn one_rep(
    ops: &mut Ops,
    env: &Env,
    w: &Workload,
    p: &Prepared,
    first: Option<&Rep>,
) -> Result<Rep, String> {
    match w.kind {
        Kind::Chain | Kind::EvalOnly => {
            let mut rep = Rep::default();
            let mut runs = Vec::new();
            if w.kind == Kind::Chain {
                let expect = first.map(|f| (f.stage_pl.as_slice(), f.final_pl.as_slice()));
                let chain = place_and_refine(ops, env, w, p, expect)?;
                runs.extend([chain.place, chain.refine]);
                rep.stage_pl = chain.placed;
                rep.final_pl = chain.refined;
            }
            let (eval, line) = run_eval(
                ops,
                env,
                w,
                &p.design_path,
                &p.refined_path,
                first.map(|f| f.eval_stdout.as_str()),
            )?;
            rep.eval_stdout.clone_from(&eval.stdout);
            rep.eval = line;
            runs.push(eval);
            rep.measure(&runs);
            Ok(rep)
        }
        Kind::ServeBatch => {
            let (serve, out) = serve_batch(
                ops,
                env,
                w,
                p,
                &p.dir.join("journal"),
                first.map(|f| f.final_pl.as_slice()),
            )?;
            let mut rep = Rep::default();
            rep.measure(&[serve]);
            rep.final_pl = out;
            Ok(rep)
        }
    }
}

/// FNV-1a 64 of a file's bytes, as hex: names an input or output without
/// storing it.
pub fn digest(bytes: &[u8]) -> String {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// Set-up repeats until this much time has gone by (or [`MAX_SETUPS`]).
const SETUP_WINDOW_S: f64 = 2.0;
const MAX_SETUPS: usize = 200;

/// The result of one end-to-end run.
#[derive(Debug)]
pub struct E2eRun {
    /// One value per [`END_TO_END`] metric, in table order.
    pub values: Vec<f64>,
    pub ops: Ops,
    /// Wall-clock of every repetition of the timed section inside the
    /// measuring window (`flow_wall_s` is their lower quartile).
    pub rep_walls: Vec<f64>,
    pub setups: usize,
    pub hof_pct: f64,
    pub vof_pct: f64,
    /// Digest of the final placement the quality metrics describe (for
    /// `media_eval_t2`, the input the timed section read).
    pub placement_digest: String,
    /// `cells/nets/pins` of the generated design.
    pub design_size: (usize, usize, usize),
}

impl E2eRun {
    /// The value of the end-to-end metric `name` (NaN for an unknown name).
    pub fn value(&self, name: &str) -> f64 {
        END_TO_END
            .iter()
            .position(|m| m.name == name)
            .map_or(f64::NAN, |i| self.values[i])
    }
}

/// Runs `w` end to end: set-up (repeated while cheap),
/// then the timed section for `seconds`, then the quality read-out.
pub fn run(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Result<E2eRun, String> {
    let mut ops = Ops::default();

    // Set-up: inputs from the seed and, for the eval-only workload, the
    // one placement it routes. A cheap set-up repeats for [`SETUP_WINDOW_S`];
    // one that takes longer than that runs once.
    let mut setup_times = Vec::new();
    let setup_start = Instant::now();
    let prepared = loop {
        let t0 = Instant::now();
        let p = match w.kind {
            Kind::EvalOnly => write_eval_inputs(&mut ops, env, w, seed)?.routed,
            _ => write_inputs(env, w, seed)?,
        };
        setup_times.push(t0.elapsed().as_secs_f64());
        if setup_start.elapsed().as_secs_f64() >= SETUP_WINDOW_S || setup_times.len() == MAX_SETUPS
        {
            break p;
        }
    };

    let mut reps: Vec<Rep> = Vec::new();
    let window = Instant::now();
    while reps.is_empty() || window.elapsed().as_secs_f64() < seconds {
        let rep = one_rep(&mut ops, env, w, &prepared, reps.first())?;
        reps.push(rep);
    }

    // Quality of the workload's final placement.
    let final_pl = match w.kind {
        Kind::EvalOnly => std::fs::read(&prepared.refined_path)
            .map_err(|e| format!("read {}: {e}", prepared.refined_path.display()))?,
        _ => reps[0].final_pl.clone(),
    };
    let eval = match w.kind {
        Kind::ServeBatch => {
            // Not part of the timed section: eval job 1's output, and hold
            // the daemon to a solo `place` of the same design.
            let solo = prepared.dir.join("solo.pl");
            run_pl_command(
                &mut ops,
                "solo place (must equal serve job 1)",
                place_command(env, w, &prepared.design_path, &solo),
                b"",
                &[&solo],
                &prepared.design,
                Some(&final_pl),
                || Ok(()),
            )?;
            run_eval(
                &mut ops,
                env,
                w,
                &prepared.design_path,
                &prepared.dir.join("out1.pl"),
                None,
            )?
            .1
        }
        _ => reps[0].eval,
    };
    let hpwl = layers::read_placement(&final_pl, &prepared.design)
        .map(|p| layers::hpwl(&prepared.design, &p))
        .unwrap_or(f64::NAN);
    if !(hpwl.is_finite() && hpwl > 0.0) {
        ops.record(
            "hpwl of the final placement",
            Err(format!("not a positive finite number: {hpwl}")),
        );
    }
    let eval = eval.unwrap_or(EvalLine {
        hof_pct: f64::NAN,
        vof_pct: f64::NAN,
        routed_wl: f64::NAN,
    });

    let over_reps = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let values = vec![
        lower_quartile(&setup_times),
        lower_quartile(&over_reps(|r| r.wall_s)),
        lower_quartile(&over_reps(|r| r.cpu_s)),
        median(&over_reps(|r| r.peak_rss_kib as f64 / 1024.0)),
        eval.routed_wl,
        hpwl,
    ];
    debug_assert_eq!(values.len(), END_TO_END.len());
    let stats = prepared.design.stats();
    Ok(E2eRun {
        values,
        ops,
        rep_walls: reps.iter().map(|r| r.wall_s).collect(),
        setups: setup_times.len(),
        hof_pct: eval.hof_pct,
        vof_pct: eval.vof_pct,
        placement_digest: digest(&final_pl),
        design_size: (stats.movable_cells, stats.nets, stats.movable_pins),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_eval_line() {
        let line = "validate OK\nHOF 0.24%  VOF 0.20%  WL 115662  (23 overflowed Gcells; 1%-criterion: PASS)\n";
        assert_eq!(
            EvalLine::parse(line).unwrap(),
            EvalLine {
                hof_pct: 0.24,
                vof_pct: 0.20,
                routed_wl: 115_662.0
            }
        );
        assert!(EvalLine::parse("HOF NaN%  VOF 0.20%  WL 1  (…)").is_err());
        assert!(EvalLine::parse("nothing here").is_err());
    }

    #[test]
    fn ops_count_failures_with_reasons() {
        let mut ops = Ops::default();
        ops.record("a", Ok(()));
        ops.record("b", Err("broke".into()));
        assert_eq!((ops.attempted, ops.failed()), (2, 1));
        assert_eq!(ops.failures, ["b: broke"]);
    }
}
