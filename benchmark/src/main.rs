//! `flowbench`: the repo benchmark's driver binary. See `benchmark/README.md`.

#![forbid(unsafe_code)]

mod child;
mod compare;
mod e2e;
mod json;
mod layers;
mod spec;
mod stats;
mod suite;
mod traced;

use e2e::Env;
use json::Json;
use spec::{Metric, END_TO_END, PER_LAYER, SUITE_ONLY, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default measuring window of one end-to-end run, in seconds
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 20.0;

/// The file that marks a directory as flowbench's own scratch space.
const WORK_MARKER: &str = ".flowbench-work";

fn help() -> String {
    let mut out = String::from(
        "flowbench — the repo benchmark (normally started through benchmark/run.sh)\n\
         \n\
         usage:\n\
         \x20 flowbench --puffer <bin> --work <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20     one run of one workload; the last stdout line is the result JSON\n\
         \x20     (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)\n\
         \x20 flowbench --puffer <bin> --work <dir> --results <dir> [--seed <n>] [--runs <n>] [--seconds <s>]\n\
         \x20           [--only <name>] [--set <name>] [--build-seconds <s>]\n\
         \x20     the whole suite: <runs> rounds of every workload, then the traced pass;\n\
         \x20     writes <results>/<set>.json and <results>/trace_<workload>.jsonl\n\
         \x20 flowbench compare <a.json> <b.json>\n\
         \x20     judge set b against baseline a; exits 1 on any regression\n\
         \nworkloads:\n",
    );
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<16} {}\n", w.name, w.why));
    }
    let list = |out: &mut String, title: &str, metrics: &[Metric]| {
        out.push_str(&format!("\n{title}:\n"));
        for m in metrics {
            out.push_str(&format!(
                "  {:<34} {:<8} {} is better\n",
                m.name,
                m.unit,
                m.better.as_str()
            ));
        }
    };
    list(&mut out, "end-to-end metrics (--trace 0)", &END_TO_END);
    list(
        &mut out,
        "end-to-end metrics of the suite only (they may read 0)",
        &SUITE_ONLY,
    );
    list(&mut out, "per-layer metrics (--trace 1)", &PER_LAYER);
    out
}

/// `--key value` pairs, bare switches and positionals.
struct Args {
    options: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    const SWITCHES: [&'static str; 2] = ["--help", "-h"];

    fn parse(raw: Vec<String>) -> Result<Args, String> {
        let mut args = Args {
            options: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if Self::SWITCHES.contains(&a.as_str()) {
                args.switches.push(a);
            } else if a.starts_with("--") {
                let value = it.next().ok_or(format!("{a} needs a value"))?;
                args.options.push((a, value));
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("bad value for {key}: '{v}'")))
            .transpose()
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        let p = PathBuf::from(self.get(key).ok_or(format!("missing {key} <path>"))?);
        // Children run with other working directories in mind: keep every
        // path absolute.
        std::path::absolute(&p).map_err(|e| format!("{key} {}: {e}", p.display()))
    }
}

fn metrics_json(metrics: &[Metric], values: &[f64]) -> Json {
    Json::obj(metrics.iter().zip(values).map(|(m, v)| {
        (
            m.name,
            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
        )
    }))
}

fn print_metrics(w: &spec::Workload, metrics: &[Metric], values: &[f64]) {
    for (m, v) in metrics.iter().zip(values) {
        if m.applies_to(w) {
            println!("  {:<34} {:>16.6} {}", m.name, v, m.unit);
        } else {
            println!("  {:<34} {:>16} (0 in the result line)", m.name, "n/a");
        }
    }
}

/// The single run the driver's contract describes; prints the result JSON
/// as the last stdout line.
fn single_run(env: &Env, args: &Args) -> Result<bool, String> {
    let name = args.get("--workload").ok_or("missing --workload")?;
    let w = spec::workload(name).ok_or(format!("unknown workload '{name}' (see --help)"))?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(0);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(RUN_SECONDS);
    let (metrics, values, ops): (&[Metric], Vec<f64>, e2e::Ops) = match args
        .get("--trace")
        .unwrap_or("0")
    {
        "0" => {
            let run = e2e::run(env, w, seed, seconds)?;
            println!(
                "{name} seed {seed}: {} set-up(s); repetitions in the {seconds} s window took {:.3?} s",
                run.setups, run.rep_walls
            );
            (&END_TO_END, run.values, run.ops)
        }
        "1" => {
            let run = traced::run(env, w, seed)?;
            let path = env.work.join(format!("trace_{name}.jsonl"));
            puffer_budget::fsx::atomic_write(&path, run.spans_jsonl.as_bytes())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!(
                "{name} seed {seed}: traced pass, spans in {}",
                path.display()
            );
            (&PER_LAYER, run.values, run.ops)
        }
        other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
    };
    print_metrics(w, metrics, &values);
    // A metric that is not a number cannot be correct.
    let finite = values.iter().all(|v| v.is_finite());
    let correct = ops.failed() == 0 && finite;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(ops.attempted as f64)),
            ("failed", Json::Num(ops.failed() as f64)),
            ("metrics", metrics_json(metrics, &values)),
        ])
        .render()
    );
    // The result line carries the verdict; the exit code only says whether
    // there is a result line.
    Ok(true)
}

/// All scratch inputs and outputs live under the work directory, wiped at
/// the start of every invocation — but only a directory flowbench made
/// itself (it leaves [`WORK_MARKER`] there) is ever deleted.
fn reset_work(work: &Path) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("{}: {e}", work.display());
    if work.exists() {
        let empty = std::fs::read_dir(work).map_err(fail)?.next().is_none();
        if !empty && !work.join(WORK_MARKER).is_file() {
            return Err(format!(
                "{} holds files but no {WORK_MARKER}: not a flowbench work directory, not wiping it",
                work.display()
            ));
        }
        std::fs::remove_dir_all(work).map_err(fail)?;
    }
    std::fs::create_dir_all(work).map_err(fail)?;
    puffer_budget::fsx::atomic_write(&work.join(WORK_MARKER), b"").map_err(|e| e.to_string())
}

fn run() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1).collect())?;
    if args.has("--help") || args.has("-h") {
        print!("{}", help());
        return Ok(true);
    }
    if args.positional.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.positional.as_slice() else {
            return Err("compare needs <a.json> <b.json>".into());
        };
        let load = |p: &String| -> Result<Json, String> {
            Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?)
                .map_err(|e| format!("{p}: {e}"))
        };
        return Ok(compare::report(&load(a)?, &load(b)?)? == 0);
    }
    if let Some(stray) = args.positional.first() {
        return Err(format!("unexpected argument '{stray}' (see --help)"));
    }
    let env = Env {
        puffer: args.path("--puffer")?,
        work: args.path("--work")?,
    };
    reset_work(&env.work)?;
    if args.get("--workload").is_some() {
        return single_run(&env, &args);
    }
    suite::run(
        &env,
        &suite::Options {
            results: args.path("--results")?,
            set: args.get("--set").unwrap_or("latest").to_string(),
            seed: args.parsed("--seed")?.unwrap_or(0),
            runs: args.parsed::<usize>("--runs")?.unwrap_or(5).max(3),
            seconds: args.parsed("--seconds")?.unwrap_or(RUN_SECONDS),
            only: args.get("--only").map(str::to_string),
            build_seconds: args.parsed("--build-seconds")?.unwrap_or(0.0),
        },
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("flowbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_directory_flowbench_made_is_wiped() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-reset-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (mine, theirs) = (base.join("mine"), base.join("theirs"));
        std::fs::create_dir_all(&theirs).unwrap();
        std::fs::write(theirs.join("thesis.tex"), "years of work").unwrap();
        assert!(reset_work(&theirs).is_err());
        assert!(theirs.join("thesis.tex").is_file(), "left alone");

        reset_work(&mine).expect("a new directory");
        std::fs::write(mine.join("scratch.pl"), "x").unwrap();
        reset_work(&mine).expect("its own directory, wiped");
        assert!(!mine.join("scratch.pl").exists());
        assert!(mine.join(WORK_MARKER).is_file());
        std::fs::remove_dir_all(&base).unwrap();
    }
}
