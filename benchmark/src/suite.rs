//! The whole suite in one process: `runs` rounds, each running every
//! workload once (so drift hits all of them equally), then one traced pass
//! per workload. Writes `<results>/<set>.json` and the span files.

use crate::child;
use crate::e2e::{self, path_str, Env, Ops};
use crate::json::Json;
use crate::spec::{
    suite_metrics, Bound, Kind, Metric, Workload, END_TO_END, PER_LAYER, SUITE_ONLY, WORKLOADS,
};
use crate::stats::{iqr, max, median, min};
use puffer_budget::fsx::atomic_write;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

pub struct Options {
    pub results: PathBuf,
    pub set: String,
    pub seed: u64,
    pub runs: usize,
    pub seconds: f64,
    /// Run only this workload.
    pub only: Option<String>,
    /// Wall-clock `run.sh` spent building, for the phase report.
    pub build_seconds: f64,
}

/// Everything measured for one workload across the rounds.
struct Collected {
    w: &'static Workload,
    /// `runs[metric][round]`, metrics in [`suite_metrics`] order.
    runs: Vec<Vec<f64>>,
    ops: Ops,
    reps: Vec<usize>,
    /// `(placement digest, hof, vof)` of round 1: every round must repeat
    /// it exactly.
    outputs: Option<(String, f64, f64)>,
    design_size: (usize, usize, usize),
    per_layer: Vec<f64>,
}

impl Collected {
    /// The traced pass's value of the per-layer metric `name`.
    fn layer(&self, name: &str) -> f64 {
        PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .map_or(f64::NAN, |i| self.per_layer[i])
    }
}

fn first_line_of(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Cores, RAM, rustc, kernel: what the numbers were measured on.
fn machine() -> Json {
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let ram_kib: f64 = meminfo
        .lines()
        .find(|l| l.starts_with("MemTotal:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0.0);
    Json::obj([
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("ram_mib", Json::Num((ram_kib / 1024.0).round())),
        (
            "rustc",
            Json::str(first_line_of(Command::new("rustc").arg("--version"))),
        ),
        (
            "kernel",
            Json::str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or("unknown".into(), |s| s.trim().to_string()),
            ),
        ),
    ])
}

fn metric_table(metrics: &[Metric]) -> Json {
    Json::Arr(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                ];
                if let Some(bound) = m.bound {
                    fields.push(("bound", Json::Num(bound)));
                }
                Json::obj(fields)
            })
            .collect(),
    )
}

pub fn run(env: &Env, o: &Options) -> Result<bool, String> {
    let workloads: Vec<&'static Workload> =
        match &o.only {
            Some(name) => vec![crate::spec::workload(name)
                .ok_or(format!("unknown workload '{name}' (see --help)"))?],
            None => WORKLOADS.iter().collect(),
        };
    let mut collected: Vec<Collected> = workloads
        .iter()
        .map(|w| Collected {
            w,
            runs: vec![Vec::new(); suite_metrics().count()],
            ops: Ops::default(),
            reps: Vec::new(),
            outputs: None,
            design_size: (0, 0, 0),
            per_layer: Vec::new(),
        })
        .collect();

    let rounds_start = Instant::now();
    let mut setup_s = 0.0;
    for round in 0..o.runs {
        for c in &mut collected {
            let mut run = e2e::run(env, c.w, o.seed, o.seconds)?;
            println!(
                "round {}/{} {:<16} seed {}: wall {:.3} s, cpu {:.3} s, rss {:.1} MiB ({} reps), HOF {:.2} VOF {:.2}",
                round + 1,
                o.runs,
                c.w.name,
                o.seed,
                run.value("flow_wall_s"),
                run.value("flow_cpu_s"),
                run.value("peak_rss_mib"),
                run.rep_walls.len(),
                run.hof_pct,
                run.vof_pct
            );
            setup_s += run.value("setup_s") * run.setups as f64;
            // Same seed, same code: the outputs must be the same bytes.
            let output = (run.placement_digest, run.hof_pct, run.vof_pct);
            let first = c.outputs.get_or_insert_with(|| output.clone());
            let repeats = if *first == output {
                Ok(())
            } else {
                Err("outputs differ from round 1".to_string())
            };
            run.ops.record(&format!("round {}", round + 1), repeats);
            let failed_share = run.ops.failed() as f64 / run.ops.attempted as f64;
            let values = run
                .values
                .iter()
                .copied()
                .chain([run.hof_pct, run.vof_pct, failed_share]);
            for (slot, v) in c.runs.iter_mut().zip(values) {
                slot.push(v);
            }
            c.reps.push(run.rep_walls.len());
            c.design_size = run.design_size;
            c.ops.absorb(run.ops);
        }
    }
    let rounds_s = rounds_start.elapsed().as_secs_f64();

    // The traced pass runs as a fresh flowbench process per workload —
    // exactly the driver's `--trace 1` run. In this long-lived process the
    // allocator's heap is already faulted in, and the in-process flow would
    // skip the page-fault cost every fresh `puffer` child pays (≈ 20 % of
    // the wall-clock on ct_top_grid_t2).
    let traced_start = Instant::now();
    std::fs::create_dir_all(&o.results)
        .map_err(|e| format!("create {}: {e}", o.results.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let traced_work = env.work.join("traced");
    for c in &mut collected {
        let mut command = Command::new(&exe);
        command.args([
            "--puffer",
            path_str(&env.puffer),
            "--work",
            path_str(&traced_work),
        ]);
        command.args([
            "--workload",
            c.w.name,
            "--seed",
            &o.seed.to_string(),
            "--trace",
            "1",
        ]);
        let pass = child::run(&mut command, b"")?;
        eprint!("{}", pass.stderr);
        let result = pass.stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let result = result
            .filter(|_| pass.exit_ok)
            .ok_or(format!("traced pass of {} printed no result", c.w.name))?;
        let number = |j: Option<&Json>| j.and_then(Json::as_f64).unwrap_or(f64::NAN);
        c.per_layer = PER_LAYER
            .iter()
            .map(|m| {
                number(
                    result
                        .get("metrics")
                        .and_then(|ms| ms.get(m.name))
                        .and_then(|v| v.get("value")),
                )
            })
            .collect();
        c.ops.attempted += number(result.get("attempted")) as u64;
        if result.get("correct") != Some(&Json::Bool(true)) {
            // The child named each failure on stderr, forwarded above.
            let failed = number(result.get("failed")) as usize;
            let note = "traced pass: an operation failed or a value was not finite";
            c.ops.failures.extend(vec![note.to_string(); failed.max(1)]);
        }
        let name = format!("trace_{}.jsonl", c.w.name);
        let spans =
            std::fs::read(traced_work.join(&name)).map_err(|e| format!("read {name}: {e}"))?;
        atomic_write(&o.results.join(&name), &spans).map_err(|e| format!("write {name}: {e}"))?;
        // Where `eval` is in the timed section, the traced pass must have
        // routed the placement the rounds timed: its report is theirs, to
        // the two decimals `eval` prints.
        if c.w.kind != Kind::ServeBatch {
            let timed = c
                .outputs
                .as_ref()
                .map_or((f64::NAN, f64::NAN), |o| (o.1, o.2));
            let traced = (c.layer("route.hof_pct"), c.layer("route.vof_pct"));
            let same = (traced.0 - timed.0).abs() <= 0.005 && (traced.1 - timed.1).abs() <= 0.005;
            c.ops.record(
                "traced eval report",
                if same {
                    Ok(())
                } else {
                    Err(format!(
                        "HOF/VOF {traced:?} differ from the rounds' {timed:?}"
                    ))
                },
            );
        }
    }
    let traced_s = traced_start.elapsed().as_secs_f64();

    // --- report ---------------------------------------------------------------
    let mut total_failed = 0;
    for c in &collected {
        let (cells, nets, pins) = c.design_size;
        println!(
            "\n{} — {cells} cells, {nets} nets, {pins} pins; n = {} rounds",
            c.w.name, o.runs
        );
        println!(
            "  {:<34} {:>14} {:>14} {:>14} {:>12}  unit",
            "end-to-end metric", "median", "min", "max", "iqr"
        );
        for (m, runs) in suite_metrics().zip(&c.runs) {
            println!(
                "  {:<34} {:>14.4} {:>14.4} {:>14.4} {:>12.4}  {}",
                m.name,
                median(runs),
                min(runs),
                max(runs),
                iqr(runs),
                m.unit
            );
        }
        println!(
            "  {} of {} operations failed, traced pass included",
            c.ops.failed(),
            c.ops.attempted
        );
        println!("  per-layer (traced pass, seed {}):", o.seed);
        for (m, v) in PER_LAYER.iter().zip(&c.per_layer) {
            if m.applies_to(c.w) {
                println!("  {:<34} {:>14.6}  {}", m.name, v, m.unit);
            } else {
                println!(
                    "  {:<34} {:>14}  (measured on serve_batch_w2)",
                    m.name, "n/a"
                );
            }
        }
        // Does the traced pass account for the untraced run?
        if c.w.kind == Kind::Chain {
            let accounted: f64 = [
                "core.init_s",
                "core.gp_s",
                "core.legal_s",
                "dp.refine_s",
                "route.full_s",
            ]
            .iter()
            .map(|n| c.layer(n))
            .sum();
            let wall = median(&c.runs[1]);
            println!(
                "  traced stages sum to {accounted:.3} s = {:.1} % of the untraced flow_wall_s {wall:.3} s",
                accounted / wall * 100.0
            );
        }
        for f in &c.ops.failures {
            println!("  FAILED {f}");
        }
        total_failed += c.ops.failed();
    }
    println!(
        "\nphases: build {:.1} s, set-up {setup_s:.1} s, rounds {rounds_s:.1} s (set-up included), traced pass {traced_s:.1} s",
        o.build_seconds
    );

    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("set", Json::str(&*o.set)),
        ("seed", Json::Num(o.seed as f64)),
        ("n", Json::Num(o.runs as f64)),
        ("run_seconds", Json::Num(o.seconds)),
        ("machine", machine()),
        (
            "metrics",
            Json::obj([
                ("end_to_end", metric_table(&END_TO_END)),
                ("suite_only", metric_table(&SUITE_ONLY)),
                ("per_layer", metric_table(&PER_LAYER)),
            ]),
        ),
        (
            "phases_s",
            Json::obj([
                ("build", Json::Num(o.build_seconds)),
                ("setup", Json::Num(setup_s)),
                ("rounds", Json::Num(rounds_s)),
                ("traced", Json::Num(traced_s)),
            ]),
        ),
        (
            "workloads",
            Json::obj(collected.iter().map(|c| {
                let (cells, nets, pins) = c.design_size;
                let e2e = Json::obj(suite_metrics().zip(&c.runs).map(|(m, runs)| {
                    let (bound_is, bound) = match c.w.compare_bound(m.name) {
                        Bound::Share(b) => ("share", b),
                        Bound::Absolute(b) => ("absolute", b),
                    };
                    (
                        m.name,
                        Json::obj([
                            ("bound_is", Json::str(bound_is)),
                            ("bound", Json::Num(bound)),
                            ("median", Json::Num(median(runs))),
                            ("min", Json::Num(min(runs))),
                            ("max", Json::Num(max(runs))),
                            ("iqr", Json::Num(iqr(runs))),
                            ("n", Json::Num(runs.len() as f64)),
                            ("runs", Json::nums(runs)),
                        ]),
                    )
                }));
                (
                    c.w.name,
                    Json::obj([
                        ("why", Json::str(c.w.why)),
                        (
                            "design",
                            Json::obj([
                                ("cells", Json::Num(cells as f64)),
                                ("nets", Json::Num(nets as f64)),
                                ("pins", Json::Num(pins as f64)),
                            ]),
                        ),
                        (
                            "placement_digest",
                            Json::str(c.outputs.as_ref().map_or("", |o| o.0.as_str())),
                        ),
                        (
                            "repetitions_per_round",
                            Json::nums(&c.reps.iter().map(|r| *r as f64).collect::<Vec<_>>()),
                        ),
                        ("attempted", Json::Num(c.ops.attempted as f64)),
                        ("failed", Json::Num(c.ops.failed() as f64)),
                        (
                            "failures",
                            Json::Arr(c.ops.failures.iter().map(Json::str).collect()),
                        ),
                        ("end_to_end", e2e),
                        (
                            "per_layer",
                            Json::obj(PER_LAYER.iter().zip(&c.per_layer).map(|(m, v)| {
                                let v = if m.applies_to(c.w) {
                                    Json::Num(*v)
                                } else {
                                    Json::Null
                                };
                                (m.name, v)
                            })),
                        ),
                    ]),
                )
            })),
        ),
    ]);
    let path = o.results.join(format!("{}.json", o.set));
    atomic_write(&path, doc.render_pretty().as_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(total_failed == 0)
}
