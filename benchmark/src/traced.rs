//! The traced pass: one more run of a workload's flow, in-process through
//! the library, with spans recorded by the benchmark itself around every
//! call into a layer. The flow runs once as a `puffer::Job` whose observer
//! clones the state at each stage boundary; each layer's entry point is
//! then replayed on those captured snapshots. Exact counts and the stage
//! durations come from the program's own records (`place --metrics`).

use crate::child::ChildRun;
use crate::e2e::{self, path_str, Env, Ops, Prepared};
use crate::json::Json;
use crate::layers::{self, StageSnap};
use crate::spec::{Kind, Workload, PER_LAYER, SERVE_JOBS, SERVE_WORKERS};
use puffer::StagePoint;
use puffer_trace::{read_jsonl, ParsedRecord};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timed repetitions of a replayed layer call (after one warm-up); the
/// minimum is reported.
const REPLAYS: usize = 5;
/// `GlobalPlacer::step` calls per `place.step` replay.
const STEPS_PER_REPLAY: usize = 10;

/// One recorded interval: a call into a layer, or a group of them.
#[derive(Debug, Clone)]
struct Span {
    id: usize,
    parent: Option<usize>,
    name: String,
    start_s: f64,
    end_s: f64,
}

/// Spans of one traced pass, kept in memory and written out at the end.
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(workload: &'static str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Records an interval measured elsewhere (observer timestamps).
    fn interval(&mut self, name: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            id: self.spans.len(),
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_s: self.at(start),
            end_s: self.at(end),
        });
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start = Instant::now();
        self.interval(name, start, start);
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        let end = Instant::now();
        self.spans[id].end_s = self.at(end);
        (value, end.duration_since(start).as_secs_f64())
    }

    /// One warm-up call, then [`REPLAYS`] timed ones, each its own span;
    /// returns the minimum duration and the last result.
    fn replay<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> (f64, T) {
        let (mut last, _) = self.span(&format!("{name} (warm-up)"), |_| black_box(f()));
        let mut best = f64::INFINITY;
        for _ in 0..REPLAYS {
            let (value, took) = self.span(name, |_| black_box(f()));
            best = best.min(took);
            last = value;
        }
        (best, last)
    }

    /// One JSON object per span: name, start, end, parent, workload id.
    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::obj([
                ("workload", Json::str(self.workload)),
                ("id", Json::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(&*s.name)),
                ("start_s", Json::Num(s.start_s)),
                ("end_s", Json::Num(s.end_s)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// The result of one traced pass.
pub struct TracedRun {
    /// One value per [`PER_LAYER`] metric, in table order.
    pub values: Vec<f64>,
    pub ops: Ops,
    /// The spans, one JSON object per line.
    pub spans_jsonl: String,
}

/// Sum of `field` over the records of one kind.
fn sum_of(records: &[ParsedRecord], kind: &str, field: &str) -> f64 {
    let of_kind = records.iter().filter(|r| r.kind() == Some(kind));
    of_kind.filter_map(|r| r.num(field)).sum()
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs the traced pass of `w` for `seed`.
pub fn run(env: &Env, w: &'static Workload, seed: u64) -> Result<TracedRun, String> {
    let mut tracer = Tracer::new(w.name);
    let mut ops = Ops::default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let t = &mut tracer;
    let threads = w.threads;

    // --- inputs -------------------------------------------------------------
    let config = w.generator().map_err(|e| e.to_string())?;
    let (gen_s, generated) = t.replay("gen.generate", || layers::generate(&config));
    m.insert("gen.generate_s", gen_s);
    drop(generated?);

    // --- the shipped binary, once, from outside --------------------------------
    // The workload's commands run plain, on exactly the inputs the
    // end-to-end run makes for this seed: the reference outputs the
    // in-process pass must reproduce, the sys/user split, and the baseline
    // for the telemetry overhead. `p` is the design that gets placed;
    // `routed` is what `eval` reads — the same files in the chains, the
    // relabelled pair in the eval-only workload.
    let (spawned, _) = t.span("binary.plain", |_| -> Result<_, String> {
        let (p, chain, routed) = if w.kind == Kind::EvalOnly {
            let inputs = e2e::write_eval_inputs(&mut ops, env, w, seed)?;
            (inputs.as_placed, inputs.set_up, Some(inputs.routed))
        } else {
            let p = e2e::write_inputs(env, w, seed)?;
            let chain = e2e::place_and_refine(&mut ops, env, w, &p, None)?;
            (p, chain, None)
        };
        let read = routed.as_ref().unwrap_or(&p);
        let (eval, line) = e2e::run_eval(
            &mut ops,
            env,
            w,
            &read.design_path,
            &read.refined_path,
            None,
        )?;
        Ok((p, chain, routed, eval, line))
    });
    let (p, chain, routed, eval, eval_line) = spawned?;
    let routed: &Prepared = routed.as_ref().unwrap_or(&p);
    let (place, refine) = (&chain.place, &chain.refine);
    let design = &p.design;
    let nl = design.netlist();

    let metrics_path = p.dir.join("run.jsonl");
    let (metered, _) = t.span("binary.place --metrics", |_| {
        let out = p.dir.join("metered.pl");
        let mut command = e2e::place_command(env, w, &p.design_path, &out);
        command.args(["--metrics", path_str(&metrics_path)]);
        e2e::run_pl_command(
            &mut ops,
            "place --metrics",
            command,
            b"",
            &[&out],
            design,
            Some(&chain.placed),
            || Ok(()),
        )
    });
    let (metered, _) = metered?;
    let records =
        read_jsonl(&metrics_path).map_err(|e| format!("read {}: {e}", metrics_path.display()))?;
    m.insert("trace.records", records.len() as f64);
    m.insert("trace.overhead_share", metered.wall_s / place.wall_s - 1.0);
    // Stage durations are the shipped binary's own spans. The in-process
    // flow below is not a stand-in for them: in a process whose heap other
    // live data keeps from being trimmed, the same library code skips most of
    // the page faults a fresh `puffer place` pays (see README).
    let stage = |label: &str| {
        let spans = records.iter().filter(|r| r.kind() == Some("span"));
        let of_label = spans.filter(|r| r.str_field("label") == Some(label));
        of_label.filter_map(|r| r.num("total_s")).sum::<f64>()
    };
    let (gp_s, pad_s) = (stage("gp"), stage("gp/pad"));
    m.insert("core.init_s", stage("init"));
    m.insert("core.gp_s", gp_s);
    m.insert("core.pad_s", pad_s);
    m.insert("core.legal_s", stage("legal"));
    let iterations = sum_of(&records, "flow.done", "gp_iterations");
    m.insert("core.gp_iterations", iterations);
    m.insert(
        "core.pad_rounds",
        sum_of(&records, "flow.done", "pad_rounds"),
    );
    m.insert(
        "pad.recycled_cells",
        sum_of(&records, "pad.round", "recycled_cells"),
    );
    let nets_seen = sum_of(&records, "congest.dirty", "nets");
    let lookups = sum_of(&records, "congest.dirty", "rsmt_hits")
        + sum_of(&records, "congest.dirty", "rsmt_misses");
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    m.insert(
        "congest.reuse_ratio",
        ratio(
            nets_seen - sum_of(&records, "congest.dirty", "nets_rebuilt"),
            nets_seen,
        ),
    );
    m.insert(
        "congest.rsmt_hit_ratio",
        ratio(sum_of(&records, "congest.dirty", "rsmt_hits"), lookups),
    );

    // --- the flow, in-process, observed ------------------------------------
    let flow_start = Instant::now();
    let (flow, _) = t.span("core.flow", |_| layers::run_flow(design, threads));
    let (result, snaps) = flow?;
    let same = layers::placement_bytes(&result.placement)? == chain.placed;
    ops.record(
        "in-process flow",
        if same {
            Ok(())
        } else {
            Err("placement differs from the binary's".into())
        },
    );
    let at = |point: StagePoint| {
        snaps
            .iter()
            .find(|s| s.point == point)
            .ok_or(format!("no {point} snapshot"))
    };
    let (init, global, legal) = (
        at(StagePoint::Init)?,
        at(StagePoint::GlobalDone)?,
        at(StagePoint::Legalized)?,
    );
    t.interval("core.init", flow_start, init.at);
    t.interval("core.gp", init.at, global.at);
    t.interval("core.legal", global.at, legal.at);
    let pad_snaps: Vec<&StageSnap> = snaps
        .iter()
        .filter(|s| s.point == StagePoint::PadRound)
        .collect();
    for s in &pad_snaps {
        t.interval("core.pad_round.done", s.at, s.at);
    }
    // Replays run on the state the flow was in when its first padding
    // round fired (mid-GP: cells half spread); `before` is the boundary
    // preceding it.
    let mid = pad_snaps.first().copied().unwrap_or(init);
    let before = init;

    // --- place / fft ----------------------------------------------------------
    let mut stepper = layers::Stepper::new(design, threads, mid)?;
    let dims = stepper.density_dims();
    let (steps_s, _) = t.replay("place.step x10", || {
        (0..STEPS_PER_REPLAY).map(|_| stepper.step()).sum::<f64>()
    });
    let step_s = steps_s / STEPS_PER_REPLAY as f64;
    m.insert("place.step_s", step_s);
    m.insert("place.step_share", ratio(step_s * iterations, gp_s));
    m.insert(
        "core.gp_unattributed_share",
        1.0 - ratio(step_s * iterations + pad_s, gp_s),
    );
    let gamma = layers::wa_gamma(design, dims, mid.overflow);
    let (wa_s, _) = t.replay("place.wa_grad", || {
        layers::wa_grad(design, &mid.placement, gamma, threads)
    });
    m.insert("place.wa_grad_s", wa_s);
    m.insert("place.wa_mpins_per_s", nl.num_pins() as f64 / 1e6 / wa_s);
    let model = layers::density_model(design, dims);
    let widths = layers::effective_widths(design, &mid.padding);
    let (density_s, _) = t.replay("place.density", || {
        layers::density(&model, design, &mid.placement, &widths, threads)
    });
    m.insert("place.density_s", density_s);
    let grid: Vec<f64> = (0..dims.0 * dims.1)
        .map(|i| (i as f64 * 0.13).sin())
        .collect();
    let (fft_s, _) = t.replay("fft.transform2d", || layers::dct2_2d(&grid, dims, threads));
    m.insert("fft.transform2d_s", fft_s);
    m.insert("fft.mbins_per_s", grid.len() as f64 / 1e6 / fft_s);
    let (quad_s, _) = t.replay("place.quadratic_init", || layers::quadratic_init(design));
    m.insert("place.quadratic_init_s", quad_s);
    let (hpwl_s, _) = t.replay("db.hpwl", || layers::hpwl(design, &mid.placement));
    m.insert("db.hpwl_s", hpwl_s);

    // --- flute / congest / pad --------------------------------------------------
    let (rsmt_s, _) = t.replay("flute.rsmt", || layers::rsmt_all(design, &mid.placement));
    m.insert("flute.rsmt_s", rsmt_s);
    m.insert("flute.knets_per_s", nl.num_nets() as f64 / 1e3 / rsmt_s);
    let full = layers::estimator(design, threads, true);
    let (full_s, map) = t.replay("congest.estimate_full", || {
        layers::estimate_full(&full, design, &mid.placement)
    });
    let map = map?;
    m.insert("congest.estimate_full_s", full_s);
    let plain = layers::estimator(design, threads, false);
    let (plain_s, _) = t.replay("congest.estimate_full (detour off)", || {
        layers::estimate_full(&plain, design, &mid.placement).is_ok()
    });
    m.insert("congest.detour_s", full_s - plain_s);
    // Incremental re-estimation walked over the consecutive placements the
    // padding rounds really saw: a cold build on the first, then one timed
    // call per later round. Real dirt, not a synthetic nudge.
    let walk: Vec<&StageSnap> = if pad_snaps.len() >= 2 {
        pad_snaps.clone()
    } else {
        vec![init, global]
    };
    // Each span covers the cold build too; the metric is the best warm
    // mean, so the walks time themselves.
    let mut warm_means = Vec::new();
    let (_, walked) = t.replay("congest.estimate_incr (walk)", || -> Result<(), String> {
        let mut est = layers::estimator(design, threads, true);
        layers::estimate_incremental(&mut est, design, &walk[0].placement)?;
        let t0 = Instant::now();
        for s in &walk[1..] {
            layers::estimate_incremental(&mut est, design, &s.placement)?;
        }
        warm_means.push(t0.elapsed().as_secs_f64() / (walk.len() - 1) as f64);
        Ok(())
    });
    walked?;
    m.insert(
        "congest.estimate_incr_s",
        crate::stats::min(&warm_means[1..]),
    );
    let (features_s, features) = t.replay("pad.features", || {
        layers::features(design, &mid.placement, &map)
    });
    m.insert("pad.features_s", features_s);
    let (round_s, _) = t.replay("pad.round", || {
        layers::padding_round(design, &features, &before.padding)
    });
    m.insert("pad.round_s", round_s);

    // --- legal / dp / route ---------------------------------------------------------
    let (legal_s, legalized) = t.replay("legal.legalize", || {
        layers::legalize(design, &global.placement, &global.padding)
    });
    m.insert("legal.legalize_s", legal_s);
    m.insert("legal.avg_displacement", legalized?.avg_displacement);
    let (refine_s, refined) = t.replay("dp.refine", || layers::refine(design, &result.placement));
    let refined = refined?;
    m.insert("dp.refine_s", refine_s);
    m.insert("dp.moves", refined.moves as f64);
    let same = layers::placement_bytes(&refined.placement)? == chain.refined;
    ops.record(
        "in-process refine",
        if same {
            Ok(())
        } else {
            Err("placement differs from the binary's".into())
        },
    );
    // The router replays what the binary's `eval` read, so that route.* and
    // the end-to-end eval describe one input.
    let routed_pl = std::fs::read(&routed.refined_path)
        .map_err(|e| format!("read {}: {e}", routed.refined_path.display()))?;
    let routed_pl = layers::read_placement(&routed_pl, &routed.design)?;
    let router = layers::router(&routed.design, threads, false);
    let (route_s, report) = t.replay("route.full", || {
        layers::route(&router, &routed.design, &routed_pl)
    });
    let report = report?;
    let pattern = layers::router(&routed.design, threads, true);
    let (pattern_s, _) = t.replay("route.pattern", || {
        layers::route(&pattern, &routed.design, &routed_pl).is_ok()
    });
    m.insert("route.full_s", route_s);
    m.insert("route.pattern_s", pattern_s);
    // With no overflow the two routers do the same work: no negative share.
    m.insert(
        "route.maze_share",
        (1.0 - ratio(pattern_s, route_s)).max(0.0),
    );
    m.insert("route.rounds", report.rounds as f64);
    m.insert("route.overflow_gcells", report.overflow_gcells as f64);
    m.insert("route.hof_pct", report.hof_pct);
    m.insert("route.vof_pct", report.vof_pct);
    let printed = eval_line.ok_or("the binary's eval printed no report")?;
    let close = (report.wirelength - printed.routed_wl).abs() <= 0.5
        && (report.hof_pct - printed.hof_pct).abs() <= 0.005
        && (report.vof_pct - printed.vof_pct).abs() <= 0.005;
    ops.record(
        "in-process route",
        if close {
            Ok(())
        } else {
            Err(format!("report differs from the binary's: {printed:?}"))
        },
    );

    // --- db / checkpoint ----------------------------------------------------------
    let design_text = layers::design_bytes(design)?;
    let (read_s, _) = t.replay("db.read_design", || {
        layers::read_design(&design_text).is_ok()
    });
    m.insert("db.read_design_s", read_s);
    let (write_s, _) = t.replay("db.write_placement", || {
        layers::placement_bytes(&result.placement).is_ok()
    });
    m.insert("db.write_placement_s", write_s);
    let shelf = layers::bookshelf_emit(design);
    let (ingest_s, ingested) = t.replay("db.bookshelf_ingest", || {
        layers::bookshelf_ingest(design.name(), &shelf)
    });
    let ingested = ingested?;
    let inl = ingested.netlist();
    let same = (inl.num_cells(), inl.num_nets(), inl.num_pins())
        == (nl.num_cells(), nl.num_nets(), nl.num_pins());
    ops.record(
        "bookshelf round trip",
        if same {
            Ok(())
        } else {
            Err("cell/net/pin counts changed".into())
        },
    );
    m.insert(
        "db.bookshelf_ingest_kcells_per_s",
        nl.num_cells() as f64 / 1e3 / ingest_s,
    );
    let checkpoint = layers::checkpoint(design, threads, mid)?;
    let checkpoint_path = p.dir.join("replay.pj");
    let (save_s, saved) = t.replay("core.checkpoint_save", || {
        layers::checkpoint_save(&checkpoint, &checkpoint_path)
    });
    saved?;
    m.insert("core.checkpoint_save_s", save_s);
    m.insert(
        "core.checkpoint_bytes",
        std::fs::metadata(&checkpoint_path).map_or(0.0, |md| md.len() as f64),
    );

    // --- serve: the daemon around the same layers ---------------------------------
    // One more batch against one solo run journaled the way the daemon
    // journals a job.
    let mut batch = None;
    if w.kind == Kind::ServeBatch {
        let journal = p.dir.join("journal");
        let (served, _) = t.span("serve.batch", |_| {
            e2e::serve_batch(&mut ops, env, w, &p, &journal, None)
        });
        let (served, job_pl) = served?;
        let runtimes: Vec<f64> = (1..=SERVE_JOBS)
            .filter_map(|job| {
                std::fs::read_to_string(journal.join(format!("job-{job}")).join("result.json")).ok()
            })
            .filter_map(|text| {
                puffer_trace::parse_record(text.trim())
                    .ok()?
                    .num("runtime_s")
            })
            .collect();
        let solo_metrics = p.dir.join("solo.jsonl");
        let (solo, _) = t.span("serve.solo place --journal", |_| {
            let out = p.dir.join("solo.pl");
            let mut command = e2e::place_command(env, w, &p.design_path, &out);
            command.args([
                "--journal",
                path_str(&p.dir.join("solo.pj")),
                "--checkpoint-every",
                "10",
            ]);
            command.args(["--metrics", path_str(&solo_metrics)]);
            e2e::run_pl_command(
                &mut ops,
                "solo place (must equal serve job 1)",
                command,
                b"",
                &[&out],
                design,
                Some(&job_pl),
                || Ok(()),
            )
        });
        solo?;
        let solo_s = sum_of(
            &read_jsonl(&solo_metrics).map_err(|e| e.to_string())?,
            "flow.done",
            "runtime_s",
        );
        let job_sum: f64 = runtimes.iter().sum();
        let job_mean = ratio(job_sum, runtimes.len() as f64);
        m.insert("serve.job_run_s_mean", job_mean);
        m.insert("serve.contention_ratio", ratio(job_mean, solo_s));
        m.insert(
            "serve.parallel_efficiency",
            ratio(job_sum, SERVE_WORKERS as f64 * served.wall_s),
        );
        m.insert("serve.journal_bytes", dir_bytes(&journal) as f64);
        batch = Some(served);
    }

    // sys / (user+sys) over the workload's own timed commands.
    let timed: Vec<&ChildRun> = match &batch {
        Some(batch) => vec![batch],
        None if w.kind == Kind::EvalOnly => vec![&eval],
        None => vec![place, refine, &eval],
    };
    let sys: f64 = timed.iter().map(|r| r.sys_s).sum();
    let cpu: f64 = timed.iter().map(|r| r.cpu_s()).sum();
    m.insert("core.sys_cpu_share", ratio(sys, cpu));

    // A metric this workload's pass does not measure reads 0 in the result
    // line (the driver wants every name); the suite prints it as n/a.
    let values = PER_LAYER
        .iter()
        .map(|metric| match m.get(metric.name) {
            Some(v) => Ok(*v),
            None if !metric.applies_to(w) => Ok(0.0),
            None => Err(format!("traced pass did not measure {}", metric.name)),
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(TracedRun {
        values,
        ops,
        spans_jsonl: tracer.to_jsonl(),
    })
}
