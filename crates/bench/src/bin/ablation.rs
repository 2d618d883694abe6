//! Ablation study over PUFFER's mechanisms (the design choices DESIGN.md
//! calls out): each variant disables exactly one ingredient of §III.
//!
//! ```text
//! cargo run -p puffer-bench --release --bin ablation \
//!     [--scale 0.01] [--designs media_subsys,a53_adb_wrap] [--out target/paper]
//! ```
//!
//! Variants:
//! * `full`            — PUFFER as published;
//! * `no-detour`       — congestion estimation without the detour-imitating
//!   expansion (§III-A.3);
//! * `local-only`      — padding formula sees only the local features
//!   (CNN/GNN feature weights zeroed, §III-B.1);
//! * `no-recycle`      — padding recycling disabled (ζ → ∞, §III-B.3);
//! * `no-inherit`      — legalization without padding inheritance (§III-D);
//! * `no-padding`      — routability optimizer never triggers (pure ePlace);
//! * `wsa`             — white-space allocation instead of padding (the
//!   alternative strategy family of §I refs \[10\]–\[11\]).

#![forbid(unsafe_code)]
#![expect(
    clippy::expect_used,
    reason = "harness binary: aborting with a message is its error path"
)]

use puffer::{evaluate_bounded, ComparisonTable, EvalRow, Job, PufferConfig, WsaConfig, WsaPlacer};
use puffer_bench::{generate_logged, HarnessArgs};
use puffer_budget::Budget;
use puffer_route::RouterConfig;
use puffer_trace::Trace;

fn variants() -> Vec<(&'static str, PufferConfig)> {
    let base = PufferConfig::default();

    let mut no_detour = base.clone();
    no_detour.estimator.expand_detours = false;

    let mut local_only = base.clone();
    local_only.strategy.alpha[2] = 0.0; // surrounding congestion
    local_only.strategy.alpha[3] = 0.0; // surrounding pin density
    local_only.strategy.alpha[4] = 0.0; // pin congestion

    let mut no_recycle = base.clone();
    no_recycle.strategy.zeta = 1e12;

    let mut no_inherit = base.clone();
    no_inherit.inherit_padding = false;

    let mut no_padding = base.clone();
    no_padding.strategy.max_rounds = 0;

    vec![
        ("full", base),
        ("no-detour", no_detour),
        ("local-only", local_only),
        ("no-recycle", no_recycle),
        ("no-inherit", no_inherit),
        ("no-padding", no_padding),
    ]
}

fn main() {
    let mut args = HarnessArgs::parse(0.01);
    if args.designs.is_none() {
        args.designs = Some(vec!["media_subsys".into(), "a53_adb_wrap".into()]);
    }
    let out_dir = args.ensure_out_dir().clone();

    let mut table = ComparisonTable::new();
    for config in args.configs() {
        let design = generate_logged(&config);
        type FlowRunner<'a> = Box<dyn Fn() -> Result<puffer::FlowResult, puffer::PufferError> + 'a>;
        let mut flows: Vec<(&str, FlowRunner)> = Vec::new();
        for (name, cfg) in variants() {
            let d = &design;
            flows.push((name, Box::new(move || Job::new(cfg.clone()).run(d))));
        }
        {
            let d = &design;
            flows.push((
                "wsa",
                Box::new(move || WsaPlacer::new(WsaConfig::default()).place(d)),
            ));
        }
        for (name, run) in flows {
            eprintln!("[run] {} / {}", design.name(), name);
            let result = run().expect("variant failed");
            let report = evaluate_bounded(
                &design,
                &result.placement,
                &RouterConfig::default(),
                &Budget::unbounded(),
                &Trace::disabled(),
            )
            .expect("route evaluation failed");
            eprintln!(
                "[run] {} / {}: HOF {:.2}% VOF {:.2}% WL {:.0} RT {:.1}s",
                design.name(),
                name,
                report.hof_pct,
                report.vof_pct,
                report.wirelength,
                result.runtime_s
            );
            table.push(EvalRow {
                benchmark: design.name().to_string(),
                flow: name.to_string(),
                hof_pct: report.hof_pct,
                vof_pct: report.vof_pct,
                wirelength: report.wirelength,
                runtime_s: result.runtime_s,
            });
        }
    }

    println!(
        "\nAblation over PUFFER mechanisms (scale {}):\n",
        args.scale
    );
    println!("{}", table.render("full"));
    let path = out_dir.join("ablation.csv");
    puffer_budget::fsx::atomic_write(&path, table.to_csv().as_bytes()).expect("write ablation.csv");
    eprintln!("wrote {}", path.display());
}
