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

use puffer::{Baseline, ComparisonTable, EvalRow, Flow, Job, PufferConfig};
use puffer_bench::{evaluate, generate_logged, run_flow, HarnessArgs};

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
        let mut push = |row: EvalRow| {
            eprintln!(
                "[run] {} / {}: HOF {:.2}% VOF {:.2}% WL {:.0} RT {:.1}s",
                row.benchmark, row.flow, row.hof_pct, row.vof_pct, row.wirelength, row.runtime_s
            );
            table.push(row);
        };
        for (name, cfg) in variants() {
            eprintln!("[run] {} / {}", design.name(), name);
            let result = Job::new(cfg).run(&design).expect("variant failed");
            push(evaluate(&design, name, &result).0);
        }
        let wsa = Flow::Baseline(Baseline::Wsa);
        eprintln!("[run] {} / {}", design.name(), wsa.label());
        push(run_flow(&design, wsa).0);
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
