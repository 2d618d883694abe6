//! Golden test for the telemetry pipeline: a `place --metrics` run on a
//! tiny preset must produce schema-valid JSONL whose contents are
//! consistent with the flow result — one `place.iter` record per GP
//! iteration, the full stage-span set (checkpoint writes included), and
//! top-level stage times that sum to (within tolerance) the reported
//! runtime.

use puffer_trace::{read_jsonl, ParsedRecord};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("puffer-metrics-golden");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run_cli(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    puffer_cli::run(&args, &mut out).unwrap_or_else(|e| panic!("cli failed: {e}"));
    out
}

#[test]
fn metrics_run_is_schema_valid_and_consistent() {
    let design = tmp("golden.pd");
    let placed = tmp("golden.pl");
    let metrics = tmp("golden.jsonl");
    let journal = tmp("golden.pj");
    run_cli(&[
        "gen",
        "--preset",
        "or1200",
        "--scale",
        "0.003",
        "-o",
        design.to_str().unwrap(),
    ]);
    run_cli(&[
        "place",
        design.to_str().unwrap(),
        "-o",
        placed.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "--checkpoint-every",
        "10",
    ]);

    let records = read_jsonl(&metrics).expect("metrics must parse as JSONL");
    assert!(!records.is_empty());

    // Schema: every record has a kind ("t") and an elapsed_s timestamp,
    // and the timestamps are monotonically non-decreasing (append order).
    let mut prev = 0.0;
    for r in &records {
        assert!(r.kind().is_some(), "record without kind");
        let e = r.num("elapsed_s").expect("record without elapsed_s");
        assert!(e >= prev, "elapsed_s went backwards: {e} < {prev}");
        prev = e;
    }

    let of_kind = |k: &str| -> Vec<&ParsedRecord> {
        records.iter().filter(|r| r.kind() == Some(k)).collect()
    };

    // One flow.done; one place.iter per GP iteration it reports.
    let done = of_kind("flow.done");
    assert_eq!(done.len(), 1);
    let done = done[0];
    let gp_iterations = done.num("gp_iterations").unwrap() as usize;
    let pad_rounds = done.num("pad_rounds").unwrap() as usize;
    let runtime_s = done.num("runtime_s").unwrap();
    assert!(gp_iterations >= 1);
    assert!(runtime_s > 0.0);
    assert_eq!(of_kind("place.iter").len(), gp_iterations);

    // Iteration indices are 1..=gp_iterations in order, with finite HPWL.
    for (i, r) in of_kind("place.iter").iter().enumerate() {
        assert_eq!(r.num("iter"), Some((i + 1) as f64));
        assert!(r.num("hpwl").unwrap().is_finite());
        assert!(r.num("overflow").unwrap().is_finite());
    }

    // One pad.round (and one congest.round) per padding round.
    assert_eq!(of_kind("pad.round").len(), pad_rounds);
    assert_eq!(of_kind("congest.round").len(), pad_rounds);

    // The summary span records cover all stages, and the top-level stage
    // times sum to the flow runtime within tolerance. (Spans nest, so
    // only top-level labels — no '/' — are summed.)
    let spans = of_kind("span");
    let label = |r: &ParsedRecord| r.str_field("label").unwrap().to_string();
    for stage in ["init", "gp", "legal", "gp/pad", "gp/journal", "journal"] {
        assert!(
            spans.iter().any(|r| label(r) == stage),
            "missing span record for stage {stage:?}"
        );
    }
    let stage_sum: f64 = spans
        .iter()
        .filter(|r| !label(r).contains('/'))
        .map(|r| r.num("total_s").unwrap())
        .sum();
    let tolerance = 0.25 * runtime_s + 0.05;
    assert!(
        (stage_sum - runtime_s).abs() <= tolerance,
        "stage times {stage_sum:.3}s inconsistent with runtime {runtime_s:.3}s"
    );

    // The gp/pad span count matches the padding rounds.
    let pad_span = spans
        .iter()
        .find(|r| label(r) == "gp/pad")
        .expect("gp/pad span");
    assert_eq!(pad_span.num("count"), Some(pad_rounds as f64));

    // One checkpoint write every 10 iterations inside the loop, one after.
    let count = |stage: &str| {
        let r = spans.iter().find(|r| label(r) == stage).unwrap();
        r.num("count").unwrap() as usize
    };
    assert_eq!(count("gp/journal"), gp_iterations / 10);
    assert_eq!(count("journal"), 1);

    // The density pipeline's exact counters. A first-round-accepted step
    // is 3 transforms: the one new gradient's (its opening gradient is the
    // one the previous step's last round left in the workspace, and the
    // step's overflow is read off that gradient's charge map), so every
    // evaluation is a gradient and no statistics pass runs. The pinned
    // values make any change to that shape visible; the bound keeps a step
    // below 4 transforms, which three full evaluations (12) or a Poisson
    // solve for the statistics would break.
    let counter = |name: &str| -> usize {
        let r = of_kind("counter")
            .into_iter()
            .find(|r| r.str_field("name") == Some(name))
            .unwrap_or_else(|| panic!("no {name} counter"));
        r.num("value").unwrap() as usize
    };
    assert_eq!(gp_iterations, 203);
    assert_eq!(counter("place.density_evals"), 247);
    assert_eq!(
        counter("fft.transforms2d"),
        3 * counter("place.density_evals")
    );
    assert_eq!(counter("fft.transforms2d"), 741);
    assert!(counter("fft.transforms2d") < 4 * gp_iterations);

    // The WA kernel's exact counters. Every density evaluation has a WA
    // evaluation beside it, and a step's HPWL is read off its last WA
    // evaluation. A step's opening gradient takes γ where the previous
    // step's last backtracking round took it, so that round's WA gradient
    // serves it as its density gradient does.
    // `terms` is what Eq. (2) names, 4 exponentials per pin of a
    // contributing net per evaluation: 8_604 (4 × 2151 pins) each; `calls`
    // is what the kernel ran, 5_064 per evaluation on this design. The
    // pinned values make any change to the elision or the evaluation count
    // visible; the bound keeps un-elided evaluation (calls = terms) from
    // coming back.
    assert_eq!(counter("place.wa_grad_evals"), 247);
    assert_eq!(
        counter("place.wa_grad_evals"),
        counter("place.density_evals")
    );
    assert_eq!(counter("place.wa_exp_terms"), 2_125_188);
    assert_eq!(counter("place.wa_exp_calls"), 1_250_808);
    assert!(10 * counter("place.wa_exp_calls") <= 6 * counter("place.wa_exp_terms"));

    // The CLI check (the metrics audit plus the span/record rules) accepts it.
    let out = run_cli(&["trace", metrics.to_str().unwrap(), "--check"]);
    assert!(out.contains("check OK"), "{out}");
}
