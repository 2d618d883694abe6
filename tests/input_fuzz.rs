//! Structure-aware mutation fuzzing of every byte-level input surface:
//! native `.pd` designs, `.pl` placements, the Bookshelf quartet, the
//! checkpoint journal, metrics JSONL, and serve request lines.
//!
//! Each surface starts from a valid input, applies one to three seeded
//! mutations (swap a numeric token for a hostile one, truncate, duplicate
//! a span, overwrite a byte), and drives the result *past the parser* —
//! through the consumer a user would run next (a few flow iterations, a
//! route evaluation, the artifact audit, the serve loop). The outcome must
//! be `Ok` or a structured error: never a panic, never a hang, never an
//! allocation sized by the input. The two crashes this harness was built
//! around (a scribbled journal, a non-UTF-8 serve line) sat one layer past
//! the parser; its first runs found six more in the parsers themselves.
//! All of them lead the fixtures of their surface.
//!
//! Time-boxed: at most [`TIME_BOX`] or [`MAX_CASES`] per surface. A case
//! that panics is written to the temp dir and reported with its seed, so it
//! can be committed as a fixture.

use puffer::{evaluate_bounded, CheckpointPolicy, FlowCheckpoint, Job, PufferConfig};
use puffer_audit::Validate;
use puffer_budget::Budget;
use puffer_db::bookshelf::parse_bookshelf_streaming;
use puffer_db::design::Design;
use puffer_db::io::{read_design, read_placement, write_design, write_placement};
use puffer_gen::{generate, GeneratorConfig};
use puffer_rng::StdRng;
use puffer_route::RouterConfig;
use puffer_serve::{serve_lines, Engine, ServeConfig};
use puffer_trace::Trace;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const TIME_BOX: Duration = Duration::from_secs(2);
const MAX_CASES: usize = 400;

/// What a numeric token is swapped for: not-a-number, the infinities, a
/// negative zero, the edge of `f64`, one past `u32` and `u64`, a sign flip.
const HOSTILE: &[&str] = &[
    "nan",
    "NaN",
    "inf",
    "-inf",
    "-0",
    "1e308",
    "-1e308",
    "4294967296",
    "18446744073709551616",
    "-1",
];

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("puffer-input-fuzz").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_design() -> Design {
    generate(&GeneratorConfig {
        num_cells: 40,
        num_nets: 44,
        num_macros: 1,
        ..GeneratorConfig::default()
    })
    .unwrap()
}

fn tiny_config(max_iters: usize) -> PufferConfig {
    let mut c = PufferConfig::default();
    c.placer.max_iters = max_iters;
    c.placer.threads = 1;
    c.estimator.threads = 1;
    c
}

/// A budget short enough that no flow over a hostile input outlives it.
fn short_budget() -> Budget {
    Budget::with_deadline(Duration::from_millis(100))
}

// --- mutations --------------------------------------------------------------

/// Byte ranges of the tokens that parse as numbers (in text and in JSON).
fn numeric_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let part_of_number = |b: u8| b.is_ascii_digit() || b".-+eE".contains(&b);
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !part_of_number(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && part_of_number(bytes[i]) {
            i += 1;
        }
        let inside_a_name = start > 0 && bytes[start - 1].is_ascii_alphanumeric();
        let parses = std::str::from_utf8(&bytes[start..i]).is_ok_and(|t| t.parse::<f64>().is_ok());
        if parses && !inside_a_name {
            spans.push((start, i));
        }
    }
    spans
}

fn mutate(rng: &mut StdRng, input: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        if out.is_empty() {
            break;
        }
        match rng.gen_range(0..5u32) {
            // Twice the weight: this is the mutation parsers let through.
            0 | 1 => {
                let spans = numeric_spans(&out);
                if !spans.is_empty() {
                    let (start, end) = spans[rng.gen_range(0..spans.len())];
                    let hostile = HOSTILE[rng.gen_range(0..HOSTILE.len())];
                    out.splice(start..end, hostile.bytes());
                }
            }
            2 => out.truncate(rng.gen_range(0..out.len())),
            3 => {
                let start = rng.gen_range(0..out.len());
                let end = (start + rng.gen_range(1..=64usize)).min(out.len());
                let span = out[start..end].to_vec();
                out.splice(end..end, span);
            }
            _ => {
                let at = rng.gen_range(0..out.len());
                // Every other overwrite is 0xFF, which is never valid UTF-8.
                out[at] = if rng.gen_bool(0.5) {
                    0xFF
                } else {
                    rng.gen_range(0..=255u32) as u8
                };
            }
        }
    }
    out
}

/// Drives `fixtures`, then seeded mutations of `input`, through `drive`
/// until the time box or the case cap.
fn fuzz(
    surface: &str,
    seed: u64,
    input: &[u8],
    fixtures: Vec<Vec<u8>>,
    mut drive: impl FnMut(&[u8]),
) {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let mutations = std::iter::from_fn(|| Some(mutate(&mut rng, input)));
    for (i, case) in fixtures
        .into_iter()
        .chain(mutations)
        .take(MAX_CASES)
        .enumerate()
    {
        if started.elapsed() > TIME_BOX {
            break;
        }
        if catch_unwind(AssertUnwindSafe(|| drive(&case))).is_err() {
            let saved = std::env::temp_dir().join(format!("puffer-input-fuzz-{surface}-{i}.bin"));
            std::fs::write(&saved, &case).unwrap();
            panic!(
                "{surface}: case {i} of seed {seed:#x} panicked; input saved to {} — \
                 make it a fixture",
                saved.display()
            );
        }
    }
}

/// Rewrites whitespace-separated field `field` of the first line starting
/// with `prefix`: how the journal fixtures are written down.
fn scribble(text: &[u8], prefix: &str, field: usize, value: &str) -> Vec<u8> {
    let text = std::str::from_utf8(text).unwrap();
    let mut done = false;
    let mut out = String::new();
    for line in text.lines() {
        if !done && line.starts_with(prefix) {
            done = true;
            let mut fields: Vec<&str> = line.split(' ').collect();
            fields[field] = value;
            out.push_str(&fields.join(" "));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    assert!(done, "no '{prefix}' line to scribble on");
    out.into_bytes()
}

// --- past the parser ---------------------------------------------------------

/// What `puffer stats` and `puffer audit design` do with a design that
/// parsed. (Not the flow: its congestion grid is sized by the region, and a
/// hostile region asks for more memory than a shared CI machine has.)
fn use_design(design: &Design) {
    let _ = design.stats();
    let start = design.initial_placement();
    let _ = puffer_db::hpwl::total_hpwl(design.netlist(), &start);
    let _ = design.validate();
}

// --- the surfaces ------------------------------------------------------------

#[test]
fn native_design_text() {
    let mut input = Vec::new();
    write_design(&tiny_design(), &mut input).unwrap();
    // A 1e13 x 3 region `stats` accepted and `place` aborted on (its
    // congestion grid), then, found by this harness: values the
    // `tech`/`Rect` constructors assert on, and a region tall enough for
    // 2^32 rows (a 100 GiB row table).
    let fixtures = vec![
        b"design wide\ntech 1 0.2\nregion 0 0 1e13 3\ncell a 1 1 movable\n\
          cell b 1 1 movable\nnet n 1\npin 0 0 0 0\npin 1 0 0 0\n"
            .to_vec(),
        scribble(&input, "tech ", 1, "-1"),
        scribble(&input, "layer ", 4, "nan"),
        scribble(&input, "region ", 3, "-1"),
        scribble(&input, "region ", 4, "4294967296"),
        scribble(&input, "macro_at ", 2, "nan"),
    ];
    fuzz("pd", 0x9D, &input, fixtures, |bytes| {
        if let Ok(design) = read_design(bytes) {
            use_design(&design);
        }
    });
}

#[test]
fn native_placement_text() {
    let design = tiny_design();
    let mut input = Vec::new();
    write_placement(&design.initial_placement(), &mut input).unwrap();
    fuzz("pl", 0x91, &input, Vec::new(), |bytes| {
        if let Ok(placement) = read_placement(bytes, design.netlist().num_cells()) {
            // `puffer eval` on it.
            let _ = evaluate_bounded(
                &design,
                &placement,
                &RouterConfig::default(),
                &short_budget(),
                &Trace::disabled(),
            );
        }
    });
}

#[test]
fn bookshelf_quartet() {
    // One buffer, so a single mutation stream covers all four files; a
    // mutation that eats a separator just leaves the later files empty.
    const SEPARATOR: &str = "\n%%file%%\n";
    let quartet = [
        "UCLA nodes 1.0\nNumNodes : 4\nNumTerminals : 1\na 2 1\nb 3 1\nc 2 1\np 1 1 terminal\n",
        "UCLA nets 1.0\nNumNets : 2\nNumPins : 5\nNetDegree : 3 n0\n a I : 0.5 0\n b O : -0.5 0\n \
         p I : 0 0\nNetDegree : 2 n1\n b I : 0 0.25\n c O : 0 0\n",
        "UCLA pl 1.0\na 0 0 : N\nb 4 0 : N\nc 8 1 : N\np 12 3 : N /FIXED\n",
        "UCLA scl 1.0\nNumRows : 2\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n \
         Sitewidth : 1\n SubrowOrigin : 0 NumSites : 16\nEnd\nCoreRow Horizontal\n \
         Coordinate : 1\n Height : 1\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 16\nEnd\n",
    ];
    let parse = |mut rest: &[u8]| {
        let sep = SEPARATOR.as_bytes();
        let mut next = || match rest.windows(sep.len()).position(|w| w == sep) {
            Some(at) => {
                let file = &rest[..at];
                rest = &rest[at + sep.len()..];
                file
            }
            None => std::mem::take(&mut rest),
        };
        let (nodes, nets, pl, scl) = (next(), next(), next(), next());
        parse_bookshelf_streaming("fuzz", nodes, nets, pl, scl)
    };
    let input = quartet.join(SEPARATOR).into_bytes();
    parse(&input).expect("the unmutated quartet must parse");
    // Found by this harness: a terminal at NaN, rows that span no region.
    let fixtures = vec![
        scribble(&input, "p 12 3", 1, "nan"),
        scribble(&input, " Height : 1", 3, "nan"),
    ];
    fuzz("bookshelf", 0xB5, &input, fixtures, |bytes| {
        if let Ok(design) = parse(bytes) {
            use_design(&design);
        }
    });
}

#[test]
fn checkpoint_journal() {
    let dir = tmp_dir("journal");
    let design = tiny_design();
    let journal = dir.join("run.pj");
    Job::new(tiny_config(40))
        .with_checkpoints(CheckpointPolicy {
            path: journal.clone(),
            every: 10,
            keep_history: true,
        })
        .run(&design)
        .unwrap();
    // A mid-loop checkpoint, so a resumed run still has iterations to do.
    let input = std::fs::read(dir.join("run.pj.iter000010")).unwrap();

    // The inputs that crashed `puffer place --resume` (exit 101) before
    // `RoutabilityOptimizer::set_state` became fallible.
    let fixtures = vec![
        scribble(&input, "cell 0 ", 5, "NaN"),
        scribble(&input, "cell 0 ", 5, "inf"),
        scribble(&input, "cell 0 ", 5, "-1"),
        scribble(&input, "pad_util ", 1, "NaN"),
        // Found by this harness: a cell count that sized 32 GiB of vectors.
        scribble(&input, "design ", 1, "4294967296"),
    ];
    let scratch = dir.join("case.pj");
    fuzz("journal", 0x70, &input, fixtures, |bytes| {
        std::fs::write(&scratch, bytes).unwrap();
        if let Ok(checkpoint) = FlowCheckpoint::load(&scratch) {
            let _ = Job::new(tiny_config(13))
                .with_budget(short_budget())
                .run_from(&design, checkpoint);
        }
    });
}

#[test]
fn metrics_jsonl() {
    let dir = tmp_dir("metrics");
    let metrics = dir.join("run.jsonl");
    let trace = Trace::with_sink(&metrics).unwrap();
    Job::new(tiny_config(20))
        .with_trace(trace.clone())
        .run(&tiny_design())
        .unwrap();
    drop(trace);
    let input = std::fs::read(&metrics).unwrap();
    let scratch = dir.join("case.jsonl");
    fuzz("metrics", 0x3E, &input, Vec::new(), |bytes| {
        std::fs::write(&scratch, bytes).unwrap();
        let _ = puffer_trace::read_jsonl(&scratch);
        let _ = puffer_audit::audit_metrics(&scratch);
    });
}

#[test]
fn serve_request_lines() {
    let dir = tmp_dir("serve");
    let design = dir.join("tiny.pd");
    let mut text = Vec::new();
    write_design(&tiny_design(), &mut text).unwrap();
    std::fs::write(&design, text).unwrap();
    // A tiny job with a deadline: a mutated `max_iters` cannot run long.
    let input = format!(
        "{{\"t\":\"ping\"}}\n\
         {{\"t\":\"submit\",\"design\":\"{}\",\"max_iters\":12,\"threads\":1,\"deadline_s\":0.5}}\n\
         {{\"t\":\"status\"}}\n\
         {{\"t\":\"wait\",\"id\":1,\"timeout_s\":5}}\n\
         {{\"t\":\"cancel\",\"id\":1}}\n\
         {{\"t\":\"drain\"}}\n",
        design.display()
    )
    .into_bytes();
    // The byte that ended `puffer serve --stdin` ("stream did not contain
    // valid UTF-8") before both transports shared one lossy line reader.
    let fixtures = vec![[&b"{\"t\":\"ping\"}\xFF\n"[..], &input[..]].concat()];
    let journal_dir = dir.join("journal");
    fuzz("serve", 0x5E, &input, fixtures, |bytes| {
        let _ = std::fs::remove_dir_all(&journal_dir);
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 4,
            journal_dir: journal_dir.clone(),
            max_attempts: 1,
            ..ServeConfig::default()
        };
        let served = Engine::run(config, |h| serve_lines(h, Cursor::new(bytes), Vec::new()));
        // Whatever the lines said, the transport itself must survive them.
        served.expect("engine").expect("serve_lines");
    });
}
