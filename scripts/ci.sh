#!/usr/bin/env bash
# Full CI gate: rustfmt, offline build, the whole test suite (which holds
# the structural half of the source policy), clippy -D warnings,
# scripts/policy.sh, then the end-to-end smokes. Needs cargo fmt and cargo
# clippy.
#
# Usage: scripts/ci.sh            (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

# The workspace is rustfmt-clean, so a change formats only its own lines.
# (benchmark/ is a workspace of its own and is not checked here.)
echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# The repo benchmark's adapter (benchmark/src/layers.rs) compiles against
# the library API from its own frozen workspace: an API change that breaks
# it must fail here, not in the next benchmark run.
echo "==> benchmark adapter (flowbench build + tests)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# clippy.toml's disallowed types/methods are policy for non-test library
# and binary code (policy.sh below); tests and benches may use them.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings \
  -A clippy::disallowed_methods -A clippy::disallowed_types

# The source policy, in two halves. policy.sh: what the toolchain can
# check — panic-free library code, threads only through puffer-par, no
# HashMap/HashSet, no wall-clock reads outside puffer-trace/puffer-budget,
# writes only through fsx, mutexes only through lock_leaf (whose
# debug-build assertion — no thread holds two locks — is armed in every
# test of the suite above), no bare `as` in the hot crates; exemptions are
# in-source #[expect]s with a reason. The structural half — the two rules
# no compiler lint expresses, downward-only crate layering and
# #![forbid(unsafe_code)] in every crate root — ran in `cargo test` above
# (crates/audit/tests/lint_fixtures.rs).
echo "==> scripts/policy.sh"
scripts/policy.sh

# Metrics smoke: a tiny traced run must produce a JSONL file the
# validator accepts with the complete stage set.
echo "==> metrics smoke (place --metrics + puffer trace --check)"
SMOKE_DIR="target/ci-smoke"
mkdir -p "$SMOKE_DIR"
PUFFER=target/release/puffer
"$PUFFER" gen --preset or1200 --scale 0.003 -o "$SMOKE_DIR/smoke.pd"
"$PUFFER" place "$SMOKE_DIR/smoke.pd" -o "$SMOKE_DIR/smoke.pl" \
  --metrics "$SMOKE_DIR/smoke.jsonl" --trace-summary
"$PUFFER" trace "$SMOKE_DIR/smoke.jsonl" --check

# Table II ledger: BENCH_table2.json is the committed output of the
# command it names. Re-run it into the smoke directory and require the same
# command and scale lines, and every row's HOF, VOF and WL (and its GP
# iterations and padding rounds) bit for bit: they are deterministic, so a
# change that moves one must re-render the file. The command names the
# ledger's file name alone, not the directory it was written to. RT is
# recorded in the ledger but not compared. No PUFFER row may be capped.
echo "==> Table II ledger (table2 --scale 0.003 --json vs BENCH_table2.json)"
target/release/table2 --scale 0.003 --out "$SMOKE_DIR/paper" \
  --json "$SMOKE_DIR/BENCH_table2.json" > /dev/null
ledger_rows() { grep -E '"(command|scale|design)":' "$1" | sed -E 's/,"rt_s":[^,}]*//'; }
if ! diff <(ledger_rows BENCH_table2.json) <(ledger_rows "$SMOKE_DIR/BENCH_table2.json"); then
  echo "Table II ledger: the command or a quality bit moved; re-render BENCH_table2.json with the command it names"
  exit 1
fi
# A row capped at its flow's GP iteration cap is wherever the cap cut the
# run off; PUFFER's rows must all be converged results.
if grep '"flow":"PUFFER"' "$SMOKE_DIR/BENCH_table2.json" | grep -q '"capped":true'; then
  echo "Table II ledger: a PUFFER row stopped at its GP iteration cap"
  exit 1
fi

# Exploration smoke: `puffer explore` scores each SMBO trial with a short
# PUFFER flow. The metrics file must pass `puffer trace` and hold exactly
# one explore.trial record per trial, and the search must write nothing
# else into the smoke directory.
echo "==> exploration smoke (puffer explore --metrics + puffer trace)"
rm -f "$SMOKE_DIR/explore.jsonl"
before=$(LC_ALL=C ls "$SMOKE_DIR")
"$PUFFER" explore "$SMOKE_DIR/smoke.pd" --trials 2 --max-iters 20 \
  --metrics "$SMOKE_DIR/explore.jsonl"
explore_trace=$("$PUFFER" trace "$SMOKE_DIR/explore.jsonl")
echo "$explore_trace"
grep -Eq '^explore\.trial +2$' <<< "$explore_trace"
test "$(LC_ALL=C ls "$SMOKE_DIR")" = "$(printf '%s\nexplore.jsonl\n' "$before" | LC_ALL=C sort)"

# Validated-flow smoke: the stage-boundary invariant checkers must accept
# a full PUFFER run, and the artifact audits must accept its outputs.
echo "==> validated flow smoke (place --validate + puffer audit)"
"$PUFFER" place "$SMOKE_DIR/smoke.pd" -o "$SMOKE_DIR/val.pl" --validate \
  --journal "$SMOKE_DIR/val.pj" --metrics "$SMOKE_DIR/val.jsonl"
"$PUFFER" audit design "$SMOKE_DIR/smoke.pd"
"$PUFFER" audit run "$SMOKE_DIR/val.pj" "$SMOKE_DIR/val.jsonl"
"$PUFFER" eval "$SMOKE_DIR/smoke.pd" "$SMOKE_DIR/val.pl" --validate

# Refine smoke: detailed placement is the middle stage of the benchmark's
# place -> refine -> eval chain. Its output must be byte-stable from run to
# run, the congestion-guarded variant must run too, and the evaluator must
# accept both results.
echo "==> refine smoke (puffer refine twice + --guard, eval both)"
"$PUFFER" refine "$SMOKE_DIR/smoke.pd" "$SMOKE_DIR/smoke.pl" -o "$SMOKE_DIR/refine-a.pl"
"$PUFFER" refine "$SMOKE_DIR/smoke.pd" "$SMOKE_DIR/smoke.pl" -o "$SMOKE_DIR/refine-b.pl"
cmp "$SMOKE_DIR/refine-a.pl" "$SMOKE_DIR/refine-b.pl"
"$PUFFER" refine "$SMOKE_DIR/smoke.pd" "$SMOKE_DIR/smoke.pl" -o "$SMOKE_DIR/refine-guard.pl" --guard
"$PUFFER" eval "$SMOKE_DIR/smoke.pd" "$SMOKE_DIR/refine-a.pl"
"$PUFFER" eval "$SMOKE_DIR/smoke.pd" "$SMOKE_DIR/refine-guard.pl"

# Baseline smoke: the comparison flows run in the same GP loop as PUFFER
# (`Flow::job`). Each Table II baseline places the smoke design at
# --threads 1 and 2, which bound the placer's lanes and the in-the-loop
# router's or estimator's: the two placements must be byte-identical, and
# the evaluator must accept them. A traced run must pass `puffer trace
# --check` and place the same bytes (the trace does not perturb the flow).
# A baseline also runs under --validate, and under an expired deadline that
# engages the whole degradation ladder.
echo "==> baseline smoke (place --flow reference|replace --threads 1 vs 2, --metrics, eval)"
for flow in reference replace; do
  for t in 1 2; do
    "$PUFFER" place "$SMOKE_DIR/smoke.pd" -o "$SMOKE_DIR/$flow-t$t.pl" --flow "$flow" --threads "$t"
  done
  cmp "$SMOKE_DIR/$flow-t1.pl" "$SMOKE_DIR/$flow-t2.pl"
  "$PUFFER" place "$SMOKE_DIR/smoke.pd" -o "$SMOKE_DIR/$flow-traced.pl" --flow "$flow" \
    --threads 1 --metrics "$SMOKE_DIR/$flow.jsonl"
  "$PUFFER" trace "$SMOKE_DIR/$flow.jsonl" --check
  cmp "$SMOKE_DIR/$flow-t1.pl" "$SMOKE_DIR/$flow-traced.pl"
  "$PUFFER" eval "$SMOKE_DIR/smoke.pd" "$SMOKE_DIR/$flow-t1.pl"
done
"$PUFFER" place "$SMOKE_DIR/smoke.pd" -o "$SMOKE_DIR/reference-val.pl" --flow reference --validate
"$PUFFER" place "$SMOKE_DIR/smoke.pd" -o "$SMOKE_DIR/reference-deadline.pl" --flow reference \
  --deadline 0.001 > "$SMOKE_DIR/reference-deadline.out"
cat "$SMOKE_DIR/reference-deadline.out"
grep -q 'degradation: coarse-congestion,freeze-padding,cap-trials,early-exit-gp' \
  "$SMOKE_DIR/reference-deadline.out"

# Deterministic-parallelism smoke: --threads must not change results. The
# checkpoint journals and placements of a 1-thread and a 4-thread run are
# byte-identical (the puffer-par kernels are bit-identical by design).
# The place.iter records carry the step's statistics and step size, of which
# the journal keeps only the latest: the records are compared too, minus
# their timestamps. So are the congestion estimator's own outputs, the
# congest.round records of every padding round, which otherwise are checked
# only through the placement they steer.
iter_records() { grep '"t":"place.iter"' "$1" | sed -E 's/"elapsed_s":[^,}]*,?//'; }
congest_records() { grep '"t":"congest.round"' "$1" | sed -E 's/"elapsed_s":[^,}]*,?//'; }
echo "==> deterministic parallelism smoke (place --threads 1 vs 4)"
"$PUFFER" place "$SMOKE_DIR/smoke.pd" -o "$SMOKE_DIR/t1.pl" \
  --threads 1 --journal "$SMOKE_DIR/t1.pj" --metrics "$SMOKE_DIR/t1.jsonl"
"$PUFFER" place "$SMOKE_DIR/smoke.pd" -o "$SMOKE_DIR/t4.pl" \
  --threads 4 --journal "$SMOKE_DIR/t4.pj" --metrics "$SMOKE_DIR/t4.jsonl"
cmp "$SMOKE_DIR/t1.pj" "$SMOKE_DIR/t4.pj"
cmp "$SMOKE_DIR/t1.pl" "$SMOKE_DIR/t4.pl"
cmp <(iter_records "$SMOKE_DIR/t1.jsonl") <(iter_records "$SMOKE_DIR/t4.jsonl")
cmp <(congest_records "$SMOKE_DIR/t1.jsonl") <(congest_records "$SMOKE_DIR/t4.jsonl")
# The same on a 128x128-bin grid (ct_top just past the 4096-cell auto_dim
# step): the smoke above never leaves 32x32 bins, where one worker's
# scatter scratch, the transposes and the sparse chunk lists are all
# trivially small. The exact work counters (density evaluations, 2-D
# transforms, WA exponentials) must not know the thread count either, and
# the metrics audit's counter rules run on this grid too — one where a
# scatter chunk's cells span the die.
counter_records() { grep '"t":"counter"' "$1" | sed -E 's/"elapsed_s":[^,}]*,?//'; }
echo "==> deterministic parallelism smoke, 128x128 bins (ct_top, --threads 1 vs 2 vs 4)"
"$PUFFER" gen --preset ct_top --scale 0.0034 -o "$SMOKE_DIR/grid.pd"
for t in 1 2 4; do
  "$PUFFER" place "$SMOKE_DIR/grid.pd" -o "$SMOKE_DIR/grid-t$t.pl" \
    --threads "$t" --journal "$SMOKE_DIR/grid-t$t.pj" --metrics "$SMOKE_DIR/grid-t$t.jsonl"
done
"$PUFFER" trace "$SMOKE_DIR/grid-t1.jsonl"
for t in 2 4; do
  # From two threads on, this design runs the WA and density halves of
  # every evaluation side by side: the comparisons below cover that path.
  grep '"t":"flow.init"' "$SMOKE_DIR/grid-t$t.jsonl" | grep -qE '"gp_halves":2[,}]'
  cmp "$SMOKE_DIR/grid-t1.pj" "$SMOKE_DIR/grid-t$t.pj"
  cmp "$SMOKE_DIR/grid-t1.pl" "$SMOKE_DIR/grid-t$t.pl"
  cmp <(iter_records "$SMOKE_DIR/grid-t1.jsonl") <(iter_records "$SMOKE_DIR/grid-t$t.jsonl")
  cmp <(congest_records "$SMOKE_DIR/grid-t1.jsonl") <(congest_records "$SMOKE_DIR/grid-t$t.jsonl")
  cmp <(counter_records "$SMOKE_DIR/grid-t1.jsonl") <(counter_records "$SMOKE_DIR/grid-t$t.jsonl")
done

# The GP kernels of the smokes above run below two lanes' worth of work:
# --threads is an upper bound, so each of their kernels runs on one lane
# (on the 128x128-bin design at 2 and 4 threads, the WA half on a worker
# while the density half stays on the calling thread). This one places a
# CT_TOP scale at which, at 4 threads, the halves split the budget two
# and two and the charge scatter and the field gather each get two lanes
# of the density half's (19 K cells; flow.init states the halves and the
# lanes each kernel was given), so the walks the scatter lanes record are
# read by gather lanes that split the cells another way, while the WA
# half runs beside them. It is capped at 30 iterations and compared with
# a 1-thread run. The grep fails if a per-lane constant ever drifts above
# this design.
echo "==> multi-lane smoke (ct_top --scale 0.015, place --threads 1 vs 4)"
"$PUFFER" gen --preset ct_top --scale 0.015 -o "$SMOKE_DIR/lanes.pd"
for t in 1 4; do
  "$PUFFER" place "$SMOKE_DIR/lanes.pd" -o "$SMOKE_DIR/lanes-t$t.pl" --max-iters 30 \
    --threads "$t" --journal "$SMOKE_DIR/lanes-t$t.pj" --metrics "$SMOKE_DIR/lanes-t$t.jsonl"
done
lanes_init=$(grep '"t":"flow.init"' "$SMOKE_DIR/lanes-t4.jsonl")
grep -qE '"gp_halves":2[,}]' <<< "$lanes_init"
grep -qE '"lanes_scatter":2[,}]' <<< "$lanes_init"
grep -qE '"lanes_gather":2[,}]' <<< "$lanes_init"
cmp "$SMOKE_DIR/lanes-t1.pj" "$SMOKE_DIR/lanes-t4.pj"
cmp "$SMOKE_DIR/lanes-t1.pl" "$SMOKE_DIR/lanes-t4.pl"
cmp <(iter_records "$SMOKE_DIR/lanes-t1.jsonl") <(iter_records "$SMOKE_DIR/lanes-t4.jsonl")
cmp <(counter_records "$SMOKE_DIR/lanes-t1.jsonl") <(counter_records "$SMOKE_DIR/lanes-t4.jsonl")
"$PUFFER" trace "$SMOKE_DIR/lanes-t4.jsonl"

# Resume smoke: a checkpoint journal is exactly one record (every save is
# an atomic whole-file replace), of the one version this build writes. Two
# records back to back are a file no writer produces, and a journal of
# another version cannot continue this build's trajectory: `place
# --resume` must refuse each with exit 1, naming the first line after
# `end` and the foreign version.
echo "==> resume smoke (a two-record journal and a version-2 journal are refused)"
cat "$SMOKE_DIR/grid-t1.pj" "$SMOKE_DIR/grid-t1.pj" > "$SMOKE_DIR/twice.pj"
after_end=$(( $(wc -l < "$SMOKE_DIR/grid-t1.pj") + 1 ))
sed '1s/^puffer_checkpoint .*/puffer_checkpoint 2/' "$SMOKE_DIR/grid-t1.pj" > "$SMOKE_DIR/v2.pj"
for refused in "twice:line $after_end: 'puffer_checkpoint' after 'end'" \
  "v2:line 1: unsupported journal version 2 "; do
  name=${refused%%:*} want=${refused#*:}
  status=0
  "$PUFFER" place "$SMOKE_DIR/grid.pd" -o "$SMOKE_DIR/$name.pl" \
    --resume "$SMOKE_DIR/$name.pj" 2> "$SMOKE_DIR/$name.err" || status=$?
  if [ "$status" -ne 1 ] || ! grep -qF "$want" "$SMOKE_DIR/$name.err"; then
    echo "resume smoke: $name.pj wanted exit 1 with '$want', got exit $status:"
    cat "$SMOKE_DIR/$name.err"
    exit 1
  fi
done

# The same for the evaluator: `eval` decomposes nets on --threads workers
# and then routes on one, so its report, its congestion maps and the
# search's exact counters must not know the thread count. MEDIA_SUBSYS at
# 0.004 is the smallest preset scale where all 12 rip-up rounds fire, and
# some reroute there must skip its search on the previous one's answer.
route_record() { grep '"t":"route.done"' "$1" | sed -E 's/"elapsed_s":[^,}]*,?//'; }
echo "==> deterministic evaluation smoke (media_subsys, eval --threads 1 vs 2 vs 4)"
"$PUFFER" gen --preset media_subsys --scale 0.004 -o "$SMOKE_DIR/route.pd"
"$PUFFER" place "$SMOKE_DIR/route.pd" -o "$SMOKE_DIR/route.pl"
for t in 1 2 4; do
  mkdir -p "$SMOKE_DIR/maps-t$t"
  "$PUFFER" eval "$SMOKE_DIR/route.pd" "$SMOKE_DIR/route.pl" --threads "$t" --layers \
    --maps "$SMOKE_DIR/maps-t$t" --metrics "$SMOKE_DIR/route-t$t.jsonl" |
    grep -v '^wrote congestion maps to ' > "$SMOKE_DIR/route-t$t.out"
done
route_record "$SMOKE_DIR/route-t1.jsonl" | grep -q '"rounds":12,'
route_record "$SMOKE_DIR/route-t1.jsonl" | grep -Eq '"reroutes_reused":[1-9]'
for t in 2 4; do
  cmp "$SMOKE_DIR/route-t1.out" "$SMOKE_DIR/route-t$t.out"
  cmp <(route_record "$SMOKE_DIR/route-t1.jsonl") <(route_record "$SMOKE_DIR/route-t$t.jsonl")
  for f in congestion_h.csv congestion_h.pgm congestion_v.csv congestion_v.pgm; do
    cmp "$SMOKE_DIR/maps-t1/$f" "$SMOKE_DIR/maps-t$t/$f"
  done
done

# Bounded-execution smoke: an expired deadline must still exit 0 with a
# legal best-so-far placement, having engaged all four rungs of the
# degradation ladder (a deadline alone arms it).
echo "==> bounded execution smoke (place --deadline)"
"$PUFFER" place "$SMOKE_DIR/smoke.pd" -o "$SMOKE_DIR/deadline.pl" \
  --deadline 0.001 > "$SMOKE_DIR/deadline.out"
cat "$SMOKE_DIR/deadline.out"
grep -q 'degradation: coarse-congestion,freeze-padding,cap-trials,early-exit-gp' \
  "$SMOKE_DIR/deadline.out"

# Fault-injection gates: the fsx unit suite, then the seeded sweep of the
# chaos harness (tests/chaos.rs): 4 flow seeds (worker-panic, nan-burst),
# 24 fs seeds (disk-full, torn-write, fsync-fail, rename-fail, short-read)
# and 24 serve seeds (worker panic, torn and ENOSPC writes, client
# disconnect, kill+restart, kill+restart after a rename failure). Every
# injection must end in a legal end state: a valid result, a resumable
# checkpoint that replays bit-identically, or a structured error.
echo "==> chaos sweep (fsx unit suite + cargo test --release --test chaos -- --ignored)"
cargo test -q -p puffer-budget fsx
cargo test --release --test chaos -- --ignored

# Serve smoke: the daemon's stdin transport runs a submitted job to
# completion on EOF-drain, journaling under --journal-dir, and refuses a
# submit that carries the harness-only chaos tag.
echo "==> serve smoke (puffer serve --stdin)"
rm -rf "$SMOKE_DIR/serve-journal"
printf '%s\n' \
  '{"t":"ping"}' \
  '{"t":"submit","preset":"or1200","scale":0.003,"out":"target/ci-smoke/serve.pl"}' \
  '{"t":"wait","id":1,"timeout_s":300}' \
  '{"t":"submit","preset":"or1200","scale":0.003,"chaos":"panic"}' \
  '{"t":"drain"}' |
  "$PUFFER" serve --stdin --journal-dir "$SMOKE_DIR/serve-journal" \
    --workers 2 | tee "$SMOKE_DIR/serve-smoke.out"
grep -q '"t":"serve.result"' "$SMOKE_DIR/serve-smoke.out"
grep -q '"t":"serve.rejected"' "$SMOKE_DIR/serve-smoke.out"
test -f "$SMOKE_DIR/serve.pl"

# Nightly-style scale regressions, opt-in via PUFFER_NIGHTLY=1 (cargo
# feature `expensive`), each in its own test binary because peak RSS is a
# per-process high-water mark: million-cell streaming ingestion, and a
# short PUFFER flow on a 1M+ cell design (ct_top at scale 1.0) under a
# bounded-RSS assertion.
if [[ "${PUFFER_NIGHTLY:-0}" == "1" ]]; then
  echo "==> nightly: million-cell ingestion (--features expensive)"
  cargo test --features expensive --test scale_regression -- --nocapture
  echo "==> nightly: million-cell placement (--release --features expensive)"
  cargo test --release --features expensive --test scale_placement -- --nocapture
fi

echo "==> CI green"
