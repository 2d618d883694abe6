#!/usr/bin/env bash
# Full CI gate: offline build, the whole test suite, clippy -D warnings,
# the source policy (scripts/policy.sh + puffer lint), then the end-to-end
# smokes. Needs cargo clippy.
#
# Usage: scripts/ci.sh            (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

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
# in-source #[expect]s with a reason. puffer lint: the two structural
# rules no compiler lint expresses — downward-only crate layering and
# #![forbid(unsafe_code)] in every crate root (--json emits the findings
# as JSONL for tooling).
echo "==> scripts/policy.sh"
scripts/policy.sh
echo "==> puffer lint"
target/release/puffer lint

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

# Validated-flow smoke: the stage-boundary invariant checkers must accept
# a full PUFFER run, and the artifact audits must accept its outputs.
echo "==> validated flow smoke (place --validate + puffer audit)"
"$PUFFER" place "$SMOKE_DIR/smoke.pd" -o "$SMOKE_DIR/val.pl" --validate \
  --journal "$SMOKE_DIR/val.pj" --metrics "$SMOKE_DIR/val.jsonl"
"$PUFFER" audit design "$SMOKE_DIR/smoke.pd"
"$PUFFER" audit run "$SMOKE_DIR/val.pj" "$SMOKE_DIR/val.jsonl"
"$PUFFER" eval "$SMOKE_DIR/smoke.pd" "$SMOKE_DIR/val.pl" --validate

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
  cmp "$SMOKE_DIR/grid-t1.pj" "$SMOKE_DIR/grid-t$t.pj"
  cmp "$SMOKE_DIR/grid-t1.pl" "$SMOKE_DIR/grid-t$t.pl"
  cmp <(iter_records "$SMOKE_DIR/grid-t1.jsonl") <(iter_records "$SMOKE_DIR/grid-t$t.jsonl")
  cmp <(congest_records "$SMOKE_DIR/grid-t1.jsonl") <(congest_records "$SMOKE_DIR/grid-t$t.jsonl")
  cmp <(counter_records "$SMOKE_DIR/grid-t1.jsonl") <(counter_records "$SMOKE_DIR/grid-t$t.jsonl")
done

# Resume smoke: a checkpoint journal is exactly one record (every save is
# an atomic whole-file replace). Two records back to back are a file no
# writer produces, and `place --resume` must refuse it with exit 1, naming
# the first line after `end`.
echo "==> resume smoke (a two-record journal is refused)"
cat "$SMOKE_DIR/grid-t1.pj" "$SMOKE_DIR/grid-t1.pj" > "$SMOKE_DIR/twice.pj"
after_end=$(( $(wc -l < "$SMOKE_DIR/grid-t1.pj") + 1 ))
status=0
"$PUFFER" place "$SMOKE_DIR/grid.pd" -o "$SMOKE_DIR/twice.pl" \
  --resume "$SMOKE_DIR/twice.pj" 2> "$SMOKE_DIR/twice.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q "line $after_end: 'puffer_checkpoint' after 'end'" "$SMOKE_DIR/twice.err"; then
  echo "resume smoke: wanted exit 1 naming line $after_end, got exit $status:"
  cat "$SMOKE_DIR/twice.err"
  exit 1
fi

# The same for the evaluator: `eval` decomposes nets on --threads workers
# and then routes on one, so its report, its congestion maps and the
# search's exact counters must not know the thread count. MEDIA_SUBSYS at
# 0.004 is the smallest preset scale where all 12 rip-up rounds fire.
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
for t in 2 4; do
  cmp "$SMOKE_DIR/route-t1.out" "$SMOKE_DIR/route-t$t.out"
  cmp <(route_record "$SMOKE_DIR/route-t1.jsonl") <(route_record "$SMOKE_DIR/route-t$t.jsonl")
  for f in congestion_h.csv congestion_h.pgm congestion_v.csv congestion_v.pgm; do
    cmp "$SMOKE_DIR/maps-t1/$f" "$SMOKE_DIR/maps-t$t/$f"
  done
done

# Bounded-execution smoke: an expired deadline must still exit 0 with a
# legal best-so-far placement, having engaged all four rungs of the
# degradation ladder (a deadline alone arms it), and the flow rows of the
# chaos harness (worker-panic, nan-burst) must each survive two seeded
# injections. The nan-burst rows must report the burst's recovery as
# non-finite, the verdict the sentinel reaches by checking the iterate's
# coordinates.
echo "==> bounded execution smoke (place --deadline + puffer chaos --classes flow)"
"$PUFFER" place "$SMOKE_DIR/smoke.pd" -o "$SMOKE_DIR/deadline.pl" \
  --deadline 0.001 > "$SMOKE_DIR/deadline.out"
cat "$SMOKE_DIR/deadline.out"
grep -q 'degradation: coarse-congestion,freeze-padding,cap-trials,early-exit-gp' \
  "$SMOKE_DIR/deadline.out"
"$PUFFER" chaos --classes flow --seeds 4 > "$SMOKE_DIR/chaos-flow.out"
cat "$SMOKE_DIR/chaos-flow.out"
test "$(grep -c 'nan-burst .*(non-finite objective)' "$SMOKE_DIR/chaos-flow.out")" -eq 2

# Durable I/O gates: the fsx unit suite with the fault hooks compiled in,
# then 24 seeded filesystem-fault injections (disk-full, torn-write,
# fsync-fail, rename-fail, short-read) through the fs rows of the chaos
# harness. Every injection must end in a legal end state: a valid result,
# a resumable checkpoint that replays bit-identically, or a structured
# error.
echo "==> fsx chaos smoke (unit suite + puffer chaos --classes fs --seeds 24)"
cargo test -q -p puffer-budget --features chaos fsx
"$PUFFER" chaos --classes fs --seeds 24

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

# Serve chaos smoke: 24 seeded injections across the six serve rows of the
# chaos harness (worker panic, torn checkpoint/journal write, client
# disconnect, kill+restart, injected ENOSPC, and kill+restart after an
# injected rename failure); every job must land in a legal end state with
# the worker pool intact. Together with the 24 fs-row injections above,
# this puts >= 32 seeded filesystem faults through the durable I/O layer
# per run.
echo "==> serve chaos smoke (puffer chaos --classes serve --seeds 24)"
"$PUFFER" chaos --classes serve --seeds 24 --cells 160 --max-iters 60

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
