#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh [--seed S] [--runs N] [--only <workload>] [--set <name>]
#       the whole suite: builds, runs N rounds of every workload plus the
#       traced pass, prints every metric, writes benchmark/results/<set>.json
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; last stdout line is the result JSON
#       (this is the `command` of BENCHMARK.json)
#   benchmark/run.sh compare <a.json> <b.json>
#   benchmark/run.sh --help
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

# One target directory for both builds, absolute so that it means the same
# place from either manifest.
target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target

# Build the artefact users run (root profile, root features) and the
# driver. Cargo's chatter goes to stderr: stdout is the benchmark's.
build_start=$(date +%s%N)
cargo build --release --offline --manifest-path "$root/Cargo.toml" -p puffer-cli 1>&2
cargo build --release --offline --manifest-path "$root/benchmark/Cargo.toml" 1>&2
build_ms=$(( ($(date +%s%N) - build_start) / 1000000 ))
build_seconds=$((build_ms / 1000)).$(printf %03d $((build_ms % 1000)))

flowbench=$target/release/flowbench
case "${1:-}" in
  compare | --help | -h) exec "$flowbench" "$@" ;;
esac
exec "$flowbench" \
  --puffer "$target/release/puffer" \
  --work "$root/benchmark/work" \
  --results "$root/benchmark/results" \
  --build-seconds "$build_seconds" \
  "$@"
