#!/usr/bin/env bash
# The source policy, checked by the toolchain: one `cargo clippy` over
# non-test library and binary code with the policy lints denied. What is
# banned lives in clippy.toml (disallowed types/methods, each with its
# reason and the sanctioned alternative) and in the -D list below; the six
# hot crates additionally deny clippy::as_conversions at their roots. Every
# exemption is an in-source #[expect(<lint>, reason = "..")] on the module
# or item it exempts, so a stale one (unfulfilled_lint_expectations) and a
# reasonless one (allow_attributes_without_reason) fail the same run.
# README "Static analysis" has the rule -> lint -> sanctioned home table.
#
# Usage: scripts/policy.sh [package-dir]     (default: the workspace)
set -euo pipefail
cd "$(dirname "$0")/.."

# The waiver budget: library files outside the sanctioned home crates
# (budget, trace, par) that carry a policy #[expect]. Fix, don't waive.
waived=$(grep -rlE --include='*.rs' \
  '^\s*(#!?\[expect\()?clippy::(unwrap_used|expect_used|panic|todo|unimplemented|disallowed_(methods|types))' \
  crates/*/src | grep -vcE '^crates/(budget|trace|par)/src/|/src/(bin/|main\.rs$)' || true)
if ((waived > 4)); then
  echo "policy: $waived library files carry a policy #[expect]; the budget is 4" >&2
  exit 1
fi

export CARGO_TARGET_DIR="$PWD/target/policy"
exec cargo clippy --offline --manifest-path "${1:-.}/Cargo.toml" --workspace --lib --bins -- \
  -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic \
  -D clippy::todo -D clippy::unimplemented \
  -D clippy::disallowed_methods -D clippy::disallowed_types \
  -D clippy::allow_attributes_without_reason -D unfulfilled_lint_expectations
