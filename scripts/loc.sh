#!/usr/bin/env bash
# Non-test library lines: for every `crates/*/src/**/*.rs`, the lines before
# its first `#[cfg(test)]` at column 0 (all of its lines when it has none).
# Prints one line per crate, then the total.
#
# Usage: scripts/loc.sh [repo-root]     (default: the repo this script is in)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for crate in crates/*/; do
  name=$(basename "$crate")
  [ -d "$crate/src" ] || continue
  lines=$(find "$crate/src" -name '*.rs' -print0 | LC_ALL=C sort -z |
    xargs -0 awk 'FNR == 1 { counting = 1 }
                  /^#\[cfg\(test\)\]/ { counting = 0 }
                  counting { n++ }
                  END { print n + 0 }')
  printf '%-10s %6d\n' "$name" "$lines"
  total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
