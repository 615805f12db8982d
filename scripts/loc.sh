#!/usr/bin/env bash
# loc.sh — non-test Go lines per package.
#
# Counts every line (comments and blanks included) of the *.go files other
# than *_test.go, per package directory. The main module (repro) and the
# nested colordbench module are totalled separately. Generated build trees and
# testdata directories are skipped.
#
# Usage:
#   scripts/loc.sh          # counts for the working tree
#   scripts/loc.sh REV      # the same plus the change since git revision REV,
#                           # the line delta a deletion states
set -euo pipefail
cd "$(dirname "$0")/.."

# count DIR prints "module package lines" for each package under DIR.
count() {
  (cd "$1" && find . -name '*.go' ! -name '*_test.go' \
    ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 |
    xargs -0 -r awk '
      FNR == 1 { dir = FILENAME; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir) }
      { lines[dir]++ }
      END {
        for (d in lines) {
          if (d == "colordbench" || d ~ /^colordbench\//) print "colordbench", d, lines[d]
          else print "repro", (d == "." ? "repro" : "repro/" d), lines[d]
        }
      }')
}

CUR="$(mktemp)"
BASE="$(mktemp)"
TREE=""
trap 'rm -f "$CUR" "$BASE"; [ -z "$TREE" ] || rm -rf "$TREE"' EXIT

count . > "$CUR"
if [ $# -ge 1 ]; then
  TREE="$(mktemp -d)"
  git archive "$1" | tar -x -C "$TREE"
  count "$TREE" > "$BASE"
fi

# Join the two counts by package, main module first, and total each module.
awk '
  FILENAME == ARGV[1] { base[$2] = $3; mod[$2] = $1; next }
  { cur[$2] = $3; mod[$2] = $1 }
  END { for (p in mod) print (mod[p] == "repro" ? 0 : 1), mod[p], p, cur[p] + 0, base[p] + 0 }
' "$BASE" "$CUR" | sort -k1,1n -k3,3 | awk -v delta="$#" '
  function row(name, l, b) {
    if (delta) printf "%-40s %7d %+7d\n", name, l, l - b
    else printf "%-40s %7d\n", name, l
  }
  function total() { if (last != "") row("total (module " last ")", tl, tb) }
  NR == 1 { if (delta) printf "%-40s %7s %7s\n", "package", "lines", "delta"; else printf "%-40s %7s\n", "package", "lines" }
  $2 != last { total(); last = $2; tl = tb = 0 }
  { tl += $4; tb += $5; row($3, $4, $5) }
  END { total() }
'
