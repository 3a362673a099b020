#!/usr/bin/env bash
# Full reproduction: build, run the entire test suite, then regenerate every
# figure/table. Outputs land in test_output.txt and bench_output.txt at the
# repository root.
#
# Usage: scripts/reproduce.sh [-j N]
#   -j N  worker threads per sweep binary (default: all cores; -j1 is the
#         exact sequential run — figure output is byte-identical at any -j)
#
# Figure binaries exit non-zero when a PAPER-vs-MEASURED row goes [off] or a
# qualitative claim prints [VIOLATED]; with pipefail below, a shape
# regression fails this script.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
while [ $# -gt 0 ]; do
  case "$1" in
    -j) JOBS="$2"; shift 2 ;;
    -j*) JOBS="${1#-j}"; shift ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    echo "===== $(basename "$b") =====" | tee -a bench_output.txt
    case "$(basename "$b")" in
      # One scenario per run (the scaling benches) or google-benchmark
      # (micro_engine): no -j flag.
      pdes_scale|collective_scale|micro_engine)
        "$b" 2>&1 | tee -a bench_output.txt ;;
      *)
        "$b" -j "$JOBS" 2>&1 | tee -a bench_output.txt ;;
    esac
  fi
done

echo
echo "Done. See test_output.txt and bench_output.txt."
