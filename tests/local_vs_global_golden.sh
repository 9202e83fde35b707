#!/bin/sh
#===-- tests/local_vs_global_golden.sh - Local-queue study golden --------===#
#
# Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
# Scheduling" (PaCT 2009). Distributed without any warranty.
#
# Usage: local_vs_global_golden.sh <local_vs_global>
#
# Runs the Section-5 local-queue study at a pinned workload and diffs
# its table against tests/local_vs_global.golden. The table pins the
# rules of the bench's per-domain local queues: a local job books the
# domain node with the earliest start (ties to the first node), strict
# FCFS never starts a job before the previous one's start, and a job
# whose start lies beyond the lookahead is rejected (the la=60 rows).
#
#===----------------------------------------------------------------------===#
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
"$1" --jobs 40 --seed 7 | diff -u "$ROOT/tests/local_vs_global.golden" - || {
  echo "local_vs_global_golden: table differs from the golden" >&2
  exit 1
}
