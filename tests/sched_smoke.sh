#!/bin/sh
#===-- tests/sched_smoke.sh - End-to-end cws-sched smoke test ------------===#
#
# Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
# Scheduling" (PaCT 2009). Distributed without any warranty.
#
# Usage: sched_smoke.sh <cws-sched> <cws-explain> <cws-report>
#
# Runs cws-sched on examples/sample_job.cws with and without all six
# observability flags and pins:
#  1. stdout is identical: observing the build never changes it;
#  2. the trace is valid JSON;
#  3. cws-explain --summary accepts the journal;
#  4. cws-report --profile renders "Where the time went";
#  5. the metrics carry the one strategy build as a profiler phase,
#     also when --metrics is the only flag;
#  6. an unwritable artifact path exits 2 naming the artifact.
#
#===----------------------------------------------------------------------===#
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
SCHED=$1
EXPLAIN=$2
REPORT=$3
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "sched_smoke: $1" >&2
  exit 1
}

JOB="$ROOT/examples/sample_job.cws"
"$SCHED" --file "$JOB" > "$TMP/plain.txt" || fail "plain run failed"
"$SCHED" --file "$JOB" --trace "$TMP/run.json" --trace-categories core,flow \
  --metrics "$TMP/run.prom" --journal "$TMP/run.jsonl" \
  --timeseries "$TMP/ts.csv" --profile "$TMP/profile.json" \
  > "$TMP/observed.txt" 2> "$TMP/observed.err" \
  || fail "observed run failed: $(cat "$TMP/observed.err")"

#=== 1. Observability does not change the output =========================#
cmp -s "$TMP/plain.txt" "$TMP/observed.txt" \
  || fail "stdout changed under the observability flags"

#=== 2. The trace parses ==================================================#
python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$TMP/run.json" \
  || fail "trace is not valid JSON"

#=== 3. The journal passes the explainer's schema gate ===================#
"$EXPLAIN" --summary "$TMP/run.jsonl" > /dev/null \
  || fail "cws-explain rejected the journal"

#=== 4. The profile renders ===============================================#
"$REPORT" --journal "$TMP/run.jsonl" --profile "$TMP/profile.json" \
  --out "$TMP/where.md" || fail "cws-report --profile failed"
grep -q '## Where the time went' "$TMP/where.md" \
  || fail "report lacks the profile section"

#=== 5. The metrics count the build through the profiler =================#
"$SCHED" --file "$JOB" --metrics "$TMP/only.prom" > /dev/null 2>&1 \
  || fail "metrics-only run failed"
for PROM in run.prom only.prom; do
  grep -q '^cws_phase_count{phase="strategy.build"} 1$' "$TMP/$PROM" \
    || fail "$PROM lacks cws_phase_count for strategy.build"
done

#=== 6. A failed write exits 2 ===========================================#
set +e
"$SCHED" --file "$JOB" --trace "$TMP/missing/run.json" > /dev/null \
  2> "$TMP/unwritable.err"
STATUS=$?
set -e
[ "$STATUS" -eq 2 ] || fail "unwritable trace exited $STATUS, want 2"
grep -q "cws-sched: cannot write trace" "$TMP/unwritable.err" \
  || fail "unwritable trace not reported: $(cat "$TMP/unwritable.err")"

echo "sched_smoke: ok"
