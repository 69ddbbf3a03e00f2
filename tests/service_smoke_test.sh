#!/usr/bin/env bash
# End-to-end serve/submit smoke over real processes, gated in ctest at
# two shard counts. Covers the service acceptance path:
#
#   1. submit a sweep to a `dynbcast serve` instance whose first worker
#      wave is fault-injected to die at a task boundary (--worker-max-
#      tasks) — the server must resume the dead workers' ranges and the
#      streamed CSV must be byte-identical to `dynbcast sweep`'s
#      committed golden;
#   2. resubmit the same request — zero tasks may execute (100% cache
#      hits), same bytes.
#
# Usage: service_smoke_test.sh <dynbcast-binary> <golden-csv|sweep> <workdir>
#                              <workers> [submit flags...]
#
# The submit flags default to --sizes=4:32:4. With `sweep` in place of a
# golden, the reference is `dynbcast sweep` run here with the same flags:
# its CSV, and its per-adversary detail and --summary tables, must equal
# the served ones byte for byte.
set -euo pipefail

BIN="$1"
GOLDEN="$2"
WORKDIR="$3"
WORKERS="$4"
shift 4
FLAGS=("$@")
[ ${#FLAGS[@]} -gt 0 ] || FLAGS=(--sizes=4:32:4)

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
SOCK="$WORKDIR/sock"

# The tables after the bracket table, minus the service's own stats line.
detail() { sed -n '/^per-adversary detail/,/^RESULT/p' "$1" | grep -v '^service:'; }
SWEEP_REFERENCE=0
if [ "$GOLDEN" = sweep ]; then
  SWEEP_REFERENCE=1
  GOLDEN="$WORKDIR/reference.csv"
  "$BIN" sweep --jobs=2 "${FLAGS[@]}" --csv="$GOLDEN" >"$WORKDIR/sweep.out"
fi

"$BIN" serve --socket="$SOCK" --state="$WORKDIR/state" \
  --workers="$WORKERS" --jobs=2 --worker-max-tasks=7 --max-requests=2 \
  >"$WORKDIR/serve.log" 2>&1 &
SERVER=$!
trap 'kill "$SERVER" 2>/dev/null || true' EXIT

for _ in $(seq 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "FAIL: server socket never appeared"; exit 1; }

# Cold submission through the fault-injected worker wave. The golden is
# the one `dynbcast sweep` with the same flags is gated against (or that
# sweep's own output), so equality here is direct-vs-served byte identity.
"$BIN" submit --socket="$SOCK" "${FLAGS[@]}" --csv="$WORKDIR/served.csv" \
  >"$WORKDIR/submit1.out"
cmp "$WORKDIR/served.csv" "$GOLDEN" || {
  echo "FAIL: served CSV differs from the sweep golden (workers=$WORKERS)"
  exit 1
}
if [ "$SWEEP_REFERENCE" = 1 ]; then
  cmp <(detail "$WORKDIR/sweep.out") <(detail "$WORKDIR/submit1.out") || {
    echo "FAIL: served detail/summary tables differ from sweep's"
    exit 1
  }
fi
grep -Eq 'service: job=[0-9a-f]{16} tasks=[0-9]+ ' "$WORKDIR/submit1.out" || {
  echo "FAIL: no service stats line in the first submission output"
  exit 1
}

# Warm resubmission: the whole job must come from the result cache.
"$BIN" submit --socket="$SOCK" "${FLAGS[@]}" --csv="$WORKDIR/served2.csv" \
  >"$WORKDIR/submit2.out"
cmp "$WORKDIR/served2.csv" "$GOLDEN" || {
  echo "FAIL: resubmitted CSV differs from the sweep golden"
  exit 1
}
grep -Eq 'service: .* cache-hits=[1-9][0-9]* executed=0$' \
  "$WORKDIR/submit2.out" || {
  echo "FAIL: resubmission executed tasks instead of hitting the cache:"
  grep 'service:' "$WORKDIR/submit2.out" || true
  exit 1
}

wait "$SERVER"
trap - EXIT
echo "PASS: served CSV byte-identical (workers=$WORKERS), resubmit 100% cached"
