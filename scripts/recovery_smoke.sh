#!/bin/sh
# recovery_smoke.sh — kill -9 crash-recovery smoke for sbstd.
#
# Starts a journaled coordinator, submits a matrix campaign, SIGKILLs
# the process mid-run (no drain, no final compaction), restarts it on
# the same state directory, and asserts:
#
#   * the write-ahead journal captured the in-flight campaign (the file
#     is non-empty at the moment of the kill),
#   * the restarted process reports the recovery and serves the SAME
#     job for a retried submit_id instead of double-running it,
#   * the recovered campaign's result is bit-identical (modulo wall
#     time) to an uninterrupted oracle run of the same spec.
#
# Usage: scripts/recovery_smoke.sh [port]
set -eu

cd "$(dirname "$0")/.."
PORT="${1:-8323}"
BASE="http://127.0.0.1:$PORT"
DIR="$(mktemp -d)"
SBSTD_PID=""
cleanup() {
	[ -n "$SBSTD_PID" ] && kill -9 "$SBSTD_PID" 2>/dev/null
	rm -rf "$DIR"
}
trap cleanup EXIT

go build -o "$DIR/sbstd" ./cmd/sbstd

# The campaign is deterministic: every cell is seeded pseudorandom
# stimulus over a registry design, so two runs — interrupted or not —
# must serve identical fault counts, detections and cycle totals.
SPEC='{"kind":"campaign_matrix","submit_id":"smoke/recovery-1","matrix":{
  "designs":["dsp","bench/s27","fam/w6r4s1l1p2"],
  "schemes":[{"kind":"bist","count":2048,"seed":7},{"kind":"bist","count":1024,"seed":9}]}}'

start_coordinator() {
	"$DIR/sbstd" -addr "127.0.0.1:$PORT" -queue-workers 1 \
		-journal "$DIR/$1/journal.wal" \
		>>"$DIR/$1.log" 2>&1 &
	SBSTD_PID=$!
	for i in $(seq 1 100); do
		curl -sf "$BASE/v1/healthz" >/dev/null && return 0
		sleep 0.1
	done
	echo "coordinator never became healthy"; cat "$DIR/$1.log"; exit 1
}

wait_completed() {
	state=unknown
	for i in $(seq 1 240); do
		state=$(curl -sf "$BASE/v1/jobs/job-0001" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
		[ "$state" = completed ] && return 0
		[ "$state" = failed ] && break
		sleep 0.5
	done
	echo "job ended in state: $state"; cat "$DIR/$1.log"; exit 1
}

# Results carry one volatile field — wall-clock seconds; everything
# else (faults, detected, cycles, coverage, per-cell rollup) must match
# bit-for-bit.
stable_result() {
	curl -sf "$BASE/v1/jobs/job-0001/result" | grep -v '"seconds"'
}

# --- Oracle: the same campaign, uninterrupted. -----------------------
mkdir -p "$DIR/oracle"
start_coordinator oracle
curl -sf "$BASE/v1/jobs" -d "$SPEC" >/dev/null
wait_completed oracle
stable_result >"$DIR/want.json"
kill -TERM "$SBSTD_PID" && wait "$SBSTD_PID"
SBSTD_PID=""

# --- Crash run: SIGKILL mid-campaign, restart, recover. --------------
mkdir -p "$DIR/crash"
start_coordinator crash
curl -sf "$BASE/v1/jobs" -d "$SPEC" >/dev/null
for i in $(seq 1 200); do
	state=$(curl -sf "$BASE/v1/jobs/job-0001" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
	[ "$state" = running ] && break
	[ "$state" = completed ] && { echo "campaign finished before the kill; grow the spec"; exit 1; }
	sleep 0.05
done
[ "$state" = running ] || { echo "campaign never started running"; cat "$DIR/crash.log"; exit 1; }
kill -9 "$SBSTD_PID"
wait "$SBSTD_PID" 2>/dev/null || true
SBSTD_PID=""
test -s "$DIR/crash/journal.wal" || { echo "journal empty at the kill"; exit 1; }

start_coordinator crash
grep -q "sbstd: recovered" "$DIR/crash.log" || { echo "no recovery line"; cat "$DIR/crash.log"; exit 1; }
# A client retrying its acked submit must get the original job back.
DUP=$(curl -sf "$BASE/v1/jobs" -d "$SPEC" | sed -n 's/.*"id": "\([a-z0-9-]*\)".*/\1/p')
[ "$DUP" = job-0001 ] || { echo "retried submit created $DUP, want job-0001"; exit 1; }
wait_completed crash
stable_result >"$DIR/got.json"

diff -u "$DIR/want.json" "$DIR/got.json" || {
	echo "recovered result diverged from the uninterrupted oracle"; exit 1; }
echo "recovery smoke passed: recovered result is bit-identical to the oracle"
