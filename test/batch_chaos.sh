#!/usr/bin/env bash
# Chaos-test the batch supervisor against the real binary: a >=100-job
# corpus with an injected poison (wedge) job must
#   - complete with the wedge quarantined (exit 4) and its diagnostics
#     (timeout reason, captured stderr marker) in the JSONL record;
#   - survive kill -9 of a worker mid-job: the job is retried, the batch
#     result is unchanged;
#   - drain on SIGTERM (exit 3, checkpoint written) and, resumed, produce
#     the same result set as an uninterrupted run modulo the volatile
#     fields (cached/attempts/ms);
#   - serve >=95% of a second identical run from the persistent verdict
#     cache;
#   - reject a resume against an edited job file (exit 2);
#   - drain a 30000-job checkpointed batch at its deadline and resume it.
set -u

WEAKORD="$1"
fails=0

fail() {
  echo "FAIL: $*" >&2
  fails=$((fails + 1))
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# 103 jobs: two builtins, 100 generated programs, one poison job.
{
  echo "machine def2"
  echo "test mp"
  echo "test mp_sync"
  echo "seeds 0..99"
  echo "wedge"
} > "$tmp/jobs.txt"
NJOBS=103

# Fast flags shared by every run that must produce the same records.
FLAGS=(--workers 4 --timeout 1.0 --retries 2 --backoff 50)

# Strip the volatile trailer and order by completion-independent content:
# what remains must be identical across runs.
norm() {
  sed -E 's/,"cached":(true|false),"attempts":[0-9]+,"ms":[0-9.]+\}/}/' "$1" \
    | sort
}

# --- 1. uninterrupted reference: completes, quarantines the wedge ------------
"$WEAKORD" batch "$tmp/jobs.txt" "${FLAGS[@]}" -o "$tmp/ref.jsonl" \
  2> "$tmp/ref.err"
code=$?
if [ "$code" -ne 4 ]; then
  fail "batch with a poison job: expected exit 4, got $code"
fi
if [ "$(wc -l < "$tmp/ref.jsonl")" -ne "$NJOBS" ]; then
  fail "expected $NJOBS result records, got $(wc -l < "$tmp/ref.jsonl")"
fi
if ! grep -q '"status":"quarantined"' "$tmp/ref.jsonl"; then
  fail "no quarantine record for the wedge job"
fi
if ! grep '"status":"quarantined"' "$tmp/ref.jsonl" \
  | grep -q 'timeout: SIGKILL'; then
  fail "quarantine record lacks the timeout diagnostic"
fi
if ! grep '"status":"quarantined"' "$tmp/ref.jsonl" \
  | grep -q 'wedged on purpose'; then
  fail "quarantine record lacks the worker's captured stderr"
fi
if [ "$(grep -c '"status":"ok"' "$tmp/ref.jsonl")" -ne $((NJOBS - 1)) ]; then
  fail "not every healthy job produced a verdict"
fi

# --- 2. kill -9 a worker mid-job: retried, same result set -------------------
"$WEAKORD" batch "$tmp/jobs.txt" "${FLAGS[@]}" --verbose \
  -o "$tmp/k9.jsonl" 2> "$tmp/k9.err" &
BPID=$!
# The wedge worker is the only long-lived one; find its pid from the
# verbose lifecycle log and SIGKILL it mid-attempt.
wpid=""
for _ in $(seq 1 100); do
  wpid="$(grep -o 'worker [0-9]* started job 102' "$tmp/k9.err" 2>/dev/null \
    | head -1 | grep -o '[0-9]*' | head -1)"
  [ -n "$wpid" ] && break
  sleep 0.05
done
if [ -n "$wpid" ]; then
  sleep 0.2 # let the attempt get going before murdering it
  kill -9 "$wpid" 2>/dev/null
else
  fail "could not find the wedge worker's pid in the verbose log"
fi
wait "$BPID"
code=$?
if [ "$code" -ne 4 ]; then
  fail "batch with a SIGKILLed worker: expected exit 4, got $code"
fi
if ! grep -q 'killed by SIGKILL' "$tmp/k9.err"; then
  fail "the external kill -9 did not surface as a retried attempt"
fi
if ! diff -q <(norm "$tmp/ref.jsonl") <(norm "$tmp/k9.jsonl") >/dev/null; then
  fail "kill -9 of a worker changed the batch result set"
fi

# --- 3. SIGTERM drain + resume == uninterrupted ------------------------------
"$WEAKORD" batch "$tmp/jobs.txt" "${FLAGS[@]}" \
  -o "$tmp/drain.jsonl" --checkpoint "$tmp/batch.ckpt" \
  2> "$tmp/drain.err" &
BPID=$!
sleep 0.4 # the wedge alone keeps the batch alive past 2s
kill -TERM "$BPID" 2>/dev/null
wait "$BPID"
code=$?
if [ "$code" -ne 3 ]; then
  fail "SIGTERM mid-batch: expected exit 3 (suspended), got $code"
fi
if [ ! -s "$tmp/batch.ckpt" ]; then
  fail "drained batch left no checkpoint"
fi
"$WEAKORD" batch "$tmp/jobs.txt" "${FLAGS[@]}" \
  -o "$tmp/drain.jsonl" --checkpoint "$tmp/batch.ckpt" \
  --resume "$tmp/batch.ckpt" 2> "$tmp/resume.err"
code=$?
if [ "$code" -ne 4 ]; then
  fail "resumed batch: expected exit 4, got $code"
fi
if ! diff <(norm "$tmp/ref.jsonl") <(norm "$tmp/drain.jsonl"); then
  fail "drain + resume diverged from the uninterrupted run"
fi
# the resumed summary counts the interrupted run's verdicts too
summary="$(grep -o '[0-9]* finished ([0-9]* ok, [0-9]* violation' "$tmp/resume.err")"
read -r finished ok viol <<< "$(echo "$summary" | grep -o '[0-9]*' | tr '\n' ' ')"
if [ -z "$summary" ] || [ $((ok + viol)) -ne "$finished" ]; then
  fail "resumed summary: ok + violations != finished ($summary)"
fi

# a resume against an edited job list must be rejected loudly
echo "test dekker" >> "$tmp/jobs.txt"
"$WEAKORD" batch "$tmp/jobs.txt" "${FLAGS[@]}" \
  --resume "$tmp/batch.ckpt" >/dev/null 2> "$tmp/reject.err"
code=$?
if [ "$code" -ne 2 ]; then
  fail "resume against an edited job file: expected exit 2, got $code"
fi
if ! grep -q 'fingerprint' "$tmp/reject.err"; then
  fail "resume rejection does not explain the fingerprint mismatch"
fi
# restore the original corpus for the cache phase
head -n -1 "$tmp/jobs.txt" > "$tmp/jobs2.txt" && mv "$tmp/jobs2.txt" "$tmp/jobs.txt"

# --- 4. persistent verdict cache: second run >=95% served --------------------
"$WEAKORD" batch "$tmp/jobs.txt" "${FLAGS[@]}" --cache "$tmp/verdicts.wovc" \
  -o "$tmp/cold.jsonl" 2>/dev/null
"$WEAKORD" batch "$tmp/jobs.txt" "${FLAGS[@]}" --cache "$tmp/verdicts.wovc" \
  -o "$tmp/warm.jsonl" 2> "$tmp/warm.err"
hits="$(grep -c '"cached":true' "$tmp/warm.jsonl")"
want=$((NJOBS * 95 / 100))
if [ "$hits" -lt "$want" ]; then
  fail "warm run served $hits/$NJOBS from cache (needed >= $want)"
fi
if ! grep -q 'served from cache' "$tmp/warm.err"; then
  fail "batch summary does not report cache hits"
fi
if ! diff -q <(norm "$tmp/cold.jsonl") <(norm "$tmp/warm.jsonl") >/dev/null; then
  fail "cached verdicts differ from computed ones"
fi
# a corrupted cache record degrades to a recompute, never a failure
if [ -s "$tmp/verdicts.wovc" ]; then
  size="$(wc -c < "$tmp/verdicts.wovc")"
  dd if=/dev/zero of="$tmp/verdicts.wovc" bs=1 seek=$((size / 2)) count=8 \
    conv=notrunc 2>/dev/null
  "$WEAKORD" batch "$tmp/jobs.txt" "${FLAGS[@]}" --cache "$tmp/verdicts.wovc" \
    -o "$tmp/corrupt.jsonl" 2> "$tmp/corrupt.err"
  code=$?
  if [ "$code" -ne 4 ]; then
    fail "batch over a corrupted cache: expected exit 4, got $code"
  fi
  if ! grep -q 'corrupt record' "$tmp/corrupt.err"; then
    fail "summary does not count the corrupt cache records"
  fi
  if ! diff -q <(norm "$tmp/ref.jsonl") <(norm "$tmp/corrupt.jsonl") >/dev/null; then
    fail "corrupted cache changed the batch result set"
  fi
fi

# --- 5. a checkpoint costs one pass over the pending jobs --------------------
# 30000 jobs with a wedge that outlives the deadline: the batch must
# drain at its deadline (exit 3) instead of spending minutes in
# checkpoint writes, and the resume must finish what is left.  The
# generator options keep the programs tiny, so the verdict cache answers
# almost every job without a fork.  A blow-up bound, not a timing gate.
{
  echo "wedge"
  echo "seeds 0..29999 threads=2 instrs=1 locs=1 sync-locs=1"
} > "$tmp/big.txt"
timeout 60 "$WEAKORD" batch "$tmp/big.txt" --workers 2 --timeout 30 \
  --retries 1 --deadline 2 --checkpoint "$tmp/big.ckpt" -o "$tmp/big.jsonl" \
  2> "$tmp/big.err"
code=$?
if [ "$code" -ne 3 ]; then
  fail "30000-job batch with --checkpoint --deadline 2: expected exit 3, got $code"
fi
timeout 60 "$WEAKORD" batch "$tmp/big.txt" --workers 2 --timeout 0.5 \
  --retries 1 --checkpoint "$tmp/big.ckpt" --resume "$tmp/big.ckpt" \
  -o "$tmp/big.jsonl" 2> "$tmp/big-resume.err"
code=$?
if [ "$code" -ne 4 ]; then
  fail "resumed 30000-job batch: expected exit 4, got $code"
fi
if [ "$(wc -l < "$tmp/big.jsonl")" -ne 30001 ]; then
  fail "drain + resume of 30001 jobs left $(wc -l < "$tmp/big.jsonl") record(s)"
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails batch chaos check(s) failed" >&2
  exit 1
fi
echo "batch chaos: ok"
