#!/usr/bin/env bash
# Prints `weakord verify -v --jobs 1` for every exhaustive machine over the
# built-in litmus corpus plus big3: verdicts, states, symmetry group order
# and orbit hits per program.  The dune runtest rule diffs this against
# golden/verify_corpus.golden, so any change in what the packed state keys
# decide (state counts, orbit merges, outcome sets) shows up as a diff.
#
# Usage: verify_corpus.sh WEAKORD_EXE
# Exit 1 ("NOT weakly ordered") is a documented verdict, not a failure;
# any other nonzero exit is.
set -u
W=$1
corpus=$("$W" list | awk '/^built-in litmus tests:/ {on=1; next} /^$/ {on=0} on {print $1}')
for m in wbuf ooo def1 def2 def2-rs rp3 rc; do
  echo "== $m =="
  # shellcheck disable=SC2086
  "$W" verify -v --jobs 1 -m "$m" $corpus big3
  rc=$?
  echo "exit $rc"
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 1 ]; then
    echo "verify_corpus.sh: verify -m $m exited $rc" >&2
    exit 1
  fi
done
