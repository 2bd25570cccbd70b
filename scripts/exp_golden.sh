#!/usr/bin/env bash
# Pins the rendered output of every dmsim experiment, not only the three with
# a Go golden test.
#
# Every experiment runs on the simulated clock from a fixed seed, so what
# `dmsim -exp all` prints is a pure function of the code once the wall-clock
# "(ran in …)" note is stripped. internal/exp/testdata/all.golden is that
# output; a diff here is a change in the model (or in the kernel's event
# order underneath it), never noise. Run from the repository root.
#
#   scripts/exp_golden.sh            compare
#   scripts/exp_golden.sh -update    re-record, for a change meant to move a row
set -euo pipefail

golden=internal/exp/testdata/all.golden
got=$(mktemp)
trap 'rm -f "$got"' EXIT

go run ./cmd/dmsim -exp all | sed 's/ (ran in [^)]*)//' >"$got"

if [ "${1:-}" = "-update" ]; then
    cp "$got" "$golden"
    echo "exp_golden: recorded $golden"
    exit 0
fi
if ! cmp -s "$got" "$golden"; then
    diff -u "$golden" "$got" | head -50 >&2 || true
    echo "exp_golden: dmsim -exp all drifted from $golden" >&2
    exit 1
fi
echo "exp_golden: OK ($(grep -c '^== ' "$golden") experiments)"
