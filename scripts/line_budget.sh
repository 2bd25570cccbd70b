#!/usr/bin/env bash
# Line budget for the packages ROADMAP aim 2 counts.
#
# Prints the non-test Go lines of internal/{core,swap,tcpnet,replication,ec}
# and fails when core + swap + tcpnet exceeds the figure recorded below.
# ROADMAP item 7 sets the target for those three at 6400; they were 6802 at
# PR 15 and grew for five PRs to 7076 because nothing counted. The budget is
# what the tree held after the last change that removed lines (6917 when this
# script was written, 6718 once tcpnet's two frame writers became one, 6702
# once the slab pools lost their lock shards; 6834 since a window round
# allocates nothing — pooled call answers, persistent call workers, pooled
# window scratch): lower it in the change that removes lines; a change that
# must raise it says in CHANGES.md where the matching deletion is.
set -eu
cd "$(dirname "$0")/.."

budget=6834

count() {
    find "internal/$1" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
}

total=0
for pkg in core swap tcpnet replication ec; do
    n=$(count "$pkg")
    printf 'line_budget: internal/%-12s %5d\n' "$pkg" "$n"
    case "$pkg" in core | swap | tcpnet) total=$((total + n)) ;; esac
done
echo "line_budget: core + swap + tcpnet = $total (budget $budget, ROADMAP target 6400)"
if [ "$total" -gt "$budget" ]; then
    echo "line_budget: $total non-test lines exceed the budget of $budget" >&2
    exit 1
fi
echo "line_budget: OK"
