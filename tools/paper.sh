#!/usr/bin/env bash
# The paper's evaluation as one document: the stdout of every
# deterministic table, figure, ablation and extension binary, in
# EXPERIMENTS.md order, each after a header line naming it.
# table4_ops is left out because it prints host timings.
#
#   tools/paper.sh BUILD_DIR > paper.txt
#
# BUILD_DIR is a configured and built tree (e.g. build/). CI compares
# the output with docs/paper.example.txt byte for byte. Any binary
# exiting nonzero fails the script.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi
for b in table1_ghm table2_violations table3_memory fig8_trace \
         fig9_left fig9_center fig9_right fig10_effort \
         ablation_segment_size ablation_undolog ablation_timekeeper \
         ablation_policy extension_virtual_io table5_features; do
    echo "### $b"
    "$1/bench/$b"
done
