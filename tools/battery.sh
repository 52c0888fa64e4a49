#!/usr/bin/env bash
# Byte-identity battery: run every tool whose output pins the modeled
# behaviour, the paper's tables and figures included (tools/paper.sh),
# and write one file per output into OUT_DIR, so two builds can be
# compared with `diff -r OUT_A OUT_B`.
#
#   tools/battery.sh BUILD_DIR OUT_DIR
#
# BUILD_DIR is a configured and built tree (e.g. build/). Every --json
# report runs at a fixed --jobs: BenchSession records only the owner
# thread's runs, so a report's `runs` section depends on the job count
# even though its findings do not. The ticssweep grid runs at --jobs 1,
# at --jobs 4 and over two worker processes (--workers 2), and the
# script fails unless all three documents are identical. Any tool
# exiting nonzero fails the script.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BUILD_DIR OUT_DIR" >&2
    exit 2
fi
bin="$1/bench"
out="$2"
mkdir -p "$out"

# The --dynamic and --source outputs keep the names they had while
# those modes were the tools ticscheck and ticslint, so that batteries
# of older builds still line up under diff -r.
"$bin/ticsverify" --dynamic --verbose > "$out/ticscheck.txt"
"$bin/ticsverify" --dynamic --json "$out/ticscheck.json" > /dev/null

"$bin/ticsverify" --verbose --crossval > "$out/ticsverify.crossval.txt"
"$bin/ticsverify" --verbose --crossval --jobs 1 \
    --json "$out/ticsverify.crossval.json" > /dev/null
"$bin/ticsverify" --prob --crossval --no-cache > "$out/ticsverify.prob.txt"

"$bin/ticsfault" --campaign > "$out/ticsfault.campaign.txt"
"$bin/ticsfault" --campaign --jobs 1 \
    --json "$out/ticsfault.campaign.json" > /dev/null

"$bin/ticsverify" --source --verbose --crossval \
    > "$out/ticslint.crossval.txt"

# Likewise for the explorer, once the tool ticsmc.
"$bin/ticsfault" --explore --max-faults 2 > "$out/ticsmc.depth2.txt"

"$(dirname "$0")/paper.sh" "$1" > "$out/paper.txt"

grid=(--apps AR,BC,CF
      --runtimes TICS,MementOS-like,Chinchilla-like,Alpaca-like,plain-C
      --supplies continuous,pattern:40:0.5,rf,stochastic
      --caps-uf 4.7,10 --segments 50,256 --seeds 1,2,3
      --stable --no-cache)
"$bin/ticssweep" "${grid[@]}" --jobs 1 \
    --json "$out/ticssweep.grid.json" > "$out/ticssweep.grid.txt"
"$bin/ticssweep" "${grid[@]}" --jobs 4 \
    --json "$out/ticssweep.grid.jobs4.json" > /dev/null
"$bin/ticssweep" "${grid[@]}" --workers 2 \
    --json "$out/ticssweep.grid.workers2.json" > /dev/null
for run in jobs4 workers2; do
    if ! cmp -s "$out/ticssweep.grid.json" "$out/ticssweep.grid.$run.json"; then
        echo "battery: ticssweep --jobs 1 and $run documents differ" >&2
        exit 1
    fi
    rm "$out/ticssweep.grid.$run.json"
done
