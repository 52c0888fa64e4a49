#!/usr/bin/env bash
# Byte-identity battery: run every tool whose output pins the modeled
# behaviour and write one file per output into OUT_DIR, so two builds
# can be compared with `diff -r OUT_A OUT_B`.
#
#   tools/battery.sh BUILD_DIR OUT_DIR
#
# BUILD_DIR is a configured and built tree (e.g. build/). Every --json
# report runs at a fixed --jobs: BenchSession records only the owner
# thread's runs, so a report's `runs` section depends on the job count
# even though its findings do not. The ticssweep grid runs at --jobs 1
# and --jobs 4, and the script fails if the two documents differ. Any
# tool exiting nonzero fails the script.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BUILD_DIR OUT_DIR" >&2
    exit 2
fi
bin="$1/bench"
out="$2"
mkdir -p "$out"

"$bin/ticscheck" --verbose > "$out/ticscheck.txt"
"$bin/ticscheck" --json "$out/ticscheck.json" > /dev/null

"$bin/ticsverify" --verbose --crossval > "$out/ticsverify.crossval.txt"
"$bin/ticsverify" --verbose --crossval --jobs 1 \
    --json "$out/ticsverify.crossval.json" > /dev/null
"$bin/ticsverify" --prob --crossval --no-cache > "$out/ticsverify.prob.txt"

"$bin/ticsfault" --campaign > "$out/ticsfault.campaign.txt"
"$bin/ticsfault" --campaign --jobs 1 \
    --json "$out/ticsfault.campaign.json" > /dev/null

"$bin/ticslint" --verbose --crossval > "$out/ticslint.crossval.txt"

"$bin/ticsmc" --max-faults 2 > "$out/ticsmc.depth2.txt"

grid=(--apps AR,BC,CF
      --runtimes TICS,MementOS-like,Chinchilla-like,Alpaca-like,plain-C
      --supplies continuous,pattern:40:0.5,rf,stochastic
      --caps-uf 4.7,10 --segments 50,256 --seeds 1,2,3
      --stable --no-cache)
"$bin/ticssweep" "${grid[@]}" --jobs 1 \
    --json "$out/ticssweep.grid.json" > "$out/ticssweep.grid.txt"
"$bin/ticssweep" "${grid[@]}" --jobs 4 \
    --json "$out/ticssweep.grid.jobs4.json" > /dev/null
if ! cmp -s "$out/ticssweep.grid.json" "$out/ticssweep.grid.jobs4.json"; then
    echo "battery: ticssweep --jobs 1 and --jobs 4 documents differ" >&2
    exit 1
fi
rm "$out/ticssweep.grid.jobs4.json"
