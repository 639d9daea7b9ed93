#!/usr/bin/env bash
# Reproduce every committed report under tests/golden.  Each report is
# written twice, under PYTHONHASHSEED=1 and =2; the two must be equal, and
# equal to the golden.  `series`, `variety` and `all` exit 1 by design:
# their reports hold the documented failures (criterion 5 in series, 8 in
# variety).  Every other report must exit 0.
#
# Run from the root of the repository:  bash tests/golden_reports.sh
#
# relations at the default N=12 reads registries at 12, 16 and 32; at
# N=96 the packed series products use 83-bit slots, at N=48 68-bit;
# boundary at N=48 runs the sextuple chains at packing step 4; numeric
# seed 1001 sums to radius 45 (where a law sample is measured moves only
# the numeric `modulus_law.worst_deviation`).
set -eu
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
count=0

# stable GOLDEN MAX_EXIT ARGS...: the report of ARGS under both hash seeds,
# each run exiting with a status of at most MAX_EXIT
stable() {
    golden=$1 max_exit=$2
    shift 2
    for seed in 1 2; do
        PYTHONHASHSEED=$seed PYTHONPATH=src python -m siegelcy.cli "$@" --json "$out/$seed.json" >/dev/null \
            || { status=$?; test "$status" -le "$max_exit"; }
    done
    cmp "$out/1.json" "$out/2.json"
    cmp "$out/1.json" "tests/golden/$golden"
    count=$((count + 1))
}

stable chars.json 0 chars
stable relations_12.json 0 relations
stable relations_48.json 0 relations --truncation 48
stable relations_96.json 0 relations --truncation 96
stable boundary_48.json 0 boundary --truncation 48
stable boundary_96.json 0 boundary --truncation 96
stable series_48.json 1 series --truncation 48
stable variety.json 1 variety
stable all_seed0.json 1 all --seed 0
stable numeric_1000.json 0 numeric --seed 1000
stable numeric_1001.json 0 numeric --seed 1001
# a golden added under tests/golden must be listed above
test "$count" -eq "$(ls tests/golden/*.json | wc -l)"
echo "$count golden reports reproduced"
