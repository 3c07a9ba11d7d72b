#!/usr/bin/env bash
# Byte-identity gate: run one fixed list of bellcert commands against two source trees
# and report any difference in stdout, stderr or written files.
#
#     tools/same_outputs.sh OLD_TREE NEW_TREE
#
# Each tree is a checkout of this repository; its own src/ goes on PYTHONPATH.
# Inputs come from NEW_TREE's perfbench/ (the analyze_chsh_ns trial file at
# workload seed 1, a 100,000-line copy whose lines all differ and a header-less
# 2,000-line copy) and from numpy (a three-party GHZ source and its Mermin
# functional; an LR source and a functional on (2,2,2) with joint settings
# (1/3, 1/3, 1/3, 0)), so both trees read the same bytes.  Every command runs with
# one BLAS thread and PYTHONHASHSEED=0.  Each tree's output directory is
# replaced by OUT in the captured text before the comparison.  Exits 0 when
# every output matches, 1 on any difference, 2 on a usage error.
set -euo pipefail

if [ $# -ne 2 ] || [ ! -d "$1/src/bellcert" ] || [ ! -d "$2/src/bellcert" ]; then
    echo "usage: $0 OLD_TREE NEW_TREE (each a checkout with src/bellcert)" >&2
    exit 2
fi
old=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

export PYTHONHASHSEED=0 OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1

mkdir -p "$work/input"
python3 - "$new/perfbench" "$work/input" <<'EOF'
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import inputs
work = Path(sys.argv[2])
inputs.write_trial_file(work / "trials.jsonl", inputs.sample_chsh_indices(200_000, 1))
records = (work / "trials.jsonl").read_text(encoding="utf-8").splitlines()[1:]
# an "id" key makes every line differ, past read_trials' 2^16-text line cache
(work / "distinct.jsonl").write_text("".join(f'{r[:-1]},"id":{i}}}\n' for i, r in enumerate(records[:100_000])), encoding="utf-8")
(work / "no_header.jsonl").write_text("".join(r + "\n" for r in records[:2000]), encoding="utf-8")
EOF
trials="$work/input/trials.jsonl"
distinct="$work/input/distinct.jsonl"
no_header="$work/input/no_header.jsonl"
# the (3,2,2) GHZ source with X/Y settings and the Mermin functional 8 E (-1)^(a+b+c), LR bound 2
ghz="$work/input/ghz.json"
mermin="$work/input/mermin.json"
python3 - "$ghz" "$mermin" <<'EOF'
import itertools, json, sys
import numpy as np
correlation = {(0, 0, 0): 1, (0, 1, 1): -1, (1, 0, 1): -1, (1, 1, 0): -1}
probs, values = np.zeros(64), np.zeros(64)
for x, y, z, a, b, c in itertools.product(range(2), repeat=6):
    e, sign, idx = correlation.get((x, y, z), 0), (-1) ** (a + b + c), (x * 4 + y * 2 + z) * 8 + a * 4 + b * 2 + c
    probs[idx], values[idx] = (1 + e * sign) / 64, 8 * e * sign
scenario = {"l": 3, "s": 2, "d": 2}
with open(sys.argv[1], "w") as fh:
    json.dump({"scenario": scenario, "probs": probs.tolist()}, fh)
with open(sys.argv[2], "w") as fh:
    json.dump({"scenario": scenario, "B": 2.0, "values": values.tolist()}, fh)
EOF
# (2,2,2) with joint setting 4 impossible: an LR source, half the strategy "all outcomes 0" and half uniform outcomes,
# and CHSH on settings 1-3 plus 2 at result 0, zero on setting 4; B is its LR maximum 14/3, inside its range [-4, 6]
nonuniform="$work/input/nonuniform.json"
nonuniform_f="$work/input/nonuniform_f.json"
python3 - "$nonuniform" "$nonuniform_f" <<'EOF'
import itertools, json, sys
import numpy as np
pi = [1 / 3, 1 / 3, 1 / 3, 0.0]
scenario = {"l": 2, "s": 2, "d": 2, "setting_distribution": pi}
probs = np.outer(pi, 0.5 * np.eye(4)[0] + 0.5 * np.full(4, 0.25)).reshape(-1)
values = np.array([4.0, -4.0, -4.0, 4.0] * 3 + [0.0] * 4)
values[0] = 6.0
# strategy (a1, a2, b1, b2) answers joint setting (x, y) with result 4 (2x + y) + 2 a_x + b_y
top = max(sum(p * values[4 * (2 * x + y) + 2 * a[x] + a[2 + y]] for p, (x, y) in zip(pi, itertools.product(range(2), repeat=2)))
          for a in itertools.product(range(2), repeat=4))
with open(sys.argv[1], "w") as fh:
    json.dump({"scenario": scenario, "probs": probs.tolist()}, fh)
with open(sys.argv[2], "w") as fh:
    json.dump({"scenario": scenario, "B": float(top), "values": values.tolist()}, fh)
EOF

# name|arguments of bellcert.cli; @OUT@ stands for the command's own output directory
commands=(
    "analyze_chsh_ns|analyze $trials --scenario 2,2,2 --functions chsh,nosignaling --protocol mart,spbr --block 154 --out @OUT@"
    "analyze_distinct|analyze $distinct --scenario 2,2,2 --functions chsh,nosignaling --protocol mart,spbr --block 154 --out @OUT@"
    "analyze_no_header|analyze $no_header --scenario 2,2,2 --protocol mart,spbr,fpbr --block 50 --out @OUT@"
    "analyze_per_block|analyze $no_header --scenario 2,2,2 --protocol mart,spbr,fpbr --block 50 --per-block --out @OUT@"
    "simulate_cglmp3|simulate --config cglmp:3 --trials 10000 --block 154 --protocol mart,spbr,fpbr --out @OUT@"
    "simulate_per_block|simulate --config chsh:0.6 --trials 2000 --block 50 --per-block --out @OUT@"
    "fpbr_spbr_chsh|simulate --config chsh:0.6 --trials 2000 --protocol fpbr,spbr --floor 0 --block 9 --max-iter 50"
    "fpbr_cglmp4|simulate --config cglmp:4 --trials 3000 --block 50 --protocol fpbr"
    "seed_sweep|simulate --config cglmp:3 --trials 2000 --seeds 3 --out @OUT@"
    "gain_chsh|gain --sweep chsh --with-sq"
    "gain_cglmp|gain --sweep cglmp --with-sq"
    "gain_chsh_no_ns|gain --sweep chsh --no-ns"
    "gain_chsh_config|gain --config chsh:0.6 --with-sq"
    "gain_cglmp32|gain --config cglmp:32"
    "catalog|catalog --scenario 2,2,3"
    "catalog_chsh|catalog --scenario 2,2,2"
    "catalog_ns|catalog --scenario 2,3,2"
    "catalog_trivial|catalog --scenario 3,2,2"
    "ghz_mermin|simulate --dist $ghz --functions file:$mermin --protocol mart,spbr,fpbr --trials 20000 --block 50"
    "nonuniform_settings|simulate --dist $nonuniform --functions file:$nonuniform_f --protocol mart,spbr,fpbr --trials 2000 --out @OUT@"
)

run_tree() {
    local tree=$1 side=$2 entry name args out
    for entry in "${commands[@]}"; do
        name=${entry%%|*}
        out="$work/$side/$name/out"
        args=${entry#*|}
        mkdir -p "$work/$side/$name"
        # shellcheck disable=SC2086  # the argument list is split on purpose
        PYTHONPATH="$tree/src" python3 -m bellcert.cli ${args//@OUT@/$out} \
            >"$work/$side/$name/stdout" 2>"$work/$side/$name/stderr" || echo "exit $?" >"$work/$side/$name/exit"
    done
    mkdir -p "$work/$side/validity"
    PYTHONPATH="$tree/src" python3 "$new/perfbench/validity_driver.py" --seeds 40 --base-seed 0 \
        >"$work/$side/validity/stdout" 2>"$work/$side/validity/stderr"
    # the output paths differ between the two sides; name them alike
    find "$work/$side" -type f \( -name stdout -o -name stderr \) -exec sed -i "s|$work/$side/[^/]*/out|OUT|g" {} +
}

run_tree "$old" old
run_tree "$new" new
if diff -r "$work/old" "$work/new"; then
    echo "same outputs: $(find "$work/new" -type f | wc -l) files identical"
else
    echo "outputs differ" >&2
    exit 1
fi
