#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload, compared
# metric by metric.
#
#   tools/pairs.sh <parent-bin> <change-bin> <workload> <pairs> [seed] [-- extra args]
#
# Pair i (0-based) runs seed `seed + i` (seed defaults to 1) on both
# binaries: the parent first on even i, the change first on odd i. Every
# run gets `--workload <workload> --seed <s> --trace 0` and then the extra
# args, e.g. `-- --smoke` or `-- --trace 1`. A run's last stdout line is its
# result JSON; a run that exits non-zero or reports `"correct": false` stops
# the script.
#
# Printed per metric:
#   - each side's median and quartiles [q1, q3] (Python's
#     statistics.quantiles(n=4), exclusive: the method `aa` uses);
#   - change/parent ratio of the medians;
#   - wins: pairs where the change is better, by the metric's `better`
#     direction in BENCHMARK.json ("-" for a metric it does not list);
#   - verdict: `unresolved` where the parent's IQR exceeds the difference
#     of the medians, else `better` or `worse` (`differs` when the direction
#     is unknown, `same` when the medians are equal);
# then every pair's parent -> change values in seed order.
#
# Build each binary once from its own tree (`cargo build --release` in its
# `benchmark/`), and build nothing else while pairs run: a run uses both
# cores of a 2-core machine.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-bin> <change-bin> <workload> <pairs> [seed] [-- extra args]" >&2
    exit 2
}

[[ $# -ge 4 ]] || usage
parent=$1 change=$2 workload=$3 pairs=$4
shift 4
seed=1
if [[ $# -gt 0 && $1 != "--" ]]; then
    seed=$1
    shift
fi
if [[ $# -gt 0 ]]; then
    [[ $1 == "--" ]] || usage
    shift
fi
extra=("$@")
[[ $pairs =~ ^[1-9][0-9]*$ && $seed =~ ^[0-9]+$ ]] || usage
for bin in "$parent" "$change"; do
    [[ -x $bin ]] || { echo "$0: not an executable: $bin" >&2; exit 2; }
done

spec="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run <side> <pair> <seed>: one run, its metrics appended to $work/values as
# `side pair metric value` lines.
run() {
    local side=$1 pair=$2 s=$3 bin out
    if [[ $side == parent ]]; then bin=$parent; else bin=$change; fi
    out="$work/run.out"
    if ! "$bin" --workload "$workload" --seed "$s" --trace 0 "${extra[@]}" >"$out" 2>&1; then
        echo "$0: $side run failed (pair $pair, seed $s):" >&2
        tail -n 20 "$out" >&2
        exit 1
    fi
    tail -n 1 "$out" | awk -v side="$side" -v pair="$pair" '
        !/"correct": true/ { bad = 1 }
        {
            line = $0
            while (match(line, /"[A-Za-z0-9_.-]+": \{"value": -?[0-9.eE+-]+/)) {
                m = substr(line, RSTART, RLENGTH)
                line = substr(line, RSTART + RLENGTH)
                name = m; sub(/^"/, "", name); sub(/".*/, "", name)
                value = m; sub(/.*"value": /, "", value)
                print side, pair, name, value
            }
        }
        END { exit bad }
    ' >>"$work/values" || {
        echo "$0: $side run is not correct (pair $pair, seed $s):" >&2
        tail -n 1 "$out" >&2
        exit 1
    }
}

for ((i = 0; i < pairs; i++)); do
    s=$((seed + i))
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    echo "pair $((i + 1))/$pairs seed $s: ${order[0]} first" >&2
    for side in "${order[@]}"; do
        run "$side" "$i" "$s"
    done
done

echo "workload $workload, $pairs pairs, seeds $seed..$((seed + pairs - 1)), extra args: ${extra[*]:-none}"
awk -v pairs="$pairs" '
    # BENCHMARK.json: the `better` direction of each metric.
    FNR == NR {
        if (match($0, /"name": "[^"]+"/)) {
            name = substr($0, RSTART + 9, RLENGTH - 10)
        }
        if (match($0, /"better": "(lower|higher)"/)) {
            better[name] = substr($0, RSTART + 11, RLENGTH - 12)
        }
        next
    }
    {
        if (!($3 in seen)) { seen[$3] = 1; order[++n] = $3 }
        val[$1, $3, $2] = $4
    }
    function sorted(side, metric,    k, i, j, t, c) {
        c = 0
        for (k = 0; k < pairs; k++) {
            if ((side, metric, k) in val) s[++c] = val[side, metric, k] + 0
        }
        for (i = 2; i <= c; i++) {
            t = s[i]
            for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
            s[j + 1] = t
        }
        return c
    }
    function median(c) { return c % 2 ? s[(c + 1) / 2] : (s[c / 2] + s[c / 2 + 1]) / 2 }
    function quartile(c, q,    pos, j, d) {
        if (c < 2) return s[1]
        pos = q * (c + 1)
        j = int(pos / 4)
        if (j < 1) j = 1
        if (j > c - 1) j = c - 1
        d = pos / 4 - j
        return s[j] + (s[j + 1] - s[j]) * d
    }
    END {
        if (n == 0) { print "no metrics parsed" > "/dev/stderr"; exit 1 }
        printf "%-34s %29s %29s %7s %5s  %s\n", "metric", "parent median [q1, q3]", \
            "change median [q1, q3]", "ratio", "wins", "verdict"
        for (m = 1; m <= n; m++) {
            name = order[m]
            c = sorted("parent", name); pm = median(c); p1 = quartile(c, 1); p3 = quartile(c, 3)
            c = sorted("change", name); cm = median(c); c1 = quartile(c, 1); c3 = quartile(c, 3)
            dir = (name in better) ? better[name] : ""
            wins = 0
            for (k = 0; k < pairs; k++) {
                pv = val["parent", name, k] + 0; cv = val["change", name, k] + 0
                if ((dir == "lower" && cv < pv) || (dir == "higher" && cv > pv)) wins++
            }
            diff = cm - pm
            if (diff < 0) diff = -diff
            if (p3 - p1 > diff) verdict = "unresolved"
            else if (cm == pm) verdict = "same"
            else if (dir == "") verdict = "differs"
            else verdict = ((dir == "lower") == (cm < pm)) ? "better" : "worse"
            printf "%-34s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %7.3f %5s  %s\n", \
                name, pm, p1, p3, cm, c1, c3, (pm != 0 ? cm / pm : 0), \
                (dir == "" ? "-" : wins "/" pairs), verdict
        }
        print ""
        print "per pair, parent -> change (seed order):"
        for (m = 1; m <= n; m++) {
            name = order[m]
            line = sprintf("%-34s", name)
            for (k = 0; k < pairs; k++) {
                line = line sprintf(" %.4g->%.4g", val["parent", name, k], val["change", name, k])
            }
            print line
        }
    }
' "$spec" "$work/values"
