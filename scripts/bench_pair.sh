#!/usr/bin/env bash
# Paired benchmark of two revisions, the way a performance claim has to be
# shown: BENCHMARK.json's own command and run length on both, at least ten
# parent/change pairs alternating which side runs first, and per metric
# each side's median and quartiles plus how many pairs the change won.
set -euo pipefail

usage() {
    cat <<'EOF'
usage: scripts/bench_pair.sh [--pairs N] [--seed N] [--seconds S] [--change REV] <parent-rev> [workload]
       scripts/bench_pair.sh [--pairs N] [--seed N] [--seconds S] --bins PARENT CHANGE [workload]

Builds <parent-rev> and the change (HEAD unless --change REV) in two
temporary git worktrees with the command of BENCHMARK.json (`run` →
`build`), then runs each side's ledger binary with "--workload W --seed N
--seconds S --trace 0" once per pair, alternating which side goes first. With no workload, every workload
of BENCHMARK.json is measured in turn.

  --pairs N     pairs per workload (default 10; a claim needs at least 10)
  --seed N      workload seed, the same on both sides (default 1; confirm a
                claim on a seed not used while writing the change)
  --seconds S   run length (default: run_seconds of BENCHMARK.json, which is
                what a claim must use; shorter only to try the script out)
  --change REV  the change's revision (default HEAD; uncommitted edits are
                not measured)
  --bins PARENT CHANGE
                run two prebuilt ledger binaries instead of building
                revisions (each built as above, found at
                examples/benchmark/target/release/benchmark of its
                checkout); the same order and summary, no worktrees.
                Two copies of one binary (an A/A run) show how far two
                identical sides drift on this host before a claim is read

Prints, per workload and end-to-end metric: median [q1, q3] of each side,
the ratio of medians, pairs won by the change (ties count for neither), and
a verdict — "gain" when there are at least ten pairs, the change wins at
least nine pairs in ten and the medians differ by more than the parent's
own interquartile distance, "WORSE" when there are at least ten pairs and
the change's median is worse by more than the metric's bound ("few pairs"
when all but the pair count hold, either way: two identical binaries win
2 of 2 pairs by chance, and lose them as easily), "unresolved" when the
parent's spread is wider than that bound. Needs git,
cargo and python3.
EOF
}

pairs=10 seed=1 seconds="" change=HEAD
args=() bins=()
while [ $# -gt 0 ]; do
    case "$1" in
        -h | --help) usage; exit 0 ;;
        --pairs) pairs=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --change) change=$2; shift 2 ;;
        --bins)
            [ $# -ge 3 ] || { usage >&2; exit 2; }
            for bin in "$2" "$3"; do
                [ -x "$bin" ] || { echo "not an executable: $bin" >&2; exit 2; }
            done
            bins=("$(realpath "$2")" "$(realpath "$3")")
            shift 3
            ;;
        -*) echo "unknown option: $1" >&2; usage >&2; exit 2 ;;
        *) args+=("$1"); shift ;;
    esac
done
# With --bins there is no revision argument, only the optional workload.
if [ ${#bins[@]} -gt 0 ]; then
    args=(prebuilt "${args[@]}")
fi
if [ ${#args[@]} -lt 1 ] || [ ${#args[@]} -gt 2 ]; then
    usage >&2
    exit 2
fi
parent=${args[0]}

cd "$(dirname "$0")/.."
spec() { python3 -c "import json,sys; b=json.load(open('BENCHMARK.json')); print($1)"; }
mapfile -t command < <(spec "'\n'.join(b['command'])")
[ -n "$seconds" ] || seconds=$(spec "b['run_seconds']")
if [ ${#args[@]} -eq 2 ]; then
    workloads=("${args[1]}")
else
    mapfile -t workloads < <(spec "'\n'.join(w['name'] for w in b['workloads'])")
fi
[ "$pairs" -ge 10 ] || echo "note: fewer than 10 pairs cannot support a claim" >&2

work=$(mktemp -d)
cleanup() {
    for side in parent change; do
        git worktree remove --force "$work/$side" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT

if [ ${#bins[@]} -eq 0 ]; then
    for side in parent change; do
        rev=$parent
        [ "$side" = change ] && rev=$change
        git worktree add --quiet --detach "$work/$side" "$rev"
        echo "building $side ($(git -C "$work/$side" rev-parse --short HEAD))" >&2
        # `cargo run …` → `cargo build …`: same flags, minus the trailing `--`.
        build=("${command[@]/#run/build}")
        [ "${build[-1]}" = "--" ] && unset 'build[-1]'
        (cd "$work/$side" && "${build[@]}")
        bins+=("$work/$side/examples/benchmark/target/release/benchmark")
    done
fi

# One run: the last stdout line is the benchmark's JSON result object.
run() { # side workload
    local bin=${bins[0]}
    [ "$1" = change ] && bin=${bins[1]}
    "$bin" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1
}

results=$work/results.jsonl
for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        order=(parent change)
        [ $((pair % 2)) -eq 0 ] && order=(change parent)
        for side in "${order[@]}"; do
            echo "$workload pair $pair/$pairs: $side" >&2
            printf '{"side":"%s","workload":"%s","pair":%d,"result":%s}\n' \
                "$side" "$workload" "$pair" "$(run "$side" "$workload")" >>"$results"
        done
    done
done

python3 - "$results" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
runs = {}
for line in open(sys.argv[1]):
    r = json.loads(line)
    runs.setdefault(r["workload"], {}).setdefault(r["pair"], {})[r["side"]] = r["result"]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

for workload, by_pair in runs.items():
    n = len(by_pair)
    print(f"\n== {workload}: {n} pairs ==")
    for side in ("parent", "change"):
        att = sum(p[side]["attempted"] for p in by_pair.values())
        bad = sum(p[side]["failed"] for p in by_pair.values())
        wrong = sum(not p[side]["correct"] for p in by_pair.values())
        print(f"{side}: {bad}/{att} operations failed, {wrong} run(s) with wrong output")
    print(f"{'metric':<22}{'parent median [q1, q3]':>36}{'change median [q1, q3]':>36}"
          f"{'change/parent':>15}{'wins':>8}  verdict")
    for m in bench["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        p = [by_pair[i]["parent"]["metrics"][name]["value"] for i in sorted(by_pair)]
        c = [by_pair[i]["change"]["metrics"][name]["value"] for i in sorted(by_pair)]
        better = lambda a, b: a > b if higher else a < b
        wins = sum(better(ci, pi) for pi, ci in zip(p, c))
        ties = sum(ci == pi for pi, ci in zip(p, c))
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
        spread = pq3 - pq1
        worse_by = ((pm - cm) if higher else (cm - pm)) / pm if pm else 0.0
        if wins >= 0.9 * n and abs(cm - pm) > spread and better(cm, pm):
            verdict = "gain" if n >= 10 else "few pairs"
        elif worse_by > m["bound"]:
            verdict = "WORSE" if n >= 10 else "few pairs"
        elif pm and spread / abs(pm) > m["bound"] and wins + ties < n:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        fmt = lambda q1, med, q3: f"{med:.5g} [{q1:.5g}, {q3:.5g}]"
        ratio = f"{cm / pm:.3f}" if pm else "-"
        print(f"{name:<22}{fmt(pq1, pm, pq3):>36}{fmt(cq1, cm, cq3):>36}"
              f"{ratio:>15}{f'{wins}/{n}':>8}  {verdict}")
EOF
