#!/usr/bin/env bash
# Paired off-ledger timing of two revisions on the ladder inputs: the
# per-phase cost of `darm meld` on functions far bigger than any ledger
# workload (2.2k to 31k instructions), where a cleanup pass or an analysis
# that follows function size shows up as its own row. The companion of
# bench_pair.sh for questions the ledger cannot resolve; its numbers size a
# change, they are not a claim.
set -euo pipefail

usage() {
    cat <<'EOF'
usage: scripts/ladder_pair.sh [--change REV] <parent-rev> [runs]

Builds <parent-rev> and the change (HEAD unless --change REV) in two
temporary git worktrees (release), has the change's
`ladder_complexity::dump_mixed_ladders` write the inputs — the mixed
ladders (100, 8, 6) … (1200, 24, 8) and a 34-rung all-melding ladder,
built by `darm_kernels::gen` — and runs
`darm meld --jobs 1 --time-passes` on each input `runs` times per side
(default 7), alternating which side goes first.

Prints, per input: min and median milliseconds of each side for the total
and for every `↳` row of the meld pass (analyses, detect, plan+align,
codegen, substitute, ssa-repair, instcombine, simplify, dce), the ratio of
the minima (`-` for a row only one side has),
and whether the two sides' melded IR is byte-identical (`cmp`). Uncommitted
edits are not measured (`git stash create` gives a commit of them). Needs
git, cargo and python3; set TMPDIR to choose where the worktrees go.
EOF
}

change=HEAD
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        -h | --help) usage; exit 0 ;;
        --change) change=$2; shift 2 ;;
        -*) echo "unknown option: $1" >&2; usage >&2; exit 2 ;;
        *) args+=("$1"); shift ;;
    esac
done
if [ ${#args[@]} -lt 1 ] || [ ${#args[@]} -gt 2 ]; then
    usage >&2
    exit 2
fi
parent=${args[0]}
runs=${args[1]:-7}

cd "$(dirname "$0")/.."
work=$(mktemp -d)
cleanup() {
    for side in parent change; do
        git worktree remove --force "$work/$side" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT

for side in parent change; do
    rev=$parent
    [ "$side" = change ] && rev=$change
    git worktree add --quiet --detach "$work/$side" "$rev"
    echo "building $side ($(git -C "$work/$side" rev-parse --short HEAD))" >&2
    (cd "$work/$side" && cargo build --release --offline --quiet)
done
(cd "$work/change" && cargo test --release --offline --quiet -p darm-melding \
    --test ladder_complexity -- --ignored dump_mixed_ladders >/dev/null)
ladders=$work/change/target/tmp/ladders

# One run: the `--time-passes` table (the CLI writes it to stderr) on
# stdout, the melded IR in $work/<side>.ir.
run() { # side input
    "$work/$1/target/release/darm" meld "$2" --jobs 1 --time-passes -o "$work/$1.ir" 2>&1
}

results=$work/results.txt
for input in "$ladders"/*.ir; do
    name=$(basename "$input" .ir)
    for i in $(seq 1 "$runs"); do
        order=(parent change)
        [ $((i % 2)) -eq 0 ] && order=(change parent)
        for side in "${order[@]}"; do
            echo "$name run $i/$runs: $side" >&2
            run "$side" "$input" | sed "s/^/$name $side /" >>"$results"
        done
    done
    if cmp -s "$work/parent.ir" "$work/change.ir"; then
        echo "$name cmp identical" >>"$results"
    else
        echo "$name cmp DIFFERENT" >>"$results"
    fi
done

python3 - "$results" <<'EOF'
import statistics, sys

times, same, order = {}, {}, []
for line in open(sys.argv[1]):
    name, side, rest = line.rstrip("\n").split(" ", 2)
    if side == "cmp":
        same[name] = rest
        continue
    cells = [c.strip() for c in rest.split("|")]
    # `| ↳ row | runs | changed | units | time (ms) | analyses |` and the
    # `| **total** | | | | **ms** | … |` line of the per-pass table.
    if len(cells) < 7 or not (cells[1].startswith("↳") or cells[1] == "**total**"):
        continue
    row = cells[1].lstrip("↳ ").strip("*")
    if name not in times:
        order.append(name)
    times.setdefault(name, {}).setdefault(row, {}).setdefault(side, []).append(
        float(cells[5].strip("*")))

for name in order:
    print(f"\n== {name}: melded IR {same.get(name, '?')} ==")
    print(f"{'row':<14}{'parent min / median ms':>26}{'change min / median ms':>26}{'change/parent (min)':>22}")
    rows = times[name]
    for row in [r for r in rows if r != "total"] + ["total"]:
        # A row one side does not have (a phase added or removed) prints "-".
        p, c = rows[row].get("parent"), rows[row].get("change")
        fmt = lambda xs: f"{min(xs):.3f} / {statistics.median(xs):.3f}" if xs else "-"
        ratio = f"{min(c) / min(p):.2f}" if p and c and min(p) else "-"
        print(f"{row:<14}{fmt(p):>26}{fmt(c):>26}{ratio:>22}")
EOF
