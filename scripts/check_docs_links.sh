#!/usr/bin/env bash
# Doc-path hygiene: every backtick-quoted repo path mentioned in the
# top-level docs must actually exist, so ARCHITECTURE.md's crate map and
# the README can't silently rot as files move. Run from the repo root
# (CI does); exits 1 listing every stale reference.
set -u

cd "$(dirname "$0")/.." || exit 1

status=0
for doc in ARCHITECTURE.md README.md; do
    [ -f "$doc" ] || { echo "missing doc: $doc"; status=1; continue; }
    # Backtick-quoted tokens that look like repo paths: start with a
    # known top-level directory and contain no spaces. `grep -o` pulls
    # each quoted token; the sed strips the backticks.
    refs=$(grep -o '`\(crates\|src\|scripts\|vendor\|examples\)/[^` ]*`' "$doc" \
        | sed 's/`//g' | sort -u)
    for ref in $refs; do
        if [ ! -e "$ref" ]; then
            echo "$doc: stale path reference: $ref"
            status=1
        fi
    done
done

# Both measurement harnesses must stay documented where a reader looks.
for script in scripts/bench_pair.sh scripts/ladder_pair.sh; do
    if ! grep -q "$script" ARCHITECTURE.md; then
        echo "ARCHITECTURE.md: missing mention of $script"
        status=1
    fi
done

# The perf gate is a test now (`bench_meld_json_is_the_figure_geomeans`);
# its retired binary, codec and variable must not linger in the docs. (The
# bracketed letters keep this file itself out of a repo-wide search for
# those names.)
for doc in ARCHITECTURE.md README.md; do
    if grep -n 'perf[_]gate\|perf[j]son\|DARM_BENCH[_]JSON' "$doc"; then
        echo "$doc: mentions the retired perf-gate machinery"
        status=1
    fi
done

# Same for what PR 21 folded away: the daemon compiles a miss once and the
# containment boundary is one function, so the second attempt's policy name
# and counter and the two folded-away methods must not come back into the
# docs (bracketed for the same reason).
for doc in ARCHITECTURE.md README.md; do
    if grep -n 'fail-then[-]degrade\|degraded[_]retries\|run[_]contained\|hard[_]reset' "$doc"; then
        echo "$doc: mentions the retired second-attempt / containment names"
        status=1
    fi
done

# And for PR 22: every driver builds `"meld"` from the registry and a plan
# says how its melds correspond, so the caller-less driver, its result type
# and the planner's private enum stay out of the docs.
for doc in ARCHITECTURE.md README.md; do
    if grep -n 'run_meld[_]pipeline\|Meld[O]utcome\|Match[K]ind' "$doc"; then
        echo "$doc: mentions the retired melding driver / planner names"
        status=1
    fi
done

# And for PR 23: a reply is written once and a spec is validated where it
# is first compiled, so the per-reply tree method, the spec memo and the
# second bounded map stay out of the docs.
for doc in ARCHITECTURE.md README.md; do
    if grep -n 'to[_]json\|spec[ ]memo\|Shared::[s]pecs\|Fast[C]ache' "$doc"; then
        echo "$doc: mentions the retired reply tree / spec memo / second bounded map"
        status=1
    fi
done

# And for the journal: it counts edits instead of logging them, so the log
# reader, the journal-seeded instcombine entry point, the truncation and
# the saturation hatch stay out of the docs (bracketed for the same
# reason).
for doc in ARCHITECTURE.md README.md; do
    if grep -n 'insts[_]touched_since\|run_instcombine[_]since\|truncate[_]journal\|saturate[_]journal' "$doc"; then
        echo "$doc: mentions the retired journal log / seeded instcombine names"
        status=1
    fi
done

# And for the settings that were a second spelling or set only by the
# CLI: the oracle selector, the timing model's memory switch, the meld
# flags and spec key the `meld(threshold=…)` / `meld(unpredicate=false)` /
# `meld-bf` specs spell already, and the second `--stats` format
# (bracketed for the same reason).
for doc in ARCHITECTURE.md README.md; do
    if grep -n 'Backend[K]ind\|launch[_]with\|memory[_]model\|--no-mem[-]model\|--backen[d]\|--no-unpredicat[e]\|meld(mod[e]=\|region[(]s)' "$doc"; then
        echo "$doc: mentions a retired setting spelling"
        status=1
    fi
done

# And for the plan as the only voice on what melds: it carries every block
# pair's alignment and a run holding a store is never left predicated, so
# the store-predication fallback and the apply's side table of clone
# origins stay out of the docs (bracketed for the same reason).
for doc in ARCHITECTURE.md README.md; do
    if grep -n 'predicate[_]stores\|store-predicatio[n]\|origin[_]span' "$doc"; then
        echo "$doc: mentions the retired store predication / origin side table"
        status=1
    fi
done

# And for one cost model: every figure, geomean and `darm run` reports the
# timing model's simulated cycles, so the run flag that switched it on and
# the two geomean keys that held the instruction-charge ratio stay out of
# the docs (bracketed for the same reason).
for doc in ARCHITECTURE.md README.md; do
    if grep -n 'darm_geomea[n]\|bf_geomea[n]\|--timin[g]' "$doc"; then
        echo "$doc: mentions a retired cycle-count flag or geomean key"
        status=1
    fi
done

# The README must link the architecture overview.
if ! grep -q 'ARCHITECTURE.md' README.md; then
    echo "README.md: missing link to ARCHITECTURE.md"
    status=1
fi

exit $status
