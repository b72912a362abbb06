#!/usr/bin/env bash
# Doc-link check: documentation must not drift from the code.  Every env
# var, C++ symbol, and file path referenced from README.md or docs/*.md has
# to still exist in the tree, and the knob table of docs/env_vars.md has to
# list exactly the variables src/ reads, or this script fails CI.
#
# Deliberately grep-based and conservative: it extracts
#   1. MYST_* / MYSTIQUE_* env-var / macro names,
#   2. backticked `ns::symbol` references (each :: component is checked),
#   3. backticked CamelCase type names,
#   4. backticked or link-target file paths with a known extension,
#   6. backticked snake_case names (`reset_for_replay()`, `run_with`),
#   7. `.name(`, `->name(` and `::name(` calls inside fenced code blocks,
# and verifies each against the source tree.  False negatives are fine
# (prose is not checked); false positives mean a doc names something that
# no longer exists — which is exactly the rot this guards against.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md docs/*.md)
# Where referenced code/files may legitimately live.  Not this script: a
# deleted name that its comments quote would pass checks 1, 3 and 6.
code_roots=(src bench tests examples tools scripts/ci.sh shared_benchmark CMakeLists.txt .github)

fail=0

say_missing() {
    echo "doc-check FAIL: $1 (referenced in ${2:-docs}, not found in the tree)"
    fail=1
}

# ---- 1. env vars & MYST_ macros -------------------------------------------
for var in $(grep -ohE 'MYST(IQUE)?_[A-Z][A-Z_]*' "${docs[@]}" | sort -u); do
    grep -rqF -- "$var" "${code_roots[@]}" || say_missing "env var / macro '$var'"
done

# ---- 2. backticked ns::symbol references ----------------------------------
# `core::generate_benchmark`, `ReplayPlan::from_json(json, trace)`, ...
for sym in $(grep -ohE '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_~][A-Za-z0-9_]*)+' "${docs[@]}" |
                 tr -d '`' | sort -u); do
    # Check every identifier component; namespaces alone (core, et, fw...)
    # are ubiquitous, so a stale leaf is what this actually catches.
    leaf="${sym##*::}"
    leaf="${leaf#\~}"
    grep -rqE -- "\b${leaf}\b" src || say_missing "symbol '$sym'"
done

# ---- 3. backticked CamelCase type names -----------------------------------
for type in $(grep -ohE '`[A-Z][a-z][A-Za-z0-9]*[A-Z][A-Za-z0-9]*`' "${docs[@]}" |
                  tr -d '`' | sort -u); do
    grep -rqE -- "\b${type}\b" "${code_roots[@]}" || say_missing "type '$type'"
done

# ---- 4. file paths ---------------------------------------------------------
# `core/plan_cache.h`, [docs/architecture.md](docs/architecture.md),
# `execution_trace.json` (package files live in shared_benchmark/), ...
for path in $(grep -ohE '[`(][A-Za-z0-9_./-]+\.(h|cpp|md|sh|json|yml|txt)[`)]' \
                   "${docs[@]}" | tr -d '`()' | sort -u); do
    found=0
    for root in . src docs shared_benchmark; do
        [ -e "$root/$path" ] && found=1 && break
    done
    [ "$found" = 1 ] || say_missing "file '$path'"
done

# ---- 5. the knob table, both ways ------------------------------------------
# The variables src/ reads through common/env.h must be exactly the MYST*_
# names in the rows of the first table of docs/env_vars.md: a row for a knob
# nothing reads fails (check 1 would pass while a test still names it), and
# so does a knob without a row.
read_knobs=$(grep -rhoE 'env_(u64|flag|string)\("MYST(IQUE)?_[A-Z_]+"' src |
                 grep -oE 'MYST(IQUE)?_[A-Z_]+' | sort -u || true)
table_knobs=$(awk '/^\|/ { in_table = 1; print; next } in_table { exit }' docs/env_vars.md |
                  grep -oE 'MYST(IQUE)?_[A-Z][A-Z_]*' | sort -u || true)
for var in $(comm -23 <(echo "$table_knobs") <(echo "$read_knobs")); do
    echo "doc-check FAIL: knob '$var' has a row in docs/env_vars.md's table, but src/ never reads it"
    fail=1
done
for var in $(comm -13 <(echo "$table_knobs") <(echo "$read_knobs")); do
    echo "doc-check FAIL: knob '$var' is read in src/ but has no row in docs/env_vars.md's table"
    fail=1
done

# ---- 6. backticked snake_case names ----------------------------------------
# `reset_for_replay()`, `run_with`, `session_options(rank, world)`: a name
# with an underscore, optionally followed by an argument list, must be a
# whole word in the code roots.  `bench_<name>` is the CMake target of
# bench/<name>.cpp, which CMake skips when the target's library is absent.
for name in $(grep -ohE '`[a-z][a-z0-9]*_[a-z0-9_]*(\([^`]*\))?`' "${docs[@]}" |
                  sed -E 's/^`//; s/(\(.*\))?`$//' | sort -u); do
    if [[ "$name" == bench_* ]] && [ -e "bench/${name#bench_}.cpp" ]; then
        continue
    fi
    grep -rqw -- "$name" "${code_roots[@]}" || say_missing "name '$name'"
done

# ---- 7. calls in fenced code blocks -----------------------------------------
# `cache.get_or_build(trace, prof, cfg)` names get_or_build: a name called
# after `.`, `->` or `::` on a line inside a ``` block must be a word in the
# code.  Each missing name is reported once, with the first line calling it.
declare -A call_checked=()
while IFS= read -r line; do
    for name in $(grep -oE '(\.|->|::)[A-Za-z_][A-Za-z0-9_]*\(' <<<"$line" |
                      sed -E 's/^(\.|->|::)//; s/\($//'); do
        [ -n "${call_checked[$name]:-}" ] && continue
        call_checked[$name]=1
        grep -rqw -- "$name" "${code_roots[@]}" ||
            say_missing "call '$name' in a code block: ${line}"
    done
done < <(awk 'FNR == 1 { fence = 0 }
              /^[[:space:]]*```/ { fence = !fence; next }
              fence { print FILENAME ":" FNR ": " $0 }' "${docs[@]}")

if [ "$fail" != 0 ]; then
    echo "doc-check: documentation references symbols/files that no longer exist"
    exit 1
fi
echo "doc-check OK: all referenced env vars, symbols, names, code-block calls and files exist; the knob table lists every knob src/ reads"
