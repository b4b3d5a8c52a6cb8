#!/usr/bin/env bash
# ci.sh — the repository's verification gate.
#
# Runs formatting, the standard vet suite, the project's own
# determinism analyzers (internal/lint's repository test), a full
# build, and the tests under the race detector.  Everything is offline
# and stdlib-only.
set -euo pipefail
cd "$(dirname "$0")"

# Everything the gate writes — the lint test binary, the smoke
# drivers, the figure9 plates, the bench artifact unless the environment
# names a destination — lives under one directory that is removed
# however the script ends.
tmp_root=$(mktemp -d)
trap 'rm -rf "$tmp_root"' EXIT

# no_process_left fails if anything started from this checkout is still
# alive: any process whose executable or working directory lies under it
# — a child of the gate, a benchmark binary under .bench_build, a *.test
# binary or a go build left behind by a measurement loop.  Not judged:
# this script, its ancestors, and the rest of any *enclosing* session an
# ancestor belongs to (the plumbing of the terminal or harness that
# launched the gate).  `ci.sh processes` runs only this check; it is the
# last command before a hand-over.
no_process_left() {
    local root=${1:-$PWD} pid=$$ own skip=" " outer=" " p sid leaked=""
    own=$(ps -o sid= -p $$ | tr -d ' ')
    while [ "${pid:-1}" -gt 1 ]; do
        skip+="$pid "
        sid=$(ps -o sid= -p "$pid" | tr -d ' ')
        [ "$sid" = "$own" ] || outer+="$sid "
        pid=$(ps -o ppid= -p "$pid" | tr -d ' ')
    done
    for p in /proc/[0-9]*; do
        pid=${p#/proc/}
        case "$skip" in *" $pid "*) continue ;; esac
        case "$(readlink "$p/exe" 2>/dev/null || true)|$(readlink "$p/cwd" 2>/dev/null || true)" in
            "$root"/*\|* | *\|"$root" | *\|"$root"/*) ;;
            *) continue ;;
        esac
        sid=$(ps -o sid= -p "$pid" | tr -d ' ')
        case "$outer" in *" $sid "*) continue ;; esac
        [ -z "$sid" ] || leaked+="$pid,"
    done
    if [ -n "$leaked" ]; then
        echo "ci.sh: processes from $root are still alive:" >&2
        ps -o pid,etime,args -p "${leaked%,}" >&2 || true
        return 1
    fi
}
if [ "${1:-}" = "processes" ]; then
    no_process_left
    exit
fi

# ci.sh pairs PARENT_DIR WORKLOAD N [SEED] measures a change the way
# BENCHMARK.json's driver judges it: N pairs of 30 s untraced runs of
# one workload, the parent tree (a checkout of the parent commit kept
# outside this one, under /root/scratch) first on odd pairs and this
# tree first on even ones.  Every run is a foreground child that is
# waited for, under `timeout -k 10 300`, so a stuck run dies inside the
# call and the pair names the side that hung; nothing is backgrounded,
# and the command ends by checking both trees for leftovers, so a
# measurement loop cannot outlive the session that started it.  A pair
# takes about 80 s, so keep N at 4 or less per call: HYADES_PAIRS_LOG
# names a file that keeps the pairs, a later call continues the
# alternation where the file ends and summarises all of it.
if [ "${1:-}" = "pairs" ]; then
    if [ $# -lt 4 ]; then
        echo "usage: ci.sh pairs PARENT_DIR WORKLOAD N [SEED]" >&2
        exit 2
    fi
    parent=$(cd "$2" && pwd) workload=$3 pairs=$4 seed=${5:-1}
    if [ "$pairs" -gt 4 ]; then
        echo "ci.sh pairs: at most 4 pairs per call; continue through HYADES_PAIRS_LOG" >&2
        exit 2
    fi
    run_one() { # SIDE DIR -> "wall_us_per_op peak_rss_mb setup_s failed"
        local out status=0
        out=$(cd "$2" && timeout -k 10 300 bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 30 --trace 0 | tail -n 1) || status=$?
        case $status in
            0) ;;
            124 | 137)
                echo "ci.sh pairs: pair $i: the $1 run timed out after 300 s and was killed" >&2
                return 1
                ;;
            *)
                echo "ci.sh pairs: pair $i: the $1 run failed with status $status" >&2
                return 1
                ;;
        esac
        echo "$out" | sed -n 's/.*"failed":\([0-9]*\).*"peak_rss_mb":{"value":\([0-9.e+-]*\).*"setup_s":{"value":\([0-9.e+-]*\).*"wall_us_per_op":{"value":\([0-9.e+-]*\).*/\4 \2 \3 \1/p'
    }
    log=${HYADES_PAIRS_LOG:-$tmp_root/pairs}
    touch "$log"
    kept=$(wc -l < "$log")
    echo "== $pairs pairs of $workload, seed $seed, after $kept kept: parent $parent, change $PWD"
    for i in $(seq $((kept + 1)) $((kept + pairs))); do
        if [ $((i % 2)) -eq 1 ]; then
            p=$(run_one parent "$parent") || exit 1
            c=$(run_one change "$PWD") || exit 1
        else
            c=$(run_one change "$PWD") || exit 1
            p=$(run_one parent "$parent") || exit 1
        fi
        if [ -z "$p" ] || [ -z "$c" ]; then
            echo "ci.sh pairs: pair $i printed no metrics (parent '$p', change '$c')" >&2
            exit 1
        fi
        echo "pair $i  parent: $p  change: $c  (wall_us_per_op peak_rss_mb setup_s failed)"
        echo "$p $c" >> "$log"
    done
    # Quartiles by linear interpolation between order statistics; for
    # each metric (lower is better for all three), a win is a pair in
    # which the change's value is the lower.  Each metric is judged
    # against its BENCHMARK.json bound: "unresolved" when the parent's
    # IQR exceeds bound x its median (the runs spread too widely to
    # tell), "outside bound" when the change's median exceeds the
    # parent's by more than the bound.
    outside=""
    for col in "1 wall_us_per_op" "2 peak_rss_mb" "3 setup_s"; do
        set -- $col
        bound=$(jq -r --arg n "$2" '.end_to_end[] | select(.name == $n) | .bound // empty' BENCHMARK.json)
        if [ -z "$bound" ]; then
            echo "ci.sh pairs: BENCHMARK.json gives $2 no bound" >&2
            exit 1
        fi
        for side in 0 4; do
            awk -v c=$(($1 + side)) '{print $c}' "$log" | sort -g > "$tmp_root/col$side"
        done
        verdict=$(awk -v name="$2" -v bound="$bound" -v pf="$tmp_root/col0" -v cf="$tmp_root/col4" '
            function q(a, n, f,   x, i) { x = (n - 1) * f; i = int(x); return a[i + 1] + (x - i) * (a[(i + 2 > n) ? n : i + 2] - a[i + 1]) }
            BEGIN {
                while ((getline v < pf) > 0) p[++np] = v
                while ((getline v < cf) > 0) ch[++nc] = v
                pm = q(p, np, .5); iqr = q(p, np, .75) - q(p, np, .25); r = q(ch, nc, .5) / pm
                mark = ""
                if (iqr > bound * pm) mark = mark "  unresolved"
                if (r > 1 + bound) mark = mark "  outside bound"
                if (mark == "") mark = "  within bound"
                printf "%s: parent q1/median/q3 %g/%g/%g (IQR %g)  change %g/%g/%g  ratio of medians %.4f  bound %g%s\n", name,
                    q(p, np, .25), pm, q(p, np, .75), iqr,
                    q(ch, nc, .25), q(ch, nc, .5), q(ch, nc, .75), r, bound, mark
            }')
        echo "$verdict"
        case "$verdict" in *"outside bound"*) outside+=" $2" ;; esac
        awk -v c="$1" -v name="$2" '{ if ($(c + 4) < $c) w++; else if ($(c + 4) > $c) l++ }
            END { printf "%s: change wins %d, loses %d of %d pairs\n", name, w, l, NR }' "$log"
    done
    awk '{ fp += $4; fc += $8 } END { printf "failed operations: parent %d, change %d\n", fp, fc }' "$log"
    no_process_left "$parent"
    no_process_left
    echo "no process left running in either tree"
    if [ -n "$outside" ]; then
        echo "ci.sh pairs: outside its bound:$outside" >&2
        exit 1
    fi
    exit
fi

echo "== toolchain"
# internal/des runs processes on iter.Pull coroutines (Go 1.23).  Say so
# here rather than as a type error from deep inside the kernel.
go_minor=$(go version | sed -n 's/^go version go1\.\([0-9][0-9]*\).*/\1/p')
if [ -z "$go_minor" ] || [ "$go_minor" -lt 23 ]; then
    echo "ci.sh: Go 1.23 or newer is required (go.mod), found: $(go version)" >&2
    exit 1
fi

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== lint (internal/lint TestRepositoryIsClean)"
# The findings gate: the repository test runs every analyzer over every
# package of the module, and any finding fails it.  Every analyzer reads
# one function body at a time, so the run is mostly type-checking; it is
# still on a wall-clock budget, so a pathological slowdown fails CI
# loudly instead of slowing every later stage quietly.  The test binary
# is prebuilt so the budget measures analysis, not compilation; the
# measured time is archived in the bench artifact below.
lint_test="$tmp_root/lint.test"
go test -c -o "$lint_test" ./internal/lint
lint_budget_s="${HYADESLINT_BUDGET_S:-30}"
lint_start=$(date +%s%N)
if ! lint_out=$(cd internal/lint && "$lint_test" -test.run '^TestRepositoryIsClean$' -test.v 2>&1); then
    echo "$lint_out" >&2
    exit 1
fi
lint_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
if ! grep -q '^--- PASS: TestRepositoryIsClean' <<< "$lint_out"; then
    echo "lint: TestRepositoryIsClean did not run:" >&2
    echo "$lint_out" >&2
    exit 1
fi
echo "lint full tree: ${lint_ms} ms (budget ${lint_budget_s} s)"
if [ "$lint_ms" -gt $(( lint_budget_s * 1000 )) ]; then
    echo "lint wall-clock budget exceeded: ${lint_ms} ms > ${lint_budget_s} s" >&2
    exit 1
fi

echo "== line budget (DESIGN.md, \"Line budget\")"
# Every row of the budget table is a directory (recursive when it ends
# in /...), its non-test Go lines now and a ceiling on them.  Growing
# past a ceiling is a decision: raise the row in the same change and say
# why.  The "lines now" column must match the count, so it cannot go
# stale.
awk -F'|' '/line-budget:begin/ {on=1; next} /line-budget:end/ {on=0} on && $2 ~ /`/ {gsub(/[` ]/, "", $2); gsub(/ /, "", $3); gsub(/ /, "", $4); print $2, $3, $4}' DESIGN.md |
while read -r dir now budget; do
    depth=(-maxdepth 1)
    case "$dir" in */...) dir=${dir%/...}; depth=() ;; esac
    lines=$(find "$dir" "${depth[@]}" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l)
    if [ "$lines" -ne "$now" ]; then
        echo "line budget table is stale: $dir has $lines non-test Go lines, DESIGN.md says $now" >&2
        exit 1
    fi
    if [ "$lines" -gt "$budget" ]; then
        echo "line budget exceeded: $dir has $lines non-test Go lines, budget $budget (DESIGN.md)" >&2
        exit 1
    fi
done

echo "== go build"
go build ./...
# The smoke stages below run the drivers several times; link them once.
bin_dir="$tmp_root/bin"
mkdir "$bin_dir"
go build -o "$bin_dir/" ./cmd/hyades ./cmd/figure9 ./cmd/paper ./cmd/scaling

echo "== go test -race -short"
go test -race -short ./...

echo "== zero-coverage ratchet (DESIGN.md, \"Line budget\")"
# A function of internal/ that no test reaches under -short is dead code
# or an untested path.  Their count may not grow past DESIGN.md's
# "Zero-coverage functions: N" line, which only goes down.  A function
# without a statement (an empty body) reads 0.0 % whoever calls it, so
# only functions with a statement in some block of the profile count:
# a function's blocks start between its own line and the next
# function's line in the same file.
go test -short -coverpkg=./internal/... -coverprofile="$tmp_root/cover.out" ./... > /dev/null
go tool cover -func "$tmp_root/cover.out" > "$tmp_root/cover.func"
zero_funcs=$(awk '
    FILENAME == ARGV[1] {
        if ($1 == "total:") next
        split($1, at, ":")
        key = at[1] ":" at[2]
        if (at[1] == file) next_line[prev] = at[2]
        file = at[1]; prev = key
        if ($NF == "0.0%") { zero[key] = $0; zfile[key] = at[1]; zline[key] = at[2] }
        next
    }
    FNR > 1 && $2 > 0 {
        split($1, at, ":"); split(at[2], pos, ".")
        for (k in zero)
            if (zfile[k] == at[1] && pos[1] + 0 >= zline[k] + 0 && (!(k in next_line) || pos[1] + 0 < next_line[k] + 0))
                counted[k] = 1
    }
    END { for (k in counted) print zero[k] }' "$tmp_root/cover.func" "$tmp_root/cover.out" | sort)
zero_now=$(grep -c . <<< "$zero_funcs" || true)
zero_max=$(sed -n 's/^Zero-coverage functions: \([0-9][0-9]*\)$/\1/p' DESIGN.md)
if [ -z "$zero_max" ]; then
    echo "zero-coverage ratchet: DESIGN.md records no \"Zero-coverage functions: N\" line" >&2
    exit 1
fi
echo "zero-coverage functions: $zero_now (ceiling $zero_max)"
if [ "$zero_now" -gt "$zero_max" ]; then
    echo "zero-coverage ratchet: $zero_now functions no test reaches, ceiling $zero_max:" >&2
    echo "$zero_funcs" >&2
    exit 1
fi

echo "== range-check ratchet (DESIGN.md, \"Line budget\")"
# The compute phases on the serial ocean's path cut every row to its
# loop's length so the compiler proves each index of a cell loop
# (DESIGN.md, "Kernel memory layout").  A cell loop is an innermost for
# loop, whatever its index is called, inside one of the functions below;
# the compiler's IsInBounds reports on its lines may not outnumber
# DESIGN.md's "Range checks in cell loops: N" line, which only goes
# down.  A name below that no function carries any more (renamed, split
# or removed) fails the stage, so no function drops out of the count
# unseen.  The compiler's report replays from the build cache.
bce_pkgs='internal/gcm/solver internal/gcm/kernel internal/gcm/field'
bce_funcs='Apply|initResidual|axpy|updateP|precondition|BuildRHS|CorrectVelocities|sweepForward|sweepBackward|ComputeGTracers|StepTracers|Hydrostatic|ComputeGMomentum|StepMomentum|Continuity|ConvectiveAdjust|Fill'
bce_out=$(go build -gcflags=-d=ssa/check_bce/debug=1 ./${bce_pkgs// / ./} 2>&1)
# Prints file:line for each line of an innermost loop of a named
# function, then "missing NAME" for each name no declaration carries.
cell_lines=$(awk -v want="$bce_funcs" '
    BEGIN { nf = split(want, names, "|"); for (f = 1; f <= nf; f++) need[names[f]] = 1 }
    /^func / {
        name = $0
        sub(/^func (\([^)]*\) )?/, "", name)
        sub(/[[(].*/, "", name)
        infn = name in need; depth = 0; top = 0
        if (infn) seen[name] = 1
    }
    infn {
        if ($0 ~ /^[ \t]*for[ \t{]/) {
            if (top) inner[id[top]] = 0 # it holds a loop: not innermost
            loops++; top++; id[top] = loops; base[top] = depth; inner[loops] = 1
        }
        if (top) { line[++nl] = FILENAME ":" FNR; owner[nl] = id[top] }
        depth += gsub(/{/, "{") - gsub(/}/, "}")
        while (top && depth <= base[top]) top--
    }
    /^}/ { infn = 0 }
    END {
        for (l = 1; l <= nl; l++) if (inner[owner[l]]) print line[l]
        for (f in need) if (!(f in seen)) print "missing " f
    }' $(for d in $bce_pkgs; do ls "$d"/*.go; done | grep -v '_test\.go$'))
if grep -q '^missing ' <<< "$cell_lines"; then
    echo "range-check ratchet: no function declaration in ${bce_pkgs// /, } carries these names; update bce_funcs in ci.sh:" >&2
    sed -n 's/^missing //p' <<< "$cell_lines" >&2
    exit 1
fi
ranged=$(grep 'Found IsInBounds' <<< "$bce_out" |
    awk -F: 'NR == FNR { cell[$0] = 1; next } ($1 ":" $2) in cell' <(echo "$cell_lines") - || true)
ranged_now=$(grep -c . <<< "$ranged" || true)
ranged_max=$(sed -n 's/^Range checks in cell loops: \([0-9][0-9]*\)$/\1/p' DESIGN.md)
if [ -z "$ranged_max" ] || [ -z "$cell_lines" ]; then
    echo "range-check ratchet: DESIGN.md records no \"Range checks in cell loops: N\" line, or no cell loop was found" >&2
    exit 1
fi
echo "range checks in cell loops: $ranged_now (ceiling $ranged_max)"
if [ "$ranged_now" -gt "$ranged_max" ]; then
    echo "range-check ratchet: $ranged_now range checks in cell loops, ceiling $ranged_max:" >&2
    echo "$ranged" >&2
    exit 1
fi

echo "== rank-runner fixture (full worker matrix, no race detector)"
# testdata/golden_runner.json pins digest, event count and clock of the
# fault-free, checkpoint-only, crash-recovery and commodity-network
# schedules; -short skips it above because the race detector only makes
# a comparison of deterministic observables slow.
go test -run 'TestGoldenRunner' .

echo "== steady-state allocations (no race detector)"
# Exchange, GlobalSum and the coupled step allocate nothing per
# operation once warm; -short skips the check above because the race
# detector's own allocations would count against it.
go test -run 'TestSteadyStateAllocs' .
# A checkpoint streams through one small buffer: writing a full-size
# tile allocates under 64 KiB, and committed blobs carry no slack.
go test -run 'TestCheckpointStreams' ./internal/gcm

echo "== paper (cmd/paper: one row per published quantity)"
# The evaluation's one table, printed end to end: a panic or an error in
# any experiment, or a missing experiment heading, fails the stage.
# TestPaperConformance, skipped under -race -short above, holds every
# row to its tolerance.
paper_out=$("$bin_dir/paper")
for e in E1 E2 E3 E4 E5 E6 E7 E9 E10; do
    if ! grep -q "^$e  " <<< "$paper_out"; then
        echo "paper: no $e heading in the output of cmd/paper" >&2
        exit 1
    fi
done
go test -run '^TestPaperConformance$' ./cmd/paper

echo "== fuzz (every native fuzz target, 5 s each)"
# The seed corpora and every committed crasher under testdata/fuzz run
# in go test above; this stage looks for new ones.  A failure leaves its
# input under the package's testdata/fuzz, to be fixed and committed.
grep -r --include='*_test.go' -o '^func Fuzz[A-Za-z0-9_]*' . | sort |
while IFS=: read -r file fn; do
    go test -run '^$' -fuzz "^${fn#func }\$" -fuzztime 5s "$(dirname "$file")"
done

echo "== chaos (fault injection + reliable delivery)"
# The chaos determinism test under the race detector, then a driver
# smoke run with a 1% packet-drop rate: it must exit cleanly and
# report a nonzero retransmit count (the reliable channel is working,
# not just lucky).
go test -race -run 'TestChaosRunIsDeterministic|TestPeerUnreachableSurfaces|TestCrashWithoutCheckpointFailsLoudly' .
# Drops and node crashes in one plan must end in the fault-free digest.
# -short skips the case (a hundred seconds under the race detector), so
# it runs here without it.
go test -run 'TestDropsWithCrashesEndInFaultFreeDigest' .

echo "== determinism across worker counts (race)"
# The worker-pool determinism matrix under the race detector: digests,
# event counts and virtual clocks must be bit-identical for inline and
# pooled compute phases, with and without fault injection
# — including the node-crash recovery matrix (two crashes exercising
# both dead-peer detection paths, digest equal to the fault-free run).
go test -race -run 'TestDeterminismAcrossWorkerCounts|TestChaosDeterminismAcrossWorkerCounts|TestNodeCrashRecoveryDeterministic' .
chaos_out=$("$bin_dir/hyades" -model gyre -nodes 2 -ppn 1 -steps 2 -warmup 1 -drop-rate 1e-2)
echo "$chaos_out" | tail -n 5
retx=$(echo "$chaos_out" | awk '/^retransmits/ {print $(NF-2)}')
retx=${retx:-0}
if [ "$retx" -eq 0 ]; then
    echo "chaos smoke: drop-rate 1e-2 produced zero retransmits" >&2
    exit 1
fi

# A flag the chosen run never reads is an error, not a silent no-op.
if "$bin_dir/hyades" -model gyre -serial -steps 1 -warmup 1 > /dev/null 2>&1; then
    echo "chaos smoke: hyades -serial accepted -warmup, which a serial run ignores" >&2
    exit 1
fi
# So is a run length that runs nothing, or one given twice.
if "$bin_dir/hyades" -model gyre -serial -steps 0 > /dev/null 2>&1; then
    echo "chaos smoke: hyades accepted -steps 0" >&2
    exit 1
fi
# A fault plan that names what the machine lacks is refused, not run
# fault-free: an outage pattern matching no link, a drop or corrupt
# rate that is not a probability.
for hy_bad in "-link-outage bad" "-drop-rate 2" "-drop-rate -0.5" "-corrupt-rate NaN"; do
    if "$bin_dir/hyades" -model gyre -nodes 2 -ppn 1 -steps 2 -warmup 0 $hy_bad > /dev/null 2>&1; then
        echo "chaos smoke: hyades accepted $hy_bad" >&2
        exit 1
    fi
done
# A seed that nothing draws from (no drop or corrupt rate), a
# machine-size cap below one worker and the retired tile-split flag are
# usage errors (exit 2), not runs that silently ignore them or measure
# nothing.
for bad_cmd in "hyades -model gyre -nodes 2 -ppn 1 -steps 1 -fault-seed 5" "scaling -max 0 -steps 1" \
    "hyades -model gyre -nodes 4 -ppn 1 -steps 1 -px 2"; do
    status=0
    "$bin_dir/"$bad_cmd > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "chaos smoke: $bad_cmd exited $status, want the usage error 2" >&2
        exit 1
    fi
done
# A checkpoint cadence that is negative or not a number used to read as
# "never"; it is refused like a bad run length.
for fig_bad in "-nx 32 -ny 16 -days -1" "-nx 32 -ny 16 -days 0.02 -years 0.0001" \
    "-nx 32 -ny 16 -days 0.02 -checkpoint-every -1" "-nx 32 -ny 16 -days 0.02 -checkpoint-every NaN"; do
    if "$bin_dir/figure9" $fig_bad -out "$tmp_root/figure9_bad" > /dev/null 2>&1; then
        echo "chaos smoke: figure9 accepted $fig_bad" >&2
        exit 1
    fi
done

echo "== node-failure smoke (crash, recover, bit-identical digest)"
# Lose a whole node mid-run with checkpointing on: the driver must
# survive a nonzero number of restarts and end with the same state
# digest as the fault-free run.  This is the survival contract on the
# CLI surface; the in-depth matrix ran under -race above.
crash_args=(-model gyre -nodes 4 -ppn 1 -steps 6 -warmup 0 -digest)
crash_out=$("$bin_dir/hyades" "${crash_args[@]}" \
    -node-outage '1:500000-501000' -checkpoint-every 2)
echo "$crash_out" | tail -n 6
restarts=$(echo "$crash_out" | awk '/^node restarts survived/ {print $NF}')
restarts=${restarts:-0}
if [ "$restarts" -eq 0 ]; then
    echo "node-failure smoke: staged crash produced zero restarts" >&2
    exit 1
fi
crash_digest=$(echo "$crash_out" | awk '/^state digest/ {print $NF}')
clean_digest=$("$bin_dir/hyades" "${crash_args[@]}" | awk '/^state digest/ {print $NF}')
if [ -z "$crash_digest" ] || [ "$crash_digest" != "$clean_digest" ]; then
    echo "node-failure smoke: recovered digest $crash_digest != fault-free digest $clean_digest" >&2
    exit 1
fi

echo "== serial checkpoint round trip (-checkpoint, -restore)"
# Two steps, a checkpoint file, a restore and one more step must end in
# the digest of three straight steps; the same file with one byte
# appended must be refused.
ck_file="$tmp_root/serial.ck"
"$bin_dir/hyades" -serial -model gyre -steps 2 -checkpoint "$ck_file" > /dev/null
restored_digest=$("$bin_dir/hyades" -serial -model gyre -steps 1 -restore "$ck_file" -digest | awk '/^state digest/ {print $NF}')
straight_digest=$("$bin_dir/hyades" -serial -model gyre -steps 3 -digest | awk '/^state digest/ {print $NF}')
if [ -z "$straight_digest" ] || [ "$restored_digest" != "$straight_digest" ]; then
    echo "serial checkpoint smoke: restored digest $restored_digest != straight-run digest $straight_digest" >&2
    exit 1
fi
printf 'x' >> "$ck_file"
if "$bin_dir/hyades" -serial -model gyre -steps 1 -restore "$ck_file" -digest > /dev/null 2>&1; then
    echo "serial checkpoint smoke: -restore accepted a file with a byte after the last section" >&2
    exit 1
fi

echo "== profile flags (one shared helper behind -cpuprofile / -memprofile)"
# The drivers answer "where did the host time go" themselves; a flag that
# silently writes nothing would send the next optimization back to a
# scratch harness.
"$bin_dir/hyades" -model gyre -nodes 4 -ppn 1 -steps 2 -warmup 0 \
    -cpuprofile "$tmp_root/cpu.pprof" -memprofile "$tmp_root/mem.pprof" > /dev/null
for f in cpu.pprof mem.pprof; do
    if [ ! -s "$tmp_root/$f" ]; then
        echo "profile smoke: hyades wrote no $f" >&2
        exit 1
    fi
done

echo "== figure9 long-run smoke (checkpoint plates + digest-stable resume)"
# The -years mode on a reduced grid: a run with periodic plates, then a
# -resume from the newest complete plate set re-integrating the tail.
# The two must report the same state digest — the restart path is
# bit-exact or the 1000-year science run cannot be trusted across job
# boundaries.
fig_dir="$tmp_root/figure9"
mkdir "$fig_dir"
fig_args=(-years 0.05 -checkpoint-every 0.02 -nx 32 -ny 16 -out "$fig_dir")
full_digest=$("$bin_dir/figure9" "${fig_args[@]}" | awk '/^state digest/ {print $NF}')
plates=$(ls "$fig_dir"/plates/plate_step*_rank*.ck 2>/dev/null | wc -l)
if [ "$plates" -eq 0 ]; then
    echo "figure9 smoke: no checkpoint plates written" >&2
    exit 1
fi
# A run killed while writing a newer set: fifteen of its plates made it
# to their final names, rank 0's is still a .tmp.  -resume must pass
# the torn set over for the newest complete one, not count sixteen
# files and die on the missing plate.
last_step=$(ls "$fig_dir"/plates | sed -n 's/^plate_step\([0-9]*\)_rank000\.ck$/\1/p' | sort | tail -n 1)
torn_step=$(printf '%08d' $((10#$last_step + 1)))
for f in "$fig_dir"/plates/plate_step"${last_step}"_rank*.ck; do
    cp "$f" "${f/step${last_step}/step${torn_step}}"
done
mv "$fig_dir/plates/plate_step${torn_step}_rank000.ck" "$fig_dir/plates/plate_step${torn_step}_rank000.ck.tmp"
resumed_digest=$("$bin_dir/figure9" "${fig_args[@]}" -resume | awk '/^state digest/ {print $NF}')
if [ -z "$full_digest" ] || [ "$full_digest" != "$resumed_digest" ]; then
    echo "figure9 smoke: resumed digest $resumed_digest != full-run digest $full_digest" >&2
    exit 1
fi
echo "figure9 smoke: $plates plates, resume past a torn set, digest matches"

echo "== bench (hot-path benchmarks, artifact)"
# Short-benchtime run of the hot-path microbenchmarks, converted to a
# JSON artifact.  benchtime is kept tiny so the gate stays fast; the
# artifact records allocs/op and the simulated-time metrics plus the
# core count of the machine that produced them, giving future changes
# a perf trajectory to compare against.
# The lint stage's wall-clock measurement rides along as a synthetic
# benchmark line, so the lint suite's cost has a committed trajectory
# too.
# The artifact lands in a scratch file unless HYADES_BENCH_JSON names
# one: a committed BENCH_pr*.json is a PR's evidence and a gate run
# must not overwrite it.
bench_out="${HYADES_BENCH_JSON:-$tmp_root/bench.json}"
{
    # The hot-path microbenchmarks run long enough to amortize one-time
    # setup (cluster construction, freelist warm-up): at 1x their
    # allocs/op is all setup and the zero-alloc event path is invisible.
    go test -run '^$' -bench '^(BenchmarkExchange|BenchmarkExchangeIntraNode|BenchmarkGlobalSum|BenchmarkGlobalSumMixMode)$' \
        -benchmem -benchtime 100x .
    # Event-queue throughput at three backlog depths.
    # Iterations are bounded so the 1e7-pending prefill dominates once,
    # not per-measurement, but high enough (200k ops is ~tens of ms)
    # that rung-refill spikes amortize instead of landing whole in a
    # tiny measurement window.
    go test -run '^$' -bench '^BenchmarkSchedule$' \
        -benchmem -benchtime 200000x .
    # The process switch itself: into a parked peer through a mailbox,
    # and out of a process and back into the same one through a Delay
    # that has to block; and a chain of blocking delays through Delay
    # against the same chain as one step function (Proc.Await).
    go test -run '^$' -bench '^(BenchmarkProcHandoff|BenchmarkProcSelfWake|BenchmarkStepChain)$' \
        -benchmem -benchtime 200000x ./internal/des
    # The coupled step runs at a fixed 10x for the same reason as the
    # 100x hot path: at 1x its allocs/op is all cluster construction
    # and the zero-steady-state-alloc kernels are invisible.
    go test -run '^$' -bench '^BenchmarkCoupledStep$' \
        -benchmem -benchtime 10x .
    go test -run '^$' -bench '^(BenchmarkCheckpointWrite|BenchmarkCheckpointRestore|BenchmarkRecoveryOverhead)$' \
        -benchmem -benchtime 1x .
    # The DS solver's kernels (ns/cell) at the gated workloads' tile
    # sizes: the SSOR sweep, the operator with its fused p.q, the dot.
    go test -run '^$' -bench '^(BenchmarkPrecondition|BenchmarkApply|BenchmarkDot2)$' \
        -benchmem -benchtime 2000x ./internal/gcm/solver ./internal/gcm/reduce
    # The PS sweeps (ns/cell, ns/col) on the serial ocean and on a
    # 16-rank atmosphere tile, each spun up by its own model.
    go test -run '^$' -bench '^Benchmark(ComputeGTracers|ComputeGMomentum|Hydrostatic|Continuity|ConvectiveAdjust|StepTracers|StepMomentum)$' \
        -benchmem -benchtime 200x ./internal/gcm/kernel
    printf 'BenchmarkHyadeslintFullTree 1 %d lint_wall_ms\n' "$lint_ms"
} | go run ./cmd/benchjson "gate run: 100x hot path, 200000x scheduler, 10x coupled step, 1x heavies, 2000x solver kernels, 200x PS kernels" > "$bench_out"
echo "wrote $bench_out"

echo "== bench compare (soft gate vs newest committed artifact)"
# Diff the fresh artifact against the newest committed BENCH_pr*.json.  Allocation regressions over 10% print loudly but
# do not fail the build: cross-PR artifacts were produced at different
# benchtimes, so the hard gate is TestSteadyStateAllocs above — this
# stage is the early-warning trajectory.  ns/op growth past 25% on a
# shared benchmark is flagged SLOW in the same table (soft, never
# failing: wall clock is host noise on shared machines).
prev=$( (git ls-files 'BENCH_pr*.json' 2>/dev/null || ls BENCH_pr*.json) | grep -vx "$bench_out" | sort -V | tail -n 1 || true)
if [ -n "$prev" ]; then
    go run ./cmd/benchjson -compare "$prev" "$bench_out" ||
        echo "bench compare: allocs/op regression vs $prev (soft gate — investigate before merging)" >&2
else
    echo "no previous BENCH_pr*.json to compare against"
fi

echo "== no process left running"
no_process_left
echo "CI OK"
