#!/usr/bin/env bash
# ci.sh — the repository's verification gate.
#
# Runs formatting, the standard vet suite, the project's own
# determinism analyzers (hyadeslint), a full build, and the tests under
# the race detector.  Everything is offline and stdlib-only.
set -euo pipefail
cd "$(dirname "$0")"

# Everything the gate writes — the lint binary, the smoke drivers, the
# figure9 plates, the SARIF and bench artifacts unless the environment
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
# waited for; nothing is backgrounded, and the command ends by checking
# both trees for leftovers, so a measurement loop cannot outlive the
# session that started it.  HYADES_PAIRS_LOG names a file that keeps the
# pairs: a later call continues the alternation where the file ends
# and summarises all of it (ten pairs take longer than some callers
# may wait for one command).
if [ "${1:-}" = "pairs" ]; then
    if [ $# -lt 4 ]; then
        echo "usage: ci.sh pairs PARENT_DIR WORKLOAD N [SEED]" >&2
        exit 2
    fi
    parent=$(cd "$2" && pwd) workload=$3 pairs=$4 seed=${5:-1}
    run_one() { # DIR -> "wall_us_per_op peak_rss_mb setup_s failed"
        (cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 30 --trace 0) |
            tail -n 1 |
            sed -n 's/.*"failed":\([0-9]*\).*"peak_rss_mb":{"value":\([0-9.e+-]*\).*"setup_s":{"value":\([0-9.e+-]*\).*"wall_us_per_op":{"value":\([0-9.e+-]*\).*/\4 \2 \3 \1/p'
    }
    log=${HYADES_PAIRS_LOG:-$tmp_root/pairs}
    touch "$log"
    kept=$(wc -l < "$log")
    echo "== $pairs pairs of $workload, seed $seed, after $kept kept: parent $parent, change $PWD"
    for i in $(seq $((kept + 1)) $((kept + pairs))); do
        if [ $((i % 2)) -eq 1 ]; then
            p=$(run_one "$parent")
            c=$(run_one "$PWD")
        else
            c=$(run_one "$PWD")
            p=$(run_one "$parent")
        fi
        if [ -z "$p" ] || [ -z "$c" ]; then
            echo "ci.sh pairs: pair $i printed no metrics (parent '$p', change '$c')" >&2
            exit 1
        fi
        echo "pair $i  parent: $p  change: $c  (wall_us_per_op peak_rss_mb setup_s failed)"
        echo "$p $c" >> "$log"
    done
    # Quartiles by linear interpolation between order statistics; a win
    # is a pair in which the change's wall_us_per_op is the lower.
    for col in "1 wall_us_per_op" "2 peak_rss_mb" "3 setup_s"; do
        set -- $col
        for side in 0 4; do
            awk -v c=$(($1 + side)) '{print $c}' "$log" | sort -g > "$tmp_root/col$side"
        done
        awk -v name="$2" -v pf="$tmp_root/col0" -v cf="$tmp_root/col4" '
            function q(a, n, f,   x, i) { x = (n - 1) * f; i = int(x); return a[i + 1] + (x - i) * (a[(i + 2 > n) ? n : i + 2] - a[i + 1]) }
            BEGIN {
                while ((getline v < pf) > 0) p[++np] = v
                while ((getline v < cf) > 0) ch[++nc] = v
                printf "%s: parent q1/median/q3 %g/%g/%g (IQR %g)  change %g/%g/%g  ratio of medians %.4f\n", name,
                    q(p, np, .25), q(p, np, .5), q(p, np, .75), q(p, np, .75) - q(p, np, .25),
                    q(ch, nc, .25), q(ch, nc, .5), q(ch, nc, .75), q(ch, nc, .5) / q(p, np, .5)
            }'
    done
    awk '{ if ($5 < $1) w++; else if ($5 > $1) l++; fp += $4; fc += $8 }
        END { printf "wall_us_per_op: change wins %d, loses %d of %d pairs; failed operations parent %d, change %d\n", w, l, NR, fp, fc }' "$log"
    no_process_left "$parent"
    no_process_left
    echo "no process left running in either tree"
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

echo "== hyadeslint (determinism + communication contract)"
# The canonical findings gate, baseline-aware: findings recorded in
# lint/baseline.json (committed, currently empty) are suppressed, so
# only new findings fail.  The run is also on a wall-clock budget —
# the analyzer suite carries a whole-module points-to solve, and a
# pathological blowup should fail CI loudly, not slow every later
# stage quietly.  The binary is prebuilt so the budget measures
# analysis, not compilation; the measured time is archived in the
# bench artifact below.
hyadeslint="$tmp_root/hyadeslint"
go build -o "$hyadeslint" ./cmd/hyadeslint
lint_budget_s="${HYADESLINT_BUDGET_S:-30}"
lint_start=$(date +%s%N)
"$hyadeslint" -baseline lint/baseline.json ./...
lint_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "hyadeslint full tree: ${lint_ms} ms (budget ${lint_budget_s} s)"
if [ "$lint_ms" -gt $(( lint_budget_s * 1000 )) ]; then
    echo "hyadeslint wall-clock budget exceeded: ${lint_ms} ms > ${lint_budget_s} s" >&2
    exit 1
fi

echo "== hyadeslint -fix fixed point"
# A clean tree must be a fixed point of the autofixer (no "would
# rewrite" lines on stderr).  Exit status 1 (findings) is judged by
# the baseline-aware gate above, not here; 2+ is a load error.
fixstatus=0
fixlog=$("$hyadeslint" -fix -n ./... 2>&1 >/dev/null) || fixstatus=$?
if [ "$fixstatus" -ge 2 ]; then
    echo "$fixlog" >&2
    exit 1
fi
if [ -n "$fixlog" ]; then
    echo "hyadeslint -fix would modify a clean tree:" >&2
    echo "$fixlog" >&2
    exit 1
fi

echo "== hotalloc budget ratchet"
# The committed lint/allocbudget.json is a ceiling on statically
# visible event-path allocation sites.  An over-budget package fails
# here with one line per unwaived site, each carrying its
# measured-vs-budget accounting.  After a deliberate optimization,
# regenerate with `go run ./cmd/hyadeslint -writebudget ./...` and
# commit the lowered file to lock it in.
if ! ratchet=$("$hyadeslint" -analyzers hotalloc ./...); then
    echo "$ratchet" >&2
    echo "allocation ratchet violated: measured sites exceed lint/allocbudget.json" >&2
    exit 1
fi

echo "== hyadeslint -sarif (artifact)"
sarif_out="${HYADESLINT_SARIF:-$tmp_root/hyadeslint.sarif}"
"$hyadeslint" -sarif ./... > "$sarif_out"
echo "wrote $sarif_out"

echo "== line budget (DESIGN.md, \"Line budget\")"
# Every row of the budget table is a directory (recursive when it ends
# in /...) and a ceiling on its non-test Go lines.  Growing past a
# ceiling is a decision: raise the row in the same change and say why.
awk -F'|' '/line-budget:begin/ {on=1; next} /line-budget:end/ {on=0} on && $2 ~ /`/ {gsub(/[` ]/, "", $2); gsub(/ /, "", $4); print $2, $4}' DESIGN.md |
while read -r dir budget; do
    depth=(-maxdepth 1)
    case "$dir" in */...) dir=${dir%/...}; depth=() ;; esac
    lines=$(find "$dir" "${depth[@]}" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l)
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
go build -o "$bin_dir/" ./cmd/hyades ./cmd/figure9

echo "== go test -race -short"
go test -race -short ./...

echo "== rank-runner fixture (full worker matrix, no race detector)"
# testdata/golden_runner.json pins digest, event count and clock of the
# fault-free, checkpoint-only, crash-recovery and commodity-network
# schedules; -short skips it above because the race detector only makes
# a comparison of deterministic observables slow.
go test -run 'TestGoldenRunner' .

echo "== chaos (fault injection + reliable delivery)"
# The chaos determinism test under the race detector, then a driver
# smoke run with a 1% packet-drop rate: it must exit cleanly and
# report a nonzero retransmit count (the reliable channel is working,
# not just lucky).
go test -race -run 'TestChaosRunIsDeterministic|TestPeerUnreachableSurfaces|TestCrashWithoutCheckpointFailsLoudly' .

echo "== determinism across worker counts (race)"
# The worker-pool determinism matrix under the race detector: digests,
# event counts and virtual clocks must be bit-identical for inline,
# single-worker and GOMAXPROCS pools, with and without fault injection
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

echo "== node-failure smoke (crash, recover, bit-identical digest)"
# Lose a whole node mid-run with checkpointing on: the driver must
# survive a nonzero number of restarts and end with the same state
# digest as the fault-free run.  This is the survival contract on the
# CLI surface; the in-depth matrix ran under -race above.
crash_args=(-model gyre -nodes 4 -ppn 1 -steps 6 -warmup 0 -px 2 -py 2 -digest)
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
# The hyadeslint wall-clock measurement rides along as a synthetic
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
    go test -run '^$' -bench '^(BenchmarkExchange|BenchmarkGlobalSum)$' \
        -benchmem -benchtime 100x .
    # Scheduler throughput: ladder vs heap at three backlog depths.
    # Iterations are bounded so the 1e7-pending prefill dominates once,
    # not per-measurement, but high enough (200k ops is ~tens of ms)
    # that rung-refill spikes amortize instead of landing whole in a
    # tiny measurement window.
    go test -run '^$' -bench '^BenchmarkSchedule$' \
        -benchmem -benchtime 200000x .
    # The process switch itself: into a parked peer through a mailbox,
    # and out of a process and back into the same one through a Delay
    # that has to block.
    go test -run '^$' -bench '^(BenchmarkProcHandoff|BenchmarkProcSelfWake)$' \
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
    go test -run '^$' -bench '^Benchmark(ComputeGTracers|ComputeGMomentum|Hydrostatic|Continuity|ConvectiveAdjust)$' \
        -benchmem -benchtime 200x ./internal/gcm/kernel
    printf 'BenchmarkHyadeslintFullTree 1 %d lint_wall_ms\n' "$lint_ms"
} | go run ./cmd/benchjson "gate run: 100x hot path, 200000x scheduler, 10x coupled step, 1x heavies, 2000x solver kernels, 200x PS kernels" > "$bench_out"
echo "wrote $bench_out"

echo "== bench compare (soft gate vs newest committed artifact)"
# Diff the fresh artifact against the newest committed BENCH_pr*.json.  Allocation regressions over 10% print loudly but
# do not fail the build: cross-PR artifacts were produced at different
# benchtimes, so the hard gate is the hotalloc ratchet above — this
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
