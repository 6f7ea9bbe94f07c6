#!/usr/bin/env bash
# Full local gate: formatting, release build, the whole workspace test
# suite, clippy with warnings denied (the crates opt into
# #![warn(missing_docs)], so undocumented public items fail here too), and
# a smoke test of the profiler CLI. Everything runs --offline; the repo
# has no crates.io dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release --offline --workspace
test_out="$(cargo test -q --offline --workspace 2>&1)" || {
    echo "$test_out"
    exit 1
}
echo "$test_out"
# Skipped tests fail loudly: the workspace carries exactly two deliberate
# #[ignore]s (the paper-scale visit_count_365_days stress test and the
# baselines shape probe). Anything beyond that is a silently-disabled
# test hiding in the suite.
ignored_total="$(echo "$test_out" |
    sed -n 's/.*test result: ok\. [0-9]* passed; [0-9]* failed; \([0-9]*\) ignored.*/\1/p' |
    awk '{ s += $1 } END { print s + 0 }')"
if [ "$ignored_total" -ne 2 ]; then
    echo "check.sh: expected exactly 2 deliberately ignored tests" \
        "(visit_count_365_days, probe_visit_count), found $ignored_total —" \
        "run 'cargo test --workspace -- --list --ignored' and account for the rest" >&2
    exit 1
fi
# The wall-clock benchmark (perfbench/, a package of its own outside the
# workspace) builds against the library's public API; its self-tests catch
# an API change that would break the benchmark while every workspace gate
# above still passes.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
# The language frontend once crashed only when optimized (a rustc 1.95.0
# MIR GVN miscompile in the statement builder; see crates/lang/src/builder.rs),
# so its unit tests also run in release.
cargo test -q --release --offline -p mitos-lang --lib
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace

# The profiler must run end-to-end on the nested-loops example and print
# its per-iteration table and critical path.
profile_out="$(./target/release/mitos profile examples/nested_loops.mt --machines 3)"
echo "$profile_out" | grep -q "critical path" || {
    echo "check.sh: mitos profile smoke test failed" >&2
    exit 1
}
echo "$profile_out" | grep -q "warmup:" || {
    echo "check.sh: mitos profile missing warmup/steady split" >&2
    exit 1
}

# Live telemetry: --progress must stream status lines on a .mt example
# (1 virtual-ms sampling: the example's makespan is a few virtual ms)
# and print its completion summary.
progress_out="$(./target/release/mitos run examples/nested_loops.mt \
    --machines 3 --progress --interval 1 2>&1)"
echo "$progress_out" | grep -q "^\[progress " || {
    echo "check.sh: mitos run --progress smoke test failed" >&2
    exit 1
}
echo "$progress_out" | grep -q "\[progress\] done:" || {
    echo "check.sh: mitos run --progress missing completion summary" >&2
    exit 1
}

# Overhead guard: the always-on telemetry hub must not switch event
# recording on at ObsLevel::Off, and simulator sampling must charge zero
# virtual time (bit-identical SimReport with and without snapshots).
cargo test -q --offline -p mitos-core --test live \
    hub_counts_at_obs_off_without_recording_events || {
    echo "check.sh: ObsLevel::Off overhead guard failed" >&2
    exit 1
}

# Operator chain fusion: fused and unfused plans must produce identical
# outputs on the same program and inputs (CLI-level equivalence smoke);
# the planner-level guarantees live in the fusion unit/property tests.
fusion_log="$(mktemp)"
seq 0 199 > "$fusion_log"
fused_out="$(./target/release/mitos run examples/log_pipeline.mt \
    --machines 3 --input log="$fusion_log")"
unfused_out="$(./target/release/mitos run examples/log_pipeline.mt \
    --machines 3 --input log="$fusion_log" --no-fuse)"
rm -f "$fusion_log"
[ "$fused_out" = "$unfused_out" ] || {
    echo "check.sh: fusion on/off outputs differ on log_pipeline.mt" >&2
    exit 1
}
fusion_log="$(mktemp)"
seq 0 199 > "$fusion_log"
# Captured to a variable rather than piped straight into grep -q: the
# quiet grep exits on first match and the closed pipe would SIGPIPE the
# binary mid-report under pipefail.
fusion_explain="$(./target/release/mitos explain examples/log_pipeline.mt \
    --machines 3 --input log="$fusion_log")"
echo "$fusion_explain" | grep -q "map+filter" || {
    echo "check.sh: explain does not show a fused chain on log_pipeline.mt" >&2
    exit 1
}
rm -f "$fusion_log"

# The fusion ablation (message-count and simulated-time reduction on the
# fig5/fig6/fig7 workloads) must run end to end. (Captured to a variable:
# grep -q would close the pipe early and pipefail would flag the SIGPIPE.)
ablations_out="$(cargo bench -q --offline -p mitos-bench --bench ablations 2>/dev/null)"
echo "$ablations_out" | grep -q "Ablation: operator chain fusion" || {
    echo "check.sh: fusion ablation section missing from bench output" >&2
    exit 1
}

# Chaos smoke gate: a fixed-seed fault plan with moderate drop, duplication
# and reordering must be fully absorbed by the at-least-once recovery
# protocol — stdout bit-identical to the fault-free run.
chaos_clean="$(./target/release/mitos run examples/nested_loops.mt --machines 3)"
chaos_faulted="$(./target/release/mitos run examples/nested_loops.mt --machines 3 \
    --fault-drop 0.2 --fault-dup 0.1 --fault-reorder 0.2 --fault-seed 7)"
[ "$chaos_clean" = "$chaos_faulted" ] || {
    echo "check.sh: chaos smoke gate failed — faulted output differs on nested_loops.mt" >&2
    exit 1
}

# Fault matrix: the Sec. 5.2.3 / 5.2.4 coordination invariants under
# duplicated and reordered decision broadcasts, on both drivers.
cargo test -q --offline -p mitos-core --test coordination fault_ || {
    echo "check.sh: fault-matrix coordination tests failed" >&2
    exit 1
}

# Causal tracing: trace-tree must reconstruct complete span trees (no
# orphans) on both drivers, and reject non-Mitos engines with exit 2.
for eng in mitos threads; do
    tree_out="$(./target/release/mitos trace-tree examples/nested_loops.mt \
        --machines 3 --engine "$eng")"
    echo "$tree_out" | grep -q "0 orphan" || {
        echo "check.sh: trace-tree smoke failed on engine $eng" >&2
        exit 1
    }
done
if ./target/release/mitos trace-tree examples/nested_loops.mt \
    --machines 3 --engine spark >/dev/null 2>&1; then
    echo "check.sh: trace-tree must refuse non-Mitos engines" >&2
    exit 1
elif [ $? -ne 2 ]; then
    echo "check.sh: trace-tree on spark must exit 2" >&2
    exit 1
fi

# Flight-recorder overhead guard on a fig7-style step-overhead loop at
# ObsLevel::Off (no --trace/--profile flags). The recorder is always on;
# MITOS_FLIGHT_OFF=1 disables it for the A/B.
flight_mt="$(mktemp --suffix=.mt)"
printf 's = 0;\nfor i = 1 to 60 {\n  b = bag((1, i));\n  s = s + b.count();\n}\noutput(s, "s");\n' > "$flight_mt"
# Simulator: recording must charge zero virtual time — stdout and the
# virtual-ms figure bit-identical with the recorder on and off.
flight_on_out="$(./target/release/mitos run "$flight_mt" --machines 3 2>/tmp/flight_on.err)"
flight_off_out="$(MITOS_FLIGHT_OFF=1 ./target/release/mitos run "$flight_mt" --machines 3 2>/tmp/flight_off.err)"
[ "$flight_on_out" = "$flight_off_out" ] || {
    echo "check.sh: flight recorder changed sim output" >&2
    exit 1
}
vms_on="$(sed -n 's/.* machines, \([0-9.]*\) virtual ms.*/\1/p' /tmp/flight_on.err)"
vms_off="$(sed -n 's/.* machines, \([0-9.]*\) virtual ms.*/\1/p' /tmp/flight_off.err)"
[ -n "$vms_on" ] && [ "$vms_on" = "$vms_off" ] || {
    echo "check.sh: flight recorder charged virtual time ($vms_on vs $vms_off)" >&2
    exit 1
}
# Thread driver: median measured time over 5 runs must stay within 2%
# (plus 2ms absolute slack for scheduler noise) of the disabled recorder.
measured_median() {
    for _ in 1 2 3 4 5; do
        env "$@" ./target/release/mitos run "$flight_mt" \
            --machines 3 --engine threads 2>&1 >/dev/null |
            sed -n 's/.* machines, \([0-9.]*\) measured ms.*/\1/p'
    done | sort -n | sed -n 3p
}
on_ms="$(measured_median MITOS_CHECK=1)"
off_ms="$(measured_median MITOS_FLIGHT_OFF=1)"
awk -v on="$on_ms" -v off="$off_ms" 'BEGIN {
    if (on == "" || off == "") exit 1
    exit (on <= off * 1.02 + 2.0) ? 0 : 1
}' || {
    echo "check.sh: flight recorder wall overhead on threads: ${on_ms}ms vs ${off_ms}ms (limit 2% + 2ms)" >&2
    exit 1
}
rm -f "$flight_mt" /tmp/flight_on.err /tmp/flight_off.err

# Data-plane flow telemetry: the per-edge report must run end-to-end on
# both drivers, refuse non-Mitos engines with exit 2, and the JSON
# explain report must carry a reconciling flow block.
for eng in mitos threads; do
    flow_out="$(./target/release/mitos flow examples/nested_loops.mt \
        --machines 3 --engine "$eng")"
    echo "$flow_out" | grep -q "top edges by bytes" || {
        echo "check.sh: mitos flow smoke failed on engine $eng" >&2
        exit 1
    }
    echo "$flow_out" | grep -q "per-machine" || {
        echo "check.sh: mitos flow missing per-machine skew on engine $eng" >&2
        exit 1
    }
done
if ./target/release/mitos flow examples/nested_loops.mt \
    --machines 3 --engine spark >/dev/null 2>&1; then
    echo "check.sh: mitos flow must refuse non-Mitos engines" >&2
    exit 1
elif [ $? -ne 2 ]; then
    echo "check.sh: mitos flow on spark must exit 2" >&2
    exit 1
fi
explain_json="$(./target/release/mitos explain examples/nested_loops.mt \
    --machines 3 --json)"
echo "$explain_json" | grep -q '"flow":{"enabled":true' || {
    echo "check.sh: explain --json missing the flow block" >&2
    exit 1
}
data_msgs="$(echo "$explain_json" | sed -n 's/.*"data_messages":\([0-9]*\).*/\1/p')"
flow_msgs="$(echo "$explain_json" | sed -n 's/.*"flow":{"enabled":true,"messages":\([0-9]*\).*/\1/p')"
[ -n "$data_msgs" ] && [ "$data_msgs" = "$flow_msgs" ] || {
    echo "check.sh: flow messages ($flow_msgs) != data_messages ($data_msgs)" >&2
    exit 1
}

# Flow-accounting overhead guard, mirroring the flight-recorder A/B:
# always-on per-edge counters must charge zero virtual time on the
# simulator (bit-identical stdout + virtual-ms with MITOS_FLOW_OFF=1)
# and stay within the same wall-clock envelope on threads.
flow_mt="$(mktemp --suffix=.mt)"
printf 's = 0;\nfor i = 1 to 60 {\n  b = bag((1, i));\n  s = s + b.count();\n}\noutput(s, "s");\n' > "$flow_mt"
flow_on_out="$(./target/release/mitos run "$flow_mt" --machines 3 2>/tmp/flow_on.err)"
flow_off_out="$(MITOS_FLOW_OFF=1 ./target/release/mitos run "$flow_mt" --machines 3 2>/tmp/flow_off.err)"
[ "$flow_on_out" = "$flow_off_out" ] || {
    echo "check.sh: flow accounting changed sim output" >&2
    exit 1
}
vms_on="$(sed -n 's/.* machines, \([0-9.]*\) virtual ms.*/\1/p' /tmp/flow_on.err)"
vms_off="$(sed -n 's/.* machines, \([0-9.]*\) virtual ms.*/\1/p' /tmp/flow_off.err)"
[ -n "$vms_on" ] && [ "$vms_on" = "$vms_off" ] || {
    echo "check.sh: flow accounting charged virtual time ($vms_on vs $vms_off)" >&2
    exit 1
}
flow_median() {
    for _ in 1 2 3 4 5; do
        env "$@" ./target/release/mitos run "$flow_mt" \
            --machines 3 --engine threads 2>&1 >/dev/null |
            sed -n 's/.* machines, \([0-9.]*\) measured ms.*/\1/p'
    done | sort -n | sed -n 3p
}
on_ms="$(flow_median MITOS_CHECK=1)"
off_ms="$(flow_median MITOS_FLOW_OFF=1)"
awk -v on="$on_ms" -v off="$off_ms" 'BEGIN {
    if (on == "" || off == "") exit 1
    exit (on <= off * 1.02 + 2.0) ? 0 : 1
}' || {
    echo "check.sh: flow accounting wall overhead on threads: ${on_ms}ms vs ${off_ms}ms (limit 2% + 2ms)" >&2
    exit 1
}
rm -f "$flow_mt" /tmp/flow_on.err /tmp/flow_off.err

# State/memory telemetry: the residency report must run end-to-end on
# both drivers, report leak-freedom after a fault-free run (the leak
# detector: nothing retained outside deliberate caches once the exit
# sweep has run), and refuse non-Mitos engines with exit 2.
for eng in mitos threads; do
    mem_out="$(./target/release/mitos mem examples/nested_loops.mt \
        --machines 3 --engine "$eng")"
    echo "$mem_out" | grep -q "state residency by class" || {
        echo "check.sh: mitos mem smoke failed on engine $eng" >&2
        exit 1
    }
    echo "$mem_out" | grep -q "leak-free" || {
        echo "check.sh: mitos mem leak gate failed on engine $eng" >&2
        exit 1
    }
done
if ./target/release/mitos mem examples/nested_loops.mt \
    --machines 3 --engine spark >/dev/null 2>&1; then
    echo "check.sh: mitos mem must refuse non-Mitos engines" >&2
    exit 1
elif [ $? -ne 2 ]; then
    echo "check.sh: mitos mem on spark must exit 2" >&2
    exit 1
fi
echo "$explain_json" | grep -q '"mem":{"enabled":true' || {
    echo "check.sh: explain --json missing the mem block" >&2
    exit 1
}
mem_json="$(./target/release/mitos mem examples/nested_loops.mt --machines 3 --json)"
echo "$mem_json" | grep -q '"leak_free":true' || {
    echo "check.sh: fault-free run not leak-free: $mem_json" >&2
    exit 1
}

# Chaos drain gate: under a seeded fault plan the relay's retransmit
# buffer must fully ack and the dedup tables must compact to their
# watermarks by quiescence — every transient class at zero residency.
chaos_mem="$(./target/release/mitos mem examples/nested_loops.mt --machines 3 \
    --fault-drop 0.2 --fault-dup 0.1 --fault-reorder 0.2 --fault-seed 7 --json)"
echo "$chaos_mem" | grep -q '"leak_free":true' || {
    echo "check.sh: chaos drain gate failed — state retained at quiescence: $chaos_mem" >&2
    exit 1
}
for class in relay-buf dedup-table awaiting-inputs awaiting-barrier; do
    echo "$chaos_mem" | grep -q "\"class\":\"$class\",\"live\":0,\"elems\":0,\"bytes\":0" || {
        echo "check.sh: chaos drain gate — $class did not drain to zero: $chaos_mem" >&2
        exit 1
    }
done

# Memory-accounting overhead guard, mirroring the flow A/B: always-on
# residency counters must charge zero virtual time on the simulator
# (bit-identical stdout + virtual-ms with MITOS_MEM_OFF=1) and stay
# within the same wall-clock envelope on threads.
mem_mt="$(mktemp --suffix=.mt)"
printf 's = 0;\nfor i = 1 to 60 {\n  b = bag((1, i));\n  s = s + b.count();\n}\noutput(s, "s");\n' > "$mem_mt"
mem_on_out="$(./target/release/mitos run "$mem_mt" --machines 3 2>/tmp/mem_on.err)"
mem_off_out="$(MITOS_MEM_OFF=1 ./target/release/mitos run "$mem_mt" --machines 3 2>/tmp/mem_off.err)"
[ "$mem_on_out" = "$mem_off_out" ] || {
    echo "check.sh: memory accounting changed sim output" >&2
    exit 1
}
vms_on="$(sed -n 's/.* machines, \([0-9.]*\) virtual ms.*/\1/p' /tmp/mem_on.err)"
vms_off="$(sed -n 's/.* machines, \([0-9.]*\) virtual ms.*/\1/p' /tmp/mem_off.err)"
[ -n "$vms_on" ] && [ "$vms_on" = "$vms_off" ] || {
    echo "check.sh: memory accounting charged virtual time ($vms_on vs $vms_off)" >&2
    exit 1
}
mem_median() {
    for _ in 1 2 3 4 5; do
        env "$@" ./target/release/mitos run "$mem_mt" \
            --machines 3 --engine threads 2>&1 >/dev/null |
            sed -n 's/.* machines, \([0-9.]*\) measured ms.*/\1/p'
    done | sort -n | sed -n 3p
}
on_ms="$(mem_median MITOS_CHECK=1)"
off_ms="$(mem_median MITOS_MEM_OFF=1)"
awk -v on="$on_ms" -v off="$off_ms" 'BEGIN {
    if (on == "" || off == "") exit 1
    exit (on <= off * 1.02 + 2.0) ? 0 : 1
}' || {
    echo "check.sh: memory accounting wall overhead on threads: ${on_ms}ms vs ${off_ms}ms (limit 2% + 2ms)" >&2
    exit 1
}
rm -f "$mem_mt" /tmp/mem_on.err /tmp/mem_off.err

# Columnar batch data plane: the re-baselined fig6 must improve on the
# preserved pre-batching snapshot on every sweep row — less wire volume
# (the columnar encoding replaces the estimated-bytes accounting), fewer
# data messages (sender-side coalescing into full batches), and a faster
# virtual wall-clock.
fig6_new="bench_out/baseline/BENCH_fig6.json"
fig6_pre="bench_out/baseline/BENCH_fig6.prebatch.json"
fig6_metric() { grep -o "\"$2\":[0-9.]*" "$1" | cut -d: -f2 | tr '\n' ' '; }
for m in bytes_on_wire data_messages mitos_ms; do
    awk -v pre="$(fig6_metric "$fig6_pre" "$m")" \
        -v new="$(fig6_metric "$fig6_new" "$m")" 'BEGIN {
        n = split(pre, p, " ")
        if (n == 0 || split(new, q, " ") != n) exit 1
        for (i = 1; i <= n; i++) if (q[i] + 0 >= p[i] + 0) exit 1
        exit 0
    }' || {
        echo "check.sh: fig6 $m did not improve on the pre-batching baseline" >&2
        exit 1
    }
done

# Wire-accounting A/B: MITOS_BATCH_OFF=1 charges the legacy estimated
# wire bytes instead of the exact encoded size; the computed outputs must
# be bit-identical on both drivers (only the byte accounting, and
# therefore simulated network time, may differ).
for eng in mitos threads; do
    batch_on="$(./target/release/mitos run examples/nested_loops.mt \
        --machines 3 --engine "$eng")"
    batch_off="$(MITOS_BATCH_OFF=1 ./target/release/mitos run examples/nested_loops.mt \
        --machines 3 --engine "$eng")"
    [ "$batch_on" = "$batch_off" ] || {
        echo "check.sh: MITOS_BATCH_OFF changed outputs on engine $eng" >&2
        exit 1
    }
done

# Flatness in loop length: every step of this loop selects a
# loop-invariant input (the `for` bound, produced once before the loop).
# The indexed execution path answers that selection in O(1), so per-step
# cost at 2000 steps must match 200 steps: per-step virtual time within
# 5%, per-step simulator wall time within 1.5x (the median of five runs
# each; "ms wall" is whole milliseconds and includes compiling). Both
# lengths run in this script and are compared with each other — no
# absolute time is gated.
flat_mt="$(mktemp --suffix=.mt)"
flat_run() {
    printf 's = 0;\nfor i = 1 to %s {\n  b = bag((1, i));\n  s = s + b.count();\n}\noutput(s, "s");\n' \
        "$1" > "$flat_mt"
    for _ in 1 2 3 4 5; do
        ./target/release/mitos run "$flat_mt" --machines 8 2>&1 >/dev/null |
            sed -n 's/.* machines, \([0-9.]*\) virtual ms, \([0-9]*\) ms wall.*/\1 \2/p'
    done | sort -n -k2 | sed -n 3p
}
read -r vms_200 wall_200 <<<"$(flat_run 200)"
read -r vms_2000 wall_2000 <<<"$(flat_run 2000)"
[ "$(./target/release/mitos run "$flat_mt" --machines 8 2>/dev/null | tail -1)" = 2000 ] || {
    echo "check.sh: the 2000-step flatness loop printed the wrong sum" >&2
    exit 1
}
rm -f "$flat_mt"
awk -v v1="$vms_200" -v w1="$wall_200" -v v2="$vms_2000" -v w2="$wall_2000" 'BEGIN {
    if (v1 == "" || v2 == "" || w1 == "" || w2 == "" || v1 + 0 <= 0 || w1 + 0 <= 0) exit 1
    if ((v2 / 2000) > (v1 / 200) * 1.05) exit 1
    if ((w2 / 2000) > (w1 / 200) * 1.5) exit 1
    exit 0
}' || {
    echo "check.sh: per-step cost grew with loop length: 200 steps ${vms_200:-?} virtual ms /" \
        "${wall_200:-?} ms wall, 2000 steps ${vms_2000:-?} virtual ms / ${wall_2000:-?} ms wall" \
        "(limits: 1.05x virtual, 1.5x wall per step)" >&2
    exit 1
}

# fig7 flatness gate: the committed baseline must show per-step virtual
# time at 2000 steps within 5% of 200 steps.
fig7_base="bench_out/baseline/BENCH_fig7.json"
fig7_growth="$(grep -o '"step_growth_2000_vs_200":[0-9.]*' "$fig7_base" | cut -d: -f2)"
awk -v g="$fig7_growth" 'BEGIN { if (g == "") exit 1; exit (g + 0 <= 1.05) ? 0 : 1 }' || {
    echo "check.sh: fig7 baseline step_growth_2000_vs_200 ${fig7_growth:-?} not <= 1.05" >&2
    exit 1
}

# Bench trajectory: when fresh bench reports exist (scripts/bench.sh),
# compare them against the committed baseline with config-digest
# mismatches escalated to hard failures (--strict); skipped when no
# fresh reports are present so the gate stays fast by default.
if ls "${MITOS_BENCH_DIR:-bench_out}"/BENCH_*.json >/dev/null 2>&1; then
    scripts/bench_compare.sh --strict || {
        echo "check.sh: bench trajectory drifted (see above)" >&2
        exit 1
    }
fi

echo "check.sh: all green"
