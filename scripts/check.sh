#!/usr/bin/env bash
# Full local gate: release build, tests, lints. Run from the repo root.
#
# Every experiment binary's exit status is its contract: it exits nonzero
# when any invariant it checks breaks, or when its `--json` record fails
# the schema. The smoke steps below therefore only run binaries and check
# their exit status; they never grep records or transcripts.
#
#   scripts/check.sh              full gate (build, tests, clippy, smokes)
#   scripts/check.sh --model      analytic-model gate only: clippy on the
#                                 model and compiler crates, the model
#                                 crate's tests (per-layer reports sum
#                                 exactly to the network breakdown), the
#                                 inference, training and sim-calibration
#                                 integration tests, and timed
#                                 fig17_breakdown and fig18_scaling smokes
#   scripts/check.sh --recovery   recovery gate only: clippy on the recover
#                                 crate (unwrap/expect denied), the recover
#                                 crate's tests, the refnet crate's tests
#                                 (the snapshots read refnet's layer
#                                 stack), the recovery integration
#                                 tests (checkpoint resume among them),
#                                 the external-bytes parser proptests
#                                 (checkpoint decode among them) + a
#                                 timed recovery_sweep smoke
#   scripts/check.sh --telemetry  telemetry gate only: clippy on the
#                                 telemetry crate (unwrap/expect denied),
#                                 the external-bytes parser proptests
#                                 (bench records, OpenMetrics, checkpoint
#                                 decode), a timed calibration smoke under
#                                 RAPID_TRACE, and validation of its record
#                                 (wrapped as an aggregate) by
#                                 telemetry_report --validate
#   scripts/check.sh --protection protection gate only: clippy on the
#                                 protection-touched crates, the
#                                 scratchpad_ecc proptests (sparse SECDED
#                                 upsets vs a dense codeword model) and a
#                                 timed protection_sweep smoke
#   scripts/check.sh --simd       SIMD gate only: clippy on the kernel
#                                 crates, the bit-exactness proptests under
#                                 RAPID_SIMD=auto, =force and =off, the
#                                 exhaustive INT quantizer and FP16
#                                 accumulation rounder sweeps, the
#                                 refnet and sim tests under =force and
#                                 =off (the simulator's values come from
#                                 the dispatched kernels), the benchmark's
#                                 fast-vs-scalar BERT and LSTM tests, its
#                                 CNN tests and its all-workload smoke
#                                 test under =force and =off (the
#                                 end-to-end oracles for the HFP8
#                                 backend's role mapping, for both GEMV
#                                 kernels, for batch-stacked convolutions
#                                 and for resnet50_int4's scalar-vs-fast
#                                 copy), and a timed
#                                 kernel_speed smoke (which asserts
#                                 bit-exactness inline)
#   scripts/check.sh --serve      serving gate only: clippy on the serve
#                                 crate (unwrap/expect denied), the serving
#                                 integration tests, and a timed
#                                 serving_sweep smoke (chaos sweep included)
#   scripts/check.sh --elastic    elastic gate only: clippy on the crates
#                                 the elastic layer touches, the elastic
#                                 integration tests, and a timed
#                                 elastic_sweep smoke (crash healing, zero
#                                 hangs, ≤2-point accuracy loss)
#   scripts/check.sh --obs        observability gate only: clippy on the
#                                 telemetry/serve/bench crates, the
#                                 observability proptests (bit-invisible
#                                 telemetry, well-nested spans, OpenMetrics
#                                 round-trip), a timed obs_sweep smoke under
#                                 RAPID_TRACE + RAPID_METRICS, and strict
#                                 OpenMetrics validation of the snapshot
#   scripts/check.sh --health     health gate only: clippy on the health
#                                 crate (unwrap/expect denied), the
#                                 core-health proptests (no flapping,
#                                 bit-identical when disabled, same-seed
#                                 same-trace), and a timed health_sweep
#                                 smoke (detection, zero silent wrongs,
#                                 quarantine, replay)
#   scripts/check.sh --doc        doc gate only: rustdoc over the whole
#                                 workspace with warnings denied, so a doc
#                                 link to a deleted or private item fails,
#                                 and the facade crate's doctests, which
#                                 compile and run README.md's Rust examples
#   scripts/check.sh --surface    public-surface gate only: fails when a
#                                 `pub fn` under crates/*/src (crates/bench
#                                 aside) is named nowhere outside its own
#                                 crate's src/ (other crates, crates/*/tests,
#                                 tests/, examples/ and README.md count as
#                                 outside; the match is by word), and
#                                 prints the workspace `pub fn` count and
#                                 the settable-value count: the `pub`
#                                 fields of every `*Config`, `*Options`,
#                                 `*Params`, `*Policy`, `*Model`, `*Table`
#                                 and `*Curve` struct under crates/*/src
#                                 (crates/bench aside), each a setting a
#                                 caller can vary; it also fails when
#                                 either count rises above its ceiling
#                                 (`max_pub_fns`, `max_settable_values`
#                                 below; lower them when a change
#                                 shrinks a count)
#   scripts/check.sh --all        every named gate (model, recovery,
#                                 telemetry, protection, simd, serve,
#                                 elastic, obs, health, doc, surface)
#                                 without the full build/test/clippy
#                                 preamble. Gates
#                                 keep running after a failure; a
#                                 per-gate PASS/FAIL table prints at the
#                                 end and the exit code is nonzero iff
#                                 any gate failed
set -euo pipefail
cd "$(dirname "$0")/.."

gates=(model recovery telemetry protection simd serve elastic obs health doc surface)
out="target/gate-out"

# Ceilings of the two counts the surface gate prints.
max_pub_fns=532
max_settable_values=81

# smoke <bin> [args]: builds an experiment binary, runs it under a hard
# 120 s timeout with `--json $out/<bin>.json`, and returns its exit status.
smoke() {
    local bin=$1
    shift
    cargo build --release -q -p rapid-bench --bin "$bin"
    mkdir -p "$out"
    echo "== $bin $* (hard 120s timeout; the exit status is the contract) =="
    timeout 120 "./target/release/$bin" "$@" --json "$out/$bin.json"
}

# The adversarial-bytes proptests for every reader of external data: the
# bench-record reader, the RPCK checkpoint decoder and the OpenMetrics
# validator must return an error, never panic (tests/telemetry.rs).
parser_proptests() {
    echo "== external-bytes parser proptests (bench record, checkpoint, OpenMetrics) =="
    cargo test --release -p rapid --test telemetry -q
}

model_gate() {
    echo "== cargo clippy on the analytic model and its compiler inputs (deny warnings) =="
    cargo clippy -p rapid-model -p rapid-compiler --all-targets -- -D warnings
    echo "== model crate tests + inference/training/calibration integration tests =="
    cargo test --release -p rapid-model -q
    cargo test --release -p rapid --test end_to_end_inference --test end_to_end_training \
        --test sim_model_calibration -q
    smoke fig17_breakdown
    smoke fig18_scaling
}

recovery_gate() {
    echo "== cargo clippy -p rapid-recover (deny warnings; the crate denies unwrap/expect) =="
    cargo clippy -p rapid-recover --all-targets -- -D warnings
    echo "== recover + refnet crate tests + recovery integration tests (ABFT recovery, checkpoints, checkpoint resume, ring, degraded core) =="
    cargo test --release -p rapid-recover -q
    cargo test --release -p rapid-refnet -q
    cargo test --release -p rapid --test recovery -q
    parser_proptests
    smoke recovery_sweep --smoke
}

telemetry_gate() {
    echo "== cargo clippy -p rapid-telemetry (deny warnings; the crate denies unwrap/expect) =="
    cargo clippy -p rapid-telemetry --all-targets -- -D warnings
    parser_proptests
    rm -f "$out/trace.json"
    RAPID_TRACE="$out/trace.json" smoke calibration
    test -s "$out/trace.json" || { echo "missing trace output"; exit 1; }
    echo "== telemetry_report --validate on the emitted record =="
    cargo build --release -q -p rapid-bench --bin telemetry_report
    # Wrap the single bench record as a one-element aggregate and validate
    # both layers of the schema with the repo's own validator.
    printf '{"schema":"rapid-bench-aggregate-v1","records":[%s]}' \
        "$(cat "$out/calibration.json")" > "$out/aggregate.json"
    ./target/release/telemetry_report "$out/aggregate.json" --validate
}

protection_gate() {
    echo "== cargo clippy on the protection-touched crates (deny warnings) =="
    cargo clippy -p rapid-numerics -p rapid-sim -p rapid-ring -p rapid-recover \
        -p rapid-arch -p rapid-model -p rapid-fault --all-targets -- -D warnings
    echo "== scratchpad_ecc proptests (sparse upsets vs dense codewords) =="
    cargo test --release -p rapid-sim --test scratchpad_ecc -q
    smoke protection_sweep --smoke
}

simd_gate() {
    echo "== cargo clippy on the kernel crates (deny warnings) =="
    cargo clippy -p rapid-numerics -p rapid-bench --all-targets -- -D warnings
    echo "== fastpath_bitexact proptests under RAPID_SIMD=auto, =force and =off =="
    # auto is the default dispatch (AVX2 from 4096 MACs up) the benchmark takes.
    RAPID_SIMD=auto cargo test --release -p rapid-numerics --test fastpath_bitexact -q
    RAPID_SIMD=force cargo test --release -p rapid-numerics --test fastpath_bitexact -q
    RAPID_SIMD=off cargo test --release -p rapid-numerics --test fastpath_bitexact -q
    echo "== exhaustive INT quantizer sweep over all 2^32 f32 bit patterns (release, ~35 s) =="
    cargo test --release -p rapid-numerics --test fastpath_bitexact -q -- --ignored
    echo "== exhaustive FP16 accumulation rounder sweep over all 2^32 f32 bit patterns (release, ~15 s) =="
    cargo test --release -p rapid-numerics --lib -q -- --ignored
    echo "== refnet tests under RAPID_SIMD=force and =off (both operand stagers) =="
    RAPID_SIMD=force cargo test --release -p rapid-refnet -q
    RAPID_SIMD=off cargo test --release -p rapid-refnet -q
    echo "== sim tests under RAPID_SIMD=force and =off (tile values come from the kernels) =="
    RAPID_SIMD=force cargo test --release -p rapid-sim -q
    RAPID_SIMD=off cargo test --release -p rapid-sim -q
    echo "== benchmark BERT fast-vs-scalar test under RAPID_SIMD=force and =off (role mapping) =="
    RAPID_SIMD=force cargo test --release -p rapid-bench --bin benchmark -q bert
    RAPID_SIMD=off cargo test --release -p rapid-bench --bin benchmark -q bert
    echo "== benchmark LSTM fast-vs-scalar test under RAPID_SIMD=force and =off (m = 1 GEMVs) =="
    RAPID_SIMD=force cargo test --release -p rapid-bench --bin benchmark -q lstm
    RAPID_SIMD=off cargo test --release -p rapid-bench --bin benchmark -q lstm
    echo "== benchmark CNN and smoke tests under RAPID_SIMD=force and =off (batch-stacked convs) =="
    RAPID_SIMD=force cargo test --release -p rapid-bench --bin benchmark -q cnn
    RAPID_SIMD=force cargo test --release -p rapid-bench --bin benchmark -q smoke_runs_every_workload_correctly
    RAPID_SIMD=off cargo test --release -p rapid-bench --bin benchmark -q cnn
    RAPID_SIMD=off cargo test --release -p rapid-bench --bin benchmark -q smoke_runs_every_workload_correctly
    smoke kernel_speed --smoke
}

serve_gate() {
    echo "== cargo clippy -p rapid-serve (deny warnings; the crate denies unwrap/expect) =="
    cargo clippy -p rapid-serve --all-targets -- -D warnings
    echo "== serving integration tests (conservation, determinism, breaker, chaos) =="
    cargo test --release -p rapid --test serving -q
    smoke serving_sweep --smoke
}

elastic_gate() {
    echo "== cargo clippy on the elastic-touched crates (deny warnings) =="
    cargo clippy -p rapid-fault -p rapid-ring -p rapid-recover -p rapid-model \
        --all-targets -- -D warnings
    echo "== elastic integration tests (heal, catch-up bit-identity, never-hang) =="
    cargo test --release -p rapid --test elastic --test fault_tolerance -q
    smoke elastic_sweep --smoke
}

obs_gate() {
    echo "== cargo clippy on the observability-touched crates (deny warnings) =="
    cargo clippy -p rapid-telemetry -p rapid-serve -p rapid-bench --all-targets -- -D warnings
    echo "== observability proptests (bit-invisibility, span forest, OM round-trip) =="
    cargo test --release -p rapid --test observability -q
    rm -f "$out/obs-trace.json" "$out/metrics.om"
    RAPID_TRACE="$out/obs-trace.json" RAPID_METRICS="$out/metrics.om" smoke obs_sweep --smoke
    test -s "$out/obs-trace.json" || { echo "missing merged trace output"; exit 1; }
    echo "== telemetry_report --validate-openmetrics on the dumped snapshot =="
    test -s "$out/metrics.om" || { echo "missing OpenMetrics snapshot"; exit 1; }
    cargo build --release -q -p rapid-bench --bin telemetry_report
    ./target/release/telemetry_report --validate-openmetrics "$out/metrics.om"
}

health_gate() {
    echo "== cargo clippy on the health-touched crates (deny warnings) =="
    cargo clippy -p rapid-health -p rapid-sim -p rapid-bench --all-targets -- -D warnings
    echo "== core-health proptests (no flapping, bit-invisible when off, same-seed same-trace) =="
    cargo test --release -p rapid --test health -q
    smoke health_sweep --smoke
}

doc_gate() {
    echo "== cargo doc --workspace (deny warnings: broken or private intra-doc links) =="
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
    echo "== cargo test -p rapid --doc (README.md's Rust examples) =="
    cargo test -p rapid --doc -q
}

# Prints every identifier in the given files and directories (.rs files
# and README.md), one per line, deduplicated.
identifiers() {
    grep -rhoE --include=*.rs --include=README.md '\b[A-Za-z_][A-Za-z0-9_]*\b' "$@" | sort -u
}

# Prints the number of `pub` fields declared in `*Config`, `*Options`,
# `*Params`, `*Policy`, `*Model`, `*Table` and `*Curve` structs under
# crates/*/src, crates/bench aside.
settable_values() {
    find crates/*/src -name '*.rs' -not -path 'crates/bench/*' -print0 | xargs -0 awk '
        /^[[:space:]]*pub(\([a-z]+\))? struct [A-Za-z0-9_]*(Config|Options|Params|Policy|Model|Table|Curve)[[:space:]]*\{/ { inside = 1; next }
        inside && /^[[:space:]]*\}/ { inside = 0; next }
        inside && /^[[:space:]]*pub [a-z_][a-z0-9_]*[[:space:]]*:/ { n++ }
        END { print n + 0 }'
}

surface_gate() {
    echo "== public surface: every pub fn is named outside its own crate =="
    local dir other outside file line name unnamed=0
    local -a others
    for dir in crates/*/; do
        dir=${dir%/}
        [[ $dir == crates/bench ]] && continue
        others=()
        for other in crates/*/; do
            other=${other%/}
            [[ $other == "$dir" ]] || others+=("$other/src")
        done
        outside=$(identifiers "${others[@]}" crates/*/tests tests examples README.md)
        while IFS=: read -r file line name; do
            if ! grep -qxF "$name" <<<"$outside"; then
                echo "  $file:$line: pub fn $name is named nowhere outside $dir/src (make it pub(crate))"
                unnamed=$((unnamed + 1))
            fi
        done < <(grep -rnoE --include=*.rs '\bpub fn [A-Za-z_][A-Za-z0-9_]*' "$dir/src" |
            sed 's/:pub fn /:/')
    done
    local pub_fns settable status=0
    pub_fns=$(grep -rn --include=*.rs -E '\bpub fn ' crates | wc -l)
    settable=$(settable_values)
    echo "workspace pub fn count: $pub_fns (ceiling $max_pub_fns)"
    echo "settable-value count: $settable (ceiling $max_settable_values)"
    if [[ $unnamed -ne 0 ]]; then
        echo "$unnamed pub fn named only inside their own crate"
        status=1
    fi
    if ((pub_fns > max_pub_fns)); then
        echo "workspace pub fn count rose above its ceiling"
        status=1
    fi
    if ((settable > max_settable_values)); then
        echo "settable-value count rose above its ceiling"
        status=1
    fi
    return $status
}

case "${1:-}" in
"") ;;
--all)
    # Run every named gate in a child invocation so one failure cannot
    # stop the rest (this script sets -e); then print a PASS/FAIL table
    # and exit nonzero iff any gate failed.
    results=()
    failed=0
    for g in "${gates[@]}"; do
        echo ""
        echo "######## gate --$g ########"
        if bash "$0" "--$g"; then
            results+=("PASS")
        else
            results+=("FAIL")
            failed=1
        fi
    done
    echo ""
    echo "gate summary:"
    for i in "${!gates[@]}"; do
        printf '  %-14s %s\n' "${gates[$i]}" "${results[$i]}"
    done
    if [[ "$failed" -ne 0 ]]; then
        echo "One or more gates FAILED."
        exit 1
    fi
    echo "All named gates passed."
    exit 0
    ;;
*)
    gate="${1#--}"
    if [[ " ${gates[*]} " != *" $gate "* ]]; then
        echo "unknown option '$1' (gates: ${gates[*]/#/--}, --all)" >&2
        exit 2
    fi
    "${gate}_gate"
    echo "Gate --$gate passed."
    exit 0
    ;;
esac

# --locked: a dependency edit that leaves Cargo.lock stale fails here.
echo "== cargo build --workspace --release --locked =="
cargo build --workspace --release --locked

echo "== cargo test --workspace (quiet) =="
cargo test --workspace -q

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

smoke fault_sweep --smoke

for g in "${gates[@]}"; do
    "${g}_gate"
done

echo "All checks passed."
