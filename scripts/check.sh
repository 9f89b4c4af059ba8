#!/usr/bin/env bash
# Full local gate: release build, tests, lints. Run from the repo root.
#
# Every experiment binary's exit status is its contract: it exits nonzero
# when any invariant it checks breaks, or when its `--json` record fails
# the schema. The smoke steps below therefore only run binaries and check
# their exit status; they never grep records or transcripts.
#
#   scripts/check.sh              full gate (build, tests, clippy, smokes)
#   scripts/check.sh --recovery   recovery gate only: clippy on the recover
#                                 crate (unwrap/expect denied) + a timed
#                                 recovery_sweep smoke
#   scripts/check.sh --telemetry  telemetry gate only: clippy on the
#                                 telemetry crate (unwrap/expect denied),
#                                 a timed calibration smoke under
#                                 RAPID_TRACE, and validation of its record
#                                 (wrapped as an aggregate) by
#                                 telemetry_report --validate
#   scripts/check.sh --protection protection gate only: clippy on the
#                                 protection-touched crates and a timed
#                                 protection_sweep smoke
#   scripts/check.sh --simd       SIMD gate only: clippy on the kernel
#                                 crates, the bit-exactness proptests under
#                                 RAPID_SIMD=auto, =force and =off, the
#                                 refnet and sim tests under =force and
#                                 =off (the simulator's values come from
#                                 the dispatched kernels), and a timed
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
#                                 link to a deleted or private item fails
#   scripts/check.sh --all        every named gate (recovery, telemetry,
#                                 protection, simd, serve, elastic, obs,
#                                 health, doc) without the full build/test/
#                                 clippy preamble. Gates keep running
#                                 after a failure; a per-gate PASS/FAIL
#                                 table prints at the end and the exit
#                                 code is nonzero iff any gate failed
set -euo pipefail
cd "$(dirname "$0")/.."

gates=(recovery telemetry protection simd serve elastic obs health doc)
out="target/gate-out"

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

recovery_gate() {
    echo "== cargo clippy -p rapid-recover (deny warnings; the crate denies unwrap/expect) =="
    cargo clippy -p rapid-recover --all-targets -- -D warnings
    smoke recovery_sweep --smoke
}

telemetry_gate() {
    echo "== cargo clippy -p rapid-telemetry (deny warnings; the crate denies unwrap/expect) =="
    cargo clippy -p rapid-telemetry --all-targets -- -D warnings
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
    echo "== refnet tests under RAPID_SIMD=force and =off (both operand stagers) =="
    RAPID_SIMD=force cargo test --release -p rapid-refnet -q
    RAPID_SIMD=off cargo test --release -p rapid-refnet -q
    echo "== sim tests under RAPID_SIMD=force and =off (tile values come from the kernels) =="
    RAPID_SIMD=force cargo test --release -p rapid-sim -q
    RAPID_SIMD=off cargo test --release -p rapid-sim -q
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

echo "== cargo build --workspace --release =="
cargo build --workspace --release

echo "== cargo test --workspace (quiet) =="
cargo test --workspace -q

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

smoke fault_sweep --smoke

for g in "${gates[@]}"; do
    "${g}_gate"
done

echo "All checks passed."
