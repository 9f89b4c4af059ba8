#!/usr/bin/env bash
# Full local gate: release build, tests, lints. Run from the repo root.
#
#   scripts/check.sh              full gate (build, tests, clippy, smokes)
#   scripts/check.sh --recovery   recovery gate only: clippy on the recover
#                                 crate (unwrap/expect denied) + a timed
#                                 recovery_sweep smoke
#   scripts/check.sh --telemetry  telemetry gate only: clippy on the
#                                 telemetry crate (unwrap/expect denied),
#                                 a timed bench smoke with --json +
#                                 RAPID_TRACE, and schema validation of
#                                 the emitted record via telemetry_report
#   scripts/check.sh --protection protection gate only: clippy on the
#                                 protection-touched crates, a timed
#                                 protection_sweep smoke with --json, and
#                                 schema validation of its record
#   scripts/check.sh --simd       SIMD gate only: clippy on the kernel
#                                 crates, the bit-exactness proptests under
#                                 RAPID_SIMD=force and RAPID_SIMD=off, and
#                                 a timed kernel_speed smoke (which asserts
#                                 bit-exactness inline)
#   scripts/check.sh --serve      serving gate only: clippy on the serve
#                                 crate (unwrap/expect denied), the serving
#                                 integration tests, a timed serving_sweep
#                                 smoke (chaos sweep included) with --json,
#                                 and schema validation of its record
#   scripts/check.sh --elastic    elastic gate only: clippy on the crates
#                                 the elastic layer touches, the elastic
#                                 integration tests, a timed elastic_sweep
#                                 smoke (hard-asserts crash healing, zero
#                                 hangs, and ≤2-point accuracy loss) with
#                                 --json, and schema validation of its
#                                 record
#   scripts/check.sh --obs        observability gate only: clippy on the
#                                 telemetry/serve/bench crates, the
#                                 observability proptests (bit-invisible
#                                 telemetry, well-nested spans, OpenMetrics
#                                 round-trip), a timed obs_sweep smoke with
#                                 --json + RAPID_TRACE + RAPID_METRICS,
#                                 schema validation of its record, and
#                                 strict OpenMetrics validation of the
#                                 dumped snapshot
#   scripts/check.sh --health     health gate only: clippy on the health
#                                 crate (unwrap/expect denied), the
#                                 core-health proptests (no flapping,
#                                 bit-identical when disabled, same-seed
#                                 same-trace), a timed health_sweep smoke
#                                 with --json, schema validation of its
#                                 record, and the zero-silent-wrong grep
#                                 contract
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

recovery_gate() {
    echo "== cargo clippy -p rapid-recover (deny warnings; the crate denies unwrap/expect) =="
    cargo clippy -p rapid-recover --all-targets -- -D warnings
    echo "== recovery_sweep --smoke (hard 120s timeout) =="
    cargo build --release -p rapid-bench --bin recovery_sweep
    timeout 120 ./target/release/recovery_sweep --smoke
}

telemetry_gate() {
    echo "== cargo clippy -p rapid-telemetry (deny warnings; the crate denies unwrap/expect) =="
    cargo clippy -p rapid-telemetry --all-targets -- -D warnings
    echo "== calibration --json + RAPID_TRACE smoke (hard 120s timeout) =="
    cargo build --release -p rapid-bench --bin calibration --bin telemetry_report
    local out="target/telemetry-gate"
    rm -rf "$out" && mkdir -p "$out"
    timeout 120 env RAPID_TRACE="$out/trace.json" \
        ./target/release/calibration --json "$out/calibration.json"
    test -s "$out/trace.json" || { echo "missing trace output"; exit 1; }
    grep -q '"traceEvents"' "$out/trace.json" || { echo "trace is not Chrome-trace JSON"; exit 1; }
    echo "== telemetry_report --validate on the emitted record =="
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
    echo "== protection_sweep --smoke --json (hard 120s timeout) =="
    cargo build --release -p rapid-bench --bin protection_sweep --bin telemetry_report
    local out="target/protection-gate"
    rm -rf "$out" && mkdir -p "$out"
    timeout 120 ./target/release/protection_sweep --smoke --json "$out/protection_sweep.json"
    echo "== telemetry_report --validate on the emitted record =="
    # Wrap the single bench record as a one-element aggregate and validate
    # both layers of the schema with the repo's own validator.
    printf '{"schema":"rapid-bench-aggregate-v1","records":[%s]}' \
        "$(cat "$out/protection_sweep.json")" > "$out/aggregate.json"
    ./target/release/telemetry_report "$out/aggregate.json" --validate
    # The zero-silent-delivery and counter contracts, straight off the record.
    grep -q '"ring.silent":0' "$out/protection_sweep.json" \
        || { echo "record is missing ring.silent == 0"; exit 1; }
    grep -q '"spad.silent":0' "$out/protection_sweep.json" \
        || { echo "record is missing spad.silent == 0"; exit 1; }
    grep -q '"recover.abft.corrections"' "$out/protection_sweep.json" \
        || { echo "record is missing the ABFT correction counter"; exit 1; }
}

simd_gate() {
    echo "== cargo clippy on the kernel crates (deny warnings) =="
    cargo clippy -p rapid-numerics -p rapid-bench --all-targets -- -D warnings
    echo "== fastpath_bitexact proptests under RAPID_SIMD=force and =off =="
    cargo build --release -p rapid-bench --bin kernel_speed
    RAPID_SIMD=force cargo test --release -p rapid-numerics --test fastpath_bitexact -q
    RAPID_SIMD=off cargo test --release -p rapid-numerics --test fastpath_bitexact -q
    echo "== kernel_speed --smoke (hard 120s timeout; asserts bit-exactness inline) =="
    timeout 120 ./target/release/kernel_speed --smoke
}

if [[ "${1:-}" == "--recovery" ]]; then
    recovery_gate
    echo "Recovery checks passed."
    exit 0
fi

if [[ "${1:-}" == "--telemetry" ]]; then
    telemetry_gate
    echo "Telemetry checks passed."
    exit 0
fi

if [[ "${1:-}" == "--protection" ]]; then
    protection_gate
    echo "Protection checks passed."
    exit 0
fi

serve_gate() {
    echo "== cargo clippy -p rapid-serve (deny warnings; the crate denies unwrap/expect) =="
    cargo clippy -p rapid-serve --all-targets -- -D warnings
    echo "== serving integration tests (conservation, determinism, breaker, chaos) =="
    cargo test --release -p rapid --test serving -q
    echo "== serving_sweep --smoke --json (hard 120s timeout; includes the chaos cell) =="
    cargo build --release -p rapid-bench --bin serving_sweep --bin telemetry_report
    local out="target/serve-gate"
    rm -rf "$out" && mkdir -p "$out"
    timeout 120 ./target/release/serving_sweep --smoke --json "$out/serving_sweep.json"
    echo "== telemetry_report --validate on the emitted record =="
    # Wrap the single bench record as a one-element aggregate and validate
    # both layers of the schema with the repo's own validator.
    printf '{"schema":"rapid-bench-aggregate-v1","records":[%s]}' \
        "$(cat "$out/serving_sweep.json")" > "$out/aggregate.json"
    ./target/release/telemetry_report "$out/aggregate.json" --validate
    # The serving contracts, straight off the record: nothing lost, nothing
    # delivered late, anywhere in the sweep (chaos cells included).
    grep -q '"sweep.lost_total":0' "$out/serving_sweep.json" \
        || { echo "record is missing sweep.lost_total == 0"; exit 1; }
    grep -q '"sweep.deadline_violations_total":0' "$out/serving_sweep.json" \
        || { echo "record is missing sweep.deadline_violations_total == 0"; exit 1; }
}

elastic_gate() {
    echo "== cargo clippy on the elastic-touched crates (deny warnings) =="
    cargo clippy -p rapid-fault -p rapid-ring -p rapid-recover -p rapid-model \
        --all-targets -- -D warnings
    echo "== elastic integration tests (heal, catch-up bit-identity, never-hang) =="
    cargo test --release -p rapid --test elastic --test fault_tolerance -q
    echo "== elastic_sweep --smoke --json (hard 120s timeout; zero hangs asserted) =="
    cargo build --release -p rapid-bench --bin elastic_sweep --bin telemetry_report
    local out="target/elastic-gate"
    rm -rf "$out" && mkdir -p "$out"
    timeout 120 ./target/release/elastic_sweep --smoke --json "$out/elastic_sweep.json"
    echo "== telemetry_report --validate on the emitted record =="
    # Wrap the single bench record as a one-element aggregate and validate
    # both layers of the schema with the repo's own validator.
    printf '{"schema":"rapid-bench-aggregate-v1","records":[%s]}' \
        "$(cat "$out/elastic_sweep.json")" > "$out/aggregate.json"
    ./target/release/telemetry_report "$out/aggregate.json" --validate
    # The elastic contracts, straight off the record: the ring healed and
    # both layers' counters made it into the telemetry registry.
    grep -q '"ring.elastic.splices"' "$out/elastic_sweep.json" \
        || { echo "record is missing the ring.elastic.splices counter"; exit 1; }
    grep -q '"recover.elastic.crashes_survived"' "$out/elastic_sweep.json" \
        || { echo "record is missing recover.elastic.crashes_survived"; exit 1; }
}

obs_gate() {
    echo "== cargo clippy on the observability-touched crates (deny warnings) =="
    cargo clippy -p rapid-telemetry -p rapid-serve -p rapid-bench --all-targets -- -D warnings
    echo "== observability proptests (bit-invisibility, span forest, OM round-trip) =="
    cargo test --release -p rapid --test observability -q
    echo "== obs_sweep --smoke --json + RAPID_TRACE + RAPID_METRICS (hard 120s timeout) =="
    cargo build --release -p rapid-bench --bin obs_sweep --bin telemetry_report
    local out="target/obs-gate"
    rm -rf "$out" && mkdir -p "$out"
    timeout 120 env RAPID_TRACE="$out/trace.json" RAPID_METRICS="$out/metrics.om" \
        ./target/release/obs_sweep --smoke --json "$out/obs_sweep.json"
    test -s "$out/trace.json" || { echo "missing merged trace output"; exit 1; }
    grep -q '"traceEvents"' "$out/trace.json" || { echo "trace is not Chrome-trace JSON"; exit 1; }
    echo "== telemetry_report --validate on the emitted record =="
    # Wrap the single bench record as a one-element aggregate and validate
    # both layers of the schema with the repo's own validator.
    printf '{"schema":"rapid-bench-aggregate-v1","records":[%s]}' \
        "$(cat "$out/obs_sweep.json")" > "$out/aggregate.json"
    ./target/release/telemetry_report "$out/aggregate.json" --validate
    echo "== telemetry_report --validate-openmetrics on the dumped snapshot =="
    test -s "$out/metrics.om" || { echo "missing OpenMetrics snapshot"; exit 1; }
    ./target/release/telemetry_report --validate-openmetrics "$out/metrics.om"
    # The observability contracts, straight off the record: burn-rate
    # alerts fired under chaos and overload, never in the fault-free cell.
    grep -q '"clean.slo.deadline.alerts":0' "$out/obs_sweep.json" \
        || { echo "record is missing clean.slo.deadline.alerts == 0"; exit 1; }
    grep -q '"clean.slo.shed.alerts":0' "$out/obs_sweep.json" \
        || { echo "record is missing clean.slo.shed.alerts == 0"; exit 1; }
}

health_gate() {
    echo "== cargo clippy on the health-touched crates (deny warnings) =="
    cargo clippy -p rapid-health -p rapid-sim -p rapid-bench --all-targets -- -D warnings
    echo "== core-health proptests (no flapping, bit-invisible when off, same-seed same-trace) =="
    cargo test --release -p rapid --test health -q
    echo "== health_sweep --smoke --json (hard 120s timeout; detection, quarantine, replay) =="
    cargo build --release -p rapid-bench --bin health_sweep --bin telemetry_report
    local out="target/health-gate"
    rm -rf "$out" && mkdir -p "$out"
    timeout 120 ./target/release/health_sweep --smoke --json "$out/health_sweep.json" \
        | tee "$out/health_sweep.log"
    echo "== telemetry_report --validate on the emitted record =="
    # Wrap the single bench record as a one-element aggregate and validate
    # both layers of the schema with the repo's own validator.
    printf '{"schema":"rapid-bench-aggregate-v1","records":[%s]}' \
        "$(cat "$out/health_sweep.json")" > "$out/aggregate.json"
    ./target/release/telemetry_report "$out/aggregate.json" --validate
    # The health contracts, straight off the record and the transcript:
    # zero silent-wrong deliveries, and quarantine actually happened.
    grep -q '"serve.silent_wrong":0' "$out/health_sweep.json" \
        || { echo "record is missing serve.silent_wrong == 0"; exit 1; }
    grep -q 'silent_wrong=0' "$out/health_sweep.log" \
        || { echo "transcript is missing the silent_wrong=0 hard-assert line"; exit 1; }
    grep -q '"health.quarantines"' "$out/health_sweep.json" \
        || { echo "record is missing the health.quarantines counter"; exit 1; }
}

doc_gate() {
    echo "== cargo doc --workspace (deny warnings: broken or private intra-doc links) =="
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
}

if [[ "${1:-}" == "--doc" ]]; then
    doc_gate
    echo "Doc checks passed."
    exit 0
fi

if [[ "${1:-}" == "--simd" ]]; then
    simd_gate
    echo "SIMD checks passed."
    exit 0
fi

if [[ "${1:-}" == "--serve" ]]; then
    serve_gate
    echo "Serving checks passed."
    exit 0
fi

if [[ "${1:-}" == "--elastic" ]]; then
    elastic_gate
    echo "Elastic checks passed."
    exit 0
fi

if [[ "${1:-}" == "--obs" ]]; then
    obs_gate
    echo "Observability checks passed."
    exit 0
fi

if [[ "${1:-}" == "--health" ]]; then
    health_gate
    echo "Health checks passed."
    exit 0
fi

if [[ "${1:-}" == "--all" ]]; then
    # Run every named gate in a child invocation so one failure cannot
    # stop the rest (this script sets -e); then print a PASS/FAIL table
    # and exit nonzero iff any gate failed.
    gates=(--recovery --telemetry --protection --simd --serve --elastic --obs --health --doc)
    results=()
    failed=0
    for g in "${gates[@]}"; do
        echo ""
        echo "######## gate $g ########"
        if bash "$0" "$g"; then
            results+=("PASS")
        else
            results+=("FAIL")
            failed=1
        fi
    done
    echo ""
    echo "gate summary:"
    for i in "${!gates[@]}"; do
        printf '  %-14s %s\n' "${gates[$i]#--}" "${results[$i]}"
    done
    if [[ "$failed" -ne 0 ]]; then
        echo "One or more gates FAILED."
        exit 1
    fi
    echo "All named gates passed."
    exit 0
fi

echo "== cargo build --workspace --release =="
cargo build --workspace --release

echo "== cargo test --workspace (quiet) =="
cargo test --workspace -q

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== fault_sweep --smoke (hard 120s timeout) =="
timeout 120 ./target/release/fault_sweep --smoke

recovery_gate
telemetry_gate
protection_gate
simd_gate
serve_gate
elastic_gate
obs_gate
health_gate
doc_gate

echo "All checks passed."
