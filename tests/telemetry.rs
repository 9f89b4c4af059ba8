//! Integration tests for the unified telemetry layer: counter determinism
//! across identical seeded runs, bit-invisibility when telemetry is
//! disabled, Chrome-trace well-formedness, thin-view round trips, and the
//! bench record schema.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use proptest::prelude::*;
use rapid::fault::{FaultConfig, FaultPlan};
use rapid::numerics::gemm::GemmStats;
use rapid::numerics::Tensor;
use rapid::sim::chip::{try_run_chip_gemm_with, ChipGemmJob};
use rapid::sim::error::SimError;
use rapid::sim::gemm::{CoreSim, GemmJob};
use rapid::telemetry::validate_aggregate;
use rapid::telemetry::{validate_bench_record, Json, MetricsRegistry, Telemetry, BENCH_SCHEMA};
use rapid_arch::precision::Precision;
use rapid_bench::BenchRecord;

fn gemm_job(seed: u64) -> GemmJob {
    GemmJob {
        a: Tensor::random_uniform(vec![16, 96], -1.0, 1.0, seed),
        b: Tensor::random_uniform(vec![96, 64], -1.0, 1.0, seed + 1),
        precision: Precision::Int4,
    }
}

#[test]
fn counters_are_deterministic_across_identical_runs() {
    let core = CoreSim::rapid();
    let job = gemm_job(70);
    let run = || {
        let mut tele = Telemetry::new();
        core.try_run_gemm(&job, None, Some(&mut tele)).expect("clean run");
        tele.registry.to_json().render()
    };
    let first = run();
    assert_eq!(first, run(), "same job twice must produce identical snapshots");
    assert!(first.contains("sim.gemm.runs"), "core counters missing: {first}");
    assert!(first.contains("sim.macs.int4"), "per-precision MACs missing: {first}");
}

#[test]
fn disabled_telemetry_is_bit_invisible() {
    let core = CoreSim::rapid();
    let job = gemm_job(71);
    let plain = core.try_run_gemm(&job, None, None).expect("plain run");
    let mut tele = Telemetry::with_trace();
    let instrumented = core.try_run_gemm(&job, None, Some(&mut tele)).expect("instrumented run");
    assert_eq!(plain.cycles, instrumented.cycles, "cycle counts must match");
    let pa = plain.c.as_slice();
    let ia = instrumented.c.as_slice();
    assert_eq!(pa.len(), ia.len());
    for (i, (x, y)) in pa.iter().zip(ia).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "element {i} differs with telemetry on");
    }
    assert!(tele.trace.is_some_and(|t| !t.is_empty()), "tracing run must emit events");
}

#[test]
fn chip_trace_round_trips_and_is_well_nested() {
    let job = ChipGemmJob {
        a: Tensor::random_uniform(vec![16, 128], -1.0, 1.0, 72),
        b: Tensor::random_uniform(vec![128, 128], -1.0, 1.0, 73),
        precision: Precision::Int4,
    };
    let mut tele = Telemetry::with_trace();
    try_run_chip_gemm_with(&job, Default::default(), 4, 0, None, Some(&mut tele))
        .expect("chip run");
    let sink = tele.trace.expect("trace sink");
    let text = sink.to_json().render();
    let doc = Json::parse(&text).expect("trace must round-trip through our own parser");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(!events.is_empty());

    // ≥4 distinct tracks (pid, tid), including the ring and SFU processes.
    let mut tracks: Vec<(f64, f64)> = Vec::new();
    let mut pids: Vec<f64> = Vec::new();
    for e in events {
        let pid = e.get("pid").and_then(Json::as_f64).expect("pid");
        let tid = e.get("tid").and_then(Json::as_f64).expect("tid");
        if !tracks.contains(&(pid, tid)) {
            tracks.push((pid, tid));
        }
        if !pids.contains(&pid) {
            pids.push(pid);
        }
    }
    assert!(tracks.len() >= 4, "expected >=4 tracks, got {}", tracks.len());
    assert!(pids.contains(&1000.0), "ring track missing");
    assert!(pids.contains(&1001.0), "SFU track missing");

    // Complete events on one track must not overlap (spans are emitted by
    // a per-track coalescer, so they must tile cleanly).
    for &(pid, tid) in &tracks {
        let mut spans: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("pid").and_then(Json::as_f64) == Some(pid)
                    && e.get("tid").and_then(Json::as_f64) == Some(tid)
            })
            .map(|e| {
                (
                    e.get("ts").and_then(Json::as_f64).expect("ts"),
                    e.get("dur").and_then(Json::as_f64).expect("dur"),
                )
            })
            .collect();
        spans.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite timestamps"));
        let mut end = f64::MIN;
        for (ts, dur) in spans {
            assert!(ts >= end, "overlapping spans on track ({pid}, {tid})");
            assert!(dur > 0.0, "empty span on track ({pid}, {tid})");
            end = ts + dur;
        }
    }
}

#[test]
fn watchdog_deadlock_flushes_partial_telemetry() {
    // Permanently stalled sequencers: every cycle draws a fresh
    // million-cycle stall burst, so no forward progress is ever made and
    // the watchdog must trip — with the partial counters already flushed.
    let core = CoreSim::rapid();
    let job = gemm_job(74);
    let mut plan = FaultPlan::new(FaultConfig {
        seed: 99,
        seq_stall_rate: 1.0,
        seq_stall_cycles: 1_000_000,
        ..FaultConfig::default()
    });
    let mut tele = Telemetry::with_trace();
    let err = core
        .try_run_gemm(&job, Some(&mut plan), Some(&mut tele))
        .expect_err("fully stalled sequencers must deadlock");
    assert!(matches!(err, SimError::Deadlock { .. }), "got {err:?}");
    assert_eq!(tele.registry.counter("sim.watchdog.deadlocks"), 1);
    assert!(
        tele.registry.counter("sim.watchdog.deadlock_cycle") > 0,
        "deadlock cycle must be recorded"
    );
    let snapshot = tele.registry.to_json().render();
    assert!(snapshot.contains("wseq_stall_cycles"), "partial corelet counters: {snapshot}");
    let sink = tele.trace.expect("trace sink");
    let text = sink.to_json().render();
    assert!(text.contains("\"deadlock\""), "deadlock instant missing from trace");
}

#[test]
fn gemm_stats_round_trip_through_the_registry() {
    let stats = GemmStats { macs: 1234, zero_gated: 56, saturations: 7, guard_clamps: 8 };
    let mut reg = MetricsRegistry::new();
    stats.record_into(&mut reg, "t.gemm");
    stats.record_into(&mut reg, "t.gemm");
    let view = GemmStats::from_registry(&reg, "t.gemm");
    assert_eq!(view.macs, 2468);
    assert_eq!(view.zero_gated, 112);
    assert_eq!(view.saturations, 14);
    assert_eq!(view.guard_clamps, 16);
}

#[test]
fn bench_record_schema_accepts_good_and_rejects_bad() {
    let good = Json::Obj(vec![
        ("schema".to_string(), Json::str(BENCH_SCHEMA)),
        ("experiment".to_string(), Json::str("e2e")),
        (
            "config".to_string(),
            Json::Obj(vec![
                ("threads".to_string(), Json::num(4.0)),
                ("fault_seed".to_string(), Json::num(7.0)),
            ]),
        ),
        ("metrics".to_string(), Json::Obj(vec![("x".to_string(), Json::num(1.5))])),
        ("wall_ms".to_string(), Json::num(12.5)),
    ]);
    validate_bench_record(&good).expect("well-formed record validates");

    let mut missing_seed = good.clone();
    if let Json::Obj(fields) = &mut missing_seed {
        for (k, v) in fields.iter_mut() {
            if k == "config" {
                *v = Json::Obj(vec![("threads".to_string(), Json::num(4.0))]);
            }
        }
    }
    validate_bench_record(&missing_seed).expect_err("config without fault_seed must fail");
}

/// A valid record as `BenchRecord` renders it, with `values` as metrics.
fn rendered_record(values: &[f64]) -> (Json, String) {
    let mut r = BenchRecord::new("adversarial");
    r.config_str("mode", "smoke");
    for (i, v) in values.iter().enumerate() {
        r.metric(&format!("m{i}.value"), *v);
    }
    let j = r.to_json();
    let text = j.render();
    (j, text)
}

/// Every reader stage on one input; none may panic, whatever the bytes.
fn read_all_stages(text: &str) {
    if let Ok(j) = Json::parse(text) {
        let _ = validate_bench_record(&j);
        let _ = validate_aggregate(&j);
        let wrapped = Json::Obj(vec![
            ("schema".to_string(), Json::str(rapid::telemetry::AGGREGATE_SCHEMA)),
            ("records".to_string(), Json::Arr(vec![j])),
        ]);
        let _ = validate_aggregate(&wrapped);
    }
}

proptest! {
    /// Arbitrary bytes (lossy UTF-8) never panic the record reader.
    #[test]
    fn bench_record_reader_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        read_all_stages(&String::from_utf8_lossy(&bytes));
    }

    /// A valid record round-trips render → parse → equal and validates;
    /// 1–8 byte mutations of it (overwrite, insert or delete) never panic
    /// the reader.
    #[test]
    fn bench_record_reader_survives_mutated_records(
        values in proptest::collection::vec(-1.0e12f64..1.0e12, 0..6),
        edits in proptest::collection::vec((0usize..4096, 0u8..=255, 0u8..3), 1..=8),
    ) {
        let (j, text) = rendered_record(&values);
        let parsed = Json::parse(&text).expect("rendered record parses");
        prop_assert_eq!(&parsed, &j);
        prop_assert!(validate_bench_record(&parsed).is_ok());

        let mut bytes = text.into_bytes();
        for (at, byte, kind) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.push(byte),
            }
        }
        read_all_stages(&String::from_utf8_lossy(&bytes));
    }
}
