//! Integration tests for the unified telemetry layer: counter determinism
//! across identical seeded runs, bit-invisibility when telemetry is
//! disabled, Chrome-trace well-formedness, thin-view round trips, the
//! bench record schema, and adversarial bytes for every reader of
//! external data: the bench-record reader, the RPCK checkpoint decoder
//! and the OpenMetrics validator.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use proptest::prelude::*;
use rapid::fault::{FaultConfig, FaultPlan};
use rapid::numerics::gemm::GemmStats;
use rapid::numerics::Tensor;
use rapid::recover::checkpoint::{self, LayerState, TrainState};
use rapid::recover::crc32;
use rapid::sim::chip::{try_run_chip_gemm_with, ChipGemmJob};
use rapid::sim::error::SimError;
use rapid::sim::gemm::{CoreSim, GemmJob};
use rapid::telemetry::openmetrics::render_labeled;
use rapid::telemetry::validate_aggregate;
use rapid::telemetry::validate_openmetrics;
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

/// Applies one byte edit to `bytes`: kind 0 overwrites the byte at `at`,
/// kind 1 inserts one there, anything else deletes it; an `at` past the
/// end appends instead.
fn apply_edit(bytes: &mut Vec<u8>, at: usize, byte: u8, kind: u8) {
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

/// RPCK header bytes: magic, version, payload length, payload CRC32.
const RPCK_HEADER: usize = 20;

/// An RPCK image of `payload` behind a valid header (the magic and
/// version `encode` writes, then the payload's length and CRC32), so a
/// mutated payload reaches the field parser instead of stopping at the
/// checksum.
fn stamped(payload: &[u8]) -> Vec<u8> {
    let mut file = checkpoint::encode(&TrainState::default());
    file.truncate(8);
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&crc32(payload).to_le_bytes());
    file.extend_from_slice(payload);
    file
}

/// A training state with one layer per `(rows, cols)` pair and `alphas`
/// PACT levels.
fn train_state(step: u64, dims: &[(u64, u64)], alphas: usize) -> TrainState {
    let vals = |n: u64| (0..n).map(|i| i as f32 * 0.25 - 1.0).collect::<Vec<_>>();
    TrainState {
        step,
        rng_state: step.rotate_left(17),
        scale: 512.0,
        scaler_good_steps: 3,
        layers: dims
            .iter()
            .map(|&(rows, cols)| LayerState { rows, cols, w: vals(rows * cols), b: vals(cols) })
            .collect(),
        alphas: vals(alphas as u64),
    }
}

/// Payload offsets of an encoded state's u64 fields: step, RNG word, and
/// each layer's rows, cols and bias length.
fn u64_fields(state: &TrainState) -> Vec<usize> {
    let mut at = vec![0, 8];
    let mut p = 28; // step, RNG word, scale, good steps, layer count
    for l in &state.layers {
        at.extend([p, p + 8, p + 16 + 4 * l.w.len()]);
        p += 24 + 4 * (l.w.len() + l.b.len());
    }
    at
}

/// Boundary values written over a u64 count or shape field: zero, one,
/// the u32 edge, and float counts whose byte size fits a u64 but not the
/// read cursor plus it, or overflows the u64 outright.
const WIDE: [u64; 6] = [0, 1, u32::MAX as u64, u64::MAX / 4, u64::MAX / 4 + 1, u64::MAX];

/// A registry with one counter, one gauge and one histogram.
fn om_registry(counter: u64, gauge: f64, samples: &[u64]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.add("om.requests", counter);
    reg.set_gauge("om.load", gauge);
    for &v in samples {
        reg.observe("om.latency_us", v);
    }
    reg
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
            apply_edit(&mut bytes, at, byte, kind);
        }
        read_all_stages(&String::from_utf8_lossy(&bytes));
    }

    /// Arbitrary bytes, raw and as a payload behind a header stamped to
    /// match it, never panic the checkpoint decoder.
    #[test]
    fn checkpoint_decode_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let _ = checkpoint::decode(&bytes);
        let _ = checkpoint::decode(&stamped(&bytes));
    }

    /// A state round-trips `encode` → `decode`. Payload mutations,
    /// re-stamped so they pass the checksum, never panic the decoder:
    /// 1–8 byte edits, and every `WIDE` value over every u64 field.
    #[test]
    fn checkpoint_decode_survives_mutated_payloads(
        step in 0u64..u64::MAX,
        dims in proptest::collection::vec((0u64..4, 0u64..4), 0..=2),
        alphas in 0usize..4,
        edits in proptest::collection::vec((0usize..4096, 0u8..=255, 0u8..3), 1..=8),
    ) {
        let state = train_state(step, &dims, alphas);
        let file = checkpoint::encode(&state);
        prop_assert_eq!(checkpoint::decode(&file).expect("encoded state decodes"), state.clone());

        let payload = &file[RPCK_HEADER..];
        let mut edited = payload.to_vec();
        for (at, byte, kind) in edits {
            apply_edit(&mut edited, at, byte, kind);
        }
        let _ = checkpoint::decode(&stamped(&edited));
        for p in u64_fields(&state) {
            for wide in WIDE {
                let mut edited = payload.to_vec();
                edited[p..p + 8].copy_from_slice(&wide.to_le_bytes());
                let _ = checkpoint::decode(&stamped(&edited));
            }
        }
    }

    /// Arbitrary text never panics the OpenMetrics validator.
    #[test]
    fn openmetrics_validate_survives_arbitrary_text(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let _ = validate_openmetrics(&String::from_utf8_lossy(&bytes));
    }

    /// A rendered snapshot validates and parses back to the registry's
    /// values; 1–8 byte mutations of it never panic the validator.
    #[test]
    fn openmetrics_validate_survives_mutated_snapshots(
        counter in 0u64..u64::MAX,
        gauge in -1.0e12f64..1.0e12,
        samples in proptest::collection::vec(0u64..1 << 40, 1..6),
        edits in proptest::collection::vec((0usize..4096, 0u8..=255, 0u8..3), 1..=8),
    ) {
        let reg = om_registry(counter, gauge, &samples);
        let text = render_labeled(&reg, &[("job", "a\"b\\c\nd")]);
        let doc = validate_openmetrics(&text).expect("rendered snapshot validates");
        prop_assert_eq!(doc.counter("om_requests"), Some(counter as f64));
        prop_assert_eq!(doc.gauge("om_load"), Some(gauge));
        let sum: u64 = samples.iter().sum();
        prop_assert_eq!(doc.histogram("om_latency_us"), Some((samples.len() as f64, sum as f64)));

        let mut bytes = text.into_bytes();
        for (at, byte, kind) in edits {
            apply_edit(&mut bytes, at, byte, kind);
        }
        let _ = validate_openmetrics(&String::from_utf8_lossy(&bytes));
    }
}
