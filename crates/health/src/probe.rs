//! Known-answer self-test probes: small bit-exact GEMMs per format.
//!
//! Each probe runs one of the chip's arithmetic formats (FP16, HFP8
//! forward, HFP8 backward, INT4) on a small deterministic operand pair
//! and compares the output *bit for bit* against the golden computed once
//! from the `*_scalar` reference datapath. On a clean core the guarded
//! kernels are bit-exact with the references by construction, so a probe
//! can only fail if the core's fault stream corrupted it — there are no
//! false positives, which is what lets a probe failure carry the heavy
//! [`Evidence::ProbeFail`](crate::Evidence::ProbeFail) weight.
//!
//! Operands are drawn once from the probe seed at suite construction and
//! reused every cycle, so the probe stream consumes no per-cycle
//! randomness and replay is trivially bit-identical.

use rapid_fault::FaultPlan;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::{
    matmul_emulated_scalar, matmul_emulated_with, matmul_int_scalar, matmul_int_with, Exec,
};
use rapid_numerics::int::Signedness;
use rapid_numerics::{IntFormat, QuantParams, Tensor};

/// Seed of the deterministic probe operands ("HELT").
pub(crate) const PROBE_SEED: u64 = 0x4845_4C54;

/// Probe GEMM dimension (m = n = `PROBE_DIM`, k = 2·`PROBE_DIM`): small
/// enough that a probe cycle is cheap, big enough that a burst-mode core
/// is near-certain to corrupt at least one output.
const PROBE_DIM: usize = 4;

/// Chunk length of the probe GEMMs (the datapath default).
const CHUNK_LEN: usize = 64;

/// Which arithmetic format a probe exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// FP16 FMA datapath.
    Fp16,
    /// HFP8 forward-pass datapath ((1,4,3) × (1,4,3)).
    Hfp8Fwd,
    /// HFP8 backward-pass datapath ((1,4,3) × (1,5,2)).
    Hfp8Bwd,
    /// INT4 inference datapath.
    Int4,
}

impl ProbeKind {
    /// Every probe kind, in the fixed order a cycle runs them.
    pub const ALL: [ProbeKind; 4] =
        [ProbeKind::Fp16, ProbeKind::Hfp8Fwd, ProbeKind::Hfp8Bwd, ProbeKind::Int4];
}

/// Result of one probe on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// The format exercised.
    pub kind: ProbeKind,
    /// Whether the output matched the golden bit for bit.
    pub passed: bool,
    /// Output elements that differed from the golden (0 when passed).
    pub mismatches: u32,
}

struct FloatProbe {
    mode: FmaMode,
    kind: ProbeKind,
    a: Tensor,
    b: Tensor,
    golden: Vec<u32>,
}

struct IntProbe {
    a: Tensor,
    b: Tensor,
    qa: QuantParams,
    qb: QuantParams,
    golden: Vec<u32>,
}

/// The fixed suite of known-answer probes one cycle runs on one core.
pub struct ProbeSuite {
    floats: Vec<FloatProbe>,
    int: IntProbe,
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn count_mismatches(out: &Tensor, golden: &[u32]) -> u32 {
    out.as_slice()
        .iter()
        .zip(golden)
        .filter(|(v, g)| v.to_bits() != **g)
        .count() as u32
}

impl ProbeSuite {
    /// Builds the suite: draws deterministic operands from
    /// [`PROBE_SEED`] and computes every golden via the scalar reference
    /// datapaths.
    pub(crate) fn new() -> Self {
        let (m, k, n) = (PROBE_DIM, 2 * PROBE_DIM, PROBE_DIM);
        let modes = [
            (FmaMode::Fp16, ProbeKind::Fp16),
            (FmaMode::hfp8_fwd_default(), ProbeKind::Hfp8Fwd),
            (FmaMode::hfp8_bwd_default(), ProbeKind::Hfp8Bwd),
        ];
        let floats = modes
            .iter()
            .enumerate()
            .map(|(i, &(mode, kind))| {
                let sa = PROBE_SEED.wrapping_add(2 * i as u64 + 1);
                let sb = PROBE_SEED.wrapping_add(2 * i as u64 + 2);
                let a = Tensor::random_uniform(vec![m, k], -1.0, 1.0, sa);
                let b = Tensor::random_uniform(vec![k, n], -1.0, 1.0, sb);
                let (g, _) = matmul_emulated_scalar(mode, &a, &b, CHUNK_LEN);
                FloatProbe { mode, kind, golden: bits(&g), a, b }
            })
            .collect();
        let a = Tensor::random_uniform(vec![m, k], -1.0, 1.0, PROBE_SEED.wrapping_add(7));
        let b = Tensor::random_uniform(vec![k, n], -1.0, 1.0, PROBE_SEED.wrapping_add(8));
        let qa = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
        let qb = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
        let (g, _) = matmul_int_scalar(&a, &b, qa, qb, CHUNK_LEN);
        let int = IntProbe { golden: bits(&g), a, b, qa, qb };
        Self { floats, int }
    }

    /// Number of probes one cycle runs per core.
    pub(crate) fn len(&self) -> usize {
        self.floats.len() + 1
    }

    /// Runs the full suite on one core, routing every kernel through that
    /// core's fault stream. `faults == None` models probing an ideal core
    /// (always passes).
    pub(crate) fn run(&self, mut faults: Option<&mut FaultPlan>) -> Vec<ProbeOutcome> {
        let mut outcomes = Vec::with_capacity(self.len());
        for p in &self.floats {
            let run = matmul_emulated_with(
                p.mode,
                &p.a,
                &p.b,
                CHUNK_LEN,
                Exec { faults: faults.as_deref_mut(), ..Exec::default() },
            );
            let (passed, mismatches) = match run {
                Ok((out, _)) => {
                    let mm = count_mismatches(&out, &p.golden);
                    (mm == 0, mm)
                }
                Err(_) => (false, u32::MAX),
            };
            outcomes.push(ProbeOutcome { kind: p.kind, passed, mismatches });
        }
        let run = matmul_int_with(
            &self.int.a,
            &self.int.b,
            self.int.qa,
            self.int.qb,
            CHUNK_LEN,
            Exec { faults, ..Exec::default() },
        );
        let (passed, mismatches) = match run {
            Ok((out, _)) => {
                let mm = count_mismatches(&out, &self.int.golden);
                (mm == 0, mm)
            }
            Err(_) => (false, u32::MAX),
        };
        outcomes.push(ProbeOutcome { kind: ProbeKind::Int4, passed, mismatches });
        outcomes
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_fault::FaultConfig;

    #[test]
    fn clean_core_passes_every_probe() {
        let suite = ProbeSuite::new();
        assert_eq!(suite.len(), 4);
        for o in suite.run(None) {
            assert!(o.passed, "probe {:?} failed on a clean core", o.kind);
            assert_eq!(o.mismatches, 0);
        }
        // A disabled fault plan is bit-invisible: same verdicts.
        let mut plan = FaultPlan::new(FaultConfig::default());
        for o in suite.run(Some(&mut plan)) {
            assert!(o.passed);
        }
    }

    #[test]
    fn bursty_core_fails_within_a_few_cycles() {
        let suite = ProbeSuite::new();
        let cfg = FaultConfig {
            seed: 99,
            mac_burst_rate: 1e-2,
            mac_burst_len: 64,
            mac_burst_flip_rate: 0.5,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg);
        let mut failed = false;
        for _ in 0..16 {
            if suite.run(Some(&mut plan)).iter().any(|o| !o.passed) {
                failed = true;
                break;
            }
        }
        assert!(failed, "a heavily bursty core must fail a probe quickly");
    }

    #[test]
    fn probe_goldens_are_deterministic_across_construction() {
        let a = ProbeSuite::new();
        let b = ProbeSuite::new();
        for (x, y) in a.floats.iter().zip(&b.floats) {
            assert_eq!(x.golden, y.golden);
        }
        assert_eq!(a.int.golden, b.int.golden);
    }
}
