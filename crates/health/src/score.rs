//! The per-core health score: decaying evidence in `[0, 1]`.
//!
//! A score of 1.0 means "no reason to doubt this core"; 0.0 means "every
//! recent signal says it is broken". Evidence *subtracts* a weighted
//! amount; every clean probe restores a fraction of the remaining
//! headroom, so old evidence decays exponentially and a genuinely
//! recovered core climbs back. The weights encode how diagnostic each
//! signal is: a failed known-answer probe is near-conclusive, one ECC
//! single-bit correction is routine background noise.

/// One piece of evidence against a core's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    /// A known-answer self-test probe failed on this core.
    ProbeFail,
    /// ABFT checksums flagged and repaired output of this core's GEMM.
    AbftCorrection,
    /// The numeric guard clamped a non-finite accumulator.
    GuardClamp,
    /// ECC corrected a single-bit scratchpad error (routine).
    EccSec,
    /// ECC detected an uncorrectable double-bit scratchpad error.
    EccDed,
    /// A CRC-protected link forced a retransmit to/from this core.
    CrcRetransmit,
}

impl Evidence {
    /// How much one occurrence subtracts from the score.
    pub(crate) fn weight(self) -> f64 {
        match self {
            Evidence::ProbeFail => 0.45,
            Evidence::AbftCorrection => 0.10,
            Evidence::GuardClamp => 0.06,
            Evidence::EccSec => 0.01,
            Evidence::EccDed => 0.12,
            Evidence::CrcRetransmit => 0.02,
        }
    }

    /// Counter-name suffix for `health.evidence.*`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Evidence::ProbeFail => "probe_fail",
            Evidence::AbftCorrection => "abft",
            Evidence::GuardClamp => "guard",
            Evidence::EccSec => "ecc_sec",
            Evidence::EccDed => "ecc_ded",
            Evidence::CrcRetransmit => "crc",
        }
    }

    /// Every evidence kind, for reports and tests.
    pub const ALL: [Evidence; 6] = [
        Evidence::ProbeFail,
        Evidence::AbftCorrection,
        Evidence::GuardClamp,
        Evidence::EccSec,
        Evidence::EccDed,
        Evidence::CrcRetransmit,
    ];
}

/// The decaying health score of one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthScore {
    value: f64,
}

impl Default for HealthScore {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthScore {
    /// A pristine score (1.0).
    pub(crate) fn new() -> Self {
        Self { value: 1.0 }
    }

    /// The current score in `[0, 1]`.
    pub(crate) fn value(&self) -> f64 {
        self.value
    }

    /// The score in integer milli-units — the form events record, so
    /// trace comparisons are exact.
    pub(crate) fn milli(&self) -> u32 {
        (self.value * 1000.0).round() as u32
    }

    /// Applies `n` occurrences of one evidence kind.
    pub(crate) fn apply(&mut self, ev: Evidence, n: u64) {
        if n == 0 {
            return;
        }
        self.value = (self.value - ev.weight() * n as f64).max(0.0);
    }

    /// One clean probe: restores `recovery` of the remaining headroom.
    pub(crate) fn recover(&mut self, recovery: f64) {
        self.value = (self.value + (1.0 - self.value) * recovery.clamp(0.0, 1.0)).min(1.0);
    }

    /// Resets the score to at least `floor` (reinstatement).
    pub(crate) fn raise_to(&mut self, floor: f64) {
        self.value = self.value.max(floor.clamp(0.0, 1.0));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn evidence_decays_and_recovery_is_bounded() {
        let mut s = HealthScore::new();
        assert_eq!(s.value(), 1.0);
        s.apply(Evidence::ProbeFail, 1);
        assert!(s.value() < 0.6);
        for _ in 0..100 {
            s.recover(0.2);
        }
        assert!(s.value() > 0.99 && s.value() <= 1.0);
        s.apply(Evidence::ProbeFail, 1000);
        assert_eq!(s.value(), 0.0, "score saturates at zero");
    }

    #[test]
    fn probe_failures_dominate_background_noise() {
        // One probe failure outweighs dozens of routine SEC corrections.
        assert!(Evidence::ProbeFail.weight() > 20.0 * Evidence::EccSec.weight());
        // DED (uncorrectable) is stronger evidence than SEC (corrected).
        assert!(Evidence::EccDed.weight() > Evidence::EccSec.weight());
    }

    #[test]
    fn milli_is_deterministic_and_labels_distinct() {
        let mut s = HealthScore::new();
        s.apply(Evidence::AbftCorrection, 3);
        assert_eq!(s.milli(), 700);
        let labels: std::collections::BTreeSet<_> =
            Evidence::ALL.iter().map(|e| e.label()).collect();
        assert_eq!(labels.len(), Evidence::ALL.len());
    }
}
