//! The dynamic [`CoreMap`]: the live per-chip exclusion mask.
//!
//! The chip simulator's `try_run_chip_gemm_with` takes a *static*
//! failed-core mask, fixed at manufacturing test. The health monitor generalizes it: the
//! map starts all-healthy, cores drop out as the quarantine machine
//! demotes them and return on reinstatement, and every change bumps an
//! epoch so consumers (the chip simulator, the serving engine) can detect
//! staleness cheaply between batches.

/// A dynamic exclusion mask over up to 64 cores of one chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreMap {
    cores: u32,
    excluded: u64,
    epoch: u64,
}

impl CoreMap {
    /// An all-in-service map over `cores` cores (≤ 64).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is 0 or exceeds 64 (the mask width).
    pub fn new(cores: u32) -> Self {
        assert!((1..=64).contains(&cores), "core count must be in 1..=64");
        Self { cores, excluded: 0, epoch: 0 }
    }

    /// Total cores the map covers.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Cores currently in service.
    pub fn active(&self) -> u32 {
        self.cores - self.excluded.count_ones()
    }

    /// Cores currently excluded (quarantined or on probation).
    pub fn excluded(&self) -> u32 {
        self.excluded.count_ones()
    }

    /// The exclusion bitmask, bit `i` set ⇒ core `i` is out of service.
    /// This is the same encoding `try_run_chip_gemm_with` consumes; pass it
    /// with [`CoreMap::cores`] as the core count.
    pub fn failed_mask(&self) -> u64 {
        self.excluded
    }

    /// Monotone epoch, bumped on every service change. Consumers cache
    /// derived structures keyed by this.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether core `core` is in service.
    pub fn in_service(&self, core: u32) -> bool {
        core < self.cores && self.excluded & (1 << core) == 0
    }

    /// Fraction of cores in service, in `(0, 1]` — the serving layer's
    /// capacity derate factor.
    pub fn capacity_factor(&self) -> f64 {
        f64::from(self.active()) / f64::from(self.cores)
    }

    /// Removes a core from service. Returns `true` if the map changed.
    pub fn exclude(&mut self, core: u32) -> bool {
        if core >= self.cores || self.excluded & (1 << core) != 0 {
            return false;
        }
        self.excluded |= 1 << core;
        self.epoch += 1;
        true
    }

    /// Returns a core to service. Returns `true` if the map changed.
    pub fn restore(&mut self, core: u32) -> bool {
        if core >= self.cores || self.excluded & (1 << core) == 0 {
            return false;
        }
        self.excluded &= !(1 << core);
        self.epoch += 1;
        true
    }

    /// Iterator over in-service core indices, ascending.
    pub fn in_service_cores(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.cores).filter(move |&c| self.in_service(c))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn exclusion_bumps_epoch_and_mask_round_trips() {
        let mut map = CoreMap::new(4);
        assert_eq!(map.active(), 4);
        assert_eq!(map.epoch(), 0);
        assert!(map.exclude(2));
        assert!(!map.exclude(2), "double-exclude is a no-op");
        assert_eq!(map.failed_mask(), 0b0100);
        assert_eq!(map.active(), 3);
        assert_eq!(map.epoch(), 1);
        assert!((map.capacity_factor() - 0.75).abs() < 1e-12);
        assert!(map.restore(2));
        assert_eq!(map.epoch(), 2);
        assert_eq!(map.failed_mask(), 0);
        assert!(!map.restore(2));
        assert!(!map.exclude(99), "out-of-range core is rejected");
        assert_eq!(map.in_service_cores().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }
}
