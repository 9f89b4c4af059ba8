//! Precision-tiered load-shedding controller with hysteresis.
//!
//! Maps queue occupancy to an escalation **level**: 0 = serve as
//! requested, 1 = downgrade standard requests one tier (FP16 → HFP8),
//! 2 = downgrade to INT4, 3 = drop (shed) standard requests entirely.
//! Critical requests are never touched at any level.
//!
//! Hysteresis prevents flapping: the level rises only after occupancy has
//! stayed above the high watermark for `up_ticks` consecutive
//! observations, and falls only after `down_ticks` below the low
//! watermark. One observation is taken per engine tick.

/// Shedding controller knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedConfig {
    /// Occupancy fraction above which pressure accumulates (0..=1).
    pub hi: f64,
    /// Occupancy fraction below which relief accumulates (0..=1).
    pub lo: f64,
    /// Consecutive high observations before escalating one level.
    pub up_ticks: u32,
    /// Consecutive low observations before de-escalating one level.
    pub down_ticks: u32,
    /// Highest level the controller may reach (3 enables shedding).
    pub max_level: u8,
}

impl Default for ShedConfig {
    fn default() -> Self {
        Self { hi: 0.60, lo: 0.25, up_ticks: 3, down_ticks: 8, max_level: 3 }
    }
}

/// Hysteretic escalation-level tracker.
#[derive(Debug, Clone)]
pub struct ShedController {
    cfg: ShedConfig,
    level: u8,
    hi_streak: u32,
    lo_streak: u32,
}

impl ShedController {
    /// A controller at level 0.
    pub(crate) fn new(cfg: ShedConfig) -> Self {
        Self { cfg, level: 0, hi_streak: 0, lo_streak: 0 }
    }

    /// Current escalation level (0..=`max_level`).
    pub(crate) fn level(&self) -> u8 {
        self.level
    }

    /// Feeds one occupancy observation (queued / capacity, 0..=1) and
    /// returns the possibly-updated level.
    pub(crate) fn observe(&mut self, occupancy: f64) -> u8 {
        if occupancy > self.cfg.hi {
            self.lo_streak = 0;
            self.hi_streak += 1;
            if self.hi_streak >= self.cfg.up_ticks && self.level < self.cfg.max_level {
                self.level += 1;
                self.hi_streak = 0;
            }
        } else if occupancy < self.cfg.lo {
            self.hi_streak = 0;
            self.lo_streak += 1;
            if self.lo_streak >= self.cfg.down_ticks && self.level > 0 {
                self.level -= 1;
                self.lo_streak = 0;
            }
        } else {
            // Dead band: decay both streaks so a brief spike or dip
            // inside the band does not carry over.
            self.hi_streak = 0;
            self.lo_streak = 0;
        }
        self.level
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn ctl() -> ShedController {
        ShedController::new(ShedConfig {
            hi: 0.6,
            lo: 0.25,
            up_ticks: 2,
            down_ticks: 3,
            max_level: 3,
        })
    }

    #[test]
    fn escalates_only_after_sustained_pressure() {
        let mut c = ctl();
        assert_eq!(c.observe(0.9), 0); // one tick is not enough
        assert_eq!(c.observe(0.9), 1);
        assert_eq!(c.observe(0.9), 1);
        assert_eq!(c.observe(0.9), 2);
        for _ in 0..10 {
            c.observe(0.95);
        }
        assert_eq!(c.level(), 3); // capped at max_level
    }

    #[test]
    fn dead_band_resets_streaks_both_ways() {
        let mut c = ctl();
        c.observe(0.9);
        c.observe(0.4); // in-band: clears the high streak
        assert_eq!(c.observe(0.9), 0);
        assert_eq!(c.observe(0.9), 1);
        // Relief must also be sustained.
        c.observe(0.1);
        c.observe(0.1);
        c.observe(0.4); // in-band: clears the low streak
        assert_eq!(c.level(), 1);
        c.observe(0.1);
        c.observe(0.1);
        assert_eq!(c.observe(0.1), 0);
    }

    #[test]
    fn max_level_below_three_disables_shedding() {
        let mut c = ShedController::new(ShedConfig {
            max_level: 2,
            up_ticks: 1,
            ..ShedConfig::default()
        });
        for _ in 0..20 {
            c.observe(1.0);
        }
        assert_eq!(c.level(), 2);
    }
}
