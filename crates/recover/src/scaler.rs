//! Dynamic loss scaling for the HFP8 error path.
//!
//! The FP8 (1,5,2) error format underflows small gradients; multiplying
//! the loss gradient by a scale `S` (and dividing the weight update by
//! `S`) keeps them representable. Too large an `S` overflows instead, so
//! the scale adapts: it backs off multiplicatively whenever a step trips a
//! numerics guard and grows again after a window of clean steps — the
//! standard mixed-precision recipe, driven here by the guards the fault
//! injectors exercise.

/// Adaptive loss scale with grow/backoff dynamics.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicLossScaler {
    scale: f32,
    growth: f32,
    backoff: f32,
    growth_interval: u32,
    good_steps: u32,
    min_scale: f32,
    max_scale: f32,
}

impl Default for DynamicLossScaler {
    /// Defaults sized for the reference trainer's small models: start at
    /// `2^8`, double after 64 clean steps, halve on every failure, stay
    /// within `[1, 2^16]`.
    fn default() -> Self {
        Self::new(256.0)
    }
}

impl DynamicLossScaler {
    /// Creates a scaler starting at `initial_scale`, clamped into the
    /// documented `[1, 65536]` range — the floor of 1 is an invariant from
    /// construction on, not just an `on_overflow` stop: a sub-1 initial
    /// scale would otherwise sit below the floor until the first back-off.
    ///
    /// # Panics
    ///
    /// Panics if `initial_scale` is not positive and finite.
    pub(crate) fn new(initial_scale: f32) -> Self {
        assert!(
            initial_scale.is_finite() && initial_scale > 0.0,
            "loss scale must be positive"
        );
        let (min_scale, max_scale) = (1.0, 65_536.0);
        Self {
            scale: initial_scale.clamp(min_scale, max_scale),
            growth: 2.0,
            backoff: 0.5,
            growth_interval: 64,
            good_steps: 0,
            min_scale,
            max_scale,
        }
    }

    /// The current scale to multiply into the loss gradient.
    pub(crate) fn scale(&self) -> f32 {
        self.scale
    }

    /// Records a successful step; grows the scale after
    /// `growth_interval` consecutive clean steps.
    pub(crate) fn on_success(&mut self) {
        self.good_steps += 1;
        if self.good_steps >= self.growth_interval {
            self.scale = (self.scale * self.growth).min(self.max_scale);
            self.good_steps = 0;
        }
    }

    /// Records an overflow/non-finite step: the scale backs off
    /// immediately and the growth window restarts.
    pub(crate) fn on_overflow(&mut self) {
        self.scale = (self.scale * self.backoff).max(self.min_scale);
        self.good_steps = 0;
    }

    /// Serializable state: `(scale, good_steps)`.
    pub(crate) fn state(&self) -> (f32, u32) {
        (self.scale, self.good_steps)
    }

    /// Restores state captured by [`DynamicLossScaler::state`] —
    /// non-finite or non-positive scales are clamped into the valid range
    /// and the clean-step count to one short of the growth interval,
    /// rather than trusted (the checkpoint checksum already vouches for
    /// integrity; this guards against semantic drift between versions).
    /// A count the scaler itself wrote is always below the interval, so
    /// the clamp never changes one.
    pub(crate) fn restore(&mut self, scale: f32, good_steps: u32) {
        self.scale = if scale.is_finite() && scale > 0.0 {
            scale.clamp(self.min_scale, self.max_scale)
        } else {
            self.min_scale
        };
        self.good_steps = good_steps.min(self.growth_interval - 1);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn grows_after_clean_window_and_backs_off_on_overflow() {
        let mut s = DynamicLossScaler::new(256.0);
        for _ in 0..64 {
            s.on_success();
        }
        assert_eq!(s.scale(), 512.0);
        s.on_overflow();
        assert_eq!(s.scale(), 256.0);
        assert_eq!(s.state().1, 0);
    }

    #[test]
    fn scale_stays_bounded() {
        let mut s = DynamicLossScaler::new(1.5);
        for _ in 0..100 {
            s.on_overflow();
        }
        assert_eq!(s.scale(), 1.0, "floor holds");
        for _ in 0..64 * 40 {
            s.on_success();
        }
        assert_eq!(s.scale(), 65_536.0, "ceiling holds");
    }

    #[test]
    fn floor_holds_at_the_boundary_from_construction() {
        // Regression: a sub-1 initial scale used to sit below the
        // documented floor of 1 until the first back-off. The floor must
        // hold from construction and under any number of consecutive
        // guard trips — including the boundary case of starting exactly
        // at the floor.
        let mut s = DynamicLossScaler::new(0.5);
        assert_eq!(s.scale(), 1.0, "construction clamps to the floor");
        for trips in 1..=200 {
            s.on_overflow();
            assert!(s.scale() >= 1.0, "floor violated after {trips} consecutive trips");
        }
        assert_eq!(s.scale(), 1.0);
        // Starting just above the floor: one trip lands exactly on it,
        // never below.
        let mut t = DynamicLossScaler::new(1.0 + f32::EPSILON);
        t.on_overflow();
        assert_eq!(t.scale(), 1.0);
        t.on_overflow();
        assert_eq!(t.scale(), 1.0);
    }

    #[test]
    fn state_round_trips_and_sanitizes() {
        let mut s = DynamicLossScaler::new(256.0);
        s.on_success();
        let (scale, good) = s.state();
        let mut t = DynamicLossScaler::default();
        t.restore(scale, good);
        assert_eq!(t.state(), (256.0, 1));
        t.restore(f32::NAN, 3);
        assert_eq!(t.scale(), 1.0, "corrupt scale clamps to floor");
    }

    #[test]
    fn restore_clamps_the_clean_step_count_below_the_interval() {
        // Regression: a restored count at u32::MAX overflowed the next
        // `on_success` (a panic with overflow checks, a wrap to 0 that
        // skipped the due growth without them).
        let mut s = DynamicLossScaler::default();
        s.restore(256.0, u32::MAX);
        assert_eq!(s.state(), (256.0, 63));
        s.on_success();
        assert_eq!(s.state(), (512.0, 0), "the due growth happens on the next clean step");
        // Every count the scaler writes itself restores unchanged.
        for good in 0..64 {
            s.restore(256.0, good);
            assert_eq!(s.state(), (256.0, good));
        }
    }

    #[test]
    #[should_panic(expected = "loss scale must be positive")]
    fn rejects_nonpositive_initial_scale() {
        let _ = DynamicLossScaler::new(0.0);
    }
}
