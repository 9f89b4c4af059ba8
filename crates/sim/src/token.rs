//! Token-based hardware synchronization (paper §II-A): small counters that
//! producer units signal and consumer units wait on, ordering accesses to
//! shared buffers without centralized control.

/// A file of token counters shared by the programmable units of one core.
#[derive(Debug, Clone)]
pub struct TokenFile {
    counters: Vec<u32>,
}

impl TokenFile {
    /// Creates `n` token counters, all zero.
    pub(crate) fn new(n: usize) -> Self {
        Self { counters: vec![0; n] }
    }

    /// Signals token `t` once.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub(crate) fn signal(&mut self, t: u8) {
        self.counters[t as usize] += 1;
    }

    /// Attempts to consume `count` signals of token `t`. Returns `true`
    /// and decrements on success; leaves the counter untouched otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub(crate) fn try_consume(&mut self, t: u8, count: u16) -> bool {
        let c = &mut self.counters[t as usize];
        if *c >= u32::from(count) {
            *c -= u32::from(count);
            true
        } else {
            false
        }
    }

    /// All `(token, value)` pairs — attached to deadlock reports so the
    /// hung system's synchronization state is visible.
    pub(crate) fn snapshot(&self) -> Vec<(u8, u32)> {
        self.counters.iter().enumerate().map(|(t, &v)| (t as u8, v)).collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn signal_and_consume() {
        let mut tf = TokenFile::new(4);
        assert!(!tf.try_consume(2, 1));
        tf.signal(2);
        tf.signal(2);
        assert_eq!(tf.counters[2], 2);
        assert!(tf.try_consume(2, 2));
        assert!(!tf.try_consume(2, 1));
    }

    #[test]
    fn tokens_are_independent() {
        let mut tf = TokenFile::new(2);
        tf.signal(0);
        assert!(!tf.try_consume(1, 1));
        assert!(tf.try_consume(0, 1));
    }
}
