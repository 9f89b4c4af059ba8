//! Forward-progress watchdogs: change-detection over a composite progress
//! marker that converts a wedged simulation (token-wait cycles, starved
//! links that will never fill) into a structured [`SimError::Deadlock`]
//! report in bounded time, instead of an unbounded spin or a bare panic.

use crate::error::SimError;
use crate::seq::{Link, Scratchpad, Sequencer};
use crate::token::TokenFile;
use rapid_arch::isa::SeqInstr;

/// Default no-progress window, in cycles. Chosen far above any legitimate
/// stall the core simulator produces (block loads, pipeline fills,
/// fault-injected sequencer stalls of tens of cycles) so the watchdog
/// never trips on a healthy run.
pub const DEFAULT_WATCHDOG_WINDOW: u64 = 100_000;

/// A no-forward-progress detector.
///
/// Callers feed it a *progress marker* — any counter-like composite that
/// changes whenever the machine does useful work — once per cycle. If the
/// marker holds the same value for a whole window of cycles, the watchdog
/// trips.
#[derive(Debug, Clone)]
pub struct Watchdog {
    window: u64,
    last_marker: u64,
    last_change_cycle: u64,
    primed: bool,
}

impl Watchdog {
    /// Creates a watchdog that trips after `window` cycles without a
    /// marker change (`window` is clamped to at least 1).
    pub(crate) fn new(window: u64) -> Self {
        Self { window: window.max(1), last_marker: 0, last_change_cycle: 0, primed: false }
    }

    /// Observes the marker at `cycle`. Returns `true` when the marker has
    /// been static for the whole window — the caller should abort with a
    /// deadlock report.
    pub(crate) fn observe(&mut self, cycle: u64, marker: u64) -> bool {
        if !self.primed || marker != self.last_marker {
            self.primed = true;
            self.last_marker = marker;
            self.last_change_cycle = cycle;
            return false;
        }
        cycle.saturating_sub(self.last_change_cycle) >= self.window
    }
}

/// Runs a set of data-sequencing programs against one shared token file
/// until every program retires, returning the cycle count.
///
/// Each program gets its own generously sized link and an unlimited port
/// budget, so the only way to block is token synchronization — this is the
/// harness for demonstrating (and testing) that a *cyclic* token
/// dependency produces a clean [`SimError::Deadlock`] rather than a hang.
///
/// # Errors
///
/// Returns [`SimError::Deadlock`] with per-sequencer snapshots and the
/// token counter values when no sequencer makes progress for `window`
/// cycles.
pub fn run_token_programs(
    programs: &[Vec<SeqInstr>],
    n_tokens: usize,
    window: u64,
) -> Result<u64, SimError> {
    let spad = Scratchpad::new(4096);
    let mut seqs: Vec<Sequencer> = programs.iter().map(|p| Sequencer::new(p.clone(), 2.0)).collect();
    let mut links: Vec<Link> = programs.iter().map(|_| Link::new(1 << 20)).collect();
    let mut tokens = TokenFile::new(n_tokens);
    let mut dog = Watchdog::new(window);
    let mut cycle = 0u64;
    while seqs.iter().any(|s| !s.is_done()) {
        for (seq, link) in seqs.iter_mut().zip(links.iter_mut()) {
            let mut budget = f64::INFINITY;
            seq.tick(&spad, link, &mut tokens, &mut budget);
        }
        cycle += 1;
        // Marker: retired pcs + streamed elements + signalled tokens. Any
        // of these moving means the system is not wedged.
        let marker = seqs
            .iter()
            .map(|s| s.pc() as u64 + s.elems_moved)
            .sum::<u64>()
            .wrapping_add(tokens.snapshot().iter().map(|&(_, v)| u64::from(v)).sum::<u64>());
        if dog.observe(cycle, marker) {
            return Err(SimError::Deadlock {
                cycle,
                sequencer_states: seqs
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.snapshot(format!("seq{i}")))
                    .collect(),
                waiting_tokens: tokens.snapshot(),
            });
        }
    }
    Ok(cycle)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_does_not_trip_while_marker_moves() {
        let mut dog = Watchdog::new(10);
        for c in 0..1000 {
            assert!(!dog.observe(c, c), "marker changes every cycle");
        }
    }

    #[test]
    fn watchdog_trips_after_exactly_one_window() {
        let mut dog = Watchdog::new(10);
        assert!(!dog.observe(0, 42));
        for c in 1..10 {
            assert!(!dog.observe(c, 42), "cycle {c} is inside the window");
        }
        assert!(dog.observe(10, 42));
    }

    #[test]
    fn independent_programs_finish() {
        // Producer signals, consumer waits: completes.
        let producer = vec![SeqInstr::Read { addr: 0, len: 4, stride: 1 }, SeqInstr::SignalToken { token: 0 }];
        let consumer = vec![SeqInstr::WaitToken { token: 0, count: 1 }, SeqInstr::Read { addr: 0, len: 4, stride: 1 }];
        let cycles = run_token_programs(&[producer, consumer], 1, 100).expect("no deadlock");
        assert!(cycles > 0);
    }

    #[test]
    fn token_cycle_deadlocks_with_clean_report() {
        // A waits on token 1 before signalling 0; B waits on 0 before
        // signalling 1: a classic circular wait.
        let a = vec![SeqInstr::WaitToken { token: 1, count: 1 }, SeqInstr::SignalToken { token: 0 }];
        let b = vec![SeqInstr::WaitToken { token: 0, count: 1 }, SeqInstr::SignalToken { token: 1 }];
        let err = run_token_programs(&[a, b], 2, 50).expect_err("must deadlock");
        match err {
            SimError::Deadlock { cycle, sequencer_states, waiting_tokens } => {
                assert!((50..200).contains(&cycle), "bounded detection, got {cycle}");
                assert_eq!(sequencer_states.len(), 2);
                assert_eq!(sequencer_states[0].waiting_on, Some((1, 1)));
                assert_eq!(sequencer_states[1].waiting_on, Some((0, 1)));
                assert_eq!(waiting_tokens, vec![(0, 0), (1, 0)]);
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }
}
