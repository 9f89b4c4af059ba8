//! Ring channels: slotted, register-per-hop transport, 128 bytes/cycle in
//! each direction (paper §III-E).

/// Bytes carried by one ring flit (the 128 B/cycle link width).
pub const FLIT_BYTES: u64 = 128;

/// Travel direction around the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Clockwise: slot `i` advances to slot `i + 1`.
    Cw,
    /// Counter-clockwise: slot `i` advances to slot `i − 1`.
    Ccw,
}

/// One flit in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flit {
    /// Transfer identification tag (paper: unique per transfer).
    pub tag: u16,
    /// Originating node.
    pub src: usize,
    /// Destination bitmask (bit `i` = node `i` still needs a copy);
    /// multicast flits carry several set bits and are copied at each
    /// consumer, disappearing after the last one.
    pub dests: u64,
    /// `true` for a 1-flit `Recv` request message (control), `false` for a
    /// data flit.
    pub is_request: bool,
    /// For request flits: total bytes requested.
    pub req_bytes: u64,
    /// For request flits: number of consumers participating in the
    /// multicast group.
    pub req_consumers: u8,
    /// `true` on the final data flit of a transfer.
    pub last: bool,
}

/// A unidirectional slotted ring channel.
#[derive(Debug, Clone)]
pub struct Channel {
    slots: Vec<Option<Flit>>,
    dir: Direction,
    /// Total hop-traversals (for link-utilization statistics).
    pub hops: u64,
}

impl Channel {
    /// Creates a channel with one slot per node.
    pub(crate) fn new(n: usize, dir: Direction) -> Self {
        Self { slots: vec![None; n], dir, hops: 0 }
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether every slot is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Number of free slots.
    pub(crate) fn free_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }

    /// Bubble flow control: a node may inject only while at least one
    /// bubble (free slot) would remain afterwards — otherwise a fully
    /// occupied ring with no flit at its destination deadlocks.
    pub(crate) fn may_inject(&self, i: usize) -> bool {
        self.slots[i].is_none() && self.free_slots() >= 2
    }

    /// The flit currently at node `i`'s slot.
    pub(crate) fn at(&self, i: usize) -> Option<&Flit> {
        self.slots[i].as_ref()
    }

    /// Mutable access to node `i`'s slot (ejection/consumption).
    pub(crate) fn at_mut(&mut self, i: usize) -> &mut Option<Flit> {
        &mut self.slots[i]
    }

    /// Injects a flit at node `i` if the slot is free. Returns `false`
    /// (and keeps the flit out) when occupied.
    pub(crate) fn inject(&mut self, i: usize, flit: Flit) -> bool {
        if self.slots[i].is_some() {
            return false;
        }
        self.slots[i] = Some(flit);
        true
    }

    /// Advances every flit one hop where the next slot frees up this
    /// cycle; bunched flits stall behind occupied slots.
    pub(crate) fn advance(&mut self) {
        self.advance_with_holds(&[]);
    }

    /// [`Channel::advance`], but slots flagged in `held` keep their flit in
    /// place this cycle (fault injection models a slow repeater /
    /// transient backpressure); upstream flits stall behind a held one
    /// exactly as behind any other blockage. Indices beyond `held.len()`
    /// are treated as not held, so `&[]` is a plain advance.
    pub(crate) fn advance_with_holds(&mut self, held: &[bool]) {
        let n = self.slots.len();
        if n == 0 {
            return;
        }
        let is_held = |i: usize| held.get(i).copied().unwrap_or(false);
        let mut moves = vec![false; n];
        // A flit moves if its next slot is empty, or its occupant moves
        // too: propagate backwards along the travel direction from every
        // empty slot, stopping at held flits.
        for e in 0..n {
            if self.slots[e].is_some() {
                continue;
            }
            let mut j = self.prev(e);
            while self.slots[j].is_some() && !moves[j] && !is_held(j) {
                moves[j] = true;
                j = self.prev(j);
                if j == e {
                    break;
                }
            }
        }
        let mut next: Vec<Option<Flit>> = vec![None; n];
        for i in 0..n {
            if let Some(f) = self.slots[i].take() {
                if moves[i] {
                    next[self.next(i)] = Some(f);
                    self.hops += 1;
                } else {
                    next[i] = Some(f);
                }
            }
        }
        self.slots = next;
    }

    /// The slot a flit at `i` advances to.
    pub(crate) fn next(&self, i: usize) -> usize {
        let n = self.slots.len();
        match self.dir {
            Direction::Cw => (i + 1) % n,
            Direction::Ccw => (i + n - 1) % n,
        }
    }

    /// The slot upstream of `i`.
    pub(crate) fn prev(&self, i: usize) -> usize {
        let n = self.slots.len();
        match self.dir {
            Direction::Cw => (i + n - 1) % n,
            Direction::Ccw => (i + 1) % n,
        }
    }
}

/// Hop count from `src` to `dst` travelling in `dir` on an `n`-ring.
pub(crate) fn distance(n: usize, src: usize, dst: usize, dir: Direction) -> usize {
    match dir {
        Direction::Cw => (dst + n - src) % n,
        Direction::Ccw => (src + n - dst) % n,
    }
}

/// The shorter travel direction from `src` to `dst`.
pub(crate) fn shortest_direction(n: usize, src: usize, dst: usize) -> Direction {
    if distance(n, src, dst, Direction::Cw) <= distance(n, src, dst, Direction::Ccw) {
        Direction::Cw
    } else {
        Direction::Ccw
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn flit(tag: u16) -> Flit {
        Flit { tag, src: 0, dests: 1 << 3, is_request: false, req_bytes: 0, req_consumers: 0, last: false }
    }

    #[test]
    fn flit_advances_one_hop_per_cycle() {
        let mut c = Channel::new(5, Direction::Cw);
        assert!(c.inject(0, flit(1)));
        for i in 1..=3 {
            c.advance();
            assert!(c.at(i).is_some(), "flit should be at {i}");
        }
        assert_eq!(c.hops, 3);
    }

    #[test]
    fn ccw_advances_the_other_way() {
        let mut c = Channel::new(5, Direction::Ccw);
        assert!(c.inject(0, flit(1)));
        c.advance();
        assert!(c.at(4).is_some());
    }

    #[test]
    fn flits_stall_behind_blockage() {
        let mut c = Channel::new(4, Direction::Cw);
        assert!(c.inject(0, flit(1)));
        assert!(c.inject(1, flit(2)));
        assert!(c.inject(2, flit(3)));
        // Slot 3 empty: everyone shuffles forward one.
        c.advance();
        assert!(c.at(0).is_none());
        assert_eq!(c.at(1).unwrap().tag, 1);
        assert_eq!(c.at(2).unwrap().tag, 2);
        assert_eq!(c.at(3).unwrap().tag, 3);
    }

    #[test]
    fn full_ring_does_not_move() {
        let mut c = Channel::new(3, Direction::Cw);
        for i in 0..3 {
            assert!(c.inject(i, flit(i as u16)));
        }
        c.advance();
        for i in 0..3 {
            assert_eq!(c.at(i).unwrap().tag, i as u16);
        }
        assert_eq!(c.hops, 0);
    }

    #[test]
    fn held_slot_stalls_itself_and_followers() {
        let mut c = Channel::new(5, Direction::Cw);
        assert!(c.inject(0, flit(1)));
        assert!(c.inject(1, flit(2)));
        // Hold the flit at slot 1: neither it nor the one behind moves.
        c.advance_with_holds(&[false, true, false, false, false]);
        assert_eq!(c.at(0).unwrap().tag, 1);
        assert_eq!(c.at(1).unwrap().tag, 2);
        assert_eq!(c.hops, 0);
        // Released: both move.
        c.advance_with_holds(&[]);
        assert_eq!(c.at(1).unwrap().tag, 1);
        assert_eq!(c.at(2).unwrap().tag, 2);
    }

    #[test]
    fn cannot_inject_into_occupied_slot() {
        let mut c = Channel::new(3, Direction::Cw);
        assert!(c.inject(1, flit(1)));
        assert!(!c.inject(1, flit(2)));
    }

    #[test]
    fn distances_and_direction_choice() {
        assert_eq!(distance(8, 1, 3, Direction::Cw), 2);
        assert_eq!(distance(8, 1, 3, Direction::Ccw), 6);
        assert_eq!(shortest_direction(8, 1, 3), Direction::Cw);
        assert_eq!(shortest_direction(8, 1, 7), Direction::Ccw);
    }
}
