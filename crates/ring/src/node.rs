//! Per-node MNI state: the programmable store unit (MNI-SU) with request
//! aggregation and the load unit (MNI-LU) with a load queue supporting
//! multiple outstanding requests and out-of-order returns (paper §III-E,
//! Fig 8).

use crate::channel::FLIT_BYTES;
use rapid_arch::isa::MniInstr;
use std::collections::{BTreeMap, VecDeque};

/// A send waiting for its consumer requests to aggregate.
#[derive(Debug, Clone)]
pub struct PendingSend {
    /// Transfer tag.
    pub tag: u16,
    /// Payload bytes.
    pub bytes: u64,
    /// Consumers that must request before the send posts.
    pub consumers_needed: u8,
    /// Consumer node ids seen so far (the SU "dynamically constructs the
    /// list of consumers").
    pub consumers_seen: Vec<usize>,
}

/// A send actively streaming flits onto the ring.
#[derive(Debug, Clone)]
pub struct ActiveSend {
    /// Transfer tag.
    pub tag: u16,
    /// Destination bitmask.
    pub dests: u64,
    /// Data flits remaining to inject.
    pub flits_left: u64,
}

/// An entry in the MNI-LU load queue: an outstanding `Recv`.
#[derive(Debug, Clone)]
pub struct LoadEntry {
    /// Bytes still expected.
    pub bytes_left: u64,
    /// Local scratchpad address being filled (tracked so returns may
    /// arrive out of order).
    pub local_addr: u32,
}

/// One ring node's MNI state (a core, or the external-memory interface).
#[derive(Debug, Clone)]
pub struct MniNode {
    /// Node id (ring position).
    pub id: usize,
    /// Remaining program.
    pub program: VecDeque<MniInstr>,
    /// Sends awaiting request aggregation, by tag. Ordered map: when two
    /// sends become ready in the same cycle, the node's activation step
    /// must pick the same one every run (lowest tag), or cycle counts
    /// jitter run-to-run.
    pub pending_sends: BTreeMap<u16, PendingSend>,
    /// The send currently streaming (one per node; the ring interface
    /// serializes injections).
    pub active_send: Option<ActiveSend>,
    /// Outstanding receives by tag (the load queue).
    pub load_queue: BTreeMap<u16, LoadEntry>,
    /// Load-queue capacity: programs stall on `Recv` when full.
    pub max_outstanding: usize,
    /// Requests this node still has to put on the ring: `(producer, tag,
    /// bytes, consumers)`.
    pub request_backlog: VecDeque<(usize, u16, u64, u8)>,
    /// Data flits this node must resend because a delivery was dropped
    /// (fault injection): `(tag, destination mask)`. Retransmissions take
    /// priority over new stream flits at the injection stage.
    pub retransmit: VecDeque<(u16, u64)>,
    /// Whether requests alone arm sends (true for the memory-interface
    /// node, which serves reads without a program; cores send only after
    /// their program executes the matching `Send`).
    pub auto_send: bool,
    /// Total payload bytes received.
    pub received_bytes: u64,
    /// Completed receive tags.
    pub completed: Vec<u16>,
}

impl MniNode {
    /// Creates an idle node.
    pub(crate) fn new(id: usize) -> Self {
        Self {
            id,
            program: VecDeque::new(),
            pending_sends: BTreeMap::new(),
            active_send: None,
            load_queue: BTreeMap::new(),
            max_outstanding: 16,
            request_backlog: VecDeque::new(),
            retransmit: VecDeque::new(),
            auto_send: false,
            received_bytes: 0,
            completed: Vec::new(),
        }
    }

    /// Whether the node has no work left.
    pub(crate) fn is_idle(&self) -> bool {
        self.program.is_empty()
            && self.pending_sends.is_empty()
            && self.active_send.is_none()
            && self.load_queue.is_empty()
            && self.request_backlog.is_empty()
            && self.retransmit.is_empty()
    }

    /// Registers an incoming consumer request with the SU; when the group
    /// is complete the send activates ("request aggregation", Fig 8 steps
    /// 4–6). Unknown tags create an implicit pending send (request arrived
    /// before the producer's `Send` executed), which the later `Send`
    /// completes.
    pub(crate) fn accept_request(&mut self, tag: u16, from: usize, bytes: u64, consumers: u8) {
        let entry = self.pending_sends.entry(tag).or_insert(PendingSend {
            tag,
            bytes,
            consumers_needed: 0, // unknown until the local Send executes
            consumers_seen: Vec::new(),
        });
        if !entry.consumers_seen.contains(&from) {
            entry.consumers_seen.push(from);
        }
        entry.bytes = entry.bytes.max(bytes);
        if self.auto_send && entry.consumers_needed == 0 {
            entry.consumers_needed = consumers;
        }
        self.try_activate(tag);
    }

    /// Executes the node's next program instruction if it can proceed.
    /// Returns `true` when an instruction retired this cycle.
    pub(crate) fn step_program(&mut self) -> bool {
        match self.program.front() {
            None => false,
            Some(MniInstr::Recv { tag, from, bytes, local_addr, consumers }) => {
                if self.load_queue.len() >= self.max_outstanding {
                    return false; // stall: load queue full
                }
                let (tag, from, bytes, local_addr, consumers) =
                    (*tag, *from as usize, u64::from(*bytes), *local_addr, *consumers);
                self.load_queue.insert(tag, LoadEntry { bytes_left: bytes, local_addr });
                self.request_backlog.push_back((from, tag, bytes, consumers));
                self.program.pop_front();
                true
            }
            Some(MniInstr::Send { tag, bytes, consumers, .. }) => {
                if self.active_send.is_some() {
                    return false; // previous stream still draining
                }
                let (tag, bytes, consumers) = (*tag, u64::from(*bytes), *consumers);
                let entry = self.pending_sends.entry(tag).or_insert(PendingSend {
                    tag,
                    bytes,
                    consumers_needed: consumers,
                    consumers_seen: Vec::new(),
                });
                entry.consumers_needed = consumers;
                entry.bytes = entry.bytes.max(bytes);
                self.program.pop_front();
                self.try_activate(tag);
                true
            }
        }
    }

    fn try_activate(&mut self, tag: u16) {
        if self.active_send.is_some() {
            return;
        }
        let ready = self
            .pending_sends
            .get(&tag)
            .is_some_and(|p| p.consumers_needed > 0 && p.consumers_seen.len() >= p.consumers_needed as usize);
        if !ready {
            return;
        }
        if let Some(p) = self.pending_sends.remove(&tag) {
            let mut dests = 0u64;
            for c in &p.consumers_seen {
                dests |= 1 << c;
            }
            self.active_send = Some(ActiveSend {
                tag,
                dests,
                flits_left: p.bytes.div_ceil(FLIT_BYTES).max(1),
            });
        }
    }

    /// Re-checks stalled pending sends once the active stream finishes.
    pub(crate) fn activate_next(&mut self) {
        if self.active_send.is_some() {
            return;
        }
        let ready_tag = self
            .pending_sends
            .values()
            .find(|p| p.consumers_needed > 0 && p.consumers_seen.len() >= p.consumers_needed as usize)
            .map(|p| p.tag);
        if let Some(tag) = ready_tag {
            self.try_activate(tag);
        }
    }

    /// Delivers one data flit of `tag` to the LU. Returns `true` when the
    /// whole transfer completed.
    pub(crate) fn accept_data(&mut self, tag: u16) -> bool {
        if let Some(entry) = self.load_queue.get_mut(&tag) {
            let take = entry.bytes_left.min(FLIT_BYTES);
            entry.bytes_left -= take;
            self.received_bytes += take;
            if entry.bytes_left == 0 {
                self.load_queue.remove(&tag);
                self.completed.push(tag);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn send_waits_for_aggregation() {
        let mut n = MniNode::new(0);
        n.program.push_back(MniInstr::Send { tag: 7, bytes: 256, local_addr: 0, consumers: 2 });
        assert!(n.step_program());
        assert!(n.active_send.is_none(), "must wait for 2 requests");
        n.accept_request(7, 1, 256, 2);
        assert!(n.active_send.is_none());
        n.accept_request(7, 2, 256, 2);
        let s = n.active_send.as_ref().expect("aggregated");
        assert_eq!(s.dests, 0b110);
        assert_eq!(s.flits_left, 2);
    }

    #[test]
    fn auto_send_node_serves_requests_without_a_program() {
        let mut m = MniNode::new(5);
        m.auto_send = true;
        m.accept_request(4, 1, 256, 1);
        assert!(m.active_send.is_some(), "memory serves reads directly");
    }

    #[test]
    fn requests_may_arrive_before_send_executes() {
        let mut n = MniNode::new(0);
        n.accept_request(9, 3, 128, 1);
        assert!(n.active_send.is_none(), "no Send yet");
        n.program.push_back(MniInstr::Send { tag: 9, bytes: 128, local_addr: 0, consumers: 1 });
        assert!(n.step_program());
        assert!(n.active_send.is_some());
    }

    #[test]
    fn duplicate_requests_are_idempotent() {
        let mut n = MniNode::new(0);
        n.program.push_back(MniInstr::Send { tag: 1, bytes: 128, local_addr: 0, consumers: 2 });
        n.step_program();
        n.accept_request(1, 4, 128, 2);
        n.accept_request(1, 4, 128, 2);
        assert!(n.active_send.is_none(), "same consumer twice must not aggregate");
    }

    #[test]
    fn load_queue_tracks_out_of_order_returns() {
        let mut n = MniNode::new(2);
        n.program.push_back(MniInstr::Recv { tag: 1, from: 0, bytes: 256, local_addr: 0x100, consumers: 1 });
        n.program.push_back(MniInstr::Recv { tag: 2, from: 1, bytes: 128, local_addr: 0x200, consumers: 1 });
        assert!(n.step_program());
        assert!(n.step_program());
        assert_eq!(n.load_queue.len(), 2);
        // Tag 2 returns first (out of order).
        assert!(n.accept_data(2));
        assert!(!n.accept_data(1));
        assert!(n.accept_data(1));
        assert_eq!(n.received_bytes, 128 + 256);
        assert_eq!(n.completed, vec![2, 1]);
    }

    #[test]
    fn load_queue_capacity_stalls_program() {
        let mut n = MniNode::new(0);
        n.max_outstanding = 1;
        n.program.push_back(MniInstr::Recv { tag: 1, from: 1, bytes: 128, local_addr: 0, consumers: 1 });
        n.program.push_back(MniInstr::Recv { tag: 2, from: 1, bytes: 128, local_addr: 0, consumers: 1 });
        assert!(n.step_program());
        assert!(!n.step_program(), "limit on outstanding requests reached");
        n.accept_data(1);
        assert!(n.step_program(), "slot freed");
    }
}
