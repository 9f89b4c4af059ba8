//! The ring simulator: cores + external-memory interface on a
//! bidirectional ring, with multicast request aggregation.

use crate::channel::{shortest_direction, Channel, Direction, Flit};
use crate::node::MniNode;
use rapid_arch::isa::MniInstr;
use rapid_fault::{DeliveryFault, FaultPlan};
use rapid_telemetry::{MetricsRegistry, TraceSink};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Chrome-trace process id the ring's tracks live under (cores use their
/// own ids as pids; this sits far above any realistic core count).
pub const RING_TRACE_PID: u32 = 1000;

/// Simulation failed to drain within the cycle budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingTimeout {
    /// Cycles executed before giving up.
    pub cycles: u64,
}

impl fmt::Display for RingTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ring simulation did not drain within {} cycles", self.cycles)
    }
}

impl Error for RingTimeout {}

/// Structured errors from ring construction and programming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// A construction parameter is out of the supported range.
    InvalidConfig(String),
    /// A node id addressed a node the ring does not have.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the ring (cores + memory interface).
        nodes: usize,
    },
    /// The simulation did not drain within its cycle budget.
    Timeout(RingTimeout),
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::InvalidConfig(msg) => write!(f, "invalid ring configuration: {msg}"),
            RingError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (ring has {nodes} nodes)")
            }
            RingError::Timeout(t) => t.fmt(f),
        }
    }
}

impl Error for RingError {}

impl From<RingTimeout> for RingError {
    fn from(t: RingTimeout) -> Self {
        RingError::Timeout(t)
    }
}

/// A bidirectional-ring system: `n_cores` cores plus one external-memory
/// interface node (id = `n_cores`), as in the 4-core chip of Fig 9.
#[derive(Debug, Clone)]
pub struct RingSim {
    nodes: Vec<MniNode>,
    cw: Channel,
    ccw: Channel,
    mem_delay: VecDeque<(u64, u16, usize, u64, u8)>, // (ready, tag, from, bytes, consumers)
    mem_latency: u64,
    cycle: u64,
    faults: Option<FaultPlan>,
    trace: Option<TraceSink>,
    cw_holds: Vec<u32>,
    ccw_holds: Vec<u32>,
}

impl RingSim {
    /// Creates a ring of `n_cores` cores and a memory node with the given
    /// request service latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is 0 or the ring would exceed 63 nodes (the
    /// destination bitmask width).
    #[allow(clippy::expect_used)] // infallible wrapper kept for existing callers
    pub fn new(n_cores: usize, mem_latency: u64) -> Self {
        Self::try_new(n_cores, mem_latency).expect("invalid ring configuration")
    }

    /// [`RingSim::new`], returning an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::InvalidConfig`] if `n_cores` is 0 or the ring
    /// would exceed 63 nodes (the destination bitmask width).
    pub fn try_new(n_cores: usize, mem_latency: u64) -> Result<Self, RingError> {
        if n_cores == 0 {
            return Err(RingError::InvalidConfig("need at least one core".into()));
        }
        let n = n_cores + 1;
        if n > 63 {
            return Err(RingError::InvalidConfig(format!(
                "destination mask supports at most 63 nodes, got {n}"
            )));
        }
        let mut nodes: Vec<MniNode> = (0..n).map(MniNode::new).collect();
        nodes[n - 1].auto_send = true; // the memory interface serves reads
        Ok(Self {
            nodes,
            cw: Channel::new(n, Direction::Cw),
            ccw: Channel::new(n, Direction::Ccw),
            mem_delay: VecDeque::new(),
            mem_latency,
            cycle: 0,
            faults: None,
            trace: None,
            cw_holds: vec![0; n],
            ccw_holds: vec![0; n],
        })
    }

    /// Installs a fault plan: subsequent cycles draw drop/duplicate/delay
    /// faults from it. Passing a disabled plan is equivalent to none.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Removes and returns the installed fault plan (with its accumulated
    /// trace and counts).
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.faults.take()
    }

    /// Installs a trace sink: subsequent cycles emit per-node flit events
    /// (`send`, `deliver`, `retransmit`, `duplicate`) on the
    /// [`RING_TRACE_PID`] track group, one thread track per ring node.
    /// Same ownership shape as [`RingSim::set_fault_plan`].
    pub fn set_trace_sink(&mut self, mut sink: TraceSink) {
        for i in 0..self.nodes.len() {
            let name = if i == self.mem_id() {
                "memory".to_string()
            } else {
                format!("node{i}")
            };
            sink.track(RING_TRACE_PID, i as u32, "ring", &name);
        }
        self.trace = Some(sink);
    }

    /// Removes and returns the installed trace sink (with its accumulated
    /// events).
    pub fn take_trace_sink(&mut self) -> Option<TraceSink> {
        self.trace.take()
    }

    /// Accumulates this ring's transport statistics into `reg` under
    /// `<prefix>.`: cycles elapsed, per-channel hop traversals, and total
    /// payload bytes delivered.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        let (cw, ccw) = self.link_hops();
        reg.add(&format!("{prefix}.cycles"), self.cycle);
        reg.add(&format!("{prefix}.cw_hops"), cw);
        reg.add(&format!("{prefix}.ccw_hops"), ccw);
        let bytes: u64 = (0..self.nodes.len()).map(|i| self.received_bytes(i)).sum();
        reg.add(&format!("{prefix}.delivered_bytes"), bytes);
    }

    /// The memory node's id.
    pub(crate) fn mem_id(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Appends instructions to a node's MNI program.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[allow(clippy::expect_used)] // infallible wrapper kept for existing callers
    pub(crate) fn push_program(&mut self, node: usize, instrs: impl IntoIterator<Item = MniInstr>) {
        self.try_push_program(node, instrs).expect("node out of range");
    }

    /// [`RingSim::push_program`], returning an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::NodeOutOfRange`] if `node` is not a valid node
    /// id.
    pub(crate) fn try_push_program(
        &mut self,
        node: usize,
        instrs: impl IntoIterator<Item = MniInstr>,
    ) -> Result<(), RingError> {
        let nodes = self.nodes.len();
        let Some(n) = self.nodes.get_mut(node) else {
            return Err(RingError::NodeOutOfRange { node, nodes });
        };
        n.program.extend(instrs);
        Ok(())
    }

    /// Payload bytes received by a node so far.
    pub fn received_bytes(&self, node: usize) -> u64 {
        self.nodes[node].received_bytes
    }

    /// Total hop-traversals on the (cw, ccw) channels — the
    /// link-utilization statistic multicast is meant to reduce.
    pub fn link_hops(&self) -> (u64, u64) {
        (self.cw.hops, self.ccw.hops)
    }

    /// Whether all programs drained and the ring is empty.
    pub(crate) fn is_idle(&self) -> bool {
        self.cw.is_empty()
            && self.ccw.is_empty()
            && self.mem_delay.is_empty()
            && self.nodes.iter().all(MniNode::is_idle)
    }

    /// Advances the system one cycle.
    pub(crate) fn step(&mut self) {
        self.cycle += 1;
        let n = self.nodes.len();
        let mem = self.mem_id();

        // 1. Delivery: each node inspects the flit (if any) sitting at its
        //    slot on each channel.
        for dir in [Direction::Cw, Direction::Ccw] {
            for i in 0..n {
                let chan = match dir {
                    Direction::Cw => &mut self.cw,
                    Direction::Ccw => &mut self.ccw,
                };
                let slot = chan.at_mut(i);
                let Some(f) = slot else { continue };
                if f.dests & (1 << i) == 0 {
                    continue;
                }
                if f.is_request {
                    let (tag, from, bytes, cons) = (f.tag, f.src, f.req_bytes, f.req_consumers);
                    *slot = None;
                    if i == mem {
                        self.mem_delay.push_back((
                            self.cycle + self.mem_latency,
                            tag,
                            from,
                            bytes,
                            cons,
                        ));
                    } else {
                        self.nodes[i].accept_request(tag, from, bytes, cons);
                    }
                } else {
                    let (tag, src) = (f.tag, f.src);
                    // Delivery faults apply to data flits only: requests
                    // are single control flits the protocol cannot lose.
                    let fate = match self.faults.as_mut() {
                        Some(p) => p.ring_delivery(),
                        None => None,
                    };
                    f.dests &= !(1 << i);
                    let empty = f.dests == 0;
                    if empty {
                        *slot = None;
                    }
                    match fate {
                        Some(DeliveryFault::Drop) => {
                            // This copy is lost at the consumer; the
                            // source retransmits it (link-level retry).
                            self.nodes[src].retransmit.push_back((tag, 1 << i));
                            if let Some(t) = self.trace.as_mut() {
                                t.instant(RING_TRACE_PID, i as u32, "ring", "drop", self.cycle);
                            }
                        }
                        Some(DeliveryFault::Duplicate) => {
                            self.nodes[i].accept_data(tag);
                            self.nodes[i].accept_data(tag);
                            if let Some(t) = self.trace.as_mut() {
                                t.instant(
                                    RING_TRACE_PID,
                                    i as u32,
                                    "ring",
                                    "duplicate",
                                    self.cycle,
                                );
                            }
                        }
                        None => {
                            self.nodes[i].accept_data(tag);
                            if let Some(t) = self.trace.as_mut() {
                                t.instant(RING_TRACE_PID, i as u32, "ring", "deliver", self.cycle);
                            }
                        }
                    }
                }
            }
        }

        // 2. Transport (an installed fault plan may hold flits in place).
        advance_channel(&mut self.cw, &mut self.cw_holds, self.faults.as_mut());
        advance_channel(&mut self.ccw, &mut self.ccw_holds, self.faults.as_mut());

        // 3. Memory service: aged requests reach the memory SU, which
        //    aggregates multicast groups exactly like a core's MNI-SU.
        while let Some(&(ready, tag, from, bytes, cons)) = self.mem_delay.front() {
            if ready > self.cycle {
                break;
            }
            self.mem_delay.pop_front();
            self.nodes[mem].accept_request(tag, from, bytes, cons);
        }

        // 4. Programs.
        for node in &mut self.nodes {
            node.step_program();
        }

        // 5. Injection: one request flit and one data flit per node per
        //    cycle, when slots permit.
        for i in 0..n {
            // Requests route toward the producer on the shorter arc.
            if let Some(&(producer, tag, bytes, cons)) = self.nodes[i].request_backlog.front() {
                let dir = shortest_direction(n, i, producer);
                let chan = match dir {
                    Direction::Cw => &mut self.cw,
                    Direction::Ccw => &mut self.ccw,
                };
                if chan.may_inject(i) {
                    let flit = Flit {
                        tag,
                        src: i,
                        dests: 1 << producer,
                        is_request: true,
                        req_bytes: bytes,
                        req_consumers: cons,
                        last: false,
                    };
                    let ok = chan.inject(i, flit);
                    debug_assert!(ok, "may_inject checked the slot");
                    self.nodes[i].request_backlog.pop_front();
                }
            }
            // Retransmissions of dropped deliveries take this cycle's data
            // slot with priority over new stream flits.
            if let Some(&(tag, dests)) = self.nodes[i].retransmit.front() {
                let d = dests.trailing_zeros() as usize;
                let chan = match shortest_direction(n, i, d) {
                    Direction::Cw => &mut self.cw,
                    Direction::Ccw => &mut self.ccw,
                };
                if chan.may_inject(i) {
                    let flit = Flit {
                        tag,
                        src: i,
                        dests,
                        is_request: false,
                        req_bytes: 0,
                        req_consumers: 0,
                        last: false,
                    };
                    let ok = chan.inject(i, flit);
                    debug_assert!(ok, "may_inject checked the slot");
                    self.nodes[i].retransmit.pop_front();
                    if let Some(t) = self.trace.as_mut() {
                        t.instant(RING_TRACE_PID, i as u32, "ring", "retransmit", self.cycle);
                    }
                }
                continue;
            }
            // Data streams: multicast goes clockwise (all consumers pass),
            // unicast takes the shorter arc.
            let (dests, tag, flits_left) = match &self.nodes[i].active_send {
                Some(s) => (s.dests, s.tag, s.flits_left),
                None => continue,
            };
            let dir = if dests.count_ones() > 1 {
                Direction::Cw
            } else {
                let d = dests.trailing_zeros() as usize;
                shortest_direction(n, i, d)
            };
            let chan = match dir {
                Direction::Cw => &mut self.cw,
                Direction::Ccw => &mut self.ccw,
            };
            if chan.may_inject(i) {
                let flit = Flit {
                    tag,
                    src: i,
                    dests,
                    is_request: false,
                    req_bytes: 0,
                    req_consumers: 0,
                    last: flits_left == 1,
                };
                let ok = chan.inject(i, flit);
                debug_assert!(ok, "may_inject checked the slot");
                if let Some(t) = self.trace.as_mut() {
                    t.instant(RING_TRACE_PID, i as u32, "ring", "send", self.cycle);
                }
                if let Some(s) = self.nodes[i].active_send.as_mut() {
                    s.flits_left -= 1;
                    if s.flits_left == 0 {
                        self.nodes[i].active_send = None;
                        self.nodes[i].activate_next();
                    }
                }
            }
        }
    }

    /// Runs until idle, returning the cycle count.
    ///
    /// # Errors
    ///
    /// Returns [`RingTimeout`] if the system does not drain within
    /// `max_cycles`.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Result<u64, RingTimeout> {
        let start = self.cycle;
        while !self.is_idle() {
            if self.cycle - start >= max_cycles {
                return Err(RingTimeout { cycles: max_cycles });
            }
            self.step();
        }
        Ok(self.cycle - start)
    }
}

/// Advances one channel, first drawing hold faults for occupied slots that
/// are not already held, then decrementing the per-slot hold counters. With
/// no plan installed this is a plain [`Channel::advance`].
fn advance_channel(chan: &mut Channel, holds: &mut [u32], plan: Option<&mut FaultPlan>) {
    if let Some(plan) = plan {
        for (s, hold) in holds.iter_mut().enumerate().take(chan.len()) {
            if *hold == 0 && chan.at(s).is_some() {
                if let Some(cycles) = plan.ring_hold() {
                    *hold = cycles;
                }
            }
        }
    }
    if holds.iter().any(|&h| h > 0) {
        let held: Vec<bool> = holds.iter().map(|&h| h > 0).collect();
        chan.advance_with_holds(&held);
        for h in holds.iter_mut() {
            *h = h.saturating_sub(1);
        }
    } else {
        chan.advance();
    }
}

/// Convenience: a unicast core-to-core transfer program pair.
pub fn unicast(sim: &mut RingSim, tag: u16, producer: usize, consumer: usize, bytes: u32) {
    sim.push_program(
        consumer,
        [MniInstr::Recv { tag, from: producer as u8, bytes, local_addr: 0, consumers: 1 }],
    );
    sim.push_program(producer, [MniInstr::Send { tag, bytes, local_addr: 0, consumers: 1 }]);
}

/// Convenience: a multicast transfer from `producer` to `consumers`.
pub fn multicast(sim: &mut RingSim, tag: u16, producer: usize, consumers: &[usize], bytes: u32) {
    for &c in consumers {
        sim.push_program(
            c,
            [MniInstr::Recv {
                tag,
                from: producer as u8,
                bytes,
                local_addr: 0,
                consumers: consumers.len() as u8,
            }],
        );
    }
    sim.push_program(
        producer,
        [MniInstr::Send { tag, bytes, local_addr: 0, consumers: consumers.len() as u8 }],
    );
}

/// Convenience: a memory read into `consumer` (multi-consumer memory reads
/// aggregate at the memory interface, §III-E).
pub fn memory_read(sim: &mut RingSim, tag: u16, consumers: &[usize], bytes: u32) {
    let mem = sim.mem_id();
    for &c in consumers {
        sim.push_program(
            c,
            [MniInstr::Recv {
                tag,
                from: mem as u8,
                bytes,
                local_addr: 0,
                consumers: consumers.len() as u8,
            }],
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::channel::FLIT_BYTES;
    use rapid_fault::FaultConfig;

    #[test]
    fn unicast_achieves_link_bandwidth() {
        // 128 KiB from core 0 to core 2 on a 4-core ring: 1024 flits at
        // 1 flit/cycle plus small request/propagation overhead.
        let mut sim = RingSim::new(4, 10);
        let bytes = 128 * 1024;
        unicast(&mut sim, 1, 0, 2, bytes);
        let cycles = sim.run_until_idle(10_000).expect("drains");
        assert_eq!(sim.received_bytes(2), u64::from(bytes));
        let flits = u64::from(bytes) / FLIT_BYTES;
        assert!(cycles >= flits, "cannot beat 128 B/cycle");
        assert!(cycles < flits + 30, "overhead too high: {cycles} vs {flits}");
    }

    #[test]
    fn opposite_arcs_transfer_concurrently() {
        // 0→1 (CW) and 3→2 (CCW) use disjoint links: together they take
        // barely longer than either alone.
        let bytes = 64 * 1024;
        let mut solo = RingSim::new(4, 10);
        unicast(&mut solo, 1, 0, 1, bytes);
        let t_solo = solo.run_until_idle(10_000).unwrap();

        let mut both = RingSim::new(4, 10);
        unicast(&mut both, 1, 0, 1, bytes);
        unicast(&mut both, 2, 3, 2, bytes);
        let t_both = both.run_until_idle(10_000).unwrap();
        assert!(t_both < t_solo + 20, "concurrent {t_both} vs solo {t_solo}");
    }

    #[test]
    fn multicast_saves_link_traffic() {
        let bytes = 32 * 1024;
        // Multicast 0 → {1, 2, 3}.
        let mut mc = RingSim::new(4, 10);
        multicast(&mut mc, 5, 0, &[1, 2, 3], bytes);
        mc.run_until_idle(10_000).unwrap();
        for c in [1, 2, 3] {
            assert_eq!(mc.received_bytes(c), u64::from(bytes), "consumer {c}");
        }
        let (mc_cw, mc_ccw) = mc.link_hops();

        // The same delivery as three unicasts.
        let mut uc = RingSim::new(4, 10);
        for (tag, c) in [(1u16, 1usize), (2, 2), (3, 3)] {
            unicast(&mut uc, tag, 0, c, bytes);
        }
        uc.run_until_idle(100_000).unwrap();
        let (uc_cw, uc_ccw) = uc.link_hops();
        // Multicast 0→{1,2,3} streams each flit once over 3 CW hops; the
        // unicast trio pays 1+2+2 hops per flit.
        assert!(
            (mc_cw + mc_ccw) as f64 <= 0.7 * (uc_cw + uc_ccw) as f64,
            "multicast hops {} vs unicast {}",
            mc_cw + mc_ccw,
            uc_cw + uc_ccw
        );
    }

    #[test]
    fn multicast_waits_for_every_consumer() {
        // One consumer's Recv arrives late: nothing is delivered before
        // the aggregation completes.
        let mut sim = RingSim::new(4, 0);
        let bytes = 1024u32;
        sim.push_program(
            1,
            [MniInstr::Recv { tag: 9, from: 0, bytes, local_addr: 0, consumers: 2 }],
        );
        sim.push_program(0, [MniInstr::Send { tag: 9, bytes, local_addr: 0, consumers: 2 }]);
        for _ in 0..200 {
            sim.step();
        }
        assert_eq!(sim.received_bytes(1), 0, "must wait for consumer 2's request");
        sim.push_program(
            2,
            [MniInstr::Recv { tag: 9, from: 0, bytes, local_addr: 0, consumers: 2 }],
        );
        sim.run_until_idle(10_000).unwrap();
        assert_eq!(sim.received_bytes(1), u64::from(bytes));
        assert_eq!(sim.received_bytes(2), u64::from(bytes));
    }

    #[test]
    fn memory_reads_respect_latency_and_complete_out_of_order() {
        let mut sim = RingSim::new(4, 50);
        memory_read(&mut sim, 1, &[0], 8 * 1024); // long transfer
        memory_read(&mut sim, 2, &[1], 128); // short transfer
        let cycles = sim.run_until_idle(10_000).unwrap();
        assert!(cycles > 50, "memory latency must show up");
        assert_eq!(sim.received_bytes(0), 8 * 1024);
        assert_eq!(sim.received_bytes(1), 128);
        // The short read finishes while the long one still streams.
        assert_eq!(sim.nodes[1].completed, [2]);
    }

    #[test]
    fn two_streams_deliver_two_returns_per_cycle() {
        // Core 1 receives from core 0 (CW arc) and core 2 (CCW arc)
        // simultaneously — the MNI-LU takes 2 data returns per cycle, so
        // the pair takes about as long as one.
        let bytes = 64 * 1024;
        let mut solo = RingSim::new(4, 10);
        unicast(&mut solo, 1, 0, 1, bytes);
        let t_solo = solo.run_until_idle(100_000).unwrap();

        let mut dual = RingSim::new(4, 10);
        unicast(&mut dual, 1, 0, 1, bytes);
        unicast(&mut dual, 2, 2, 1, bytes);
        let t_dual = dual.run_until_idle(100_000).unwrap();
        assert!(t_dual < t_solo + 20, "dual {t_dual} vs solo {t_solo}");
        assert_eq!(dual.received_bytes(1), 2 * u64::from(bytes));
    }

    #[test]
    fn try_new_and_try_push_program_reject_bad_args() {
        assert!(matches!(RingSim::try_new(0, 10), Err(RingError::InvalidConfig(_))));
        assert!(matches!(RingSim::try_new(63, 10), Err(RingError::InvalidConfig(_))));
        let mut sim = RingSim::try_new(4, 10).unwrap();
        let err = sim
            .try_push_program(
                9,
                [MniInstr::Send { tag: 1, bytes: 128, local_addr: 0, consumers: 1 }],
            )
            .unwrap_err();
        assert_eq!(err, RingError::NodeOutOfRange { node: 9, nodes: 5 });
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn transfers_complete_exactly_under_drop_faults() {
        // Dropped deliveries retransmit: every byte still arrives exactly
        // once, it just takes longer.
        let bytes = 16 * 1024;
        let mut sim = RingSim::new(4, 10);
        sim.set_fault_plan(FaultPlan::new(FaultConfig {
            seed: 11,
            ring_drop_rate: 0.05,
            ..FaultConfig::default()
        }));
        unicast(&mut sim, 1, 0, 2, bytes);
        sim.run_until_idle(100_000).expect("drains despite drops");
        assert_eq!(sim.received_bytes(2), u64::from(bytes));
        let plan = sim.take_fault_plan().unwrap();
        assert!(plan.counts().ring_drops > 0, "plan should have fired");
    }

    #[test]
    fn duplicates_do_not_inflate_received_bytes() {
        let bytes = 16 * 1024;
        let mut sim = RingSim::new(4, 10);
        sim.set_fault_plan(FaultPlan::new(FaultConfig {
            seed: 3,
            ring_dup_rate: 0.1,
            ..FaultConfig::default()
        }));
        unicast(&mut sim, 1, 0, 2, bytes);
        sim.run_until_idle(100_000).expect("drains");
        assert!(sim.take_fault_plan().unwrap().counts().ring_dups > 0);
        // bytes_left accounting self-caps each take, so duplicates shorten
        // the tail instead of over-counting.
        assert_eq!(sim.received_bytes(2), u64::from(bytes));
    }

    #[test]
    fn delays_slow_but_do_not_wedge_the_ring() {
        let bytes = 8 * 1024;
        let mut clean = RingSim::new(4, 10);
        unicast(&mut clean, 1, 0, 2, bytes);
        let t_clean = clean.run_until_idle(100_000).unwrap();

        let mut faulty = RingSim::new(4, 10);
        faulty.set_fault_plan(FaultPlan::new(FaultConfig {
            seed: 7,
            ring_delay_rate: 0.05,
            ring_delay_cycles: 8,
            ..FaultConfig::default()
        }));
        unicast(&mut faulty, 1, 0, 2, bytes);
        let t_faulty = faulty.run_until_idle(1_000_000).expect("drains despite delays");
        assert_eq!(faulty.received_bytes(2), u64::from(bytes));
        assert!(faulty.take_fault_plan().unwrap().counts().ring_holds > 0);
        assert!(t_faulty > t_clean, "holds must cost cycles: {t_faulty} vs {t_clean}");
    }

    #[test]
    fn multicast_survives_combined_faults() {
        let bytes = 8 * 1024;
        let mut sim = RingSim::new(4, 10);
        sim.set_fault_plan(FaultPlan::new(FaultConfig {
            seed: 23,
            ring_drop_rate: 0.02,
            ring_dup_rate: 0.02,
            ring_delay_rate: 0.02,
            ..FaultConfig::default()
        }));
        multicast(&mut sim, 5, 0, &[1, 2, 3], bytes);
        sim.run_until_idle(1_000_000).expect("drains");
        for c in [1, 2, 3] {
            assert_eq!(sim.received_bytes(c), u64::from(bytes), "consumer {c}");
        }
    }

    #[test]
    fn same_seed_reproduces_identical_fault_history() {
        let run = || {
            let mut sim = RingSim::new(4, 10);
            sim.set_fault_plan(FaultPlan::new(FaultConfig {
                seed: 42,
                ring_drop_rate: 0.03,
                ring_delay_rate: 0.03,
                ..FaultConfig::default()
            }));
            unicast(&mut sim, 1, 0, 2, 8 * 1024);
            let cycles = sim.run_until_idle(1_000_000).unwrap();
            let plan = sim.take_fault_plan().unwrap();
            (cycles, plan.trace().to_vec(), plan.counts())
        };
        let (c1, t1, n1) = run();
        let (c2, t2, n2) = run();
        assert_eq!(c1, c2);
        assert_eq!(t1, t2);
        assert_eq!(n1, n2);
    }

    #[test]
    fn timeout_reports_error() {
        let mut sim = RingSim::new(2, 0);
        // A Recv with no matching Send never completes.
        sim.push_program(
            0,
            [MniInstr::Recv { tag: 1, from: 1, bytes: 128, local_addr: 0, consumers: 1 }],
        );
        let err = sim.run_until_idle(100).unwrap_err();
        assert_eq!(err.cycles, 100);
        assert!(err.to_string().contains("did not drain"));
    }
}
