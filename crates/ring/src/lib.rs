//! # rapid-ring
//!
//! The RaPiD on-chip interconnect (paper §III-E, Fig 8): a bidirectional
//! ring moving 128 bytes/cycle in each direction between cores and the
//! external-memory interface, driven by each core's programmable
//! Memory/Neighbor Interface (MNI).
//!
//! Modeled faithfully:
//!
//! * slotted ring transport with hop-by-hop stalling ([`channel`]);
//! * MNI load units with load queues, multiple outstanding requests, and
//!   out-of-order data returns — up to **2 returns per cycle** by taking
//!   one flit from each direction ([`node`]);
//! * MNI store units with **multicast request aggregation**: a `Send`
//!   posts only after every participating consumer's `Recv` request with
//!   the matching tag has arrived, then one flit stream serves the whole
//!   group ([`sim`]);
//! * a memory-interface node with a service latency that aggregates
//!   multi-core reads of shared data the same way.
//!
//! The simulator is timing-only (bytes, not values); its measured
//! effective bandwidths back the communication constants used by
//! `rapid-model`, and the `ring_bandwidth` bench regenerates them.
//!
//! # Example
//!
//! ```
//! use rapid_ring::sim::{multicast, RingSim};
//!
//! let mut sim = RingSim::new(4, 10);
//! multicast(&mut sim, 1, 0, &[1, 2, 3], 4096);
//! let cycles = sim.run_until_idle(10_000)?;
//! assert!(cycles > 0);
//! assert_eq!(sim.received_bytes(3), 4096);
//! # Ok::<(), rapid_ring::sim::RingTimeout>(())
//! ```

// unwrap/expect denial comes from [workspace.lints] in the root manifest.

pub mod allreduce;
pub mod channel;
pub mod crc;
pub mod elastic;
pub mod node;
pub mod reliable;
pub mod sim;

pub use allreduce::{analytic_allreduce_cycles, simulate_allreduce, AllReduceConfig, AllReduceResult};
pub use crc::{crc8, crc8_f32, CRC8_POLY};
pub use elastic::{
    demote_unhealthy, elastic_allreduce, ElasticConfig, ElasticError, ElasticEvent, ElasticHealth,
    ElasticOutcome, HeartbeatDetector, Membership,
};
pub use reliable::{reliable_allreduce, ReliableConfig, ReliableError, RingHealth};
pub use channel::{Channel, Direction, Flit, FLIT_BYTES};
pub use node::MniNode;
pub use sim::{memory_read, multicast, unicast, RingError, RingSim, RingTimeout, RING_TRACE_PID};
