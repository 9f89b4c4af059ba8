//! Data-sequencing machinery: scratchpads, bounded links and the
//! programmable sequencers at the end points of each link (paper §II-A's
//! decoupled access–execute organization).

use crate::ecc::{self, Decoded};
use crate::token::TokenFile;
use rapid_arch::isa::SeqInstr;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

/// SECDED state of an ECC-protected scratchpad, kept as its upsets alone:
/// word `a` stores the codeword `encode(data[a]) ^ upsets[a]`, and every
/// write re-encodes (clears) its word's mask. A word without an upset
/// holds its clean codeword, so its read skips the decoder. Reads correct
/// through [`Cell`]s so `Scratchpad::read(&self)` keeps its shared-borrow
/// signature — exactly like real ECC logic, which corrects on the read
/// path without a store port.
#[derive(Debug, Clone, Default)]
struct EccState {
    /// Address → nonzero XOR mask of the codeword bits upset there.
    upsets: BTreeMap<usize, u64>,
    /// Single-bit errors corrected on read.
    sec: Cell<u64>,
    /// Double-bit errors detected on read.
    ded: Cell<u64>,
    /// First uncorrectable address seen, awaiting escalation.
    pending: Cell<Option<usize>>,
}

/// A scratchpad holding `f32` element values (each an exact member of the
/// stored format's value set). Addressing is in elements; bandwidth
/// accounting converts to bytes with the stream's element width.
///
/// With [`Scratchpad::with_ecc`] every word is stored as a SECDED(39,32)
/// codeword: single-bit upsets (see [`Scratchpad::inject_flip`]) are
/// corrected transparently on read, double-bit upsets are detected and
/// parked for the machine to escalate via
/// [`Scratchpad::take_uncorrectable`]. On clean data the ECC path is
/// bit-identical to the unprotected path, and it stores no codewords:
/// only the injected upsets are kept (see `EccState`).
#[derive(Debug, Clone)]
pub struct Scratchpad {
    data: Vec<f32>,
    ecc: Option<EccState>,
}

impl Scratchpad {
    /// Creates a scratchpad of `n` elements (unprotected).
    pub fn new(n: usize) -> Self {
        Self { data: vec![0.0; n], ecc: None }
    }

    /// Enables SECDED protection over the current contents (O(1): they
    /// start without upsets).
    pub fn with_ecc(mut self) -> Self {
        self.ecc = Some(EccState::default());
        self
    }

    /// Single-bit errors corrected on read so far.
    pub fn ecc_sec(&self) -> u64 {
        self.ecc.as_ref().map_or(0, |e| e.sec.get())
    }

    /// Double-bit errors detected on read so far.
    pub fn ecc_ded(&self) -> u64 {
        self.ecc.as_ref().map_or(0, |e| e.ded.get())
    }

    /// Takes the pending uncorrectable-error address, if a read hit a
    /// double-bit upset since the last call. The machine must escalate
    /// this — the delivered data was corrupt.
    pub fn take_uncorrectable(&self) -> Option<usize> {
        self.ecc.as_ref().and_then(|e| e.pending.take())
    }

    /// Flips one stored bit at `addr` (a particle strike). With ECC on,
    /// `bit` addresses the 39-bit codeword (data, check, or parity bits
    /// all hittable); without ECC only the 32 data bits exist, and flips
    /// aimed at the (absent) check bits are no-ops.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn inject_flip(&mut self, addr: usize, bit: u32) {
        assert!(addr < self.len(), "flip at {addr} outside the scratchpad");
        match &mut self.ecc {
            Some(e) => {
                let mask = e.upsets.entry(addr).or_insert(0);
                *mask ^= 1u64 << (bit % ecc::CODEWORD_BITS);
                if *mask == 0 {
                    e.upsets.remove(&addr);
                }
            }
            None => {
                if bit < 32 {
                    self.data[addr] = f32::from_bits(self.data[addr].to_bits() ^ (1 << bit));
                }
            }
        }
    }

    /// Element count.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Reads one element, decoding/correcting through ECC when enabled.
    pub fn read(&self, addr: usize) -> f32 {
        let data = self.data[addr];
        let Some(e) = &self.ecc else { return data };
        let Some(&mask) = e.upsets.get(&addr) else { return data };
        let stored = ecc::encode(data.to_bits()) ^ mask;
        match ecc::decode(stored) {
            Decoded::Clean => data,
            Decoded::CorrectedData(bits) => {
                e.sec.set(e.sec.get() + 1);
                f32::from_bits(bits)
            }
            Decoded::CorrectedCheck => {
                e.sec.set(e.sec.get() + 1);
                data
            }
            Decoded::DoubleError => {
                e.ded.set(e.ded.get() + 1);
                if e.pending.get().is_none() {
                    e.pending.set(Some(addr));
                }
                // The hardware delivers the (corrupt) raw word; the
                // escalation path keeps it from being trusted.
                f32::from_bits(ecc::data_of(stored))
            }
        }
    }

    /// Writes one element (re-encoding the codeword when ECC is on).
    pub fn write(&mut self, addr: usize, v: f32) {
        self.data[addr] = v;
        if let Some(e) = &mut self.ecc {
            e.upsets.remove(&addr);
        }
    }

    /// Bulk-stores a slice starting at `addr` (job setup).
    ///
    /// # Panics
    ///
    /// Panics if the region does not fit.
    pub fn store_slice(&mut self, addr: usize, values: &[f32]) {
        self.data[addr..addr + values.len()].copy_from_slice(values);
        if let Some(e) = &mut self.ecc {
            e.upsets.retain(|a, _| !(addr..addr + values.len()).contains(a));
        }
    }
}

/// A bounded FIFO link between units, carrying element values.
#[derive(Debug, Clone)]
pub struct Link {
    queue: VecDeque<f32>,
    capacity: usize,
}

impl Link {
    /// Creates a link buffering up to `capacity` elements.
    pub(crate) fn new(capacity: usize) -> Self {
        Self { queue: VecDeque::with_capacity(capacity), capacity }
    }

    /// Free slots.
    pub(crate) fn space(&self) -> usize {
        self.capacity - self.queue.len()
    }

    /// Pushes an element; returns `false` when full.
    pub(crate) fn push(&mut self, v: f32) -> bool {
        if self.queue.len() == self.capacity {
            return false;
        }
        self.queue.push_back(v);
        true
    }

    /// Pops the head element.
    pub(crate) fn pop(&mut self) -> Option<f32> {
        self.queue.pop_front()
    }
}

/// Execution state of one data-sequencing program.
#[derive(Debug, Clone)]
pub struct Sequencer {
    program: Vec<SeqInstr>,
    pc: usize,
    loop_stack: Vec<(usize, u32)>, // (body start pc, iterations remaining)
    read_progress: u32,            // elements already pushed of the current Read
    /// Bytes each streamed element occupies (precision dependent).
    pub elem_bytes: f64,
    /// Elements pushed in total (statistics).
    pub elems_moved: u64,
    /// Cycles this sequencer spent stalled on tokens or link backpressure.
    pub stall_cycles: u64,
}

impl Sequencer {
    /// Creates a sequencer for a program streaming `elem_bytes`-wide
    /// elements.
    pub(crate) fn new(program: Vec<SeqInstr>, elem_bytes: f64) -> Self {
        Self {
            program,
            pc: 0,
            loop_stack: Vec::new(),
            read_progress: 0,
            elem_bytes,
            elems_moved: 0,
            stall_cycles: 0,
        }
    }

    /// Whether the program has retired completely.
    pub(crate) fn is_done(&self) -> bool {
        self.pc >= self.program.len()
    }

    /// Current program counter.
    pub(crate) fn pc(&self) -> usize {
        self.pc
    }

    /// The `(token, count)` this sequencer is blocked on, when its current
    /// instruction is a `WaitToken` (the watchdog uses this to name the
    /// blocking token in deadlock reports).
    pub(crate) fn waiting_on(&self) -> Option<(u8, u16)> {
        match self.program.get(self.pc) {
            Some(SeqInstr::WaitToken { token, count }) => Some((*token, *count)),
            _ => None,
        }
    }

    /// Dumps this sequencer's state for a deadlock report.
    pub(crate) fn snapshot(&self, name: String) -> crate::error::SeqSnapshot {
        crate::error::SeqSnapshot {
            name,
            pc: self.pc,
            program_len: self.program.len(),
            waiting_on: self.waiting_on(),
            elems_moved: self.elems_moved,
            stall_cycles: self.stall_cycles,
        }
    }

    /// Runs one cycle: advances through control instructions (loops,
    /// tokens are free), then streams elements of the current `Read` into
    /// `link`, limited by the link's space and the shared L1 port budget
    /// `port_bytes` (decremented by the bytes actually moved).
    pub(crate) fn tick(
        &mut self,
        spad: &Scratchpad,
        link: &mut Link,
        tokens: &mut TokenFile,
        port_bytes: &mut f64,
    ) {
        let mut made_progress = false;
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(instr) = self.program.get(self.pc).copied() else { break };
            match instr {
                SeqInstr::LoopBegin { count } => {
                    if count == 0 {
                        // Skip to the matching LoopEnd.
                        let mut depth = 1;
                        let mut pc = self.pc + 1;
                        while pc < self.program.len() && depth > 0 {
                            match self.program[pc] {
                                SeqInstr::LoopBegin { .. } => depth += 1,
                                SeqInstr::LoopEnd => depth -= 1,
                                _ => {}
                            }
                            pc += 1;
                        }
                        self.pc = pc;
                    } else {
                        self.loop_stack.push((self.pc + 1, count));
                        self.pc += 1;
                    }
                }
                SeqInstr::LoopEnd => {
                    let Some(top) = self.loop_stack.last_mut() else {
                        self.pc += 1; // tolerate unmatched end
                        continue;
                    };
                    top.1 -= 1;
                    if top.1 == 0 {
                        self.loop_stack.pop();
                        self.pc += 1;
                    } else {
                        self.pc = top.0;
                    }
                }
                SeqInstr::SignalToken { token } => {
                    tokens.signal(token);
                    self.pc += 1;
                }
                SeqInstr::WaitToken { token, count } => {
                    if tokens.try_consume(token, count) {
                        self.pc += 1;
                    } else {
                        if !made_progress {
                            self.stall_cycles += 1;
                        }
                        return; // blocked this cycle
                    }
                }
                SeqInstr::Read { addr, len, stride } => {
                    // Stream as many elements as budget and space allow.
                    let budget_elems = (*port_bytes / self.elem_bytes).floor() as u32;
                    let n = (len - self.read_progress)
                        .min(budget_elems)
                        .min(link.space() as u32);
                    for i in 0..n {
                        let idx = self.read_progress + i;
                        let a = addr as usize + (idx as usize) * stride as usize;
                        let ok = link.push(spad.read(a));
                        debug_assert!(ok, "space was checked");
                    }
                    *port_bytes -= f64::from(n) * self.elem_bytes;
                    self.read_progress += n;
                    self.elems_moved += u64::from(n);
                    if n > 0 {
                        made_progress = true;
                    }
                    if self.read_progress == len {
                        self.read_progress = 0;
                        self.pc += 1;
                        // Control instructions after a finished read may
                        // retire in the same cycle, but at most one Read
                        // streams per cycle.
                        if self
                            .program
                            .get(self.pc)
                            .is_some_and(|i| matches!(i, SeqInstr::Read { .. }))
                            && *port_bytes < self.elem_bytes
                        {
                            return;
                        }
                        continue;
                    }
                    if !made_progress {
                        self.stall_cycles += 1;
                    }
                    return; // read still in flight
                }
                SeqInstr::Write { .. } => {
                    // Writes are handled by the dedicated write-back unit in
                    // this simulator; treat as a no-op marker.
                    self.pc += 1;
                }
            }
            if self.pc >= self.program.len() {
                break;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn spad_with(values: &[f32]) -> Scratchpad {
        let mut s = Scratchpad::new(values.len());
        s.store_slice(0, values);
        s
    }

    #[test]
    fn read_streams_under_port_budget() {
        let spad = spad_with(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mut link = Link::new(64);
        let mut tokens = TokenFile::new(1);
        let mut seq =
            Sequencer::new(vec![SeqInstr::Read { addr: 0, len: 8, stride: 1 }], 2.0);
        // Budget of 8 bytes/cycle = 4 fp16 elements per cycle.
        for _ in 0..2 {
            let mut budget = 8.0;
            seq.tick(&spad, &mut link, &mut tokens, &mut budget);
        }
        assert!(seq.is_done());
        assert_eq!(link.queue.len(), 8);
        assert_eq!(link.pop(), Some(1.0));
    }

    #[test]
    fn strided_read() {
        let spad = spad_with(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut link = Link::new(8);
        let mut tokens = TokenFile::new(1);
        let mut seq =
            Sequencer::new(vec![SeqInstr::Read { addr: 1, len: 3, stride: 2 }], 2.0);
        let mut budget = 128.0;
        seq.tick(&spad, &mut link, &mut tokens, &mut budget);
        assert_eq!(link.pop(), Some(1.0));
        assert_eq!(link.pop(), Some(3.0));
        assert_eq!(link.pop(), Some(5.0));
    }

    #[test]
    fn link_backpressure_stalls() {
        let spad = spad_with(&[1.0; 16]);
        let mut link = Link::new(4);
        let mut tokens = TokenFile::new(1);
        let mut seq =
            Sequencer::new(vec![SeqInstr::Read { addr: 0, len: 16, stride: 1 }], 1.0);
        let mut budget = 128.0;
        seq.tick(&spad, &mut link, &mut tokens, &mut budget);
        assert_eq!(link.queue.len(), 4, "capacity caps the stream");
        assert!(!seq.is_done());
        // Drain two, stream resumes.
        link.pop();
        link.pop();
        let mut budget = 128.0;
        seq.tick(&spad, &mut link, &mut tokens, &mut budget);
        assert_eq!(link.queue.len(), 4);
    }

    #[test]
    fn hardware_loops_repeat_reads() {
        let spad = spad_with(&[7.0, 8.0]);
        let mut link = Link::new(64);
        let mut tokens = TokenFile::new(1);
        let mut seq = Sequencer::new(
            vec![
                SeqInstr::LoopBegin { count: 3 },
                SeqInstr::Read { addr: 0, len: 2, stride: 1 },
                SeqInstr::LoopEnd,
            ],
            2.0,
        );
        for _ in 0..10 {
            let mut budget = 128.0;
            seq.tick(&spad, &mut link, &mut tokens, &mut budget);
            if seq.is_done() {
                break;
            }
        }
        assert!(seq.is_done());
        assert_eq!(link.queue.len(), 6);
        assert_eq!(seq.elems_moved, 6);
    }

    #[test]
    fn wait_token_blocks_until_signalled() {
        let spad = spad_with(&[1.0]);
        let mut link = Link::new(4);
        let mut tokens = TokenFile::new(2);
        let mut seq = Sequencer::new(
            vec![
                SeqInstr::WaitToken { token: 0, count: 1 },
                SeqInstr::Read { addr: 0, len: 1, stride: 1 },
            ],
            2.0,
        );
        let mut budget = 128.0;
        seq.tick(&spad, &mut link, &mut tokens, &mut budget);
        assert!(link.queue.is_empty());
        assert_eq!(seq.stall_cycles, 1);
        tokens.signal(0);
        let mut budget = 128.0;
        seq.tick(&spad, &mut link, &mut tokens, &mut budget);
        assert_eq!(link.queue.len(), 1);
        assert!(seq.is_done());
    }

    #[test]
    fn ecc_on_clean_data_is_bit_identical() {
        let values: Vec<f32> = (0..64).map(|i| (i as f32) * 0.125 - 3.0).collect();
        let plain = spad_with(&values);
        let protected = spad_with(&values).with_ecc();
        for a in 0..values.len() {
            assert_eq!(plain.read(a).to_bits(), protected.read(a).to_bits());
        }
        assert_eq!(protected.ecc_sec(), 0);
        assert_eq!(protected.ecc_ded(), 0);
        assert_eq!(protected.take_uncorrectable(), None);
    }

    #[test]
    fn ecc_corrects_any_single_bit_flip() {
        let values = [1.5f32, -0.25, 1024.0, 3.0e-5];
        for bit in 0..39 {
            let mut s = spad_with(&values).with_ecc();
            s.inject_flip(2, bit);
            assert_eq!(s.read(2).to_bits(), values[2].to_bits(), "bit {bit}");
            assert_eq!(s.ecc_sec(), 1, "bit {bit} must count as SEC");
            assert_eq!(s.take_uncorrectable(), None);
        }
    }

    #[test]
    fn ecc_escalates_double_flips_instead_of_delivering_silently() {
        let mut s = spad_with(&[0.5f32, 2.0, -8.0]).with_ecc();
        s.inject_flip(1, 3);
        s.inject_flip(1, 17);
        let _ = s.read(1);
        assert_eq!(s.ecc_ded(), 1);
        assert_eq!(s.take_uncorrectable(), Some(1));
        assert_eq!(s.take_uncorrectable(), None, "pending is taken once");
        // A rewrite scrubs the word.
        s.write(1, 2.0);
        assert_eq!(s.read(1), 2.0);
        assert_eq!(s.take_uncorrectable(), None);
    }

    #[test]
    fn without_ecc_data_bit_flips_corrupt_silently() {
        let mut s = spad_with(&[1.0f32]);
        s.inject_flip(0, 30);
        assert_ne!(s.read(0), 1.0, "unprotected flip must damage the value");
        // Check-bit flips have no storage to hit without ECC.
        let mut s2 = spad_with(&[1.0f32]);
        s2.inject_flip(0, 35);
        assert_eq!(s2.read(0), 1.0);
    }

    #[test]
    fn nested_loops() {
        let spad = spad_with(&[1.0]);
        let mut link = Link::new(64);
        let mut tokens = TokenFile::new(1);
        let mut seq = Sequencer::new(
            vec![
                SeqInstr::LoopBegin { count: 2 },
                SeqInstr::LoopBegin { count: 3 },
                SeqInstr::Read { addr: 0, len: 1, stride: 1 },
                SeqInstr::LoopEnd,
                SeqInstr::LoopEnd,
            ],
            1.0,
        );
        for _ in 0..20 {
            let mut budget = 128.0;
            seq.tick(&spad, &mut link, &mut tokens, &mut budget);
        }
        assert!(seq.is_done());
        assert_eq!(seq.elems_moved, 6);
    }
}
