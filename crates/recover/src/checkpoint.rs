//! Checksummed, versioned, atomically-written training checkpoints.
//!
//! On-disk format (all integers little-endian):
//!
//! ```text
//! ┌──────────┬─────────┬─────────────┬───────┬──────────────┐
//! │ "RPCK"   │ version │ payload len │ CRC32 │ payload …    │
//! │ 4 bytes  │ u32     │ u64         │ u32   │ len bytes    │
//! └──────────┴─────────┴─────────────┴───────┴──────────────┘
//! ```
//!
//! The payload serializes a [`TrainState`]: step counter, RNG word, loss
//! scaler state, per-layer weights/biases and PACT clipping levels. The
//! CRC32 covers the payload only, so header truncation and payload
//! corruption are distinguishable failures.
//!
//! [`CheckpointStore`] writes generation-numbered files (`prefix.N.ckpt`)
//! through a temporary name plus rename — a crash mid-write leaves a
//! `.tmp` orphan, never a half-written checkpoint under the real name —
//! and [`CheckpointStore::load_latest`] walks generations newest-first,
//! *skipping* any file the checksum or header rejects, so a corrupted
//! newest generation falls back to the one before it.
//!
//! The workspace has no serialization dependency, so the codec is
//! hand-rolled here.

use crate::crc::crc32;
use rapid_numerics::Tensor;
use rapid_refnet::DenseStack;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File magic.
const MAGIC: &[u8; 4] = b"RPCK";
/// Current format version.
const VERSION: u32 = 1;
/// Header length: magic + version + payload len + CRC32.
const HEADER_LEN: usize = 4 + 4 + 8 + 4;

/// One dense layer's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerState {
    /// Weight shape `[rows, cols]`.
    pub rows: u64,
    /// Weight shape `[rows, cols]`.
    pub cols: u64,
    /// Row-major weights, `rows × cols` values.
    pub w: Vec<f32>,
    /// Bias vector, `cols` values.
    pub b: Vec<f32>,
}

/// Captures every layer of a dense stack — the one snapshot path the
/// resilient and elastic loops share.
pub(crate) fn capture_layers(stack: &DenseStack) -> Vec<LayerState> {
    (0..stack.depth())
        .map(|i| {
            let w = stack.weights(i);
            LayerState {
                rows: w.shape()[0] as u64,
                cols: w.shape()[1] as u64,
                w: w.as_slice().to_vec(),
                b: stack.biases(i).to_vec(),
            }
        })
        .collect()
}

/// Writes the layers of `state` back into `stack`, after checking that
/// the checkpoint was written by a model of the same shape as the one
/// resuming from it: the same layer count, every layer's weight shape,
/// weight count and bias length, and `alphas` PACT clipping levels, each
/// positive and finite (the caller writes those). A checkpoint that does
/// not fit writes nothing.
///
/// # Errors
///
/// [`CheckpointError::ModelMismatch`] naming the first difference.
pub(crate) fn restore_layers(
    stack: &mut DenseStack,
    state: &TrainState,
    alphas: usize,
) -> Result<(), CheckpointError> {
    let mismatch = |why: String| Err(CheckpointError::ModelMismatch(why));
    if state.layers.len() != stack.depth() {
        return mismatch(format!(
            "{} layers, the model has {}",
            state.layers.len(),
            stack.depth()
        ));
    }
    for (i, layer) in state.layers.iter().enumerate() {
        let shape = stack.weights(i).shape();
        let (rows, cols, bias) = (shape[0], shape[1], stack.biases(i).len());
        if (layer.rows, layer.cols) != (rows as u64, cols as u64)
            || layer.w.len() != rows * cols
            || layer.b.len() != bias
        {
            return mismatch(format!(
                "layer {i} is {}x{} with {} weights and {} biases, the model's is {rows}x{cols} \
                 with {bias} biases",
                layer.rows,
                layer.cols,
                layer.w.len(),
                layer.b.len()
            ));
        }
    }
    if state.alphas.len() != alphas {
        return mismatch(format!(
            "{} PACT clipping levels, the model has {alphas}",
            state.alphas.len()
        ));
    }
    if let Some(a) = state.alphas.iter().find(|a| !(a.is_finite() && **a > 0.0)) {
        return mismatch(format!("PACT clipping level {a} is not positive and finite"));
    }
    for (i, layer) in state.layers.iter().enumerate() {
        let shape = vec![layer.rows as usize, layer.cols as usize];
        stack.set_weights(i, Tensor::from_vec(shape, layer.w.clone()));
        stack.set_biases(i, layer.b.clone());
    }
    Ok(())
}

/// Everything a resilient training loop needs to resume: model
/// parameters, optimizer (loss scaler) state, RNG word and step counter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainState {
    /// Global step the checkpoint was taken at.
    pub step: u64,
    /// RNG state word (the trainers' schedules are deterministic in the
    /// step counter; this carries any auxiliary stream's seed).
    pub rng_state: u64,
    /// Loss scaler scale.
    pub scale: f32,
    /// Loss scaler clean-step counter.
    pub scaler_good_steps: u32,
    /// Per-layer parameters.
    pub layers: Vec<LayerState>,
    /// PACT clipping levels (empty for models without quantizers).
    pub alphas: Vec<f32>,
}

/// Why a checkpoint could not be read or written.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not a checkpoint (bad magic) or an unknown version.
    BadHeader(String),
    /// The file ends before the header's payload length.
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The payload does not match its checksum.
    ChecksumMismatch {
        /// CRC32 recorded in the header.
        stored: u32,
        /// CRC32 of the payload as read.
        computed: u32,
    },
    /// The payload decoded inconsistently (counts disagree with lengths).
    Malformed(String),
    /// The checkpoint decoded but does not fit the model resuming from it
    /// (another layer count, layer shape or PACT level count).
    ModelMismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::BadHeader(why) => write!(f, "bad checkpoint header: {why}"),
            Self::Truncated { expected, actual } => {
                write!(f, "truncated checkpoint: {actual} of {expected} payload bytes")
            }
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::Malformed(why) => write!(f, "malformed checkpoint payload: {why}"),
            Self::ModelMismatch(why) => write!(f, "checkpoint does not fit the model: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

// ---- payload codec ----------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or_else(|| {
            CheckpointError::Malformed("length overflow".to_string())
        })?;
        if end > self.buf.len() {
            return Err(CheckpointError::Malformed(format!(
                "payload ends at byte {} but field needs {}..{}",
                self.buf.len(),
                self.pos,
                end
            )));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f32_vec(&mut self, n: u64) -> Result<Vec<f32>, CheckpointError> {
        let n = usize::try_from(n)
            .map_err(|_| CheckpointError::Malformed("vector length overflows usize".to_string()))?;
        // Bound by the remaining bytes before allocating (`pos` never
        // passes the end, so the subtraction cannot wrap).
        if n.checked_mul(4).is_none_or(|bytes| bytes > self.buf.len() - self.pos) {
            return Err(CheckpointError::Malformed(format!(
                "vector of {n} floats exceeds remaining payload"
            )));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f32()?);
        }
        Ok(v)
    }
}

/// Serializes a [`TrainState`] into a complete checkpoint file image
/// (header + checksummed payload).
pub fn encode(state: &TrainState) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, state.step);
    put_u64(&mut payload, state.rng_state);
    put_f32(&mut payload, state.scale);
    put_u32(&mut payload, state.scaler_good_steps);
    put_u32(&mut payload, state.layers.len() as u32);
    for layer in &state.layers {
        put_u64(&mut payload, layer.rows);
        put_u64(&mut payload, layer.cols);
        for &w in &layer.w {
            put_f32(&mut payload, w);
        }
        put_u64(&mut payload, layer.b.len() as u64);
        for &b in &layer.b {
            put_f32(&mut payload, b);
        }
    }
    put_u32(&mut payload, state.alphas.len() as u32);
    for &a in &state.alphas {
        put_f32(&mut payload, a);
    }

    let mut file = Vec::with_capacity(HEADER_LEN + payload.len());
    file.extend_from_slice(MAGIC);
    put_u32(&mut file, VERSION);
    put_u64(&mut file, payload.len() as u64);
    put_u32(&mut file, crc32(&payload));
    file.extend_from_slice(&payload);
    file
}

/// Decodes a checkpoint file image, verifying magic, version, length and
/// checksum before touching the payload.
///
/// # Errors
///
/// Every malformation maps to a distinct [`CheckpointError`]; none panic.
pub fn decode(bytes: &[u8]) -> Result<TrainState, CheckpointError> {
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::BadHeader(format!(
            "{} bytes is shorter than the {HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if &bytes[..4] != MAGIC {
        return Err(CheckpointError::BadHeader("magic is not RPCK".to_string()));
    }
    let mut hdr = Reader::new(&bytes[4..HEADER_LEN]);
    let version = hdr.u32()?;
    if version != VERSION {
        return Err(CheckpointError::BadHeader(format!(
            "version {version} (this build reads {VERSION})"
        )));
    }
    let payload_len = hdr.u64()?;
    let stored_crc = hdr.u32()?;
    let actual = (bytes.len() - HEADER_LEN) as u64;
    if actual < payload_len {
        return Err(CheckpointError::Truncated { expected: payload_len, actual });
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len as usize];
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(CheckpointError::ChecksumMismatch { stored: stored_crc, computed });
    }

    let mut r = Reader::new(payload);
    let step = r.u64()?;
    let rng_state = r.u64()?;
    let scale = r.f32()?;
    let scaler_good_steps = r.u32()?;
    let n_layers = r.u32()?;
    let mut layers = Vec::new();
    for _ in 0..n_layers {
        let rows = r.u64()?;
        let cols = r.u64()?;
        let elems = rows.checked_mul(cols).ok_or_else(|| {
            CheckpointError::Malformed("weight shape overflows".to_string())
        })?;
        let w = r.f32_vec(elems)?;
        let blen = r.u64()?;
        let b = r.f32_vec(blen)?;
        layers.push(LayerState { rows, cols, w, b });
    }
    let n_alphas = r.u32()?;
    let alphas = r.f32_vec(u64::from(n_alphas))?;
    Ok(TrainState { step, rng_state, scale, scaler_good_steps, layers, alphas })
}

// ---- generation store --------------------------------------------------

/// A directory of generation-numbered checkpoints with atomic writes and
/// bounded retention.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    prefix: String,
    keep: usize,
    next_gen: u64,
    corrupt_skipped: u64,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store under `dir` writing
    /// `prefix.N.ckpt` files and retaining the newest `keep` generations.
    ///
    /// # Errors
    ///
    /// Propagates directory creation/scan failures.
    pub fn open(
        dir: impl AsRef<Path>,
        prefix: &str,
        keep: usize,
    ) -> Result<Self, CheckpointError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut store = Self {
            dir,
            prefix: prefix.to_string(),
            keep: keep.max(1),
            next_gen: 0,
            corrupt_skipped: 0,
        };
        if let Some(max) = store.generations()?.last() {
            store.next_gen = max + 1;
        }
        Ok(store)
    }

    /// Existing generation numbers, ascending.
    fn generations(&self) -> Result<Vec<u64>, CheckpointError> {
        let mut gens = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&format!("{}.", self.prefix)) else {
                continue;
            };
            let Some(num) = rest.strip_suffix(".ckpt") else { continue };
            if let Ok(gen) = num.parse::<u64>() {
                gens.push(gen);
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    fn path_for(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("{}.{gen}.ckpt", self.prefix))
    }

    /// Corrupt/truncated generations skipped by loads so far.
    pub fn corrupt_skipped(&self) -> u64 {
        self.corrupt_skipped
    }

    /// Writes `state` as the next generation: encode, write to a `.tmp`
    /// sibling, flush, then rename into place so the real name only ever
    /// points at a complete file. Prunes generations beyond the retention
    /// limit. Returns the generation number written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the store's generation counter is
    /// only advanced on success.
    pub fn save(&mut self, state: &TrainState) -> Result<u64, CheckpointError> {
        let gen = self.next_gen;
        let bytes = encode(state);
        let tmp = self.dir.join(format!("{}.{gen}.tmp", self.prefix));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.path_for(gen))?;
        self.next_gen = gen + 1;
        // Retention: drop the oldest generations beyond `keep`.
        let gens = self.generations()?;
        if gens.len() > self.keep {
            for &old in &gens[..gens.len() - self.keep] {
                let _ = fs::remove_file(self.path_for(old));
            }
        }
        Ok(gen)
    }

    /// Loads the newest generation that passes validation, skipping (and
    /// counting) corrupted or truncated ones. `Ok(None)` when no valid
    /// checkpoint exists.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan failures only; per-file corruption is a
    /// skip, not an error.
    pub fn load_latest(&mut self) -> Result<Option<(u64, TrainState)>, CheckpointError> {
        let gens = self.generations()?;
        for &gen in gens.iter().rev() {
            match fs::read(self.path_for(gen)) {
                Ok(bytes) => match decode(&bytes) {
                    Ok(state) => return Ok(Some((gen, state))),
                    Err(_) => self.corrupt_skipped += 1,
                },
                Err(_) => self.corrupt_skipped += 1,
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample_state(step: u64) -> TrainState {
        TrainState {
            step,
            rng_state: 0xDEAD_BEEF,
            scale: 512.0,
            scaler_good_steps: 17,
            layers: vec![
                LayerState {
                    rows: 2,
                    cols: 3,
                    w: vec![0.5, -1.25, 3.0, 0.0, f32::MIN_POSITIVE, -0.125],
                    b: vec![0.1, 0.2, 0.3],
                },
                LayerState { rows: 3, cols: 1, w: vec![1.0, 2.0, 3.0], b: vec![-0.5] },
            ],
            alphas: vec![4.0],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rapid-recover-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn codec_round_trips() {
        let state = sample_state(42);
        let decoded = decode(&encode(&state)).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let state = sample_state(7);
        let clean = encode(&state);
        // Flip one byte at a sample of positions across header and
        // payload; every flip must be rejected, never mis-decoded.
        for pos in (0..clean.len()).step_by(7) {
            let mut dirty = clean.clone();
            dirty[pos] ^= 0x10;
            assert!(decode(&dirty).is_err(), "flip at byte {pos} accepted");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let clean = encode(&sample_state(7));
        for keep in [0, 3, HEADER_LEN - 1, HEADER_LEN, clean.len() - 1] {
            assert!(decode(&clean[..keep]).is_err(), "truncation to {keep} accepted");
        }
    }

    #[test]
    fn huge_vector_length_is_malformed_not_a_panic() {
        // One layer of shape 1 × (u64::MAX / 4) and no payload left: the
        // float count times 4 fits in a u64 but not past the read cursor.
        let mut payload = Vec::new();
        put_u64(&mut payload, 0);
        put_u64(&mut payload, 0);
        put_f32(&mut payload, 1.0);
        put_u32(&mut payload, 0);
        put_u32(&mut payload, 1);
        put_u64(&mut payload, 1);
        put_u64(&mut payload, u64::MAX / 4);
        let mut file = MAGIC.to_vec();
        put_u32(&mut file, VERSION);
        put_u64(&mut file, payload.len() as u64);
        put_u32(&mut file, crc32(&payload));
        file.extend_from_slice(&payload);
        assert_eq!(file.len(), 64);
        assert!(matches!(decode(&file), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn store_saves_loads_and_prunes() {
        let dir = temp_dir("store");
        let mut store = CheckpointStore::open(&dir, "train", 3).unwrap();
        for step in 0..5 {
            store.save(&sample_state(step)).unwrap();
        }
        let (gen, state) = store.load_latest().unwrap().unwrap();
        assert_eq!(gen, 4);
        assert_eq!(state.step, 4);
        // Retention: only the newest 3 remain.
        assert_eq!(store.generations().unwrap(), vec![2, 3, 4]);
        // Reopen resumes the generation counter past the survivors.
        let mut reopened = CheckpointStore::open(&dir, "train", 3).unwrap();
        assert_eq!(reopened.save(&sample_state(5)).unwrap(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_newest_falls_back_to_previous_generation() {
        let dir = temp_dir("fallback");
        let mut store = CheckpointStore::open(&dir, "train", 4).unwrap();
        store.save(&sample_state(1)).unwrap();
        store.save(&sample_state(2)).unwrap();
        // Flip a payload byte in the newest file.
        let newest = dir.join("train.1.ckpt");
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let (gen, state) = store.load_latest().unwrap().unwrap();
        assert_eq!(gen, 0, "must fall back past the corrupted generation");
        assert_eq!(state.step, 1);
        assert_eq!(store.corrupt_skipped(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_loads_none() {
        let dir = temp_dir("empty");
        let mut store = CheckpointStore::open(&dir, "train", 2).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
