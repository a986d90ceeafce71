//! The `pa-store/csr/v2` on-disk format: writer, reader, and block views.
//!
//! ```text
//! offset 0     header   magic "PACSRv1\0" · version u32 · key_words u32
//! offset 4096  blocks   each page-aligned (4096); payload layouts below
//! ...          footer   counts · initial ids · one 64-byte meta per block
//! end-16       trailer  footer_offset u64 · magic "PACSRFTR"
//! ```
//!
//! Every multi-byte value is little-endian; [`StoreFile::open`] rejects
//! big-endian hosts rather than byte-swap on every access. A *CSR* block
//! holds a contiguous run of states' rows with block-relative `u32`
//! offsets (the in-memory [`CsrRows`] shape, dumped):
//!
//! ```text
//! probs  f64 × trans          (8-aligned: first section, page-aligned base)
//! choice_offsets u32 × states+1
//! trans_offsets  u32 × choices+1
//! costs          u32 × choices
//! targets        u32 × trans   (global state ids)
//! ```
//!
//! A *keys* block holds the packed state words of a run of states
//! (`u64 × states × key_words`), so the interned id → state mapping
//! round-trips through disk alongside the rows. Each block's payload is
//! digested with [`block_digest`] at write time; the digest is re-verified
//! on every page-in, so a corrupt block surfaces as a named
//! [`StoreError::DigestMismatch`] — never as silently wrong probabilities.
//!
//! The header magic is the same for every format version; a file whose
//! header version is not [`VERSION`] (such as a version-1 file, whose
//! blocks carry FNV-1a digests) is rejected by [`StoreFile::open`] as
//! [`StoreError::Unsupported`].

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use pa_mdp::{Choice, MdpError, RowSink};

use crate::error::StoreError;
use crate::mmap::Mapping;

/// File magic: the first 8 bytes of every store file.
pub const HEADER_MAGIC: [u8; 8] = *b"PACSRv1\0";
/// Trailer magic: the last 8 bytes of every store file.
pub const FOOTER_MAGIC: [u8; 8] = *b"PACSRFTR";
/// Format version written into the header.
pub const VERSION: u32 = 2;
/// Block alignment: every block payload starts on a 4096-byte boundary so
/// the mmap path can map it directly.
pub const BLOCK_ALIGN: u64 = 4096;
/// Default target payload size per block (8 MiB). Small enough that a
/// one-block cache budget stays modest, large enough that sweeps are
/// sequential I/O.
pub const DEFAULT_BLOCK_BYTES: usize = 8 << 20;

/// What a block stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A run of states' CSR rows.
    Csr,
    /// A run of states' packed key words.
    Keys,
}

/// One block's footer entry: geometry, file location, and payload digest.
#[derive(Debug, Clone, Copy)]
pub struct BlockMeta {
    /// What the block stores.
    pub kind: BlockKind,
    /// Global id of the first state covered.
    pub first_state: u64,
    /// Number of states covered.
    pub states: u64,
    /// Number of choices (0 for key blocks).
    pub choices: u64,
    /// Number of transitions (0 for key blocks).
    pub trans: u64,
    /// Byte offset of the payload (multiple of [`BLOCK_ALIGN`]).
    pub offset: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// [`block_digest`] of the payload bytes.
    pub digest: u64,
}

impl BlockMeta {
    fn expected_payload(&self, key_words: usize) -> u64 {
        match self.kind {
            BlockKind::Csr => {
                self.trans * 8
                    + (self.states + 1) * 4
                    + (self.choices + 1) * 4
                    + self.choices * 4
                    + self.trans * 4
            }
            BlockKind::Keys => self.states * key_words as u64 * 8,
        }
    }
}

/// FNV-1a 64 over raw bytes — the same constants as the workspace's other
/// result digests (`pa-batch`'s report digest, `pa_mdp::csr_digest`).
/// Block payloads are checksummed with [`block_digest`] instead.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// xxh64's multiplier primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// The xxh64 round: a bijection in both `acc` and `word` (the multipliers
/// are odd, and add and rotate are invertible).
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The block-payload checksum, verified on every page-in.
///
/// Four independent lanes step over the payload's 32-byte chunks, one
/// little-endian `u64` word per lane per chunk, through the xxh64 round;
/// the lanes are then merged by chaining the same round, the < 32-byte
/// tail is folded in byte by byte (`h = (h ^ b)·P1`), and the payload
/// length is xor-ed in last. Every step is a bijection in its input, so
/// any change confined to one aligned 8-byte word (in particular any
/// single-byte change) is detected with certainty. The four lanes keep
/// four multiply chains in flight, which is what lets this run at memory
/// bandwidth where byte-serial FNV-1a cannot.
pub fn block_digest(bytes: &[u8]) -> u64 {
    // xxh64's lane initialisers for seed 0.
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut chunks = bytes.chunks_exact(32);
    for chunk in &mut chunks {
        for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            *lane = round(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    let mut h = lanes.into_iter().fold(0, round);
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(P1);
    }
    h ^ bytes.len() as u64
}

fn push_u32s(out: &mut Vec<u8>, vals: &[u32]) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends CSR blocks to a new store file as rows stream in; implements
/// [`RowSink`] so [`pa_mdp::Explore::run_streamed`] can drive it directly.
///
/// Rows accumulate in memory until the pending payload reaches the block
/// target, then the block is flushed — peak writer memory is one block
/// plus buffered-writer overhead, independent of model size.
#[derive(Debug)]
pub struct StoreWriter {
    file: BufWriter<File>,
    path: PathBuf,
    key_words: usize,
    block_bytes: usize,
    pos: u64,
    blocks: Vec<BlockMeta>,
    first_state: usize,
    next_state: usize,
    choice_offsets: Vec<u32>,
    trans_offsets: Vec<u32>,
    costs: Vec<u32>,
    targets: Vec<u32>,
    probs: Vec<f64>,
}

impl StoreWriter {
    /// Creates `path` (truncating any existing file) and writes the
    /// header. `key_words` is the per-state packed-key width in `u64`s
    /// (0: no key blocks will be written).
    pub fn create(
        path: impl AsRef<Path>,
        key_words: usize,
        block_bytes: usize,
    ) -> Result<StoreWriter, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path).map_err(StoreError::io("create store file"))?;
        let mut w = StoreWriter {
            file: BufWriter::new(file),
            path,
            key_words,
            block_bytes: block_bytes.max(4096),
            pos: 0,
            blocks: Vec::new(),
            first_state: 0,
            next_state: 0,
            choice_offsets: vec![0],
            trans_offsets: vec![0],
            costs: Vec::new(),
            targets: Vec::new(),
            probs: Vec::new(),
        };
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(&HEADER_MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&(key_words as u32).to_le_bytes());
        w.write_all(&header)?;
        w.pad_to_align()?;
        Ok(w)
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file
            .write_all(bytes)
            .map_err(StoreError::io("write store file"))?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    fn pad_to_align(&mut self) -> Result<(), StoreError> {
        let rem = self.pos % BLOCK_ALIGN;
        if rem != 0 {
            let pad = vec![0u8; (BLOCK_ALIGN - rem) as usize];
            self.write_all(&pad)?;
        }
        Ok(())
    }

    fn pending_bytes(&self) -> usize {
        self.probs.len() * 8
            + (self.choice_offsets.len() + self.trans_offsets.len()) * 4
            + (self.costs.len() + self.targets.len()) * 4
    }

    /// Appends one state's row to the pending block, flushing first if the
    /// block target is reached.
    pub fn push_row(&mut self, id: usize, choices: &[Choice]) -> Result<(), StoreError> {
        debug_assert_eq!(id, self.next_state, "rows must arrive in dense-id order");
        if self.pending_bytes() >= self.block_bytes && self.next_state > self.first_state {
            self.flush_csr_block()?;
        }
        for c in choices {
            self.costs.push(c.cost);
            for &(t, p) in &c.transitions {
                let t32 = u32::try_from(t).map_err(|_| StoreError::Unsupported {
                    reason: format!("state id {t} exceeds the format's u32 target range"),
                })?;
                self.targets.push(t32);
                self.probs.push(p);
            }
            self.trans_offsets.push(self.targets.len() as u32);
        }
        self.choice_offsets.push(self.costs.len() as u32);
        self.next_state = id + 1;
        Ok(())
    }

    fn flush_csr_block(&mut self) -> Result<(), StoreError> {
        let states = self.next_state - self.first_state;
        if states == 0 {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(self.pending_bytes());
        for p in &self.probs {
            payload.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        push_u32s(&mut payload, &self.choice_offsets);
        push_u32s(&mut payload, &self.trans_offsets);
        push_u32s(&mut payload, &self.costs);
        push_u32s(&mut payload, &self.targets);
        let meta = BlockMeta {
            kind: BlockKind::Csr,
            first_state: self.first_state as u64,
            states: states as u64,
            choices: self.costs.len() as u64,
            trans: self.targets.len() as u64,
            offset: self.pos,
            payload_len: payload.len() as u64,
            digest: block_digest(&payload),
        };
        self.write_all(&payload)?;
        self.pad_to_align()?;
        self.blocks.push(meta);
        self.first_state = self.next_state;
        self.choice_offsets.clear();
        self.choice_offsets.push(0);
        self.trans_offsets.clear();
        self.trans_offsets.push(0);
        self.costs.clear();
        self.targets.clear();
        self.probs.clear();
        Ok(())
    }

    /// Writes the packed key words of states `first..first + count` as one
    /// keys block. Callers chunk so each block stays near the block
    /// target; `words` must hold exactly `count * key_words` values.
    pub fn push_keys(
        &mut self,
        first: usize,
        count: usize,
        words: &[u64],
    ) -> Result<(), StoreError> {
        assert_eq!(words.len(), count * self.key_words);
        let mut payload = Vec::with_capacity(words.len() * 8);
        for w in words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        let meta = BlockMeta {
            kind: BlockKind::Keys,
            first_state: first as u64,
            states: count as u64,
            choices: 0,
            trans: 0,
            offset: self.pos,
            payload_len: payload.len() as u64,
            digest: block_digest(&payload),
        };
        self.write_all(&payload)?;
        self.pad_to_align()?;
        self.blocks.push(meta);
        Ok(())
    }

    /// Flushes the pending block, writes the footer and trailer, syncs,
    /// and reopens the finished file through the reader (so every write
    /// path exercises the open-time validation).
    ///
    /// `initial`, `num_choices`, and `num_transitions` are the exploration
    /// totals (a [`pa_mdp::StreamSummary`] carries them).
    pub fn finish(
        mut self,
        initial: &[usize],
        num_choices: u64,
        num_transitions: u64,
    ) -> Result<StoreFile, StoreError> {
        self.flush_csr_block()?;
        let num_states = self.next_state as u64;
        let mut footer = Vec::new();
        footer.extend_from_slice(&num_states.to_le_bytes());
        footer.extend_from_slice(&num_choices.to_le_bytes());
        footer.extend_from_slice(&num_transitions.to_le_bytes());
        footer.extend_from_slice(&(self.key_words as u64).to_le_bytes());
        footer.extend_from_slice(&(initial.len() as u64).to_le_bytes());
        for &s in initial {
            footer.extend_from_slice(&(s as u64).to_le_bytes());
        }
        footer.extend_from_slice(&(self.blocks.len() as u64).to_le_bytes());
        for b in &self.blocks {
            let kind: u64 = match b.kind {
                BlockKind::Csr => 0,
                BlockKind::Keys => 1,
            };
            for v in [
                kind,
                b.first_state,
                b.states,
                b.choices,
                b.trans,
                b.offset,
                b.payload_len,
                b.digest,
            ] {
                footer.extend_from_slice(&v.to_le_bytes());
            }
        }
        let footer_offset = self.pos;
        self.write_all(&footer)?;
        let mut trailer = Vec::with_capacity(16);
        trailer.extend_from_slice(&footer_offset.to_le_bytes());
        trailer.extend_from_slice(&FOOTER_MAGIC);
        self.write_all(&trailer)?;
        self.file
            .flush()
            .map_err(StoreError::io("flush store file"))?;
        self.file
            .get_ref()
            .sync_all()
            .map_err(StoreError::io("sync store file"))?;
        StoreFile::open(&self.path)
    }
}

impl RowSink for StoreWriter {
    fn state_row(&mut self, id: usize, choices: &[Choice]) -> Result<(), MdpError> {
        self.push_row(id, choices).map_err(MdpError::from)
    }
}

/// A validated, opened store file: parsed footer plus the file handle
/// blocks are mapped from. Open-time validation checks the header, the
/// trailer, footer bounds, every block's geometry arithmetic, and that the
/// CSR blocks partition `0..num_states` consecutively; payload digests are
/// checked lazily, on each page-in.
#[derive(Debug)]
pub struct StoreFile {
    file: File,
    path: PathBuf,
    num_states: usize,
    num_choices: u64,
    num_transitions: u64,
    key_words: usize,
    initial: Vec<usize>,
    blocks: Vec<BlockMeta>,
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
    what: &'static str,
}

impl Cursor<'_> {
    fn u64(&mut self) -> Result<u64, StoreError> {
        let end = self.at + 8;
        if end > self.buf.len() {
            return Err(StoreError::Truncated {
                what: self.what.to_string(),
            });
        }
        let v = u64::from_le_bytes(self.buf[self.at..end].try_into().expect("8 bytes"));
        self.at = end;
        Ok(v)
    }
}

impl StoreFile {
    /// Opens and validates `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<StoreFile, StoreError> {
        if cfg!(target_endian = "big") {
            return Err(StoreError::Unsupported {
                reason: "pa-store/csr files are little-endian; this host is big-endian".into(),
            });
        }
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path).map_err(StoreError::io("open store file"))?;
        let len = file
            .metadata()
            .map_err(StoreError::io("stat store file"))?
            .len();
        if len < BLOCK_ALIGN + 16 {
            return Err(StoreError::Truncated {
                what: "header and trailer".into(),
            });
        }
        let mut header = [0u8; 16];
        file.read_exact(&mut header)
            .map_err(StoreError::io("read header"))?;
        if header[..8] != HEADER_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StoreError::Unsupported {
                reason: format!("format version {version} (this reader speaks {VERSION})"),
            });
        }
        let key_words = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")) as usize;
        let mut trailer = [0u8; 16];
        file.seek(SeekFrom::Start(len - 16))
            .map_err(StoreError::io("seek to trailer"))?;
        file.read_exact(&mut trailer)
            .map_err(StoreError::io("read trailer"))?;
        if trailer[8..] != FOOTER_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let footer_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
        if footer_offset < BLOCK_ALIGN || footer_offset > len - 16 {
            return Err(StoreError::Truncated {
                what: "footer".into(),
            });
        }
        let mut footer = vec![0u8; (len - 16 - footer_offset) as usize];
        file.seek(SeekFrom::Start(footer_offset))
            .map_err(StoreError::io("seek to footer"))?;
        file.read_exact(&mut footer)
            .map_err(StoreError::io("read footer"))?;
        let mut cur = Cursor {
            buf: &footer,
            at: 0,
            what: "footer",
        };
        let num_states = cur.u64()? as usize;
        let num_choices = cur.u64()?;
        let num_transitions = cur.u64()?;
        let footer_key_words = cur.u64()? as usize;
        if footer_key_words != key_words {
            return Err(StoreError::Unsupported {
                reason: format!(
                    "header says {key_words} key words, footer says {footer_key_words}"
                ),
            });
        }
        let initial_count = cur.u64()? as usize;
        let mut initial = Vec::with_capacity(initial_count);
        for _ in 0..initial_count {
            let s = cur.u64()? as usize;
            if s >= num_states {
                return Err(StoreError::BadBlock {
                    block: 0,
                    reason: format!("initial state {s} out of range ({num_states} states)"),
                });
            }
            initial.push(s);
        }
        let num_blocks = cur.u64()? as usize;
        let mut blocks = Vec::with_capacity(num_blocks);
        let mut next_csr_state = 0u64;
        for i in 0..num_blocks {
            let kind = match cur.u64()? {
                0 => BlockKind::Csr,
                1 => BlockKind::Keys,
                other => {
                    return Err(StoreError::BadBlock {
                        block: i,
                        reason: format!("unknown block kind {other}"),
                    })
                }
            };
            let meta = BlockMeta {
                kind,
                first_state: cur.u64()?,
                states: cur.u64()?,
                choices: cur.u64()?,
                trans: cur.u64()?,
                offset: cur.u64()?,
                payload_len: cur.u64()?,
                digest: cur.u64()?,
            };
            if !meta.offset.is_multiple_of(BLOCK_ALIGN) {
                return Err(StoreError::BadBlock {
                    block: i,
                    reason: format!("offset {} not {BLOCK_ALIGN}-aligned", meta.offset),
                });
            }
            if meta.offset + meta.payload_len > footer_offset {
                return Err(StoreError::Truncated {
                    what: format!("block {i} payload"),
                });
            }
            if meta.payload_len != meta.expected_payload(key_words) {
                return Err(StoreError::BadBlock {
                    block: i,
                    reason: format!(
                        "payload length {} does not match geometry (expected {})",
                        meta.payload_len,
                        meta.expected_payload(key_words)
                    ),
                });
            }
            if meta.kind == BlockKind::Csr {
                if meta.first_state != next_csr_state {
                    return Err(StoreError::BadBlock {
                        block: i,
                        reason: format!(
                            "CSR blocks must partition the state space consecutively \
                             (expected first state {next_csr_state}, found {})",
                            meta.first_state
                        ),
                    });
                }
                next_csr_state += meta.states;
            }
            blocks.push(meta);
        }
        if next_csr_state != num_states as u64 {
            return Err(StoreError::BadBlock {
                block: blocks.len().saturating_sub(1),
                reason: format!(
                    "CSR blocks cover {next_csr_state} states, footer declares {num_states}"
                ),
            });
        }
        Ok(StoreFile {
            file,
            path,
            num_states,
            num_choices,
            num_transitions,
            key_words,
            initial,
            blocks,
        })
    }

    /// Path the file was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Total number of choices.
    pub fn num_choices(&self) -> u64 {
        self.num_choices
    }

    /// Total number of transitions.
    pub fn num_transitions(&self) -> u64 {
        self.num_transitions
    }

    /// Per-state packed-key width in `u64` words (0: no keys stored).
    pub fn key_words(&self) -> usize {
        self.key_words
    }

    /// The initial state indices.
    pub fn initial(&self) -> &[usize] {
        &self.initial
    }

    /// All block metadata, in file order.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Pages block `idx` in (mmap where possible, buffered read
    /// otherwise) and verifies its payload digest.
    pub fn load_block(&self, idx: usize) -> Result<MappedBlock, StoreError> {
        let meta = self.blocks[idx];
        let mapping = Mapping::map(&self.file, meta.offset, meta.payload_len as usize)?;
        let got = block_digest(mapping.bytes());
        if got != meta.digest {
            return Err(StoreError::DigestMismatch {
                block: idx,
                expected: meta.digest,
                got,
            });
        }
        let block = MappedBlock {
            mapping,
            meta,
            key_words: self.key_words,
        };
        if meta.kind == BlockKind::Csr {
            let rows = block.rows();
            let co_last = rows.choice_offsets[meta.states as usize];
            let to_last = rows.trans_offsets[meta.choices as usize];
            if u64::from(co_last) != meta.choices || u64::from(to_last) != meta.trans {
                return Err(StoreError::BadBlock {
                    block: idx,
                    reason: format!(
                        "offset arrays end at ({co_last}, {to_last}), geometry says \
                         ({}, {})",
                        meta.choices, meta.trans
                    ),
                });
            }
        }
        Ok(block)
    }

    /// Reads every keys block back into one id-ordered word vector (states
    /// with ids below the first keys block, if any, are absent). Intended
    /// for round-trip verification and re-opening stored models.
    pub fn read_keys(&self) -> Result<Vec<u64>, StoreError> {
        let mut words = Vec::new();
        for (i, meta) in self.blocks.iter().enumerate() {
            if meta.kind == BlockKind::Keys {
                let block = self.load_block(i)?;
                words.extend_from_slice(block.keys());
            }
        }
        Ok(words)
    }
}

/// One resident block: the mapping plus its parsed geometry. CSR blocks
/// expose [`MappedBlock::rows`]; keys blocks expose [`MappedBlock::keys`].
#[derive(Debug)]
pub struct MappedBlock {
    mapping: Mapping,
    meta: BlockMeta,
    key_words: usize,
}

impl MappedBlock {
    fn u32s(&self, off: usize, len: usize) -> &[u32] {
        let b = &self.mapping.bytes()[off..off + len * 4];
        debug_assert_eq!(b.as_ptr() as usize % 4, 0);
        // SAFETY: the range is in bounds, 4-aligned (8-aligned base, all
        // section offsets are multiples of 4), and u32 has no invalid bit
        // patterns.
        unsafe { std::slice::from_raw_parts(b.as_ptr().cast::<u32>(), len) }
    }

    /// The block's geometry and location.
    pub fn meta(&self) -> &BlockMeta {
        &self.meta
    }

    /// Payload size in bytes — what the block costs while resident.
    pub fn resident_bytes(&self) -> u64 {
        self.meta.payload_len
    }

    /// The block's rows. Panics if called on a keys block.
    pub fn rows(&self) -> pa_mdp::CsrRows<'_> {
        assert_eq!(self.meta.kind, BlockKind::Csr);
        let states = self.meta.states as usize;
        let choices = self.meta.choices as usize;
        let trans = self.meta.trans as usize;
        let probs = {
            let b = &self.mapping.bytes()[..trans * 8];
            debug_assert_eq!(b.as_ptr() as usize % 8, 0);
            // SAFETY: in bounds, 8-aligned base, f64 accepts any bit
            // pattern (probabilities were written as raw to_bits).
            unsafe { std::slice::from_raw_parts(b.as_ptr().cast::<f64>(), trans) }
        };
        let mut off = trans * 8;
        let choice_offsets = self.u32s(off, states + 1);
        off += (states + 1) * 4;
        let trans_offsets = self.u32s(off, choices + 1);
        off += (choices + 1) * 4;
        let costs = self.u32s(off, choices);
        off += choices * 4;
        let targets = self.u32s(off, trans);
        pa_mdp::CsrRows {
            first_state: self.meta.first_state as usize,
            choice_offsets,
            trans_offsets,
            costs,
            targets,
            probs,
        }
    }

    /// The block's packed key words. Panics if called on a CSR block.
    pub fn keys(&self) -> &[u64] {
        assert_eq!(self.meta.kind, BlockKind::Keys);
        let len = self.meta.states as usize * self.key_words;
        let b = &self.mapping.bytes()[..len * 8];
        debug_assert_eq!(b.as_ptr() as usize % 8, 0);
        // SAFETY: in bounds, 8-aligned, u64 has no invalid bit patterns.
        unsafe { std::slice::from_raw_parts(b.as_ptr().cast::<u64>(), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 100 bytes: three whole 32-byte chunks plus a 4-byte tail, the shape
    /// of a CSR payload whose `u32` sections leave it ≡ 4 (mod 8).
    fn sample() -> Vec<u8> {
        (0..100u32).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn block_digest_is_pinned() {
        // The on-disk format depends on this value: changing the checksum
        // needs a VERSION bump.
        assert_eq!(block_digest(&sample()), 0xa57d_9008_fca6_2603);
    }

    #[test]
    fn block_digest_detects_every_single_bit_flip() {
        let base = sample();
        let want = block_digest(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(block_digest(&flipped), want, "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn block_digest_separates_empty_from_a_short_tail() {
        assert_ne!(block_digest(&[]), block_digest(&[0; 4]));
    }

    #[test]
    fn a_version_1_file_is_unsupported() {
        let dir = std::env::temp_dir().join(format!("pa-store-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.pacsr");
        let mut w = StoreWriter::create(&path, 0, 4096).unwrap();
        w.push_row(0, &[Choice::to(1, 0)]).unwrap();
        drop(w.finish(&[0], 1, 1).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match StoreFile::open(&path) {
            Err(StoreError::Unsupported { reason }) => {
                assert!(reason.contains("version 1 "), "{reason}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
