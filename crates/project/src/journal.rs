//! The append-only, checksummed run journal behind durable sweeps.
//!
//! A long projection run is a stream of completed design-point
//! [`Outcome`]s. This module makes that stream *crash-only*: every
//! completed point is appended to a run journal as one self-framing,
//! CRC-checked line, flushed to the OS immediately and fsync'd in
//! batches of [`SYNC_BATCH`]. A crashed *process* — `kill -9`, an OOM
//! kill, a panic — loses nothing, since every line is in the page cache
//! once its `write(2)` returns. A crashed *machine* — a power cut, a
//! kernel panic — loses at most the `SYNC_BATCH - 1` records since the
//! last fsync, and resume re-evaluates each of them. Either way the
//! journal's every complete line is trustworthy and its final line is
//! at worst *torn* (a partial write with no trailing newline).
//! [`replay`] tolerates exactly that:
//! it restores every intact record and skips a torn tail with a
//! warning, never an error, while mid-file corruption (which a crash
//! cannot produce) stays a hard [`JournalError::Corrupt`].
//!
//! # Record format
//!
//! One record per line, tab-separated, newline-terminated:
//!
//! ```text
//! u1 <crc32> <sweep_seq> <index> <fingerprint> <retries> <outcome...>
//! ```
//!
//! * `u1` — the format version;
//! * `crc32` — CRC-32 (IEEE) of everything after the checksum field,
//!   as 8 hex digits;
//! * `sweep_seq` / `index` — which sweep of the run, and which
//!   submission index within it (the replay key);
//! * `fingerprint` — [`point_fingerprint`]: FNV-1a 64 over the bits of
//!   every [`SweepPoint`] field (enum tags, the year, and the `to_bits()`
//!   of each float), guarding resume against a stale journal from a
//!   different grid. Journals written before the fingerprint took this
//!   form carry the old hash of the point's debug text: they resume with
//!   every record stale and re-evaluated, never as corrupt;
//! * `retries` — how many retry attempts the point consumed, so resumed
//!   runs reproduce the original run's retry accounting exactly;
//! * `outcome` — `ok` followed by the node, limiter, and the **exact
//!   bit patterns** of the four `f64` results (hex-encoded, so NaN
//!   energies and negative zeros survive byte-for-byte), `infeasible`,
//!   or `failed` followed by the escaped diagnostic message.
//!
//! Floats are journaled as bit patterns rather than decimal text so a
//! resumed run's figure JSON is *byte-identical* to an uninterrupted
//! run's — the round trip is exact by construction, not by the grace of
//! a formatter.
//!
//! Encoding runs no formatter at all: integers go through small decimal
//! and hex digit writers and the checksum is a slice-by-8 CRC-32. The
//! tests hold them to a `format!`-based encoder and the bitwise CRC, and
//! a committed journal from an earlier build must re-encode to its exact
//! bytes, so the format cannot drift.

// An output-producing path: no wall clock, no hash-ordered containers.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use crate::engine::{DesignId, PortfolioDesign};
use crate::results::NodePoint;
use crate::sweep::{Outcome, SweepPoint};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use ucore_calibrate::WorkloadColumn;
use ucore_core::Limiter;
use ucore_devices::{DeviceId, TechNode};
use ucore_itrs::NodeParams;

/// Journal format version tag, the first field of every record.
pub const JOURNAL_VERSION: &str = "u1";

/// Appends between fsyncs: the journal is flushed to the OS on every
/// append (so a process crash loses nothing that was appended) and
/// fsync'd every `SYNC_BATCH` records plus once at the end of every
/// sweep that appended something.
///
/// The batch bounds what a *machine* crash loses to `SYNC_BATCH - 1`
/// records. A lost record costs only its re-evaluation on resume (a
/// microsecond or two), while an fsync costs tens to hundreds of
/// microseconds, so the batch is large. It must stay at most 2,048:
/// perfbench prices one fsync by re-appending 4 × 512 records through
/// a fresh writer, and needs a batch fsync among them.
pub const SYNC_BATCH: usize = 1024;

// ---------------------------------------------------------------------
// Hashes
// ---------------------------------------------------------------------

/// Slicing tables for CRC-32 (IEEE 802.3, reflected, polynomial
/// 0xEDB88320), built at compile time. `CRC32_TABLES[0][i]` is byte
/// value `i` run through the eight bitwise division steps;
/// `CRC32_TABLES[k][i]` is that remainder advanced through `k` more zero
/// bytes, so one lookup in table `k` accounts for a byte that `k` more
/// bytes of its 8-byte step follow.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the per-line
/// checksum framing. Slice-by-8: each 8-byte step folds the running
/// remainder into the step's first four bytes and takes one lookup per
/// byte in [`CRC32_TABLES`], all eight independent; the tail shorter
/// than a step goes one byte at a time through the first table.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let (steps, tail) = bytes.as_chunks::<8>();
    let mut crc: u32 = !0;
    for step in steps {
        let [a, b, c, d, e, f, g, h] = (u64::from_le_bytes(*step) ^ u64::from(crc)).to_le_bytes();
        crc = t7[usize::from(a)]
            ^ t6[usize::from(b)]
            ^ t5[usize::from(c)]
            ^ t4[usize::from(d)]
            ^ t3[usize::from(e)]
            ^ t2[usize::from(f)]
            ^ t1[usize::from(g)]
            ^ t0[usize::from(h)];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t0[usize::from((crc as u8) ^ b)];
    }
    !crc
}

/// FNV-1a, 64-bit — deterministic fingerprinting and retry jitter.
struct Fnv1a64(u64);

impl Fnv1a64 {
    const fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a 64 of one byte string.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.write(bytes);
    hash.0
}

fn device_tag(device: DeviceId) -> u8 {
    match device {
        DeviceId::CoreI7_960 => 0,
        DeviceId::Gtx285 => 1,
        DeviceId::Gtx480 => 2,
        DeviceId::R5870 => 3,
        DeviceId::V6Lx760 => 4,
        DeviceId::Asic => 5,
    }
}

/// The design's tag and its device's tag (`0xff` for the CMP baselines,
/// which have no U-core device).
fn design_tags(design: DesignId) -> [u8; 2] {
    match design {
        DesignId::SymCmp => [0, 0xff],
        DesignId::AsymCmp => [1, 0xff],
        DesignId::Het(d) => [2, device_tag(d)],
        DesignId::Portfolio(PortfolioDesign::Shared(d)) => [3, device_tag(d)],
        DesignId::Portfolio(PortfolioDesign::Split(d)) => [4, device_tag(d)],
    }
}

fn column_tag(column: WorkloadColumn) -> u8 {
    match column {
        WorkloadColumn::Mmm => 0,
        WorkloadColumn::Bs => 1,
        WorkloadColumn::Fft64 => 2,
        WorkloadColumn::Fft1024 => 3,
        WorkloadColumn::Fft16384 => 4,
    }
}

fn node_tag(node: TechNode) -> u8 {
    match node {
        TechNode::N65 => 0,
        TechNode::N55 => 1,
        TechNode::N45 => 2,
        TechNode::N40 => 3,
        TechNode::N32 => 4,
        TechNode::N22 => 5,
        TechNode::N16 => 6,
        TechNode::N11 => 7,
    }
}

/// A stable fingerprint of a sweep point: FNV-1a 64 over a fixed
/// little-endian layout of every field — one tag byte each for the
/// design, its device, the column and the node, the year as `u32`, then
/// the `to_bits()` of the six node floats, the three budgets and `f`.
/// Every bit of every field feeds the hash, with no formatting and no
/// allocation. Resume uses it to detect a journal written by a
/// different grid.
pub fn point_fingerprint(point: &SweepPoint) -> u64 {
    // Exhaustive destructuring: a new field is a compile error here
    // until the fingerprint covers it.
    let SweepPoint { design, column, node, budgets, f } = point;
    let NodeParams {
        node: tech,
        year,
        core_die_budget_mm2,
        core_power_budget_w,
        bandwidth_gb_s,
        max_area_bce,
        rel_power_per_transistor,
        rel_bandwidth,
    } = node;
    let [design, device] = design_tags(*design);
    let mut hash = Fnv1a64::new();
    hash.write(&[design, device, column_tag(*column), node_tag(*tech)]);
    hash.write(&year.to_le_bytes());
    for x in [
        *core_die_budget_mm2,
        *core_power_budget_w,
        *bandwidth_gb_s,
        *max_area_bce,
        *rel_power_per_transistor,
        *rel_bandwidth,
        budgets.area(),
        budgets.power(),
        budgets.bandwidth(),
        f.get(),
    ] {
        hash.write(&x.to_bits().to_le_bytes());
    }
    hash.0
}

// ---------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------

fn f64_from_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn node_keyword(node: TechNode) -> &'static str {
    match node {
        TechNode::N65 => "n65",
        TechNode::N55 => "n55",
        TechNode::N45 => "n45",
        TechNode::N40 => "n40",
        TechNode::N32 => "n32",
        TechNode::N22 => "n22",
        TechNode::N16 => "n16",
        TechNode::N11 => "n11",
    }
}

fn node_from_keyword(s: &str) -> Option<TechNode> {
    Some(match s {
        "n65" => TechNode::N65,
        "n55" => TechNode::N55,
        "n45" => TechNode::N45,
        "n40" => TechNode::N40,
        "n32" => TechNode::N32,
        "n22" => TechNode::N22,
        "n16" => TechNode::N16,
        "n11" => TechNode::N11,
        _ => return None,
    })
}

fn limiter_keyword(limiter: Limiter) -> &'static str {
    match limiter {
        Limiter::Area => "area",
        Limiter::Power => "power",
        Limiter::Bandwidth => "bandwidth",
    }
}

fn limiter_from_keyword(s: &str) -> Option<Limiter> {
    Some(match s {
        "area" => Limiter::Area,
        "power" => Limiter::Power,
        "bandwidth" => Limiter::Bandwidth,
        _ => return None,
    })
}

/// Appends a diagnostic message escaped for single-field storage:
/// backslash, tab (the field separator), newline (the record separator)
/// and carriage return. Every other character — arbitrary Unicode
/// included — passes through literally.
fn escape_field(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
}

fn unescape_field(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// One journaled point: the replay key, the fingerprint guard, the
/// retry accounting, and the outcome itself.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Which sweep of the run this point belonged to (sweeps are
    /// numbered in execution order, which is deterministic for a given
    /// command line).
    pub sweep_seq: u64,
    /// The point's submission index within its sweep.
    pub index: usize,
    /// [`point_fingerprint`] of the evaluated point.
    pub fingerprint: u64,
    /// Retry attempts the point consumed before settling (0 = first
    /// attempt succeeded or retries were exhausted at 0).
    pub retries: u32,
    /// How the evaluation ended.
    pub outcome: Outcome,
}

/// Errors raised by journal I/O and decoding.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem failure.
    Io(io::Error),
    /// A complete (newline-terminated) record failed validation. A
    /// crash cannot produce this — torn tails are skipped, not
    /// reported — so it indicates real corruption or a foreign file.
    Corrupt {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Renders one record as its journal line (newline-terminated).
pub fn encode_record(record: &JournalRecord) -> String {
    // One allocation for a typical line: a feasible record's is about
    // 120 bytes.
    let mut line = String::with_capacity(128);
    encode_record_into(record, &mut line);
    line
}

/// Appends one record's journal line to `out`. The header goes in with
/// a placeholder checksum, the body is written in place, and the
/// checksum digits are patched over the placeholder once the body's
/// CRC is known — no intermediate strings.
pub(crate) fn encode_record_into(record: &JournalRecord, out: &mut String) {
    out.push_str(JOURNAL_VERSION);
    out.push_str("\t00000000\t");
    let body = out.len();
    out.push_str(decimal_digits(record.sweep_seq, &mut [0; 20]));
    out.push('\t');
    out.push_str(decimal_digits(record.index as u64, &mut [0; 20]));
    out.push('\t');
    out.push_str(hex_digits(record.fingerprint, &mut [0; 16]));
    out.push('\t');
    out.push_str(decimal_digits(u64::from(record.retries), &mut [0; 20]));
    out.push('\t');
    match &record.outcome {
        Outcome::Feasible(p) => {
            out.push_str("ok\t");
            out.push_str(node_keyword(p.node));
            out.push('\t');
            out.push_str(limiter_keyword(p.limiter));
            for x in [p.speedup, p.r, p.n, p.energy] {
                out.push('\t');
                out.push_str(hex_digits(x.to_bits(), &mut [0; 16]));
            }
        }
        Outcome::Infeasible => out.push_str("infeasible"),
        Outcome::Failed { panic_msg } => {
            out.push_str("failed\t");
            escape_field(panic_msg, out);
        }
    }
    let crc = crc32(&out.as_bytes()[body..]);
    out.replace_range(body - 9..body - 1, hex_digits(u64::from(crc), &mut [0; 8]));
    out.push('\n');
}

/// The low `4 * N` bits of `x` as `N` lowercase hex digits, written
/// into `buf` — what `format!("{x:0N$x}")` renders, without a
/// formatter.
fn hex_digits<const N: usize>(x: u64, buf: &mut [u8; N]) -> &str {
    for (i, digit) in buf.iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(x >> (4 * (N - 1 - i))) as usize & 0xf];
    }
    // Hex digits are ASCII, so this never falls back to the default.
    std::str::from_utf8(buf).unwrap_or_default()
}

/// `x` in decimal, written into the tail of `buf` (20 digits hold
/// `u64::MAX`) — what `format!("{x}")` renders, without a formatter.
fn decimal_digits(mut x: u64, buf: &mut [u8; 20]) -> &str {
    let mut start = buf.len();
    for digit in buf.iter_mut().rev() {
        *digit = b'0' + (x % 10) as u8;
        x /= 10;
        start -= 1;
        if x == 0 {
            break;
        }
    }
    // Decimal digits are ASCII, so this never falls back to the default.
    std::str::from_utf8(&buf[start..]).unwrap_or_default()
}

fn corrupt(line: usize, reason: impl Into<String>) -> JournalError {
    JournalError::Corrupt { line, reason: reason.into() }
}

/// Decodes one complete journal line (without its trailing newline).
///
/// # Errors
///
/// Returns [`JournalError::Corrupt`] for version/framing/checksum/field
/// violations; `line` is the 1-based line number used in the message.
pub fn decode_record(line_text: &str, line: usize) -> Result<JournalRecord, JournalError> {
    let mut framing = line_text.splitn(3, '\t');
    let version = framing.next().unwrap_or_default();
    if version != JOURNAL_VERSION {
        return Err(corrupt(line, format!("unknown version tag {version:?}")));
    }
    let crc_field = framing
        .next()
        .ok_or_else(|| corrupt(line, "missing checksum field"))?;
    let body = framing
        .next()
        .ok_or_else(|| corrupt(line, "missing record body"))?;
    let stored = u32::from_str_radix(crc_field, 16)
        .map_err(|_| corrupt(line, format!("unparsable checksum {crc_field:?}")))?;
    let actual = crc32(body.as_bytes());
    if stored != actual {
        return Err(corrupt(
            line,
            format!("checksum mismatch (stored {stored:08x}, computed {actual:08x})"),
        ));
    }
    // The longest known shape (`ok`) has 11 fields; any extra ones are
    // only counted, so the shape check below still rejects them.
    let mut fields = [""; 11];
    let mut count = 0;
    for field in body.split('\t') {
        if let Some(slot) = fields.get_mut(count) {
            *slot = field;
        }
        count += 1;
    }
    if count < 5 {
        return Err(corrupt(line, "record body has too few fields"));
    }
    let sweep_seq: u64 = fields[0]
        .parse()
        .map_err(|_| corrupt(line, format!("bad sweep_seq {:?}", fields[0])))?;
    let index: usize = fields[1]
        .parse()
        .map_err(|_| corrupt(line, format!("bad index {:?}", fields[1])))?;
    let fingerprint = u64::from_str_radix(fields[2], 16)
        .map_err(|_| corrupt(line, format!("bad fingerprint {:?}", fields[2])))?;
    let retries: u32 = fields[3]
        .parse()
        .map_err(|_| corrupt(line, format!("bad retry count {:?}", fields[3])))?;
    let outcome = match (fields[4], count) {
        ("infeasible", 5) => Outcome::Infeasible,
        ("failed", 6) => Outcome::Failed {
            panic_msg: unescape_field(fields[5])
                .ok_or_else(|| corrupt(line, "bad escape in failure message"))?,
        },
        ("ok", 11) => {
            let node = node_from_keyword(fields[5])
                .ok_or_else(|| corrupt(line, format!("unknown node {:?}", fields[5])))?;
            let limiter = limiter_from_keyword(fields[6])
                .ok_or_else(|| corrupt(line, format!("unknown limiter {:?}", fields[6])))?;
            let scalar = |i: usize, name: &str| {
                f64_from_hex(fields[i])
                    .ok_or_else(|| corrupt(line, format!("bad {name} bits {:?}", fields[i])))
            };
            Outcome::Feasible(NodePoint {
                node,
                limiter,
                speedup: scalar(7, "speedup")?,
                r: scalar(8, "r")?,
                n: scalar(9, "n")?,
                energy: scalar(10, "energy")?,
            })
        }
        (kind, n) => {
            return Err(corrupt(
                line,
                format!("outcome kind {kind:?} with {n} fields is not a known shape"),
            ))
        }
    };
    Ok(JournalRecord { sweep_seq, index, fingerprint, retries, outcome })
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// The append-only journal writer.
///
/// Every [`append`](JournalWriter::append) issues the full line as one
/// `write` syscall (no userspace buffering — a crashed *process* loses
/// nothing already appended) and the file is fsync'd every
/// [`SYNC_BATCH`] appends plus on [`sync`](JournalWriter::sync) and
/// drop (bounding what a crashed *machine* loses). A writer with no
/// unsynced appends is clean: `sync` and drop then issue no fsync.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    appended: u64,
    unsynced: usize,
    /// The line being appended, reused so an append allocates nothing
    /// once the buffer has grown to the longest line.
    line: String,
}

impl JournalWriter {
    /// Opens a fresh journal at `path`, truncating any previous run's
    /// file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path) -> Result<Self, JournalError> {
        let file = File::create(path)?;
        sync_dir(&parent_dir(path))?;
        Ok(JournalWriter::new(file, path))
    }

    /// Opens an existing journal for appending (creating it when
    /// absent) — the resume path: replayed records stay, new
    /// evaluations extend the same file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append_to(path: &Path) -> Result<Self, JournalError> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        sync_dir(&parent_dir(path))?;
        Ok(JournalWriter::new(file, path))
    }

    fn new(file: File, path: &Path) -> Self {
        JournalWriter {
            file,
            path: path.to_path_buf(),
            appended: 0,
            unsynced: 0,
            line: String::new(),
        }
    }

    /// Appends one record and flushes it to the OS; fsyncs every
    /// [`SYNC_BATCH`] appends.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        self.line.clear();
        encode_record_into(record, &mut self.line);
        self.file.write_all(self.line.as_bytes())?;
        self.appended += 1;
        self.unsynced += 1;
        if self.unsynced >= SYNC_BATCH {
            self.sync()?;
        }
        Ok(())
    }

    /// Fsyncs everything appended since the last fsync; a clean writer
    /// returns at once. Every journal fsync but the drop's and the
    /// signal handler's goes through here, and each one that succeeds
    /// counts toward the `journal.syncs` metric.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.file.sync_data()?;
        self.unsynced = 0;
        crate::obs::metrics().journal_syncs.inc();
        Ok(())
    }

    /// Records appended through this writer (replayed records are not
    /// re-appended and do not count).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The journal's raw file descriptor, for async-signal-safe
    /// flushing from a signal handler (`fsync(2)` is on the
    /// signal-safety list; nothing in Rust's `File` API is).
    #[cfg(unix)]
    pub fn raw_fd(&self) -> i32 {
        use std::os::unix::io::AsRawFd;
        self.file.as_raw_fd()
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        if self.unsynced > 0 {
            let _ = self.file.sync_data();
        }
    }
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// One replayed record: the outcome plus the context resume needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedOutcome {
    /// The journaled point fingerprint.
    pub fingerprint: u64,
    /// Retry attempts the original evaluation consumed.
    pub retries: u32,
    /// The journaled outcome.
    pub outcome: Outcome,
}

/// How a replay lookup resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayLookup<'a> {
    /// A journaled outcome exists for this `(sweep, index)` and its
    /// fingerprint matches the live point: reuse it.
    Hit(&'a ReplayedOutcome),
    /// A journaled outcome exists but was written for a *different*
    /// point (changed grid, changed scenario): ignore it and
    /// re-evaluate.
    Stale,
    /// Nothing journaled for this `(sweep, index)`.
    Miss,
}

/// The journaled outcomes of a previous run, keyed by
/// `(sweep_seq, index)`.
#[derive(Debug, Clone, Default)]
pub struct ReplayMap {
    // BTreeMap, not HashMap: replay state sits on the output path of a
    // resumed run, and ordered iteration keeps every downstream walk
    // deterministic by construction.
    map: BTreeMap<(u64, usize), ReplayedOutcome>,
}

impl ReplayMap {
    /// An empty map (nothing replays).
    pub fn empty() -> Self {
        ReplayMap::default()
    }

    /// Number of replayable records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing was replayed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a `(sweep, index)` slot, guarding on the live point's
    /// fingerprint.
    pub fn lookup(&self, sweep_seq: u64, index: usize, fingerprint: u64) -> ReplayLookup<'_> {
        match self.map.get(&(sweep_seq, index)) {
            Some(rec) if rec.fingerprint == fingerprint => ReplayLookup::Hit(rec),
            Some(_) => ReplayLookup::Stale,
            None => ReplayLookup::Miss,
        }
    }
}

/// What [`replay`] found while reading a journal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Intact records restored.
    pub records: usize,
    /// Whether the file ended in a torn (partial, unterminated) record
    /// that was skipped — the signature of a crash mid-append.
    pub torn_tail: bool,
    /// Records that re-wrote an existing `(sweep, index)` slot (a
    /// journal extended by repeated resumes; last record wins).
    pub duplicates: usize,
}

/// Reads a journal back into a [`ReplayMap`].
///
/// Every newline-terminated line must validate — version, checksum,
/// field shapes — or the whole replay fails with
/// [`JournalError::Corrupt`]; a crash cannot half-write an *interior*
/// line, so an invalid one means the file is not trustworthy. Trailing
/// bytes after the final newline are the torn tail of an interrupted
/// append: they are skipped and flagged in the report, never an error.
///
/// # Errors
///
/// [`JournalError::Io`] on read failure, [`JournalError::Corrupt`] on
/// an invalid complete record.
pub fn replay(path: &Path) -> Result<(ReplayMap, ReplayReport), JournalError> {
    let _span = ucore_obs::span!("journal.replay");
    let (records, mut report) = read_records(path)?;
    let mut map = ReplayMap::empty();
    for record in records {
        let replayed = ReplayedOutcome {
            fingerprint: record.fingerprint,
            retries: record.retries,
            outcome: record.outcome,
        };
        if map
            .map
            .insert((record.sweep_seq, record.index), replayed)
            .is_some()
        {
            report.duplicates += 1;
        }
    }
    report.records = map.len();
    Ok((map, report))
}

/// Reads a journal's intact records in file order, without collapsing
/// duplicate `(sweep_seq, index)` slots, for callers that inspect a
/// journal record by record. Validation is exactly
/// [`replay`]'s: every complete line must decode, a torn tail is
/// skipped and flagged. The returned report counts raw records and
/// leaves `duplicates` at zero.
///
/// # Errors
///
/// [`JournalError::Io`] on read failure, [`JournalError::Corrupt`] on
/// an invalid complete record.
pub fn read_records(path: &Path) -> Result<(Vec<JournalRecord>, ReplayReport), JournalError> {
    let bytes = fs::read(path)?;
    let mut records = Vec::new();
    let mut report = ReplayReport::default();
    let mut start = 0;
    let mut line_no = 0;
    while let Some(nl) = bytes[start..].iter().position(|&b| b == b'\n') {
        let line = &bytes[start..start + nl];
        start += nl + 1;
        line_no += 1;
        let text = std::str::from_utf8(line)
            .map_err(|_| corrupt(line_no, "record is not valid UTF-8"))?;
        records.push(decode_record(text, line_no)?);
    }
    if start < bytes.len() {
        report.torn_tail = true;
    }
    report.records = records.len();
    Ok((records, report))
}

// ---------------------------------------------------------------------
// Atomic artifact writes
// ---------------------------------------------------------------------

/// The directory a path's file lives in (`.` for bare file names).
fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// Fsyncs a directory so a just-created or just-renamed entry inside it
/// survives power loss. On unix this is a real `fsync` of the opened
/// directory and its failure propagates; elsewhere directories cannot
/// be opened for syncing and the call is a no-op (the rename itself is
/// still atomic).
///
/// # Errors
///
/// The directory cannot be opened or synced.
#[cfg(unix)]
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// Writes `bytes` to `path` atomically and durably: the data lands in
/// a temporary sibling file, is fsync'd, renamed over the target, and
/// the parent directory is fsync'd so the rename itself survives power
/// loss. Readers — and a crash at any instant — see either the
/// complete old file or the complete new file, never a torn one.
///
/// # Errors
///
/// Propagates filesystem errors; on failure the target file is
/// untouched and the temporary is removed.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(path, |file| file.write_all(bytes))
}

/// The streaming form of [`atomic_write`]: `fill` receives the
/// temporary file to populate. Used directly for large artifacts; the
/// same crash-safety and durability contract applies.
///
/// # Errors
///
/// Propagates filesystem errors (from `fill` or the commit steps); on
/// failure the target file is untouched and the temporary is removed.
pub fn atomic_write_with(
    path: &Path,
    fill: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "atomic_write target has no file name")
    })?;
    let dir = parent_dir(path);
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut file = File::create(&tmp)?;
        fill(&mut file)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        // Without this the rename can evaporate on power loss: the
        // data blocks are durable but the directory entry pointing at
        // them is not.
        sync_dir(&dir)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ucore-journal-{}-{tag}",
            std::process::id()
        ))
    }

    fn feasible() -> Outcome {
        Outcome::Feasible(NodePoint {
            node: TechNode::N22,
            speedup: 12.345678901234567,
            limiter: Limiter::Bandwidth,
            r: 4.0,
            n: 117.25,
            energy: f64::NAN,
        })
    }

    fn record(seq: u64, index: usize, outcome: Outcome) -> JournalRecord {
        JournalRecord { sweep_seq: seq, index, fingerprint: 0xdead_beef_cafe_f00d, retries: 2, outcome }
    }

    /// Outcome equality that treats NaN bit patterns as equal (derived
    /// `PartialEq` follows IEEE NaN != NaN).
    fn outcomes_bit_equal(a: &Outcome, b: &Outcome) -> bool {
        match (a, b) {
            (Outcome::Feasible(x), Outcome::Feasible(y)) => {
                x.node == y.node
                    && x.limiter == y.limiter
                    && x.speedup.to_bits() == y.speedup.to_bits()
                    && x.r.to_bits() == y.r.to_bits()
                    && x.n.to_bits() == y.n.to_bits()
                    && x.energy.to_bits() == y.energy.to_bits()
            }
            (Outcome::Infeasible, Outcome::Infeasible) => true,
            (Outcome::Failed { panic_msg: x }, Outcome::Failed { panic_msg: y }) => x == y,
            _ => false,
        }
    }

    /// The bitwise CRC-32 the table is built from: eight shift-and-xor
    /// division steps per byte. The reference the table-driven
    /// [`crc32`] must match bit for bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xcbf4_3926);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn table_crc32_matches_the_bitwise_reference(
            bytes in proptest::collection::vec(0u8..=255, 512),
            len in 0usize..=512,
        ) {
            let bytes = &bytes[..len];
            proptest::prop_assert_eq!(crc32(bytes), crc32_bitwise(bytes));
        }
    }

    #[test]
    fn sliced_crc32_matches_the_reference_at_every_length_and_offset() {
        // Every length through eight full slicing steps, at every start
        // alignment, so each split into steps and a byte-wise tail is hit.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let buf: Vec<u8> = (0..72)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_bitwise(bytes), "offset {offset}, length {len}");
            }
        }
    }

    /// The record line as `format!` renders it, checksummed by the
    /// bitwise CRC: the reference `encode_record` must match byte for
    /// byte.
    fn reference_line(r: &JournalRecord) -> String {
        let outcome = match &r.outcome {
            Outcome::Feasible(p) => format!(
                "ok\t{}\t{}\t{:016x}\t{:016x}\t{:016x}\t{:016x}",
                format!("{:?}", p.node).to_lowercase(),
                format!("{:?}", p.limiter).to_lowercase(),
                p.speedup.to_bits(),
                p.r.to_bits(),
                p.n.to_bits(),
                p.energy.to_bits(),
            ),
            Outcome::Infeasible => "infeasible".to_string(),
            Outcome::Failed { panic_msg } => format!(
                "failed\t{}",
                panic_msg
                    .replace('\\', "\\\\")
                    .replace('\t', "\\t")
                    .replace('\n', "\\n")
                    .replace('\r', "\\r")
            ),
        };
        let body = format!(
            "{}\t{}\t{:016x}\t{}\t{outcome}",
            r.sweep_seq, r.index, r.fingerprint, r.retries
        );
        format!("{JOURNAL_VERSION}\t{:08x}\t{body}\n", crc32_bitwise(body.as_bytes()))
    }

    /// A `u64` with a uniformly drawn digit count (0 to 20), so short
    /// and long decimal fields are equally likely.
    fn any_width() -> impl proptest::Strategy<Value = u64> {
        use proptest::Strategy as _;
        (0u32..=20, 0u64..=u64::MAX)
            .prop_map(|(digits, x)| 10u64.checked_pow(digits).map_or(x, |bound| x % bound))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// `encode_record` writes what the `format!` reference writes,
        /// over arbitrary integers, float bit patterns and Unicode
        /// failure messages, and `decode_record` gives the record back
        /// bit for bit.
        #[test]
        fn encode_matches_the_format_reference_and_round_trips(
            ints in (any_width(), any_width(), 0u64..=u64::MAX, any_width()),
            kind in 0u8..3,
            node in proptest::sample::select(TechNode::ALL.to_vec()),
            limiter in proptest::sample::select(
                vec![Limiter::Area, Limiter::Power, Limiter::Bandwidth],
            ),
            bits in proptest::collection::vec(0u64..=u64::MAX, 4),
            chars in proptest::collection::vec((0u8..4, 0u32..=0x10_ffff), 24),
            len in 0usize..=24,
        ) {
            let (sweep_seq, index, fingerprint, retries) = ints;
            let outcome = match kind {
                0 => Outcome::Feasible(NodePoint {
                    node,
                    limiter,
                    speedup: f64::from_bits(bits[0]),
                    r: f64::from_bits(bits[1]),
                    n: f64::from_bits(bits[2]),
                    energy: f64::from_bits(bits[3]),
                }),
                1 => Outcome::Infeasible,
                _ => Outcome::Failed {
                    // One char in four is a separator or an escape.
                    panic_msg: chars[..len]
                        .iter()
                        .map(|&(pick, c)| match pick {
                            0 => ['\t', '\n', '\r', '\\'][c as usize % 4],
                            _ => char::from_u32(c).unwrap_or('\u{fffd}'),
                        })
                        .collect(),
                },
            };
            let rec = JournalRecord {
                sweep_seq,
                index: index as usize,
                fingerprint,
                retries: retries as u32,
                outcome,
            };
            let line = encode_record(&rec);
            proptest::prop_assert_eq!(&line, &reference_line(&rec));
            let back = decode_record(line.trim_end_matches('\n'), 1).unwrap();
            proptest::prop_assert_eq!(
                (back.sweep_seq, back.index, back.fingerprint, back.retries),
                (rec.sweep_seq, rec.index, rec.fingerprint, rec.retries)
            );
            proptest::prop_assert!(outcomes_bit_equal(&back.outcome, &rec.outcome), "{rec:?}");
        }
    }

    #[test]
    fn field_escaping_round_trips_hostile_strings() {
        for s in [
            "plain",
            "",
            "tab\there",
            "line\nbreak\r\n",
            "back\\slash \\t literal",
            "unicode ≠ 判定 🚀",
            "\\",
            "trailing\t",
        ] {
            let mut escaped = String::new();
            escape_field(s, &mut escaped);
            assert!(!escaped.contains('\t') && !escaped.contains('\n'), "{s:?}");
            assert_eq!(unescape_field(&escaped).as_deref(), Some(s));
        }
        assert_eq!(unescape_field("dangling\\"), None);
        assert_eq!(unescape_field("bad\\q"), None);
    }

    #[test]
    fn f64_hex_is_bit_exact_for_every_special_value() {
        for x in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::MAX, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let back = f64_from_hex(&format!("{:016x}", x.to_bits())).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        assert_eq!(f64_from_hex("short"), None);
        assert_eq!(f64_from_hex("zzzzzzzzzzzzzzzz"), None);
    }

    #[test]
    fn records_encode_and_decode_across_all_variants() {
        for outcome in [
            feasible(),
            Outcome::Infeasible,
            Outcome::Failed { panic_msg: "panicked:\twith\nnewlines \\ and 判定".into() },
            Outcome::Failed { panic_msg: String::new() },
        ] {
            let rec = record(3, 41, outcome);
            let line = encode_record(&rec);
            assert!(line.ends_with('\n'));
            let back = decode_record(line.trim_end_matches('\n'), 1).unwrap();
            assert_eq!(back.sweep_seq, rec.sweep_seq);
            assert_eq!(back.index, rec.index);
            assert_eq!(back.fingerprint, rec.fingerprint);
            assert_eq!(back.retries, rec.retries);
            assert!(outcomes_bit_equal(&back.outcome, &rec.outcome));
        }
    }

    proptest::proptest! {
        /// No line panics the decoder. Bytes below 128 pick a token of
        /// the record syntax (a real record's fields among them); the
        /// rest are arbitrary chars. Each text is decoded as a whole
        /// line and again framed with its valid checksum, so the field
        /// parsers behind the CRC check see it too.
        #[test]
        fn decode_record_is_total_on_arbitrary_lines(
            bytes in proptest::collection::vec(0u8..=255, 96),
            len in 0usize..=96,
        ) {
            let line = encode_record(&record(3, 7, feasible()));
            let mut tokens: Vec<&str> = line.trim_end().split('\t').collect();
            tokens.extend(["\t", "\\", "\\t", "failed", "infeasible", "-1"]);
            let text: String = bytes[..len]
                .iter()
                .map(|&b| match b {
                    0..=127 => tokens[usize::from(b) % tokens.len()].to_string(),
                    _ => char::from(b).to_string(),
                })
                .collect();
            let _ = decode_record(&text, 1);
            let framed = format!("{JOURNAL_VERSION}\t{:08x}\t{text}", crc32(text.as_bytes()));
            let _ = decode_record(&framed, 1);
        }
    }

    #[test]
    fn record_lines_are_pinned() {
        let specials = Outcome::Feasible(NodePoint {
            node: TechNode::N11,
            speedup: -0.0,
            limiter: Limiter::Power,
            r: f64::INFINITY,
            n: 1.0,
            energy: f64::NAN,
        });
        let failed = Outcome::Failed {
            panic_msg: "tab\there\nnew\rcr\\back ≠ 判定 🚀".into(),
        };
        let cases = [
            (
                record(0, 0, specials),
                "u1\tcf4974e8\t0\t0\tdeadbeefcafef00d\t2\tok\tn11\tpower\t\
                 8000000000000000\t7ff0000000000000\t3ff0000000000000\t7ff8000000000000\n",
            ),
            (
                record(7, 119, Outcome::Infeasible),
                "u1\t54af13c0\t7\t119\tdeadbeefcafef00d\t2\tinfeasible\n",
            ),
            (
                record(u64::MAX, usize::MAX, failed),
                "u1\t3ab08e4c\t18446744073709551615\t18446744073709551615\tdeadbeefcafef00d\t2\t\
                 failed\ttab\\there\\nnew\\rcr\\\\back ≠ 判定 🚀\n",
            ),
        ];
        for (rec, expected) in cases {
            assert_eq!(encode_record(&rec), expected, "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_tampered_lines() {
        let line = encode_record(&record(0, 7, Outcome::Infeasible));
        let line = line.trim_end_matches('\n');
        // Flip one payload byte: checksum must catch it.
        let tampered = line.replace("infeasible", "infeasiblE");
        let err = decode_record(&tampered, 4).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        assert!(err.to_string().contains("line 4"), "{err}");
        // Wrong version tag.
        let err = decode_record(&format!("u9{}", &line[2..]), 1).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn writer_appends_and_replay_restores() {
        let path = temp_path("roundtrip");
        let mut w = JournalWriter::create(&path).unwrap();
        let recs = vec![
            record(0, 0, feasible()),
            record(0, 1, Outcome::Infeasible),
            record(0, 2, Outcome::Failed { panic_msg: "boom".into() }),
            record(1, 0, Outcome::Infeasible),
        ];
        for r in &recs {
            w.append(r).unwrap();
        }
        assert_eq!(w.appended(), 4);
        drop(w);

        let (map, report) = replay(&path).unwrap();
        assert_eq!(report.records, 4);
        assert!(!report.torn_tail);
        assert_eq!(report.duplicates, 0);
        let hit = map.lookup(0, 0, 0xdead_beef_cafe_f00d);
        let ReplayLookup::Hit(rec) = hit else {
            panic!("expected hit, got {hit:?}")
        };
        assert_eq!(rec.retries, 2);
        assert!(outcomes_bit_equal(&rec.outcome, &feasible()));
        assert_eq!(map.lookup(0, 0, 0x1234), ReplayLookup::Stale);
        assert_eq!(map.lookup(5, 0, 0x1234), ReplayLookup::Miss);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let path = temp_path("torn");
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(&record(0, 0, Outcome::Infeasible)).unwrap();
        w.append(&record(0, 1, feasible())).unwrap();
        drop(w);
        // Tear the final record: drop its last 9 bytes (incl. newline).
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();

        let (map, report) = replay(&path).unwrap();
        assert_eq!(report.records, 1, "only the intact record survives");
        assert!(report.torn_tail, "the tear is reported");
        assert!(matches!(map.lookup(0, 0, 0xdead_beef_cafe_f00d), ReplayLookup::Hit(_)));
        assert!(matches!(map.lookup(0, 1, 0xdead_beef_cafe_f00d), ReplayLookup::Miss));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn interior_corruption_is_a_hard_error() {
        let path = temp_path("corrupt");
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(&record(0, 0, Outcome::Infeasible)).unwrap();
        w.append(&record(0, 1, Outcome::Infeasible)).unwrap();
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        bytes[20] ^= 0x55; // corrupt the first line, not the tail
        fs::write(&path, &bytes).unwrap();

        let err = replay(&path).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { line: 1, .. }), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn duplicate_slots_keep_the_last_record() {
        let path = temp_path("dups");
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(&record(0, 0, Outcome::Infeasible)).unwrap();
        w.append(&record(0, 0, Outcome::Failed { panic_msg: "later".into() })).unwrap();
        drop(w);
        let (map, report) = replay(&path).unwrap();
        assert_eq!(report.records, 1);
        assert_eq!(report.duplicates, 1);
        let ReplayLookup::Hit(rec) = map.lookup(0, 0, 0xdead_beef_cafe_f00d) else {
            panic!("expected hit")
        };
        assert_eq!(rec.outcome.failure_message(), Some("later"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn atomic_write_replaces_content_atomically() {
        let path = temp_path("atomic-ok");
        fs::write(&path, b"old content").unwrap();
        atomic_write(&path, b"new content").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new content");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn failed_atomic_write_leaves_the_old_file_intact() {
        let path = temp_path("atomic-fail");
        fs::write(&path, b"precious").unwrap();
        let err = atomic_write_with(&path, |file| {
            // Simulate a crash mid-write: some bytes land, then the
            // write path errors out before the commit rename.
            file.write_all(b"half-writ")?;
            Err(io::Error::other("simulated failure mid-write"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("simulated failure"), "{err}");
        assert_eq!(fs::read(&path).unwrap(), b"precious", "old artifact untouched");
        // And the temporary was cleaned up.
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let leftovers: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&format!(".{name}.tmp")))
            .collect();
        assert!(leftovers.is_empty(), "stray temporaries: {leftovers:?}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprints_distinguish_points_and_are_stable() {
        use crate::engine::ProjectionEngine;
        use crate::scenario::Scenario;
        use crate::sweep::figure_points;
        use std::sync::Arc;
        use ucore_core::{Budgets, EvalCache, ParallelFraction};

        const PINNED: u64 = 0x0615_d812_a69a_3abb;

        let e = ProjectionEngine::with_cache(Scenario::baseline(), Arc::new(EvalCache::new()))
            .unwrap();
        let designs = DesignId::for_column(e.table5(), WorkloadColumn::Fft1024);
        let points =
            figure_points(&e, &designs, WorkloadColumn::Fft1024, &[0.5, 0.9, 0.99, 0.999])
                .unwrap();
        let fps: Vec<u64> = points.iter().map(point_fingerprint).collect();
        let mut unique = fps.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), fps.len(), "grid points fingerprint distinctly");
        assert_eq!(fps[0], point_fingerprint(&points[0]), "stable across calls");
        // The layout is part of the journal format: an edit that moves
        // this value makes every existing journal resume as stale.
        assert_eq!(fps[0], PINNED, "{:#018x}", fps[0]);

        // Changing any single field, down to one float bit, changes the
        // fingerprint.
        let base = points[0];
        let flip = |x: f64| f64::from_bits(x.to_bits() ^ 1);
        let mut variants = Vec::new();
        for design in [DesignId::SymCmp, DesignId::AsymCmp]
            .into_iter()
            .chain(DeviceId::ALL.into_iter().flat_map(|d| {
                [
                    DesignId::Het(d),
                    DesignId::Portfolio(PortfolioDesign::Shared(d)),
                    DesignId::Portfolio(PortfolioDesign::Split(d)),
                ]
            }))
        {
            variants.push(SweepPoint { design, ..base });
        }
        for column in WorkloadColumn::ALL {
            variants.push(SweepPoint { column, ..base });
        }
        for tech in TechNode::ALL {
            variants.push(SweepPoint { node: NodeParams { node: tech, ..base.node }, ..base });
        }
        let n = base.node;
        for node in [
            NodeParams { year: n.year + 1, ..n },
            NodeParams { core_die_budget_mm2: flip(n.core_die_budget_mm2), ..n },
            NodeParams { core_power_budget_w: flip(n.core_power_budget_w), ..n },
            NodeParams { bandwidth_gb_s: flip(n.bandwidth_gb_s), ..n },
            NodeParams { max_area_bce: flip(n.max_area_bce), ..n },
            NodeParams { rel_power_per_transistor: flip(n.rel_power_per_transistor), ..n },
            NodeParams { rel_bandwidth: flip(n.rel_bandwidth), ..n },
        ] {
            variants.push(SweepPoint { node, ..base });
        }
        let b = base.budgets;
        for budgets in [
            Budgets::new(flip(b.area()), b.power(), b.bandwidth()),
            Budgets::new(b.area(), flip(b.power()), b.bandwidth()),
            Budgets::new(b.area(), b.power(), flip(b.bandwidth())),
        ] {
            variants.push(SweepPoint { budgets: budgets.unwrap(), ..base });
        }
        let f = ParallelFraction::new(flip(base.f.get())).unwrap();
        variants.push(SweepPoint { f, ..base });

        let mut changed = 0;
        for v in &variants {
            if *v != base {
                assert_ne!(point_fingerprint(v), fps[0], "{v:?}");
                changed += 1;
            }
        }
        // 5 designs + 6 devices × 3 device designs − the base itself,
        // 4 other columns, 7 other nodes, year, 6 node floats, 3 budgets
        // and f.
        assert_eq!(changed, 2 + 18 - 1 + 4 + 7 + 1 + 6 + 3 + 1);
    }
}
