//! Structured spans: an append-only binary ring buffer of enter/exit
//! events.
//!
//! Tracing is off by default and thread-scoped: [`start`] installs a
//! ring buffer for the calling thread only (guard-scoped, mirroring the
//! workspace's `faultinject`/`durability` activation pattern), and a
//! [`span!`](crate::span) site on any other thread stays inert after
//! one thread-local read. On the armed thread every
//! [`SpanGuard::enter`] records an *enter* event and its `Drop` records
//! the matching *exit*. Sweeps run on their caller's thread, so arming
//! the thread that runs them captures every span; two threads tracing
//! at once (two tests, say) each see only their own spans. Because the
//! exit is emitted from `Drop`, it runs during unwinding too: a
//! contained worker panic inside a span still closes it, so the buffer
//! is never corrupted by the sweep's `catch_unwind` containment
//! boundary (the fault-injection crossover suite asserts this).
//!
//! Events are keyed by `(sweep_seq, index, depth)` and carry two
//! timestamps from [`clock`]: the global monotonic tick
//! (total order, deterministic structure) and wall-clock nanoseconds
//! (observability-only payload). When the buffer wraps, the oldest
//! events are overwritten and counted in [`Trace::dropped`] — profiles
//! over a wrapped buffer report their partiality instead of lying.
//!
//! # Binary format (version 1)
//!
//! Everything little-endian:
//!
//! ```text
//! magic  b"UOBS"
//! u16    version (1)
//! u16    name count        — names sorted bytewise, ids remapped, so
//!                            the table does not depend on the order
//!                            spans first ran in
//! per name: u16 length + UTF-8 bytes
//! u64    dropped event count
//! u64    event count
//! per event (40 bytes):
//!   u8  kind (0 enter / 1 exit)   u8  depth
//!   u16 thread                    u16 name id      u16 reserved (0)
//!   u64 sweep_seq   u64 index   u64 tick   u64 wall_ns
//! ```

use crate::clock;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes opening every encoded trace.
pub const TRACE_MAGIC: [u8; 4] = *b"UOBS";
/// Current binary format version.
pub const TRACE_VERSION: u16 = 1;
/// Bytes per encoded event record.
pub const EVENT_SIZE: usize = 40;

/// Enter or exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The span opened.
    Enter,
    /// The span closed (including via unwinding).
    Exit,
}

/// One decoded enter/exit event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Enter or exit.
    pub kind: SpanKind,
    /// Index into [`Trace::names`].
    pub name: u16,
    /// Recording thread (ids assigned in first-use order).
    pub thread: u16,
    /// Nesting depth on its thread at enter time (outermost = 0).
    pub depth: u8,
    /// The sweep sequence number the span belongs to (0 outside a
    /// durable sweep).
    pub sweep_seq: u64,
    /// The submission index of the point the span covers (0 when not
    /// point-scoped).
    pub index: u64,
    /// Global monotonic tick ([`clock::tick`]): total order across
    /// threads.
    pub tick: u64,
    /// Wall-clock nanoseconds ([`clock::wall_ns`]): observability-only.
    pub wall_ns: u64,
}

/// A decoded trace: the sorted name table, the events in recording
/// order, and how many events the ring buffer had to drop.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Span names, sorted bytewise; `SpanEvent::name` indexes here.
    pub names: Vec<String>,
    /// Events, oldest first.
    pub events: Vec<SpanEvent>,
    /// Events overwritten after the ring buffer wrapped.
    pub dropped: u64,
}

impl Trace {
    /// The span name for an event's `name` id (empty when out of
    /// range).
    pub fn name(&self, id: u16) -> &str {
        self.names.get(usize::from(id)).map(String::as_str).unwrap_or("")
    }

    /// Serializes the trace to the version-1 binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            16 + self.names.iter().map(|n| 2 + n.len()).sum::<usize>()
                + self.events.len() * EVENT_SIZE,
        );
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.names.len() as u16).to_le_bytes());
        for name in &self.names {
            let bytes = name.as_bytes();
            let len = bytes.len().min(usize::from(u16::MAX)) as u16;
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&bytes[..usize::from(len)]);
        }
        out.extend_from_slice(&self.dropped.to_le_bytes());
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        for ev in &self.events {
            out.push(match ev.kind {
                SpanKind::Enter => 0,
                SpanKind::Exit => 1,
            });
            out.push(ev.depth);
            out.extend_from_slice(&ev.thread.to_le_bytes());
            out.extend_from_slice(&ev.name.to_le_bytes());
            out.extend_from_slice(&0u16.to_le_bytes());
            out.extend_from_slice(&ev.sweep_seq.to_le_bytes());
            out.extend_from_slice(&ev.index.to_le_bytes());
            out.extend_from_slice(&ev.tick.to_le_bytes());
            out.extend_from_slice(&ev.wall_ns.to_le_bytes());
        }
        out
    }

    /// Parses a version-1 binary trace.
    ///
    /// # Errors
    ///
    /// [`TraceError`] when the magic, version, name table, or event
    /// section is malformed or truncated.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut r = Reader { bytes, at: 0 };
        if r.take(4)? != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = r.u16()?;
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let name_count = r.u16()?;
        let mut names = Vec::with_capacity(usize::from(name_count));
        for _ in 0..name_count {
            let len = usize::from(r.u16()?);
            let raw = r.slice(len)?;
            let name = std::str::from_utf8(raw).map_err(|_| TraceError::BadName)?;
            names.push(name.to_string());
        }
        let dropped = r.u64()?;
        let event_count = r.u64()?;
        let expected = (event_count as usize).checked_mul(EVENT_SIZE);
        if expected != Some(r.remaining()) {
            return Err(TraceError::Truncated);
        }
        let mut events = Vec::with_capacity(event_count as usize);
        for _ in 0..event_count {
            let kind = match r.u8()? {
                0 => SpanKind::Enter,
                1 => SpanKind::Exit,
                other => return Err(TraceError::BadKind(other)),
            };
            let depth = r.u8()?;
            let thread = r.u16()?;
            let name = r.u16()?;
            let _reserved = r.u16()?;
            if usize::from(name) >= names.len() {
                return Err(TraceError::BadNameId(name));
            }
            events.push(SpanEvent {
                kind,
                name,
                thread,
                depth,
                sweep_seq: r.u64()?,
                index: r.u64()?,
                tick: r.u64()?,
                wall_ns: r.u64()?,
            });
        }
        Ok(Trace { names, events, dropped })
    }
}

/// Why a binary trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The version field names a format this decoder does not speak.
    UnsupportedVersion(u16),
    /// The buffer ended inside a field.
    Truncated,
    /// A name-table entry was not valid UTF-8.
    BadName,
    /// An event's kind byte was neither enter nor exit.
    BadKind(u8),
    /// An event referenced a name id beyond the name table.
    BadNameId(u16),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a ucore trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            TraceError::Truncated => write!(f, "trace is truncated"),
            TraceError::BadName => write!(f, "trace name table is not valid UTF-8"),
            TraceError::BadKind(k) => write!(f, "unknown span event kind {k}"),
            TraceError::BadNameId(id) => write!(f, "event references unknown name id {id}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A bounds-checked little-endian cursor.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Consumes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] when fewer than `n` remain.
    fn slice(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.at.checked_add(n).ok_or(TraceError::Truncated)?;
        let s = self.bytes.get(self.at..end).ok_or(TraceError::Truncated)?;
        self.at = end;
        Ok(s)
    }

    /// Consumes the next `n` bytes as an owned buffer.
    ///
    /// # Errors
    ///
    /// As [`Self::slice`].
    fn take(&mut self, n: usize) -> Result<Vec<u8>, TraceError> {
        Ok(self.slice(n)?.to_vec())
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// As [`Self::slice`].
    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.slice(1)?.first().copied().unwrap_or(0))
    }

    /// Consumes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// As [`Self::slice`].
    fn u16(&mut self) -> Result<u16, TraceError> {
        let s = self.slice(2)?;
        Ok(u16::from_le_bytes([
            s.first().copied().unwrap_or(0),
            s.get(1).copied().unwrap_or(0),
        ]))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`Self::slice`].
    fn u64(&mut self) -> Result<u64, TraceError> {
        let s = self.slice(8)?;
        let mut b = [0u8; 8];
        for (dst, src) in b.iter_mut().zip(s) {
            *dst = *src;
        }
        Ok(u64::from_le_bytes(b))
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.at)
    }
}

/// A raw recorded event (name still in interning order).
#[derive(Debug, Clone, Copy)]
struct RawEvent {
    kind: u8,
    depth: u8,
    thread: u16,
    name: u16,
    sweep_seq: u64,
    index: u64,
    tick: u64,
    wall_ns: u64,
}

/// The live ring buffer. Only the thread that armed it records into
/// it, so it needs no locks.
#[derive(Debug)]
struct TraceBuffer {
    /// Recorded events: grows to `capacity`, then wraps.
    slots: Vec<RawEvent>,
    capacity: usize,
    /// Events recorded so far, including overwritten ones.
    written: u64,
    /// Names in first-intern order; remapped to sorted order at
    /// snapshot time.
    names: Vec<&'static str>,
}

impl TraceBuffer {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        TraceBuffer {
            slots: Vec::with_capacity(capacity),
            capacity,
            written: 0,
            names: Vec::new(),
        }
    }

    /// The id for `name`, interning it on first sight. Span names are
    /// compile-time literals, so the table stays tiny and a linear scan
    /// is cheaper than any map.
    fn intern(&mut self, name: &'static str) -> u16 {
        if let Some(pos) = self.names.iter().position(|&n| n == name) {
            return pos as u16;
        }
        if self.names.len() >= usize::from(u16::MAX) {
            return u16::MAX; // pathological; events keep the sentinel id
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    fn record(&mut self, ev: RawEvent) {
        let idx = (self.written % self.capacity as u64) as usize;
        match self.slots.get_mut(idx) {
            Some(slot) => *slot = ev,
            None => self.slots.push(ev),
        }
        self.written += 1;
    }

    /// Freezes the buffer into a [`Trace`]: events oldest-first, names
    /// sorted bytewise with event ids remapped (sorted order does not
    /// depend on which span ran first).
    fn freeze(&self) -> Trace {
        let mut sorted = self.names.clone();
        sorted.sort_unstable();
        let remap: BTreeMap<&'static str, u16> = sorted
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u16))
            .collect();
        let dropped = self.written.saturating_sub(self.capacity as u64);
        let oldest = (dropped % self.capacity as u64) as usize;
        let events = self
            .slots
            .iter()
            .cycle()
            .skip(oldest)
            .take(self.slots.len())
            .map(|raw| SpanEvent {
                kind: if raw.kind == 0 { SpanKind::Enter } else { SpanKind::Exit },
                name: self
                    .names
                    .get(usize::from(raw.name))
                    .and_then(|n| remap.get(n).copied())
                    .unwrap_or(u16::MAX),
                thread: raw.thread,
                depth: raw.depth,
                sweep_seq: raw.sweep_seq,
                index: raw.index,
                tick: raw.tick,
                wall_ns: raw.wall_ns,
            })
            .collect();
        Trace {
            names: sorted.into_iter().map(str::to_string).collect(),
            events,
            dropped,
        }
    }
}

type SharedBuffer = Rc<RefCell<TraceBuffer>>;

/// Default ring-buffer capacity (events): comfortably holds every span
/// of a full-figure sweep with room for nested phases.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Disables tracing on the thread that armed it (and releases the
/// buffer) when dropped. Not `Send`: it must be dropped on that thread.
#[derive(Debug)]
pub struct TraceGuard {
    _thread_bound: PhantomData<Rc<()>>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        ACTIVE.with(|slot| {
            if let Ok(mut slot) = slot.try_borrow_mut() {
                *slot = None;
            }
        });
    }
}

/// Installs a fresh ring buffer of `capacity` events on the calling
/// thread and records that thread's spans until the returned guard is
/// dropped. Spans on other threads are not recorded. A second `start`
/// on the same thread replaces the first buffer (the earlier guard's
/// drop then simply disables whatever is active — last activation wins,
/// like the durability guard).
pub fn start(capacity: usize) -> TraceGuard {
    let buffer = Rc::new(RefCell::new(TraceBuffer::new(capacity)));
    ACTIVE.with(|slot| {
        if let Ok(mut slot) = slot.try_borrow_mut() {
            *slot = Some(buffer);
        }
    });
    TraceGuard { _thread_bound: PhantomData }
}

/// Whether a trace buffer is recording on the calling thread.
pub fn active() -> bool {
    current().is_some()
}

fn current() -> Option<SharedBuffer> {
    ACTIVE.with(|slot| slot.try_borrow().ok().and_then(|slot| slot.clone()))
}

/// Freezes the calling thread's buffer into a [`Trace`] (`None` when
/// tracing is off on this thread). The buffer keeps recording;
/// snapshots are cheap copies.
pub fn snapshot() -> Option<Trace> {
    current().and_then(|b| b.try_borrow().ok().map(|b| b.freeze()))
}

/// Encodes the calling thread's buffer to the binary format (`None`
/// when tracing is off on this thread).
pub fn encode() -> Option<Vec<u8>> {
    snapshot().map(|t| t.encode())
}

thread_local! {
    /// This thread's trace buffer, installed by [`start`].
    static ACTIVE: RefCell<Option<SharedBuffer>> = const { RefCell::new(None) };
    /// This thread's small dense id, assigned on first span.
    static THREAD_ID: u16 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        (NEXT.fetch_add(1, Ordering::Relaxed) & u64::from(u16::MAX)) as u16
    };
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u8> = const { Cell::new(0) };
}

/// An RAII span: records an enter event at construction and the
/// matching exit event when dropped — including during unwinding, so a
/// contained panic still closes its spans.
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when tracing was off at enter time (the guard is inert —
    /// and stays inert even if tracing starts mid-span, so enters and
    /// exits always pair up within one buffer).
    state: Option<SpanState>,
}

#[derive(Debug)]
struct SpanState {
    buffer: SharedBuffer,
    name: u16,
    thread: u16,
    depth: u8,
    sweep_seq: u64,
    index: u64,
}

impl SpanGuard {
    /// Opens a span. `name` should be a dotted compile-time literal
    /// (`"engine.node_point"`); `sweep_seq`/`index` key the span to a
    /// sweep point (pass 0 when not applicable).
    pub fn enter(name: &'static str, sweep_seq: u64, index: u64) -> SpanGuard {
        let Some(buffer) = current() else {
            return SpanGuard { state: None };
        };
        let Ok(mut ring) = buffer.try_borrow_mut() else {
            return SpanGuard { state: None };
        };
        let name_id = ring.intern(name);
        let thread = THREAD_ID.with(|id| *id);
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth.saturating_add(1));
            depth
        });
        ring.record(RawEvent {
            kind: 0,
            depth,
            thread,
            name: name_id,
            sweep_seq,
            index,
            tick: clock::tick(),
            wall_ns: clock::wall_ns(),
        });
        drop(ring);
        SpanGuard {
            state: Some(SpanState { buffer, name: name_id, thread, depth, sweep_seq, index }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let Ok(mut ring) = state.buffer.try_borrow_mut() else { return };
        ring.record(RawEvent {
            kind: 1,
            depth: state.depth,
            thread: state.thread,
            name: state.name,
            sweep_seq: state.sweep_seq,
            index: state.index,
            tick: clock::tick(),
            wall_ns: clock::wall_ns(),
        });
    }
}

/// Opens a [`SpanGuard`] for the rest of the enclosing scope.
///
/// ```
/// let _guard = ucore_obs::trace::start(1024);
/// {
///     let _span = ucore_obs::span!("example.phase", 0, 7);
/// }
/// let trace = ucore_obs::trace::snapshot().unwrap();
/// assert_eq!(trace.events.len(), 2);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter($name, 0, 0)
    };
    ($name:expr, $index:expr) => {
        $crate::trace::SpanGuard::enter($name, 0, ($index) as u64)
    };
    ($name:expr, $seq:expr, $index:expr) => {
        $crate::trace::SpanGuard::enter($name, ($seq) as u64, ($index) as u64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracing_is_inert() {
        assert!(!active());
        let _span = SpanGuard::enter("inert", 0, 0);
        assert!(snapshot().is_none());
        assert!(encode().is_none());
    }

    #[test]
    fn spans_pair_up_and_round_trip_through_the_codec() {
        let _guard = start(256);
        {
            let _outer = SpanGuard::enter("test.outer", 3, 11);
            let _inner = SpanGuard::enter("test.inner", 3, 11);
        }
        let trace = snapshot().unwrap();
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.names, vec!["test.inner", "test.outer"]);
        let outer_enter = &trace.events[0];
        assert_eq!(outer_enter.kind, SpanKind::Enter);
        assert_eq!(trace.name(outer_enter.name), "test.outer");
        assert_eq!((outer_enter.sweep_seq, outer_enter.index), (3, 11));
        assert_eq!(outer_enter.depth, 0);
        assert_eq!(trace.events[1].depth, 1, "inner span nests");
        // Exits come back innermost-first.
        assert_eq!(trace.events[2].kind, SpanKind::Exit);
        assert_eq!(trace.name(trace.events[2].name), "test.inner");
        // Ticks totally order the events.
        let ticks: Vec<u64> = trace.events.iter().map(|e| e.tick).collect();
        let mut sorted = ticks.clone();
        sorted.sort_unstable();
        assert_eq!(ticks, sorted);
        let decoded = Trace::decode(&trace.encode()).unwrap();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn exit_is_recorded_during_unwinding() {
        let _guard = start(256);
        let caught = std::panic::catch_unwind(|| {
            let _span = SpanGuard::enter("test.panicky", 0, 5);
            panic!("boom");
        });
        assert!(caught.is_err());
        let trace = snapshot().unwrap();
        let (enters, exits): (Vec<_>, Vec<_>) = trace
            .events
            .iter()
            .partition(|e| e.kind == SpanKind::Enter);
        assert_eq!(enters.len(), 1);
        assert_eq!(exits.len(), 1, "Drop ran during unwinding");
    }

    #[test]
    fn ring_buffer_wraps_and_counts_drops() {
        let _guard = start(16);
        for i in 0..20u64 {
            let _span = SpanGuard::enter("test.wrap", 0, i);
        }
        let trace = snapshot().unwrap();
        assert_eq!(trace.events.len(), 16);
        assert_eq!(trace.dropped, 24, "40 events through a 16-slot ring");
        // The survivors are the newest events.
        assert_eq!(trace.events.last().map(|e| e.index), Some(19));
    }

    #[test]
    fn concurrent_traces_see_only_their_own_thread() {
        // Both threads arm a buffer before either records, and both
        // record before either snapshots, so a buffer shared between
        // them would show the other thread's spans.
        let armed = std::sync::Barrier::new(2);
        let recorded = std::sync::Barrier::new(2);
        let run = |name: &'static str| {
            let _guard = start(256);
            armed.wait();
            for i in 0..50u64 {
                let _span = SpanGuard::enter(name, 0, i);
            }
            recorded.wait();
            (THREAD_ID.with(|id| *id), snapshot().unwrap())
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| run("test.thread_a"));
            let b = scope.spawn(|| run("test.thread_b"));
            (a.join().unwrap(), b.join().unwrap())
        });
        for ((thread, trace), name) in [(a, "test.thread_a"), (b, "test.thread_b")] {
            assert_eq!(trace.names, vec![name]);
            assert_eq!(trace.events.len(), 100);
            assert!(trace.events.iter().all(|e| e.thread == thread));
        }
    }

    #[test]
    fn decode_rejects_malformed_traces() {
        assert_eq!(Trace::decode(b"nop"), Err(TraceError::Truncated));
        assert_eq!(Trace::decode(b"nope"), Err(TraceError::BadMagic));
        assert_eq!(Trace::decode(b"XXXX\x01\x00"), Err(TraceError::BadMagic));
        let mut v2 = Vec::new();
        v2.extend_from_slice(&TRACE_MAGIC);
        v2.extend_from_slice(&2u16.to_le_bytes());
        assert_eq!(Trace::decode(&v2), Err(TraceError::UnsupportedVersion(2)));
        let good = Trace::default().encode();
        assert_eq!(Trace::decode(&good), Ok(Trace::default()));
        let truncated = &good[..good.len() - 1];
        assert_eq!(Trace::decode(truncated), Err(TraceError::Truncated));
    }
}
