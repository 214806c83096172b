//! Compact binary execution traces: record once, analyze many times.
//!
//! A trace is a byte stream with three layers:
//!
//! * **Header** — magic `LUTR` plus a varint format version.
//! * **Segments** — the event stream, chopped into bounded chunks. The
//!   writer closes a segment before any record once it holds its record
//!   limit ([`DEFAULT_SEGMENT_LIMIT`] by default) or
//!   [`SEGMENT_BYTE_LIMIT`] payload bytes, and on every guest-thread
//!   switch. So readers check, buffer and salvage one small segment at a
//!   time, and the streaming reader's record cap
//!   ([`DEFAULT_STREAM_RECORD_LIMIT`]) follows from what the writer can
//!   emit. Every segment opens with a **prologue** describing the live
//!   shadow-stack at that point (method, local count, a globally unique
//!   frame id, and the receiver object of each live frame, plus the
//!   phase flag): exactly the state a shadow stack needs to be seeded
//!   with to start mid-run.
//! * **Trailer** — event/instruction/allocation/push/segment totals, so
//!   replay clients get the [`RunOutcome`](crate::RunOutcome)-level counts
//!   without re-deriving them.
//!
//! All integers are LEB128 varints (zigzag for signed); floats are stored
//! as their IEEE-754 bit pattern. The encoding is byte-exact: replaying a
//! trace produces the identical event sequence, in order, that the live
//! run produced, so any [`EventSink`] (including a full
//! profiler behind a [`TracerSink`]) sees no
//! difference between live and recorded executions.
//!
//! # Format versions
//!
//! Traces cross machines and disks, so corrupt input is a tested,
//! recoverable condition rather than UB. Three wire versions exist:
//!
//! * **v1** (legacy, read-only) — segments are
//!   `tag, prologue-len, prologue, payload-len, payload` with no
//!   integrity protection; the trailer is four bare varints.
//! * **v2** — every record is length-framed and checksummed:
//!   `tag, body-len, body, crc32(body)`, where a segment body is
//!   `segment-index, prologue-len, prologue, payload-len, payload` and
//!   the trailer body adds a fifth varint carrying the segment count.
//!   The explicit index pins each segment to its position, so a spliced
//!   or reordered (but internally intact) segment is detected; the body
//!   length lets readers skip a corrupt segment structurally, which is
//!   what makes [`TraceReader::salvage`] able to count what it dropped.
//! * **v3** (current) — v2's framing, plus a thread-id varint opening
//!   every segment prologue. Segments are **per-thread**: the writer
//!   closes the current segment whenever the scheduler switches guest
//!   threads, so each segment's records all belong to the thread its
//!   prologue names, and the prologue's shadow stack is that thread's
//!   stack. Single-threaded recordings differ from v2 only in the
//!   header version and a zero thread-id varint per prologue.
//!
//! [`TraceReader::new`] negotiates the version from the header and reads
//! all three; [`TraceWriter`] writes only v3. The checked-in golden v1
//! and v2 fixtures (`samples/golden_v{1,2}.trace`) keep the legacy
//! readers pinned. All declared lengths are validated against the
//! remaining buffer *before* any allocation, so a corrupt length yields
//! a [`TraceError`], never an over-allocation.

use crate::crc::{crc32, Crc32};
use crate::event::{Event, FrameInfo};
use crate::sink::{EventSink, TracerSink};
use crate::tracer::NullTracer;
use lowutil_ir::{
    AllocSiteId, CmpOp, FieldId, InstrId, Local, MethodId, NativeId, ObjectId, StaticId, ThreadId,
    Value,
};
use std::fmt;
use std::io::{self, Write};

/// The four magic bytes opening every trace.
pub const TRACE_MAGIC: [u8; 4] = *b"LUTR";
/// The trace format version this crate writes.
pub const TRACE_VERSION: u64 = 3;
/// The single-threaded checksummed format, still read and writable.
pub const TRACE_VERSION_V2: u64 = 2;
/// The legacy checksum-free format, still accepted by [`TraceReader`].
pub const TRACE_VERSION_V1: u64 = 1;

const TAG_SEGMENT: u8 = 0x01;
const TAG_TRAILER: u8 = 0x02;

/// Default maximum number of records per segment. The writer closes a
/// segment before any record once it holds this many, so no segment
/// holds more.
pub const DEFAULT_SEGMENT_LIMIT: usize = 16 * 1024;

/// Payload bytes at which the writer closes a segment, whatever its
/// record limit: a segment's payload is at most this minus one plus
/// [`MAX_RECORD_BYTES`]. At [`DEFAULT_SEGMENT_LIMIT`] the suite's
/// segments stay below it (about 170 KB at most), so it binds only on
/// runs of unusually long records or at a raised record limit.
pub const SEGMENT_BYTE_LIMIT: usize = 256 << 10;

/// The longest record the writer can encode: a `Native` with
/// `u16::MAX` arguments (parameter counts and native arities are
/// `u16`), every varint at its widest. Opcode 1, instruction 5 + 5,
/// native id 5, argument count 3, 3 per argument, destination 3, value
/// tag 1 + 10. `Call` and `Spawn` records are a few bytes shorter.
pub const MAX_RECORD_BYTES: usize = 1 + 10 + 5 + 3 + 3 * u16::MAX as usize + 3 + 11;

/// The longest prologue the writer emits for a stack of the VM's default
/// depth limit ([`RunConfig::max_stack`](crate::RunConfig::max_stack)):
/// thread id 5, depth 3, then per frame method 5 + locals 3 + gid 10 +
/// receiver 5, then the phase flag 1 and the push count 10. A run with
/// a raised `max_stack` can emit longer ones.
const MAX_PROLOGUE_BYTES: usize = 5 + 3 + crate::interp::DEFAULT_MAX_STACK * 23 + 1 + 10;

// Record opcodes. 0..=15 mirror the first sixteen `Event` variants in
// declaration order; 16/17 are the frame hooks; 18/19 are the thread
// events introduced with format v3.
const OP_COMPUTE: u8 = 0;
const OP_PREDICATE: u8 = 1;
const OP_ALLOC: u8 = 2;
const OP_LOAD_FIELD: u8 = 3;
const OP_STORE_FIELD: u8 = 4;
const OP_LOAD_STATIC: u8 = 5;
const OP_STORE_STATIC: u8 = 6;
const OP_ARRAY_LOAD: u8 = 7;
const OP_ARRAY_STORE: u8 = 8;
const OP_ARRAY_LEN: u8 = 9;
const OP_CALL: u8 = 10;
const OP_RETURN: u8 = 11;
const OP_CALL_COMPLETE: u8 = 12;
const OP_NATIVE: u8 = 13;
const OP_PHASE: u8 = 14;
const OP_JUMP: u8 = 15;
const OP_FRAME_PUSH: u8 = 16;
const OP_FRAME_POP: u8 = 17;
const OP_SPAWN: u8 = 18;
const OP_JOIN: u8 = 19;

/// A malformed or truncated trace.
#[derive(Debug, Clone)]
pub struct TraceError {
    /// Byte offset (within the parsed buffer) where decoding failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for TraceError {}

// ---------------------------------------------------------------------------
// varint codec
// ---------------------------------------------------------------------------

/// LEB128 encode. Event streams are dominated by 1–2 byte varints
/// (opcode tags, register numbers, small deltas), so those two sizes
/// get straight-line paths — a compare and a fixed-size append, no
/// shift/test loop — and everything longer falls through to the
/// generic loop. All paths emit canonical LEB128, so the bytes are
/// identical whichever path runs (the v1 golden-trace test pins this).
#[inline]
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    if v < 0x80 {
        buf.push(v as u8);
    } else if v < 0x4000 {
        buf.extend_from_slice(&[(v as u8 & 0x7f) | 0x80, (v >> 7) as u8]);
    } else {
        put_u64_long(buf, v);
    }
}

#[cold]
fn put_u64_long(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    put_u64(buf, u64::from(v));
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A decoding cursor over a byte slice. `base` is the slice's offset in
/// the overall trace so error positions are absolute.
///
/// Errors are sticky: the getters return `Option`, and the first failure
/// records its [`TraceError`] in the cursor. Only a record boundary
/// ([`Cur::record`]) turns the `None` back into that error, so decoding a
/// valid trace moves plain values through `?`, never a `Result` wide
/// enough to carry a message.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
    base: usize,
    error: Option<TraceError>,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8], base: usize) -> Self {
        Cur {
            buf,
            pos: 0,
            base,
            error: None,
        }
    }

    /// Builds the error at the cursor. Kept out of line: decoding a
    /// valid trace never gets here, and the hot getters stay small.
    #[cold]
    #[inline(never)]
    fn err(&self, message: impl Into<String>) -> TraceError {
        TraceError {
            offset: self.base + self.pos,
            message: message.into(),
        }
    }

    /// Records `message` at the cursor as the decode failure (the first
    /// one recorded wins) and returns `None`.
    #[cold]
    #[inline(never)]
    fn fail<T>(&mut self, message: impl Into<String>) -> Option<T> {
        if self.error.is_none() {
            self.error = Some(self.err(message));
        }
        None
    }

    /// Runs `decode` as one record, header or prologue: the boundary
    /// where a `None` becomes the failure it recorded.
    fn record<T>(&mut self, decode: impl FnOnce(&mut Self) -> Option<T>) -> Result<T, TraceError> {
        match decode(self) {
            Some(v) => Ok(v),
            None => Err(self
                .error
                .take()
                .unwrap_or_else(|| self.err("undecodable record"))),
        }
    }

    /// Adopts the result of a nested boundary (a prologue decoded by a
    /// cursor of its own) into this cursor's sticky error.
    fn nested<T>(&mut self, r: Result<T, TraceError>) -> Option<T> {
        r.map_err(|e| self.error = Some(e)).ok()
    }

    fn done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    #[inline(always)]
    fn u8(&mut self) -> Option<u8> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Some(b)
            }
            None => self.fail("unexpected end of trace"),
        }
    }

    /// LEB128 decode, with branchless-style fast paths for the 1- and
    /// 2-byte encodings of opcodes, registers and instruction ids: peek
    /// up to two bytes, test their continuation bits, and combine with a
    /// shift-or — no loop state. Longer encodings go to
    /// [`u64_wide`](Self::u64_wide). Byte loads only: no alignment
    /// requirement, and the 7-bit groups compose little-endian (first
    /// byte is least significant) independent of host endianness.
    #[inline(always)]
    fn u64(&mut self) -> Option<u64> {
        if let Some(&b0) = self.buf.get(self.pos) {
            if b0 & 0x80 == 0 {
                self.pos += 1;
                return Some(u64::from(b0));
            }
            if let Some(&b1) = self.buf.get(self.pos + 1) {
                if b1 & 0x80 == 0 {
                    self.pos += 2;
                    return Some(u64::from(b0 & 0x7f) | u64::from(b1) << 7);
                }
            }
        }
        self.u64_wide()
    }

    /// Decodes a 3–10-byte varint from one 8-byte little-endian load
    /// (plus up to two trailing bytes): the first byte with its top bit
    /// clear ends the encoding, and three shift-and-mask steps pack the
    /// 7-bit groups. What it does not accept — fewer than 8 bytes left,
    /// or a 9th/10th byte that is missing or overflows — goes to the
    /// byte loop from scratch, so errors and their offsets are the
    /// loop's. Float bits and large ids take 9–10 bytes, so this path
    /// is warm.
    fn u64_wide(&mut self) -> Option<u64> {
        let Some(&word) = self.buf.get(self.pos..).and_then(<[u8]>::first_chunk::<8>) else {
            return self.u64_long();
        };
        let word = u64::from_le_bytes(word);
        let stops = !word & 0x8080_8080_8080_8080;
        let (v, len) = if stops != 0 {
            let len = stops.trailing_zeros() as usize / 8 + 1;
            (pack_groups(word & (u64::MAX >> (64 - 8 * len))), len)
        } else {
            let low = pack_groups(word);
            match (self.buf.get(self.pos + 8), self.buf.get(self.pos + 9)) {
                (Some(&b8), _) if b8 < 0x80 => (low | u64::from(b8) << 56, 9),
                (Some(&b8), Some(&b9)) if b9 <= 1 => {
                    (low | u64::from(b8 & 0x7f) << 56 | u64::from(b9) << 63, 10)
                }
                _ => return self.u64_long(),
            }
        };
        self.pos += len;
        Some(v)
    }

    #[cold]
    fn u64_long(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return self.fail("varint overflows u64");
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    #[inline(always)]
    fn u32(&mut self) -> Option<u32> {
        let v = self.u64()?;
        u32::try_from(v)
            .ok()
            .or_else(|| self.fail("varint overflows u32"))
    }

    #[inline(always)]
    fn u16(&mut self) -> Option<u16> {
        let v = self.u64()?;
        u16::try_from(v)
            .ok()
            .or_else(|| self.fail("varint overflows u16"))
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            b => self.fail(format!("invalid bool byte {b}")),
        }
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let Some(end) = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()) else {
            return self.fail("length runs past end of trace");
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A raw (non-varint) little-endian u32 — the wire form of checksums.
    fn u32_raw(&mut self) -> Option<u32> {
        let b = self.bytes(4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a declared byte length and validates it against the bytes
    /// actually remaining, so corrupt lengths fail here — *before* any
    /// allocation or slicing is attempted.
    fn declared_len(&mut self, what: &str) -> Option<usize> {
        let v = self.u64()?;
        let Ok(n) = usize::try_from(v) else {
            return self.fail(format!("{what} length overflows"));
        };
        if n > self.remaining() {
            return self.fail(format!(
                "declared {what} length {n} exceeds {} remaining bytes",
                self.remaining()
            ));
        }
        Some(n)
    }

    /// Reads a declared element count whose encoding needs at least
    /// `min_bytes` bytes per element; bounds any follow-up
    /// `Vec::with_capacity(count)` by the remaining buffer size.
    fn declared_count(&mut self, what: &str, min_bytes: usize) -> Option<usize> {
        let v = self.u64()?;
        let Ok(n) = usize::try_from(v) else {
            return self.fail(format!("{what} count overflows"));
        };
        if n.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return self.fail(format!(
                "declared {what} count {n} cannot fit in {} remaining bytes",
                self.remaining()
            ));
        }
        Some(n)
    }
}

/// Packs the low 7 bits of each of the 8 bytes of `x` into one 56-bit
/// value, first byte least significant: 7-bit groups pair into 14-bit
/// ones, then 28-bit ones, then one 56-bit one.
#[inline(always)]
fn pack_groups(x: u64) -> u64 {
    let x = x & 0x7f7f_7f7f_7f7f_7f7f;
    let x = (x & 0x007f_007f_007f_007f) | (x & 0x7f00_7f00_7f00_7f00) >> 1;
    let x = (x & 0x0000_3fff_0000_3fff) | (x & 0x3fff_0000_3fff_0000) >> 2;
    (x & 0x0000_0000_0fff_ffff) | (x & 0x0fff_ffff_0000_0000) >> 4
}

/// Low-level varint entry points, exposed so the criterion benches can
/// measure the codec in isolation (not just end-to-end through the
/// trace writer/reader). Not part of the stable trace API.
pub mod wire {
    /// Appends `v` as canonical LEB128.
    #[inline]
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        super::put_u64(buf, v);
    }

    /// A decode cursor over a whole buffer — the same cursor the trace
    /// reader drives, so benches measure the codec at its real call
    /// shape (one cursor per segment, not one re-slice per value).
    pub struct Reader<'a> {
        cur: super::Cur<'a>,
    }

    impl<'a> Reader<'a> {
        /// A cursor positioned at the start of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Reader {
                cur: super::Cur::new(buf, 0),
            }
        }

        /// Decodes the next varint; `None` at end of input or on a
        /// truncated/overflowing encoding.
        #[inline]
        #[allow(clippy::should_implement_trait)]
        pub fn next(&mut self) -> Option<u64> {
            self.cur.u64()
        }
    }
}

// ---------------------------------------------------------------------------
// field codecs
// ---------------------------------------------------------------------------

fn put_instr(buf: &mut Vec<u8>, at: InstrId) {
    put_u32(buf, at.method.0);
    put_u32(buf, at.pc);
}

#[inline(always)]
fn get_instr(c: &mut Cur) -> Option<InstrId> {
    let method = MethodId(c.u32()?);
    let pc = c.u32()?;
    Some(InstrId::new(method, pc))
}

fn put_local(buf: &mut Vec<u8>, l: Local) {
    put_u32(buf, u32::from(l.0));
}

#[inline(always)]
fn get_local(c: &mut Cur) -> Option<Local> {
    Some(Local(c.u16()?))
}

fn put_opt_local(buf: &mut Vec<u8>, l: Option<Local>) {
    match l {
        None => put_u32(buf, 0),
        Some(l) => put_u32(buf, u32::from(l.0) + 1),
    }
}

#[inline(always)]
fn get_opt_local(c: &mut Cur) -> Option<Option<Local>> {
    match c.u32()? {
        0 => Some(None),
        v => match u16::try_from(v - 1) {
            Ok(raw) => Some(Some(Local(raw))),
            Err(_) => c.fail("local index overflows u16"),
        },
    }
}

fn put_opt_object(buf: &mut Vec<u8>, o: Option<ObjectId>) {
    match o {
        None => put_u64(buf, 0),
        Some(o) => put_u64(buf, u64::from(o.0) + 1),
    }
}

fn get_opt_object(c: &mut Cur) -> Option<Option<ObjectId>> {
    match c.u64()? {
        0 => Some(None),
        v => match u32::try_from(v - 1) {
            Ok(raw) => Some(Some(ObjectId(raw))),
            Err(_) => c.fail("object id overflows u32"),
        },
    }
}

const VAL_NULL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_FLOAT: u8 = 2;
const VAL_REF: u8 = 3;
const VAL_ABSENT: u8 = 4;

fn put_value(buf: &mut Vec<u8>, v: Value) {
    match v {
        Value::Null => buf.push(VAL_NULL),
        Value::Int(i) => {
            buf.push(VAL_INT);
            put_u64(buf, zigzag(i));
        }
        Value::Float(f) => {
            buf.push(VAL_FLOAT);
            put_u64(buf, f.to_bits());
        }
        Value::Ref(o) => {
            buf.push(VAL_REF);
            put_u32(buf, o.0);
        }
    }
}

#[inline(always)]
fn get_value_tag(c: &mut Cur, tag: u8) -> Option<Value> {
    Some(match tag {
        VAL_NULL => Value::Null,
        VAL_INT => Value::Int(unzigzag(c.u64()?)),
        VAL_FLOAT => Value::Float(f64::from_bits(c.u64()?)),
        VAL_REF => Value::Ref(ObjectId(c.u32()?)),
        t => return c.fail(format!("invalid value tag {t}")),
    })
}

#[inline(always)]
fn get_value(c: &mut Cur) -> Option<Value> {
    let tag = c.u8()?;
    get_value_tag(c, tag)
}

fn put_opt_value(buf: &mut Vec<u8>, v: Option<Value>) {
    match v {
        None => buf.push(VAL_ABSENT),
        Some(v) => put_value(buf, v),
    }
}

#[inline(always)]
fn get_opt_value(c: &mut Cur) -> Option<Option<Value>> {
    match c.u8()? {
        VAL_ABSENT => Some(None),
        tag => get_value_tag(c, tag).map(Some),
    }
}

fn put_locals(buf: &mut Vec<u8>, ls: &[Local]) {
    put_u64(buf, ls.len() as u64);
    for &l in ls {
        put_local(buf, l);
    }
}

fn get_locals(c: &mut Cur) -> Option<Vec<Local>> {
    // Each local is at least one byte on the wire, so a count exceeding
    // the remaining buffer is corrupt; checked before allocating.
    let n = c.declared_count("locals", 1)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(get_local(c)?);
    }
    Some(v)
}

fn cmp_op_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn get_cmp_op(c: &mut Cur) -> Option<CmpOp> {
    Some(match c.u8()? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        code => return c.fail(format!("invalid cmp op {code}")),
    })
}

// ---------------------------------------------------------------------------
// record codecs
// ---------------------------------------------------------------------------

fn put_event(buf: &mut Vec<u8>, e: &Event) {
    match e {
        Event::Compute {
            at,
            dst,
            uses,
            value,
        } => {
            buf.push(OP_COMPUTE);
            put_instr(buf, *at);
            put_local(buf, *dst);
            put_opt_local(buf, uses[0]);
            put_opt_local(buf, uses[1]);
            put_value(buf, *value);
        }
        Event::Predicate {
            at,
            op,
            uses,
            taken,
        } => {
            buf.push(OP_PREDICATE);
            put_instr(buf, *at);
            buf.push(cmp_op_code(*op));
            put_local(buf, uses[0]);
            put_local(buf, uses[1]);
            buf.push(u8::from(*taken));
        }
        Event::Alloc {
            at,
            dst,
            object,
            site,
            len_use,
        } => {
            buf.push(OP_ALLOC);
            put_instr(buf, *at);
            put_local(buf, *dst);
            put_u32(buf, object.0);
            put_u32(buf, site.0);
            put_opt_local(buf, *len_use);
        }
        Event::LoadField {
            at,
            dst,
            base,
            object,
            field,
            offset,
            value,
        } => {
            buf.push(OP_LOAD_FIELD);
            put_instr(buf, *at);
            put_local(buf, *dst);
            put_local(buf, *base);
            put_u32(buf, object.0);
            put_u32(buf, field.0);
            put_u32(buf, *offset);
            put_value(buf, *value);
        }
        Event::StoreField {
            at,
            base,
            object,
            field,
            offset,
            src,
            value,
        } => {
            buf.push(OP_STORE_FIELD);
            put_instr(buf, *at);
            put_local(buf, *base);
            put_u32(buf, object.0);
            put_u32(buf, field.0);
            put_u32(buf, *offset);
            put_local(buf, *src);
            put_value(buf, *value);
        }
        Event::LoadStatic {
            at,
            dst,
            field,
            value,
        } => {
            buf.push(OP_LOAD_STATIC);
            put_instr(buf, *at);
            put_local(buf, *dst);
            put_u32(buf, field.0);
            put_value(buf, *value);
        }
        Event::StoreStatic {
            at,
            field,
            src,
            value,
        } => {
            buf.push(OP_STORE_STATIC);
            put_instr(buf, *at);
            put_u32(buf, field.0);
            put_local(buf, *src);
            put_value(buf, *value);
        }
        Event::ArrayLoad {
            at,
            dst,
            base,
            object,
            idx,
            index,
            value,
        } => {
            buf.push(OP_ARRAY_LOAD);
            put_instr(buf, *at);
            put_local(buf, *dst);
            put_local(buf, *base);
            put_u32(buf, object.0);
            put_local(buf, *idx);
            put_u32(buf, *index);
            put_value(buf, *value);
        }
        Event::ArrayStore {
            at,
            base,
            object,
            idx,
            index,
            src,
            value,
        } => {
            buf.push(OP_ARRAY_STORE);
            put_instr(buf, *at);
            put_local(buf, *base);
            put_u32(buf, object.0);
            put_local(buf, *idx);
            put_u32(buf, *index);
            put_local(buf, *src);
            put_value(buf, *value);
        }
        Event::ArrayLen {
            at,
            dst,
            base,
            object,
            value,
        } => {
            buf.push(OP_ARRAY_LEN);
            put_instr(buf, *at);
            put_local(buf, *dst);
            put_local(buf, *base);
            put_u32(buf, object.0);
            put_value(buf, *value);
        }
        Event::Call { at, callee, args } => {
            buf.push(OP_CALL);
            put_instr(buf, *at);
            put_u32(buf, callee.0);
            put_locals(buf, args);
        }
        Event::Return { at, src, value } => {
            buf.push(OP_RETURN);
            put_instr(buf, *at);
            put_opt_local(buf, *src);
            put_opt_value(buf, *value);
        }
        Event::CallComplete { at, dst, value } => {
            buf.push(OP_CALL_COMPLETE);
            put_instr(buf, *at);
            put_opt_local(buf, *dst);
            put_opt_value(buf, *value);
        }
        Event::Native {
            at,
            native,
            args,
            dst,
            value,
        } => {
            buf.push(OP_NATIVE);
            put_instr(buf, *at);
            put_u32(buf, native.0);
            put_locals(buf, args);
            put_opt_local(buf, *dst);
            put_opt_value(buf, *value);
        }
        Event::Phase { at, begin } => {
            buf.push(OP_PHASE);
            put_instr(buf, *at);
            buf.push(u8::from(*begin));
        }
        Event::Jump { at } => {
            buf.push(OP_JUMP);
            put_instr(buf, *at);
        }
        Event::Spawn {
            at,
            dst,
            thread,
            callee,
            args,
        } => {
            buf.push(OP_SPAWN);
            put_instr(buf, *at);
            put_local(buf, *dst);
            put_u32(buf, thread.0);
            put_u32(buf, callee.0);
            put_locals(buf, args);
        }
        Event::Join {
            at,
            dst,
            thread,
            value,
        } => {
            buf.push(OP_JOIN);
            put_instr(buf, *at);
            put_opt_local(buf, *dst);
            put_u32(buf, thread.0);
            put_opt_value(buf, *value);
        }
    }
}

fn put_frame_info(buf: &mut Vec<u8>, info: &FrameInfo) {
    put_u32(buf, info.method.0);
    match info.call_site {
        None => buf.push(0),
        Some(at) => {
            buf.push(1);
            put_instr(buf, at);
        }
    }
    put_u64(buf, u64::from(info.num_params));
    put_u64(buf, u64::from(info.num_locals));
    put_opt_object(buf, info.receiver);
    put_u64(buf, u64::from(info.num_args));
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

/// Totals reported by [`TraceWriter::finish`], mirroring the trailer.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceStats {
    /// Instruction events recorded (including `CallComplete`).
    pub events: u64,
    /// Executed instructions (events excluding `CallComplete`), matching
    /// [`RunOutcome::instructions_executed`](crate::RunOutcome).
    pub instructions: u64,
    /// Objects allocated.
    pub objects_allocated: u64,
    /// Frame pushes recorded.
    pub frame_pushes: u64,
    /// Number of segments written.
    pub segments: u64,
    /// Total bytes written, including header and trailer.
    pub bytes: u64,
}

/// A live frame as the writer tracks it for prologue capture.
#[derive(Debug, Clone, Copy)]
struct WriterFrame {
    method: MethodId,
    num_locals: u16,
    /// Global frame id: the index of this frame's push among all pushes.
    gid: u64,
    receiver: Option<ObjectId>,
}

/// An [`EventSink`] that serializes the stream to a [`Write`] target.
///
/// Attach it to a live run via [`SinkTracer`](crate::SinkTracer) —
/// optionally tupled with a profiler so one execution both profiles and
/// records — then call [`TraceWriter::finish`] to flush the final segment
/// and trailer. I/O errors are deferred: the sink hooks are infallible,
/// so a failed write latches the error and `finish` reports it.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    started: bool,
    io_error: Option<io::Error>,
    /// Prologue captured at the current segment's start.
    prologue: Vec<u8>,
    /// Encoded records of the current segment.
    seg: Vec<u8>,
    seg_records: usize,
    segment_limit: usize,
    /// Per-thread shadow-stack mirrors, indexed by thread id. Frame gids
    /// stay globally unique: `push_count` counts pushes across all
    /// threads.
    frames: Vec<Vec<WriterFrame>>,
    /// The thread whose records the current segment holds.
    cur_thread: usize,
    push_count: u64,
    in_phase: bool,
    stats: TraceStats,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer with the [`DEFAULT_SEGMENT_LIMIT`].
    pub fn new(out: W) -> Self {
        Self::with_segment_limit(out, DEFAULT_SEGMENT_LIMIT)
    }

    /// Creates a writer that closes a segment once it holds `limit`
    /// records (or [`SEGMENT_BYTE_LIMIT`] payload bytes), at whatever
    /// record comes next. Smaller limits lose less of a damaged trace to
    /// salvage, at the cost of prologue overhead; tests use tiny limits
    /// to force segmentation on small programs.
    pub fn with_segment_limit(out: W, limit: usize) -> Self {
        let mut w = TraceWriter {
            out,
            started: false,
            io_error: None,
            prologue: Vec::new(),
            seg: Vec::new(),
            seg_records: 0,
            segment_limit: limit.max(1),
            frames: vec![Vec::new()],
            cur_thread: 0,
            push_count: 0,
            in_phase: false,
            stats: TraceStats::default(),
        };
        w.capture_prologue();
        w
    }

    /// Encodes the current thread's shadow-stack state as the prologue of
    /// the segment that starts *now*.
    fn capture_prologue(&mut self) {
        self.prologue.clear();
        put_u64(&mut self.prologue, self.cur_thread as u64);
        let frames = &self.frames[self.cur_thread];
        put_u64(&mut self.prologue, frames.len() as u64);
        for f in frames {
            put_u32(&mut self.prologue, f.method.0);
            put_u64(&mut self.prologue, u64::from(f.num_locals));
            put_u64(&mut self.prologue, f.gid);
            put_opt_object(&mut self.prologue, f.receiver);
        }
        self.prologue.push(u8::from(self.in_phase));
        put_u64(&mut self.prologue, self.push_count);
    }

    fn write_all(&mut self, bytes: &[u8]) {
        if self.io_error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(bytes) {
            self.io_error = Some(e);
            return;
        }
        self.stats.bytes += bytes.len() as u64;
    }

    /// Writes the current segment (prologue + payload) and begins a new
    /// one whose prologue reflects the state as of now.
    fn flush_segment(&mut self) {
        if !self.started {
            self.started = true;
            let mut header = Vec::with_capacity(8);
            header.extend_from_slice(&TRACE_MAGIC);
            put_u64(&mut header, TRACE_VERSION);
            self.write_all(&header);
        }
        // Body: index, prologue-len, prologue, payload-len, payload; CRC
        // over the body, streamed part by part to avoid a copy.
        let mut head = Vec::with_capacity(16);
        put_u64(&mut head, self.stats.segments);
        put_u64(&mut head, self.prologue.len() as u64);
        let mut mid = Vec::with_capacity(8);
        put_u64(&mut mid, self.seg.len() as u64);
        let body_len = head.len() + self.prologue.len() + mid.len() + self.seg.len();
        let mut crc = Crc32::new();
        crc.update(&head);
        crc.update(&self.prologue);
        crc.update(&mid);
        crc.update(&self.seg);
        let mut framing = Vec::with_capacity(16);
        framing.push(TAG_SEGMENT);
        put_u64(&mut framing, body_len as u64);
        self.write_all(&framing);
        self.write_all(&head);
        let prologue = std::mem::take(&mut self.prologue);
        self.write_all(&prologue);
        self.write_all(&mid);
        let seg = std::mem::take(&mut self.seg);
        self.write_all(&seg);
        self.write_all(&crc.finish().to_le_bytes());
        self.stats.segments += 1;
        self.seg_records = 0;
        self.capture_prologue();
    }

    /// Closes the current segment before the next record once it is
    /// full, so every segment holds at most `segment_limit` records and
    /// a payload below [`SEGMENT_BYTE_LIMIT`] plus one record.
    #[inline]
    fn split_if_full(&mut self) {
        if self.seg_records >= self.segment_limit || self.seg.len() >= SEGMENT_BYTE_LIMIT {
            self.flush_segment();
        }
    }

    /// Flushes the final segment, writes the trailer, and returns the
    /// underlying writer together with the totals. Reports any I/O error
    /// encountered during the run.
    pub fn finish(mut self) -> io::Result<(W, TraceStats)> {
        if !self.seg.is_empty() || self.stats.segments == 0 {
            self.flush_segment();
        }
        let mut body = Vec::with_capacity(40);
        put_u64(&mut body, self.stats.events);
        put_u64(&mut body, self.stats.instructions);
        put_u64(&mut body, self.stats.objects_allocated);
        put_u64(&mut body, self.stats.frame_pushes);
        put_u64(&mut body, self.stats.segments);
        let mut framing = Vec::with_capacity(8);
        framing.push(TAG_TRAILER);
        put_u64(&mut framing, body.len() as u64);
        self.write_all(&framing);
        self.write_all(&body);
        self.write_all(&crc32(&body).to_le_bytes());
        if self.io_error.is_none() {
            if let Err(e) = self.out.flush() {
                self.io_error = Some(e);
            }
        }
        match self.io_error {
            Some(e) => Err(e),
            None => Ok((self.out, self.stats)),
        }
    }
}

impl<W: Write> EventSink for TraceWriter<W> {
    fn event(&mut self, event: &Event) {
        // Before the phase flag moves: the next prologue describes the
        // state this record starts from.
        self.split_if_full();
        match event {
            Event::Phase { begin, .. } => self.in_phase = *begin,
            Event::Alloc { .. } => self.stats.objects_allocated += 1,
            _ => {}
        }
        self.stats.events += 1;
        if !matches!(event, Event::CallComplete { .. }) {
            self.stats.instructions += 1;
        }
        put_event(&mut self.seg, event);
        self.seg_records += 1;
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        // Before the frame is mirrored: the next prologue's stack does
        // not hold it yet.
        self.split_if_full();
        self.frames[self.cur_thread].push(WriterFrame {
            method: info.method,
            num_locals: info.num_locals,
            gid: self.push_count,
            receiver: info.receiver,
        });
        self.push_count += 1;
        self.stats.frame_pushes += 1;
        self.seg.push(OP_FRAME_PUSH);
        put_frame_info(&mut self.seg, info);
        self.seg_records += 1;
    }

    fn frame_pop(&mut self) {
        self.split_if_full();
        self.frames[self.cur_thread].pop();
        self.seg.push(OP_FRAME_POP);
        self.seg_records += 1;
    }

    fn thread(&mut self, tid: ThreadId) {
        if tid.index() == self.cur_thread {
            return;
        }
        // Segments are per-thread: close the departing thread's segment
        // (if it holds anything) and open one owned by `tid`, whose
        // prologue carries that thread's shadow stack.
        if self.seg_records > 0 {
            self.flush_segment();
        }
        self.cur_thread = tid.index();
        if self.frames.len() <= self.cur_thread {
            self.frames.resize_with(self.cur_thread + 1, Vec::new);
        }
        self.capture_prologue();
    }
}

// ---------------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------------

/// One live frame described by a segment prologue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrologueFrame {
    /// The frame's method.
    pub method: MethodId,
    /// Total local slots in the frame.
    pub num_locals: u16,
    /// Global frame id (index of its push among all pushes in the run).
    pub gid: u64,
    /// The receiver object the frame was entered with, if any. Consumers
    /// reconstruct the object-sensitive context chain from these.
    pub receiver: Option<ObjectId>,
}

/// The shadow-stack state at a segment boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Prologue {
    /// The guest thread this segment's records belong to. Always
    /// [`ThreadId::MAIN`] for v1/v2 traces, whose executions are
    /// single-threaded by construction.
    pub thread: ThreadId,
    /// Live frames of that thread, outermost first.
    pub frames: Vec<PrologueFrame>,
    /// Whether execution was inside a `phase_begin`/`phase_end` window.
    pub in_phase: bool,
    /// The global frame id the segment's first in-segment push receives.
    pub first_gid: u64,
}

/// Run totals recorded in the trace trailer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Trailer {
    /// Instruction events (including `CallComplete`).
    pub events: u64,
    /// Executed instructions, matching
    /// [`RunOutcome::instructions_executed`](crate::RunOutcome).
    pub instructions: u64,
    /// Objects allocated during the run.
    pub objects_allocated: u64,
    /// Total frame pushes.
    pub frame_pushes: u64,
    /// Number of segments in the trace. Recorded on the wire by v2; for
    /// v1 traces the reader fills it in from the parsed segment count.
    pub segments: u64,
}

/// One independently replayable chunk of the trace.
#[derive(Debug, Clone)]
pub struct Segment<'a> {
    prologue: Prologue,
    payload: &'a [u8],
    /// Absolute offset of the payload in the trace, for error reporting.
    payload_offset: usize,
}

impl<'a> Segment<'a> {
    /// The shadow-stack state this segment starts from.
    pub fn prologue(&self) -> &Prologue {
        &self.prologue
    }

    /// The segment's raw event payload — what a checksum protects, and
    /// what prefix-identity tests compare byte-for-byte.
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Replays the segment's records into `sink`, in recorded order. A
    /// record reaches the sink only once all of its fields decoded.
    pub fn replay<S: EventSink>(&self, sink: &mut S) -> Result<(), TraceError> {
        self.decode(sink, |_, _| None)
    }

    /// [`replay`](Self::replay), asking `refuse` about each decoded frame
    /// pop and event before the sink sees it: `Some(message)` fails the
    /// decode at the start of that record.
    fn decode<S: EventSink>(
        &self,
        sink: &mut S,
        refuse: impl Fn(&S, Decoded) -> Option<String>,
    ) -> Result<(), TraceError> {
        let mut c = Cur::new(self.payload, self.payload_offset);
        while !c.done() {
            let start = c.pos;
            c.record(|c| {
                match c.u8()? {
                    OP_FRAME_PUSH => sink.frame_push(&FrameInfo {
                        method: MethodId(c.u32()?),
                        call_site: match c.u8()? {
                            0 => None,
                            1 => Some(get_instr(c)?),
                            b => return c.fail(format!("invalid call-site tag {b}")),
                        },
                        num_params: c.u16()?,
                        num_locals: c.u16()?,
                        receiver: get_opt_object(c)?,
                        num_args: c.u16()?,
                    }),
                    OP_FRAME_POP => {
                        if let Some(message) = refuse(sink, Decoded::Pop) {
                            c.pos = start;
                            return c.fail(message);
                        }
                        sink.frame_pop()
                    }
                    op => {
                        let event = match op {
                            OP_COMPUTE => Event::Compute {
                                at: get_instr(c)?,
                                dst: get_local(c)?,
                                uses: [get_opt_local(c)?, get_opt_local(c)?],
                                value: get_value(c)?,
                            },
                            OP_PREDICATE => Event::Predicate {
                                at: get_instr(c)?,
                                op: get_cmp_op(c)?,
                                uses: [get_local(c)?, get_local(c)?],
                                taken: c.bool()?,
                            },
                            OP_ALLOC => Event::Alloc {
                                at: get_instr(c)?,
                                dst: get_local(c)?,
                                object: ObjectId(c.u32()?),
                                site: AllocSiteId(c.u32()?),
                                len_use: get_opt_local(c)?,
                            },
                            OP_LOAD_FIELD => Event::LoadField {
                                at: get_instr(c)?,
                                dst: get_local(c)?,
                                base: get_local(c)?,
                                object: ObjectId(c.u32()?),
                                field: FieldId(c.u32()?),
                                offset: c.u32()?,
                                value: get_value(c)?,
                            },
                            OP_STORE_FIELD => Event::StoreField {
                                at: get_instr(c)?,
                                base: get_local(c)?,
                                object: ObjectId(c.u32()?),
                                field: FieldId(c.u32()?),
                                offset: c.u32()?,
                                src: get_local(c)?,
                                value: get_value(c)?,
                            },
                            OP_LOAD_STATIC => Event::LoadStatic {
                                at: get_instr(c)?,
                                dst: get_local(c)?,
                                field: StaticId(c.u32()?),
                                value: get_value(c)?,
                            },
                            OP_STORE_STATIC => Event::StoreStatic {
                                at: get_instr(c)?,
                                field: StaticId(c.u32()?),
                                src: get_local(c)?,
                                value: get_value(c)?,
                            },
                            OP_ARRAY_LOAD => Event::ArrayLoad {
                                at: get_instr(c)?,
                                dst: get_local(c)?,
                                base: get_local(c)?,
                                object: ObjectId(c.u32()?),
                                idx: get_local(c)?,
                                index: c.u32()?,
                                value: get_value(c)?,
                            },
                            OP_ARRAY_STORE => Event::ArrayStore {
                                at: get_instr(c)?,
                                base: get_local(c)?,
                                object: ObjectId(c.u32()?),
                                idx: get_local(c)?,
                                index: c.u32()?,
                                src: get_local(c)?,
                                value: get_value(c)?,
                            },
                            OP_ARRAY_LEN => Event::ArrayLen {
                                at: get_instr(c)?,
                                dst: get_local(c)?,
                                base: get_local(c)?,
                                object: ObjectId(c.u32()?),
                                value: get_value(c)?,
                            },
                            OP_CALL => Event::Call {
                                at: get_instr(c)?,
                                callee: MethodId(c.u32()?),
                                args: get_locals(c)?,
                            },
                            OP_RETURN => Event::Return {
                                at: get_instr(c)?,
                                src: get_opt_local(c)?,
                                value: get_opt_value(c)?,
                            },
                            OP_CALL_COMPLETE => Event::CallComplete {
                                at: get_instr(c)?,
                                dst: get_opt_local(c)?,
                                value: get_opt_value(c)?,
                            },
                            OP_NATIVE => Event::Native {
                                at: get_instr(c)?,
                                native: NativeId(c.u32()?),
                                args: get_locals(c)?,
                                dst: get_opt_local(c)?,
                                value: get_opt_value(c)?,
                            },
                            OP_PHASE => Event::Phase {
                                at: get_instr(c)?,
                                begin: c.bool()?,
                            },
                            OP_JUMP => Event::Jump { at: get_instr(c)? },
                            OP_SPAWN => Event::Spawn {
                                at: get_instr(c)?,
                                dst: get_local(c)?,
                                thread: ThreadId(c.u32()?),
                                callee: MethodId(c.u32()?),
                                args: get_locals(c)?,
                            },
                            OP_JOIN => Event::Join {
                                at: get_instr(c)?,
                                dst: get_opt_local(c)?,
                                thread: ThreadId(c.u32()?),
                                value: get_opt_value(c)?,
                            },
                            _ => return c.fail(format!("invalid record opcode {op}")),
                        };
                        if let Some(message) = refuse(sink, Decoded::Event(&event)) {
                            c.pos = start;
                            return c.fail(message);
                        }
                        sink.event(&event)
                    }
                }
                Some(())
            })?;
        }
        Ok(())
    }
}

/// A decoded record as [`Segment::decode`]'s `refuse` sees it.
#[derive(Clone, Copy)]
enum Decoded<'e> {
    /// A frame pop.
    Pop,
    /// An instruction event.
    Event(&'e Event),
}

/// Decodes a segment prologue from its carved-out byte range. Only v3
/// prologues open with a thread id; earlier formats are implicitly
/// [`ThreadId::MAIN`].
fn decode_prologue(pbytes: &[u8], base: usize, version: u64) -> Result<Prologue, TraceError> {
    Cur::new(pbytes, base).record(|pc| {
        let thread = if version == TRACE_VERSION {
            ThreadId(pc.u32()?)
        } else {
            ThreadId::MAIN
        };
        // Each encoded frame needs at least 4 bytes (method, locals, gid,
        // receiver), so the depth is bounded before the Vec is sized.
        let depth = pc.declared_count("prologue frame", 4)?;
        let mut frames = Vec::with_capacity(depth);
        for _ in 0..depth {
            frames.push(PrologueFrame {
                method: MethodId(pc.u32()?),
                num_locals: pc.u16()?,
                gid: pc.u64()?,
                receiver: get_opt_object(pc)?,
            });
        }
        let prologue = Prologue {
            thread,
            frames,
            in_phase: pc.bool()?,
            first_gid: pc.u64()?,
        };
        if !pc.done() {
            return pc.fail("trailing bytes in segment prologue");
        }
        Some(prologue)
    })
}

/// Carves a segment's prologue and payload ranges off `c`, then decodes
/// the prologue. Shared by the v1, v2, and v3 record parsers; `Err`
/// means the extent was recovered but the prologue does not decode.
fn parse_segment_body<'a>(
    c: &mut Cur<'a>,
    version: u64,
) -> Option<Result<Segment<'a>, TraceError>> {
    let plen = c.declared_len("segment prologue")?;
    let pstart = c.base + c.pos;
    let pbytes = c.bytes(plen)?;
    let len = c.declared_len("segment payload")?;
    let payload_offset = c.base + c.pos;
    let payload = c.bytes(len)?;
    Some(
        decode_prologue(pbytes, pstart, version).map(|prologue| Segment {
            prologue,
            payload,
            payload_offset,
        }),
    )
}

/// One parsed top-level record. The `Corrupt*` variants mean the record's
/// *extent* was recovered (scanning can continue past it) but its content
/// failed validation — a checksum mismatch or an undecodable body.
enum Record<'a> {
    Segment {
        /// The segment's self-declared position (v2 only).
        index: Option<u64>,
        seg: Segment<'a>,
    },
    CorruptSegment {
        error: TraceError,
    },
    Trailer(Trailer),
    CorruptTrailer {
        error: TraceError,
    },
}

/// Parses the next top-level record. `Err` means framing-level corruption
/// (bad tag, bad length, truncation): the scan cannot continue past it.
fn next_record<'a>(c: &mut Cur<'a>, version: u64) -> Result<Record<'a>, TraceError> {
    let tag = c.record(Cur::u8)?;
    if version == TRACE_VERSION_V1 {
        return match tag {
            // v1 has no envelope: the prologue/payload lengths *are* the
            // framing, so a decode failure inside the carved ranges is
            // still skippable.
            TAG_SEGMENT => Ok(match c.record(|c| parse_segment_body(c, version))? {
                Ok(seg) => Record::Segment { index: None, seg },
                Err(error) => Record::CorruptSegment { error },
            }),
            TAG_TRAILER => c.record(|c| {
                Some(Record::Trailer(Trailer {
                    events: c.u64()?,
                    instructions: c.u64()?,
                    objects_allocated: c.u64()?,
                    frame_pushes: c.u64()?,
                    segments: 0, // filled in by the caller for v1
                }))
            }),
            t => Err(c.err(format!("invalid frame tag {t}"))),
        };
    }
    let (what, body_what) = match tag {
        TAG_SEGMENT => ("segment", "segment body"),
        TAG_TRAILER => ("trailer", "trailer body"),
        t => return Err(c.err(format!("invalid frame tag {t}"))),
    };
    let (bstart, body, stored) = c.record(|c| {
        let blen = c.declared_len(body_what)?;
        let bstart = c.base + c.pos;
        Some((bstart, c.bytes(blen)?, c.u32_raw()?))
    })?;
    let parsed = if crc32(body) != stored {
        Err(TraceError {
            offset: bstart,
            message: format!("{what} checksum mismatch"),
        })
    } else {
        Cur::new(body, bstart).record(|bc| {
            let record = if tag == TAG_SEGMENT {
                let index = bc.u64()?;
                let seg = parse_segment_body(bc, version)?;
                Record::Segment {
                    index: Some(index),
                    seg: bc.nested(seg)?,
                }
            } else {
                Record::Trailer(Trailer {
                    events: bc.u64()?,
                    instructions: bc.u64()?,
                    objects_allocated: bc.u64()?,
                    frame_pushes: bc.u64()?,
                    segments: bc.u64()?,
                })
            };
            if !bc.done() {
                return bc.fail(format!("trailing bytes in {what} body"));
            }
            Some(record)
        })
    };
    Ok(parsed.unwrap_or_else(|error| match tag {
        TAG_SEGMENT => Record::CorruptSegment { error },
        _ => Record::CorruptTrailer { error },
    }))
}

/// Rejects a segment whose self-declared index (v2+) is not its position
/// in the trace: a spliced or reordered, internally intact segment.
fn check_index(index: Option<u64>, position: u64, seg: &Segment) -> Result<(), TraceError> {
    match index {
        Some(i) if i != position => Err(TraceError {
            offset: seg.payload_offset,
            message: format!("segment declares index {i} but is at position {position}"),
        }),
        _ => Ok(()),
    }
}

/// Parses the `LUTR` magic and version, rejecting versions this crate
/// cannot read.
fn parse_header(c: &mut Cur) -> Result<u64, TraceError> {
    if c.record(|c| c.bytes(4))? != TRACE_MAGIC {
        return Err(TraceError {
            offset: 0,
            message: "not a lowutil trace (bad magic)".to_string(),
        });
    }
    c.record(|c| {
        let version = c.u64()?;
        if version != TRACE_VERSION && version != TRACE_VERSION_V2 && version != TRACE_VERSION_V1 {
            return c.fail(format!(
                "unsupported trace version {version} (this reader handles {TRACE_VERSION_V1} through {TRACE_VERSION})"
            ));
        }
        Some(version)
    })
}

/// The verified prefix salvage and the streaming reader grow segment by
/// segment: the writer's totals so far and what the next segment must match.
#[derive(Debug, Clone, Default)]
struct PrefixCounts {
    events: u64,
    instructions: u64,
    objects_allocated: u64,
    frame_pushes: u64,
    /// The VM numbers threads densely: no prologue names a thread above
    /// the `Spawn` records before it.
    spawns: u64,
    segments: u64,
    /// The last segment's thread; a switch is announced only on change.
    thread: ThreadId,
    /// Frames open on `thread`, counted from the stream's own pushes and
    /// pops (never from a prologue): the VM emits every record inside a
    /// frame and pops only open frames.
    depth: u64,
    /// Frames open on each other thread, indexed by thread id.
    parked: Vec<u64>,
}

impl PrefixCounts {
    fn trailer(&self) -> Trailer {
        Trailer {
            events: self.events,
            instructions: self.instructions,
            objects_allocated: self.objects_allocated,
            frame_pushes: self.frame_pushes,
            segments: self.segments,
        }
    }

    /// Checks `seg`, announces a thread change, and replays it into the
    /// counts and `sink` together. The counts advance only when the whole
    /// segment decodes; on error the sink may hold its leading records.
    fn segment<S: EventSink>(
        &mut self,
        index: Option<u64>,
        seg: &Segment,
        sink: &mut S,
    ) -> Result<(), TraceError> {
        check_index(index, self.segments, seg)?;
        let t = seg.prologue.thread;
        if u64::from(t.0) > self.spawns {
            return Err(TraceError {
                offset: seg.payload_offset,
                message: format!(
                    "segment runs on thread {} but only {} threads were spawned",
                    t.0, self.spawns
                ),
            });
        }
        let mut counts = self.clone();
        if t != self.thread {
            sink.thread(t);
            counts.switch(t);
        }
        let mut both = (counts, sink);
        seg.decode(&mut both, |(counts, _), rec| counts.refuse(rec))?;
        *self = both.0;
        self.segments += 1;
        Ok(())
    }

    /// Parks the current thread's frame depth and takes up `t`'s.
    fn switch(&mut self, t: ThreadId) {
        let need = self.thread.index().max(t.index()) + 1;
        if self.parked.len() < need {
            self.parked.resize(need, 0);
        }
        self.parked[self.thread.index()] = self.depth;
        self.depth = self.parked[t.index()];
        self.thread = t;
    }

    /// The VM numbers objects densely: the k-th `Alloc` carries object k.
    /// It pops only open frames, and every record naming a local (all
    /// but `Jump` and `Phase`) runs inside a frame: a consumer indexes
    /// the top frame's slots with it.
    #[inline]
    fn refuse(&self, rec: Decoded) -> Option<String> {
        match rec {
            Decoded::Pop if self.depth == 0 => Some(format!(
                "frame pop on thread {} with no frame open",
                self.thread.0
            )),
            Decoded::Event(Event::Jump { .. } | Event::Phase { .. }) => None,
            Decoded::Event(_) if self.depth == 0 => Some(format!(
                "record on thread {} outside any frame",
                self.thread.0
            )),
            Decoded::Event(Event::Alloc { object, .. })
                if u64::from(object.0) != self.objects_allocated =>
            {
                Some(format!(
                    "alloc record names object {} but is allocation {}",
                    object.0, self.objects_allocated
                ))
            }
            _ => None,
        }
    }
}

// Inline: every replay runs these once per record, in a decode loop
// monomorphised in the caller's crate.
impl EventSink for PrefixCounts {
    #[inline]
    fn event(&mut self, event: &Event) {
        self.events += 1;
        if !matches!(event, Event::CallComplete { .. }) {
            self.instructions += 1;
        }
        match event {
            Event::Alloc { .. } => self.objects_allocated += 1,
            Event::Spawn { .. } => self.spawns += 1,
            _ => {}
        }
    }

    #[inline]
    fn frame_push(&mut self, _info: &FrameInfo) {
        self.frame_pushes += 1;
        self.depth += 1;
    }

    #[inline]
    fn frame_pop(&mut self) {
        self.depth -= 1;
    }
}

/// What [`TraceReader::salvage`] recovered and what it had to give up.
#[derive(Debug, Clone, Default)]
pub struct SalvageStats {
    /// Checksum-valid, decodable segments kept (always a prefix of the
    /// original recording, in order).
    pub segments_kept: usize,
    /// Segments whose extent was recovered but which were dropped — the
    /// corrupt segment itself plus any structurally scannable segments
    /// after it (prefix semantics: nothing after the first failure is
    /// replayed). Segments lost to framing-level corruption cannot be
    /// counted and are covered by `bytes_dropped` instead.
    pub segments_dropped: usize,
    /// Bytes not represented by the kept segments (from the first
    /// failure to end of buffer). Zero for a clean trace.
    pub bytes_dropped: usize,
    /// Whether the file's own trailer record was found intact. The
    /// salvaged reader's trailer is always synthesized from the kept
    /// prefix so it matches what `replay` will actually deliver.
    pub trailer_recovered: bool,
    /// The first validation or framing error encountered, if any.
    pub first_error: Option<TraceError>,
}

impl SalvageStats {
    /// True when the whole trace was intact (nothing dropped).
    pub fn is_clean(&self) -> bool {
        self.first_error.is_none()
    }

    /// One-line human summary for warnings.
    pub fn summary(&self) -> String {
        match &self.first_error {
            None => format!("trace intact ({} segments)", self.segments_kept),
            Some(e) => format!(
                "kept {} segments, dropped {} segments / {} bytes (trailer {}): {}",
                self.segments_kept,
                self.segments_dropped,
                self.bytes_dropped,
                if self.trailer_recovered {
                    "recovered"
                } else {
                    "lost"
                },
                e
            ),
        }
    }

    fn note(&mut self, e: TraceError) {
        if self.first_error.is_none() {
            self.first_error = Some(e);
        }
    }
}

/// A parsed in-memory trace. Parsing decodes segment framing and
/// prologues eagerly (they are tiny) but leaves record payloads as byte
/// slices, so handing segments to parallel workers costs nothing.
#[derive(Debug)]
pub struct TraceReader<'a> {
    version: u64,
    segments: Vec<Segment<'a>>,
    trailer: Trailer,
}

impl<'a> TraceReader<'a> {
    /// Parses a trace buffer, negotiating the format version from the
    /// header (v1 and v2 both replay). Fails on bad magic, unknown
    /// version, truncation, a checksum mismatch, an out-of-sequence
    /// segment, or a missing trailer.
    pub fn new(buf: &'a [u8]) -> Result<Self, TraceError> {
        let mut c = Cur::new(buf, 0);
        let version = parse_header(&mut c)?;
        let mut segments = Vec::new();
        loop {
            match next_record(&mut c, version)? {
                Record::Segment { index, seg } => {
                    check_index(index, segments.len() as u64, &seg)?;
                    segments.push(seg);
                }
                Record::CorruptSegment { error } | Record::CorruptTrailer { error } => {
                    return Err(error)
                }
                Record::Trailer(mut trailer) => {
                    if version == TRACE_VERSION_V1 {
                        trailer.segments = segments.len() as u64;
                    } else if trailer.segments != segments.len() as u64 {
                        return Err(c.err(format!(
                            "trailer records {} segments but {} were present",
                            trailer.segments,
                            segments.len()
                        )));
                    }
                    if !c.done() {
                        return Err(c.err("trailing bytes after trace trailer"));
                    }
                    return Ok(TraceReader {
                        version,
                        segments,
                        trailer,
                    });
                }
            }
        }
    }

    /// Recovers the longest replayable prefix of a damaged trace.
    ///
    /// Keeps segments from the front as long as each one is
    /// checksum-valid (v2+), in sequence, true to the VM's dense thread
    /// and object numbering, and fully decodable — checked by the one
    /// trial decode [`StreamingReader`] also runs. The first failure ends
    /// the kept prefix, and everything after it — even segments that
    /// would validate — is dropped, so the result is always a true prefix
    /// of the original recording. The returned reader's trailer is
    /// synthesized from the kept prefix, so totals agree with what
    /// [`TraceReader::replay`] will deliver, and every kept segment is
    /// guaranteed to replay without error.
    ///
    /// # Errors
    /// Fails only when the header itself is unusable (bad magic or an
    /// unknown version) — there is nothing to salvage without knowing the
    /// format.
    pub fn salvage(buf: &'a [u8]) -> Result<(Self, SalvageStats), TraceError> {
        let mut c = Cur::new(buf, 0);
        let version = parse_header(&mut c)?;
        let mut segments: Vec<Segment<'a>> = Vec::new();
        let mut stats = SalvageStats::default();
        let mut prefix = PrefixCounts::default();
        let mut kept_end = c.pos;
        let mut file_trailer: Option<Trailer> = None;
        loop {
            if c.done() {
                if file_trailer.is_none() {
                    stats.note(c.err("trace ends without a trailer"));
                }
                break;
            }
            match next_record(&mut c, version) {
                Ok(Record::Segment { index, seg }) => {
                    if stats.first_error.is_some() {
                        stats.segments_dropped += 1;
                        continue;
                    }
                    // Trial-decode so a kept segment can never fail a
                    // later replay, and so the prefix totals are known.
                    match prefix.segment(index, &seg, &mut TracerSink(NullTracer)) {
                        Ok(()) => {
                            segments.push(seg);
                            stats.segments_kept += 1;
                            kept_end = c.pos;
                        }
                        Err(e) => {
                            stats.note(e);
                            stats.segments_dropped += 1;
                        }
                    }
                }
                Ok(Record::CorruptSegment { error }) => {
                    stats.note(error);
                    stats.segments_dropped += 1;
                }
                Ok(Record::Trailer(t)) => {
                    file_trailer = Some(t);
                    if !c.done() {
                        stats.note(c.err("trailing bytes after trace trailer"));
                    }
                    break;
                }
                Ok(Record::CorruptTrailer { error }) => {
                    stats.note(error);
                    break;
                }
                Err(e) => {
                    // Framing-level corruption: the scan cannot continue.
                    stats.note(e);
                    break;
                }
            }
        }
        let trailer = prefix.trailer();
        stats.trailer_recovered = file_trailer.is_some();
        if let Some(t) = file_trailer {
            // A structurally clean trace whose trailer disagrees with its
            // own contents is still damaged — surface that.
            if stats.first_error.is_none() && t != trailer {
                stats.note(TraceError {
                    offset: kept_end,
                    message: "trailer totals disagree with segment contents".to_string(),
                });
            }
        }
        stats.bytes_dropped = if stats.first_error.is_some() {
            buf.len().saturating_sub(kept_end)
        } else {
            0
        };
        Ok((
            TraceReader {
                version,
                segments,
                trailer,
            },
            stats,
        ))
    }

    /// The wire format version the trace was recorded with.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The trace's segments, in execution order.
    pub fn segments(&self) -> &[Segment<'a>] {
        &self.segments
    }

    /// The run totals from the trailer.
    pub fn trailer(&self) -> &Trailer {
        &self.trailer
    }

    /// Replays the entire trace into `sink`, segment by segment,
    /// announcing thread switches between segments exactly as the live
    /// run announced them: only when the owning thread actually changes
    /// (so segments split by the record limit inside one thread's run
    /// add no `thread` calls, and single-threaded traces add none at
    /// all).
    ///
    /// Each segment goes through the routine [`StreamingReader`] and
    /// [`salvage`](Self::salvage) run, so a checksum-valid trace that
    /// breaks the VM's dense thread or object numbering fails here at
    /// the same offset, before the offending record reaches `sink`.
    pub fn replay<S: EventSink>(&self, sink: &mut S) -> Result<(), TraceError> {
        let mut prefix = PrefixCounts::default();
        for seg in &self.segments {
            prefix.segment(None, seg, sink)?;
        }
        Ok(())
    }
}

/// Default cap on a single framed record's body for [`StreamingReader`]:
/// the longest segment body [`TraceWriter`] emits, at any record limit,
/// for a run within the VM's default stack depth. That body is the
/// segment index, prologue length and payload length varints (10 bytes
/// each at most), the longest prologue (376,851 bytes at 16,384
/// frames), and a payload of at most `SEGMENT_BYTE_LIMIT - 1 +
/// MAX_RECORD_BYTES` bytes (262,143 + 196,638): 835,662 bytes in all,
/// about 816 KiB. Segments of ordinary runs are far smaller (about
/// 170 KB at [`DEFAULT_SEGMENT_LIMIT`]).
pub const DEFAULT_STREAM_RECORD_LIMIT: usize =
    3 * 10 + MAX_PROLOGUE_BYTES + SEGMENT_BYTE_LIMIT - 1 + MAX_RECORD_BYTES;

/// How far a varint starting at `bytes[at..]` extends, without decoding
/// it; `None` while the encoding continues past the buffered bytes.
/// Canonical LEB128 u64 never needs more than 10 bytes, and
/// [`Cur::u64_long`] rejects a 10th continuation byte outright, so 10
/// buffered bytes are always enough to either decode or deterministically
/// fail (the run is handed to the decoder so the error position matches
/// the batch reader's).
fn varint_extent(bytes: &[u8], at: usize) -> Option<usize> {
    for i in 0..10 {
        if bytes.get(at + i)? & 0x80 == 0 {
            return Some(i + 1);
        }
    }
    Some(10)
}

/// An incremental trace reader for network/spool ingest: bytes arrive in
/// arbitrary chunks via [`feed`](StreamingReader::feed), and every record
/// that completes is validated and decoded once, straight into the
/// caller's sink, so a long-lived consumer (a graph builder) never holds
/// more than one framed record of lookahead.
///
/// The contract mirrors the batch paths:
///
/// - A stream that completes cleanly (trailer present, totals matching)
///   has replayed the identical event sequence [`TraceReader::replay`]
///   would deliver — thread switches announced only on change.
/// - A stream that is cut or corrupted mid-flight has counted exactly
///   the segments [`TraceReader::salvage`] would keep, through the same
///   routine. Its sink may also hold the failed segment's leading records
///   (with CRC framing, only a checksum-valid segment fails mid-decode),
///   so a consumer that must see only the kept prefix discards its sink.
///
/// Errors are sticky: after the first failure every further `feed` and
/// [`finish`](StreamingReader::finish) returns the same error, and the
/// sink sees no more events. Only framed formats stream (v2/v3); v1 has
/// no checksums, so mid-flight validation is impossible and the header
/// is rejected up front.
#[derive(Debug)]
pub struct StreamingReader {
    buf: Vec<u8>,
    /// Index of the first unconsumed byte in `buf`.
    start: usize,
    /// Absolute stream offset of `buf[0]`, so errors report positions in
    /// the whole stream no matter how the chunks arrived.
    base: usize,
    /// Negotiated wire version; `None` until the header has parsed.
    version: Option<u64>,
    prefix: PrefixCounts,
    trailer: Option<Trailer>,
    error: Option<TraceError>,
    record_limit: usize,
}

impl Default for StreamingReader {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingReader {
    /// A reader with the default per-record cap
    /// ([`DEFAULT_STREAM_RECORD_LIMIT`]).
    pub fn new() -> Self {
        Self::with_record_limit(DEFAULT_STREAM_RECORD_LIMIT)
    }

    /// A reader rejecting any framed record whose declared body exceeds
    /// `limit` bytes. This bounds the reader's buffering: memory use is
    /// `O(limit + largest feed chunk)` regardless of stream length.
    pub fn with_record_limit(limit: usize) -> Self {
        StreamingReader {
            buf: Vec::new(),
            start: 0,
            base: 0,
            version: None,
            prefix: PrefixCounts::default(),
            trailer: None,
            error: None,
            record_limit: limit.max(1),
        }
    }

    /// Appends a chunk of stream bytes and replays every record that is
    /// now complete into `sink`. Chunk boundaries are arbitrary — a
    /// record split across any number of chunks replays exactly once,
    /// when its last byte arrives.
    pub fn feed<S: EventSink>(&mut self, bytes: &[u8], sink: &mut S) -> Result<(), TraceError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        self.buf.extend_from_slice(bytes);
        self.drain(sink)
    }

    /// Declares end-of-stream. Succeeds only when the stream completed
    /// cleanly: header, in-sequence segments, a trailer whose totals
    /// match the replayed contents, and no bytes after it.
    pub fn finish(&mut self) -> Result<Trailer, TraceError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        match &self.trailer {
            Some(t) => Ok(*t),
            None => {
                let e = TraceError {
                    offset: self.base + self.buf.len(),
                    message: "stream ends without a trailer".to_string(),
                };
                Err(self.fail(e))
            }
        }
    }

    /// The negotiated wire version, once the header has parsed.
    pub fn version(&self) -> Option<u64> {
        self.version
    }

    /// Segments fully validated and replayed so far.
    pub fn segments_seen(&self) -> u64 {
        self.prefix.segments
    }

    /// Running totals of the segments decoded in full, in trailer form —
    /// exactly the trailer [`TraceReader::salvage`] would synthesize for
    /// the same bytes.
    pub fn progress(&self) -> Trailer {
        self.prefix.trailer()
    }

    /// The stream's own trailer, once received and verified.
    pub fn trailer(&self) -> Option<&Trailer> {
        self.trailer.as_ref()
    }

    /// The sticky error, if the stream has failed.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    /// True once the trailer has arrived and verified: the sink holds
    /// the complete stream.
    pub fn is_complete(&self) -> bool {
        self.trailer.is_some() && self.error.is_none()
    }

    /// Bytes buffered awaiting a record's completion (back-pressure
    /// signal: bounded by the record limit plus one feed chunk).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    fn fail(&mut self, e: TraceError) -> TraceError {
        if self.error.is_none() {
            self.error = Some(e.clone());
        }
        e
    }

    /// Consumes `n` bytes off the front of the pending buffer,
    /// compacting once the dead prefix is worth reclaiming.
    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start >= self.buf.len() || self.start >= 64 * 1024 {
            self.base += self.start;
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    fn drain<S: EventSink>(&mut self, sink: &mut S) -> Result<(), TraceError> {
        loop {
            match self.step(sink) {
                Ok(Some(n)) => self.consume(n),
                Ok(None) => return Ok(()),
                Err(e) => return Err(self.fail(e)),
            }
        }
    }

    /// Parses the header or replays the next record once the buffer holds
    /// all of it: `Some(n)` consumed `n` bytes, `None` waits for more.
    fn step<S: EventSink>(&mut self, sink: &mut S) -> Result<Option<usize>, TraceError> {
        let avail = &self.buf[self.start..];
        let at = self.base + self.start;
        let Some(version) = self.version else {
            // Header: 4 magic bytes then the version varint.
            let Some(vlen) = varint_extent(avail, TRACE_MAGIC.len()) else {
                return Ok(None);
            };
            let hlen = TRACE_MAGIC.len() + vlen;
            let v = parse_header(&mut Cur::new(&avail[..hlen], at))?;
            if v == TRACE_VERSION_V1 {
                return Err(TraceError {
                    offset: at,
                    message: format!(
                        "streaming ingest requires a framed trace \
                         (v{TRACE_VERSION_V2}+); v{TRACE_VERSION_V1} has no checksums"
                    ),
                });
            }
            self.version = Some(v);
            return Ok(Some(hlen));
        };
        let Some(&tag) = avail.first() else {
            return Ok(None);
        };
        if self.trailer.is_some() {
            return Err(TraceError {
                offset: at,
                message: "trailing bytes after trace trailer".to_string(),
            });
        }
        // Frame envelope: tag, body-len varint, body, raw CRC32.
        if tag != TAG_SEGMENT && tag != TAG_TRAILER {
            return Err(TraceError {
                offset: at + 1,
                message: format!("invalid frame tag {tag}"),
            });
        }
        let Some(vlen) = varint_extent(avail, 1) else {
            return Ok(None);
        };
        let blen = Cur::new(&avail[1..1 + vlen], at + 1).record(Cur::u64)?;
        if blen > self.record_limit as u64 {
            return Err(TraceError {
                offset: at + 1,
                message: format!(
                    "framed record declares {blen} bytes, over the \
                     streaming record limit of {}",
                    self.record_limit
                ),
            });
        }
        let total = 1 + vlen + blen as usize + 4;
        if avail.len() < total {
            return Ok(None);
        }
        match next_record(&mut Cur::new(&avail[..total], at), version)? {
            Record::Segment { index, seg } => self.prefix.segment(index, &seg, sink)?,
            Record::CorruptSegment { error } | Record::CorruptTrailer { error } => {
                return Err(error)
            }
            Record::Trailer(t) => {
                if t != self.prefix.trailer() {
                    return Err(TraceError {
                        offset: at,
                        message: "trailer totals disagree with segment contents".to_string(),
                    });
                }
                self.trailer = Some(t);
            }
        }
        Ok(Some(total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountingSink, SinkTracer};
    use crate::tracer::Tracer;
    use crate::Vm;
    use lowutil_ir::{BinOp, Program, ProgramBuilder};

    mod pins;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 16383, 16384, u64::MAX];
        for &v in &values {
            put_u64(&mut buf, v);
        }
        let mut c = Cur::new(&buf, 0);
        for &v in &values {
            assert_eq!(c.u64().unwrap(), v);
        }
        assert!(c.done());
        for v in [0i64, 1, -1, 63, -64, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    /// The 1/2-byte encode fast paths emit exactly the generic loop's
    /// bytes at every size boundary, and a truncated continuation byte
    /// still errors instead of being mis-decoded by the peek.
    #[test]
    fn varint_fast_paths_match_the_generic_loop() {
        for &v in &[
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut fast = Vec::new();
            put_u64(&mut fast, v);
            let mut long = Vec::new();
            put_u64_long(&mut long, v);
            assert_eq!(fast, long, "encoding diverged at {v}");
            let mut c = Cur::new(&fast, 0);
            assert_eq!(c.u64(), Some(v));
            assert!(c.done());
        }
        assert!(
            Cur::new(&[0x80], 0).record(Cur::u64).is_err(),
            "truncated 2-byte"
        );
        assert!(Cur::new(&[], 0).record(Cur::u64).is_err(), "empty input");
    }

    /// The word-at-a-time path decodes every value, at every encoded
    /// length, exactly as the byte loop does, whether or not bytes
    /// follow the encoding; and on every run of continuation bytes,
    /// terminated or cut short, both agree on the value, the bytes
    /// consumed, or the error offset and message.
    #[test]
    fn varint_word_path_matches_the_byte_loop() {
        let decode = |buf: &[u8], long: bool| {
            let mut c = Cur::new(buf, 7);
            let r = c.record(if long { Cur::u64_long } else { Cur::u64 });
            (r.map_err(|e| (e.offset, e.message)), c.pos)
        };
        for bits in 0..64 {
            for v in [1u64 << bits, (1u64 << bits) - 1, u64::MAX >> bits] {
                let mut enc = Vec::new();
                put_u64(&mut enc, v);
                for pad in [0, 1, 9] {
                    let mut buf = enc.clone();
                    buf.resize(enc.len() + pad, 0xff);
                    assert_eq!(decode(&buf, false), (Ok(v), enc.len()), "{v:#x}");
                }
            }
        }
        let mut runs = 0;
        for n in 0..=11 {
            for cont in [0x80, 0xff, 0x81] {
                for last in [None, Some(0x00), Some(0x01), Some(0x02), Some(0x7f)] {
                    for pad in [0, 3, 12] {
                        let mut buf = vec![cont; n];
                        buf.extend(last);
                        buf.resize(buf.len() + pad, 0x80);
                        assert_eq!(
                            decode(&buf, false),
                            decode(&buf, true),
                            "{n} x {cont:#x}, then {last:?}, {pad} more"
                        );
                        runs += 1;
                    }
                }
            }
        }
        assert_eq!(runs, 12 * 3 * 5 * 3);
    }

    /// One record of every kind, with multi-byte varints in most fields
    /// so cuts land inside fields as well as between them.
    fn one_record_of_each_kind() -> Vec<(&'static str, Event)> {
        let at = InstrId::new(MethodId(300), 200);
        let obj = ObjectId(70_000);
        vec![
            (
                "compute",
                Event::Compute {
                    at,
                    dst: Local(130),
                    uses: [Some(Local(3)), None],
                    value: Value::Int(-5_000_000),
                },
            ),
            (
                "predicate",
                Event::Predicate {
                    at,
                    op: CmpOp::Le,
                    uses: [Local(1), Local(200)],
                    taken: true,
                },
            ),
            (
                "alloc",
                Event::Alloc {
                    at,
                    dst: Local(2),
                    object: obj,
                    site: AllocSiteId(300),
                    len_use: Some(Local(129)),
                },
            ),
            (
                "load_field",
                Event::LoadField {
                    at,
                    dst: Local(1),
                    base: Local(2),
                    object: obj,
                    field: FieldId(140),
                    offset: 3,
                    value: Value::Float(1.5),
                },
            ),
            (
                "store_field",
                Event::StoreField {
                    at,
                    base: Local(2),
                    object: obj,
                    field: FieldId(140),
                    offset: 3,
                    src: Local(150),
                    value: Value::Ref(obj),
                },
            ),
            (
                "array_load",
                Event::ArrayLoad {
                    at,
                    dst: Local(1),
                    base: Local(2),
                    object: obj,
                    idx: Local(3),
                    index: 1000,
                    value: Value::Int(42),
                },
            ),
            (
                "array_store",
                Event::ArrayStore {
                    at,
                    base: Local(2),
                    object: obj,
                    idx: Local(3),
                    index: 1000,
                    src: Local(4),
                    value: Value::Null,
                },
            ),
            (
                "call",
                Event::Call {
                    at,
                    callee: MethodId(129),
                    args: vec![Local(1), Local(300), Local(2)],
                },
            ),
            (
                "native",
                Event::Native {
                    at,
                    native: NativeId(7),
                    args: vec![Local(1), Local(2)],
                    dst: Some(Local(4)),
                    value: Some(Value::Int(-1)),
                },
            ),
            (
                "return",
                Event::Return {
                    at,
                    src: Some(Local(1)),
                    value: Some(Value::Float(-0.25)),
                },
            ),
            (
                "spawn",
                Event::Spawn {
                    at,
                    dst: Local(5),
                    thread: ThreadId(3),
                    callee: MethodId(129),
                    args: vec![Local(260), Local(1)],
                },
            ),
            (
                "join",
                Event::Join {
                    at,
                    dst: Some(Local(5)),
                    thread: ThreadId(3),
                    value: Some(Value::Int(9)),
                },
            ),
        ]
    }

    /// One encoded record, with where its argument list starts (just
    /// past the count) and how many locals it declares, if it has one.
    struct Encoded {
        name: &'static str,
        bytes: Vec<u8>,
        args: Option<(usize, usize)>,
    }

    /// Encodes `e`, locating its argument list by diffing against the
    /// encoding of the same record with no arguments.
    fn encode_record(name: &'static str, e: &Event) -> Encoded {
        let mut bytes = Vec::new();
        put_event(&mut bytes, e);
        let mut bare = e.clone();
        let n = match &mut bare {
            Event::Call { args, .. } | Event::Native { args, .. } | Event::Spawn { args, .. } => {
                std::mem::take(args).len()
            }
            _ => 0,
        };
        let mut without = Vec::new();
        put_event(&mut without, &bare);
        let args = (n > 0)
            .then(|| bytes.iter().zip(&without).position(|(a, b)| a != b))
            .flatten()
            .map(|count_at| (count_at + 1, n));
        Encoded { name, bytes, args }
    }

    /// Cutting a segment payload at every byte inside its last record
    /// fails with the offset and message the decoder has always given:
    /// end of trace at the cut, except inside an argument list, whose
    /// declared count is checked against the bytes left just after it.
    /// The records before the cut are delivered; nothing panics.
    #[test]
    fn cut_records_fail_at_pinned_offsets() {
        const BASE: usize = 1000;
        let mut prefix = vec![OP_FRAME_POP];
        put_event(
            &mut prefix,
            &Event::Jump {
                at: InstrId::new(MethodId(1), 2),
            },
        );
        let mut records: Vec<Encoded> = one_record_of_each_kind()
            .iter()
            .map(|(name, e)| encode_record(name, e))
            .collect();
        let mut push = vec![OP_FRAME_PUSH];
        put_frame_info(
            &mut push,
            &FrameInfo {
                method: MethodId(300),
                call_site: Some(InstrId::new(MethodId(300), 200)),
                num_params: 2,
                num_locals: 140,
                receiver: Some(ObjectId(70_000)),
                num_args: 2,
            },
        );
        records.push(Encoded {
            name: "frame_push",
            bytes: push,
            args: None,
        });
        let with_args = records.iter().filter(|r| r.args.is_some()).count();
        assert_eq!(with_args, 3, "call, native and spawn carry argument lists");

        let mut cuts = 0;
        for Encoded {
            name,
            bytes: record,
            args,
        } in &records
        {
            let mut payload = prefix.clone();
            payload.extend_from_slice(record);
            let whole = Segment {
                prologue: Prologue::default(),
                payload: &payload,
                payload_offset: BASE,
            };
            whole
                .replay(&mut CountingSink::new())
                .unwrap_or_else(|e| panic!("{name}: whole record rejected: {e}"));
            for k in 1..record.len() {
                let seg = Segment {
                    payload: &payload[..prefix.len() + k],
                    ..whole.clone()
                };
                let mut sink = CountingSink::new();
                let err = seg
                    .replay(&mut sink)
                    .expect_err(&format!("{name}: cut at {k} decoded"));
                let (at, message) = match *args {
                    Some((start, n)) if k >= start && k - start < n => (
                        start,
                        format!(
                            "declared locals count {n} cannot fit in {} remaining bytes",
                            k - start
                        ),
                    ),
                    _ => (k, "unexpected end of trace".to_string()),
                };
                assert_eq!(
                    (err.offset, err.message.as_str()),
                    (BASE + prefix.len() + at, message.as_str()),
                    "{name}: cut at {k}"
                );
                assert_eq!((sink.pops, sink.events), (1, 1), "{name}: cut at {k}");
                cuts += 1;
            }
        }
        assert!(cuts > 13 * 4, "every record must be several bytes long");
    }

    /// A program exercising every event kind: heap, arrays, statics,
    /// calls, predicates, natives, and phases.
    fn kitchen_sink_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let print = pb.native("print", 1, false);
        let begin = pb.native("phase_begin", 0, false);
        let end = pb.native("phase_end", 0, false);
        let cls = pb.class("C").finish(&mut pb);
        let f = pb.field(cls, "f");
        let s = pb.static_field("S");

        let mut twice = pb.method("twice", 1);
        let p0 = twice.param(0);
        let r = twice.new_local("r");
        twice.binop(r, BinOp::Add, p0, p0);
        twice.ret(r);
        let twice_id = twice.finish(&mut pb);

        let mut m = pb.method("main", 0);
        let x = m.new_local("x");
        let y = m.new_local("y");
        let obj = m.new_local("obj");
        let arr = m.new_local("arr");
        let len = m.new_local("len");
        let i = m.new_local("i");
        m.call_native_void(begin, &[]);
        m.iconst(x, 21);
        m.call(Some(y), twice_id, &[x]);
        m.new_obj(obj, cls);
        m.put_field(obj, f, y);
        m.get_field(x, obj, f);
        m.put_static(s, x);
        m.get_static(y, s);
        m.iconst(len, 3);
        m.new_array(arr, len);
        m.iconst(i, 0);
        let loop_top = m.label();
        m.bind(loop_top);
        m.array_put(arr, i, y);
        m.array_get(x, arr, i);
        m.iconst(y, 1);
        m.binop(i, BinOp::Add, i, y);
        m.iconst(y, 3);
        m.branch(lowutil_ir::CmpOp::Lt, i, y, loop_top);
        m.array_len(len, arr);
        m.call_native_void(end, &[]);
        m.call_native_void(print, &[len]);
        m.ret_void();
        let main_id = m.finish(&mut pb);
        pb.finish(main_id).expect("valid program")
    }

    /// A loop making `n` calls, so a small segment limit yields many
    /// segments — the shape the salvage tests need.
    fn call_heavy_program(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let print = pb.native("print", 1, false);

        let mut twice = pb.method("twice", 1);
        let p0 = twice.param(0);
        let r = twice.new_local("r");
        twice.binop(r, BinOp::Add, p0, p0);
        twice.ret(r);
        let twice_id = twice.finish(&mut pb);

        let mut m = pb.method("main", 0);
        let i = m.new_local("i");
        let one = m.new_local("one");
        let lim = m.new_local("lim");
        let acc = m.new_local("acc");
        let t = m.new_local("t");
        m.iconst(i, 0);
        m.iconst(one, 1);
        m.iconst(lim, n);
        m.iconst(acc, 0);
        let top = m.label();
        m.bind(top);
        m.call(Some(t), twice_id, &[i]);
        m.binop(acc, BinOp::Add, acc, t);
        m.binop(i, BinOp::Add, i, one);
        m.branch(lowutil_ir::CmpOp::Lt, i, lim, top);
        m.call_native_void(print, &[acc]);
        m.ret_void();
        let main_id = m.finish(&mut pb);
        pb.finish(main_id).expect("valid program")
    }

    /// Collects a Debug rendering of the full stream for comparison
    /// (Event does not implement PartialEq).
    #[derive(Default)]
    struct StreamLog(Vec<String>);

    impl EventSink for StreamLog {
        fn event(&mut self, e: &Event) {
            self.0.push(format!("{e:?}"));
        }

        fn frame_push(&mut self, info: &FrameInfo) {
            self.0.push(format!("push {info:?}"));
        }

        fn frame_pop(&mut self) {
            self.0.push("pop".to_string());
        }

        fn thread(&mut self, tid: ThreadId) {
            self.0.push(format!("thread {tid}"));
        }
    }

    impl Tracer for StreamLog {
        fn instr(&mut self, e: &Event) {
            EventSink::event(self, e);
        }

        fn frame_push(&mut self, info: &FrameInfo) {
            EventSink::frame_push(self, info);
        }

        fn frame_pop(&mut self) {
            EventSink::frame_pop(self);
        }

        fn thread(&mut self, tid: ThreadId) {
            EventSink::thread(self, tid);
        }
    }

    fn record(program: &Program, limit: usize) -> (Vec<u8>, TraceStats, crate::RunOutcome) {
        let writer = TraceWriter::with_segment_limit(Vec::new(), limit);
        let mut t = SinkTracer(writer);
        let out = Vm::new(program).run(&mut t).expect("program runs");
        let (bytes, stats) = t.0.finish().expect("in-memory write cannot fail");
        (bytes, stats, out)
    }

    #[test]
    fn record_replay_reproduces_the_exact_stream() {
        let program = kitchen_sink_program();
        let mut live = StreamLog::default();
        let out_live = Vm::new(&program).run(&mut live).expect("program runs");
        let (bytes, stats, out_rec) = record(&program, DEFAULT_SEGMENT_LIMIT);
        assert_eq!(
            out_live.instructions_executed,
            out_rec.instructions_executed
        );

        let reader = TraceReader::new(&bytes).expect("trace parses");
        let mut replayed = StreamLog::default();
        reader.replay(&mut replayed).expect("trace replays");
        assert_eq!(live.0, replayed.0);

        let trailer = reader.trailer();
        assert_eq!(trailer.instructions, out_rec.instructions_executed);
        assert_eq!(trailer.objects_allocated, out_rec.objects_allocated as u64);
        assert_eq!(stats.instructions, trailer.instructions);
        assert_eq!(stats.events, trailer.events);
    }

    /// Records (events, pushes and pops) in one segment.
    fn records_in(seg: &Segment) -> u64 {
        let mut count = CountingSink::new();
        seg.replay(&mut count).expect("segment replays");
        count.events + count.pushes + count.pops
    }

    /// A single-threaded run splits into segments of exactly `limit`
    /// records, at whatever record comes next, with a shorter last one;
    /// the replayed stream does not depend on where the splits land, and
    /// every prologue describes the stack its segment starts from.
    #[test]
    fn tiny_segment_limit_splits_at_any_record() {
        let program = kitchen_sink_program();
        let (big, ..) = record(&program, DEFAULT_SEGMENT_LIMIT);
        let (small, stats, _) = record(&program, 4);
        let rb = TraceReader::new(&big).expect("trace parses");
        let rs = TraceReader::new(&small).expect("trace parses");
        assert_eq!(rb.segments().len(), 1);
        assert_eq!(rs.segments().len() as u64, stats.segments);
        let total: u64 = rs.segments().iter().map(records_in).sum();
        assert_eq!(stats.segments, total.div_ceil(4));
        let (last, full) = rs.segments().split_last().unwrap();
        assert!(full.iter().all(|s| records_in(s) == 4));
        assert!((1..=4).contains(&records_in(last)));
        assert!(
            full.iter().any(|s| s.payload()[0] != OP_FRAME_PUSH),
            "some segment must open mid-frame"
        );

        let (mut a, mut b) = (StreamLog::default(), StreamLog::default());
        rb.replay(&mut a).unwrap();
        rs.replay(&mut b).unwrap();
        assert_eq!(a.0, b.0);

        // Each prologue holds the stack and push count the records
        // before it leave behind, with frame gids increasing inward.
        let mut depth = 0i64;
        let mut pushes = 0;
        for seg in rs.segments() {
            let p = seg.prologue();
            assert_eq!(p.frames.len() as i64, depth);
            assert_eq!(p.first_gid, pushes);
            for w in p.frames.windows(2) {
                assert!(w[0].gid < w[1].gid, "frame gids increase inward");
            }
            let mut count = CountingSink::new();
            seg.replay(&mut count).unwrap();
            depth += count.pushes as i64 - count.pops as i64;
            pushes += count.pushes;
        }
    }

    /// The byte limit closes segments whatever the record limit: with
    /// no record limit at all, a call-heavy run still splits, every
    /// payload but the last reaches [`SEGMENT_BYTE_LIMIT`], and none
    /// passes it by more than one record.
    #[test]
    fn segments_split_at_the_byte_limit_whatever_the_record_limit() {
        let (bytes, stats, _) = record(&call_heavy_program(8_000), usize::MAX);
        assert!(stats.segments >= 2, "{} segments", stats.segments);
        let reader = TraceReader::new(&bytes).expect("trace parses");
        let (last, full) = reader.segments().split_last().unwrap();
        for seg in full {
            let n = seg.payload().len();
            assert!(
                (SEGMENT_BYTE_LIMIT..SEGMENT_BYTE_LIMIT + 64).contains(&n),
                "{n}"
            );
        }
        assert!(last.payload().len() < SEGMENT_BYTE_LIMIT + 64);
        let mut r = StreamingReader::new();
        r.feed(&bytes, &mut CountingSink::new())
            .expect("within the stream limit");
        assert!(r.is_complete());
    }

    /// [`MAX_RECORD_BYTES`] is the widest `Native`, wider than any other
    /// record, and [`MAX_PROLOGUE_BYTES`] is the widest prologue at the
    /// default stack depth.
    #[test]
    fn record_and_prologue_bounds_are_tight() {
        let at = InstrId::new(MethodId(u32::MAX), u32::MAX);
        let args = vec![Local(u16::MAX); usize::from(u16::MAX)];
        let value = Some(Value::Int(i64::MIN));
        let widest = |e: Event| {
            let mut b = Vec::new();
            put_event(&mut b, &e);
            b.len()
        };
        assert_eq!(
            widest(Event::Native {
                at,
                native: NativeId(u32::MAX),
                args: args.clone(),
                dst: Some(Local(u16::MAX)),
                value,
            }),
            MAX_RECORD_BYTES
        );
        for e in [
            Event::Call {
                at,
                callee: MethodId(u32::MAX),
                args: args.clone(),
            },
            Event::Spawn {
                at,
                dst: Local(u16::MAX),
                thread: ThreadId(u32::MAX),
                callee: MethodId(u32::MAX),
                args,
            },
        ] {
            assert!(widest(e) < MAX_RECORD_BYTES);
        }

        let mut w = TraceWriter::new(Vec::new());
        let frame = WriterFrame {
            method: MethodId(u32::MAX),
            num_locals: u16::MAX,
            gid: u64::MAX,
            receiver: Some(ObjectId(u32::MAX - 1)),
        };
        w.frames[0] = vec![frame; crate::interp::DEFAULT_MAX_STACK];
        w.push_count = u64::MAX;
        w.capture_prologue();
        // Thread 0 takes one byte where `u32::MAX` takes five.
        assert_eq!(w.prologue.len() + 4, MAX_PROLOGUE_BYTES);
        assert_eq!(
            DEFAULT_STREAM_RECORD_LIMIT, 835_662,
            "the sum its doc gives"
        );
    }

    #[test]
    fn counting_sink_matches_trailer() {
        let program = kitchen_sink_program();
        let (bytes, ..) = record(&program, 8);
        let reader = TraceReader::new(&bytes).unwrap();
        let mut count = CountingSink::new();
        reader.replay(&mut count).unwrap();
        assert_eq!(count.events, reader.trailer().events);
        assert_eq!(count.pushes, reader.trailer().frame_pushes);
        assert_eq!(count.pushes, count.pops);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(TraceReader::new(b"").is_err());
        assert!(TraceReader::new(b"NOPE").is_err());
        assert!(TraceReader::new(b"LUTR\x63").is_err()); // bad version
        let program = kitchen_sink_program();
        let (bytes, ..) = record(&program, DEFAULT_SEGMENT_LIMIT);
        // Truncations anywhere must error, never panic.
        for cut in 0..bytes.len() {
            assert!(TraceReader::new(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// The checked-in fixtures, recorded from `samples/golden.lu` at
    /// segment limit 64 by the v1 and v2 writers this crate once had and
    /// by the v3 writer that split segments only at frame pushes.
    const GOLDEN_V1: &[u8] = include_bytes!("../../../samples/golden_v1.trace");
    const GOLDEN_V2: &[u8] = include_bytes!("../../../samples/golden_v2.trace");
    const GOLDEN_V3: &[u8] = include_bytes!("../../../samples/golden_v3.trace");
    const GOLDEN_SEGMENT_LIMIT: usize = 64;

    fn golden_program() -> Program {
        lowutil_ir::parse_program(include_str!("../../../samples/golden.lu"))
            .expect("golden source parses")
    }

    /// A trailer's run totals, without the segment count: wire versions
    /// and writers may split the same run differently.
    fn totals(t: &Trailer) -> Trailer {
        Trailer { segments: 0, ..*t }
    }

    /// The reader negotiates v1 from the fixture's header, and the v1
    /// fixture replays the same stream, with the same run totals, as a
    /// recording by the current writer.
    #[test]
    fn v1_traces_still_replay_through_the_v2_reader() {
        let (v3, ..) = record(&golden_program(), GOLDEN_SEGMENT_LIMIT);
        assert!(GOLDEN_V1.len() < v3.len(), "v1 lacks indices and checksums");
        let r1 = TraceReader::new(GOLDEN_V1).expect("v1 parses");
        let r3 = TraceReader::new(&v3).expect("v3 parses");
        assert_eq!(r1.version(), TRACE_VERSION_V1);
        assert_eq!(r3.version(), TRACE_VERSION);
        assert_eq!(totals(r1.trailer()), totals(r3.trailer()));
        assert_eq!(r1.trailer().segments, r1.segments().len() as u64);
        let (mut a, mut b) = (StreamLog::default(), StreamLog::default());
        r1.replay(&mut a).unwrap();
        r3.replay(&mut b).unwrap();
        assert_eq!(a.0, b.0, "identical stream across wire versions");
    }

    /// Every single-bit flip anywhere in a v2 trace must be rejected by
    /// the full parse: CRC32 detects all 1-bit errors in record bodies,
    /// and flips in the header, tags, lengths, or stored checksums break
    /// framing or verification.
    #[test]
    fn v2_parse_rejects_every_single_bit_flip() {
        let program = kitchen_sink_program();
        let (bytes, ..) = record(&program, 8);
        for bit in 0..bytes.len() * 8 {
            let mut m = bytes.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            assert!(
                TraceReader::new(&m).is_err(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn salvage_of_truncations_keeps_a_replayable_prefix() {
        let program = call_heavy_program(12);
        let (bytes, stats, _) = record(&program, 4);
        assert!(stats.segments > 2);
        let full = TraceReader::new(&bytes).unwrap();
        let mut live = StreamLog::default();
        full.replay(&mut live).unwrap();

        for cut in 0..bytes.len() {
            let (reader, st) = match TraceReader::salvage(&bytes[..cut]) {
                Ok(r) => r,
                // Cuts inside the header leave nothing to salvage.
                Err(_) => continue,
            };
            assert!(!st.is_clean(), "cut at {cut} must not look clean");
            // A cut exactly at a record boundary drops whole records and
            // zero partial bytes; anywhere else leaves a damaged tail.
            assert!(st.bytes_dropped <= cut);
            assert!(st.segments_kept <= full.segments().len());
            let mut replayed = StreamLog::default();
            reader.replay(&mut replayed).unwrap();
            assert!(
                replayed.0.len() <= live.0.len() && live.0[..replayed.0.len()] == replayed.0[..],
                "cut at {cut}: salvaged stream is not a prefix of the live stream"
            );
            // The synthesized trailer matches the kept prefix.
            assert_eq!(reader.trailer().segments, st.segments_kept as u64);
            let mut count = CountingSink::new();
            reader.replay(&mut count).unwrap();
            assert_eq!(count.events, reader.trailer().events);
            assert_eq!(count.pushes, reader.trailer().frame_pushes);
        }
        // A clean trace salvages to itself.
        let (reader, st) = TraceReader::salvage(&bytes).unwrap();
        assert!(st.is_clean());
        assert!(st.trailer_recovered);
        assert_eq!(st.segments_kept, full.segments().len());
        assert_eq!(st.bytes_dropped, 0);
        assert_eq!(reader.trailer(), full.trailer());
    }

    #[test]
    fn salvage_of_bit_flips_drops_from_the_damaged_segment_on() {
        let program = call_heavy_program(12);
        let (bytes, stats, _) = record(&program, 4);
        let total = stats.segments as usize;
        for bit in (0..bytes.len() * 8).step_by(41) {
            let mut m = bytes.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            let Ok((reader, st)) = TraceReader::salvage(&m) else {
                continue; // header flip: nothing to salvage
            };
            assert!(!st.is_clean(), "flip of bit {bit} must not look clean");
            // A flip in the trailer region keeps every segment; anywhere
            // else it ends the kept prefix early.
            assert!(st.segments_kept <= total);
            // Whatever was kept replays cleanly and matches the
            // synthesized trailer.
            let mut count = CountingSink::new();
            reader.replay(&mut count).unwrap();
            assert_eq!(count.events, reader.trailer().events);
        }
    }

    /// A spliced-in duplicate of another segment is internally intact
    /// (its checksum matches) but self-declares the wrong index, so both
    /// the strict parse and salvage refuse to treat it as segment k.
    #[test]
    fn duplicated_segment_records_are_rejected_by_index() {
        let program = call_heavy_program(6);
        let (bytes, stats, _) = record(&program, 4);
        assert!(stats.segments >= 2);
        // Recover the record boundaries with a raw scan.
        let mut c = Cur::new(&bytes, 0);
        parse_header(&mut c).unwrap();
        let first_record_start = c.pos;
        assert_eq!(c.u8().unwrap(), TAG_SEGMENT);
        let blen = c.declared_len("body").unwrap();
        c.bytes(blen).unwrap();
        c.u32_raw().unwrap();
        let first_record_end = c.pos;

        // header + seg0 + seg0 + rest: the duplicate claims index 0 at
        // position 1.
        let mut spliced = bytes[..first_record_end].to_vec();
        spliced.extend_from_slice(&bytes[first_record_start..]);
        assert!(TraceReader::new(&spliced).is_err());
        let (reader, st) = TraceReader::salvage(&spliced).unwrap();
        assert_eq!(st.segments_kept, 1);
        assert!(!st.is_clean());
        assert!(st
            .first_error
            .as_ref()
            .is_some_and(|e| e.message.contains("index")));
        let mut count = CountingSink::new();
        reader.replay(&mut count).unwrap();
    }

    /// A writer whose target runs out of space latches the error and
    /// reports it from `finish` instead of panicking mid-run.
    #[derive(Debug)]
    struct FailingWriter {
        written: usize,
        cap: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.written + buf.len() > self.cap {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            self.written += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disk_full_is_reported_by_finish_not_a_panic() {
        let program = kitchen_sink_program();
        // Small caps fail mid-run; larger ones fail at the trailer. All
        // must surface the error at finish() without panicking.
        for cap in [0, 10, 100, 300] {
            let writer = TraceWriter::with_segment_limit(FailingWriter { written: 0, cap }, 4);
            let mut t = SinkTracer(writer);
            Vm::new(&program).run(&mut t).expect("program runs");
            let err = t.0.finish().expect_err("write must fail");
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "cap {cap}");
        }
        // And a cap with headroom succeeds outright.
        let writer = TraceWriter::with_segment_limit(
            FailingWriter {
                written: 0,
                cap: 1 << 20,
            },
            4,
        );
        let mut t = SinkTracer(writer);
        Vm::new(&program).run(&mut t).expect("program runs");
        t.0.finish().expect("roomy write succeeds");
    }

    /// Corrupt declared lengths and counts are rejected against the
    /// remaining buffer before anything is allocated or sliced.
    #[test]
    fn huge_declared_lengths_are_rejected_before_allocation() {
        // A locals list claiming u32::MAX entries in a 3-byte buffer.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::from(u32::MAX));
        buf.push(0);
        let mut c = Cur::new(&buf, 0);
        let err = c.record(get_locals).expect_err("count must be rejected");
        assert!(err.message.contains("count"), "{}", err.message);

        // A prologue claiming an absurd frame depth.
        let mut p = Vec::new();
        put_u64(&mut p, u64::MAX / 2);
        let err = decode_prologue(&p, 0, TRACE_VERSION_V2).expect_err("depth must be rejected");
        assert!(err.message.contains("count"), "{}", err.message);

        // A segment record declaring a body far past end-of-file.
        let mut t = Vec::new();
        t.extend_from_slice(&TRACE_MAGIC);
        put_u64(&mut t, TRACE_VERSION);
        t.push(TAG_SEGMENT);
        put_u64(&mut t, u64::MAX);
        let err = TraceReader::new(&t).expect_err("body length must be rejected");
        assert!(
            err.message.contains("length") || err.message.contains("overflows"),
            "{}",
            err.message
        );
    }

    /// A fork/join workload that interleaves three guest threads, with
    /// enough calls in each that small segment limits also split within
    /// a thread's run.
    fn fork_join_program() -> Program {
        lowutil_ir::parse_program(
            r#"
native print/1
method main/0 {
  a = 3
  b = 4
  t1 = spawn work(a)
  t2 = spawn work(b)
  r1 = join t1
  r2 = join t2
  s = r1 + r2
  native print(s)
  return
}
method work/1 {
  i = 0
  one = 1
  lim = 8
  acc = 0
loop:
  acc = call twice(i)
  i = i + one
  if i < lim goto loop
  r = p0 + acc
  return r
}
method twice/1 {
  r = p0 + p0
  return r
}
"#,
        )
        .expect("valid program")
    }

    /// A multithreaded run records to v3 and replays the exact live
    /// stream — thread switch announcements included — and every
    /// segment's prologue names the thread whose records it holds.
    #[test]
    fn multithreaded_record_replay_reproduces_the_exact_stream() {
        let program = fork_join_program();
        for limit in [DEFAULT_SEGMENT_LIMIT, 4] {
            let mut live = StreamLog::default();
            Vm::new(&program).run(&mut live).expect("program runs");
            assert!(
                live.0.iter().any(|l| l.starts_with("thread ")),
                "run must interleave"
            );

            let (bytes, stats, out) = record(&program, limit);
            let reader = TraceReader::new(&bytes).expect("trace parses");
            assert_eq!(reader.version(), TRACE_VERSION);
            let mut replayed = StreamLog::default();
            reader.replay(&mut replayed).expect("trace replays");
            assert_eq!(live.0, replayed.0, "limit {limit}");
            assert_eq!(reader.trailer().instructions, out.instructions_executed);
            assert_eq!(stats.segments, reader.segments().len() as u64);

            let threads: std::collections::BTreeSet<ThreadId> = reader
                .segments()
                .iter()
                .map(|s| s.prologue().thread)
                .collect();
            assert!(threads.len() >= 3, "main + two workers");
            // No segment holds more than `limit` records, and one ends
            // short of it only where the next belongs to another thread.
            for w in reader.segments().windows(2) {
                let n = records_in(&w[0]);
                assert!(n <= limit as u64, "limit {limit}: {n} records");
                if w[1].prologue().thread == w[0].prologue().thread {
                    assert_eq!(n, limit as u64, "limit {limit}");
                }
            }
        }
    }

    /// Multithreaded v3 traces survive the corruption batteries: every
    /// single-bit flip is rejected by the strict parse, and salvage of a
    /// truncation keeps a replayable prefix.
    #[test]
    fn multithreaded_traces_survive_corruption_batteries() {
        let program = fork_join_program();
        let (bytes, stats, _) = record(&program, 4);
        assert!(stats.segments > 3);
        for bit in (0..bytes.len() * 8).step_by(17) {
            let mut m = bytes.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            assert!(TraceReader::new(&m).is_err(), "flip of bit {bit}");
        }
        let full = TraceReader::new(&bytes).unwrap();
        let mut live = StreamLog::default();
        full.replay(&mut live).unwrap();
        for cut in (8..bytes.len()).step_by(13) {
            let Ok((reader, st)) = TraceReader::salvage(&bytes[..cut]) else {
                continue;
            };
            assert!(!st.is_clean());
            let mut replayed = StreamLog::default();
            reader.replay(&mut replayed).unwrap();
            assert!(
                replayed.0.len() <= live.0.len() && live.0[..replayed.0.len()] == replayed.0[..],
                "cut at {cut}: salvaged stream is not a prefix"
            );
        }
    }

    /// For single-threaded programs a v3 recording is the v2 fixture plus
    /// exactly one zero thread-id varint per segment prologue (and the
    /// header version), as the two fixtures, made by writers that split
    /// at the same places, show byte for byte. The current writer's
    /// recording negotiates v3 and replays the same stream and totals.
    #[test]
    fn v3_single_thread_differs_from_v2_only_in_prologue_thread_ids() {
        let f3 = TraceReader::new(GOLDEN_V3).expect("v3 fixture parses");
        let r2 = TraceReader::new(GOLDEN_V2).expect("v2 parses");
        assert_eq!(f3.version(), TRACE_VERSION);
        assert_eq!(r2.version(), TRACE_VERSION_V2);
        assert_eq!(f3.trailer(), r2.trailer());
        assert_eq!(f3.segments().len(), r2.segments().len());
        for (s3, s2) in f3.segments().iter().zip(r2.segments()) {
            assert_eq!(s3.payload(), s2.payload(), "payload bytes identical");
            assert_eq!(s3.prologue(), s2.prologue());
        }
        assert_eq!(GOLDEN_V3.len() - GOLDEN_V2.len(), f3.segments().len());

        let (v3, ..) = record(&golden_program(), GOLDEN_SEGMENT_LIMIT);
        let r3 = TraceReader::new(&v3).expect("v3 parses");
        assert_eq!(r3.version(), TRACE_VERSION);
        assert!(r3
            .segments()
            .iter()
            .all(|s| s.prologue().thread == ThreadId::MAIN));
        assert_eq!(totals(r3.trailer()), totals(r2.trailer()));
        let (mut a, mut b) = (StreamLog::default(), StreamLog::default());
        r3.replay(&mut a).unwrap();
        r2.replay(&mut b).unwrap();
        assert_eq!(a.0, b.0, "identical stream across wire versions");
    }

    /// Feeds `bytes` to a fresh streaming reader in `chunk`-byte pieces,
    /// stopping at the first error, then declares EOF.
    fn stream_in_chunks(
        bytes: &[u8],
        chunk: usize,
    ) -> (StreamLog, StreamingReader, Result<Trailer, TraceError>) {
        let mut r = StreamingReader::new();
        let mut log = StreamLog::default();
        for c in bytes.chunks(chunk.max(1)) {
            if r.feed(c, &mut log).is_err() {
                break;
            }
        }
        let fin = r.finish();
        (log, r, fin)
    }

    /// A clean stream replays the identical event sequence as the batch
    /// reader — thread announcements included — at every chunk size, and
    /// the verified trailer matches.
    #[test]
    fn streaming_reader_matches_batch_replay_at_any_chunk_size() {
        for program in [kitchen_sink_program(), fork_join_program()] {
            for limit in [DEFAULT_SEGMENT_LIMIT, 4] {
                let (bytes, ..) = record(&program, limit);
                let batch = TraceReader::new(&bytes).expect("trace parses");
                let mut expected = StreamLog::default();
                batch.replay(&mut expected).unwrap();
                for chunk in [1, 7, 64, bytes.len()] {
                    let (log, r, fin) = stream_in_chunks(&bytes, chunk);
                    assert_eq!(log.0, expected.0, "chunk {chunk}, limit {limit}");
                    assert!(r.is_complete());
                    assert_eq!(&fin.expect("clean stream finishes"), batch.trailer());
                    assert_eq!(&r.progress(), batch.trailer());
                    assert_eq!(r.buffered(), 0);
                }
            }
        }
    }

    /// A stream cut anywhere delivers exactly the segments salvage keeps
    /// for the same truncated buffer — the sink observes the longest
    /// valid prefix and `finish` reports the failure.
    #[test]
    fn streaming_reader_matches_salvage_on_truncation() {
        let program = call_heavy_program(12);
        let (bytes, stats, _) = record(&program, 4);
        assert!(stats.segments > 2);
        for cut in (0..bytes.len()).step_by(3) {
            let (log, r, fin) = stream_in_chunks(&bytes[..cut], 7);
            assert!(fin.is_err(), "cut at {cut} must not finish cleanly");
            assert!(!r.is_complete());
            match TraceReader::salvage(&bytes[..cut]) {
                Ok((salvaged, _)) => {
                    let mut expected = StreamLog::default();
                    salvaged.replay(&mut expected).unwrap();
                    assert_eq!(log.0, expected.0, "cut at {cut}");
                    assert_eq!(&r.progress(), salvaged.trailer(), "cut at {cut}");
                }
                // Cuts inside the header leave nothing to deliver.
                Err(_) => assert!(log.0.is_empty(), "cut at {cut}"),
            }
        }
    }

    /// Bit flips past the header produce the same delivered prefix as
    /// salvage: whatever validated before the flip reached the sink,
    /// nothing after it did.
    #[test]
    fn streaming_reader_matches_salvage_on_bit_flips() {
        let program = call_heavy_program(12);
        let (bytes, ..) = record(&program, 4);
        // Skip the 5 header bytes: a version flipped to 1 is readable by
        // salvage but rejected by the streaming reader (by design).
        for bit in (5 * 8..bytes.len() * 8).step_by(23) {
            let mut m = bytes.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            let (log, r, fin) = stream_in_chunks(&m, 64);
            assert!(fin.is_err(), "flip of bit {bit} must not finish cleanly");
            let (salvaged, st) = TraceReader::salvage(&m).expect("header is intact");
            assert!(!st.is_clean(), "flip of bit {bit}");
            let mut expected = StreamLog::default();
            salvaged.replay(&mut expected).unwrap();
            assert_eq!(log.0, expected.0, "flip of bit {bit}");
            assert_eq!(&r.progress(), salvaged.trailer(), "flip of bit {bit}");
        }
    }

    /// Streaming requires the framed formats: a v1 header is rejected up
    /// front, and bytes after the trailer are an error even when they
    /// arrive in a later feed call.
    #[test]
    fn streaming_reader_rejects_v1_and_trailing_bytes() {
        let mut r = StreamingReader::new();
        let mut log = StreamLog::default();
        let err = r
            .feed(GOLDEN_V1, &mut log)
            .expect_err("v1 must be rejected");
        assert!(err.message.contains("framed"), "{}", err.message);
        assert!(log.0.is_empty());
        // Sticky: the same error comes back from every later call.
        assert!(r.feed(b"more", &mut log).is_err());
        assert!(r.finish().is_err());

        let (bytes, ..) = record(&golden_program(), GOLDEN_SEGMENT_LIMIT);
        let mut r = StreamingReader::new();
        let mut log = StreamLog::default();
        r.feed(&bytes, &mut log).expect("clean stream feeds");
        assert!(r.is_complete());
        let err = r
            .feed(b"junk", &mut log)
            .expect_err("post-trailer bytes must be rejected");
        assert!(err.message.contains("trailing"), "{}", err.message);
    }

    /// The per-record cap rejects oversized declared bodies before
    /// buffering them, and out-of-sequence segments (spliced duplicates)
    /// fail by index exactly like the batch reader.
    #[test]
    fn streaming_reader_enforces_record_limit_and_index_order() {
        let program = call_heavy_program(6);
        let (bytes, stats, _) = record(&program, 4);
        assert!(stats.segments >= 2);

        let mut r = StreamingReader::with_record_limit(8);
        let mut log = StreamLog::default();
        let err = r
            .feed(&bytes, &mut log)
            .expect_err("segments exceed an 8-byte cap");
        assert!(err.message.contains("record limit"), "{}", err.message);
        assert!(log.0.is_empty(), "nothing replayed past the cap");

        // Splice a duplicate of segment 0 after itself.
        let mut c = Cur::new(&bytes, 0);
        parse_header(&mut c).unwrap();
        let start = c.pos;
        assert_eq!(c.u8().unwrap(), TAG_SEGMENT);
        let blen = c.declared_len("body").unwrap();
        c.bytes(blen).unwrap();
        c.u32_raw().unwrap();
        let end = c.pos;
        let mut spliced = bytes[..end].to_vec();
        spliced.extend_from_slice(&bytes[start..]);
        let (log, r, fin) = stream_in_chunks(&spliced, 16);
        assert!(fin.is_err());
        assert!(
            r.error().is_some_and(|e| e.message.contains("index")),
            "{:?}",
            r.error()
        );
        // Exactly segment 0 was delivered before the failure.
        assert_eq!(r.segments_seen(), 1);
        assert!(!log.0.is_empty());
    }
}
