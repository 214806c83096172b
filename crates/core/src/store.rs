//! On-disk CSR snapshot format v1 — the persistent graph store.
//!
//! The paper's §3.2 notes the client analyses can run offline if the JVM
//! "only needs to write `G_cost` to external storage". The text export
//! ([`crate::export`]) provides that boundary for interchange; this module
//! provides it for *speed*: a binary format whose payload is exactly the
//! flat little-endian arrays of the in-memory [`CsrGraph`], so a saved
//! graph loads zero-copy — the offset/adjacency/frequency/bitset arrays
//! are borrowed straight out of the file buffer ([`Cow::Borrowed`]),
//! with no per-node work beyond validation.
//!
//! # File layout
//!
//! ```text
//! magic        8 bytes   "LUSNAPV1"
//! header_len   u32 LE    byte length of the header body
//! header_crc   u32 LE    CRC32 (IEEE) of the header body
//! header body  header_len bytes:
//!   version            u32   = 1
//!   section_count      u32   = 14
//!   content_hash       u64   order-independent graph hash ([`content_hash`])
//!   nodes              u64
//!   edges              u64
//!   instr_instances    u64
//!   shadow_heap_bytes  u64
//!   total_instructions u64   VM instructions_executed (dead metrics' I)
//!   section table      section_count × 32 bytes:
//!     id u32, reserved u32, offset u64, len u64, crc u32, reserved u32
//! sections     raw little-endian arrays, each 8-byte aligned
//! ```
//!
//! Nodes are stored in the *canonical order* of
//! [`crate::export::canonical_order`] with sorted
//! adjacency, so the bytes depend only on graph content: saving the same
//! abstract graph twice yields identical files, and a [`CostGraph`]
//! reconstructed from a snapshot interns node `i` of the file as
//! [`NodeId`]`(i)` — the loaded CSR and the reconstructed graph agree on
//! node identity by construction.
//!
//! # Hardening
//!
//! Same discipline as trace v2: every declared length is checked against
//! the physical file size *before* any allocation or indexing, every
//! section carries a CRC, and structural invariants (offset monotonicity,
//! adjacency ranges, bitset/kind agreement) are revalidated by
//! [`CsrGraph::from_raw_parts`]. Corrupt input is rejected with a
//! [`StoreError`], never a panic.

use crate::csr::CsrGraph;
use crate::export::{canonical_order, elem_rank};
use crate::gcost::{CostElem, CostGraph, FieldKey, HeapEffect, TaggedSite};
use crate::graph::{DepGraph, NodeId, NodeKind};
use lowutil_ir::{AllocSiteId, FieldId, InstrId, MethodId, StaticId};
pub(crate) use lowutil_vm::crc32;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// File magic: "LUSNAPV1".
pub const MAGIC: [u8; 8] = *b"LUSNAPV1";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

const SEC_KIND: u32 = 1;
const SEC_FREQ: u32 = 2;
const SEC_SUCC_OFF: u32 = 3;
const SEC_SUCC_ADJ: u32 = 4;
const SEC_PRED_OFF: u32 = 5;
const SEC_PRED_ADJ: u32 = 6;
const SEC_READS_HEAP: u32 = 7;
const SEC_WRITES_HEAP: u32 = 8;
const SEC_CONSUMER: u32 = 9;
const SEC_NODE_INSTR: u32 = 10;
const SEC_NODE_ELEM: u32 = 11;
const SEC_EFFECTS: u32 = 12;
const SEC_REF_EDGES: u32 = 13;
const SEC_POINTS_TO: u32 = 14;

/// Section ids in file order — v1 requires exactly these, in this order.
pub(crate) const SECTION_IDS: [u32; 14] = [
    SEC_KIND,
    SEC_FREQ,
    SEC_SUCC_OFF,
    SEC_SUCC_ADJ,
    SEC_PRED_OFF,
    SEC_PRED_ADJ,
    SEC_READS_HEAP,
    SEC_WRITES_HEAP,
    SEC_CONSUMER,
    SEC_NODE_INSTR,
    SEC_NODE_ELEM,
    SEC_EFFECTS,
    SEC_REF_EDGES,
    SEC_POINTS_TO,
];

const PREAMBLE_LEN: usize = 16;
const HEADER_FIXED_LEN: usize = 56;
const SECTION_ENTRY_LEN: usize = 32;
/// Bytes per `EFFECTS` record: `(node, tag, a, b, c)` as 5 × u32.
const EFFECT_RECORD: usize = 20;
/// Bytes per `POINTS_TO` record: `(site, slot, field, site2, slot2)`.
const POINTS_TO_RECORD: usize = 20;

pub(crate) const EFFECT_ALLOC: u32 = 0;
pub(crate) const EFFECT_LOAD: u32 = 1;
pub(crate) const EFFECT_STORE: u32 = 2;
pub(crate) const EFFECT_LOAD_STATIC: u32 = 3;
pub(crate) const EFFECT_STORE_STATIC: u32 = 4;

/// `FieldKey::Element` on disk.
const FIELD_ELEMENT: u32 = u32::MAX;
/// `FieldKey::Length` on disk.
const FIELD_LENGTH: u32 = u32::MAX - 1;

pub(crate) fn field_code(f: FieldKey) -> u32 {
    match f {
        FieldKey::Field(id) => id.0,
        FieldKey::Element => FIELD_ELEMENT,
        FieldKey::Length => FIELD_LENGTH,
    }
}

fn decode_field(code: u32) -> FieldKey {
    match code {
        FIELD_ELEMENT => FieldKey::Element,
        FIELD_LENGTH => FieldKey::Length,
        id => FieldKey::Field(FieldId(id)),
    }
}

/// Packs a heap effect as the `(tag, a, b, c)` tail of an `EFFECTS`
/// record — shared by [`write_snapshot`] and the incremental writer so
/// the encoding exists in exactly one place.
pub(crate) fn effect_code(e: &HeapEffect) -> (u32, u32, u32, u32) {
    match *e {
        HeapEffect::Alloc { site } => (EFFECT_ALLOC, site.site.0, site.slot, 0),
        HeapEffect::Load { site, field } => {
            (EFFECT_LOAD, site.site.0, site.slot, field_code(field))
        }
        HeapEffect::Store { site, field } => {
            (EFFECT_STORE, site.site.0, site.slot, field_code(field))
        }
        HeapEffect::LoadStatic(s) => (EFFECT_LOAD_STATIC, s.0, 0, 0),
        HeapEffect::StoreStatic(s) => (EFFECT_STORE_STATIC, s.0, 0, 0),
    }
}

// ---------------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit over a byte string — the snapshot's content-hash
/// primitive (no external hash crates; stability across builds matters
/// more than collision strength here, and the hash is backed by full
/// canonical bytes wherever equality is load-bearing).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(0xcbf2_9ce4_8422_2325, bytes)
}

/// Streaming FNV-1a 64: folds `bytes` into running state `h`. Chaining
/// updates over consecutive chunks equals [`fnv1a64`] over their
/// concatenation — record hashes split into a cached immutable prefix
/// and a cheap mutable tail (see [`node_record_hash_from_prefix`]).
pub(crate) fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------------
// Content hashing: identity-keyed record hashes, combined order-free
// ---------------------------------------------------------------------------

/// Record-tag bytes giving each record class its own FNV domain.
const H_NODE: u8 = 1;
const H_EDGE: u8 = 2;
const H_REF_EDGE: u8 = 3;
const H_EFFECT: u8 = 4;
const H_POINTS_TO: u8 = 5;

/// The 16-byte identity of an abstract node: `(method, pc, elem_rank)`.
/// Records hash node *identities*, never canonical indices, so inserting
/// a node renumbers its neighbours without changing any other record's
/// hash — what lets [`crate::incr::IncrementalCsr`] maintain the content
/// hash in O(delta) per absorb.
fn identity_bytes(out: &mut [u8], instr: InstrId, elem: CostElem) {
    out[0..4].copy_from_slice(&instr.method.0.to_le_bytes());
    out[4..8].copy_from_slice(&instr.pc.to_le_bytes());
    out[8..16].copy_from_slice(&elem_rank(elem).to_le_bytes());
}

/// FNV state after hashing a node record's immutable part (tag,
/// identity, kind). Frequency is the only field an absorb can change on
/// a surviving node, so the incremental view caches this prefix and
/// folds just the 8 frequency bytes per touched node.
pub(crate) fn node_record_prefix(instr: InstrId, elem: CostElem, kind: NodeKind) -> u64 {
    let mut b = [0u8; 18];
    b[0] = H_NODE;
    identity_bytes(&mut b[1..17], instr, elem);
    b[17] = kind.code();
    fnv1a64(&b)
}

/// Completes a node record hash from its cached prefix and the current
/// frequency.
pub(crate) fn node_record_hash_from_prefix(prefix: u64, freq: u64) -> u64 {
    fnv1a64_update(prefix, &freq.to_le_bytes())
}

/// Hash of one `node` record: identity, kind, frequency. Doubles as the
/// per-node content hash the incremental analysis layer compares across
/// absorbs.
pub(crate) fn node_record_hash(instr: InstrId, elem: CostElem, kind: NodeKind, freq: u64) -> u64 {
    node_record_hash_from_prefix(node_record_prefix(instr, elem, kind), freq)
}

fn endpoint_pair_hash(tag: u8, a: (InstrId, CostElem), b: (InstrId, CostElem)) -> u64 {
    let mut bytes = [0u8; 33];
    bytes[0] = tag;
    identity_bytes(&mut bytes[1..17], a.0, a.1);
    identity_bytes(&mut bytes[17..33], b.0, b.1);
    fnv1a64(&bytes)
}

/// Hash of one dependence `edge` record, by endpoint identities.
pub(crate) fn edge_record_hash(a: (InstrId, CostElem), b: (InstrId, CostElem)) -> u64 {
    endpoint_pair_hash(H_EDGE, a, b)
}

/// Hash of one `refedge` record, by endpoint identities.
pub(crate) fn refedge_record_hash(s: (InstrId, CostElem), a: (InstrId, CostElem)) -> u64 {
    endpoint_pair_hash(H_REF_EDGE, s, a)
}

/// Hash of one `effect` record: owning node identity plus the packed
/// effect code.
pub(crate) fn effect_record_hash(k: (InstrId, CostElem), e: &HeapEffect) -> u64 {
    let (tag, a, b, c) = effect_code(e);
    let mut bytes = [0u8; 33];
    bytes[0] = H_EFFECT;
    identity_bytes(&mut bytes[1..17], k.0, k.1);
    bytes[17..21].copy_from_slice(&tag.to_le_bytes());
    bytes[21..25].copy_from_slice(&a.to_le_bytes());
    bytes[25..29].copy_from_slice(&b.to_le_bytes());
    bytes[29..33].copy_from_slice(&c.to_le_bytes());
    fnv1a64(&bytes)
}

/// Hash of one `pointsto` record.
pub(crate) fn pointsto_record_hash(site: TaggedSite, field: FieldKey, target: TaggedSite) -> u64 {
    let mut bytes = [0u8; 21];
    bytes[0] = H_POINTS_TO;
    bytes[1..5].copy_from_slice(&site.site.0.to_le_bytes());
    bytes[5..9].copy_from_slice(&site.slot.to_le_bytes());
    bytes[9..13].copy_from_slice(&field_code(field).to_le_bytes());
    bytes[13..17].copy_from_slice(&target.site.0.to_le_bytes());
    bytes[17..21].copy_from_slice(&target.slot.to_le_bytes());
    fnv1a64(&bytes)
}

/// Per-class record-hash accumulators: wrapping sums of the record
/// hashes above, plus the node and edge counts. Wrapping addition is
/// commutative, so each sum is a multiset hash — independent of
/// iteration order and updatable in O(1) per changed record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ContentSums {
    pub nodes: u64,
    pub edges: u64,
    pub node_sum: u64,
    pub edge_sum: u64,
    pub ref_sum: u64,
    pub eff_sum: u64,
    pub pts_sum: u64,
}

/// Folds the meta scalars and the per-class sums into the final content
/// hash — the one place the combination order is fixed.
pub(crate) fn combine_content_hash(
    instr_instances: u64,
    shadow_heap_bytes: u64,
    s: &ContentSums,
) -> u64 {
    let mut pre = [0u8; 72];
    for (slot, v) in [
        instr_instances,
        shadow_heap_bytes,
        s.nodes,
        s.edges,
        s.node_sum,
        s.edge_sum,
        s.ref_sum,
        s.eff_sum,
        s.pts_sum,
    ]
    .into_iter()
    .enumerate()
    {
        pre[slot * 8..slot * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&pre)
}

/// The content hash of a graph: identity-keyed per-record FNV hashes
/// (nodes, edges, reference edges, effects, points-to) combined as
/// order-independent multiset sums, folded with the meta scalars. Two
/// graphs with the same abstract content hash identically regardless of
/// construction order; the hash keys the analysis-result cache and ties
/// a snapshot to its source graph. Because records are keyed by node
/// *identity* rather than canonical index, the incremental view
/// ([`crate::incr::IncrementalCsr`]) maintains this hash in O(delta)
/// per absorb.
pub fn content_hash(gcost: &CostGraph) -> u64 {
    let g = gcost.graph();
    let mut sums = ContentSums::default();
    for (id, n) in g.iter() {
        sums.nodes += 1;
        sums.node_sum = sums
            .node_sum
            .wrapping_add(node_record_hash(n.instr, n.elem, n.kind, n.freq));
        if let Some(e) = gcost.effect(id) {
            sums.eff_sum = sums
                .eff_sum
                .wrapping_add(effect_record_hash((n.instr, n.elem), e));
        }
        for &s in g.succs(id) {
            let t = g.node(s);
            sums.edges += 1;
            sums.edge_sum = sums
                .edge_sum
                .wrapping_add(edge_record_hash((n.instr, n.elem), (t.instr, t.elem)));
        }
    }
    for (s, a) in gcost.ref_edges() {
        let (ns, na) = (g.node(s), g.node(a));
        sums.ref_sum = sums.ref_sum.wrapping_add(refedge_record_hash(
            (ns.instr, ns.elem),
            (na.instr, na.elem),
        ));
    }
    for site in gcost.objects() {
        for field in gcost.fields_of(site) {
            for target in gcost.points_to(site, field) {
                sums.pts_sum = sums
                    .pts_sum
                    .wrapping_add(pointsto_record_hash(site, field, target));
            }
        }
    }
    combine_content_hash(
        gcost.instr_instances(),
        gcost.shadow_heap_bytes() as u64,
        &sums,
    )
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A malformed or corrupt snapshot, or an I/O failure while loading one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError(pub String);

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot: {}", self.0)
    }
}

impl Error for StoreError {}

impl From<String> for StoreError {
    fn from(s: String) -> Self {
        StoreError(s)
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, StoreError> {
    Err(StoreError(message.into()))
}

// ---------------------------------------------------------------------------
// The one unsafe corner: byte-slice reinterpretation
// ---------------------------------------------------------------------------

/// Zero-copy reinterpretation between `&[u64]` buffers and the typed
/// little-endian arrays they hold. This is the crate's only unsafe code;
/// each cast checks alignment and size first and the lifetime of the
/// output is tied to the input, so no misaligned, out-of-bounds, or
/// dangling view can be produced. On big-endian hosts the borrowed casts
/// are replaced by owned byte-order-converting decodes.
mod cast {
    #![allow(unsafe_code)]
    use std::borrow::Cow;

    /// Views the first `len` bytes of `words` as a byte slice.
    pub fn bytes(words: &[u64], len: usize) -> &[u8] {
        assert!(len <= words.len() * 8, "byte length exceeds backing words");
        // SAFETY: `u8` has alignment 1 and every bit pattern is valid;
        // the pointer and length stay inside `words`' allocation and the
        // returned lifetime is the input's.
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), len) }
    }

    macro_rules! le_slice {
        ($name:ident, $ty:ty) => {
            /// Views `bytes` as a little-endian array of the target type.
            /// `None` when the length is not a whole number of elements
            /// or (on borrowing hosts) the pointer is misaligned.
            pub fn $name(bytes: &[u8]) -> Option<Cow<'_, [$ty]>> {
                const W: usize = std::mem::size_of::<$ty>();
                if bytes.len() % W != 0 {
                    return None;
                }
                #[cfg(target_endian = "little")]
                {
                    if bytes.as_ptr() as usize % std::mem::align_of::<$ty>() != 0 {
                        return None;
                    }
                    // SAFETY: alignment and exact size were just checked;
                    // every bit pattern is a valid integer; the lifetime
                    // of the view is the input slice's.
                    Some(Cow::Borrowed(unsafe {
                        std::slice::from_raw_parts(bytes.as_ptr().cast::<$ty>(), bytes.len() / W)
                    }))
                }
                #[cfg(target_endian = "big")]
                {
                    Some(Cow::Owned(
                        bytes
                            .chunks_exact(W)
                            .map(|c| <$ty>::from_le_bytes(c.try_into().unwrap()))
                            .collect(),
                    ))
                }
            }
        };
    }

    le_slice!(le_u32s, u32);
    le_slice!(le_u64s, u64);
}

// ---------------------------------------------------------------------------
// Aligned file buffer
// ---------------------------------------------------------------------------

/// A file image held in 8-byte-aligned storage, so the typed section
/// views can borrow from it directly. One allocation for the whole file
/// — loading performs no per-node or per-section copies beyond this
/// single read.
#[derive(Debug, Clone)]
pub struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    /// Copies `bytes` into aligned storage.
    pub fn from_bytes(bytes: &[u8]) -> AlignedBuf {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        for (w, chunk) in words.iter_mut().zip(bytes.chunks(8)) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            // Native order: `as_bytes` reinterprets the words as raw
            // bytes, so packing must invert exactly that.
            *w = u64::from_ne_bytes(b);
        }
        AlignedBuf {
            words,
            len: bytes.len(),
        }
    }

    /// Reads a whole file into aligned storage.
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    pub fn load(path: impl AsRef<Path>) -> io::Result<AlignedBuf> {
        Ok(AlignedBuf::from_bytes(&fs::read(path)?))
    }

    /// The file image.
    pub fn as_bytes(&self) -> &[u8] {
        cast::bytes(&self.words, self.len)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn u32s_le(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for &v in vals {
        push_u32(&mut out, v);
    }
    out
}

pub(crate) fn u64s_le(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for &v in vals {
        push_u64(&mut out, v);
    }
    out
}

/// The header scalars of a snapshot, for the from-parts writer.
pub(crate) struct SnapshotMeta {
    pub content_hash: u64,
    pub nodes: u64,
    pub edges: u64,
    pub instr_instances: u64,
    pub shadow_heap_bytes: u64,
    pub total_instructions: u64,
}

/// Assembles a snapshot file from already-rendered section bodies (in
/// [`SECTION_IDS`] order). This is the single place that knows the
/// preamble/header/alignment layout; [`write_snapshot`] and the
/// incremental writer ([`crate::incr::IncrementalCsr`]) both feed it, so
/// their bytes can only differ if their section *contents* differ.
/// `crcs`, when supplied, must be the per-section CRC32s of `sections`
/// — the incremental writer caches them so an unchanged section is
/// never re-checksummed; `None` computes them here.
pub(crate) fn write_snapshot_sections<W: Write>(
    meta: &SnapshotMeta,
    sections: [&[u8]; 14],
    crcs: Option<&[u32; 14]>,
    mut w: W,
) -> io::Result<()> {
    let header_len = HEADER_FIXED_LEN + SECTION_ENTRY_LEN * sections.len();
    let mut offset = (PREAMBLE_LEN + header_len).next_multiple_of(8);
    let mut header = Vec::with_capacity(header_len);
    push_u32(&mut header, FORMAT_VERSION);
    push_u32(&mut header, sections.len() as u32);
    push_u64(&mut header, meta.content_hash);
    push_u64(&mut header, meta.nodes);
    push_u64(&mut header, meta.edges);
    push_u64(&mut header, meta.instr_instances);
    push_u64(&mut header, meta.shadow_heap_bytes);
    push_u64(&mut header, meta.total_instructions);
    for (i, (id, body)) in SECTION_IDS.iter().zip(sections).enumerate() {
        push_u32(&mut header, *id);
        push_u32(&mut header, 0);
        push_u64(&mut header, offset as u64);
        push_u64(&mut header, body.len() as u64);
        push_u32(&mut header, crcs.map_or_else(|| crc32(body), |c| c[i]));
        push_u32(&mut header, 0);
        offset = (offset + body.len()).next_multiple_of(8);
    }
    debug_assert_eq!(header.len(), header_len);

    w.write_all(&MAGIC)?;
    w.write_all(&(header_len as u32).to_le_bytes())?;
    w.write_all(&crc32(&header).to_le_bytes())?;
    w.write_all(&header)?;
    let mut written = PREAMBLE_LEN + header_len;
    for body in sections {
        let aligned = written.next_multiple_of(8);
        w.write_all(&[0u8; 8][..aligned - written])?;
        w.write_all(body)?;
        written = aligned + body.len();
    }
    Ok(())
}

/// Serializes `gcost` (plus the run's total instruction count, needed to
/// reproduce dead-value metrics offline) to snapshot format v1.
///
/// The output is canonical: nodes in [`canonical_order`] with sorted
/// adjacency, records sorted — the same abstract graph always produces
/// identical bytes.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_snapshot<W: Write>(
    gcost: &CostGraph,
    total_instructions: u64,
    w: W,
) -> io::Result<()> {
    let g = gcost.graph();
    let n = g.num_nodes();
    let order = canonical_order(g);
    let csr = CsrGraph::build_ordered(g, &order);
    let mut canon = vec![0u32; n];
    for (new, &old) in order.iter().enumerate() {
        canon[old.index()] = new as u32;
    }

    let mut node_instr = Vec::with_capacity(2 * n);
    let mut node_elem = Vec::with_capacity(n);
    for &old in &order {
        let node = g.node(old);
        node_instr.push(node.instr.method.0);
        node_instr.push(node.instr.pc);
        node_elem.push(elem_rank(node.elem));
    }

    let mut effects = Vec::new();
    for (new, &old) in order.iter().enumerate() {
        if let Some(e) = gcost.effect(old) {
            let (tag, a, b, c) = effect_code(e);
            effects.extend_from_slice(&[new as u32, tag, a, b, c]);
        }
    }

    let mut ref_edges: Vec<(u32, u32)> = gcost
        .ref_edges()
        .map(|(s, a)| (canon[s.index()], canon[a.index()]))
        .collect();
    ref_edges.sort_unstable();
    let ref_edges: Vec<u32> = ref_edges.into_iter().flat_map(|(a, b)| [a, b]).collect();

    let mut points_to = Vec::new();
    for site in gcost.objects() {
        for field in gcost.fields_of(site) {
            for target in gcost.points_to(site, field) {
                points_to.extend_from_slice(&[
                    site.site.0,
                    site.slot,
                    field_code(field),
                    target.site.0,
                    target.slot,
                ]);
            }
        }
    }

    let sections: [Vec<u8>; 14] = [
        csr.kind_codes().to_vec(),
        u64s_le(csr.freqs()),
        u32s_le(csr.succ_offsets()),
        u32s_le(csr.succ_targets()),
        u32s_le(csr.pred_offsets()),
        u32s_le(csr.pred_targets()),
        u64s_le(csr.reads_heap_words()),
        u64s_le(csr.writes_heap_words()),
        u64s_le(csr.consumer_words()),
        u32s_le(&node_instr),
        u64s_le(&node_elem),
        u32s_le(&effects),
        u32s_le(&ref_edges),
        u32s_le(&points_to),
    ];

    write_snapshot_sections(
        &SnapshotMeta {
            content_hash: content_hash(gcost),
            nodes: n as u64,
            edges: csr.num_edges() as u64,
            instr_instances: gcost.instr_instances(),
            shadow_heap_bytes: gcost.shadow_heap_bytes() as u64,
            total_instructions,
        },
        sections.each_ref().map(Vec::as_slice),
        None,
        w,
    )
}

/// [`write_snapshot`] to a file.
///
/// # Errors
/// Propagates I/O errors.
pub fn save_snapshot(
    gcost: &CostGraph,
    total_instructions: u64,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    let mut buf = Vec::new();
    write_snapshot(gcost, total_instructions, &mut buf)?;
    fs::write(path, buf)
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A validated view of one snapshot file: the zero-copy [`CsrGraph`]
/// plus the label/effect tables needed to rebuild a [`CostGraph`].
/// Borrows from the [`AlignedBuf`] it was read from.
#[derive(Debug, Clone)]
pub struct Snapshot<'a> {
    csr: CsrGraph<'a>,
    content_hash: u64,
    instr_instances: u64,
    shadow_heap_bytes: u64,
    total_instructions: u64,
    /// `(method, pc)` pairs, canonical node order.
    node_instr: Cow<'a, [u32]>,
    /// [`elem_rank`] encodings, canonical node order.
    node_elem: Cow<'a, [u64]>,
    /// `(node, tag, a, b, c)` records.
    effects: Cow<'a, [u32]>,
    /// `(store, alloc)` pairs.
    ref_edges: Cow<'a, [u32]>,
    /// `(site, slot, field, site2, slot2)` records.
    points_to: Cow<'a, [u32]>,
}

impl<'a> Snapshot<'a> {
    /// The zero-copy CSR graph (arrays borrowed from the file buffer).
    pub fn csr(&self) -> &CsrGraph<'a> {
        &self.csr
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.csr.num_nodes()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// FNV-1a 64 of the canonical text export of the saved graph.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Instruction instances profiled (the paper's `I`).
    pub fn instr_instances(&self) -> u64 {
        self.instr_instances
    }

    /// Shadow-heap bytes at the end of the profiled run.
    pub fn shadow_heap_bytes(&self) -> usize {
        self.shadow_heap_bytes as usize
    }

    /// The run's total executed instructions (dead metrics' denominator).
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// The static instruction of node `i` (canonical order).
    pub fn node_instr(&self, i: usize) -> InstrId {
        InstrId::new(MethodId(self.node_instr[2 * i]), self.node_instr[2 * i + 1])
    }

    /// The abstract-domain element of node `i`.
    pub fn node_elem(&self, i: usize) -> CostElem {
        match self.node_elem[i] {
            0 => CostElem::NoCtx,
            r => CostElem::Ctx((r - 1) as u32),
        }
    }

    /// Rebuilds the full [`CostGraph`] (owned) from the snapshot tables.
    /// Node `i` of the file becomes [`NodeId`]`(i)`, so the result lines
    /// up index-for-index with [`csr`](Snapshot::csr); its canonical
    /// export is byte-identical to the saved graph's.
    pub fn to_cost_graph(&self) -> CostGraph {
        let n = self.num_nodes();
        let mut graph: DepGraph<CostElem> = DepGraph::new();
        for i in 0..n {
            let id = graph.intern(
                self.node_instr(i),
                self.node_elem(i),
                self.csr.kind(NodeId(i as u32)),
            );
            debug_assert_eq!(id.index(), i, "canonical nodes are unique");
            graph.set_freq(id, self.csr.freq(id));
        }
        let offs = self.csr.succ_offsets();
        let adj = self.csr.succ_targets();
        for i in 0..n {
            for &m in &adj[offs[i] as usize..offs[i + 1] as usize] {
                graph.add_edge(NodeId(i as u32), NodeId(m));
            }
        }
        let mut effects: HashMap<NodeId, HeapEffect> = HashMap::new();
        for rec in self.effects.chunks_exact(5) {
            let (node, tag, a, b, c) = (rec[0], rec[1], rec[2], rec[3], rec[4]);
            let site = TaggedSite {
                site: AllocSiteId(a),
                slot: b,
            };
            let eff = match tag {
                EFFECT_ALLOC => HeapEffect::Alloc { site },
                EFFECT_LOAD => HeapEffect::Load {
                    site,
                    field: decode_field(c),
                },
                EFFECT_STORE => HeapEffect::Store {
                    site,
                    field: decode_field(c),
                },
                EFFECT_LOAD_STATIC => HeapEffect::LoadStatic(StaticId(a)),
                _ => HeapEffect::StoreStatic(StaticId(a)),
            };
            effects.insert(NodeId(node), eff);
        }
        let mut ref_edges: HashSet<(NodeId, NodeId)> = HashSet::new();
        for pair in self.ref_edges.chunks_exact(2) {
            ref_edges.insert((NodeId(pair[0]), NodeId(pair[1])));
        }
        let mut points_to: HashMap<(TaggedSite, FieldKey), HashSet<TaggedSite>> = HashMap::new();
        for rec in self.points_to.chunks_exact(5) {
            let site = TaggedSite {
                site: AllocSiteId(rec[0]),
                slot: rec[1],
            };
            let target = TaggedSite {
                site: AllocSiteId(rec[3]),
                slot: rec[4],
            };
            points_to
                .entry((site, decode_field(rec[2])))
                .or_default()
                .insert(target);
        }
        CostGraph::from_parts(
            graph,
            ref_edges,
            effects,
            points_to,
            self.instr_instances,
            self.shadow_heap_bytes as usize,
        )
    }
}

struct SectionEntry {
    id: u32,
    offset: u64,
    len: u64,
    crc: u32,
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Parses and fully validates a snapshot, returning zero-copy views over
/// `buf`. Every declared length is bounds-checked before use, section
/// CRCs are verified, and the CSR invariants are revalidated — corrupt or
/// truncated input yields `Err`, never a panic or oversized allocation.
///
/// # Errors
/// Returns a [`StoreError`] naming the first problem found.
pub fn read_snapshot(buf: &AlignedBuf) -> Result<Snapshot<'_>, StoreError> {
    let bytes = buf.as_bytes();
    if bytes.len() < PREAMBLE_LEN {
        return err("file shorter than preamble");
    }
    if bytes[..8] != MAGIC {
        return err("bad magic");
    }
    let header_len = read_u32(bytes, 8) as usize;
    let header_crc = read_u32(bytes, 12);
    if header_len < HEADER_FIXED_LEN || bytes.len() - PREAMBLE_LEN < header_len {
        return err("header length out of range");
    }
    let header = &bytes[PREAMBLE_LEN..PREAMBLE_LEN + header_len];
    if crc32(header) != header_crc {
        return err("header CRC mismatch");
    }
    let version = read_u32(header, 0);
    if version != FORMAT_VERSION {
        return err(format!("unsupported format version {version}"));
    }
    let section_count = read_u32(header, 4) as usize;
    if section_count != SECTION_IDS.len()
        || header_len != HEADER_FIXED_LEN + SECTION_ENTRY_LEN * section_count
    {
        return err("unexpected section table shape");
    }
    let content_hash = read_u64(header, 8);
    let nodes = read_u64(header, 16);
    let edges = read_u64(header, 24);
    let instr_instances = read_u64(header, 32);
    let shadow_heap_bytes = read_u64(header, 40);
    let total_instructions = read_u64(header, 48);
    if nodes > u64::from(u32::MAX) || edges > u64::from(u32::MAX) {
        return err("node or edge count exceeds index width");
    }
    let n = nodes as usize;
    let e = edges as usize;

    let mut section_bytes: [&[u8]; 14] = [&[]; 14];
    for (i, want_id) in SECTION_IDS.iter().enumerate() {
        let at = HEADER_FIXED_LEN + SECTION_ENTRY_LEN * i;
        let entry = SectionEntry {
            id: read_u32(header, at),
            offset: read_u64(header, at + 8),
            len: read_u64(header, at + 16),
            crc: read_u32(header, at + 24),
        };
        if entry.id != *want_id {
            return err(format!("section {i}: unexpected id {}", entry.id));
        }
        if !entry.offset.is_multiple_of(8) {
            return err(format!("section {i}: misaligned offset"));
        }
        let file_len = bytes.len() as u64;
        if entry.offset > file_len || file_len - entry.offset < entry.len {
            return err(format!("section {i}: extends past end of file"));
        }
        let body = &bytes[entry.offset as usize..(entry.offset + entry.len) as usize];
        if crc32(body) != entry.crc {
            return err(format!("section {i}: CRC mismatch"));
        }
        section_bytes[i] = body;
    }

    // Declared lengths must agree with the header's node/edge counts
    // before anything is interpreted.
    let words = n.div_ceil(64);
    let expected: [(usize, usize); 11] = [
        (0, n),           // KIND
        (1, 8 * n),       // FREQ
        (2, 4 * (n + 1)), // SUCC_OFF
        (3, 4 * e),       // SUCC_ADJ
        (4, 4 * (n + 1)), // PRED_OFF
        (5, 4 * e),       // PRED_ADJ
        (6, 8 * words),   // READS_HEAP
        (7, 8 * words),   // WRITES_HEAP
        (8, 8 * words),   // CONSUMER
        (9, 8 * n),       // NODE_INSTR
        (10, 8 * n),      // NODE_ELEM
    ];
    for (i, want) in expected {
        if section_bytes[i].len() != want {
            return err(format!(
                "section {i}: length {} != expected {want}",
                section_bytes[i].len()
            ));
        }
    }
    if !section_bytes[11].len().is_multiple_of(EFFECT_RECORD) {
        return err("EFFECTS section not a whole number of records");
    }
    if !section_bytes[12].len().is_multiple_of(8) {
        return err("REF_EDGES section not a whole number of pairs");
    }
    if !section_bytes[13].len().is_multiple_of(POINTS_TO_RECORD) {
        return err("POINTS_TO section not a whole number of records");
    }

    let view_u32 = |i: usize| {
        cast::le_u32s(section_bytes[i]).ok_or(StoreError("misaligned u32 section".into()))
    };
    let view_u64 = |i: usize| {
        cast::le_u64s(section_bytes[i]).ok_or(StoreError("misaligned u64 section".into()))
    };

    let csr = CsrGraph::from_raw_parts(
        Cow::Borrowed(section_bytes[0]),
        view_u64(1)?,
        view_u32(2)?,
        view_u32(3)?,
        view_u32(4)?,
        view_u32(5)?,
        view_u64(6)?,
        view_u64(7)?,
        view_u64(8)?,
    )?;

    let node_instr = view_u32(9)?;
    let node_elem = view_u64(10)?;
    let effects = view_u32(11)?;
    let ref_edges = view_u32(12)?;
    let points_to = view_u32(13)?;

    // Elems must decode and canonical node keys must strictly increase —
    // which also guarantees uniqueness, so `to_cost_graph` interning
    // assigns NodeId(i) to file node i.
    for (i, &r) in node_elem.iter().enumerate() {
        if r > u64::from(u32::MAX) + 1 {
            return err(format!("node {i}: elem encoding out of range"));
        }
    }
    for i in 1..n {
        let prev = (
            node_instr[2 * (i - 1)],
            node_instr[2 * i - 1],
            node_elem[i - 1],
        );
        let cur = (node_instr[2 * i], node_instr[2 * i + 1], node_elem[i]);
        if prev >= cur {
            return err(format!("node {i}: canonical order violated"));
        }
    }
    for (r, rec) in effects.chunks_exact(5).enumerate() {
        if rec[0] as usize >= n {
            return err(format!("effect record {r}: node out of range"));
        }
        if rec[1] > EFFECT_STORE_STATIC {
            return err(format!("effect record {r}: unknown tag {}", rec[1]));
        }
    }
    for (r, pair) in ref_edges.chunks_exact(2).enumerate() {
        if pair[0] as usize >= n || pair[1] as usize >= n {
            return err(format!("ref edge {r}: node out of range"));
        }
    }

    Ok(Snapshot {
        csr,
        content_hash,
        instr_instances,
        shadow_heap_bytes,
        total_instructions,
        node_instr,
        node_elem,
        effects,
        ref_edges,
        points_to,
    })
}

// ---------------------------------------------------------------------------
// Verification report
// ---------------------------------------------------------------------------

fn section_name(id: u32) -> &'static str {
    match id {
        SEC_KIND => "kind",
        SEC_FREQ => "freq",
        SEC_SUCC_OFF => "succ_off",
        SEC_SUCC_ADJ => "succ_adj",
        SEC_PRED_OFF => "pred_off",
        SEC_PRED_ADJ => "pred_adj",
        SEC_READS_HEAP => "reads_heap",
        SEC_WRITES_HEAP => "writes_heap",
        SEC_CONSUMER => "consumer",
        SEC_NODE_INSTR => "node_instr",
        SEC_NODE_ELEM => "node_elem",
        SEC_EFFECTS => "effects",
        SEC_REF_EDGES => "ref_edges",
        SEC_POINTS_TO => "points_to",
        _ => "unknown",
    }
}

/// One section's integrity check in a [`VerifyReport`].
#[derive(Debug, Clone)]
pub struct SectionCheck {
    /// Section name, file order.
    pub name: &'static str,
    /// Declared byte length.
    pub len: u64,
    /// `Ok` when the declared extent is in bounds and its CRC matches.
    pub status: Result<(), String>,
}

/// The outcome of [`verify_snapshot`]: per-section CRC results plus the
/// first deep-validation failure — the report behind
/// `lowutil snapshot verify`.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Declared `(nodes, edges)`, once the header parses.
    pub declared: Option<(u64, u64)>,
    /// Declared content hash, once the header parses.
    pub content_hash: Option<u64>,
    /// Per-section checks in file order (empty when the header itself
    /// is unreadable — there is no trustworthy section table to walk).
    pub sections: Vec<SectionCheck>,
    /// First failure found by the full validator ([`read_snapshot`]);
    /// `None` when the file is a valid snapshot.
    pub error: Option<String>,
}

impl VerifyReport {
    /// Whether the file is a fully valid snapshot.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Checks `buf` as a snapshot, reporting per-section CRC status along
/// with the first deep-validation failure. Unlike [`read_snapshot`],
/// which stops at the first problem, every section is CRC-checked even
/// after one fails — a corruption report names *all* damaged sections,
/// not just the first.
pub fn verify_snapshot(buf: &AlignedBuf) -> VerifyReport {
    let bytes = buf.as_bytes();
    let mut report = VerifyReport {
        declared: None,
        content_hash: None,
        sections: Vec::new(),
        error: None,
    };
    // Header checks mirror `read_snapshot`'s prefix; past them the
    // section table is CRC-trusted and can be walked exhaustively.
    let header = 'hdr: {
        if bytes.len() < PREAMBLE_LEN {
            break 'hdr Err("file shorter than preamble".to_string());
        }
        if bytes[..8] != MAGIC {
            break 'hdr Err("bad magic".to_string());
        }
        let header_len = read_u32(bytes, 8) as usize;
        let header_crc = read_u32(bytes, 12);
        if header_len < HEADER_FIXED_LEN || bytes.len() - PREAMBLE_LEN < header_len {
            break 'hdr Err("header length out of range".to_string());
        }
        let header = &bytes[PREAMBLE_LEN..PREAMBLE_LEN + header_len];
        if crc32(header) != header_crc {
            break 'hdr Err("header CRC mismatch".to_string());
        }
        let version = read_u32(header, 0);
        if version != FORMAT_VERSION {
            break 'hdr Err(format!("unsupported format version {version}"));
        }
        let section_count = read_u32(header, 4) as usize;
        if section_count != SECTION_IDS.len()
            || header_len != HEADER_FIXED_LEN + SECTION_ENTRY_LEN * section_count
        {
            break 'hdr Err("unexpected section table shape".to_string());
        }
        Ok(header)
    };
    let header = match header {
        Ok(h) => h,
        Err(e) => {
            report.error = Some(e);
            return report;
        }
    };
    report.content_hash = Some(read_u64(header, 8));
    report.declared = Some((read_u64(header, 16), read_u64(header, 24)));
    for (i, want_id) in SECTION_IDS.iter().enumerate() {
        let at = HEADER_FIXED_LEN + SECTION_ENTRY_LEN * i;
        let id = read_u32(header, at);
        let offset = read_u64(header, at + 8);
        let len = read_u64(header, at + 16);
        let crc = read_u32(header, at + 24);
        let status = if id != *want_id {
            Err(format!("unexpected id {id}"))
        } else if !offset.is_multiple_of(8) {
            Err("misaligned offset".to_string())
        } else if offset > bytes.len() as u64 || bytes.len() as u64 - offset < len {
            Err("extends past end of file".to_string())
        } else {
            let body = &bytes[offset as usize..(offset + len) as usize];
            if crc32(body) != crc {
                Err("CRC mismatch".to_string())
            } else {
                Ok(())
            }
        };
        report.sections.push(SectionCheck {
            name: section_name(*want_id),
            len,
            status,
        });
    }
    if let Err(e) = read_snapshot(buf) {
        report.error = Some(e.0);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::write_cost_graph;
    use crate::gcost::{CostGraphConfig, CostProfiler};
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    fn sample() -> (CostGraph, u64) {
        let p = parse_program(
            r#"
native print/1
class Box { v w }
method main/0 {
  b = new Box
  i = 0
  lim = 25
loop:
  x = i + i
  b.v = x
  y = b.v
  b.w = y
  native print(y)
  one = 1
  i = i + one
  if i < lim goto loop
  return
}
"#,
        )
        .unwrap();
        let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
        let out = Vm::new(&p).run(&mut prof).unwrap();
        (prof.finish(), out.instructions_executed)
    }

    fn saved_bytes(g: &CostGraph, total: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(g, total, &mut buf).unwrap();
        buf
    }

    #[test]
    fn save_is_deterministic() {
        let (g, total) = sample();
        assert_eq!(saved_bytes(&g, total), saved_bytes(&g, total));
    }

    #[test]
    fn round_trip_preserves_canonical_export() {
        let (g, total) = sample();
        let buf = AlignedBuf::from_bytes(&saved_bytes(&g, total));
        let snap = read_snapshot(&buf).unwrap();
        assert_eq!(snap.total_instructions(), total);
        assert_eq!(snap.content_hash(), content_hash(&g));
        let g2 = snap.to_cost_graph();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        write_cost_graph(&g, &mut a).unwrap();
        write_cost_graph(&g2, &mut b).unwrap();
        assert_eq!(a, b, "canonical export survives the binary round trip");
        assert_eq!(content_hash(&g2), snap.content_hash());
    }

    #[test]
    fn loaded_csr_matches_rebuilt_csr_sums() {
        let (g, total) = sample();
        let buf = AlignedBuf::from_bytes(&saved_bytes(&g, total));
        let snap = read_snapshot(&buf).unwrap();
        let g2 = snap.to_cost_graph();
        let rebuilt = CsrGraph::build(g2.graph());
        let csr = snap.csr();
        assert_eq!(csr.num_nodes(), rebuilt.num_nodes());
        assert_eq!(csr.num_edges(), rebuilt.num_edges());
        let mut s1 = crate::csr::TraversalScratch::for_graph(csr);
        let mut s2 = crate::csr::TraversalScratch::for_graph(&rebuilt);
        for i in 0..csr.num_nodes() as u32 {
            let id = NodeId(i);
            assert_eq!(
                csr.heap_bounded_backward_sum(&mut s1, id),
                rebuilt.heap_bounded_backward_sum(&mut s2, id)
            );
            assert_eq!(
                csr.heap_bounded_forward_sum(&mut s1, id),
                rebuilt.heap_bounded_forward_sum(&mut s2, id)
            );
        }
    }

    #[test]
    fn truncation_and_bitflips_are_rejected() {
        let (g, total) = sample();
        let bytes = saved_bytes(&g, total);
        for cut in [0, 7, 15, 16, 40, bytes.len() / 2, bytes.len() - 1] {
            let buf = AlignedBuf::from_bytes(&bytes[..cut]);
            assert!(read_snapshot(&buf).is_err(), "truncation at {cut} accepted");
        }
        for at in [0, 9, 13, 20, 60, bytes.len() / 2, bytes.len() - 3] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            let buf = AlignedBuf::from_bytes(&bad);
            assert!(read_snapshot(&buf).is_err(), "bit flip at {at} accepted");
        }
    }

    #[test]
    fn verify_report_names_every_damaged_section() {
        let (g, total) = sample();
        let bytes = saved_bytes(&g, total);

        let good = verify_snapshot(&AlignedBuf::from_bytes(&bytes));
        assert!(good.is_ok(), "{:?}", good.error);
        assert_eq!(good.sections.len(), SECTION_IDS.len());
        assert!(good.sections.iter().all(|s| s.status.is_ok()));
        assert_eq!(good.content_hash, Some(content_hash(&g)));
        let n = g.graph().num_nodes() as u64;
        assert_eq!(good.declared.map(|(nodes, _)| nodes), Some(n));

        // Corrupt two distinct section bodies: read_snapshot stops at
        // the first, the report must flag both. KIND and NODE_INSTR are
        // node-sized, so both are non-empty for any non-trivial graph.
        let mut bad = bytes.clone();
        let mut hit = Vec::new();
        for i in [0, 9] {
            let at = HEADER_FIXED_LEN + SECTION_ENTRY_LEN * i;
            let offset = read_u64(&bytes[PREAMBLE_LEN..], at + 8) as usize;
            let len = read_u64(&bytes[PREAMBLE_LEN..], at + 16);
            assert!(len > 0, "test wants non-empty section {i}");
            bad[offset] ^= 0x01;
            hit.push(section_name(SECTION_IDS[i]));
        }
        let report = verify_snapshot(&AlignedBuf::from_bytes(&bad));
        assert!(!report.is_ok());
        let flagged: Vec<&str> = report
            .sections
            .iter()
            .filter(|s| s.status.is_err())
            .map(|s| s.name)
            .collect();
        assert_eq!(flagged, hit, "every damaged section flagged");

        // An unreadable header yields a bare error with no section table.
        let report = verify_snapshot(&AlignedBuf::from_bytes(&bytes[..PREAMBLE_LEN - 1]));
        assert!(!report.is_ok() && report.sections.is_empty());
        let mut bad = bytes.clone();
        bad[PREAMBLE_LEN + 2] ^= 0x10; // inside the header body
        let report = verify_snapshot(&AlignedBuf::from_bytes(&bad));
        assert_eq!(report.error.as_deref(), Some("header CRC mismatch"));
        assert!(report.sections.is_empty());
    }

    #[test]
    fn content_hash_tracks_content_not_construction() {
        let (g, _) = sample();
        // Round-tripping through the text export reorders construction
        // but not content.
        let mut buf = Vec::new();
        write_cost_graph(&g, &mut buf).unwrap();
        let g2 = crate::export::read_cost_graph(buf.as_slice()).unwrap();
        assert_eq!(content_hash(&g), content_hash(&g2));
    }
}
