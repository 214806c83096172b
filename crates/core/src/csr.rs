//! Flat CSR snapshot of a dependence graph plus bitset traversal kernels
//! — the batch-analysis substrate.
//!
//! The analysis phase of the tool asks thousands of slice queries against
//! one *finished*, read-only graph (an HRAC per store node, an HRAB per
//! load node, a consumer-reachability flag per read; Definitions 5 and 6).
//! The paper's abstract domain bounds that graph to `|I| × |D|` nodes —
//! small and dense — so the pointer-chasing `Vec<Vec<NodeId>>` adjacency
//! and `HashSet<NodeId>` visited sets of the construction-side
//! [`DepGraph`] are the wrong shape for it.
//! [`CsrGraph`] snapshots a finished graph into flat offset/edge arrays
//! (both directions) with frequency and kind side arrays; traversals run
//! with a reusable dense `u64`-word visited bitset and an explicit stack,
//! and fuse the frequency sum of Definition 4 into the visit loop.
//!
//! [`CsrGraph::mark_consumer_reach`] additionally replaces the per-read
//! forward BFS of `reaches_consumer` with a *single* reverse pass from
//! every consumer node: one O(V+E) sweep computes, for every node at
//! once, whether its value reaches a predicate or native consumer without
//! crossing a heap write.

use crate::graph::{DepGraph, NodeId, NodeKind};
use std::borrow::Cow;
use std::hash::Hash;

/// A dense bitset over `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    /// Creates an empty bitset able to hold `bits` bits.
    pub fn new(bits: usize) -> Self {
        Bitset {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Wraps an existing word vector (64 bits per word, bit `i` at word
    /// `i / 64`, bit `i % 64`).
    pub fn from_words(words: Vec<u64>) -> Self {
        Bitset { words }
    }

    /// The backing words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Sets bit `i`; returns `true` when the bit was previously clear.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        fresh
    }

    /// Tests bit `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Clears bit `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Number of set bits — one `count_ones` per word, no per-bit work.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing word at index `w` (64 bits per word).
    #[inline]
    fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Calls `f` with the index of every set bit, in increasing order.
    /// Word-parallel sweep: zero words cost one load and one test; set
    /// bits are extracted with `trailing_zeros` and a clear-lowest-bit
    /// step, so the cost is O(words + set bits), never O(bits).
    #[inline]
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                f(w * 64 + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
    }
}

/// Reusable traversal state: a dense visited bitset, an explicit stack,
/// and the list of touched *words* so a finished traversal resets (and
/// its fused frequency sum sweeps) word-at-a-time in O(|slice|/64 +
/// |slice|), not O(V). One scratch serves any number of sequential
/// queries against graphs of at most the constructed size; per-seed
/// batch analysis reuses one across every seed.
#[derive(Debug)]
pub struct TraversalScratch {
    visited: Bitset,
    stack: Vec<u32>,
    /// Indices of the visited words the current traversal made nonzero.
    /// Invariant between traversals: every word of `visited` is zero, so
    /// "word is nonzero" ⇔ "word is already listed here".
    touched_words: Vec<u32>,
}

impl TraversalScratch {
    /// Creates scratch for graphs of up to `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        TraversalScratch {
            visited: Bitset::new(nodes),
            stack: Vec::new(),
            touched_words: Vec::new(),
        }
    }

    /// Creates scratch sized for `csr`.
    pub fn for_graph(csr: &CsrGraph<'_>) -> Self {
        Self::new(csr.num_nodes())
    }

    /// Zeroes only the words the last traversal touched.
    #[inline]
    fn reset(&mut self) {
        for &w in &self.touched_words {
            self.visited.words[w as usize] = 0;
        }
        self.touched_words.clear();
        self.stack.clear();
    }

    #[inline]
    fn visit(&mut self, n: u32) -> bool {
        let w = (n / 64) as usize;
        let bit = 1u64 << (n % 64);
        let word = self.visited.words[w];
        if word & bit != 0 {
            return false;
        }
        if word == 0 {
            self.touched_words.push(w as u32);
        }
        self.visited.words[w] = word | bit;
        true
    }
}

/// Tests bit `i` of a raw bitset word slice.
#[inline]
fn word_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

/// A structural patch against a canonical [`CsrGraph`], expressed in the
/// *final* node numbering (after any insertions). Produced by
/// [`crate::incr::IncrementalCsr`] from an
/// [`AbsorbDelta`](crate::shard::AbsorbDelta) and consumed by
/// [`CsrGraph::apply_delta`].
#[derive(Debug, Default, Clone)]
pub struct CsrDelta {
    /// Frequency increments on surviving nodes, by final id.
    pub freq_adds: Vec<(u32, u64)>,
    /// Inserted nodes as `(final id, kind, initial frequency)`, sorted
    /// ascending by id. Ids name positions in the *final* numbering, so
    /// surviving old nodes fill the remaining positions in order.
    pub new_nodes: Vec<(u32, NodeKind, u64)>,
    /// Added edges in the final numbering. Must not duplicate existing
    /// edges.
    pub new_edges: Vec<(u32, u32)>,
}

impl CsrDelta {
    /// True when the patch only bumps frequencies: node set, edges, and
    /// boundary bitsets are untouched, so [`CsrGraph::apply_delta`] runs
    /// in O(|freq_adds|).
    pub fn is_freq_only(&self) -> bool {
        self.new_nodes.is_empty() && self.new_edges.is_empty()
    }
}

/// An immutable compressed-sparse-row snapshot of a finished dependence
/// graph: flat predecessor/successor adjacency plus per-node frequency
/// and kind side arrays. Node ids coincide with the source graph's
/// [`NodeId`] indices.
///
/// Every array is `Cow`: a graph built in memory owns its arrays
/// (`CsrGraph<'static>`), while one loaded from an on-disk snapshot
/// ([`crate::store`]) borrows them zero-copy from the mapped file bytes.
#[derive(Debug, Clone)]
pub struct CsrGraph<'a> {
    /// Per-node [`NodeKind::code`] bytes.
    kind: Cow<'a, [u8]>,
    freq: Cow<'a, [u64]>,
    succ_off: Cow<'a, [u32]>,
    succ_adj: Cow<'a, [u32]>,
    pred_off: Cow<'a, [u32]>,
    pred_adj: Cow<'a, [u32]>,
    /// Bit `n` set ⇔ `kind[n].reads_heap()` — the backward-hop boundary,
    /// precomputed so the traversal's crossing test is one load + mask
    /// on a dense side array instead of a kind decode per edge.
    reads_heap: Cow<'a, [u64]>,
    /// Bit `n` set ⇔ `kind[n].writes_heap()` — the forward-hop boundary.
    writes_heap: Cow<'a, [u64]>,
    /// Bit `n` set ⇔ `kind[n].is_consumer()` — the seed set of
    /// [`mark_consumer_reach`](CsrGraph::mark_consumer_reach), swept
    /// word-parallel instead of re-deriving it from `kind`.
    consumer: Cow<'a, [u64]>,
}

impl CsrGraph<'static> {
    /// Snapshots `g`. Adjacency lists keep the source graph's edge order,
    /// so traversal results are deterministic however the snapshot is
    /// consumed.
    pub fn build<D: Clone + Eq + Hash>(g: &DepGraph<D>) -> CsrGraph<'static> {
        Self::build_inner(g, None)
    }

    /// Snapshots `g` with its nodes permuted into `order` (`order[new]`
    /// is the old id) and each adjacency list sorted ascending. This is
    /// the *canonical* CSR form the on-disk store serializes: it depends
    /// only on graph content, never on construction order, so saving the
    /// same abstract graph twice produces identical bytes. Traversal
    /// sums are order-independent, so analyses agree with [`build`].
    ///
    /// [`build`]: CsrGraph::build
    pub fn build_ordered<D: Clone + Eq + Hash>(
        g: &DepGraph<D>,
        order: &[NodeId],
    ) -> CsrGraph<'static> {
        assert_eq!(order.len(), g.num_nodes(), "order must permute all nodes");
        Self::build_inner(g, Some(order))
    }

    fn build_inner<D: Clone + Eq + Hash>(
        g: &DepGraph<D>,
        order: Option<&[NodeId]>,
    ) -> CsrGraph<'static> {
        let n = g.num_nodes();
        debug_assert!(n <= u32::MAX as usize, "node count exceeds CSR index width");
        // old id -> new id (identity when no permutation given).
        let canon: Vec<u32> = match order {
            Some(order) => {
                let mut canon = vec![0u32; n];
                for (new, &old) in order.iter().enumerate() {
                    canon[old.index()] = new as u32;
                }
                canon
            }
            None => (0..n as u32).collect(),
        };
        let old_of = |new: usize| match order {
            Some(order) => order[new],
            None => NodeId(new as u32),
        };
        let mut kind = Vec::with_capacity(n);
        let mut freq = Vec::with_capacity(n);
        let mut reads_heap = Bitset::new(n);
        let mut writes_heap = Bitset::new(n);
        let mut consumer = Bitset::new(n);
        for i in 0..n {
            let node = g.node(old_of(i));
            kind.push(node.kind.code());
            freq.push(node.freq);
            if node.kind.reads_heap() {
                reads_heap.insert(i);
            }
            if node.kind.writes_heap() {
                writes_heap.insert(i);
            }
            if node.kind.is_consumer() {
                consumer.insert(i);
            }
        }
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ_adj = Vec::with_capacity(g.num_edges());
        let mut pred_off = Vec::with_capacity(n + 1);
        let mut pred_adj = Vec::with_capacity(g.num_edges());
        succ_off.push(0);
        pred_off.push(0);
        for i in 0..n {
            let old = old_of(i);
            let start = succ_adj.len();
            succ_adj.extend(g.succs(old).iter().map(|m| canon[m.index()]));
            if order.is_some() {
                succ_adj[start..].sort_unstable();
            }
            succ_off.push(succ_adj.len() as u32);
            let start = pred_adj.len();
            pred_adj.extend(g.preds(old).iter().map(|m| canon[m.index()]));
            if order.is_some() {
                pred_adj[start..].sort_unstable();
            }
            pred_off.push(pred_adj.len() as u32);
        }
        CsrGraph {
            kind: Cow::Owned(kind),
            freq: Cow::Owned(freq),
            succ_off: Cow::Owned(succ_off),
            succ_adj: Cow::Owned(succ_adj),
            pred_off: Cow::Owned(pred_off),
            pred_adj: Cow::Owned(pred_adj),
            reads_heap: Cow::Owned(reads_heap.words),
            writes_heap: Cow::Owned(writes_heap.words),
            consumer: Cow::Owned(consumer.words),
        }
    }
}

impl<'a> CsrGraph<'a> {
    /// Assembles a graph from raw (possibly borrowed) arrays, validating
    /// every structural invariant before anything downstream indexes
    /// with them: kind bytes decode, offset arrays are monotone and
    /// bracket their adjacency arrays, adjacency targets are in range,
    /// and the three boundary bitsets agree bit-for-bit with the kind
    /// array. Malformed input is rejected with a description, never a
    /// panic — this is the trust boundary for on-disk snapshots.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        kind: Cow<'a, [u8]>,
        freq: Cow<'a, [u64]>,
        succ_off: Cow<'a, [u32]>,
        succ_adj: Cow<'a, [u32]>,
        pred_off: Cow<'a, [u32]>,
        pred_adj: Cow<'a, [u32]>,
        reads_heap: Cow<'a, [u64]>,
        writes_heap: Cow<'a, [u64]>,
        consumer: Cow<'a, [u64]>,
    ) -> Result<CsrGraph<'a>, String> {
        let n = kind.len();
        if n > u32::MAX as usize {
            return Err("node count exceeds CSR index width".into());
        }
        if freq.len() != n {
            return Err(format!("freq length {} != node count {n}", freq.len()));
        }
        for (name, off, adj) in [
            ("succ", &succ_off, &succ_adj),
            ("pred", &pred_off, &pred_adj),
        ] {
            if off.len() != n + 1 {
                return Err(format!("{name} offsets length {} != {}", off.len(), n + 1));
            }
            if off[0] != 0 {
                return Err(format!("{name} offsets do not start at 0"));
            }
            if off.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("{name} offsets not monotone"));
            }
            if off[n] as usize != adj.len() {
                return Err(format!(
                    "{name} offsets end at {} but adjacency has {} entries",
                    off[n],
                    adj.len()
                ));
            }
            if adj.iter().any(|&m| m as usize >= n) {
                return Err(format!("{name} adjacency target out of range"));
            }
        }
        if succ_adj.len() != pred_adj.len() {
            return Err(format!(
                "edge count mismatch: {} forward vs {} reverse",
                succ_adj.len(),
                pred_adj.len()
            ));
        }
        let words = n.div_ceil(64);
        for (name, bits) in [
            ("reads_heap", &reads_heap),
            ("writes_heap", &writes_heap),
            ("consumer", &consumer),
        ] {
            if bits.len() != words {
                return Err(format!("{name} bitset length {} != {words}", bits.len()));
            }
        }
        for (i, &code) in kind.iter().enumerate() {
            let k = NodeKind::from_code(code)
                .ok_or_else(|| format!("node {i}: unknown kind code {code}"))?;
            if word_bit(&reads_heap, i) != k.reads_heap()
                || word_bit(&writes_heap, i) != k.writes_heap()
                || word_bit(&consumer, i) != k.is_consumer()
            {
                return Err(format!("node {i}: boundary bitsets disagree with kind"));
            }
        }
        // Tail bits beyond `n` must be clear, or word-parallel sweeps
        // would visit ghost nodes.
        if !n.is_multiple_of(64) && words > 0 {
            let mask = !0u64 << (n % 64);
            for bits in [&reads_heap, &writes_heap, &consumer] {
                if bits[words - 1] & mask != 0 {
                    return Err("bitset has bits set past the node count".into());
                }
            }
        }
        Ok(CsrGraph {
            kind,
            freq,
            succ_off,
            succ_adj,
            pred_off,
            pred_adj,
            reads_heap,
            writes_heap,
            consumer,
        })
    }

    /// Detaches the graph from any borrowed storage.
    pub fn into_owned(self) -> CsrGraph<'static> {
        CsrGraph {
            kind: Cow::Owned(self.kind.into_owned()),
            freq: Cow::Owned(self.freq.into_owned()),
            succ_off: Cow::Owned(self.succ_off.into_owned()),
            succ_adj: Cow::Owned(self.succ_adj.into_owned()),
            pred_off: Cow::Owned(self.pred_off.into_owned()),
            pred_adj: Cow::Owned(self.pred_adj.into_owned()),
            reads_heap: Cow::Owned(self.reads_heap.into_owned()),
            writes_heap: Cow::Owned(self.writes_heap.into_owned()),
            consumer: Cow::Owned(self.consumer.into_owned()),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.kind.len()
    }

    /// Number of (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.succ_adj.len()
    }

    /// A node's execution frequency.
    #[inline]
    pub fn freq(&self, n: NodeId) -> u64 {
        self.freq[n.index()]
    }

    /// A node's kind decoration.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        NodeKind::from_code(self.kind[n.index()]).expect("kind codes validated at construction")
    }

    /// Per-node kind codes ([`NodeKind::code`]), for serialization.
    pub fn kind_codes(&self) -> &[u8] {
        &self.kind
    }

    /// Per-node frequencies, for serialization.
    pub fn freqs(&self) -> &[u64] {
        &self.freq
    }

    /// Forward (successor) offset array, `num_nodes() + 1` entries.
    pub fn succ_offsets(&self) -> &[u32] {
        &self.succ_off
    }

    /// Forward adjacency targets.
    pub fn succ_targets(&self) -> &[u32] {
        &self.succ_adj
    }

    /// Reverse (predecessor) offset array, `num_nodes() + 1` entries.
    pub fn pred_offsets(&self) -> &[u32] {
        &self.pred_off
    }

    /// Reverse adjacency targets.
    pub fn pred_targets(&self) -> &[u32] {
        &self.pred_adj
    }

    /// Backing words of the heap-read boundary bitset.
    pub fn reads_heap_words(&self) -> &[u64] {
        &self.reads_heap
    }

    /// Backing words of the heap-write boundary bitset.
    pub fn writes_heap_words(&self) -> &[u64] {
        &self.writes_heap
    }

    /// Backing words of the consumer bitset.
    pub fn consumer_words(&self) -> &[u64] {
        &self.consumer
    }

    #[inline]
    fn succs(&self, n: u32) -> &[u32] {
        &self.succ_adj[self.succ_off[n as usize] as usize..self.succ_off[n as usize + 1] as usize]
    }

    #[inline]
    fn preds(&self, n: u32) -> &[u32] {
        &self.pred_adj[self.pred_off[n as usize] as usize..self.pred_off[n as usize + 1] as usize]
    }

    /// Heap-relative abstract cost of `seed` (Definition 5): the
    /// frequency sum over the nodes that reach it without crossing a
    /// heap-reading node, computed with the bitset kernel and the sum
    /// fused into the visit loop. Equals
    /// `freq_sum(heap_bounded_backward(seed))` on the source graph.
    pub fn heap_bounded_backward_sum(&self, s: &mut TraversalScratch, seed: NodeId) -> u64 {
        self.bounded_sum(s, seed, false)
    }

    /// Heap-relative abstract benefit of `seed` (Definition 6): the
    /// frequency sum over the nodes it reaches without crossing a
    /// heap-writing node. Equals `freq_sum(heap_bounded_forward(seed))`.
    pub fn heap_bounded_forward_sum(&self, s: &mut TraversalScratch, seed: NodeId) -> u64 {
        self.bounded_sum(s, seed, true)
    }

    /// The shared HRAC/HRAB kernel: mark the bounded slice with the
    /// bitset DFS, then sum frequencies in a word-parallel mask sweep
    /// over the touched visited words. Splitting the sum out of the
    /// visit loop keeps the DFS free of a loop-carried add and turns
    /// the sum into dense sequential reads of the `freq` side array,
    /// 64 candidates per word test.
    fn bounded_sum(&self, s: &mut TraversalScratch, seed: NodeId, forward: bool) -> u64 {
        let seed = seed.0;
        // The hop boundary: heap reads bound the backward traversal,
        // heap writes the forward one.
        let boundary = if forward {
            &self.writes_heap
        } else {
            &self.reads_heap
        };
        s.visit(seed);
        s.stack.push(seed);
        while let Some(n) = s.stack.pop() {
            let neighbours = if forward {
                self.succs(n)
            } else {
                self.preds(n)
            };
            for &m in neighbours {
                if word_bit(boundary, m as usize) {
                    continue;
                }
                if s.visit(m) {
                    s.stack.push(m);
                }
            }
        }
        let mut sum = 0u64;
        for &w in &s.touched_words {
            let base = w as usize * 64;
            let mut rest = s.visited.word(w as usize);
            while rest != 0 {
                sum += self.freq[base + rest.trailing_zeros() as usize];
                rest &= rest - 1;
            }
        }
        s.reset();
        sum
    }

    /// One reverse pass from every consumer node, marking for each node
    /// whether its value reaches a predicate or native consumer without
    /// crossing a heap write — bit `n` of the result equals
    /// `heap_bounded_forward(n)` containing a consumer. O(V+E) total,
    /// replacing one forward BFS per queried node.
    ///
    /// The propagation rule mirrors Definition 6 in reverse: a marked
    /// node extends the mark to its predecessors only if it does not
    /// itself write the heap (a path through it would cross that write);
    /// heap-writing nodes can be marked — their *own* hop starts after
    /// the write — but are never traversed through.
    pub fn mark_consumer_reach(&self) -> Bitset {
        let n = self.num_nodes();
        let mut marked = Bitset::from_words(self.consumer.to_vec());
        let mut stack: Vec<u32> = Vec::new();
        // Seed from the precomputed consumer bitset: a word-parallel
        // sweep instead of a kind decode per node.
        marked.for_each_set(|i| stack.push(i as u32));
        while let Some(m) = stack.pop() {
            if word_bit(&self.writes_heap, m as usize) {
                continue;
            }
            for &p in self.preds(m) {
                if marked.insert(p as usize) {
                    stack.push(p);
                }
            }
        }
        debug_assert_eq!(marked.words.len(), n.div_ceil(64));
        marked
    }

    /// Patches this graph in place so it equals the canonical
    /// from-scratch build of the post-delta graph
    /// ([`build_ordered`](CsrGraph::build_ordered) with ascending
    /// adjacency), without re-sorting or re-hashing anything.
    ///
    /// Frequency-only deltas touch exactly the incremented slots —
    /// O(|delta|). Structural deltas splice: surviving nodes keep their
    /// adjacency bytes (remapped through the monotone id shift when
    /// nodes are inserted), only *dirty regions* — nodes that gained an
    /// edge — merge in their additions, and the boundary bitsets are
    /// rebuilt only when ids shift (edge-only deltas leave them
    /// untouched).
    ///
    /// Requires canonical (ascending) adjacency; `new_edges` must be in
    /// the final numbering and free of duplicates against the existing
    /// edge set.
    pub fn apply_delta(&mut self, delta: &CsrDelta) {
        if delta.is_freq_only() {
            let freq = self.freq.to_mut();
            for &(i, d) in &delta.freq_adds {
                freq[i as usize] += d;
            }
            return;
        }
        let n_old = self.num_nodes();
        let n_new = n_old + delta.new_nodes.len();
        debug_assert!(
            delta.new_nodes.windows(2).all(|w| w[0].0 < w[1].0)
                && delta
                    .new_nodes
                    .last()
                    .is_none_or(|l| (l.0 as usize) < n_new),
            "new node ids must be ascending final positions"
        );

        // Final position of every surviving old node, and the inverse:
        // which old node (if any) lands at each final position.
        let mut remap = Vec::with_capacity(n_old);
        let mut old_of = vec![u32::MAX; n_new];
        {
            let mut nn = delta.new_nodes.iter().peekable();
            for fin in 0..n_new as u32 {
                if nn.peek().is_some_and(|&&(id, _, _)| id == fin) {
                    nn.next();
                } else {
                    old_of[fin as usize] = remap.len() as u32;
                    remap.push(fin);
                }
            }
        }
        debug_assert_eq!(remap.len(), n_old);
        let shifted = delta
            .new_nodes
            .first()
            .is_some_and(|f| (f.0 as usize) < n_old);

        // Side arrays: interleave surviving values with insertions, then
        // apply the frequency increments at final ids.
        if !delta.new_nodes.is_empty() {
            let mut kind = Vec::with_capacity(n_new);
            let mut freq = Vec::with_capacity(n_new);
            let mut nn = delta.new_nodes.iter();
            let mut next_new = nn.next();
            for (fin, &old) in old_of.iter().enumerate() {
                if let Some(&(id, k, f)) = next_new {
                    if id as usize == fin {
                        kind.push(k.code());
                        freq.push(f);
                        next_new = nn.next();
                        continue;
                    }
                }
                kind.push(self.kind[old as usize]);
                freq.push(self.freq[old as usize]);
            }
            if shifted {
                // Ids moved: rebuild the boundary bitsets from the new
                // kind array in one O(V) pass.
                let mut reads = Bitset::new(n_new);
                let mut writes = Bitset::new(n_new);
                let mut consumer = Bitset::new(n_new);
                for (i, &code) in kind.iter().enumerate() {
                    let k = NodeKind::from_code(code).expect("kind codes are ours");
                    if k.reads_heap() {
                        reads.insert(i);
                    }
                    if k.writes_heap() {
                        writes.insert(i);
                    }
                    if k.is_consumer() {
                        consumer.insert(i);
                    }
                }
                self.reads_heap = Cow::Owned(reads.words);
                self.writes_heap = Cow::Owned(writes.words);
                self.consumer = Cow::Owned(consumer.words);
            } else {
                // Pure tail append: no id moved, so widen the existing
                // bitsets and set only the inserted nodes' bits.
                let words = n_new.div_ceil(64);
                for bits in [
                    self.reads_heap.to_mut(),
                    self.writes_heap.to_mut(),
                    self.consumer.to_mut(),
                ] {
                    bits.resize(words, 0);
                }
                for &(id, k, _) in &delta.new_nodes {
                    let (w, b) = ((id / 64) as usize, 1u64 << (id % 64));
                    if k.reads_heap() {
                        self.reads_heap.to_mut()[w] |= b;
                    }
                    if k.writes_heap() {
                        self.writes_heap.to_mut()[w] |= b;
                    }
                    if k.is_consumer() {
                        self.consumer.to_mut()[w] |= b;
                    }
                }
            }
            self.kind = Cow::Owned(kind);
            self.freq = Cow::Owned(freq);
        }
        let freq = self.freq.to_mut();
        for &(i, d) in &delta.freq_adds {
            freq[i as usize] += d;
        }

        // Adjacency: one forward pass per direction. Untouched surviving
        // nodes copy their slice (targets remapped through the strictly
        // monotone shift, which preserves ascending order); dirty nodes
        // merge their sorted additions in.
        let mut fwd = delta.new_edges.clone();
        fwd.sort_unstable();
        let mut rev: Vec<(u32, u32)> = delta.new_edges.iter().map(|&(a, b)| (b, a)).collect();
        rev.sort_unstable();
        let splice = |off_old: &[u32], adj_old: &[u32], adds: &[(u32, u32)]| {
            let mut off = Vec::with_capacity(n_new + 1);
            let mut adj = Vec::with_capacity(adj_old.len() + adds.len());
            off.push(0u32);
            let mut a = 0usize;
            for (fin, &old) in old_of.iter().enumerate() {
                let start = a;
                while a < adds.len() && adds[a].0 as usize == fin {
                    a += 1;
                }
                let news = &adds[start..a];
                if old == u32::MAX {
                    adj.extend(news.iter().map(|&(_, t)| t));
                } else {
                    let o = old as usize;
                    let olds = &adj_old[off_old[o] as usize..off_old[o + 1] as usize];
                    if news.is_empty() && !shifted {
                        adj.extend_from_slice(olds);
                    } else {
                        // Sorted two-pointer merge of the remapped old
                        // targets and the new ones.
                        let mut i = 0;
                        let mut j = 0;
                        while i < olds.len() || j < news.len() {
                            let ot = olds.get(i).map(|&t| remap[t as usize]);
                            let nt = news.get(j).map(|&(_, t)| t);
                            match (ot, nt) {
                                (Some(x), Some(y)) if x <= y => {
                                    adj.push(x);
                                    i += 1;
                                }
                                (Some(_), Some(y)) => {
                                    adj.push(y);
                                    j += 1;
                                }
                                (Some(x), None) => {
                                    adj.push(x);
                                    i += 1;
                                }
                                (None, Some(y)) => {
                                    adj.push(y);
                                    j += 1;
                                }
                                (None, None) => unreachable!(),
                            }
                        }
                    }
                }
                off.push(adj.len() as u32);
            }
            (off, adj)
        };
        let (so, sa) = splice(&self.succ_off, &self.succ_adj, &fwd);
        let (po, pa) = splice(&self.pred_off, &self.pred_adj, &rev);
        self.succ_off = Cow::Owned(so);
        self.succ_adj = Cow::Owned(sa);
        self.pred_off = Cow::Owned(po);
        self.pred_adj = Cow::Owned(pa);
    }

    /// Over-approximates the seeds whose bounded slice (HRAC when
    /// `forward` is false, HRAB when true) can differ after the nodes in
    /// `dirty` changed — new nodes, frequency bumps, or endpoints of
    /// added edges. Everything *not* returned provably kept its exact
    /// sum, so cached per-seed results for it stay bit-exact.
    ///
    /// Derivation: node `m ≠ s` contributes to seed `s`'s bounded slice
    /// only if `m` is non-boundary and a path `m → … → s` exists whose
    /// interior is non-boundary (the kernel never traverses *through* a
    /// boundary node, but may *end* on any seed). So the affected seeds
    /// of a dirty `d` are `d` itself plus the closure over non-boundary
    /// nodes downstream of `d` (upstream for HRAB) — one bounded sweep
    /// per refresh, not per seed.
    pub fn affected_seeds(&self, dirty: &Bitset, forward: bool) -> Bitset {
        let n = self.num_nodes();
        let boundary = if forward {
            &self.writes_heap
        } else {
            &self.reads_heap
        };
        let mut affected = Bitset::new(n);
        let mut traversed = Bitset::new(n);
        let mut stack: Vec<u32> = Vec::new();
        dirty.for_each_set(|i| {
            affected.insert(i);
            if !word_bit(boundary, i) && traversed.insert(i) {
                stack.push(i as u32);
            }
        });
        while let Some(m) = stack.pop() {
            let next = if forward {
                self.preds(m)
            } else {
                self.succs(m)
            };
            for &t in next {
                affected.insert(t as usize);
                if !word_bit(boundary, t as usize) && traversed.insert(t as usize) {
                    stack.push(t);
                }
            }
        }
        affected
    }

    /// Full (unbounded) backward reachability from `seeds`, seeds
    /// included — the multi-source query behind the dead-value metrics.
    pub fn reach_backward(&self, seeds: impl IntoIterator<Item = NodeId>) -> Bitset {
        let mut seen = Bitset::new(self.num_nodes());
        let mut stack: Vec<u32> = Vec::new();
        for s in seeds {
            if seen.insert(s.index()) {
                stack.push(s.0);
            }
        }
        while let Some(n) = stack.pop() {
            for &p in self.preds(n) {
                if seen.insert(p as usize) {
                    stack.push(p);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slicer::{
        freq_sum, heap_bounded_backward, heap_bounded_forward, reachable, Direction,
    };
    use lowutil_ir::{InstrId, MethodId};

    fn at(pc: u32) -> InstrId {
        InstrId::new(MethodId(0), pc)
    }

    /// load → plain → store → consumer, with a dead side branch.
    fn sample() -> DepGraph<u32> {
        let mut g: DepGraph<u32> = DepGraph::new();
        let kinds = [
            NodeKind::HeapLoad,
            NodeKind::Plain,
            NodeKind::HeapStore,
            NodeKind::Predicate,
            NodeKind::Plain,
        ];
        let ns: Vec<NodeId> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let n = g.intern(at(i as u32), 0, k);
                g.set_freq(n, i as u64 + 1);
                n
            })
            .collect();
        g.add_edge(ns[0], ns[1]);
        g.add_edge(ns[1], ns[2]);
        g.add_edge(ns[1], ns[3]);
        g.add_edge(ns[2], ns[4]);
        g
    }

    #[test]
    fn bitset_basics() {
        let mut b = Bitset::new(130);
        assert!(b.insert(0));
        assert!(!b.insert(0));
        assert!(b.insert(129));
        assert!(b.contains(129) && !b.contains(64));
        assert_eq!(b.count(), 2);
        b.remove(0);
        assert!(!b.contains(0));
        assert_eq!(b.count(), 1);
    }

    /// The word-sweep iterator visits exactly the set bits, in order,
    /// including bits on word boundaries.
    #[test]
    fn for_each_set_matches_contains() {
        let mut b = Bitset::new(200);
        let set = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &i in &set {
            b.insert(i);
        }
        let mut seen = Vec::new();
        b.for_each_set(|i| seen.push(i));
        assert_eq!(seen, set);
    }

    #[test]
    fn csr_mirrors_adjacency_and_side_arrays() {
        let g = sample();
        let csr = CsrGraph::build(&g);
        assert_eq!(csr.num_nodes(), g.num_nodes());
        assert_eq!(csr.num_edges(), g.num_edges());
        for id in g.node_ids() {
            assert_eq!(csr.freq(id), g.node(id).freq);
            assert_eq!(csr.kind(id), g.node(id).kind);
            let succs: Vec<u32> = g.succs(id).iter().map(|m| m.0).collect();
            assert_eq!(csr.succs(id.0), succs.as_slice());
            let preds: Vec<u32> = g.preds(id).iter().map(|m| m.0).collect();
            assert_eq!(csr.preds(id.0), preds.as_slice());
        }
    }

    #[test]
    fn bounded_sums_match_the_hashset_slicers() {
        let g = sample();
        let csr = CsrGraph::build(&g);
        let mut s = TraversalScratch::for_graph(&csr);
        for id in g.node_ids() {
            assert_eq!(
                csr.heap_bounded_backward_sum(&mut s, id),
                freq_sum(&g, heap_bounded_backward(&g, id)),
                "hrac mismatch at {id}"
            );
            assert_eq!(
                csr.heap_bounded_forward_sum(&mut s, id),
                freq_sum(&g, heap_bounded_forward(&g, id)),
                "hrab mismatch at {id}"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_queries() {
        let g = sample();
        let csr = CsrGraph::build(&g);
        let mut s = TraversalScratch::for_graph(&csr);
        let first: Vec<u64> = g
            .node_ids()
            .map(|id| csr.heap_bounded_backward_sum(&mut s, id))
            .collect();
        let second: Vec<u64> = g
            .node_ids()
            .map(|id| csr.heap_bounded_backward_sum(&mut s, id))
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn consumer_mark_matches_per_node_forward_queries() {
        let g = sample();
        let csr = CsrGraph::build(&g);
        let marked = csr.mark_consumer_reach();
        for id in g.node_ids() {
            let expect = heap_bounded_forward(&g, id)
                .into_iter()
                .any(|n| g.node(n).kind.is_consumer());
            assert_eq!(marked.contains(id.index()), expect, "flag mismatch at {id}");
        }
    }

    #[test]
    fn consumer_mark_stops_at_heap_writes() {
        // plain → store → predicate: the store reaches the consumer, but
        // the plain node's path crosses the store's heap write.
        let mut g: DepGraph<u32> = DepGraph::new();
        let a = g.intern(at(0), 0, NodeKind::Plain);
        let w = g.intern(at(1), 0, NodeKind::HeapStore);
        let c = g.intern(at(2), 0, NodeKind::Predicate);
        g.add_edge(a, w);
        g.add_edge(w, c);
        let marked = CsrGraph::build(&g).mark_consumer_reach();
        assert!(marked.contains(c.index()));
        assert!(
            marked.contains(w.index()),
            "store's own hop starts after it"
        );
        assert!(!marked.contains(a.index()), "path from a crosses the write");
    }

    #[test]
    fn reach_backward_matches_reachable() {
        let g = sample();
        let csr = CsrGraph::build(&g);
        let seeds: Vec<NodeId> = g
            .node_ids()
            .filter(|&n| g.node(n).kind.is_consumer())
            .collect();
        let bits = csr.reach_backward(seeds.iter().copied());
        let set = reachable(&g, seeds, Direction::Backward, |_| true);
        for id in g.node_ids() {
            assert_eq!(bits.contains(id.index()), set.contains(&id));
        }
        assert_eq!(bits.count(), set.len());
    }
}
