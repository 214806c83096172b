//! Object-sensitive calling-context encoding.
//!
//! The cost-benefit analysis annotates every node with the chain of
//! receiver-object allocation sites on the call stack (object sensitivity
//! in the sense of Milanova–Rountev–Ryder). The chain is folded into a
//! probabilistically unique `u64` with the Bond–McKinley recurrence
//! `g_i = 3·g_{i-1} + o_i`, and then reduced into one of `s` user-chosen
//! *slots* — the paper's bounded domain `D_cost = [0, s)`.
//!
//! [`ConflictStats`] measures the paper's CR column: for each instruction,
//! the degree to which distinct exact chains collide in the same slot.

use crate::fx::{FxHashMap, FxHashSet};
use lowutil_ir::{AllocSiteId, InstrId, ThreadId};

/// The encoded probabilistic context value for the empty chain.
pub const EMPTY_CONTEXT: u64 = 0;

/// The context-chain base of a guest thread: [`EMPTY_CONTEXT`] for the
/// main thread, a nonzero splitmix64-style mix of the thread id
/// otherwise.
///
/// A spawned thread's entry frame has no receiver chain of its own, so
/// without salting, instruction instances from different threads at the
/// same call depth would encode identical `g` values and falsely merge
/// into one abstract node. Seeding each thread's chain with a
/// high-entropy base keeps cross-thread contexts probabilistically
/// distinct while leaving main-thread encodings — and therefore every
/// single-threaded profile — bit-for-bit unchanged.
pub fn thread_base(tid: ThreadId) -> u64 {
    if tid.is_main() {
        return EMPTY_CONTEXT;
    }
    let mut z = u64::from(tid.0).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// Extends an encoded chain with one receiver allocation site:
/// `g' = 3·g + o` (wrapping).
pub fn extend_context(g: u64, site: AllocSiteId) -> u64 {
    g.wrapping_mul(3)
        .wrapping_add(u64::from(site.0).wrapping_add(1))
}

/// Reduces an encoded chain into one of `slots` context slots (the paper's
/// encoding function `h`).
pub fn slot_of(g: u64, slots: u32) -> u32 {
    debug_assert!(slots > 0, "slot count must be positive");
    (g % u64::from(slots)) as u32
}

/// Tracks the current context chain along the call stack.
///
/// Instance-method frames extend the caller's chain with the receiver's
/// allocation site; static-method frames inherit the caller's chain
/// unchanged (the paper concatenates the empty string). The stack
/// bottoms out at a `base` chain — [`EMPTY_CONTEXT`] for the main
/// thread, [`thread_base`] for spawned threads — so every frame of a
/// spawned thread carries its thread's salt.
#[derive(Debug, Clone, Default)]
pub struct ContextStack {
    frames: Vec<u64>,
    base: u64,
}

impl ContextStack {
    /// Creates an empty context stack based at [`EMPTY_CONTEXT`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty context stack bottoming out at `base` (see
    /// [`thread_base`]).
    pub fn with_base(base: u64) -> Self {
        ContextStack {
            frames: Vec::new(),
            base,
        }
    }

    /// The chain the stack bottoms out at.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Pushes a frame. `receiver_site` is the allocation site of the
    /// receiver object for instance methods, `None` for static methods and
    /// the entry frame.
    pub fn push(&mut self, receiver_site: Option<AllocSiteId>) {
        let parent = self.current();
        let g = match receiver_site {
            Some(site) => extend_context(parent, site),
            None => parent,
        };
        self.frames.push(g);
    }

    /// Pops a frame.
    ///
    /// # Panics
    /// Panics on underflow (a VM/tracer misalignment bug).
    pub fn pop(&mut self) {
        self.frames.pop().expect("context stack underflow");
    }

    /// The encoded chain of the current frame (the base chain if no
    /// frame is active).
    pub fn current(&self) -> u64 {
        self.frames.last().copied().unwrap_or(self.base)
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

/// Context-conflict bookkeeping for the paper's CR metric.
///
/// `CR-s(i)` for an instruction `i` is 0 when every slot holds at most one
/// distinct chain, and `max_j dc[j] / Σ_j dc[j]` otherwise, where `dc[j]`
/// counts the distinct chains mapped to slot `j`. The reported figure is
/// the average over all instructions that executed with at least one
/// context.
#[derive(Debug, Clone, Default)]
pub struct ConflictStats {
    /// instruction → slot → set of distinct encoded chains.
    seen: FxHashMap<InstrId, FxHashMap<u32, FxHashSet<u64>>>,
    /// The most recent `(instr, slot, g)` record: straight-line code and
    /// loop bodies re-record the same triple on every iteration, so one
    /// cached entry removes the double map probe from the common case.
    last: Option<(InstrId, u32, u64)>,
}

impl ConflictStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `instr` executed under chain `g` mapped to `slot`.
    #[inline]
    pub fn record(&mut self, instr: InstrId, slot: u32, g: u64) {
        if self.last == Some((instr, slot, g)) {
            return;
        }
        self.last = Some((instr, slot, g));
        self.seen
            .entry(instr)
            .or_default()
            .entry(slot)
            .or_default()
            .insert(g);
    }

    /// Unions another statistics table into this one (used when an
    /// aggregate absorbs a session). The distinct-chain sets per
    /// `(instr, slot)` union, so the result is identical to having
    /// recorded both streams into one table, in any order. Borrows the
    /// source: the per-absorb path unions hundreds of chain sets, and
    /// cloning them first costs more than the union itself.
    pub fn merge_from(&mut self, other: &ConflictStats) {
        for (instr, slots) in &other.seen {
            let entry = self.seen.entry(*instr).or_default();
            for (slot, gs) in slots {
                entry.entry(*slot).or_default().extend(gs.iter().copied());
            }
        }
        self.last = None;
    }

    /// CR for one instruction, if it was ever recorded.
    pub fn cr_of(&self, instr: InstrId) -> Option<f64> {
        let slots = self.seen.get(&instr)?;
        let max = slots.values().map(|s| s.len()).max().unwrap_or(0);
        if max <= 1 {
            return Some(0.0);
        }
        let total: usize = slots.values().map(|s| s.len()).sum();
        Some(max as f64 / total as f64)
    }

    /// Average CR over all recorded instructions (the Table 1 CR column).
    pub fn average_cr(&self) -> f64 {
        if self.seen.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.seen.keys().filter_map(|&i| self.cr_of(i)).sum();
        sum / self.seen.len() as f64
    }

    /// Number of instructions with recorded contexts.
    pub fn num_instructions(&self) -> usize {
        self.seen.len()
    }

    /// Total number of distinct (instruction, chain) pairs observed — the
    /// size the exact context domain would have needed.
    pub fn distinct_contexts(&self) -> usize {
        self.seen
            .values()
            .map(|slots| slots.values().map(|s| s.len()).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_ir::MethodId;

    fn at(pc: u32) -> InstrId {
        InstrId::new(MethodId(0), pc)
    }

    #[test]
    fn encoding_follows_bond_mckinley_recurrence() {
        let g0 = EMPTY_CONTEXT;
        let g1 = extend_context(g0, AllocSiteId(4));
        let g2 = extend_context(g1, AllocSiteId(7));
        assert_eq!(g1, 5); // 3·0 + (4+1)
        assert_eq!(g2, 3 * 5 + 8);
    }

    #[test]
    fn encoding_is_order_sensitive() {
        // The recurrence distinguishes [a, b] from [b, a] for a ≠ b:
        // 3(a+1)+(b+1) = 3(b+1)+(a+1) only when a = b.
        for a in 0..10u32 {
            for b in 0..10u32 {
                if a == b {
                    continue;
                }
                let ab = extend_context(
                    extend_context(EMPTY_CONTEXT, AllocSiteId(a)),
                    AllocSiteId(b),
                );
                let ba = extend_context(
                    extend_context(EMPTY_CONTEXT, AllocSiteId(b)),
                    AllocSiteId(a),
                );
                assert_ne!(ab, ba, "[{a},{b}] vs [{b},{a}]");
            }
        }
    }

    #[test]
    fn extension_never_fixes_the_chain_value() {
        // Extending a chain always changes its encoding (no site encodes
        // as the identity), so parent and child contexts stay distinct.
        for g in [EMPTY_CONTEXT, 1, 17, 12345] {
            for o in 0..20u32 {
                assert_ne!(extend_context(g, AllocSiteId(o)), g);
            }
        }
    }

    #[test]
    fn thread_bases_salt_chains_without_touching_the_main_thread() {
        assert_eq!(thread_base(ThreadId::MAIN), EMPTY_CONTEXT);
        let mut seen = FxHashSet::default();
        for t in 1..200u32 {
            let b = thread_base(ThreadId(t));
            assert_ne!(b, EMPTY_CONTEXT, "T{t} base must be nonzero");
            assert!(seen.insert(b), "T{t} base collides");
        }
        // Identical call chains on different threads encode differently.
        let mut main = ContextStack::new();
        let mut worker = ContextStack::with_base(thread_base(ThreadId(1)));
        assert_eq!(worker.current(), worker.base());
        for cs in [&mut main, &mut worker] {
            cs.push(None);
            cs.push(Some(AllocSiteId(2)));
        }
        assert_ne!(main.current(), worker.current());
    }

    #[test]
    fn static_frames_inherit_context() {
        let mut cs = ContextStack::new();
        cs.push(None); // entry
        cs.push(Some(AllocSiteId(2)));
        let inst = cs.current();
        cs.push(None); // static call
        assert_eq!(cs.current(), inst);
        cs.pop();
        cs.pop();
        cs.pop();
        assert_eq!(cs.current(), EMPTY_CONTEXT);
    }

    #[test]
    fn slot_reduction_is_mod() {
        assert_eq!(slot_of(17, 8), 1);
        assert_eq!(slot_of(16, 8), 0);
        assert_eq!(slot_of(7, 16), 7);
    }

    #[test]
    fn cr_zero_when_slots_hold_single_chains() {
        let mut cs = ConflictStats::new();
        cs.record(at(0), 0, 100);
        cs.record(at(0), 1, 200);
        cs.record(at(0), 0, 100); // same chain again
        assert_eq!(cs.cr_of(at(0)), Some(0.0));
        assert_eq!(cs.average_cr(), 0.0);
    }

    #[test]
    fn cr_reflects_collisions() {
        let mut cs = ConflictStats::new();
        // Three distinct chains, two in slot 0 → max=2, total=3.
        cs.record(at(0), 0, 100);
        cs.record(at(0), 0, 101);
        cs.record(at(0), 1, 200);
        assert!((cs.cr_of(at(0)).unwrap() - 2.0 / 3.0).abs() < 1e-9);
        // All chains in one slot → CR = 1.
        cs.record(at(1), 3, 1);
        cs.record(at(1), 3, 2);
        assert_eq!(cs.cr_of(at(1)), Some(1.0));
        assert_eq!(cs.num_instructions(), 2);
        assert_eq!(cs.distinct_contexts(), 5);
    }
}
