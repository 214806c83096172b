//! Shadow memory: the paper's tracking-data machinery, generic over the
//! tracking payload.
//!
//! The paper (§2.3) associates a shadow location with every storage
//! location: shadow locals live on a shadow stack aligned with the call
//! stack, and heap locations are shadowed by a *shadow heap* of the same
//! shape as the Java heap.
//!
//! The shadow stack has the interpreter's frame layout: one contiguous
//! slot array per guest thread, each frame a window `[base, base + n)`
//! of it, and the top frame's base held in a field so a slot read is one
//! index. A push appends a window (`n` may be 0), a pop truncates the
//! array back to the caller's window.
//!
//! These structures are generic over the payload `T` (dependence-graph node
//! references for the cost analyses; origin records for copy profiling) so
//! every client analysis reuses the same machinery.

use lowutil_ir::ObjectId;

/// Shadow locals for one guest thread's call stack: one flat slot array,
/// each frame a window of it, aligned with the VM's frames.
#[derive(Debug, Clone, Default)]
pub struct ShadowStack<T> {
    slots: Vec<T>,
    /// The base of every frame below the top, outermost first.
    bases: Vec<usize>,
    /// The top frame's base (0 while the stack is empty).
    fp: usize,
}

impl<T: Clone + Default> ShadowStack<T> {
    /// Creates an empty shadow stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes a frame with `num_locals` default-initialized shadow slots.
    #[inline]
    pub fn push(&mut self, num_locals: usize) {
        self.bases.push(self.fp);
        self.fp = self.slots.len();
        self.slots.resize(self.fp + num_locals, T::default());
    }

    /// Pops the top frame, dropping its slots.
    ///
    /// # Panics
    /// Panics if the stack is empty.
    #[inline]
    pub fn pop(&mut self) {
        let caller = self.bases.pop().expect("shadow stack underflow");
        self.slots.truncate(self.fp);
        self.fp = caller;
    }

    /// Reads slot `slot` of the top frame.
    ///
    /// # Panics
    /// Panics if the stack is empty or `slot` lies past the top frame's
    /// window (a VM or trace bug, not a program bug).
    #[inline]
    pub fn get(&self, slot: usize) -> &T {
        &self.slots[self.fp + slot]
    }

    /// Writes slot `slot` of the top frame.
    ///
    /// # Panics
    /// Panics if the stack is empty or `slot` lies past the top frame's
    /// window.
    #[inline]
    pub fn set(&mut self, slot: usize, value: T) {
        self.slots[self.fp + slot] = value;
    }

    /// Current stack depth.
    #[inline]
    pub fn depth(&self) -> usize {
        self.bases.len()
    }
}

/// Shadow storage for the heap: one payload per object slot, plus one *tag*
/// per object (the paper stores allocation-site tags in the shadow heap
/// because the J9 object header cannot be modified).
#[derive(Debug, Clone)]
pub struct ShadowHeap<T, Tag> {
    slots: Vec<Vec<T>>,
    tags: Vec<Tag>,
    default_tag: Tag,
}

impl<T: Clone + Default, Tag: Clone> ShadowHeap<T, Tag> {
    /// Creates an empty shadow heap; objects get `default_tag` until
    /// explicitly tagged.
    pub fn new(default_tag: Tag) -> Self {
        ShadowHeap {
            slots: Vec::new(),
            tags: Vec::new(),
            default_tag,
        }
    }

    fn ensure(&mut self, obj: ObjectId, min_slots: usize) {
        while self.slots.len() <= obj.index() {
            self.slots.push(Vec::new());
            self.tags.push(self.default_tag.clone());
        }
        let v = &mut self.slots[obj.index()];
        if v.len() < min_slots {
            v.resize(min_slots, T::default());
        }
    }

    /// Registers a fresh object with `num_slots` shadow slots and a tag.
    pub fn on_alloc(&mut self, obj: ObjectId, num_slots: usize, tag: Tag) {
        self.ensure(obj, num_slots);
        self.tags[obj.index()] = tag;
    }

    /// Reads the shadow of `(obj, slot)`; default if never written.
    pub fn get(&self, obj: ObjectId, slot: usize) -> T {
        self.slots
            .get(obj.index())
            .and_then(|v| v.get(slot))
            .cloned()
            .unwrap_or_default()
    }

    /// Writes the shadow of `(obj, slot)`, growing storage on demand.
    pub fn set(&mut self, obj: ObjectId, slot: usize, value: T) {
        self.ensure(obj, slot + 1);
        self.slots[obj.index()][slot] = value;
    }

    /// Reads an object's tag (allocation-site tag in the cost analyses).
    pub fn tag(&self, obj: ObjectId) -> Tag {
        self.tags
            .get(obj.index())
            .cloned()
            .unwrap_or_else(|| self.default_tag.clone())
    }

    /// Approximate memory footprint in bytes (for the paper's `M` column).
    pub fn approx_bytes(&self) -> usize {
        let slot = std::mem::size_of::<T>();
        let tag = std::mem::size_of::<Tag>();
        self.slots.iter().map(|v| v.len() * slot).sum::<usize>() + self.tags.len() * tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether reading `slot` of `s`'s top frame panics.
    fn read_panics(s: &ShadowStack<u32>, slot: usize) -> bool {
        std::panic::catch_unwind(|| *s.get(slot)).is_err()
    }

    #[test]
    fn shadow_stack_aligns_with_frames() {
        let mut s: ShadowStack<u32> = ShadowStack::new();
        assert!(read_panics(&s, 0), "no frame, no slots");
        s.push(3);
        for slot in 0..3 {
            s.set(slot, 10 + slot as u32);
        }
        assert!(read_panics(&s, 3), "a read past the top window panics");
        // A zero-slot frame counts as a frame and exposes no slot, even
        // with its caller's slots below it.
        s.push(0);
        assert_eq!(s.depth(), 2);
        assert!(read_panics(&s, 0));
        s.push(2);
        assert_eq!(
            (*s.get(0), *s.get(1)),
            (0, 0),
            "a new window starts at default"
        );
        assert!(read_panics(&s, 2));
        s.set(1, 99);
        s.pop();
        s.pop();
        assert_eq!(s.depth(), 1);
        let caller: Vec<u32> = (0..3).map(|slot| *s.get(slot)).collect();
        assert_eq!(caller, [10, 11, 12], "a pop restores the caller's slots");
        // A re-pushed window does not see the popped frame's writes.
        s.push(2);
        assert_eq!(*s.get(1), 0);
        s.pop();
        s.pop();
        assert_eq!(s.depth(), 0);
        assert!(read_panics(&s, 0));
    }

    #[test]
    #[should_panic(expected = "shadow stack underflow")]
    fn shadow_stack_pop_of_an_empty_stack_panics() {
        let mut s: ShadowStack<u32> = ShadowStack::new();
        s.pop();
    }

    #[test]
    fn shadow_heap_defaults_and_grows() {
        let mut h: ShadowHeap<u64, &'static str> = ShadowHeap::new("untagged");
        let o = ObjectId(5);
        assert_eq!(h.get(o, 3), 0);
        assert_eq!(h.tag(o), "untagged");
        h.on_alloc(o, 2, "site0");
        h.set(o, 3, 42); // grows past declared slots (array-style)
        assert_eq!(h.get(o, 3), 42);
        assert_eq!(h.tag(o), "site0");
        assert!(h.approx_bytes() > 0);
    }
}
