//! The concrete (non-abstract) dynamic dependence graph — the baseline the
//! paper improves on.
//!
//! Every instruction *instance* becomes its own node (Definition 1), so the
//! graph grows with trace length instead of being bounded by `|I| × |D|`.
//! Both the thin variant (base pointers not used) and the traditional
//! variant (base pointers used) are provided; the absolute cost of a value
//! (Definition 3) is the size of the backward slice from the instance that
//! produced it. Figure 1's double-counting discussion and the paper's
//! abstract-vs-concrete memory comparison (§4.1, N vs I) are reproduced on
//! top of this module.

use lowutil_ir::{InstrId, Local};
use lowutil_vm::{Event, FrameInfo, ShadowHeap, ShadowStack, Tracer};
use std::collections::HashSet;

/// Dense index of an instruction instance in a [`ConcreteGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u32);

impl InstanceId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Which slicing discipline the concrete profiler applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlicingMode {
    /// Thin slicing: base pointers of heap accesses are not uses.
    Thin,
    /// Traditional dynamic slicing: base pointers are uses.
    Traditional,
}

/// One node of the concrete graph: the `j`-th occurrence of a static
/// instruction.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// The static instruction.
    pub instr: InstrId,
    /// Its occurrence index (1-based, per instruction).
    pub occurrence: u32,
}

/// The unbounded dynamic data dependence graph.
#[derive(Debug, Default)]
pub struct ConcreteGraph {
    instances: Vec<Instance>,
    preds: Vec<Vec<InstanceId>>,
}

impl ConcreteGraph {
    /// Number of instance nodes (grows with the trace).
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.preds.iter().map(Vec::len).sum()
    }

    /// The instance payload.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn instance(&self, id: InstanceId) -> Instance {
        self.instances[id.index()]
    }

    /// The most recent instance of a static instruction, if it executed.
    pub fn last_instance_of(&self, instr: InstrId) -> Option<InstanceId> {
        self.instances
            .iter()
            .rposition(|i| i.instr == instr)
            .map(|i| InstanceId(i as u32))
    }

    /// Direct dependencies (definitions used) of an instance.
    pub fn preds(&self, id: InstanceId) -> &[InstanceId] {
        &self.preds[id.index()]
    }

    /// The backward dynamic slice from `seed`, including it.
    pub fn backward_slice(&self, seed: InstanceId) -> HashSet<InstanceId> {
        let mut seen = HashSet::new();
        let mut stack = vec![seed];
        seen.insert(seed);
        while let Some(n) = stack.pop() {
            for &m in self.preds(n) {
                if seen.insert(m) {
                    stack.push(m);
                }
            }
        }
        seen
    }

    /// Absolute cost of the value produced by `seed` (Definition 3): the
    /// number of instances in its backward slice.
    pub fn absolute_cost(&self, seed: InstanceId) -> u64 {
        self.backward_slice(seed).len() as u64
    }

    /// Approximate memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.instances.capacity() * size_of::<Instance>()
            + self
                .preds
                .iter()
                .map(|v| v.capacity() * size_of::<InstanceId>())
                .sum::<usize>()
    }

    fn add_instance(&mut self, instr: InstrId, occurrence: u32) -> InstanceId {
        let id = InstanceId(self.instances.len() as u32);
        self.instances.push(Instance { instr, occurrence });
        self.preds.push(Vec::new());
        id
    }
}

/// Per-guest-thread tracking state: the shadow stack aligned with that
/// thread's call stack, plus its in-flight call arguments and return
/// value. The shadow heap and statics stay shared, mirroring the VM's
/// shared heap.
#[derive(Debug, Default)]
struct ThreadLane {
    shadow_stack: ShadowStack<Option<InstanceId>>,
    pending_args: Vec<Option<InstanceId>>,
    ret_stash: Option<InstanceId>,
}

/// Builds a [`ConcreteGraph`] from VM events.
#[derive(Debug)]
pub struct ConcreteProfiler {
    mode: SlicingMode,
    graph: ConcreteGraph,
    occurrences: std::collections::HashMap<InstrId, u32>,
    /// One lane per guest thread; `cur` tracks the scheduler's switches.
    lanes: Vec<ThreadLane>,
    cur: usize,
    shadow_heap: ShadowHeap<Option<InstanceId>, ()>,
    shadow_statics: Vec<Option<InstanceId>>,
}

impl ConcreteProfiler {
    /// Creates a concrete profiler in the given slicing mode.
    pub fn new(mode: SlicingMode) -> Self {
        ConcreteProfiler {
            mode,
            graph: ConcreteGraph::default(),
            occurrences: std::collections::HashMap::new(),
            lanes: vec![ThreadLane::default()],
            cur: 0,
            shadow_heap: ShadowHeap::new(()),
            shadow_statics: Vec::new(),
        }
    }

    /// Consumes the profiler, returning the graph.
    pub fn finish(self) -> ConcreteGraph {
        self.graph
    }

    fn lane(&self) -> &ThreadLane {
        &self.lanes[self.cur]
    }

    fn lane_mut(&mut self) -> &mut ThreadLane {
        &mut self.lanes[self.cur]
    }

    fn shadow(&self, l: Local) -> Option<InstanceId> {
        *self.lane().shadow_stack.get(l.index())
    }

    fn set_shadow(&mut self, l: Local, n: Option<InstanceId>) {
        self.lane_mut().shadow_stack.set(l.index(), n);
    }

    fn new_instance(&mut self, at: InstrId) -> InstanceId {
        let occ = self.occurrences.entry(at).or_insert(0);
        *occ += 1;
        self.graph.add_instance(at, *occ)
    }

    fn dep(&mut self, node: InstanceId, src: Option<InstanceId>) {
        if let Some(s) = src {
            self.graph.preds[node.index()].push(s);
        }
    }

    fn base_dep(&mut self, node: InstanceId, base: Local) {
        if self.mode == SlicingMode::Traditional {
            let s = self.shadow(base);
            self.dep(node, s);
        }
    }
}

impl Tracer for ConcreteProfiler {
    fn instr(&mut self, event: &Event) {
        match event {
            Event::Compute { at, dst, uses, .. } => {
                let n = self.new_instance(*at);
                for u in uses.iter().flatten() {
                    let s = self.shadow(*u);
                    self.dep(n, s);
                }
                self.set_shadow(*dst, Some(n));
            }
            Event::Predicate { at, uses, .. } => {
                let n = self.new_instance(*at);
                for u in uses {
                    let s = self.shadow(*u);
                    self.dep(n, s);
                }
            }
            Event::Alloc {
                at,
                dst,
                object,
                len_use,
                ..
            } => {
                let n = self.new_instance(*at);
                if let Some(l) = len_use {
                    let s = self.shadow(*l);
                    self.dep(n, s);
                }
                self.set_shadow(*dst, Some(n));
                self.shadow_heap.on_alloc(*object, 0, ());
            }
            Event::LoadField {
                at,
                dst,
                base,
                object,
                offset,
                ..
            } => {
                let n = self.new_instance(*at);
                let s = self.shadow_heap.get(*object, *offset as usize);
                self.dep(n, s);
                self.base_dep(n, *base);
                self.set_shadow(*dst, Some(n));
            }
            Event::StoreField {
                at,
                base,
                object,
                offset,
                src,
                ..
            } => {
                let n = self.new_instance(*at);
                let s = self.shadow(*src);
                self.dep(n, s);
                self.base_dep(n, *base);
                self.shadow_heap.set(*object, *offset as usize, Some(n));
            }
            Event::LoadStatic { at, dst, field, .. } => {
                let n = self.new_instance(*at);
                let s = self.shadow_statics.get(field.index()).copied().flatten();
                self.dep(n, s);
                self.set_shadow(*dst, Some(n));
            }
            Event::StoreStatic { at, field, src, .. } => {
                let n = self.new_instance(*at);
                let s = self.shadow(*src);
                self.dep(n, s);
                if self.shadow_statics.len() <= field.index() {
                    self.shadow_statics.resize(field.index() + 1, None);
                }
                self.shadow_statics[field.index()] = Some(n);
            }
            Event::ArrayLoad {
                at,
                dst,
                base,
                object,
                idx,
                index,
                ..
            } => {
                let n = self.new_instance(*at);
                let si = self.shadow(*idx);
                self.dep(n, si);
                let s = self.shadow_heap.get(*object, *index as usize);
                self.dep(n, s);
                self.base_dep(n, *base);
                self.set_shadow(*dst, Some(n));
            }
            Event::ArrayStore {
                at,
                base,
                object,
                idx,
                index,
                src,
                ..
            } => {
                let n = self.new_instance(*at);
                let si = self.shadow(*idx);
                self.dep(n, si);
                let s = self.shadow(*src);
                self.dep(n, s);
                self.base_dep(n, *base);
                self.shadow_heap.set(*object, *index as usize, Some(n));
            }
            Event::ArrayLen { at, dst, base, .. } => {
                let n = self.new_instance(*at);
                self.base_dep(n, *base);
                self.set_shadow(*dst, Some(n));
            }
            Event::Call { args, .. } => {
                let shadows: Vec<_> = args.iter().map(|a| self.shadow(*a)).collect();
                let lane = self.lane_mut();
                lane.pending_args.clear();
                lane.pending_args.extend(shadows);
            }
            Event::Return { src, .. } => {
                self.lane_mut().ret_stash = src.and_then(|s| self.shadow(s));
            }
            Event::CallComplete { dst, .. } => {
                let stash = self.lane_mut().ret_stash.take();
                if let Some(d) = dst {
                    self.set_shadow(*d, stash);
                }
            }
            Event::Native { at, args, dst, .. } => {
                let n = self.new_instance(*at);
                for a in args {
                    let s = self.shadow(*a);
                    self.dep(n, s);
                }
                if let Some(d) = dst {
                    self.set_shadow(*d, Some(n));
                }
            }
            // The concrete baseline is a single-thread reference graph
            // (the paper's Definition 1 comparison); thread events are
            // opaque producers here — the thread-aware construction
            // lives in `G_cost`.
            Event::Spawn { at, dst, .. } => {
                let n = self.new_instance(*at);
                self.set_shadow(*dst, Some(n));
            }
            Event::Join { at, dst, .. } => {
                let n = self.new_instance(*at);
                if let Some(d) = dst {
                    self.set_shadow(*d, Some(n));
                }
            }
            Event::Jump { .. } | Event::Phase { .. } => {}
        }
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        let lane = self.lane_mut();
        lane.shadow_stack.push(info.num_locals as usize);
        for i in 0..info.num_args as usize {
            let data = lane.pending_args.get(i).copied().flatten();
            lane.shadow_stack.set(i, data);
        }
        lane.pending_args.clear();
    }

    fn frame_pop(&mut self) {
        self.lane_mut().shadow_stack.pop();
    }

    fn thread(&mut self, tid: lowutil_ir::ThreadId) {
        self.cur = tid.index();
        if self.lanes.len() <= self.cur {
            self.lanes.resize_with(self.cur + 1, ThreadLane::default);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    fn run(src: &str, mode: SlicingMode) -> ConcreteGraph {
        let p = parse_program(src).expect("parse");
        let mut prof = ConcreteProfiler::new(mode);
        Vm::new(&p).run(&mut prof).expect("run");
        prof.finish()
    }

    /// Figure 1: a=0; c=f(a); d=c*3; b=c+d; f(e)=e>>2.
    /// The backward slice from `b = c + d` contains every instance exactly
    /// once — cost 7 here (5 value-producing statements + 2 consts for the
    /// literals 3 and 2 made explicit by three-address form) — *not* the
    /// double-counted 8-style figure a taint-sum would produce.
    const FIGURE1: &str = r#"
method main/0 {
  a = 0
  c = call f(a)
  three = 3
  d = c * three
  b = c + d
  return
}
method f/1 {
  two = 2
  r = p0 >> two
  return r
}
"#;

    #[test]
    fn figure1_no_double_counting() {
        let g = run(FIGURE1, SlicingMode::Thin);
        // b = c + d is pc 4 of main (method 0).
        let seed = g
            .last_instance_of(InstrId::new(lowutil_ir::MethodId(0), 4))
            .expect("b executed");
        let slice = g.backward_slice(seed);
        // Instances: a=0, two=2, r=p0>>two, c (via return: no instance —
        // call/return are transparent), three=3, d, b. That is 6 nodes:
        // {a, two, r, three, d, b}.
        assert_eq!(slice.len(), 6);
        // In particular c's producer `r` appears ONCE even though c feeds
        // both d and b (the Figure 1 double-counting problem).
        assert_eq!(g.absolute_cost(seed), 6);
    }

    #[test]
    fn thin_slices_are_subsets_of_traditional() {
        let src = r#"
native print/1
class Box { v }
method main/0 {
  b = new Box
  x = 3
  b.v = x
  y = b.v
  native print(y)
  return
}
"#;
        let thin = run(src, SlicingMode::Thin);
        let trad = run(src, SlicingMode::Traditional);
        let seed_instr = InstrId::new(lowutil_ir::MethodId(0), 3); // y = b.v
        let ts = thin.backward_slice(thin.last_instance_of(seed_instr).unwrap());
        let rs = trad.backward_slice(trad.last_instance_of(seed_instr).unwrap());
        // Thin: {y, b.v=x, x} — the `new Box` pointer is not included.
        assert_eq!(ts.len(), 3);
        // Traditional adds the allocation producing the base pointer.
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn instances_grow_with_trace_unlike_abstract_nodes() {
        let src = r#"
method main/0 {
  i = 0
  one = 1
  lim = 200
loop:
  if i >= lim goto done
  i = i + one
  goto loop
done:
  return
}
"#;
        let g = run(src, SlicingMode::Thin);
        // ~3 instances per iteration (branch + add); far more than the ~6
        // static instructions.
        assert!(g.num_instances() > 400);
    }

    #[test]
    fn occurrence_indices_are_per_instruction() {
        let src = r#"
method main/0 {
  i = 0
  one = 1
  two = 2
loop:
  if i >= two goto done
  i = i + one
  goto loop
done:
  return
}
"#;
        let g = run(src, SlicingMode::Thin);
        let add = InstrId::new(lowutil_ir::MethodId(0), 4);
        let last = g.last_instance_of(add).unwrap();
        assert_eq!(g.instance(last).occurrence, 2);
    }
}
