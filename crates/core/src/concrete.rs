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
use lowutil_vm::{Event, EventSink, FrameInfo, ShadowHeap, ShadowLanes};
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

/// Builds a [`ConcreteGraph`] from VM events.
#[derive(Debug)]
pub struct ConcreteProfiler {
    mode: SlicingMode,
    graph: ConcreteGraph,
    occurrences: std::collections::HashMap<InstrId, u32>,
    /// Shadow locals and call plumbing per guest thread; the shadow heap
    /// and statics stay shared, mirroring the VM's shared heap.
    lanes: ShadowLanes<Option<InstanceId>>,
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
            lanes: ShadowLanes::new(),
            shadow_heap: ShadowHeap::new(()),
            shadow_statics: Vec::new(),
        }
    }

    /// Consumes the profiler, returning the graph.
    pub fn finish(self) -> ConcreteGraph {
        self.graph
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
            let s = self.lanes.get(base);
            self.dep(node, s);
        }
    }
}

impl EventSink for ConcreteProfiler {
    fn event(&mut self, event: &Event) {
        match event {
            Event::Compute { at, dst, uses, .. } => {
                let n = self.new_instance(*at);
                for u in uses.iter().flatten() {
                    let s = self.lanes.get(*u);
                    self.dep(n, s);
                }
                self.lanes.set(*dst, Some(n));
            }
            Event::Predicate { at, uses, .. } => {
                let n = self.new_instance(*at);
                for u in uses {
                    let s = self.lanes.get(*u);
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
                    let s = self.lanes.get(*l);
                    self.dep(n, s);
                }
                self.lanes.set(*dst, Some(n));
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
                self.lanes.set(*dst, Some(n));
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
                let s = self.lanes.get(*src);
                self.dep(n, s);
                self.base_dep(n, *base);
                self.shadow_heap.set(*object, *offset as usize, Some(n));
            }
            Event::LoadStatic { at, dst, field, .. } => {
                let n = self.new_instance(*at);
                let s = self.shadow_statics.get(field.index()).copied().flatten();
                self.dep(n, s);
                self.lanes.set(*dst, Some(n));
            }
            Event::StoreStatic { at, field, src, .. } => {
                let n = self.new_instance(*at);
                let s = self.lanes.get(*src);
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
                let si = self.lanes.get(*idx);
                self.dep(n, si);
                let s = self.shadow_heap.get(*object, *index as usize);
                self.dep(n, s);
                self.base_dep(n, *base);
                self.lanes.set(*dst, Some(n));
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
                let si = self.lanes.get(*idx);
                self.dep(n, si);
                let s = self.lanes.get(*src);
                self.dep(n, s);
                self.base_dep(n, *base);
                self.shadow_heap.set(*object, *index as usize, Some(n));
            }
            Event::ArrayLen { at, dst, base, .. } => {
                let n = self.new_instance(*at);
                self.base_dep(n, *base);
                self.lanes.set(*dst, Some(n));
            }
            Event::Call { args, .. } => self.lanes.call(args),
            Event::Return { src, .. } => self.lanes.ret(*src),
            Event::CallComplete { dst, .. } => {
                let stash = self.lanes.call_complete();
                if let Some(d) = dst {
                    self.lanes.set(*d, stash);
                }
            }
            Event::Native { at, args, dst, .. } => {
                let n = self.new_instance(*at);
                for a in args {
                    let s = self.lanes.get(*a);
                    self.dep(n, s);
                }
                if let Some(d) = dst {
                    self.lanes.set(*d, Some(n));
                }
            }
            // The handle is a fresh value; the actuals flow to the child
            // thread's formals, and its return value into the join.
            Event::Spawn {
                at,
                dst,
                thread,
                args,
                ..
            } => {
                let n = self.new_instance(*at);
                self.lanes.spawn(*thread, args);
                self.lanes.set(*dst, Some(n));
            }
            Event::Join {
                at, dst, thread, ..
            } => {
                let n = self.new_instance(*at);
                self.dep(n, self.lanes.joined(*thread));
                if let Some(d) = dst {
                    self.lanes.set(*d, Some(n));
                }
            }
            Event::Jump { .. } | Event::Phase { .. } => {}
        }
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        self.lanes.push_frame(info);
    }

    fn frame_pop(&mut self) {
        self.lanes.pop_frame();
    }

    fn thread(&mut self, tid: lowutil_ir::ThreadId) {
        self.lanes.switch(tid);
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
