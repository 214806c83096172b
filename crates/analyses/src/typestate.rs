//! Typestate-history recording (the paper's second example client,
//! Figure 2(b), after QVM).
//!
//! The bounded domain is `O × S`: tracked allocation sites crossed with a
//! finite set of protocol states. Each method invocation on a tracked
//! object becomes a node annotated with the object's state *before* the
//! call; consecutive events on the same object are linked by next-event
//! edges (conceptually def-use edges on the object's state tag). When an
//! invocation has no legal transition, the analysis reports the violation
//! together with the object's summarized history — the DFA a programmer
//! inspects to see, e.g., that a file was read after being closed.

use lowutil_core::{DepGraph, NodeId, NodeKind};
use lowutil_ir::{AllocKind, AllocSiteId, ClassId, InstrId, ObjectId, Program};
use lowutil_vm::{Event, EventSink, FrameInfo};
use std::collections::HashMap;

/// A state index within a [`Protocol`].
pub type StateId = usize;

/// A finite-state protocol over the methods of one class.
#[derive(Debug, Clone)]
pub struct Protocol {
    class_name: String,
    states: Vec<String>,
    initial: StateId,
    transitions: HashMap<(StateId, String), StateId>,
}

impl Protocol {
    /// Creates a protocol for objects of `class_name`, with the given
    /// state names; objects start in `initial`.
    ///
    /// # Panics
    /// Panics if `initial` is out of range or `states` is empty.
    pub fn new(
        class_name: impl Into<String>,
        states: impl IntoIterator<Item = impl Into<String>>,
        initial: StateId,
    ) -> Self {
        let states: Vec<String> = states.into_iter().map(Into::into).collect();
        assert!(!states.is_empty(), "a protocol needs at least one state");
        assert!(initial < states.len(), "initial state out of range");
        Protocol {
            class_name: class_name.into(),
            states,
            initial,
            transitions: HashMap::new(),
        }
    }

    /// Declares that calling `method` in state `from` moves to `to`.
    ///
    /// # Panics
    /// Panics if a state index is out of range.
    pub fn transition(mut self, from: StateId, method: impl Into<String>, to: StateId) -> Self {
        assert!(from < self.states.len() && to < self.states.len());
        self.transitions.insert((from, method.into()), to);
        self
    }

    /// The protocol's state names.
    pub fn states(&self) -> &[String] {
        &self.states
    }

    /// The tracked class name.
    pub fn class_name(&self) -> &str {
        &self.class_name
    }
}

/// One recorded event on a tracked object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypestateEvent {
    /// The call site (or the allocation for the initial event).
    pub at: InstrId,
    /// The method invoked.
    pub method: String,
    /// State before the call.
    pub from: StateId,
    /// State after the call; `None` for a violation.
    pub to: Option<StateId>,
}

/// A protocol violation with the object's full history.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The object's allocation site.
    pub site: AllocSiteId,
    /// The faulting call site.
    pub at: InstrId,
    /// State the object was in.
    pub state: StateId,
    /// The method that had no legal transition.
    pub method: String,
    /// Everything that happened to the object before the violation.
    pub history: Vec<TypestateEvent>,
}

/// The typestate-history tracer. Pass it to a VM run or a trace replay;
/// query violations and per-site DFAs afterwards.
#[derive(Debug)]
pub struct TypestateTracer {
    protocol: Protocol,
    tracked_class: Option<ClassId>,
    /// Allocation sites creating tracked instances.
    site_kinds: Vec<bool>,
    obj_state: HashMap<ObjectId, StateId>,
    obj_site: HashMap<ObjectId, AllocSiteId>,
    histories: HashMap<ObjectId, Vec<TypestateEvent>>,
    graph: DepGraph<(AllocSiteId, StateId)>,
    last_node: HashMap<ObjectId, NodeId>,
    violations: Vec<Violation>,
    /// Aggregated DFA: (site, from, method) → (to, hits).
    dfa: HashMap<(AllocSiteId, StateId, String), (Option<StateId>, u64)>,
    /// Method simple names indexed by `MethodId`, snapshotted from the
    /// program so the tracer needs no program borrow at event time.
    method_names_by_id: Vec<String>,
}

impl TypestateTracer {
    /// Creates a tracer for `protocol` over `program`.
    ///
    /// Objects of the protocol's class (and subclasses) are tracked from
    /// their allocation.
    pub fn new(program: &Program, protocol: Protocol) -> Self {
        let tracked_class = program.class_by_name(&protocol.class_name);
        let site_kinds = program
            .alloc_sites()
            .iter()
            .map(|s| match (s.kind, tracked_class) {
                (AllocKind::Class(c), Some(t)) => program.is_subclass_of(c, t),
                _ => false,
            })
            .collect();
        TypestateTracer {
            protocol,
            tracked_class,
            site_kinds,
            obj_state: HashMap::new(),
            obj_site: HashMap::new(),
            histories: HashMap::new(),
            graph: DepGraph::new(),
            last_node: HashMap::new(),
            violations: Vec::new(),
            dfa: HashMap::new(),
            method_names_by_id: program
                .methods()
                .iter()
                .map(|m| m.name().to_string())
                .collect(),
        }
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The history of one object.
    pub fn history(&self, obj: ObjectId) -> &[TypestateEvent] {
        self.histories.get(&obj).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The abstract graph of `(site, state)` nodes with next-event edges.
    pub fn graph(&self) -> &DepGraph<(AllocSiteId, StateId)> {
        &self.graph
    }

    /// The summarized DFA for a site: observed `(from, method) → to`
    /// transitions with hit counts (`to == None` marks violations).
    pub fn dfa_of(&self, site: AllocSiteId) -> Vec<(StateId, String, Option<StateId>, u64)> {
        let mut v: Vec<_> = self
            .dfa
            .iter()
            .filter(|((s, _, _), _)| *s == site)
            .map(|((_, from, m), (to, hits))| (*from, m.clone(), *to, *hits))
            .collect();
        v.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        v
    }

    /// Whether the protocol's class exists in the program.
    pub fn is_active(&self) -> bool {
        self.tracked_class.is_some()
    }

    fn record(&mut self, obj: ObjectId, at: InstrId, method: String) {
        // Only methods that participate in the protocol are tracked (the
        // paper: the abstraction function is undefined for instructions
        // that cannot change the object's state).
        if !self.protocol.transitions.keys().any(|(_, m)| *m == method) {
            return;
        }
        let Some(&state) = self.obj_state.get(&obj) else {
            return;
        };
        let site = self.obj_site[&obj];
        let to = self
            .protocol
            .transitions
            .get(&(state, method.clone()))
            .copied();
        let node = self.graph.intern(at, (site, state), NodeKind::Plain);
        self.graph.bump(node);
        if let Some(&prev) = self.last_node.get(&obj) {
            self.graph.add_edge(prev, node);
        }
        self.last_node.insert(obj, node);
        let ev = TypestateEvent {
            at,
            method: method.clone(),
            from: state,
            to,
        };
        self.histories.entry(obj).or_default().push(ev);
        let entry = self
            .dfa
            .entry((site, state, method.clone()))
            .or_insert((to, 0));
        entry.1 += 1;
        match to {
            Some(next) => {
                self.obj_state.insert(obj, next);
            }
            None => {
                self.violations.push(Violation {
                    site,
                    at,
                    state,
                    method,
                    history: self.histories[&obj].clone(),
                });
            }
        }
    }
}

impl EventSink for TypestateTracer {
    fn event(&mut self, event: &Event) {
        if let Event::Alloc { object, site, .. } = event {
            if self.site_kinds.get(site.index()).copied().unwrap_or(false) {
                self.obj_state.insert(*object, self.protocol.initial);
                self.obj_site.insert(*object, *site);
            }
        }
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        let Some(obj) = info.receiver else { return };
        if !self.obj_state.contains_key(&obj) {
            return;
        }
        let Some(at) = info.call_site else { return };
        let name = self
            .method_names_by_id
            .get(info.method.index())
            .cloned()
            .unwrap_or_default();
        self.record(obj, at, name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    fn file_protocol() -> Protocol {
        // States: 0 = uninit, 1 = open-empty, 2 = open-nonempty, 3 = closed.
        Protocol::new("File", ["u", "oe", "on", "c"], 0)
            .transition(0, "create", 1)
            .transition(1, "put", 2)
            .transition(2, "put", 2)
            .transition(2, "get", 2)
            .transition(1, "close", 3)
            .transition(2, "close", 3)
    }

    const FILE_PROGRAM: &str = r#"
class File { data }
method File.create/0 {
  return
}
method File.put/1 {
  this.data = p0
  return
}
method File.get/0 {
  r = this.data
  return r
}
method File.close/0 {
  return
}
method main/0 {
  f = new File
  vcall create(f)
  x = 1
  vcall put(f, x)
  vcall close(f)
  y = vcall get(f)
  return
}
"#;

    #[test]
    fn figure2b_violation_is_detected_with_history() {
        let p = parse_program(FILE_PROGRAM).unwrap();
        let mut t = TypestateTracer::new(&p, file_protocol());
        assert!(t.is_active());
        Vm::new(&p).run(&mut t).unwrap();
        assert_eq!(t.violations().len(), 1);
        let v = &t.violations()[0];
        assert_eq!(v.method, "get");
        assert_eq!(v.state, 3, "get on a closed file");
        // History: create, put, close, get(violation).
        assert_eq!(v.history.len(), 4);
        assert_eq!(v.history[0].method, "create");
        assert!(v.history[3].to.is_none());
    }

    #[test]
    fn dfa_summarizes_repeated_events() {
        let src = r#"
class File { data }
method File.create/0 {
  return
}
method File.put/1 {
  this.data = p0
  return
}
method main/0 {
  f = new File
  vcall create(f)
  i = 0
  one = 1
  lim = 10
loop:
  if i >= lim goto done
  vcall put(f, i)
  i = i + one
  goto loop
done:
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut t = TypestateTracer::new(&p, file_protocol());
        Vm::new(&p).run(&mut t).unwrap();
        assert!(t.violations().is_empty());
        let site = AllocSiteId(0);
        let dfa = t.dfa_of(site);
        // create: u→oe once; put: oe→on once, on→on nine times.
        let put_on = dfa
            .iter()
            .find(|(from, m, _, _)| *from == 2 && m == "put")
            .expect("on --put--> on");
        assert_eq!(put_on.3, 9);
        // The abstract graph stays bounded: (site, state) pairs, not 11
        // event instances.
        assert!(t.graph().num_nodes() <= 4);
    }

    #[test]
    fn untracked_classes_are_ignored() {
        let src = r#"
class Other { }
method Other.poke/0 {
  return
}
method main/0 {
  o = new Other
  vcall poke(o)
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut t = TypestateTracer::new(&p, file_protocol());
        assert!(!t.is_active());
        Vm::new(&p).run(&mut t).unwrap();
        assert!(t.violations().is_empty());
        assert_eq!(t.graph().num_nodes(), 0);
    }

    #[test]
    fn subclasses_inherit_tracking() {
        let src = r#"
class File { }
class LogFile extends File { }
method File.create/0 {
  return
}
method main/0 {
  f = new LogFile
  vcall create(f)
  vcall create(f)
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut t = TypestateTracer::new(&p, file_protocol());
        Vm::new(&p).run(&mut t).unwrap();
        // Second create in state oe has no transition → violation.
        assert_eq!(t.violations().len(), 1);
        assert_eq!(t.violations()[0].method, "create");
    }
}
