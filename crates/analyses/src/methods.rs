//! Method-level cost attribution over the dynamic call graph — the
//! coarse-grained view the paper suggests a developer starts from (§6:
//! "identify such coarser-grained program constructs that can potentially
//! cause performance issues, in order to track down a performance bug
//! through subsequent more detailed profiling").
//!
//! [`CallGraphTracer`] records dynamic call edges and per-method executed
//! instruction counts; [`method_costs`] then computes *self* and *total*
//! (inclusive) costs, collapsing recursion via strongly connected
//! components so mutual recursion does not double-count.

use lowutil_ir::{MethodId, Program, ThreadId};
use lowutil_vm::{Event, EventSink, FrameInfo};
use std::collections::{HashMap, HashSet};

/// Records the dynamic call graph and per-method self costs.
#[derive(Debug, Default)]
pub struct CallGraphTracer {
    /// caller → callee → invocation count.
    edges: HashMap<MethodId, HashMap<MethodId, u64>>,
    /// Executed instructions attributed to each method.
    self_cost: HashMap<MethodId, u64>,
    /// Invocations per method.
    invocations: HashMap<MethodId, u64>,
    /// The method of every live frame, one call stack per guest thread.
    /// A spawned thread's stack starts with the spawning method, so its
    /// root frame counts as called from there.
    stacks: Vec<Vec<MethodId>>,
    /// The running guest thread.
    cur: usize,
}

impl CallGraphTracer {
    /// Creates the tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dynamic call edges with invocation counts.
    pub fn edges(&self) -> impl Iterator<Item = (MethodId, MethodId, u64)> + '_ {
        self.edges
            .iter()
            .flat_map(|(&c, m)| m.iter().map(move |(&e, &n)| (c, e, n)))
    }

    /// Invocation count of a method.
    pub fn invocations(&self, m: MethodId) -> u64 {
        self.invocations.get(&m).copied().unwrap_or(0)
    }

    /// Thread `t`'s call stack, created empty on first sight.
    fn stack(&mut self, t: usize) -> &mut Vec<MethodId> {
        if self.stacks.len() <= t {
            self.stacks.resize_with(t + 1, Vec::new);
        }
        &mut self.stacks[t]
    }
}

impl EventSink for CallGraphTracer {
    fn event(&mut self, event: &Event) {
        match event {
            // CallComplete is the second half of one call instruction.
            Event::CallComplete { .. } => return,
            Event::Spawn { at, thread, .. } => self.stack(thread.index()).push(at.method),
            _ => {}
        }
        let at = event.at();
        *self.self_cost.entry(at.method).or_insert(0) += 1;
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        let caller = self.stack(self.cur).last().copied();
        if let Some(caller) = caller {
            *self
                .edges
                .entry(caller)
                .or_default()
                .entry(info.method)
                .or_insert(0) += 1;
        }
        self.stack(self.cur).push(info.method);
        *self.invocations.entry(info.method).or_insert(0) += 1;
    }

    fn frame_pop(&mut self) {
        self.stacks[self.cur].pop();
    }

    fn thread(&mut self, tid: ThreadId) {
        self.cur = tid.index();
    }
}

/// Self and total (inclusive) cost of one method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodCost {
    /// The method.
    pub method: MethodId,
    /// Instructions executed in the method's own frames.
    pub self_cost: u64,
    /// Self cost plus the self costs of everything it (transitively)
    /// calls. Recursive cliques share one total.
    pub total_cost: u64,
    /// Number of invocations.
    pub invocations: u64,
}

/// Computes per-method self/total costs from a finished
/// [`CallGraphTracer`], sorted by total cost (hottest first).
pub fn method_costs(tracer: &CallGraphTracer, program: &Program) -> Vec<MethodCost> {
    let n = program.methods().len();

    // Condense the call graph: iterative DFS-based SCC (Tarjan).
    let succs: Vec<Vec<usize>> = (0..n)
        .map(|m| {
            tracer
                .edges
                .get(&MethodId(m as u32))
                .map(|e| e.keys().map(|k| k.index()).collect())
                .unwrap_or_default()
        })
        .collect();
    let comp = tarjan(&succs);
    let n_comps = comp.iter().copied().max().map(|c| c + 1).unwrap_or(0);

    // Component self costs and component DAG.
    let mut comp_self = vec![0u64; n_comps];
    let mut comp_succs: Vec<HashSet<usize>> = vec![HashSet::new(); n_comps];
    for m in 0..n {
        comp_self[comp[m]] += tracer
            .self_cost
            .get(&MethodId(m as u32))
            .copied()
            .unwrap_or(0);
        for &s in &succs[m] {
            if comp[s] != comp[m] {
                comp_succs[comp[m]].insert(comp[s]);
            }
        }
    }

    // Total cost of a component = its self cost plus the self costs of
    // every component it can reach in the condensation (each counted
    // once, so shared callees are not double-attributed within a total).
    let mut comp_total = comp_self.clone();
    for c in 0..n_comps {
        let mut reach: HashSet<usize> = HashSet::new();
        let mut stack: Vec<usize> = comp_succs[c].iter().copied().collect();
        while let Some(x) = stack.pop() {
            if reach.insert(x) {
                stack.extend(comp_succs[x].iter().copied());
            }
        }
        comp_total[c] = comp_self[c] + reach.iter().map(|&x| comp_self[x]).sum::<u64>();
    }

    let mut out: Vec<MethodCost> = (0..n)
        .map(|m| MethodCost {
            method: MethodId(m as u32),
            self_cost: tracer
                .self_cost
                .get(&MethodId(m as u32))
                .copied()
                .unwrap_or(0),
            total_cost: comp_total[comp[m]],
            invocations: tracer.invocations(MethodId(m as u32)),
        })
        .filter(|c| c.invocations > 0 || c.self_cost > 0)
        .collect();
    out.sort_by(|a, b| {
        b.total_cost
            .cmp(&a.total_cost)
            .then(a.method.cmp(&b.method))
    });
    out
}

/// The §3.2 "method-level cost" analysis proper: the cost of producing a
/// method's escaping values *relative to its inputs* — a backward
/// traversal over `G_cost` from the method's escape nodes (nodes whose
/// values flow to nodes outside the method) that stops at nodes outside
/// the method (its inputs). The result is the stack work the method
/// itself performs per returned value, the method-granularity analogue of
/// HRAC.
pub fn method_return_costs(
    gcost: &lowutil_core::CostGraph,
    program: &Program,
) -> Vec<(MethodId, u64)> {
    use lowutil_core::NodeId;
    let g = gcost.graph();
    let mut per_method: HashMap<MethodId, u64> = HashMap::new();

    // Escape nodes per method: a node some successor of which lives in a
    // different method (or which feeds a consumer).
    let mut escapes: HashMap<MethodId, Vec<NodeId>> = HashMap::new();
    for (id, n) in g.iter() {
        let m = n.instr.method;
        let escaping = g
            .succs(id)
            .iter()
            .any(|&s| g.node(s).instr.method != m || g.node(s).kind.is_consumer());
        if escaping {
            escapes.entry(m).or_default().push(id);
        }
    }

    for (m, seeds) in escapes {
        // Backward reachability confined to the method's own nodes.
        let mut seen: std::collections::HashSet<NodeId> = seeds.iter().copied().collect();
        let mut stack: Vec<NodeId> = seeds;
        let mut cost = 0u64;
        while let Some(n) = stack.pop() {
            cost += g.node(n).freq;
            for &p in g.preds(n) {
                if g.node(p).instr.method == m && seen.insert(p) {
                    stack.push(p);
                }
            }
        }
        per_method.insert(m, cost);
    }

    let mut v: Vec<(MethodId, u64)> = per_method.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    debug_assert!(v.iter().all(|(m, _)| m.index() < program.methods().len()));
    v
}

/// Iterative Tarjan over a plain adjacency list; returns component index
/// per node, in reverse topological order.
fn tarjan(succs: &[Vec<usize>]) -> Vec<usize> {
    let n = succs.len();
    let mut comp = vec![usize::MAX; n];
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut timer = 0usize;
    let mut n_comps = 0usize;
    let mut work: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if disc[start] != usize::MAX {
            continue;
        }
        work.push((start, 0));
        while let Some(&(v, ci)) = work.last() {
            if ci == 0 {
                disc[v] = timer;
                low[v] = timer;
                timer += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ci < succs[v].len() {
                work.last_mut().expect("non-empty").1 += 1;
                let w = succs[v][ci];
                if disc[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                if low[v] == disc[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp[w] = n_comps;
                        if w == v {
                            break;
                        }
                    }
                    n_comps += 1;
                }
                work.pop();
                if let Some(&(p, _)) = work.last() {
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    fn run(src: &str) -> (lowutil_ir::Program, CallGraphTracer) {
        let p = parse_program(src).expect("parse");
        let mut t = CallGraphTracer::new();
        Vm::new(&p).run(&mut t).expect("run");
        (p, t)
    }

    #[test]
    fn totals_include_callees() {
        let (p, t) = run(r#"
method leaf/0 {
  a = 1
  b = 2
  c = a + b
  return c
}
method middle/0 {
  r = call leaf()
  return r
}
method main/0 {
  x = call middle()
  return
}
"#);
        let costs = method_costs(&t, &p);
        let by = |name: &str| {
            let id = p.method_by_name(name).unwrap();
            *costs.iter().find(|c| c.method == id).unwrap()
        };
        let leaf = by("leaf");
        let middle = by("middle");
        let main = by("main");
        assert_eq!(leaf.self_cost, leaf.total_cost);
        assert_eq!(middle.total_cost, middle.self_cost + leaf.self_cost);
        assert_eq!(
            main.total_cost,
            main.self_cost + middle.self_cost + leaf.self_cost
        );
        // main is the hottest by total.
        assert_eq!(costs[0].method, p.entry());
    }

    #[test]
    fn recursion_does_not_double_count() {
        let (p, t) = run(r#"
method fib/1 {
  two = 2
  if p0 >= two goto rec
  return p0
rec:
  one = 1
  a = p0 - one
  x = call fib(a)
  b = p0 - two
  y = call fib(b)
  r = x + y
  return r
}
method main/0 {
  n = 10
  r = call fib(n)
  return
}
"#);
        let costs = method_costs(&t, &p);
        let main = costs.iter().find(|c| c.method == p.entry()).unwrap();
        let fib = costs
            .iter()
            .find(|c| c.method == p.method_by_name("fib").unwrap())
            .unwrap();
        // fib's total equals its (aggregated) self cost — the recursive
        // SCC is counted once.
        assert_eq!(fib.total_cost, fib.self_cost);
        assert_eq!(main.total_cost, main.self_cost + fib.self_cost);
        assert!(fib.invocations > 100, "fib(10) fans out");
    }

    #[test]
    fn mutual_recursion_forms_one_clique() {
        let (p, t) = run(r#"
method even/1 {
  zero = 0
  if p0 == zero goto yes
  one = 1
  m = p0 - one
  r = call odd(m)
  return r
yes:
  r = 1
  return r
}
method odd/1 {
  zero = 0
  if p0 == zero goto no
  one = 1
  m = p0 - one
  r = call even(m)
  return r
no:
  r = 0
  return r
}
method main/0 {
  n = 9
  r = call even(n)
  return
}
"#);
        let costs = method_costs(&t, &p);
        let even = costs
            .iter()
            .find(|c| c.method == p.method_by_name("even").unwrap())
            .unwrap();
        let odd = costs
            .iter()
            .find(|c| c.method == p.method_by_name("odd").unwrap())
            .unwrap();
        // Same SCC → same total.
        assert_eq!(even.total_cost, odd.total_cost);
        assert_eq!(even.total_cost, even.self_cost + odd.self_cost);
    }

    #[test]
    fn return_costs_separate_wrappers_from_workers() {
        use lowutil_core::{CostGraphConfig, CostProfiler};
        let src = r#"
native print/1
method worker/1 {
  s = 0
  i = 0
  one = 1
  lim = 200
l:
  if i >= lim goto d
  s = s + p0
  s = s + i
  i = i + one
  goto l
d:
  return s
}
method wrapper/1 {
  r = p0
  return r
}
method main/0 {
  seed = 3
  a = call worker(seed)
  b = call wrapper(a)
  native print(b)
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
        Vm::new(&p).run(&mut prof).unwrap();
        let g = prof.finish();
        let costs = method_return_costs(&g, &p);
        let by = |name: &str| {
            let id = p.method_by_name(name).unwrap();
            costs
                .iter()
                .find(|(m, _)| *m == id)
                .map(|&(_, c)| c)
                .unwrap_or(0)
        };
        let worker = by("worker");
        let wrapper = by("wrapper");
        assert!(
            worker > 100 * wrapper.max(1),
            "worker {worker} vs wrapper {wrapper}"
        );
        // The wrapper's relative cost is a single copy.
        assert!(wrapper <= 2, "{wrapper}");
    }

    #[test]
    fn call_edges_carry_counts() {
        let (p, t) = run(r#"
method helper/0 {
  return
}
method main/0 {
  call helper()
  call helper()
  call helper()
  return
}
"#);
        let helper = p.method_by_name("helper").unwrap();
        let edge = t
            .edges()
            .find(|&(c, e, _)| c == p.entry() && e == helper)
            .unwrap();
        assert_eq!(edge.2, 3);
        assert_eq!(t.invocations(helper), 3);
    }

    /// A spawned thread's root frame counts as called from the spawning
    /// method, whatever another thread has on top of its stack when the
    /// scheduler first runs it; a worker's calls stay on its own stack.
    #[test]
    fn spawned_threads_are_called_from_the_spawning_method() {
        let p = parse_program(
            r#"
method leaf/1 {
  r = p0 + p0
  return r
}
method work/1 {
  i = 0
  one = 1
l:
  if i >= p0 goto d
  x = call leaf(i)
  i = i + one
  goto l
d:
  return i
}
method main/0 {
  n = 30
  a = spawn work(n)
  b = spawn work(n)
  x = join a
  y = join b
  return
}
"#,
        )
        .expect("parse");
        let id = |name: &str| p.method_by_name(name).expect("method exists");
        for sched_seed in 0..4 {
            let mut t = CallGraphTracer::new();
            let config = lowutil_vm::RunConfig {
                sched_seed,
                ..lowutil_vm::RunConfig::default()
            };
            Vm::with_config(&p, config).run(&mut t).expect("run");
            let mut edges: Vec<_> = t.edges().collect();
            edges.sort_unstable();
            let mut want = vec![(id("main"), id("work"), 2), (id("work"), id("leaf"), 60)];
            want.sort_unstable();
            assert_eq!(edges, want, "seed {sched_seed}");
        }
    }
}
