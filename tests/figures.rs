//! Reproductions of the paper's explanatory figures as executable checks.

use lowutil::analyses::copy::{copy_chains, copy_profiler, CopySource};
use lowutil::analyses::cost::{abstract_cost, hrab, hrac, CostBenefitConfig};
use lowutil::analyses::nullprop::{null_tracking_profiler, trace_null_origin};
use lowutil::analyses::structure::rank_structures;
use lowutil::analyses::typestate::{Protocol, TypestateTracer};
use lowutil::core::{ConcreteProfiler, CostGraph, CostGraphConfig, CostProfiler, SlicingMode};
use lowutil::ir::{parse_program, InstrId, MethodId, Program};
use lowutil::vm::{TrapKind, Vm};

/// Figure 1: `a=0; c=f(a); d=c*3; b=c+d` with `f(e)=e>>2`. A taint-style
/// cost sum double-counts `c`'s history; slice-based counting does not.
#[test]
fn figure1_slicing_avoids_double_counting() {
    let src = r#"
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
    let p = parse_program(src).unwrap();
    let mut prof = ConcreteProfiler::new(SlicingMode::Thin);
    Vm::new(&p).run(&mut prof).unwrap();
    let g = prof.finish();
    let b = g.last_instance_of(InstrId::new(MethodId(0), 4)).unwrap();

    // Taint-style: t_b = t_c + t_d + 1. With unit per-instance costs,
    // t_a = 1, t_c = t_a + 2 (two + r) = 3, t_d = t_c + 2 = 5,
    // t_b = t_c + t_d + 1 = 9 > total value-producing instances.
    let taint_cost = {
        let t_a = 1u64;
        let t_c = t_a + 2;
        let t_d = t_c + 2;
        t_c + t_d + 1
    };
    let slice_cost = g.absolute_cost(b);
    assert_eq!(slice_cost, 6, "a, two, r, three, d, b — each once");
    assert!(taint_cost > slice_cost, "{taint_cost} vs {slice_cost}");
    // And the slice cost can never exceed the number of instances.
    assert!(slice_cost <= g.num_instances() as u64);
}

/// Figure 2(a): the null-origin client recovers origin and flow.
#[test]
fn figure2a_null_origin() {
    let src = r#"
class A { f }
method main/0 {
  a1 = new A
  b = null
  a1.f = b
  c = a1.f
  x = c.f
  return
}
"#;
    let p = parse_program(src).unwrap();
    let mut prof = null_tracking_profiler();
    let trap = Vm::new(&p).run(&mut prof).unwrap_err();
    assert!(matches!(trap.kind, TrapKind::NullDereference { .. }));
    let r = trace_null_origin(&prof, &trap).unwrap();
    assert_eq!(r.origin, InstrId::new(p.entry(), 1)); // b = null
    assert_eq!(r.flow.len(), 3); // null-const → store → load
}

/// Figure 2(b): typestate violation on a closed file, with the bounded
/// (site × state) graph.
#[test]
fn figure2b_typestate() {
    let src = r#"
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
  one = 1
  vcall put(f, one)
  vcall put(f, one)
  vcall close(f)
  y = vcall get(f)
  return
}
"#;
    let p = parse_program(src).unwrap();
    let protocol = Protocol::new("File", ["u", "oe", "on", "c"], 0)
        .transition(0, "create", 1)
        .transition(1, "put", 2)
        .transition(2, "put", 2)
        .transition(2, "get", 2)
        .transition(1, "close", 3)
        .transition(2, "close", 3);
    let mut t = TypestateTracer::new(&p, protocol);
    Vm::new(&p).run(&mut t).unwrap();
    assert_eq!(t.violations().len(), 1);
    let v = &t.violations()[0];
    assert_eq!((v.method.as_str(), v.state), ("get", 3));
    // 4 distinct (site, state) events: create@u, put@oe, put@on, close@on
    // → plus get@c = 5 nodes max, but put@on repeats without a new node.
    assert!(t.graph().num_nodes() <= 5);
}

/// Figure 2(c): the copy chain O1.f → b → c → O3.f, with intermediate
/// stack nodes preserved.
#[test]
fn figure2c_copy_chain() {
    let src = r#"
class A { f }
class D { g }
method main/0 {
  a1 = new A
  x = 5
  a1.f = x
  b = a1.f
  c = b
  d = new D
  d.g = c
  return
}
"#;
    let p = parse_program(src).unwrap();
    let mut prof = copy_profiler();
    Vm::new(&p).run(&mut prof).unwrap();
    let (g, _) = prof.finish();
    let chains = copy_chains(&g);
    assert_eq!(chains.len(), 1);
    let ch = &chains[0];
    assert!(matches!(ch.source, CopySource::Field { .. }));
    assert!(matches!(ch.dest, CopySource::Field { .. }));
    assert_ne!(ch.source, ch.dest);
    assert_eq!(ch.hops.len(), 1, "the stack copy c = b");
    assert!(ch.load.is_some());
}

fn profile(src: &str) -> (Program, CostGraph) {
    let p = parse_program(src).unwrap();
    let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
    Vm::new(&p).run(&mut prof).unwrap();
    let g = prof.finish();
    (p, g)
}

/// Figure 3 (in spirit): the running example's key relationships —
/// the store into `B.t` carries the loop's work as HRAC; the load of
/// `B.t` has a tiny HRAB because its value is immediately re-stored; the
/// unread array element has zero benefit; abstract costs are cumulative
/// while HRACs are hop-local.
#[test]
fn figure3_cost_benefit_relationships() {
    let (_, g) = profile(
        r#"
class A { af }
class B { t }
method compute/1 {
  v = p0.af
  s = 0
  i = 0
  one = 1
  lim = 500
fl:
  if i >= lim goto fd
  s = s + v
  s = s + i
  i = i + one
  goto fl
fd:
  return s
}
method main/0 {
  a = new A
  seed = 3
  a.af = seed
  b = new B
  s = call compute(a)
  b.t = s
  one = 1
  arr = newarray one
  zero = 0
  t = b.t
  arr[zero] = t
  return
}
"#,
    );
    // Identify the three heap locations.
    let objects = g.objects();
    assert_eq!(objects.len(), 3); // A, B, arr

    let mut bt_store = None;
    let mut bt_load = None;
    let mut elem_store = None;
    for site in objects {
        for f in g.fields_of(site) {
            match f {
                lowutil::core::FieldKey::Element => {
                    elem_store = g.writes_of(site, f).first().copied();
                }
                lowutil::core::FieldKey::Field(fid) if fid.0 == 1 => {
                    bt_store = g.writes_of(site, f).first().copied();
                    bt_load = g.reads_of(site, f).first().copied();
                }
                _ => {}
            }
        }
    }
    let (bt_store, bt_load, elem_store) = (
        bt_store.expect("B.t written"),
        bt_load.expect("B.t read"),
        elem_store.expect("arr[0] written"),
    );

    // The B.t store's HRAC covers the loop (thousands of instances).
    assert!(hrac(&g, bt_store) > 1000);
    // The B.t load's HRAB is hop-local and tiny (value just re-stored).
    assert!(hrab(&g, bt_load) <= 3);
    // The element store's HRAC is tiny (one hop from the B.t read) …
    assert!(hrac(&g, elem_store) <= 4);
    // … but its *abstract* (ab-initio) cost is cumulative and large.
    assert!(abstract_cost(&g, elem_store) > 1000);
    // The element is never read: zero benefit on that location.
    let cfg = CostBenefitConfig::default();
    let ranked = rank_structures(&g, &cfg);
    // The top structure's benefit is at most the single copy hop (the
    // load's own instance), dwarfed by its cost.
    assert!(
        ranked[0].n_rab <= 1.0,
        "top structure has ~no benefit: {}",
        ranked[0].n_rab
    );
    assert!(ranked[0].n_rac > 100.0 * ranked[0].n_rab.max(1.0));
}

/// Figure 6: eclipse's isPackage pattern — the entry list's contents have
/// zero benefit even though the list reference feeds a predicate.
#[test]
fn figure6_eclipse_directory_list() {
    let w = lowutil::workloads::workload("eclipse", lowutil::workloads::WorkloadSize::Small);
    let mut prof = CostProfiler::new(&w.program, CostGraphConfig::default());
    Vm::new(&w.program).run(&mut prof).unwrap();
    let g = prof.finish();
    let cfg = CostBenefitConfig::default();
    let ranked = rank_structures(&g, &cfg);
    // Among the top structures there must be one with sizable cost and
    // zero benefit — the Entry/name strings built by directory_list.
    let top_dead = ranked
        .iter()
        .take(4)
        .find(|s| s.n_rab == 0.0 && s.n_rac > 10.0);
    assert!(
        top_dead.is_some(),
        "directoryList structures rank at the top: {:?}",
        ranked
            .iter()
            .take(4)
            .map(|s| (s.root, s.n_rac, s.n_rab))
            .collect::<Vec<_>>()
    );
}

/// The clients' chains cross threads as they cross calls: a `Spawn`'s
/// actuals reach the child's formals, and the child's return value
/// reaches the `Join`. Here a null loaded from `A.f` is handed to a
/// worker, copied, returned, joined, stored into `D.g` and dereferenced.
#[test]
fn client_chains_cross_spawn_and_join() {
    let src = r#"
class A { f }
class D { g }
method main/0 {
  a1 = new A
  b = a1.f
  h = spawn work(b)
  c = join h
  d = new D
  d.g = c
  x = c.f
  return
}
method work/1 {
  r = p0
  return r
}
"#;
    let p = parse_program(src).unwrap();
    let (main, work) = (MethodId(0), MethodId(1));
    let (load, join, store) = (
        InstrId::new(main, 1),
        InstrId::new(main, 3),
        InstrId::new(main, 5),
    );
    let copy = InstrId::new(work, 0);

    let mut prof = copy_profiler();
    let _ = Vm::new(&p).run(&mut prof).unwrap_err();
    let (g, _) = prof.finish();
    let chains = copy_chains(&g);
    assert_eq!(chains.len(), 1, "{chains:?}");
    let ch = &chains[0];
    assert!(matches!(ch.source, CopySource::Field { .. }));
    assert!(matches!(ch.dest, CopySource::Field { .. }));
    assert_eq!(
        (ch.load, &ch.hops[..], ch.store),
        (Some(load), &[copy, join][..], store),
        "the copy chain runs through the worker and the join"
    );

    let mut prof = null_tracking_profiler();
    let trap = Vm::new(&p).run(&mut prof).unwrap_err();
    assert!(matches!(trap.kind, TrapKind::NullDereference { .. }));
    let r = trace_null_origin(&prof, &trap).unwrap();
    assert_eq!(
        r.origin, load,
        "the null came from the load before the spawn"
    );
    assert_eq!(r.flow, [load, copy, join]);

    let mut prof = ConcreteProfiler::new(SlicingMode::Thin);
    let _ = Vm::new(&p).run(&mut prof).unwrap_err();
    let g = prof.finish();
    let slice: Vec<InstrId> = g
        .backward_slice(g.last_instance_of(store).unwrap())
        .into_iter()
        .map(|i| g.instance(i).instr)
        .collect();
    for instr in [load, copy, join] {
        assert!(slice.contains(&instr), "{instr:?} missing from {slice:?}");
    }
}
