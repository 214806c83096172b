//! Trap and edge-case coverage for the interpreter: every failure mode a
//! workload author can hit must surface as a precise `Trap`, never as a
//! wrong answer or a panic.

use lowutil_ir::{parse_program, ProgramBuilder, Value};
use lowutil_vm::{CountingSink, NullTracer, RunConfig, TrapKind, Vm};

fn run_err(src: &str) -> lowutil_vm::Trap {
    let p = parse_program(src).expect("parse");
    Vm::new(&p).run(&mut NullTracer).expect_err("should trap")
}

#[test]
fn negative_array_length_traps() {
    let e = run_err("method main/0 {\n  n = -3\n  a = newarray n\n  return\n}\n");
    assert!(matches!(
        e.kind,
        TrapKind::IndexOutOfBounds { index: -3, .. }
    ));
}

#[test]
fn out_of_bounds_read_and_write_trap() {
    let e =
        run_err("method main/0 {\n  n = 2\n  a = newarray n\n  i = 5\n  x = a[i]\n  return\n}\n");
    assert!(matches!(
        e.kind,
        TrapKind::IndexOutOfBounds { index: 5, len: 2 }
    ));
    let e = run_err(
        "method main/0 {\n  n = 2\n  a = newarray n\n  i = -1\n  x = 7\n  a[i] = x\n  return\n}\n",
    );
    assert!(matches!(
        e.kind,
        TrapKind::IndexOutOfBounds { index: -1, .. }
    ));
}

#[test]
fn indexing_a_non_array_traps() {
    let e =
        run_err("class C { f }\nmethod main/0 {\n  o = new C\n  i = 0\n  x = o[i]\n  return\n}\n");
    assert!(matches!(e.kind, TrapKind::TypeError { .. }));
}

#[test]
fn field_access_on_array_traps() {
    let e = run_err(
        "class C { f }\nmethod main/0 {\n  n = 2\n  a = newarray n\n  x = a.f\n  return\n}\n",
    );
    assert!(matches!(e.kind, TrapKind::NoSuchField));
}

#[test]
fn field_access_on_wrong_class_traps() {
    let e = run_err(
        "class C { f }\nclass D { g }\nmethod main/0 {\n  o = new D\n  x = o.f\n  return\n}\n",
    );
    assert!(matches!(e.kind, TrapKind::NoSuchField));
}

#[test]
fn virtual_call_on_null_traps_as_null_dereference() {
    let e = run_err(
        "class C { }\nmethod C.m/0 {\n  return\n}\nmethod main/0 {\n  o = null\n  vcall m(o)\n  return\n}\n",
    );
    assert!(matches!(e.kind, TrapKind::NullDereference { .. }));
}

#[test]
fn virtual_call_with_no_target_traps() {
    let e = run_err(
        r#"
class C { }
class D { }
method D.m/0 {
  return
}
method main/0 {
  o = new C
  vcall m(o)
  return
}
"#,
    );
    assert!(matches!(e.kind, TrapKind::NoSuchMethod { .. }));
}

#[test]
fn virtual_arity_mismatch_traps() {
    let e = run_err(
        r#"
class C { }
method C.m/2 {
  return
}
method main/0 {
  o = new C
  vcall m(o)
  return
}
"#,
    );
    assert!(matches!(
        e.kind,
        TrapKind::ArityMismatch {
            expected: 3,
            found: 1
        }
    ));
}

#[test]
fn bitwise_ops_on_floats_trap() {
    let e = run_err("method main/0 {\n  a = 1.5\n  b = 2\n  c = a & b\n  return\n}\n");
    assert!(matches!(e.kind, TrapKind::TypeError { .. }));
}

#[test]
fn ordering_comparison_on_references_traps() {
    let e = run_err(
        "class C { }\nmethod main/0 {\n  a = new C\n  b = new C\nlp:\n  if a < b goto lp\n  return\n}\n",
    );
    assert!(matches!(e.kind, TrapKind::TypeError { .. }));
}

#[test]
fn equality_on_references_is_identity() {
    let src = r#"
native print/1
class C { }
method main/0 {
  a = new C
  b = new C
  c = a
  r1 = a == b
  r2 = a == c
  native print(r1)
  native print(r2)
  return
}
"#;
    let p = parse_program(src).unwrap();
    let out = Vm::new(&p).run(&mut NullTracer).unwrap();
    assert_eq!(out.output, vec![Value::Int(0), Value::Int(1)]);
}

#[test]
fn unknown_native_name_is_rejected_at_startup() {
    let mut pb = ProgramBuilder::new();
    let mystery = pb.native("launch_missiles", 0, false);
    let mut m = pb.method("main", 0);
    m.call_native_void(mystery, &[]);
    m.ret_void();
    let main = m.finish(&mut pb);
    let p = pb.finish(main).unwrap();
    let e = Vm::new(&p).run(&mut NullTracer).unwrap_err();
    assert!(matches!(e.kind, TrapKind::UnknownNative { .. }));
}

#[test]
fn void_return_into_local_traps() {
    let src = r#"
method void_fn/0 {
  return
}
method main/0 {
  x = call void_fn()
  return
}
"#;
    let e = run_err(src);
    assert!(matches!(e.kind, TrapKind::TypeError { .. }));
}

#[test]
fn run_method_accepts_arguments() {
    let src = r#"
method add3/3 {
  s = p0 + p1
  s = s + p2
  return s
}
method main/0 {
  return
}
"#;
    let p = parse_program(src).unwrap();
    let add3 = p.method_by_name("add3").unwrap();
    let out = Vm::new(&p)
        .run_method(
            add3,
            &[Value::Int(1), Value::Int(2), Value::Int(3)],
            &mut NullTracer,
        )
        .unwrap();
    assert_eq!(out.return_value, Some(Value::Int(6)));
}

#[test]
fn tuple_sink_combinator_forwards_to_both() {
    let src = "method main/0 {\n  x = 1\n  y = 2\n  z = x + y\n  return\n}\n";
    let p = parse_program(src).unwrap();
    let mut pair = (CountingSink::new(), CountingSink::new());
    Vm::new(&p).run(&mut pair).unwrap();
    assert_eq!(pair.0.events, pair.1.events);
    assert!(pair.0.events >= 4);
    assert_eq!(pair.0.pushes, 1);
    assert_eq!(pair.1.pops, 1);
}

#[test]
fn nested_phase_markers_nest_counts() {
    let src = r#"
native phase_begin/0
native phase_end/0
method main/0 {
  native phase_begin()
  a = 1
  native phase_begin()
  b = 2
  native phase_end()
  c = 3
  native phase_end()
  d = 4
  return
}
"#;
    let p = parse_program(src).unwrap();
    let out = Vm::new(&p).run(&mut NullTracer).unwrap();
    // Window: everything after the outermost begin, up to and including
    // the outermost end (a, inner begin, b, inner end, c, outer end).
    assert_eq!(out.instructions_in_phase, 6);
}

#[test]
fn trap_display_is_informative() {
    let e = run_err("method main/0 {\n  a = 1\n  b = 0\n  c = a / b\n  return\n}\n");
    let msg = e.to_string();
    assert!(msg.contains("division by zero"));
    assert!(msg.contains("M0:2"), "{msg}");
}

#[test]
fn custom_seed_changes_rand_stream_deterministically() {
    let src = r#"
native print/1
native rand/1 -> value
method main/0 {
  bound = 1000000
  r = native rand(bound)
  native print(r)
  return
}
"#;
    let p = parse_program(src).unwrap();
    let a = Vm::with_config(
        &p,
        RunConfig {
            seed: 1,
            ..RunConfig::default()
        },
    )
    .run(&mut NullTracer)
    .unwrap();
    let b = Vm::with_config(
        &p,
        RunConfig {
            seed: 2,
            ..RunConfig::default()
        },
    )
    .run(&mut NullTracer)
    .unwrap();
    let a2 = Vm::with_config(
        &p,
        RunConfig {
            seed: 1,
            ..RunConfig::default()
        },
    )
    .run(&mut NullTracer)
    .unwrap();
    assert_eq!(a.output, a2.output);
    assert_ne!(a.output, b.output);
}
