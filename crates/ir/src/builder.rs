//! Fluent builders for constructing [`Program`]s in Rust.
//!
//! The builders are the primary front end used by the workload suite; a
//! textual assembly front end lives in [`crate::parse_program`].
//!
//! ```
//! use lowutil_ir::{ProgramBuilder, ConstValue, BinOp, CmpOp};
//!
//! let mut pb = ProgramBuilder::new();
//! let point = pb.class("Point").finish(&mut pb);
//! let fx = pb.field(point, "x");
//!
//! let mut main = pb.method("main", 0);
//! let p = main.new_local("p");
//! let v = main.new_local("v");
//! main.new_obj(p, point);
//! main.constant(v, ConstValue::Int(3));
//! main.put_field(p, fx, v);
//! main.ret_void();
//! let main_id = main.finish(&mut pb);
//!
//! let program = pb.finish(main_id)?;
//! assert_eq!(program.alloc_sites().len(), 1);
//! # Ok::<(), lowutil_ir::ValidationError>(())
//! ```

use crate::instr::{BinOp, Callee, CmpOp, Instr, UnOp};
use crate::program::{Class, Method, NativeDecl, Program, StaticDecl};
use crate::types::{ClassId, FieldId, InstrId, Local, MethodId, NativeId, Pc, StaticId};
use crate::value::ConstValue;
use crate::ValidationError;
use std::collections::HashMap;

/// A forward-reference branch label used by [`MethodBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// How a call emitted by the builder names its callee before resolution.
#[derive(Debug, Clone)]
enum PendingCallee {
    Direct(MethodId),
    /// Resolved against `Program::method_by_name` at finish time.
    DirectNamed(String),
    /// Interned into the method-name table at finish time.
    Virtual(String),
}

#[derive(Debug)]
struct PendingMethod {
    name: String,
    class: Option<ClassId>,
    num_params: u16,
    num_locals: u16,
    body: Vec<Instr>,
    local_names: Vec<String>,
    /// `(pc, callee)` patches applied at program finish.
    call_patches: Vec<(Pc, PendingCallee)>,
}

/// Incrementally builds a [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    classes: Vec<(String, Option<ClassId>)>,
    field_names: Vec<String>,
    field_owner: Vec<ClassId>,
    class_fields: Vec<Vec<FieldId>>,
    statics: Vec<StaticDecl>,
    natives: Vec<NativeDecl>,
    methods: Vec<PendingMethod>,
}

impl ProgramBuilder {
    /// Creates an empty program builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts declaring a class. Call [`ClassBuilder::finish`] to register
    /// it and obtain its [`ClassId`].
    pub fn class(&mut self, name: impl Into<String>) -> ClassBuilder {
        ClassBuilder {
            name: name.into(),
            super_class: None,
        }
    }

    /// Declares an instance field on `class` and returns its global id.
    pub fn field(&mut self, class: ClassId, name: impl Into<String>) -> FieldId {
        let id = FieldId(self.field_names.len() as u32);
        self.field_names.push(name.into());
        self.field_owner.push(class);
        self.class_fields[class.index()].push(id);
        id
    }

    /// Declares a static (global) field.
    pub fn static_field(&mut self, name: impl Into<String>) -> StaticId {
        let id = StaticId(self.statics.len() as u32);
        self.statics.push(StaticDecl { name: name.into() });
        id
    }

    /// Registers a native method. `returns` declares whether the native
    /// produces a value; pure consumers (program output) do not.
    pub fn native(&mut self, name: impl Into<String>, arity: u16, returns: bool) -> NativeId {
        let id = NativeId(self.natives.len() as u32);
        self.natives.push(NativeDecl {
            name: name.into(),
            arity,
            returns,
        });
        id
    }

    /// Starts building a free (static) function with `num_params`
    /// parameters.
    pub fn method(&mut self, name: impl Into<String>, num_params: u16) -> MethodBuilder {
        MethodBuilder::new(name.into(), None, num_params)
    }

    /// Starts building an instance method on `class`. The receiver is
    /// parameter 0 and `num_params` **excludes** it.
    pub fn method_on(
        &mut self,
        class: ClassId,
        name: impl Into<String>,
        num_params: u16,
    ) -> MethodBuilder {
        MethodBuilder::new(name.into(), Some(class), num_params + 1)
    }

    /// Reserves a method id before its body exists, enabling mutually
    /// recursive direct calls. Define it later with
    /// [`MethodBuilder::finish_into`].
    pub fn declare_method(
        &mut self,
        name: impl Into<String>,
        class: Option<ClassId>,
        num_params: u16,
    ) -> MethodId {
        let real_params = if class.is_some() {
            num_params + 1
        } else {
            num_params
        };
        let id = MethodId(self.methods.len() as u32);
        self.methods.push(PendingMethod {
            name: name.into(),
            class,
            num_params: real_params,
            num_locals: real_params,
            body: Vec::new(),
            local_names: Vec::new(),
            call_patches: Vec::new(),
        });
        id
    }

    fn register(&mut self, mut pending: PendingMethod, reserved: Option<MethodId>) -> MethodId {
        pending.num_locals = pending.num_locals.max(pending.num_params);
        match reserved {
            Some(id) => {
                self.methods[id.index()] = pending;
                id
            }
            None => {
                let id = MethodId(self.methods.len() as u32);
                self.methods.push(pending);
                id
            }
        }
    }

    /// Finalizes the program with `entry` as its entry method.
    ///
    /// Resolves named callees, interns virtual-call names, computes class
    /// layouts and dispatch tables, assigns allocation-site ids, and
    /// validates the result.
    ///
    /// # Errors
    /// Returns a [`ValidationError`] for inheritance cycles, unresolved
    /// callees, or any structural problem found by [`Program::validate`].
    pub fn finish(self, entry: MethodId) -> Result<Program, ValidationError> {
        let ProgramBuilder {
            classes,
            field_names,
            field_owner,
            class_fields,
            statics,
            natives,
            methods,
        } = self;

        // Intern method names.
        let mut name_table: Vec<String> = Vec::new();
        let mut name_idx: HashMap<String, u32> = HashMap::new();
        let intern = |n: &str, table: &mut Vec<String>, idx: &mut HashMap<String, u32>| {
            if let Some(&i) = idx.get(n) {
                i
            } else {
                let i = table.len() as u32;
                table.push(n.to_string());
                idx.insert(n.to_string(), i);
                i
            }
        };

        let mut built_methods: Vec<Method> = methods
            .iter()
            .map(|pm| Method {
                name: pm.name.clone(),
                name_idx: intern(&pm.name, &mut name_table, &mut name_idx),
                class: pm.class,
                num_params: pm.num_params,
                num_locals: pm.num_locals,
                body: pm.body.clone(),
                local_names: pm.local_names.clone(),
            })
            .collect();

        // Class layouts and vtables, in topological (superclass-first) order.
        let n_classes = classes.len();
        let mut order: Vec<usize> = Vec::with_capacity(n_classes);
        let mut state = vec![0u8; n_classes]; // 0 unvisited, 1 visiting, 2 done
        for start in 0..n_classes {
            let mut chain = Vec::new();
            let mut cur = start;
            loop {
                match state[cur] {
                    2 => break,
                    1 => {
                        return Err(ValidationError::InheritanceCycle {
                            class: ClassId(cur as u32),
                        })
                    }
                    _ => {}
                }
                state[cur] = 1;
                chain.push(cur);
                match classes[cur].1 {
                    Some(sup) => cur = sup.index(),
                    None => break,
                }
            }
            for &c in chain.iter().rev() {
                state[c] = 2;
                order.push(c);
            }
        }

        let mut built_classes: Vec<Option<Class>> = (0..n_classes).map(|_| None).collect();
        for &ci in &order {
            let (name, super_class) = classes[ci].clone();
            let (mut layout, mut vtable) = match super_class {
                Some(sup) => {
                    let s = built_classes[sup.index()]
                        .as_ref()
                        .expect("superclass built before subclass");
                    (s.layout.clone(), s.vtable.clone())
                }
                None => (Vec::new(), Vec::new()),
            };
            layout.extend(class_fields[ci].iter().copied());
            let mut own_methods = HashMap::new();
            for (mi, m) in built_methods.iter().enumerate() {
                if m.class == Some(ClassId(ci as u32)) {
                    own_methods.insert(m.name_idx, MethodId(mi as u32));
                    let slot = m.name_idx as usize;
                    if vtable.len() <= slot {
                        vtable.resize(slot + 1, None);
                    }
                    vtable[slot] = Some(MethodId(mi as u32));
                }
            }
            built_classes[ci] = Some(Class {
                name,
                super_class,
                own_fields: class_fields[ci].clone(),
                layout,
                own_methods,
                vtable,
            });
        }
        let built_classes: Vec<Class> = built_classes.into_iter().map(Option::unwrap).collect();

        let offsets: Vec<Vec<Option<u32>>> = built_classes
            .iter()
            .map(|c| {
                let len = c.layout.iter().map(|f| f.index() + 1).max().unwrap_or(0);
                let mut table = vec![None; len];
                for (i, &f) in c.layout.iter().enumerate() {
                    table[f.index()] = Some(i as u32);
                }
                table
            })
            .collect();

        // Assemble a provisional program for name resolution.
        let mut program = Program {
            classes: built_classes,
            methods: built_methods.clone(),
            field_names,
            field_owner,
            statics,
            natives,
            method_names: name_table,
            entry,
            alloc_sites: Vec::new(),
            alloc_site_of: Vec::new(),
            offsets,
        };

        // Apply call patches.
        for (mi, pm) in methods.iter().enumerate() {
            for (pc, pending) in &pm.call_patches {
                let at = InstrId::new(MethodId(mi as u32), *pc);
                let callee = match pending {
                    PendingCallee::Direct(id) => Callee::Direct(*id),
                    PendingCallee::DirectNamed(name) => {
                        let id = program.method_by_name(name).ok_or_else(|| {
                            ValidationError::UnresolvedCallee {
                                at,
                                name: name.clone(),
                            }
                        })?;
                        Callee::Direct(id)
                    }
                    PendingCallee::Virtual(name) => {
                        let idx = program.method_name_idx(name).ok_or_else(|| {
                            ValidationError::UnresolvedCallee {
                                at,
                                name: name.clone(),
                            }
                        })?;
                        Callee::Virtual(idx)
                    }
                };
                if let Instr::Call { callee: c, .. } = &mut built_methods[mi].body[*pc as usize] {
                    *c = callee;
                }
            }
        }
        program.methods = built_methods;

        program.assign_alloc_sites();
        program.validate()?;
        Ok(program)
    }
}

/// Declares a class; obtain from [`ProgramBuilder::class`].
#[derive(Debug)]
pub struct ClassBuilder {
    name: String,
    super_class: Option<ClassId>,
}

impl ClassBuilder {
    /// Sets the superclass.
    pub fn extends(mut self, super_class: ClassId) -> Self {
        self.super_class = Some(super_class);
        self
    }

    /// Registers the class and returns its id. Declare fields afterwards
    /// with [`ProgramBuilder::field`].
    pub fn finish(self, pb: &mut ProgramBuilder) -> ClassId {
        let id = ClassId(pb.classes.len() as u32);
        pb.classes.push((self.name, self.super_class));
        pb.class_fields.push(Vec::new());
        id
    }
}

/// Builds one method body; obtain from [`ProgramBuilder::method`] or
/// [`ProgramBuilder::method_on`].
///
/// Parameters occupy the first local slots ([`MethodBuilder::param`]); for
/// instance methods the receiver is slot 0 ([`MethodBuilder::this`]).
/// Forward branches use [`Label`]s created by [`MethodBuilder::label`] and
/// placed by [`MethodBuilder::bind`].
///
/// # Panics
/// [`MethodBuilder::finish`] panics if a label was created but never bound,
/// or bound twice — these are builder-usage bugs, not program bugs.
#[derive(Debug)]
pub struct MethodBuilder {
    pending: PendingMethod,
    labels: Vec<Option<Pc>>,
    fixups: Vec<(Pc, Label)>,
}

impl MethodBuilder {
    fn new(name: String, class: Option<ClassId>, num_params: u16) -> Self {
        MethodBuilder {
            pending: PendingMethod {
                name,
                class,
                num_params,
                num_locals: num_params,
                body: Vec::new(),
                local_names: (0..num_params).map(|i| format!("p{i}")).collect(),
                call_patches: Vec::new(),
            },
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// The receiver local (slot 0) of an instance method.
    ///
    /// # Panics
    /// Panics when called on a free-function builder.
    pub fn this(&self) -> Local {
        assert!(
            self.pending.class.is_some(),
            "free functions have no receiver"
        );
        Local(0)
    }

    /// The `i`-th declared parameter. For instance methods, parameter 0 is
    /// the first *explicit* parameter (slot 1).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn param(&self, i: u16) -> Local {
        let base = if self.pending.class.is_some() { 1 } else { 0 };
        let slot = base + i;
        assert!(slot < self.pending.num_params, "parameter out of range");
        Local(slot)
    }

    /// Allocates a fresh local slot with a debug name.
    pub fn new_local(&mut self, name: impl Into<String>) -> Local {
        let slot = self.pending.num_locals;
        self.pending.num_locals += 1;
        self.pending.local_names.push(name.into());
        Local(slot)
    }

    /// The pc the next emitted instruction will occupy.
    pub fn next_pc(&self) -> Pc {
        self.pending.body.len() as Pc
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.labels.len() as u32);
        self.labels.push(None);
        l
    }

    /// Binds `label` to the next instruction.
    ///
    /// # Panics
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let pc = self.next_pc();
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(pc);
    }

    fn emit(&mut self, instr: Instr) -> Pc {
        let pc = self.next_pc();
        self.pending.body.push(instr);
        pc
    }

    /// Emits `dst = constant`.
    pub fn constant(&mut self, dst: Local, value: ConstValue) {
        self.emit(Instr::Const { dst, value });
    }

    /// Emits `dst = int-constant` — shorthand for the common case.
    pub fn iconst(&mut self, dst: Local, value: i64) {
        self.constant(dst, ConstValue::Int(value));
    }

    /// Emits `dst = src`.
    pub fn mov(&mut self, dst: Local, src: Local) {
        self.emit(Instr::Move { dst, src });
    }

    /// Emits `dst = lhs op rhs`.
    pub fn binop(&mut self, dst: Local, op: BinOp, lhs: Local, rhs: Local) {
        self.emit(Instr::Binop { dst, op, lhs, rhs });
    }

    /// Emits `dst = op src`.
    pub fn unop(&mut self, dst: Local, op: UnOp, src: Local) {
        self.emit(Instr::Unop { dst, op, src });
    }

    /// Emits `dst = (lhs op rhs) ? 1 : 0`.
    pub fn cmp(&mut self, dst: Local, op: CmpOp, lhs: Local, rhs: Local) {
        self.emit(Instr::Cmp { dst, op, lhs, rhs });
    }

    /// Emits `if (lhs op rhs) goto label`.
    pub fn branch(&mut self, op: CmpOp, lhs: Local, rhs: Local, label: Label) {
        let pc = self.emit(Instr::Branch {
            op,
            lhs,
            rhs,
            target: Pc::MAX,
        });
        self.fixups.push((pc, label));
    }

    /// Emits `goto label`.
    pub fn jump(&mut self, label: Label) {
        let pc = self.emit(Instr::Jump { target: Pc::MAX });
        self.fixups.push((pc, label));
    }

    /// Emits `dst = new class`.
    pub fn new_obj(&mut self, dst: Local, class: ClassId) {
        self.emit(Instr::New { dst, class });
    }

    /// Emits `dst = newarray len`.
    pub fn new_array(&mut self, dst: Local, len: Local) {
        self.emit(Instr::NewArray { dst, len });
    }

    /// Emits `dst = obj.field`.
    pub fn get_field(&mut self, dst: Local, obj: Local, field: FieldId) {
        self.emit(Instr::GetField { dst, obj, field });
    }

    /// Emits `obj.field = src`.
    pub fn put_field(&mut self, obj: Local, field: FieldId, src: Local) {
        self.emit(Instr::PutField { obj, field, src });
    }

    /// Emits `dst = static-field`.
    pub fn get_static(&mut self, dst: Local, field: StaticId) {
        self.emit(Instr::GetStatic { dst, field });
    }

    /// Emits `static-field = src`.
    pub fn put_static(&mut self, field: StaticId, src: Local) {
        self.emit(Instr::PutStatic { field, src });
    }

    /// Emits `dst = arr[idx]`.
    pub fn array_get(&mut self, dst: Local, arr: Local, idx: Local) {
        self.emit(Instr::ArrayGet { dst, arr, idx });
    }

    /// Emits `arr[idx] = src`.
    pub fn array_put(&mut self, arr: Local, idx: Local, src: Local) {
        self.emit(Instr::ArrayPut { arr, idx, src });
    }

    /// Emits `dst = arr.length`.
    pub fn array_len(&mut self, dst: Local, arr: Local) {
        self.emit(Instr::ArrayLen { dst, arr });
    }

    /// Emits a direct call to a known method id.
    pub fn call(&mut self, dst: Option<Local>, method: MethodId, args: &[Local]) {
        let pc = self.emit(Instr::Call {
            dst,
            callee: Callee::Direct(method),
            args: args.to_vec(),
        });
        self.pending
            .call_patches
            .push((pc, PendingCallee::Direct(method)));
    }

    /// Emits a direct call to a method named `"Class.method"` or
    /// `"free_function"`, resolved when the program is finished.
    pub fn call_named(&mut self, dst: Option<Local>, name: impl Into<String>, args: &[Local]) {
        let pc = self.emit(Instr::Call {
            dst,
            callee: Callee::Direct(MethodId(u32::MAX)),
            args: args.to_vec(),
        });
        self.pending
            .call_patches
            .push((pc, PendingCallee::DirectNamed(name.into())));
    }

    /// Emits a virtual call dispatched on `args[0]`'s dynamic class.
    pub fn call_virtual(&mut self, dst: Option<Local>, name: impl Into<String>, args: &[Local]) {
        let pc = self.emit(Instr::Call {
            dst,
            callee: Callee::Virtual(u32::MAX),
            args: args.to_vec(),
        });
        self.pending
            .call_patches
            .push((pc, PendingCallee::Virtual(name.into())));
    }

    /// Emits a native call.
    pub fn call_native(&mut self, dst: Option<Local>, native: NativeId, args: &[Local]) {
        self.emit(Instr::CallNative {
            dst,
            native,
            args: args.to_vec(),
        });
    }

    /// Emits a native call that produces no value (a consumer).
    pub fn call_native_void(&mut self, native: NativeId, args: &[Local]) {
        self.call_native(None, native, args);
    }

    /// Emits `dst = spawn method(args…)`, starting a guest thread. Use
    /// [`ProgramBuilder::declare_method`] to obtain ids for methods whose
    /// bodies are defined later.
    pub fn spawn(&mut self, dst: Local, method: MethodId, args: &[Local]) {
        self.emit(Instr::Spawn {
            dst,
            callee: method,
            args: args.to_vec(),
        });
    }

    /// Emits `dst = join thread` (or a value-discarding `join thread` when
    /// `dst` is `None`).
    pub fn join(&mut self, dst: Option<Local>, thread: Local) {
        self.emit(Instr::Join { dst, thread });
    }

    /// Emits `return src`.
    pub fn ret(&mut self, src: Local) {
        self.emit(Instr::Return { src: Some(src) });
    }

    /// Emits `return`.
    pub fn ret_void(&mut self) {
        self.emit(Instr::Return { src: None });
    }

    fn resolve_labels(&mut self) {
        for (pc, label) in self.fixups.drain(..) {
            let target = self.labels[label.0 as usize]
                .unwrap_or_else(|| panic!("label {label:?} was never bound"));
            match &mut self.pending.body[pc as usize] {
                Instr::Branch { target: t, .. } | Instr::Jump { target: t } => *t = target,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
    }

    /// Registers the method and returns its id.
    pub fn finish(mut self, pb: &mut ProgramBuilder) -> MethodId {
        self.resolve_labels();
        pb.register(self.pending, None)
    }

    /// Registers the method into an id previously reserved with
    /// [`ProgramBuilder::declare_method`].
    ///
    /// # Panics
    /// Panics if the builder's signature disagrees with the declaration.
    pub fn finish_into(mut self, pb: &mut ProgramBuilder, reserved: MethodId) {
        self.resolve_labels();
        let decl = &pb.methods[reserved.index()];
        assert_eq!(decl.num_params, self.pending.num_params, "arity mismatch");
        assert_eq!(decl.class, self.pending.class, "class mismatch");
        pb.register(self.pending, Some(reserved));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocSiteId, Value};

    #[test]
    fn labels_fix_forward_and_backward_branches() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let i = m.new_local("i");
        let one = m.new_local("one");
        let lim = m.new_local("lim");
        m.iconst(i, 0);
        m.iconst(one, 1);
        m.iconst(lim, 10);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        m.branch(CmpOp::Ge, i, lim, done);
        m.binop(i, BinOp::Add, i, one);
        m.jump(head);
        m.bind(done);
        m.ret_void();
        let main = m.finish(&mut pb);
        let p = pb.finish(main).unwrap();
        let body = p.method(main).body();
        assert_eq!(body[3].branch_target(), Some(6)); // branch → done
        assert_eq!(body[5].branch_target(), Some(3)); // jump → head
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let l = m.label();
        m.jump(l);
        m.ret_void();
        let _ = m.finish(&mut pb);
    }

    #[test]
    fn virtual_calls_resolve_by_name_at_finish() {
        let mut pb = ProgramBuilder::new();
        let a = pb.class("A").finish(&mut pb);
        let b = pb.class("B").extends(a).finish(&mut pb);

        let mut fa = pb.method_on(a, "f", 0);
        let r = fa.new_local("r");
        fa.iconst(r, 1);
        fa.ret(r);
        let _fa = fa.finish(&mut pb);

        let mut fb = pb.method_on(b, "f", 0);
        let r = fb.new_local("r");
        fb.iconst(r, 2);
        fb.ret(r);
        let fb_id = fb.finish(&mut pb);

        let mut m = pb.method("main", 0);
        let o = m.new_local("o");
        let v = m.new_local("v");
        m.new_obj(o, b);
        m.call_virtual(Some(v), "f", &[o]);
        m.ret_void();
        let main = m.finish(&mut pb);
        let p = pb.finish(main).unwrap();

        let f_idx = p.method_name_idx("f").unwrap();
        assert_eq!(p.resolve_virtual(b, f_idx), Some(fb_id));
    }

    #[test]
    fn named_call_resolution_failure_is_an_error() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        m.call_named(None, "does_not_exist", &[]);
        m.ret_void();
        let main = m.finish(&mut pb);
        match pb.finish(main) {
            Err(ValidationError::UnresolvedCallee { name, .. }) => {
                assert_eq!(name, "does_not_exist")
            }
            other => panic!("expected UnresolvedCallee, got {other:?}"),
        }
    }

    #[test]
    fn inheritance_cycle_is_rejected() {
        // Construct a cycle by declaring B extends A, then A extends B via
        // direct manipulation: the public API cannot express it, so check
        // the builder rejects a self-loop expressed through `extends`.
        let mut pb = ProgramBuilder::new();
        let a = pb.class("A").finish(&mut pb);
        // A class that extends itself via a second registration pointing back.
        let b = pb.class("B").extends(a).finish(&mut pb);
        pb.classes[a.index()].1 = Some(b);
        let mut m = pb.method("main", 0);
        m.ret_void();
        let main = m.finish(&mut pb);
        assert!(matches!(
            pb.finish(main),
            Err(ValidationError::InheritanceCycle { .. })
        ));
    }

    #[test]
    fn declared_methods_support_mutual_recursion() {
        let mut pb = ProgramBuilder::new();
        let even = pb.declare_method("even", None, 1);
        let odd = pb.declare_method("odd", None, 1);

        // even(n) = n == 0 ? 1 : odd(n - 1)
        let mut me = pb.method("even", 1);
        let n = me.param(0);
        let zero = me.new_local("zero");
        let one = me.new_local("one");
        let r = me.new_local("r");
        me.iconst(zero, 0);
        me.iconst(one, 1);
        let base = me.label();
        me.branch(CmpOp::Eq, n, zero, base);
        me.binop(n, BinOp::Sub, n, one);
        me.call(Some(r), odd, &[n]);
        me.ret(r);
        me.bind(base);
        me.ret(one);
        me.finish_into(&mut pb, even);

        let mut mo = pb.method("odd", 1);
        let n = mo.param(0);
        let zero = mo.new_local("zero");
        let one = mo.new_local("one");
        let r = mo.new_local("r");
        mo.iconst(zero, 0);
        mo.iconst(one, 1);
        let base = mo.label();
        mo.branch(CmpOp::Eq, n, zero, base);
        mo.binop(n, BinOp::Sub, n, one);
        mo.call(Some(r), even, &[n]);
        mo.ret(r);
        mo.bind(base);
        mo.iconst(r, 0);
        mo.ret(r);
        mo.finish_into(&mut pb, odd);

        let mut m = pb.method("main", 0);
        m.ret_void();
        let main = m.finish(&mut pb);
        let p = pb.finish(main).unwrap();
        assert_eq!(p.method(even).name(), "even");
        assert_eq!(p.method(odd).name(), "odd");
        let _ = Value::Null; // silence unused import in some cfg combinations
    }

    #[test]
    fn alloc_sites_are_assigned_in_program_order() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").finish(&mut pb);
        let mut m = pb.method("main", 0);
        let a = m.new_local("a");
        let b = m.new_local("b");
        let n = m.new_local("n");
        m.new_obj(a, c);
        m.iconst(n, 4);
        m.new_array(b, n);
        m.ret_void();
        let main = m.finish(&mut pb);
        let p = pb.finish(main).unwrap();
        assert_eq!(p.alloc_sites().len(), 2);
        assert_eq!(p.alloc_site_at(InstrId::new(main, 0)), Some(AllocSiteId(0)));
        assert_eq!(p.alloc_site_at(InstrId::new(main, 2)), Some(AllocSiteId(1)));
        assert_eq!(p.alloc_site_at(InstrId::new(main, 1)), None);
    }

    #[test]
    fn instance_method_params_offset_past_receiver() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").finish(&mut pb);
        let m = pb.method_on(c, "m", 2);
        assert_eq!(m.this(), Local(0));
        assert_eq!(m.param(0), Local(1));
        assert_eq!(m.param(1), Local(2));
    }
}
