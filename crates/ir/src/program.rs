//! The program container: classes, methods, fields, statics, natives, and
//! allocation sites, with load-time validation.

use crate::instr::{Callee, Instr};
use crate::types::{AllocSiteId, ClassId, FieldId, InstrId, MethodId, NativeId, Pc, StaticId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A class declaration.
///
/// Classes support single inheritance. The *layout* of a class is the
/// concatenation of its superclass layout and its own fields; field offsets
/// are stable across subclasses, so a `FieldId` denotes the same storage
/// slot in every instance that has it.
#[derive(Debug, Clone)]
pub struct Class {
    pub(crate) name: String,
    pub(crate) super_class: Option<ClassId>,
    pub(crate) own_fields: Vec<FieldId>,
    /// All fields, inherited first; index = storage offset.
    pub(crate) layout: Vec<FieldId>,
    /// Methods declared directly on this class, keyed by interned name.
    pub(crate) own_methods: HashMap<u32, MethodId>,
    /// Full dispatch table (inherited + own), indexed by interned name.
    pub(crate) vtable: Vec<Option<MethodId>>,
}

impl Class {
    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The superclass, if any.
    pub fn super_class(&self) -> Option<ClassId> {
        self.super_class
    }

    /// Fields declared directly on this class.
    pub fn own_fields(&self) -> &[FieldId] {
        &self.own_fields
    }

    /// All instance fields (inherited first); the index of a field in this
    /// slice is its storage offset.
    pub fn layout(&self) -> &[FieldId] {
        &self.layout
    }

    /// Number of instance-field slots in an object of this class.
    pub fn num_slots(&self) -> usize {
        self.layout.len()
    }
}

/// A method declaration.
#[derive(Debug, Clone)]
pub struct Method {
    pub(crate) name: String,
    pub(crate) name_idx: u32,
    pub(crate) class: Option<ClassId>,
    pub(crate) num_params: u16,
    pub(crate) num_locals: u16,
    pub(crate) body: Vec<Instr>,
    pub(crate) local_names: Vec<String>,
}

impl Method {
    /// The method's simple name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Interned name index (used by virtual dispatch).
    pub fn name_idx(&self) -> u32 {
        self.name_idx
    }

    /// The class this method is declared on, or `None` for a free (static)
    /// function.
    pub fn class(&self) -> Option<ClassId> {
        self.class
    }

    /// Number of parameters, including the receiver for instance methods.
    pub fn num_params(&self) -> u16 {
        self.num_params
    }

    /// Total number of local slots (parameters occupy the first slots).
    pub fn num_locals(&self) -> u16 {
        self.num_locals
    }

    /// The instruction sequence.
    pub fn body(&self) -> &[Instr] {
        &self.body
    }

    /// Debug name for a local slot, if one was recorded by the builder.
    pub fn local_name(&self, slot: usize) -> Option<&str> {
        self.local_names
            .get(slot)
            .map(String::as_str)
            .filter(|s| !s.is_empty())
    }
}

/// A static (global) field declaration.
#[derive(Debug, Clone)]
pub struct StaticDecl {
    pub(crate) name: String,
}

impl StaticDecl {
    /// The static field's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A native method registration.
///
/// The IR only records the signature; semantics are supplied by the VM's
/// native registry. Natives with `returns == false` are pure consumers
/// (program output) in the dependence graph.
#[derive(Debug, Clone)]
pub struct NativeDecl {
    pub(crate) name: String,
    pub(crate) arity: u16,
    pub(crate) returns: bool,
}

impl NativeDecl {
    /// The native method's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of arguments.
    pub fn arity(&self) -> u16 {
        self.arity
    }

    /// Whether the native produces a value.
    pub fn returns(&self) -> bool {
        self.returns
    }
}

/// The kind of object an allocation site creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocKind {
    /// A class instance.
    Class(ClassId),
    /// An array.
    Array,
}

/// Descriptor of one allocation site.
#[derive(Debug, Clone, Copy)]
pub struct AllocSite {
    /// The allocating instruction.
    pub instr: InstrId,
    /// What it allocates.
    pub kind: AllocKind,
}

/// A validated, executable program.
///
/// Construct via [`ProgramBuilder`](crate::ProgramBuilder) or
/// [`parse_program`](crate::parse_program).
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) classes: Vec<Class>,
    pub(crate) methods: Vec<Method>,
    pub(crate) field_names: Vec<String>,
    pub(crate) field_owner: Vec<ClassId>,
    pub(crate) statics: Vec<StaticDecl>,
    pub(crate) natives: Vec<NativeDecl>,
    pub(crate) method_names: Vec<String>,
    pub(crate) entry: MethodId,
    pub(crate) alloc_sites: Vec<AllocSite>,
    /// Allocation site of each instruction, indexed by method then pc.
    pub(crate) alloc_site_of: Vec<Vec<Option<AllocSiteId>>>,
    /// Per-class field offsets, indexed by [`FieldId`]. Dense tables, not
    /// maps: the interpreter looks these up on every field access.
    pub(crate) offsets: Vec<Vec<Option<u32>>>,
}

impl Program {
    /// The entry method (conventionally `main`).
    pub fn entry(&self) -> MethodId {
        self.entry
    }

    /// All classes.
    pub fn classes(&self) -> &[Class] {
        &self.classes
    }

    /// Looks up a class.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this program.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// All methods.
    pub fn methods(&self) -> &[Method] {
        &self.methods
    }

    /// Looks up a method.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this program.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Looks up an instruction by its global id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn instr(&self, id: InstrId) -> &Instr {
        &self.methods[id.method.index()].body[id.pc as usize]
    }

    /// The name of an instance field.
    pub fn field_name(&self, id: FieldId) -> &str {
        &self.field_names[id.index()]
    }

    /// The class that declares an instance field.
    pub fn field_owner(&self, id: FieldId) -> ClassId {
        self.field_owner[id.index()]
    }

    /// Total number of instance fields across all classes.
    pub fn num_fields(&self) -> usize {
        self.field_names.len()
    }

    /// All static fields.
    pub fn statics(&self) -> &[StaticDecl] {
        &self.statics
    }

    /// All native methods.
    pub fn natives(&self) -> &[NativeDecl] {
        &self.natives
    }

    /// Looks up a native declaration.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this program.
    pub fn native(&self, id: NativeId) -> &NativeDecl {
        &self.natives[id.index()]
    }

    /// The interned method-name table (indexed by [`Method::name_idx`]).
    pub fn method_names(&self) -> &[String] {
        &self.method_names
    }

    /// Finds the interned index of a method name, if any method uses it.
    pub fn method_name_idx(&self, name: &str) -> Option<u32> {
        self.method_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as u32)
    }

    /// Finds a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClassId(i as u32))
    }

    /// Finds a method by `Class.name` / free-function name.
    pub fn method_by_name(&self, qualified: &str) -> Option<MethodId> {
        if let Some((cls, m)) = qualified.split_once('.') {
            let cid = self.class_by_name(cls)?;
            let idx = self.method_name_idx(m)?;
            self.classes[cid.index()].own_methods.get(&idx).copied()
        } else {
            self.methods
                .iter()
                .position(|m| m.class.is_none() && m.name == qualified)
                .map(|i| MethodId(i as u32))
        }
    }

    /// Resolves a virtual call on a receiver of dynamic class `class`.
    pub fn resolve_virtual(&self, class: ClassId, name_idx: u32) -> Option<MethodId> {
        self.classes[class.index()]
            .vtable
            .get(name_idx as usize)
            .copied()
            .flatten()
    }

    /// Storage offset of `field` within an instance of `class`.
    pub fn field_offset(&self, class: ClassId, field: FieldId) -> Option<u32> {
        self.offsets[class.index()]
            .get(field.index())
            .copied()
            .flatten()
    }

    /// Returns `true` if `class` is `ancestor` or a (transitive) subclass.
    pub fn is_subclass_of(&self, class: ClassId, ancestor: ClassId) -> bool {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = self.classes[c.index()].super_class;
        }
        false
    }

    /// All allocation sites, indexed by [`AllocSiteId`].
    pub fn alloc_sites(&self) -> &[AllocSite] {
        &self.alloc_sites
    }

    /// The allocation site of an allocating instruction.
    pub fn alloc_site_at(&self, instr: InstrId) -> Option<AllocSiteId> {
        self.alloc_site_of
            .get(instr.method.index())?
            .get(instr.pc as usize)
            .copied()
            .flatten()
    }

    /// Numbers the allocating instructions in program order: the ids
    /// [`alloc_sites`](Self::alloc_sites) and
    /// [`alloc_site_at`](Self::alloc_site_at) report.
    pub(crate) fn assign_alloc_sites(&mut self) {
        self.alloc_sites.clear();
        self.alloc_site_of = self
            .methods
            .iter()
            .map(|m| vec![None; m.body.len()])
            .collect();
        for (mi, m) in self.methods.iter().enumerate() {
            for (pc, instr) in m.body.iter().enumerate() {
                let kind = match instr {
                    Instr::New { class, .. } => AllocKind::Class(*class),
                    i if i.is_alloc() => AllocKind::Array,
                    _ => continue,
                };
                self.alloc_site_of[mi][pc] = Some(AllocSiteId(self.alloc_sites.len() as u32));
                self.alloc_sites.push(AllocSite {
                    instr: InstrId::new(MethodId(mi as u32), pc as Pc),
                    kind,
                });
            }
        }
    }

    /// Total number of static instructions (the size of domain `I`).
    pub fn num_instrs(&self) -> usize {
        self.methods.iter().map(|m| m.body.len()).sum()
    }

    /// Iterates over every static instruction id in the program.
    pub fn instr_ids(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.methods.iter().enumerate().flat_map(|(mi, m)| {
            (0..m.body.len() as Pc).map(move |pc| InstrId::new(MethodId(mi as u32), pc))
        })
    }

    /// A short human-readable label for an instruction id, e.g.
    /// `"A.foo:3"`.
    pub fn instr_label(&self, id: InstrId) -> String {
        let m = self.method(id.method);
        match m.class {
            Some(c) => format!("{}.{}:{}", self.class(c).name, m.name, id.pc),
            None => format!("{}:{}", m.name, id.pc),
        }
    }

    /// Produces a new program with every method body passed through
    /// `rewrite`. Allocation-site ids are re-assigned in program order
    /// (transformations may add or remove allocations) and the result is
    /// re-validated — the transformation API used by profile-guided
    /// optimization passes.
    ///
    /// The rewriter receives the method id and its current body and
    /// returns the replacement body; local counts are unchanged, so
    /// rewrites may only reference existing slots.
    ///
    /// # Errors
    /// Returns a [`ValidationError`] if a rewritten body is structurally
    /// invalid.
    pub fn with_rewritten_bodies<F>(&self, mut rewrite: F) -> Result<Program, ValidationError>
    where
        F: FnMut(MethodId, &[Instr]) -> Vec<Instr>,
    {
        let mut p = self.clone();
        for (mi, m) in p.methods.iter_mut().enumerate() {
            m.body = rewrite(MethodId(mi as u32), &self.methods[mi].body);
        }
        p.assign_alloc_sites();
        p.validate()?;
        Ok(p)
    }

    /// Validates the whole program. Called by the builder; exposed for
    /// programs constructed by other front ends.
    ///
    /// # Errors
    /// Returns the first structural problem found; see [`ValidationError`].
    pub fn validate(&self) -> Result<(), ValidationError> {
        for (mi, m) in self.methods.iter().enumerate() {
            let mid = MethodId(mi as u32);
            if m.num_params > m.num_locals {
                return Err(ValidationError::ParamsExceedLocals { method: mid });
            }
            if m.body.is_empty() {
                return Err(ValidationError::EmptyBody { method: mid });
            }
            if m.body.last().map(Instr::falls_through) == Some(true) {
                return Err(ValidationError::FallsOffEnd { method: mid });
            }
            for (pc, instr) in m.body.iter().enumerate() {
                let at = InstrId::new(mid, pc as Pc);
                let check_local = |l: crate::Local| {
                    if l.index() >= m.num_locals as usize {
                        Err(ValidationError::LocalOutOfRange { at, local: l })
                    } else {
                        Ok(())
                    }
                };
                if let Some(d) = instr.def() {
                    check_local(d)?;
                }
                for u in instr.full_uses() {
                    check_local(u)?;
                }
                if let Some(t) = instr.branch_target() {
                    if t as usize >= m.body.len() {
                        return Err(ValidationError::BadBranchTarget { at, target: t });
                    }
                }
                match instr {
                    Instr::New { class, .. } if class.index() >= self.classes.len() => {
                        return Err(ValidationError::UnknownClass { at, class: *class });
                    }
                    Instr::GetField { field, .. } | Instr::PutField { field, .. }
                        if field.index() >= self.field_names.len() =>
                    {
                        return Err(ValidationError::UnknownField { at, field: *field });
                    }
                    Instr::GetStatic { field, .. } | Instr::PutStatic { field, .. }
                        if field.index() >= self.statics.len() =>
                    {
                        return Err(ValidationError::UnknownStatic { at, field: *field });
                    }
                    Instr::Call { callee, args, .. } => match callee {
                        Callee::Direct(target) => {
                            let Some(t) = self.methods.get(target.index()) else {
                                return Err(ValidationError::UnknownMethod {
                                    at,
                                    method: *target,
                                });
                            };
                            if t.num_params as usize != args.len() {
                                return Err(ValidationError::ArityMismatch {
                                    at,
                                    expected: t.num_params as usize,
                                    found: args.len(),
                                });
                            }
                        }
                        Callee::Virtual(name_idx) => {
                            if *name_idx as usize >= self.method_names.len() {
                                return Err(ValidationError::UnknownMethodName {
                                    at,
                                    name_idx: *name_idx,
                                });
                            }
                            if args.is_empty() {
                                return Err(ValidationError::VirtualCallWithoutReceiver { at });
                            }
                        }
                    },
                    Instr::Spawn { callee, args, .. } => {
                        let Some(t) = self.methods.get(callee.index()) else {
                            return Err(ValidationError::UnknownMethod {
                                at,
                                method: *callee,
                            });
                        };
                        if t.num_params as usize != args.len() {
                            return Err(ValidationError::ArityMismatch {
                                at,
                                expected: t.num_params as usize,
                                found: args.len(),
                            });
                        }
                    }
                    Instr::CallNative { native, args, .. } => {
                        let Some(n) = self.natives.get(native.index()) else {
                            return Err(ValidationError::UnknownNative {
                                at,
                                native: *native,
                            });
                        };
                        if n.arity as usize != args.len() {
                            return Err(ValidationError::ArityMismatch {
                                at,
                                expected: n.arity as usize,
                                found: args.len(),
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
        if self.entry.index() >= self.methods.len() {
            return Err(ValidationError::UnknownMethod {
                at: InstrId::new(self.entry, 0),
                method: self.entry,
            });
        }
        Ok(())
    }
}

/// A structural problem detected while validating a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidationError {
    /// A method declares more parameters than local slots.
    ParamsExceedLocals {
        /// The offending method.
        method: MethodId,
    },
    /// A method has an empty body.
    EmptyBody {
        /// The offending method.
        method: MethodId,
    },
    /// The last instruction of a method can fall through past the end.
    FallsOffEnd {
        /// The offending method.
        method: MethodId,
    },
    /// An instruction names a local slot outside the frame.
    LocalOutOfRange {
        /// The offending instruction.
        at: InstrId,
        /// The out-of-range local.
        local: crate::Local,
    },
    /// A branch targets a program counter outside the method body.
    BadBranchTarget {
        /// The offending instruction.
        at: InstrId,
        /// The bad target.
        target: Pc,
    },
    /// A `new` names an unknown class.
    UnknownClass {
        /// The offending instruction.
        at: InstrId,
        /// The unknown class id.
        class: ClassId,
    },
    /// A field access names an unknown field.
    UnknownField {
        /// The offending instruction.
        at: InstrId,
        /// The unknown field id.
        field: FieldId,
    },
    /// A static access names an unknown static field.
    UnknownStatic {
        /// The offending instruction.
        at: InstrId,
        /// The unknown static id.
        field: StaticId,
    },
    /// A call names an unknown method.
    UnknownMethod {
        /// The offending instruction.
        at: InstrId,
        /// The unknown method id.
        method: MethodId,
    },
    /// A virtual call uses an un-interned method name.
    UnknownMethodName {
        /// The offending instruction.
        at: InstrId,
        /// The unknown name index.
        name_idx: u32,
    },
    /// A virtual call has no receiver argument.
    VirtualCallWithoutReceiver {
        /// The offending instruction.
        at: InstrId,
    },
    /// A native call names an unknown native method.
    UnknownNative {
        /// The offending instruction.
        at: InstrId,
        /// The unknown native id.
        native: NativeId,
    },
    /// A call passes the wrong number of arguments.
    ArityMismatch {
        /// The offending instruction.
        at: InstrId,
        /// Parameters the callee declares.
        expected: usize,
        /// Arguments the call passes.
        found: usize,
    },
    /// The class hierarchy contains an inheritance cycle.
    InheritanceCycle {
        /// A class on the cycle.
        class: ClassId,
    },
    /// A named callee could not be resolved while finishing the program.
    UnresolvedCallee {
        /// The offending instruction.
        at: InstrId,
        /// The unresolved name.
        name: String,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::ParamsExceedLocals { method } => {
                write!(f, "method {method} declares more parameters than locals")
            }
            ValidationError::EmptyBody { method } => {
                write!(f, "method {method} has an empty body")
            }
            ValidationError::FallsOffEnd { method } => {
                write!(f, "method {method} can fall off the end of its body")
            }
            ValidationError::LocalOutOfRange { at, local } => {
                write!(f, "instruction {at} names out-of-range local {local}")
            }
            ValidationError::BadBranchTarget { at, target } => {
                write!(f, "instruction {at} branches to invalid pc {target}")
            }
            ValidationError::UnknownClass { at, class } => {
                write!(f, "instruction {at} names unknown class {class}")
            }
            ValidationError::UnknownField { at, field } => {
                write!(f, "instruction {at} names unknown field {field}")
            }
            ValidationError::UnknownStatic { at, field } => {
                write!(f, "instruction {at} names unknown static {field}")
            }
            ValidationError::UnknownMethod { at, method } => {
                write!(f, "instruction {at} names unknown method {method}")
            }
            ValidationError::UnknownMethodName { at, name_idx } => {
                write!(
                    f,
                    "instruction {at} uses unknown method-name index {name_idx}"
                )
            }
            ValidationError::VirtualCallWithoutReceiver { at } => {
                write!(f, "virtual call at {at} has no receiver argument")
            }
            ValidationError::UnknownNative { at, native } => {
                write!(f, "instruction {at} names unknown native {native}")
            }
            ValidationError::ArityMismatch {
                at,
                expected,
                found,
            } => {
                write!(
                    f,
                    "call at {at} passes {found} arguments but callee declares {expected}"
                )
            }
            ValidationError::InheritanceCycle { class } => {
                write!(f, "class {class} participates in an inheritance cycle")
            }
            ValidationError::UnresolvedCallee { at, name } => {
                write!(f, "call at {at} names unresolvable method `{name}`")
            }
        }
    }
}

impl Error for ValidationError {}

#[cfg(test)]
mod tests {
    use crate::{ConstValue, ProgramBuilder};

    #[test]
    fn subclass_relation_is_reflexive_and_transitive() {
        let mut pb = ProgramBuilder::new();
        let a = pb.class("A").finish(&mut pb);
        let b = pb.class("B").extends(a).finish(&mut pb);
        let c = pb.class("C").extends(b).finish(&mut pb);
        let mut m = pb.method("main", 0);
        m.ret_void();
        let main = m.finish(&mut pb);
        let p = pb.finish(main).unwrap();
        assert!(p.is_subclass_of(c, a));
        assert!(p.is_subclass_of(c, c));
        assert!(!p.is_subclass_of(a, c));
    }

    #[test]
    fn num_instrs_counts_every_method() {
        let mut pb = ProgramBuilder::new();
        let mut m1 = pb.method("helper", 0);
        let x = m1.new_local("x");
        m1.constant(x, ConstValue::Int(1));
        m1.ret(x);
        let _h = m1.finish(&mut pb);
        let mut m0 = pb.method("main", 0);
        m0.ret_void();
        let main = m0.finish(&mut pb);
        let p = pb.finish(main).unwrap();
        assert_eq!(p.num_instrs(), 3);
        assert_eq!(p.instr_ids().count(), 3);
    }

    #[test]
    fn rewritten_bodies_reassign_alloc_sites_and_validate() {
        use crate::{AllocSiteId, Instr, InstrId};
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").finish(&mut pb);
        let mut m = pb.method("main", 0);
        let a = m.new_local("a");
        let b = m.new_local("b");
        m.new_obj(a, c);
        m.new_obj(b, c);
        m.ret_void();
        let main = m.finish(&mut pb);
        let p = pb.finish(main).unwrap();
        assert_eq!(p.alloc_sites().len(), 2);

        // Drop the first allocation; sites renumber.
        let rewritten = p
            .with_rewritten_bodies(|_, body| body[1..].to_vec())
            .unwrap();
        assert_eq!(rewritten.alloc_sites().len(), 1);
        assert_eq!(
            rewritten.alloc_site_at(InstrId::new(main, 0)),
            Some(AllocSiteId(0))
        );

        // A rewrite producing an invalid body is rejected.
        let bad = p.with_rewritten_bodies(|_, _| vec![Instr::Jump { target: 99 }]);
        assert!(bad.is_err());
    }

    #[test]
    fn method_by_name_resolves_qualified_and_free() {
        let mut pb = ProgramBuilder::new();
        let a = pb.class("A").finish(&mut pb);
        let mut foo = pb.method_on(a, "foo", 1);
        foo.ret_void();
        let foo_id = foo.finish(&mut pb);
        let mut m = pb.method("main", 0);
        m.ret_void();
        let main = m.finish(&mut pb);
        let p = pb.finish(main).unwrap();
        assert_eq!(p.method_by_name("A.foo"), Some(foo_id));
        assert_eq!(p.method_by_name("main"), Some(main));
        assert_eq!(p.method_by_name("A.bar"), None);
        assert_eq!(p.method_by_name("nosuch"), None);
    }
}
