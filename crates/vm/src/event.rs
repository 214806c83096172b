//! The instrumentation event stream.
//!
//! Every executed instruction produces one [`Event`] carrying the
//! information the paper's instrumentation rules (Figure 4) need: which
//! local is defined, which locals are *used under the thin-slicing rule*
//! (base pointers excluded, array indices included), which heap location is
//! touched and on which object, and the value produced — the latter so that
//! value-sensitive abstract domains (null-origin tracking) can classify
//! instruction instances without re-querying the VM.
//!
//! Frame pushes and pops are reported separately via
//! [`EventSink::frame_push`](crate::EventSink::frame_push) /
//! [`EventSink::frame_pop`](crate::EventSink::frame_pop), because sinks
//! maintain shadow stacks aligned with the VM call stack.

use lowutil_ir::{
    AllocSiteId, CmpOp, FieldId, InstrId, Local, MethodId, NativeId, ObjectId, StaticId, ThreadId,
    Value,
};

/// Information about a frame being pushed (rule METHOD ENTRY).
#[derive(Debug, Clone)]
pub struct FrameInfo {
    /// The callee.
    pub method: MethodId,
    /// Call site in the caller, or `None` for the entry frame.
    pub call_site: Option<InstrId>,
    /// Number of parameters (including the receiver for instance methods).
    pub num_params: u16,
    /// Total local slots in the new frame.
    pub num_locals: u16,
    /// The receiver object for instance methods (the first argument when
    /// it is a reference), used to extend the object-sensitive context
    /// chain.
    pub receiver: Option<ObjectId>,
    /// Number of arguments passed at the call site (0 for the entry
    /// frame). Formals `0..num_args` receive the actuals' tracking data;
    /// the actual locals themselves were already reported in the
    /// preceding [`Event::Call`], so carrying just the count keeps this
    /// per-call struct allocation-free.
    pub num_args: u16,
}

/// One executed instruction, as seen by an [`EventSink`](crate::EventSink).
///
/// `at` is always the executing static instruction; `value` fields carry
/// runtime values for value-sensitive domains.
#[derive(Debug, Clone)]
pub enum Event {
    /// A stack-only computation: `Const`, `Move`, `Binop`, `Unop`, `Cmp`.
    /// Uses are the thin-slicing uses (operand locals).
    Compute {
        /// The executing instruction.
        at: InstrId,
        /// Defined local.
        dst: Local,
        /// Used locals (0, 1, or 2 of them).
        uses: [Option<Local>; 2],
        /// The value written to `dst`.
        value: Value,
    },
    /// A predicate: `if (lhs op rhs) goto …` (rule PREDICATE).
    Predicate {
        /// The executing instruction.
        at: InstrId,
        /// The comparison operator.
        op: CmpOp,
        /// Used locals.
        uses: [Local; 2],
        /// Whether the branch was taken.
        taken: bool,
    },
    /// An allocation (rule ALLOC). `dst` now holds `object`.
    Alloc {
        /// The executing instruction.
        at: InstrId,
        /// Defined local.
        dst: Local,
        /// The fresh object.
        object: ObjectId,
        /// Its allocation site.
        site: AllocSiteId,
        /// For `NewArray`, the local holding the length (a thin use).
        len_use: Option<Local>,
    },
    /// `dst = obj.field` (rule LOAD FIELD). The base pointer is *not* a
    /// thin use; the read heap location is (`object`, `field`).
    LoadField {
        /// The executing instruction.
        at: InstrId,
        /// Defined local.
        dst: Local,
        /// Local holding the base pointer (a use only under *traditional*
        /// slicing).
        base: Local,
        /// The base object.
        object: ObjectId,
        /// The field.
        field: FieldId,
        /// Storage offset of the field within the object.
        offset: u32,
        /// The loaded value.
        value: Value,
    },
    /// `obj.field = src` (rule STORE FIELD).
    StoreField {
        /// The executing instruction.
        at: InstrId,
        /// Local holding the base pointer (a traditional-slicing use).
        base: Local,
        /// The base object.
        object: ObjectId,
        /// The field.
        field: FieldId,
        /// Storage offset of the field within the object.
        offset: u32,
        /// Local holding the stored value (a thin use).
        src: Local,
        /// The stored value.
        value: Value,
    },
    /// `dst = Static` (rule LOAD STATIC).
    LoadStatic {
        /// The executing instruction.
        at: InstrId,
        /// Defined local.
        dst: Local,
        /// The static field.
        field: StaticId,
        /// The loaded value.
        value: Value,
    },
    /// `Static = src` (rule STORE STATIC).
    StoreStatic {
        /// The executing instruction.
        at: InstrId,
        /// The static field.
        field: StaticId,
        /// Local holding the stored value (a thin use).
        src: Local,
        /// The stored value.
        value: Value,
    },
    /// `dst = arr[idx]`. The index local *is* a thin use.
    ArrayLoad {
        /// The executing instruction.
        at: InstrId,
        /// Defined local.
        dst: Local,
        /// Local holding the base pointer (a traditional-slicing use).
        base: Local,
        /// The array object.
        object: ObjectId,
        /// Local holding the index (a thin use).
        idx: Local,
        /// The runtime index.
        index: u32,
        /// The loaded value.
        value: Value,
    },
    /// `arr[idx] = src`.
    ArrayStore {
        /// The executing instruction.
        at: InstrId,
        /// Local holding the base pointer (a traditional-slicing use).
        base: Local,
        /// The array object.
        object: ObjectId,
        /// Local holding the index (a thin use).
        idx: Local,
        /// The runtime index.
        index: u32,
        /// Local holding the stored value (a thin use).
        src: Local,
        /// The stored value.
        value: Value,
    },
    /// `dst = arr.length` — reads the array's header, treated as a heap
    /// read with no thin uses (the base pointer is excluded).
    ArrayLen {
        /// The executing instruction.
        at: InstrId,
        /// Defined local.
        dst: Local,
        /// Local holding the base pointer (a traditional-slicing use).
        base: Local,
        /// The array object.
        object: ObjectId,
        /// The length value written to `dst`.
        value: Value,
    },
    /// A call instruction, reported *before* the callee frame is pushed.
    /// Profilers push the tracking data of `args` onto their tracking stack
    /// (the paper's call-part rule).
    Call {
        /// The executing call instruction.
        at: InstrId,
        /// Resolved callee.
        callee: MethodId,
        /// Argument locals in the caller frame.
        args: Vec<Local>,
    },
    /// A `return` instruction, reported *before* the frame is popped.
    /// Profilers stash the tracking data of `src` (rule RETURN).
    Return {
        /// The executing return instruction.
        at: InstrId,
        /// Local holding the return value, if any.
        src: Option<Local>,
        /// The returned value.
        value: Option<Value>,
    },
    /// Control has returned to a call site; `dst` (in the caller frame) now
    /// holds the returned value. Reported *after* the frame pop.
    CallComplete {
        /// The call instruction.
        at: InstrId,
        /// Destination local in the caller, if the call stores its result.
        dst: Option<Local>,
        /// The returned value, if any.
        value: Option<Value>,
    },
    /// A native call (native node): arguments are consumed; `dst`, if
    /// present, is defined by the native.
    Native {
        /// The executing instruction.
        at: InstrId,
        /// The native method.
        native: NativeId,
        /// Argument locals (thin uses).
        args: Vec<Local>,
        /// Destination local, if the native produces a value.
        dst: Option<Local>,
        /// The produced value, if any.
        value: Option<Value>,
    },
    /// A phase marker fired (see [`NativeKind::PhaseBegin`]
    /// [`NativeKind::PhaseEnd`]): profilers may arm/disarm themselves.
    ///
    /// [`NativeKind::PhaseBegin`]: crate::NativeKind::PhaseBegin
    /// [`NativeKind::PhaseEnd`]: crate::NativeKind::PhaseEnd
    Phase {
        /// The executing instruction.
        at: InstrId,
        /// `true` for `phase_begin`, `false` for `phase_end`.
        begin: bool,
    },
    /// An unconditional jump. Carries no data flow; counted for instruction
    /// totals only.
    Jump {
        /// The executing instruction.
        at: InstrId,
    },
    /// `dst = spawn m(args…)` — a new guest thread was created. The
    /// argument locals are thin uses (their tracking data flows to the
    /// spawned thread's formals); `dst` receives the thread handle.
    Spawn {
        /// The executing instruction.
        at: InstrId,
        /// Local receiving the thread handle.
        dst: Local,
        /// The freshly assigned thread id.
        thread: ThreadId,
        /// The method the new thread runs.
        callee: MethodId,
        /// Argument locals in the spawning frame.
        args: Vec<Local>,
    },
    /// `dst = join t` — the joining thread observed the target thread's
    /// completion. The target's return-value tracking data flows to `dst`
    /// (the cross-thread analogue of `CallComplete`).
    Join {
        /// The executing instruction.
        at: InstrId,
        /// Destination local, if the join stores the thread's result.
        dst: Option<Local>,
        /// The joined thread.
        thread: ThreadId,
        /// The joined thread's return value, if any.
        value: Option<Value>,
    },
}

impl Event {
    /// The static instruction this event describes.
    pub fn at(&self) -> InstrId {
        match self {
            Event::Compute { at, .. }
            | Event::Predicate { at, .. }
            | Event::Alloc { at, .. }
            | Event::LoadField { at, .. }
            | Event::StoreField { at, .. }
            | Event::LoadStatic { at, .. }
            | Event::StoreStatic { at, .. }
            | Event::ArrayLoad { at, .. }
            | Event::ArrayStore { at, .. }
            | Event::ArrayLen { at, .. }
            | Event::Call { at, .. }
            | Event::Return { at, .. }
            | Event::CallComplete { at, .. }
            | Event::Native { at, .. }
            | Event::Phase { at, .. }
            | Event::Jump { at }
            | Event::Spawn { at, .. }
            | Event::Join { at, .. } => *at,
        }
    }

    /// The value produced by this event's instruction, if it defines one.
    pub fn produced_value(&self) -> Option<Value> {
        match self {
            Event::Compute { value, .. }
            | Event::LoadField { value, .. }
            | Event::LoadStatic { value, .. }
            | Event::ArrayLoad { value, .. }
            | Event::ArrayLen { value, .. } => Some(*value),
            Event::StoreField { value, .. }
            | Event::StoreStatic { value, .. }
            | Event::ArrayStore { value, .. } => Some(*value),
            Event::Alloc { object, .. } => Some(Value::Ref(*object)),
            Event::CallComplete { value, .. }
            | Event::Return { value, .. }
            | Event::Native { value, .. }
            | Event::Join { value, .. } => *value,
            Event::Spawn { thread, .. } => Some(Value::Int(i64::from(thread.0))),
            Event::Predicate { .. }
            | Event::Call { .. }
            | Event::Phase { .. }
            | Event::Jump { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_is_uniform_across_variants() {
        let at = InstrId::new(MethodId(1), 4);
        let e = Event::Jump { at };
        assert_eq!(e.at(), at);
        let e = Event::Predicate {
            at,
            op: CmpOp::Lt,
            uses: [Local(0), Local(1)],
            taken: true,
        };
        assert_eq!(e.at(), at);
        assert_eq!(e.produced_value(), None);
    }

    #[test]
    fn produced_value_reports_definitions() {
        let at = InstrId::new(MethodId(0), 0);
        let e = Event::Compute {
            at,
            dst: Local(0),
            uses: [None, None],
            value: Value::Int(3),
        };
        assert_eq!(e.produced_value(), Some(Value::Int(3)));
        let e = Event::Alloc {
            at,
            dst: Local(0),
            object: ObjectId(9),
            site: AllocSiteId(2),
            len_use: None,
        };
        assert_eq!(e.produced_value(), Some(Value::Ref(ObjectId(9))));
    }
}
