//! The execution engine.
//!
//! An iterative (explicit-call-stack) interpreter over validated
//! [`Program`]s. Every executed instruction is counted and reported to the
//! attached [`EventSink`]; runtime failures surface as [`Trap`]s carrying the
//! faulting instruction, which the null-origin analysis uses as its seed.

use crate::event::{Event, FrameInfo};
use crate::heap::Heap;
use crate::natives::{NativeKind, NativeRegistry, NativeState};
use crate::sink::EventSink;
use lowutil_ir::{
    BinOp, Callee, ClassId, CmpOp, Instr, InstrId, Local, MethodId, Pc, Program, ThreadId, UnOp,
    Value,
};
use std::error::Error;
use std::fmt;
use std::mem;

/// The default [`RunConfig::max_stack`]. The trace writer's largest
/// segment prologue, and with it the streaming reader's default record
/// limit, is sized for a stack this deep.
pub(crate) const DEFAULT_MAX_STACK: usize = 1 << 14;

/// Limits and seeds for one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Abort with [`TrapKind::InstructionBudgetExceeded`] after this many
    /// executed instructions. Guards against runaway loops in workloads.
    pub max_instructions: u64,
    /// Maximum call-stack depth (per guest thread).
    pub max_stack: usize,
    /// Seed for the deterministic `rand` native.
    pub seed: u64,
    /// Seed for the deterministic round-robin thread scheduler. Different
    /// seeds produce different (but reproducible) interleavings; race-free
    /// programs produce identical profiles under every seed.
    pub sched_seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_instructions: 2_000_000_000,
            max_stack: DEFAULT_MAX_STACK,
            seed: 0x5eed_1011,
            sched_seed: 0,
        }
    }
}

/// What a completed run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Total executed instructions (the paper's column `I`, at workload
    /// scale).
    pub instructions_executed: u64,
    /// Instructions executed while a `phase_begin`/`phase_end` window was
    /// open (0 if the program has no phase markers).
    pub instructions_in_phase: u64,
    /// The entry method's return value.
    pub return_value: Option<Value>,
    /// Values passed to `print`/`sink` natives, in order — the program's
    /// observable output, used to check that optimized workload variants
    /// are behaviour-preserving.
    pub output: Vec<Value>,
    /// Total objects allocated.
    pub objects_allocated: usize,
}

/// Why execution aborted.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TrapKind {
    /// A field/array access or virtual call on a null reference. The local
    /// holding the null base pointer is recorded for null-origin tracking.
    NullDereference {
        /// The base-pointer local.
        base: Local,
    },
    /// An array access outside `[0, len)`.
    IndexOutOfBounds {
        /// The runtime index.
        index: i64,
        /// The array length.
        len: usize,
    },
    /// Integer division or remainder by zero.
    DivideByZero,
    /// An operand had the wrong kind for its operator.
    TypeError {
        /// Description of the mismatch.
        message: String,
    },
    /// Call-stack depth exceeded [`RunConfig::max_stack`].
    StackOverflow,
    /// Virtual dispatch found no method of the given name.
    NoSuchMethod {
        /// The receiver's dynamic class.
        class: ClassId,
        /// The interned method-name index.
        name_idx: u32,
    },
    /// A field access on an object whose class does not declare the field.
    NoSuchField,
    /// The instruction budget of [`RunConfig::max_instructions`] ran out.
    InstructionBudgetExceeded,
    /// A declared native has no built-in behaviour.
    UnknownNative {
        /// The unresolvable name.
        name: String,
    },
    /// A virtual-call arity mismatch discovered at dispatch time.
    ArityMismatch {
        /// Parameters the resolved method declares.
        expected: usize,
        /// Arguments the call passed.
        found: usize,
    },
    /// A `join` on an integer that is not a live thread handle.
    InvalidThreadHandle {
        /// The runtime handle value.
        handle: i64,
    },
    /// Every unfinished thread is blocked on a `join` — no thread can make
    /// progress (e.g. a thread joining itself, or a join cycle).
    Deadlock,
}

/// A runtime failure, with the faulting instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Trap {
    /// What went wrong.
    pub kind: TrapKind,
    /// The faulting instruction.
    pub at: InstrId,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TrapKind::NullDereference { base } => {
                write!(f, "null dereference of {base} at {}", self.at)
            }
            TrapKind::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds (len {len}) at {}", self.at)
            }
            TrapKind::DivideByZero => write!(f, "division by zero at {}", self.at),
            TrapKind::TypeError { message } => write!(f, "type error at {}: {message}", self.at),
            TrapKind::StackOverflow => write!(f, "stack overflow at {}", self.at),
            TrapKind::NoSuchMethod { class, name_idx } => {
                write!(
                    f,
                    "no virtual method (name #{name_idx}) on {class} at {}",
                    self.at
                )
            }
            TrapKind::NoSuchField => write!(f, "no such field on receiver at {}", self.at),
            TrapKind::InstructionBudgetExceeded => {
                write!(f, "instruction budget exceeded at {}", self.at)
            }
            TrapKind::UnknownNative { name } => {
                write!(f, "native `{name}` has no behaviour (at {})", self.at)
            }
            TrapKind::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "virtual call passes {found} args, method declares {expected}, at {}",
                    self.at
                )
            }
            TrapKind::InvalidThreadHandle { handle } => {
                write!(f, "join on invalid thread handle {handle} at {}", self.at)
            }
            TrapKind::Deadlock => {
                write!(f, "deadlock: all threads blocked on joins at {}", self.at)
            }
        }
    }
}

impl Error for Trap {}

/// One activation. Its locals are the window `[base, base + num_locals)`
/// of its thread's slot array. While the frame runs, its `pc` lives in
/// the dispatch loop and this field is stale; it is written back when the
/// thread parks, blocks on a join or calls.
#[derive(Debug)]
struct Frame {
    method: MethodId,
    pc: Pc,
    base: usize,
    /// Where the caller wants the return value.
    ret_dst: Option<Local>,
    /// The call instruction in the caller.
    call_site: Option<InstrId>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ThreadStatus {
    Runnable,
    /// Waiting on a `join` of the named thread; woken when it finishes.
    Blocked {
        on: u32,
    },
    /// Root frame returned; the value is available to joiners forever.
    Finished(Option<Value>),
}

/// One guest thread: a private call stack and slot array plus scheduling
/// state; the heap and statics are shared.
#[derive(Debug)]
struct GuestThread {
    /// The thread's frames while it is parked; empty while it runs (the
    /// running thread's frames live in `Interp::stack`).
    stack: Vec<Frame>,
    /// The thread's locals while it is parked, every frame's window end
    /// to end; empty while it runs (see `Interp::locals`).
    locals: Vec<Value>,
    status: ThreadStatus,
    /// Entry method and argument values, pushed as the root frame the
    /// first time the scheduler runs this thread (so the sink sees the
    /// frame push on the thread it belongs to).
    start: Option<(MethodId, Vec<Value>)>,
}

/// xorshift64* stream driving scheduling-quantum choices. Distinct from the
/// `rand` native's stream so scheduling never perturbs program semantics.
#[derive(Debug)]
struct SchedRng(u64);

impl SchedRng {
    fn new(seed: u64) -> Self {
        // splitmix-style avalanche so seeds 0 and 1 diverge immediately.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SchedRng((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Instructions the current thread runs before the next switch point.
    fn quantum(&mut self) -> u32 {
        1 + (self.next() % 61) as u32
    }
}

/// The interpreter.
///
/// A `Vm` borrows a validated [`Program`]; each [`Vm::run`] executes the
/// program's entry method from a fresh heap under the given [`EventSink`].
#[derive(Debug)]
pub struct Vm<'p> {
    program: &'p Program,
    config: RunConfig,
}

impl<'p> Vm<'p> {
    /// Creates a VM for `program` with the default [`RunConfig`].
    pub fn new(program: &'p Program) -> Self {
        Vm {
            program,
            config: RunConfig::default(),
        }
    }

    /// Creates a VM with an explicit configuration.
    pub fn with_config(program: &'p Program, config: RunConfig) -> Self {
        Vm { program, config }
    }

    /// The program this VM executes.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Executes the entry method with no arguments.
    ///
    /// # Errors
    /// Returns a [`Trap`] on any runtime failure; see [`TrapKind`].
    pub fn run<T: EventSink>(&self, sink: &mut T) -> Result<RunOutcome, Trap> {
        self.run_method(self.program.entry(), &[], sink)
    }

    /// Executes an arbitrary method with the given argument values.
    ///
    /// # Errors
    /// Returns a [`Trap`] on any runtime failure; see [`TrapKind`].
    pub fn run_method<T: EventSink>(
        &self,
        entry: MethodId,
        args: &[Value],
        sink: &mut T,
    ) -> Result<RunOutcome, Trap> {
        Interp {
            program: self.program,
            config: self.config,
            registry: NativeRegistry::for_program(self.program).map_err(|e| Trap {
                kind: TrapKind::UnknownNative { name: e.name },
                at: InstrId::new(entry, 0),
            })?,
            natives: NativeState::new(self.config.seed),
            heap: Heap::new(),
            threads: Vec::new(),
            stack: Vec::new(),
            locals: Vec::new(),
            fp: 0,
            cur: 0,
            executed: 0,
            in_phase: 0,
            phase_depth: 0,
            output: Vec::new(),
            statics: Vec::new(),
        }
        .run(entry, args, sink)
    }
}

struct Interp<'p> {
    program: &'p Program,
    config: RunConfig,
    registry: NativeRegistry,
    natives: NativeState,
    heap: Heap,
    threads: Vec<GuestThread>,
    /// The running thread's call stack, swapped with its
    /// `threads[cur].stack` slot only when the scheduler switches threads.
    stack: Vec<Frame>,
    /// The running thread's slot array, swapped like `stack`.
    locals: Vec<Value>,
    /// The running frame's base in `locals`.
    fp: usize,
    /// Index of the currently scheduled thread.
    cur: usize,
    executed: u64,
    in_phase: u64,
    phase_depth: u32,
    output: Vec<Value>,
    statics: Vec<Value>,
}

impl<'p> Interp<'p> {
    fn trap(&self, at: InstrId, kind: TrapKind) -> Trap {
        Trap { kind, at }
    }

    /// Opens `method`'s window on top of the running thread's slot array
    /// and makes it the running frame: its first slots receive `args`,
    /// the rest start null.
    fn push_frame<T: EventSink>(
        &mut self,
        method: MethodId,
        args: Args<'_>,
        ret_dst: Option<Local>,
        call_site: Option<InstrId>,
        sink: &mut T,
    ) -> Result<(), TrapKind> {
        if self.stack.len() >= self.config.max_stack {
            return Err(TrapKind::StackOverflow);
        }
        let m = self.program.method(method);
        let base = self.locals.len();
        self.locals
            .resize(base + m.num_locals() as usize, Value::Null);
        let num_args = match args {
            Args::Values(values) => {
                self.locals[base..base + values.len()].copy_from_slice(values);
                values.len()
            }
            Args::Locals(locals) => {
                // The caller's window lies below `base`, so no argument
                // is overwritten before it is read.
                for (i, l) in locals.iter().enumerate() {
                    self.locals[base + i] = self.locals[self.fp + l.index()];
                }
                locals.len()
            }
        };
        let receiver = if m.class().is_some() && num_args > 0 {
            self.locals[base].as_ref_id()
        } else {
            None
        };
        self.stack.push(Frame {
            method,
            pc: 0,
            base,
            ret_dst,
            call_site,
        });
        self.fp = base;
        sink.frame_push(&FrameInfo {
            method,
            call_site,
            num_params: m.num_params(),
            num_locals: m.num_locals(),
            receiver,
            num_args: num_args as u16,
        });
        Ok(())
    }

    fn run<T: EventSink>(
        mut self,
        entry: MethodId,
        args: &[Value],
        sink: &mut T,
    ) -> Result<RunOutcome, Trap> {
        self.threads.push(GuestThread {
            stack: Vec::new(),
            locals: Vec::new(),
            status: ThreadStatus::Runnable,
            start: Some((entry, args.to_vec())),
        });
        let mut rng = SchedRng::new(self.config.sched_seed);
        let mut quantum = rng.quantum();

        let mut final_return: Option<Value> = None;
        // `self.program` is `&'p Program`, so instructions can be borrowed
        // for 'p through a copy of the reference — no per-instruction
        // clone, and no conflict with the `&mut self` borrow in `step`.
        let program: &'p Program = self.program;
        'sched: loop {
            // Pick a thread: keep the current one while it is runnable
            // and has quantum left, else round-robin to the next runnable
            // thread. A single-threaded program never switches, so the
            // sink's `thread` hook is never called — the event stream
            // is byte-identical to the pre-thread VM.
            if quantum == 0 || self.threads[self.cur].status != ThreadStatus::Runnable {
                let n = self.threads.len();
                let next = (1..=n)
                    .map(|off| (self.cur + off) % n)
                    .find(|&t| self.threads[t].status == ThreadStatus::Runnable);
                match next {
                    Some(t) => {
                        if t != self.cur {
                            sink.thread(ThreadId(t as u32));
                            self.swap_thread();
                            self.cur = t;
                            self.swap_thread();
                            self.fp = self.stack.last().map_or(0, |f| f.base);
                        }
                        quantum = rng.quantum();
                    }
                    None => {
                        if self
                            .threads
                            .iter()
                            .all(|t| matches!(t.status, ThreadStatus::Finished(_)))
                        {
                            break 'sched;
                        }
                        // Every unfinished thread is blocked: deadlock.
                        // Report the join site of the lowest such thread,
                        // whose frames are parked unless it is running.
                        let at = self
                            .threads
                            .iter()
                            .position(|t| matches!(t.status, ThreadStatus::Blocked { .. }))
                            .and_then(|i| {
                                if i == self.cur {
                                    self.stack.last()
                                } else {
                                    self.threads[i].stack.last()
                                }
                            })
                            .map(|f| InstrId::new(f.method, f.pc))
                            .unwrap_or(InstrId::new(entry, 0));
                        return Err(self.trap(at, TrapKind::Deadlock));
                    }
                }
            }
            if let Some((m, start_args)) = self.threads[self.cur].start.take() {
                self.push_frame(m, Args::Values(&start_args), None, None, sink)
                    .map_err(|k| self.trap(InstrId::new(m, 0), k))?;
            }

            // Run the current thread until its quantum expires, it blocks
            // on a join, its root frame returns, or it traps; only those
            // can change which thread the scheduler picks. The running
            // frame's method, body and pc live in these locals, and the
            // pc goes back to the frame only when the thread parks,
            // blocks or calls.
            let (mut method, mut pc) = {
                let f = self.stack.last().expect("non-empty stack");
                (f.method, f.pc)
            };
            let mut body = program.method(method).body();
            loop {
                let at = InstrId::new(method, pc);
                let instr = &body[pc as usize];
                // A join whose target has not finished blocks *without*
                // executing: the attempt is not counted and emits no
                // event, so instruction totals and traces stay
                // schedule-independent.
                if let Instr::Join { thread, .. } = instr {
                    let tid = self.thread_handle(*thread).map_err(|k| self.trap(at, k))?;
                    if !matches!(self.threads[tid.index()].status, ThreadStatus::Finished(_)) {
                        self.threads[self.cur].status = ThreadStatus::Blocked { on: tid.0 };
                        // The deadlock check reads a blocked frame's pc.
                        self.park(pc);
                        continue 'sched;
                    }
                }
                if self.executed >= self.config.max_instructions {
                    return Err(self.trap(at, TrapKind::InstructionBudgetExceeded));
                }
                self.executed += 1;
                quantum -= 1;
                if self.phase_depth > 0 {
                    self.in_phase += 1;
                }
                match self.step(at, instr, sink) {
                    Ok(Step::Next) => pc += 1,
                    Ok(Step::Jump(target)) => pc = target,
                    Ok(Step::Enter) => {
                        // The callee is on top; the caller resumes from
                        // its frame's pc when the callee returns.
                        let n = self.stack.len();
                        self.stack[n - 2].pc = pc;
                        method = self.stack[n - 1].method;
                        body = program.method(method).body();
                        pc = 0;
                    }
                    Ok(Step::Leave(value)) => {
                        let frame = self.stack.pop().expect("frame");
                        self.locals.truncate(frame.base);
                        sink.frame_pop();
                        let Some(caller) = self.stack.last() else {
                            // Root frame returned: the thread is done, and
                            // its joiners can run again.
                            if self.cur == 0 {
                                final_return = value;
                            }
                            let me = self.cur as u32;
                            self.threads[self.cur].status = ThreadStatus::Finished(value);
                            for t in &mut self.threads {
                                if t.status == (ThreadStatus::Blocked { on: me }) {
                                    t.status = ThreadStatus::Runnable;
                                }
                            }
                            continue 'sched;
                        };
                        (method, pc) = (caller.method, caller.pc + 1);
                        self.fp = caller.base;
                        body = program.method(method).body();
                        let call_at = frame.call_site.expect("non-entry frame has call site");
                        let dst = frame.ret_dst;
                        if let Some(d) = dst {
                            match value {
                                Some(v) => self.set_local(d, v),
                                None => {
                                    return Err(self.trap(
                                        call_at,
                                        TrapKind::TypeError {
                                            message: "void return assigned to a local".to_string(),
                                        },
                                    ))
                                }
                            }
                        }
                        sink.event(&Event::CallComplete {
                            at: call_at,
                            dst,
                            value,
                        });
                    }
                    Err(kind) => return Err(self.trap(at, kind)),
                }
                if quantum == 0 {
                    self.park(pc);
                    continue 'sched;
                }
            }
        }

        Ok(RunOutcome {
            instructions_executed: self.executed,
            instructions_in_phase: self.in_phase,
            return_value: final_return,
            output: self.output,
            objects_allocated: self.heap.len(),
        })
    }

    /// Writes the running frame's `pc` back to it, for whoever reads the
    /// frame while the thread is off the dispatch loop.
    fn park(&mut self, pc: Pc) {
        self.stack.last_mut().expect("frame").pc = pc;
    }

    /// Swaps the running thread's frames and slot array with
    /// `threads[cur]`'s parked ones.
    fn swap_thread(&mut self) {
        let parked = &mut self.threads[self.cur];
        mem::swap(&mut self.stack, &mut parked.stack);
        mem::swap(&mut self.locals, &mut parked.locals);
    }

    #[inline]
    fn local(&self, l: Local) -> Value {
        self.locals[self.fp + l.index()]
    }

    #[inline]
    fn set_local(&mut self, l: Local, v: Value) {
        self.locals[self.fp + l.index()] = v;
    }

    /// Decodes a thread handle held in a local.
    fn thread_handle(&self, l: Local) -> Result<ThreadId, TrapKind> {
        match self.local(l) {
            Value::Int(i) if i >= 0 && (i as usize) < self.threads.len() => Ok(ThreadId(i as u32)),
            Value::Int(i) => Err(TrapKind::InvalidThreadHandle { handle: i }),
            other => Err(TrapKind::TypeError {
                message: format!("join on non-thread value {other}"),
            }),
        }
    }

    fn as_object(&self, l: Local) -> Result<lowutil_ir::ObjectId, TrapKind> {
        match self.local(l) {
            Value::Ref(o) => Ok(o),
            Value::Null => Err(TrapKind::NullDereference { base: l }),
            _ => Err(TrapKind::TypeError {
                message: format!("{l} does not hold a reference"),
            }),
        }
    }

    fn step<T: EventSink>(
        &mut self,
        at: InstrId,
        instr: &Instr,
        sink: &mut T,
    ) -> Result<Step, TrapKind> {
        match instr {
            Instr::Const { dst, value } => {
                let v = Value::from(*value);
                self.set_local(*dst, v);
                sink.event(&Event::Compute {
                    at,
                    dst: *dst,
                    uses: [None, None],
                    value: v,
                });
                Ok(Step::Next)
            }
            Instr::Move { dst, src } => {
                let v = self.local(*src);
                self.set_local(*dst, v);
                sink.event(&Event::Compute {
                    at,
                    dst: *dst,
                    uses: [Some(*src), None],
                    value: v,
                });
                Ok(Step::Next)
            }
            Instr::Binop { dst, op, lhs, rhs } => {
                let v = eval_binop(*op, self.local(*lhs), self.local(*rhs))?;
                self.set_local(*dst, v);
                sink.event(&Event::Compute {
                    at,
                    dst: *dst,
                    uses: [Some(*lhs), Some(*rhs)],
                    value: v,
                });
                Ok(Step::Next)
            }
            Instr::Unop { dst, op, src } => {
                let v = eval_unop(*op, self.local(*src))?;
                self.set_local(*dst, v);
                sink.event(&Event::Compute {
                    at,
                    dst: *dst,
                    uses: [Some(*src), None],
                    value: v,
                });
                Ok(Step::Next)
            }
            Instr::Cmp { dst, op, lhs, rhs } => {
                let b = eval_cmp(*op, self.local(*lhs), self.local(*rhs))?;
                let v = Value::Int(i64::from(b));
                self.set_local(*dst, v);
                sink.event(&Event::Compute {
                    at,
                    dst: *dst,
                    uses: [Some(*lhs), Some(*rhs)],
                    value: v,
                });
                Ok(Step::Next)
            }
            Instr::Branch {
                op,
                lhs,
                rhs,
                target,
            } => {
                let taken = eval_cmp(*op, self.local(*lhs), self.local(*rhs))?;
                sink.event(&Event::Predicate {
                    at,
                    op: *op,
                    uses: [*lhs, *rhs],
                    taken,
                });
                if taken {
                    Ok(Step::Jump(*target))
                } else {
                    Ok(Step::Next)
                }
            }
            Instr::Jump { target } => {
                sink.event(&Event::Jump { at });
                Ok(Step::Jump(*target))
            }
            Instr::New { dst, class } => {
                let site = self
                    .program
                    .alloc_site_at(at)
                    .expect("validated alloc instruction has a site");
                let slots = self.program.class(*class).num_slots();
                let obj = self.heap.alloc_object(*class, slots, site);
                self.set_local(*dst, Value::Ref(obj));
                sink.event(&Event::Alloc {
                    at,
                    dst: *dst,
                    object: obj,
                    site,
                    len_use: None,
                });
                Ok(Step::Next)
            }
            Instr::NewArray { dst, len } => {
                let site = self
                    .program
                    .alloc_site_at(at)
                    .expect("validated alloc instruction has a site");
                let n = match self.local(*len) {
                    Value::Int(n) if n >= 0 => n as usize,
                    Value::Int(n) => return Err(TrapKind::IndexOutOfBounds { index: n, len: 0 }),
                    _ => {
                        return Err(TrapKind::TypeError {
                            message: "array length is not an integer".to_string(),
                        })
                    }
                };
                let obj = self.heap.alloc_array(n, site);
                self.set_local(*dst, Value::Ref(obj));
                sink.event(&Event::Alloc {
                    at,
                    dst: *dst,
                    object: obj,
                    site,
                    len_use: Some(*len),
                });
                Ok(Step::Next)
            }
            Instr::GetField { dst, obj, field } => {
                let o = self.as_object(*obj)?;
                let ho = self.heap.get(o).expect("live object");
                let class = ho.class().ok_or(TrapKind::NoSuchField)?;
                let offset = self
                    .program
                    .field_offset(class, *field)
                    .ok_or(TrapKind::NoSuchField)?;
                let v = ho.get(offset as usize).ok_or(TrapKind::NoSuchField)?;
                self.set_local(*dst, v);
                sink.event(&Event::LoadField {
                    at,
                    dst: *dst,
                    base: *obj,
                    object: o,
                    field: *field,
                    offset,
                    value: v,
                });
                Ok(Step::Next)
            }
            Instr::PutField { obj, field, src } => {
                let o = self.as_object(*obj)?;
                let v = self.local(*src);
                let class = self
                    .heap
                    .get(o)
                    .expect("live object")
                    .class()
                    .ok_or(TrapKind::NoSuchField)?;
                let offset = self
                    .program
                    .field_offset(class, *field)
                    .ok_or(TrapKind::NoSuchField)?;
                self.heap
                    .get_mut(o)
                    .expect("live object")
                    .set(offset as usize, v);
                sink.event(&Event::StoreField {
                    at,
                    base: *obj,
                    object: o,
                    field: *field,
                    offset,
                    src: *src,
                    value: v,
                });
                Ok(Step::Next)
            }
            Instr::GetStatic { dst, field } => {
                let v = self.static_value(*field);
                self.set_local(*dst, v);
                sink.event(&Event::LoadStatic {
                    at,
                    dst: *dst,
                    field: *field,
                    value: v,
                });
                Ok(Step::Next)
            }
            Instr::PutStatic { field, src } => {
                let v = self.local(*src);
                self.set_static(*field, v);
                sink.event(&Event::StoreStatic {
                    at,
                    field: *field,
                    src: *src,
                    value: v,
                });
                Ok(Step::Next)
            }
            Instr::ArrayGet { dst, arr, idx } => {
                let o = self.as_object(*arr)?;
                let (i, v) = self.array_read(o, *idx)?;
                self.set_local(*dst, v);
                sink.event(&Event::ArrayLoad {
                    at,
                    dst: *dst,
                    base: *arr,
                    object: o,
                    idx: *idx,
                    index: i,
                    value: v,
                });
                Ok(Step::Next)
            }
            Instr::ArrayPut { arr, idx, src } => {
                let o = self.as_object(*arr)?;
                let v = self.local(*src);
                let i = self.array_index(o, *idx)?;
                self.heap
                    .get_mut(o)
                    .expect("live object")
                    .set(i as usize, v);
                sink.event(&Event::ArrayStore {
                    at,
                    base: *arr,
                    object: o,
                    idx: *idx,
                    index: i,
                    src: *src,
                    value: v,
                });
                Ok(Step::Next)
            }
            Instr::ArrayLen { dst, arr } => {
                let o = self.as_object(*arr)?;
                let ho = self.heap.get(o).expect("live object");
                if !ho.is_array() {
                    return Err(TrapKind::TypeError {
                        message: "len of a non-array".to_string(),
                    });
                }
                let v = Value::Int(ho.len() as i64);
                self.set_local(*dst, v);
                sink.event(&Event::ArrayLen {
                    at,
                    dst: *dst,
                    base: *arr,
                    object: o,
                    value: v,
                });
                Ok(Step::Next)
            }
            Instr::Call { dst, callee, args } => {
                let target = match callee {
                    Callee::Direct(m) => *m,
                    Callee::Virtual(name_idx) => {
                        let recv = self.as_object(args[0])?;
                        let class = self.heap.get(recv).expect("live object").class().ok_or(
                            TrapKind::TypeError {
                                message: "virtual call on an array".to_string(),
                            },
                        )?;
                        self.program.resolve_virtual(class, *name_idx).ok_or(
                            TrapKind::NoSuchMethod {
                                class,
                                name_idx: *name_idx,
                            },
                        )?
                    }
                };
                let m = self.program.method(target);
                if m.num_params() as usize != args.len() {
                    return Err(TrapKind::ArityMismatch {
                        expected: m.num_params() as usize,
                        found: args.len(),
                    });
                }
                sink.event(&Event::Call {
                    at,
                    callee: target,
                    args: args.clone(),
                });
                self.push_frame(target, Args::Locals(args), *dst, Some(at), sink)?;
                Ok(Step::Enter)
            }
            Instr::CallNative { dst, native, args } => {
                let kind = self.registry.kind(*native);
                match kind {
                    NativeKind::PhaseBegin => {
                        self.phase_depth += 1;
                        sink.event(&Event::Phase { at, begin: true });
                        return Ok(Step::Next);
                    }
                    NativeKind::PhaseEnd => {
                        self.phase_depth = self.phase_depth.saturating_sub(1);
                        sink.event(&Event::Phase { at, begin: false });
                        return Ok(Step::Next);
                    }
                    _ => {}
                }
                let arg_values: Vec<Value> = args.iter().map(|&a| self.local(a)).collect();
                if kind == NativeKind::Sink {
                    self.output.extend(arg_values.iter().copied());
                }
                let value = self.natives.invoke(kind, &arg_values);
                if let (Some(d), Some(v)) = (dst, value) {
                    self.set_local(*d, v);
                }
                sink.event(&Event::Native {
                    at,
                    native: *native,
                    args: args.clone(),
                    dst: *dst,
                    value,
                });
                Ok(Step::Next)
            }
            Instr::Return { src } => {
                let value = src.map(|s| self.local(s));
                sink.event(&Event::Return {
                    at,
                    src: *src,
                    value,
                });
                Ok(Step::Leave(value))
            }
            Instr::Spawn { dst, callee, args } => {
                // Arity is validated statically. The child's root frame is
                // pushed when the scheduler first runs it, so its
                // frame-push event lands on the child's own event stream.
                let arg_values: Vec<Value> = args.iter().map(|&a| self.local(a)).collect();
                let tid = ThreadId(self.threads.len() as u32);
                self.threads.push(GuestThread {
                    stack: Vec::new(),
                    locals: Vec::new(),
                    status: ThreadStatus::Runnable,
                    start: Some((*callee, arg_values)),
                });
                let v = Value::Int(i64::from(tid.0));
                self.set_local(*dst, v);
                sink.event(&Event::Spawn {
                    at,
                    dst: *dst,
                    thread: tid,
                    callee: *callee,
                    args: args.clone(),
                });
                Ok(Step::Next)
            }
            Instr::Join { dst, thread } => {
                let tid = self.thread_handle(*thread)?;
                let ThreadStatus::Finished(value) = self.threads[tid.index()].status else {
                    unreachable!("scheduler executes joins only on finished targets");
                };
                if let Some(d) = dst {
                    match value {
                        Some(v) => self.set_local(*d, v),
                        None => {
                            return Err(TrapKind::TypeError {
                                message: "void thread return assigned to a local".to_string(),
                            })
                        }
                    }
                }
                sink.event(&Event::Join {
                    at,
                    dst: *dst,
                    thread: tid,
                    value,
                });
                Ok(Step::Next)
            }
        }
    }

    fn array_index(&self, o: lowutil_ir::ObjectId, idx: Local) -> Result<u32, TrapKind> {
        let ho = self.heap.get(o).expect("live object");
        if !ho.is_array() {
            return Err(TrapKind::TypeError {
                message: "indexing a non-array".to_string(),
            });
        }
        match self.local(idx) {
            Value::Int(i) if i >= 0 && (i as usize) < ho.len() => Ok(i as u32),
            Value::Int(i) => Err(TrapKind::IndexOutOfBounds {
                index: i,
                len: ho.len(),
            }),
            _ => Err(TrapKind::TypeError {
                message: "array index is not an integer".to_string(),
            }),
        }
    }

    fn array_read(&self, o: lowutil_ir::ObjectId, idx: Local) -> Result<(u32, Value), TrapKind> {
        let i = self.array_index(o, idx)?;
        let v = self
            .heap
            .get(o)
            .expect("live object")
            .get(i as usize)
            .expect("bounds-checked");
        Ok((i, v))
    }

    fn static_value(&self, field: lowutil_ir::StaticId) -> Value {
        self.statics
            .get(field.index())
            .copied()
            .unwrap_or(Value::Null)
    }

    fn set_static(&mut self, field: lowutil_ir::StaticId, v: Value) {
        if self.statics.len() <= field.index() {
            self.statics.resize(field.index() + 1, Value::Null);
        }
        self.statics[field.index()] = v;
    }
}

/// Where a new frame's arguments come from.
enum Args<'a> {
    /// A thread's start values.
    Values(&'a [Value]),
    /// Locals of the running frame, the caller.
    Locals(&'a [Local]),
}

enum Step {
    Next,
    Jump(Pc),
    Enter,
    Leave(Option<Value>),
}

fn numeric(v: Value) -> Result<f64, TrapKind> {
    match v {
        Value::Int(i) => Ok(i as f64),
        Value::Float(f) => Ok(f),
        other => Err(TrapKind::TypeError {
            message: format!("expected a number, found {other}"),
        }),
    }
}

fn eval_binop(op: BinOp, a: Value, b: Value) -> Result<Value, TrapKind> {
    use BinOp::*;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => {
            let v = match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        return Err(TrapKind::DivideByZero);
                    }
                    x.wrapping_div(y)
                }
                Rem => {
                    if y == 0 {
                        return Err(TrapKind::DivideByZero);
                    }
                    x.wrapping_rem(y)
                }
                And => x & y,
                Or => x | y,
                Xor => x ^ y,
                Shl => x.wrapping_shl(y as u32),
                Shr => x.wrapping_shr(y as u32),
            };
            Ok(Value::Int(v))
        }
        _ => {
            // Promote to float arithmetic; bitwise ops require integers.
            if matches!(op, And | Or | Xor | Shl | Shr) {
                return Err(TrapKind::TypeError {
                    message: format!("bitwise {op} on non-integers"),
                });
            }
            let (x, y) = (numeric(a)?, numeric(b)?);
            let v = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Rem => x % y,
                _ => unreachable!(),
            };
            Ok(Value::Float(v))
        }
    }
}

fn eval_unop(op: UnOp, v: Value) -> Result<Value, TrapKind> {
    match (op, v) {
        (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
        (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
        (UnOp::Not, Value::Int(i)) => Ok(Value::Int(!i)),
        (UnOp::IntToFloat, Value::Int(i)) => Ok(Value::Float(i as f64)),
        (UnOp::FloatToInt, Value::Float(f)) => Ok(Value::Int(f as i64)),
        (UnOp::FloatToInt, Value::Int(i)) => Ok(Value::Int(i)),
        (op, v) => Err(TrapKind::TypeError {
            message: format!("{op} applied to {v}"),
        }),
    }
}

fn eval_cmp(op: CmpOp, a: Value, b: Value) -> Result<bool, TrapKind> {
    match op {
        CmpOp::Eq | CmpOp::Ne => {
            let eq = match (a, b) {
                (Value::Null, Value::Null) => true,
                (Value::Ref(x), Value::Ref(y)) => x == y,
                (Value::Int(x), Value::Int(y)) => x == y,
                (Value::Float(x), Value::Float(y)) => x == y,
                (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => {
                    x as f64 == y
                }
                _ => false,
            };
            Ok(if op == CmpOp::Eq { eq } else { !eq })
        }
        _ => {
            let (x, y) = (numeric(a)?, numeric(b)?);
            Ok(match op {
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
                CmpOp::Eq | CmpOp::Ne => unreachable!(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountingSink, NullTracer};
    use lowutil_ir::{ConstValue, ProgramBuilder};

    fn simple_loop_program(n: i64) -> Program {
        // main() { s = 0; i = 0; while (i < n) { s = s + i; i = i + 1 } print(s) }
        let mut pb = ProgramBuilder::new();
        let print = pb.native("print", 1, false);
        let mut m = pb.method("main", 0);
        let s = m.new_local("s");
        let i = m.new_local("i");
        let one = m.new_local("one");
        let lim = m.new_local("lim");
        m.iconst(s, 0);
        m.iconst(i, 0);
        m.iconst(one, 1);
        m.iconst(lim, n);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        m.branch(CmpOp::Ge, i, lim, done);
        m.binop(s, BinOp::Add, s, i);
        m.binop(i, BinOp::Add, i, one);
        m.jump(head);
        m.bind(done);
        m.call_native_void(print, &[s]);
        m.ret_void();
        let main = m.finish(&mut pb);
        pb.finish(main).unwrap()
    }

    #[test]
    fn loop_sums_and_prints() {
        let p = simple_loop_program(10);
        let out = Vm::new(&p).run(&mut NullTracer).unwrap();
        assert_eq!(out.output, vec![Value::Int(45)]);
        assert!(out.return_value.is_none());
    }

    #[test]
    fn counting_sink_sees_every_instruction() {
        let p = simple_loop_program(3);
        let mut t = CountingSink::new();
        let out = Vm::new(&p).run(&mut t).unwrap();
        assert_eq!(t.events, out.instructions_executed);
        assert_eq!(t.pushes, 1);
        assert_eq!(t.pops, 1);
    }

    #[test]
    fn instruction_budget_traps() {
        let p = simple_loop_program(1_000_000);
        let vm = Vm::with_config(
            &p,
            RunConfig {
                max_instructions: 100,
                ..RunConfig::default()
            },
        );
        let e = vm.run(&mut NullTracer).unwrap_err();
        assert_eq!(e.kind, TrapKind::InstructionBudgetExceeded);
    }

    #[test]
    fn division_by_zero_traps_with_location() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let a = m.new_local("a");
        let b = m.new_local("b");
        m.iconst(a, 1);
        m.iconst(b, 0);
        m.binop(a, BinOp::Div, a, b);
        m.ret_void();
        let main = m.finish(&mut pb);
        let p = pb.finish(main).unwrap();
        let e = Vm::new(&p).run(&mut NullTracer).unwrap_err();
        assert_eq!(e.kind, TrapKind::DivideByZero);
        assert_eq!(e.at.pc, 2);
    }

    #[test]
    fn null_dereference_reports_base_local() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").finish(&mut pb);
        let f = pb.field(c, "f");
        let mut m = pb.method("main", 0);
        let o = m.new_local("o");
        let x = m.new_local("x");
        m.constant(o, ConstValue::Null);
        m.get_field(x, o, f);
        m.ret_void();
        let main = m.finish(&mut pb);
        let p = pb.finish(main).unwrap();
        let e = Vm::new(&p).run(&mut NullTracer).unwrap_err();
        assert_eq!(e.kind, TrapKind::NullDereference { base: o });
    }

    #[test]
    fn virtual_dispatch_picks_override() {
        let mut pb = ProgramBuilder::new();
        let print = pb.native("print", 1, false);
        let a = pb.class("A").finish(&mut pb);
        let b = pb.class("B").extends(a).finish(&mut pb);
        let mut fa = pb.method_on(a, "f", 0);
        let r = fa.new_local("r");
        fa.iconst(r, 1);
        fa.ret(r);
        fa.finish(&mut pb);
        let mut fb = pb.method_on(b, "f", 0);
        let r = fb.new_local("r");
        fb.iconst(r, 2);
        fb.ret(r);
        fb.finish(&mut pb);
        let mut m = pb.method("main", 0);
        let oa = m.new_local("oa");
        let ob = m.new_local("ob");
        let v = m.new_local("v");
        m.new_obj(oa, a);
        m.call_virtual(Some(v), "f", &[oa]);
        m.call_native_void(print, &[v]);
        m.new_obj(ob, b);
        m.call_virtual(Some(v), "f", &[ob]);
        m.call_native_void(print, &[v]);
        m.ret_void();
        let main = m.finish(&mut pb);
        let p = pb.finish(main).unwrap();
        let out = Vm::new(&p).run(&mut NullTracer).unwrap();
        assert_eq!(out.output, vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn fields_and_arrays_round_trip() {
        let src = r#"
native print/1
class Box { v }
method main/0 {
  b = new Box
  x = 7
  b.v = x
  y = b.v
  n = 3
  a = newarray n
  i = 1
  a[i] = y
  z = a[i]
  l = len a
  native print(z)
  native print(l)
  return
}
"#;
        let p = lowutil_ir::parse_program(src).unwrap();
        let out = Vm::new(&p).run(&mut NullTracer).unwrap();
        assert_eq!(out.output, vec![Value::Int(7), Value::Int(3)]);
        assert_eq!(out.objects_allocated, 2);
    }

    #[test]
    fn statics_default_to_null_and_persist() {
        let src = r#"
native print/1
static G
method main/0 {
  x = 5
  $G = x
  y = call get()
  native print(y)
  return
}
method get/0 {
  r = $G
  return r
}
"#;
        let p = lowutil_ir::parse_program(src).unwrap();
        let out = Vm::new(&p).run(&mut NullTracer).unwrap();
        assert_eq!(out.output, vec![Value::Int(5)]);
    }

    #[test]
    fn phase_markers_window_instruction_counts() {
        let src = r#"
native phase_begin/0
native phase_end/0
method main/0 {
  x = 1
  native phase_begin()
  y = 2
  z = 3
  native phase_end()
  w = 4
  return
}
"#;
        let p = lowutil_ir::parse_program(src).unwrap();
        let out = Vm::new(&p).run(&mut NullTracer).unwrap();
        // phase window covers: phase_begin itself? No: the begin marker
        // increments depth during its own step *before* counting? Depth is
        // raised inside step, after the count — so the window counts
        // y, z, and phase_end.
        assert_eq!(out.instructions_in_phase, 3);
        assert_eq!(out.instructions_executed, 7);
    }

    #[test]
    fn recursion_overflows_gracefully() {
        let src = r#"
method main/0 {
  call main()
  return
}
"#;
        let p = lowutil_ir::parse_program(src).unwrap();
        let vm = Vm::with_config(
            &p,
            RunConfig {
                max_stack: 64,
                ..RunConfig::default()
            },
        );
        let mut frames = CountingSink::new();
        let e = vm.run(&mut frames).unwrap_err();
        assert_eq!(e.kind, TrapKind::StackOverflow);
        // The 64th frame's call is the one that overflows.
        assert_eq!(e.at, site(&p, "main", 0));
        assert_eq!((frames.pushes, frames.pops), (64, 0));
    }

    #[test]
    fn float_promotion_in_arithmetic() {
        let mut pb = ProgramBuilder::new();
        let print = pb.native("print", 1, false);
        let mut m = pb.method("main", 0);
        let a = m.new_local("a");
        let b = m.new_local("b");
        m.constant(a, ConstValue::Int(3));
        m.constant(b, ConstValue::Float(0.5));
        m.binop(a, BinOp::Add, a, b);
        m.call_native_void(print, &[a]);
        m.ret_void();
        let main = m.finish(&mut pb);
        let p = pb.finish(main).unwrap();
        let out = Vm::new(&p).run(&mut NullTracer).unwrap();
        assert_eq!(out.output, vec![Value::Float(3.5)]);
    }

    #[test]
    fn method_arguments_arrive_in_order() {
        let src = r#"
native print/1
method main/0 {
  a = 10
  b = 20
  r = call sub(a, b)
  native print(r)
  return
}
method sub/2 {
  r = p0 - p1
  return r
}
"#;
        let p = lowutil_ir::parse_program(src).unwrap();
        let out = Vm::new(&p).run(&mut NullTracer).unwrap();
        assert_eq!(out.output, vec![Value::Int(-10)]);
    }

    const FORK_JOIN_SRC: &str = r#"
native print/1
method main/0 {
  a = 1
  b = 2
  t1 = spawn work(a)
  t2 = spawn work(b)
  r1 = join t1
  r2 = join t2
  s = r1 + r2
  native print(s)
  return
}
method work/1 {
  i = 0
  one = 1
  lim = 40
loop:
  i = i + one
  if i < lim goto loop
  r = p0 * p0
  return r
}
"#;

    #[test]
    fn spawned_threads_run_and_joins_return_their_values() {
        let p = lowutil_ir::parse_program(FORK_JOIN_SRC).unwrap();
        let out = Vm::new(&p).run(&mut NullTracer).unwrap();
        assert_eq!(out.output, vec![Value::Int(5)]); // 1*1 + 2*2
    }

    /// The program synchronizes only through join edges, so every
    /// scheduler seed must produce the same output, the same totals,
    /// and the same per-sink event count — only the interleaving
    /// (and hence the switch count) may differ.
    #[test]
    fn scheduler_seed_cannot_change_results_of_race_free_programs() {
        let p = lowutil_ir::parse_program(FORK_JOIN_SRC).unwrap();
        let mut base = CountingSink::new();
        let out0 = Vm::new(&p).run(&mut base).unwrap();
        assert!(base.switches > 0, "fork/join must actually interleave");
        for seed in [1, 7, 0xDEAD_BEEF] {
            let mut t = CountingSink::new();
            let out = Vm::with_config(
                &p,
                RunConfig {
                    sched_seed: seed,
                    ..RunConfig::default()
                },
            )
            .run(&mut t)
            .unwrap();
            assert_eq!(out.output, out0.output, "seed {seed}");
            assert_eq!(
                out.instructions_executed, out0.instructions_executed,
                "seed {seed}"
            );
            assert_eq!(out.objects_allocated, out0.objects_allocated);
            assert_eq!(t.events, base.events, "seed {seed}");
            assert_eq!((t.pushes, t.pops), (base.pushes, base.pops));
        }
    }

    #[test]
    fn single_threaded_runs_report_no_thread_switches() {
        let p = simple_loop_program(5);
        let mut t = CountingSink::new();
        Vm::new(&p).run(&mut t).unwrap();
        assert_eq!(t.switches, 0);
    }

    /// The run ends only when *all* threads finish: a detached thread
    /// still completes (and prints) after main returns.
    #[test]
    fn detached_threads_finish_after_main_returns() {
        let src = r#"
native print/1
method main/0 {
  x = 7
  t = spawn shout(x)
  return
}
method shout/1 {
  native print(p0)
  return
}
"#;
        let p = lowutil_ir::parse_program(src).unwrap();
        let out = Vm::new(&p).run(&mut NullTracer).unwrap();
        assert_eq!(out.output, vec![Value::Int(7)]);
    }

    #[test]
    fn circular_joins_trap_as_deadlock() {
        let src = r#"
method main/0 {
  z = 0
  t = spawn waiter(z)
  r = join t
  return r
}
method waiter/1 {
  r = join p0
  return r
}
"#;
        let p = lowutil_ir::parse_program(src).unwrap();
        let e = Vm::new(&p).run(&mut NullTracer).unwrap_err();
        assert_eq!(e.kind, TrapKind::Deadlock);
        // Main blocks first, then the waiter blocks while running: the
        // trap names the join of the lowest blocked thread, main.
        assert_eq!(e.at, site(&p, "main", 2));
    }

    /// The instruction id of `pc` in the method called `name`.
    fn site(p: &Program, name: &str, pc: Pc) -> InstrId {
        let m = p
            .methods()
            .iter()
            .position(|m| m.name() == name)
            .expect("method exists");
        InstrId::new(MethodId(m as u32), pc)
    }

    /// A thread joining itself deadlocks while it is the running thread:
    /// the reported join site comes from the running thread's own frames.
    #[test]
    fn self_join_traps_as_deadlock_at_its_join() {
        let src = r#"
method main/0 {
  me = 0
  r = join me
  return r
}
"#;
        let p = lowutil_ir::parse_program(src).unwrap();
        let e = Vm::new(&p).run(&mut NullTracer).unwrap_err();
        assert_eq!(e.kind, TrapKind::Deadlock);
        assert_eq!(e.at, site(&p, "main", 1));
    }

    /// Two detached workers join each other after main has finished.
    /// The deadlock is detected while the second worker runs, but the
    /// trap names the join of the lowest blocked thread, the first
    /// worker, whose frames are parked with the scheduler.
    #[test]
    fn deadlock_names_lowest_blocked_thread_not_the_running_one() {
        let src = r#"
method main/0 {
  a = 1
  b = 2
  x = spawn left(b)
  y = spawn right(a)
  return
}
method left/1 {
  r = join p0
  return r
}
method right/1 {
  i = 0
  one = 1
  lim = 80
l:
  i = i + one
  if i < lim goto l
  r = join p0
  return r
}
"#;
        let p = lowutil_ir::parse_program(src).unwrap();
        let mut t = CountingSink::new();
        let e = Vm::new(&p).run(&mut t).unwrap_err();
        assert_eq!(e.kind, TrapKind::Deadlock);
        assert_eq!(e.at, site(&p, "left", 0));
        assert!(t.switches > 0);
    }

    #[test]
    fn bad_join_operands_trap() {
        let src = r#"
method main/0 {
  t = 99
  r = join t
  return
}
"#;
        let p = lowutil_ir::parse_program(src).unwrap();
        let e = Vm::new(&p).run(&mut NullTracer).unwrap_err();
        assert_eq!(e.kind, TrapKind::InvalidThreadHandle { handle: 99 });

        let src = r#"
method main/0 {
  t = null
  r = join t
  return
}
"#;
        let p = lowutil_ir::parse_program(src).unwrap();
        let e = Vm::new(&p).run(&mut NullTracer).unwrap_err();
        assert!(matches!(e.kind, TrapKind::TypeError { .. }));
    }

    #[test]
    fn instruction_budget_spans_all_threads() {
        let p = lowutil_ir::parse_program(FORK_JOIN_SRC).unwrap();
        let e = Vm::with_config(
            &p,
            RunConfig {
                max_instructions: 30,
                ..RunConfig::default()
            },
        )
        .run(&mut NullTracer)
        .unwrap_err();
        assert_eq!(e.kind, TrapKind::InstructionBudgetExceeded);
        // The 31st instruction is a worker's loop branch, not main's.
        assert_eq!(e.at, site(&p, "work", 4));
    }
}
