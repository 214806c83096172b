//! The instrumentable interpreter substrate for `lowutil`.
//!
//! The PLDI'10 cost-benefit analyses were implemented inside the IBM J9
//! commercial JVM, which gave them a hook at every executed bytecode, a
//! shadow heap for per-field tracking data, and object headers carrying
//! allocation-site tags. None of that exists outside a managed runtime, so
//! this crate *is* the managed runtime: a deterministic three-address-code
//! interpreter over [`lowutil_ir`] programs that
//!
//! * emits a fine-grained [`Event`] to an [`EventSink`] for every executed
//!   instruction, carrying exactly the def/use information the paper's
//!   instrumentation rules (Figure 4) consume,
//! * tags every heap object with its allocation site,
//! * provides reusable [`ShadowHeap`]/[`ShadowStack`]/[`ShadowLanes`]
//!   building blocks mirroring the paper's shadow-memory machinery, and
//! * supports *phase markers* so profiling can be limited to a steady-state
//!   portion of a run (the paper's 5–10× overhead reduction mode).
//!
//! # Example
//!
//! ```
//! use lowutil_ir::{ProgramBuilder, ConstValue};
//! use lowutil_vm::{Vm, NullTracer};
//!
//! let mut pb = ProgramBuilder::new();
//! let print = pb.native("print", 1, false);
//! let mut main = pb.method("main", 0);
//! let x = main.new_local("x");
//! main.constant(x, ConstValue::Int(7));
//! main.call_native_void(print, &[x]);
//! main.ret_void();
//! let main_id = main.finish(&mut pb);
//! let program = pb.finish(main_id)?;
//!
//! let outcome = Vm::new(&program).run(&mut NullTracer)?;
//! assert_eq!(outcome.output, vec![lowutil_ir::Value::Int(7)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod event;
mod heap;
mod interp;
mod natives;
mod shadow;
mod sink;
pub mod trace;

pub use crc::{crc32, Crc32};
pub use event::{Event, FrameInfo};
pub use heap::{Heap, HeapObject};
pub use interp::{RunConfig, RunOutcome, Trap, TrapKind, Vm};
pub use natives::{NativeKind, NativeRegistry, UnknownNativeError};
pub use shadow::{ShadowHeap, ShadowLane, ShadowLanes, ShadowStack};
pub use sink::{CountingSink, EventSink, NullTracer, SinkTracer};
pub use trace::{
    SalvageStats, StreamingReader, TraceError, TraceReader, TraceStats, TraceWriter, Trailer,
    DEFAULT_STREAM_RECORD_LIMIT, TRACE_VERSION, TRACE_VERSION_V1, TRACE_VERSION_V2,
};
