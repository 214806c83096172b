//! The [`EventSink`] trait: the one consumer interface of an instruction
//! event stream, live or replayed.
//!
//! [`Vm::run`](crate::Vm::run) drives a sink from a live execution and
//! [`TraceReader::replay`](crate::TraceReader::replay) drives one from a
//! recorded trace, through the same four hooks in the same order, so a
//! consumer cannot tell the two apart: a [`TraceWriter`](crate::TraceWriter)
//! records a run, a profiler builds its graph, and a tuple `(a, b)` does
//! both in one pass.
//!
//! Ordering for a call `r = m(a, b)`:
//!
//! 1. `event(Event::Call { … })`: tracking data for `a`, `b` is available
//!    in the caller frame;
//! 2. `frame_push(…)`: the callee frame exists; formals receive data;
//! 3. … callee body events …
//! 4. `event(Event::Return { … })`: still in the callee frame;
//! 5. `frame_pop()`;
//! 6. `event(Event::CallComplete { … })`: back in the caller frame.
//!
//! The entry frame is also announced via `frame_push` (with
//! `call_site == None`), and its final `Return` is popped without a
//! `CallComplete`.

use crate::event::{Event, FrameInfo};
use lowutil_ir::ThreadId;

/// A consumer of an instruction-event stream, live or replayed.
///
/// The frame hooks let a consumer keep a shadow stack aligned with the VM
/// call stack; they default to no-ops so stateless consumers only
/// implement [`EventSink::event`].
pub trait EventSink {
    /// Called for every executed instruction.
    fn event(&mut self, event: &Event);

    /// Called when a frame is pushed (including the entry frame).
    fn frame_push(&mut self, info: &FrameInfo) {
        let _ = info;
    }

    /// Called when a frame is popped.
    fn frame_pop(&mut self) {}

    /// Called when the stream switches guest threads: every subsequent
    /// hook belongs to `tid` until the next `thread` call. Never called
    /// for single-threaded streams (execution implicitly starts on
    /// [`ThreadId::MAIN`]), so consumers unaware of threads keep working
    /// unchanged on single-threaded workloads.
    fn thread(&mut self, tid: ThreadId) {
        let _ = tid;
    }
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn event(&mut self, event: &Event) {
        (**self).event(event);
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        (**self).frame_push(info);
    }

    fn frame_pop(&mut self) {
        (**self).frame_pop();
    }

    fn thread(&mut self, tid: ThreadId) {
        (**self).thread(tid);
    }
}

/// Broadcasts to two sinks: `(a, b)` forwards every hook to `a` then `b`.
/// Nest tuples for more, e.g. `((a, b), c)`.
impl<A: EventSink, B: EventSink> EventSink for (A, B) {
    fn event(&mut self, event: &Event) {
        self.0.event(event);
        self.1.event(event);
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        self.0.frame_push(info);
        self.1.frame_push(info);
    }

    fn frame_pop(&mut self) {
        self.0.frame_pop();
        self.1.frame_pop();
    }

    fn thread(&mut self, tid: ThreadId) {
        self.0.thread(tid);
        self.1.thread(tid);
    }
}

/// A sink that ignores everything: the uninstrumented baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl EventSink for NullTracer {
    fn event(&mut self, _event: &Event) {}
}

/// A forwarding newtype over a sink, kept because the benchmark harness
/// under `perfbench/` still names it; it adds nothing, so new code passes
/// the sink itself.
#[derive(Debug)]
pub struct SinkTracer<S: EventSink>(pub S);

impl<S: EventSink> EventSink for SinkTracer<S> {
    fn event(&mut self, event: &Event) {
        self.0.event(event);
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        self.0.frame_push(info);
    }

    fn frame_pop(&mut self) {
        self.0.frame_pop();
    }

    fn thread(&mut self, tid: ThreadId) {
        self.0.thread(tid);
    }
}

/// Counts stream items without interpreting them; useful for tests and
/// overhead calibration.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingSink {
    /// Number of instruction events seen.
    pub events: u64,
    /// Number of frame pushes seen.
    pub pushes: u64,
    /// Number of frame pops seen.
    pub pops: u64,
    /// Number of thread switches seen (0 for single-threaded streams).
    pub switches: u64,
}

impl CountingSink {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for CountingSink {
    fn event(&mut self, _event: &Event) {
        self.events += 1;
    }

    fn frame_push(&mut self, _info: &FrameInfo) {
        self.pushes += 1;
    }

    fn frame_pop(&mut self) {
        self.pops += 1;
    }

    fn thread(&mut self, _tid: ThreadId) {
        self.switches += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vm;
    use lowutil_ir::{ConstValue, ProgramBuilder};

    /// A two-method program: `main` computes, calls `twice`, and prints.
    fn call_program() -> lowutil_ir::Program {
        let mut pb = ProgramBuilder::new();
        let print = pb.native("print", 1, false);
        let mut twice = pb.method("twice", 1);
        let p0 = twice.param(0);
        let r = twice.new_local("r");
        twice.binop(r, lowutil_ir::BinOp::Add, p0, p0);
        twice.ret(r);
        let twice_id = twice.finish(&mut pb);
        let mut main = pb.method("main", 0);
        let x = main.new_local("x");
        let y = main.new_local("y");
        main.constant(x, ConstValue::Int(21));
        main.call(Some(y), twice_id, &[x]);
        main.call_native_void(print, &[y]);
        main.ret_void();
        let main_id = main.finish(&mut pb);
        pb.finish(main_id).expect("valid program")
    }

    /// Records the interleaving of instruction events and frame hooks.
    #[derive(Default)]
    struct OrderLog(Vec<String>);

    impl EventSink for OrderLog {
        fn event(&mut self, event: &Event) {
            let tag = match event {
                Event::Compute { .. } => "compute",
                Event::Call { .. } => "call",
                Event::Return { .. } => "return",
                Event::CallComplete { .. } => "complete",
                Event::Native { .. } => "native",
                _ => "other",
            };
            self.0.push(tag.to_string());
        }

        fn frame_push(&mut self, _info: &FrameInfo) {
            self.0.push("push".to_string());
        }

        fn frame_pop(&mut self) {
            self.0.push("pop".to_string());
        }
    }

    /// Pins the ordering contract in the module docs: for a call,
    /// `Call` → `frame_push` → body → `Return` → `frame_pop` →
    /// `CallComplete`, with the entry frame announced via `frame_push`
    /// and the final `Return` popped without a `CallComplete`.
    #[test]
    fn call_ordering_contract() {
        let program = call_program();
        let mut log = OrderLog::default();
        Vm::new(&program).run(&mut log).expect("program runs");
        assert_eq!(
            log.0,
            vec![
                "push",     // entry frame
                "compute",  // x = 21
                "call",     // y = twice(x): uses available in caller
                "push",     // callee frame exists, formals receive data
                "compute",  // r = p0 + p0
                "return",   // still in the callee frame
                "pop",      // callee frame gone
                "complete", // back in the caller frame
                "native",   // print(y)
                "return",   // main's return
                "pop",      // entry frame popped, no CallComplete
            ]
        );
    }

    /// The counter agrees with the ordering log, exercising the
    /// overridden frame-hook defaults.
    #[test]
    fn counting_sink_counts_frames() {
        let program = call_program();
        let mut cs = CountingSink::new();
        Vm::new(&program).run(&mut cs).expect("program runs");
        assert_eq!((cs.pushes, cs.pops), (2, 2)); // entry + one call
        assert_eq!(cs.events, 7); // 2 computes, call, return×2, complete, native
        assert_eq!(cs.switches, 0);
    }
}
