//! A compatibility shim for the removed pipelined live profiler.
//!
//! The pipelined profiler built `G_cost` on other threads and measured
//! about 2× slower than the sequential one on 2 cores at both `jobs`
//! values tried, so it is gone. These entry points remain for callers
//! that still name them; the run goes through one [`CostProfiler`].

use lowutil_core::{CostGraph, CostGraphConfig, CostProfiler};
use lowutil_ir::Program;

/// Options for [`run_pipelined`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineOptions {
    /// Unused: construction is always one sequential pass on the calling
    /// thread. Kept so existing callers build unchanged.
    pub jobs: usize,
}

/// The available cores minus the one the VM thread occupies: the worker
/// count the removed pipeline picked when none was given. Construction
/// no longer uses it; callers report it as machine metadata.
pub fn auto_pipeline_jobs() -> usize {
    crate::default_jobs().saturating_sub(1)
}

/// The tracer [`run_pipelined`] hands to its run closure.
pub type PipelineTracer = CostProfiler;

/// Calls `run` with a fresh [`CostProfiler`] and returns the closure's
/// result and the finished graph. `opts` is ignored.
pub fn run_pipelined<R>(
    program: &Program,
    config: CostGraphConfig,
    _opts: &PipelineOptions,
    run: impl FnOnce(&mut PipelineTracer) -> R,
) -> (R, CostGraph) {
    let mut prof = CostProfiler::new(program, config);
    let r = run(&mut prof);
    (r, prof.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_core::write_cost_graph;
    use lowutil_ir::parse_program;
    use lowutil_vm::{RunConfig, Vm};

    const MT_SRC: &str = r#"
native print/1
class Box { v }
method main/0 {
  b1 = new Box
  b2 = new Box
  t1 = spawn fill(b1)
  t2 = spawn fill(b2)
  r1 = join t1
  r2 = join t2
  x = b1.v
  y = b2.v
  s1 = x + y
  s2 = r1 + r2
  s = s1 + s2
  native print(s)
  return
}
method fill/1 {
  i = 0
  one = 1
  lim = 9
loop:
  if i >= lim goto done
  p0.v = i
  i = i + one
  goto loop
done:
  r = p0.v
  return r
}
"#;

    fn bytes_of(g: &CostGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_cost_graph(g, &mut buf).unwrap();
        buf
    }

    /// The shim's graph is the sequential profile's, byte for byte, for a
    /// multithreaded guest under several schedules and at any `jobs`.
    #[test]
    fn multithreaded_run_pipelined_matches_cost_profiler() {
        let p = parse_program(MT_SRC).expect("parse");
        let config = CostGraphConfig::default();
        for sched_seed in [0u64, 7, 0xFEED] {
            let rc = RunConfig {
                sched_seed,
                ..RunConfig::default()
            };
            let mut prof = CostProfiler::new(&p, config);
            let out_seq = Vm::with_config(&p, rc).run(&mut prof).expect("runs");
            let seq = bytes_of(&prof.finish());
            for jobs in [1, 2] {
                let opts = PipelineOptions { jobs };
                let (out, graph) = run_pipelined(&p, config, &opts, |t| {
                    Vm::with_config(&p, rc).run(t).expect("runs")
                });
                assert_eq!(out.output, out_seq.output);
                assert_eq!(bytes_of(&graph), seq, "seed={sched_seed} jobs={jobs}");
            }
        }
    }
}
