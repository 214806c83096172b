//! Human-readable diagnosis reports — the "tool report" a programmer
//! inspects in the paper's case studies.

use crate::batch::{BatchAnalyzer, CostEngine, ReferenceEngine};
use crate::cost::CostBenefitConfig;
use crate::dead::DeadValueMetrics;
use crate::structure::{rank_structures_with, StructureCostBenefit};
use lowutil_core::{CostGraph, FieldKey, TaggedSite};
use lowutil_ir::{AllocKind, Program};
use std::fmt::Write;

/// Describes a tagged allocation site in source terms, e.g.
/// `"new List @ main:3 ^0"`.
pub fn describe_site(program: &Program, site: TaggedSite) -> String {
    let s = program.alloc_sites()[site.site.index()];
    let what = match s.kind {
        AllocKind::Class(c) => format!("new {}", program.class(c).name()),
        AllocKind::Array => "newarray".to_string(),
    };
    format!("{what} @ {} ^{}", program.instr_label(s.instr), site.slot)
}

/// Describes a member key in source terms.
pub fn describe_field(program: &Program, field: FieldKey) -> String {
    match field {
        FieldKey::Field(f) => program.field_name(f).to_string(),
        FieldKey::Element => "[elements]".to_string(),
        FieldKey::Length => "[length]".to_string(),
    }
}

/// Renders one ranked structure as a report block.
pub fn format_structure(program: &Program, s: &StructureCostBenefit, rank: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "#{rank} {}  (allocs: {}, members: {}, imbalance: {:.1})",
        describe_site(program, s.root),
        s.allocations,
        s.members.len(),
        s.imbalance(),
    );
    let _ = writeln!(out, "    n-RAC: {:.1}   n-RAB: {:.1}", s.n_rac, s.n_rab);
    for f in &s.fields {
        let _ = writeln!(
            out,
            "    field {}.{}: RAC {}  RAB {:.1}  (writes {}, reads {})",
            describe_site(program, f.site),
            describe_field(program, f.field),
            f.rac
                .map(|r| format!("{r:.1}"))
                .unwrap_or_else(|| "-".to_string()),
            f.rab,
            f.writes,
            f.reads,
        );
    }
    out
}

/// The full low-utility report: the top `top_n` structures by cost-benefit
/// imbalance, plus the dead-value metrics when supplied. Runs on the
/// per-seed reference engine; [`low_utility_report_batch`] produces the
/// identical bytes faster.
pub fn low_utility_report(
    program: &Program,
    gcost: &CostGraph,
    config: &CostBenefitConfig,
    top_n: usize,
    dead: Option<&DeadValueMetrics>,
) -> String {
    low_utility_report_with(
        program,
        gcost,
        config,
        top_n,
        dead,
        &ReferenceEngine::new(gcost),
    )
}

/// [`low_utility_report`] ranked by the batch engine. The report text
/// is byte-identical to the reference engine's. `lowutil` itself ranks
/// with [`rank_structures_batch`](crate::structure::rank_structures_batch)
/// and renders with [`render_report`]; this wrapper stays for the
/// benchmark harness, which compiles against it, and for the tests that
/// hold the two engines to the same bytes. `_jobs` is ignored (every
/// analysis runs on the calling thread).
pub fn low_utility_report_batch(
    program: &Program,
    gcost: &CostGraph,
    config: &CostBenefitConfig,
    top_n: usize,
    dead: Option<&DeadValueMetrics>,
    _jobs: usize,
) -> String {
    let engine = BatchAnalyzer::new(gcost);
    low_utility_report_with(program, gcost, config, top_n, dead, &engine)
}

/// [`low_utility_report`] with the ranking computed by `engine`.
pub fn low_utility_report_with<E: CostEngine>(
    program: &Program,
    gcost: &CostGraph,
    config: &CostBenefitConfig,
    top_n: usize,
    dead: Option<&DeadValueMetrics>,
    engine: &E,
) -> String {
    let ranked = rank_structures_with(gcost, config, engine, 1);
    render_report(program, &ranked, top_n, dead)
}

/// Renders the report text from an already-computed ranking — the path
/// `lowutil` and the `serve` daemon's memoised rankings take: no engine
/// is constructed and no traversal runs. Byte-identical to the engine
/// paths given the same ranking.
pub fn render_report(
    program: &Program,
    ranked: &[StructureCostBenefit],
    top_n: usize,
    dead: Option<&DeadValueMetrics>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== low-utility data structures (top {top_n} of {}) ===",
        ranked.len()
    );
    for (i, s) in ranked.iter().take(top_n).enumerate() {
        out.push_str(&format_structure(program, s, i + 1));
    }
    if let Some(m) = dead {
        let _ = writeln!(out, "--- dead-value metrics ---");
        let _ = writeln!(
            out,
            "I = {}  IPD = {:.1}%  IPP = {:.1}%  NLD = {:.1}%",
            m.total_instances,
            m.ipd * 100.0,
            m.ipp * 100.0,
            m.nld * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dead::dead_value_metrics;
    use lowutil_core::{CostGraphConfig, CostProfiler};
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    #[test]
    fn report_mentions_classes_fields_and_metrics() {
        let src = r#"
native print/1
class Wasteful { junk }
method main/0 {
  w = new Wasteful
  a = 21
  b = a + a
  w.junk = b
  x = 1
  native print(x)
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
        let out = Vm::new(&p).run(&mut prof).unwrap();
        let g = prof.finish();
        let dead = dead_value_metrics(&g, out.instructions_executed);
        let report = low_utility_report(&p, &g, &CostBenefitConfig::default(), 5, Some(&dead));
        assert!(report.contains("new Wasteful"), "{report}");
        assert!(report.contains("junk"), "{report}");
        assert!(report.contains("IPD"), "{report}");
        assert!(report.contains("n-RAC"), "{report}");
        // The batch engine must render the identical bytes.
        let batch =
            low_utility_report_batch(&p, &g, &CostBenefitConfig::default(), 5, Some(&dead), 1);
        assert_eq!(report, batch);
    }
}
