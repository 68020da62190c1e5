//! The compile pipeline rebuilt from each layer's public calls, with a
//! span around every call: `fpa_frontend::compile`, `fpa_ir::opt`,
//! `fpa_ir::verify`, `Interp::run`, the three partitioners and
//! `fpa_codegen::compile_module_timed`. The sequence is the one
//! `fpa_harness::compiler::Compiler` runs; callers compare the products
//! with an untraced build, so a drift between the two fails the run.

use crate::trace::Tracer;
use fpa_harness::compiler::{Error, StageTimings, SuiteArtifacts};
use fpa_ir::{ExecOutcome, Interp, Module, Profile};
use fpa_isa::Program;
use fpa_partition::{
    partition_advanced, partition_basic, partition_optimal, Assignment, BlockFreq, CostParams,
    PartitionStats,
};

/// Exact work counters the traced passes accumulate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// IR instructions the profiling interpreter executed.
    pub interp_insts: u64,
    /// Machine instructions emitted by codegen.
    pub static_insts: u64,
    /// Simulation runs (timing, co-simulated or functional).
    pub sim_cells: u64,
    /// Cycles of timing-engine runs (plain and co-simulated).
    pub sim_cycles: u64,
    /// Instructions retired by every simulation run.
    pub sim_retired: u64,
    /// Instructions retired by functional runs alone.
    pub functional_retired: u64,
    /// Binaries linted.
    pub lint_binaries: u64,
    /// Lint findings (must stay 0).
    pub lint_findings: u64,
}

/// Parse, optimize, split webs and verify: the frontend sequence.
pub fn optimized(t: &mut Tracer, src: &str) -> Result<Module, Error> {
    let mut m = t.span("frontend.parse", |_| {
        fpa_frontend::compile(src).map_err(Error::Compile)
    })?;
    t.span("ir.opt", |_| {
        fpa_ir::opt::optimize(&mut m);
        for f in &mut m.funcs {
            fpa_ir::opt::split_webs(f);
        }
        fpa_ir::verify::verify_module(&m).map_err(Error::Verify)
    })?;
    Ok(m)
}

/// The profiling interpreter run (golden output plus block profile).
pub fn profiled(
    t: &mut Tracer,
    c: &mut Counts,
    m: &Module,
) -> Result<(ExecOutcome, Profile), Error> {
    let r = t.span("ir.interp", |_| {
        Interp::new(m).run().map_err(Error::Profile)
    })?;
    c.interp_insts += r.0.dynamic_insts;
    Ok(r)
}

fn codegen(t: &mut Tracer, c: &mut Counts, m: &Module, a: &Assignment) -> Program {
    let (p, _) = t.span("codegen", |_| fpa_codegen::compile_module_timed(m, a));
    c.static_insts += p.static_size() as u64;
    p
}

/// A transforming partitioner (advanced or optimal) on its own clone of
/// the module, followed by module verification.
fn transformed(
    t: &mut Tracer,
    name: &'static str,
    m: &Module,
    part: impl FnOnce(&mut Module) -> Assignment,
) -> Result<(Module, Assignment), Error> {
    t.span(name, |_| {
        let mut m2 = m.clone();
        let a = part(&mut m2);
        fpa_ir::verify::verify_module(&m2).map_err(Error::Verify)?;
        Ok((m2, a))
    })
}

/// `Compiler::build_suite`: one frontend pass and one profile, four
/// binaries. Stage timings are left zero; compare with
/// [`same_suite`].
pub fn suite(
    t: &mut Tracer,
    c: &mut Counts,
    src: &str,
    params: &CostParams,
) -> Result<SuiteArtifacts, Error> {
    let m = optimized(t, src)?;
    let (golden, profile) = profiled(t, c, &m)?;
    let freq = BlockFreq::from_profile(&m, &profile);
    let conv_assignment = Assignment::conventional(&m);
    let basic_assignment = t.span("partition.basic", |_| partition_basic(&m));
    let (m2, advanced_assignment) = transformed(t, "partition.advanced", &m, |m2| {
        partition_advanced(m2, &freq, params)
    })?;
    let (m3, optimal_assignment) = transformed(t, "partition.optimal", &m, |m3| {
        partition_optimal(m3, &freq, params)
    })?;
    let (basic_stats, advanced_stats, optimal_stats) = t.span("partition.stats", |_| {
        (
            PartitionStats::compute(&m, &basic_assignment, &freq),
            PartitionStats::compute(&m2, &advanced_assignment, &freq),
            PartitionStats::compute(&m3, &optimal_assignment, &freq),
        )
    });
    Ok(SuiteArtifacts {
        conventional: codegen(t, c, &m, &conv_assignment),
        basic: codegen(t, c, &m, &basic_assignment),
        advanced: codegen(t, c, &m2, &advanced_assignment),
        optimal: codegen(t, c, &m3, &optimal_assignment),
        module: m,
        advanced_module: m2,
        optimal_module: m3,
        conv_assignment,
        basic_assignment,
        advanced_assignment,
        optimal_assignment,
        basic_stats,
        advanced_stats,
        optimal_stats,
        profile,
        golden_output: golden.output,
        golden_exit: golden.exit_code,
        timings: StageTimings::default(),
    })
}

/// `Compiler::new(src).scheme(Scheme::Advanced).cost_params(params).build()`:
/// the fuzz oracle's cost-sweep build. Returns the program, its module
/// and its assignment.
pub fn advanced(
    t: &mut Tracer,
    c: &mut Counts,
    src: &str,
    params: &CostParams,
) -> Result<(Program, Module, Assignment), Error> {
    let m = optimized(t, src)?;
    let (_, profile) = profiled(t, c, &m)?;
    let freq = BlockFreq::from_profile(&m, &profile);
    let (m2, a) = transformed(t, "partition.advanced", &m, |m2| {
        partition_advanced(m2, &freq, params)
    })?;
    t.span("partition.stats", |_| {
        PartitionStats::compute(&m2, &a, &freq)
    });
    let p = codegen(t, c, &m2, &a);
    Ok((p, m2, a))
}

/// Suite equality apart from the wall-clock stage timings.
pub fn same_suite(traced: &SuiteArtifacts, untraced: &SuiteArtifacts) -> bool {
    let aligned = SuiteArtifacts {
        timings: untraced.timings,
        ..traced.clone()
    };
    aligned == *untraced
}
