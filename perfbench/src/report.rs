//! The `report` workload's library side: the exact generated-code
//! counters, and the traced rebuild of `fpa-report all --jobs 1`.

use crate::build::{self, Counts};
use crate::trace::Tracer;
use fpa_harness::cell::{run_cells, CellId, CellMode, CellResult, CellSpec, WidthPreset};
use fpa_harness::compiler::{Compiler, Scheme, SuiteArtifacts};
use fpa_harness::experiments::{
    Fig8Row, OptimalityGapRow, OverheadRow, SpeedupRow, FUNC_FUEL, TIMING_FUEL,
};
use fpa_harness::json::Json;
use fpa_harness::pipeline::CompiledWorkload;
use fpa_harness::report;
use fpa_partition::CostParams;
use fpa_sim::{FuncSimResult, TimingResult};

/// Simulated cycles (4-way plus 8-way) and static size of the
/// advanced-scheme binaries of `programs`: run time and size of the
/// generated code. Both are exact.
pub fn quality(programs: &[(String, String)]) -> Result<Json, String> {
    let compiled: Vec<CompiledWorkload> = programs
        .iter()
        .map(|(name, src)| {
            Compiler::new(src)
                .build_suite()
                .map(|s| CompiledWorkload::from_suite(name, s))
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let specs: Vec<CellSpec> = compiled
        .iter()
        .flat_map(|c| {
            WidthPreset::ALL.map(|w| {
                CellSpec::new(
                    CellId::new(c.name.clone(), Scheme::Advanced, w),
                    CellMode::Timing,
                    TIMING_FUEL,
                )
            })
        })
        .collect();
    let cells = run_cells(compiled.as_slice(), &specs, 1).map_err(|e| e.to_string())?;
    let cycles: u64 = cells.iter().map(|r| timing(r).cycles).sum();
    let insts: usize = compiled.iter().map(|c| c.advanced.static_size()).sum();
    let mut o = Json::obj();
    o.set("programs", compiled.len())
        .set("gen_cycles", cycles)
        .set("gen_static_insts", insts);
    Ok(o)
}

fn timing(r: &CellResult) -> &TimingResult {
    r.payload.timing().expect("timing cell")
}

fn functional(r: &CellResult) -> &FuncSimResult {
    r.payload.functional().expect("functional cell")
}

// ---- Row formulas ------------------------------------------------------
// The same formulas as `fpa_harness::experiments`; the traced report's
// stdout is compared byte-for-byte with the untraced `fpa-report`
// stdout, so any drift from the program's formulas fails the run.

fn pct(new: f64, old: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (new / old - 1.0) * 100.0
    }
}

fn fig8_row(name: &str, basic: &FuncSimResult, adv: &FuncSimResult) -> Fig8Row {
    Fig8Row {
        name: name.to_string(),
        basic_pct: basic.fp_fraction() * 100.0,
        advanced_pct: adv.fp_fraction() * 100.0,
    }
}

fn speedup_row(
    name: &str,
    conv: &TimingResult,
    basic: &TimingResult,
    adv: &TimingResult,
) -> SpeedupRow {
    SpeedupRow {
        name: name.to_string(),
        basic_pct: pct(conv.cycles as f64, basic.cycles as f64),
        advanced_pct: pct(conv.cycles as f64, adv.cycles as f64),
        conventional_cycles: conv.cycles,
        int_idle_fp_busy_frac: adv.int_idle_fp_busy as f64 / adv.cycles as f64,
    }
}

fn overhead_row(
    c: &CompiledWorkload,
    conv: &FuncSimResult,
    adv: &FuncSimResult,
    tc: &TimingResult,
    ta: &TimingResult,
) -> OverheadRow {
    let miss_rate = |(a, m): (u64, u64)| if a == 0 { 0.0 } else { m as f64 / a as f64 };
    OverheadRow {
        name: c.name.clone(),
        dynamic_increase_pct: pct(adv.total as f64, conv.total as f64),
        copy_pct: adv.copies as f64 / adv.total as f64 * 100.0,
        static_increase_pct: pct(c.static_sizes.2 as f64, c.static_sizes.0 as f64),
        load_change_pct: pct(adv.loads as f64, conv.loads as f64),
        icache_miss_rates: (miss_rate(tc.icache), miss_rate(ta.icache)),
    }
}

// ---- Traced pass -------------------------------------------------------

/// Runs `specs` as one `run_cells` batch inside a span, counting the
/// simulated work.
pub fn cells(
    t: &mut Tracer,
    c: &mut Counts,
    name: &'static str,
    source: &[CompiledWorkload],
    specs: &[CellSpec],
) -> Result<Vec<CellResult>, String> {
    let out = t
        .span(name, |_| run_cells(source, specs, 1))
        .map_err(|e| e.to_string())?;
    for r in &out {
        c.sim_cells += 1;
        if let Some(f) = r.payload.functional() {
            c.sim_retired += f.total;
            c.functional_retired += f.total;
        } else {
            let tr = timing(r);
            c.sim_cycles += tr.cycles;
            c.sim_retired += tr.retired;
        }
    }
    Ok(out)
}

fn build_set(
    t: &mut Tracer,
    c: &mut Counts,
    set: &[fpa_workloads::Workload],
) -> Result<Vec<(String, SuiteArtifacts)>, String> {
    set.iter()
        .map(|w| {
            t.span("build", |t| {
                build::suite(t, c, &w.source, &CostParams::default())
            })
            .map(|s| (w.name.clone(), s))
            .map_err(|e| format!("{}: {e}", w.name))
        })
        .collect()
}

fn workloads(builds: &[(String, SuiteArtifacts)]) -> Vec<CompiledWorkload> {
    builds
        .iter()
        .map(|(name, s)| CompiledWorkload::from_suite(name, s.clone()))
        .collect()
}

fn spec(name: &str, scheme: Scheme, width: WidthPreset, mode: CellMode) -> CellSpec {
    let fuel = if mode == CellMode::Functional {
        FUNC_FUEL
    } else {
        TIMING_FUEL
    };
    CellSpec::new(CellId::new(name.to_string(), scheme, width), mode, fuel)
}

/// Figure 8, 9 and 10 rows plus the overhead rows.
type Matrix = (
    Vec<Fig8Row>,
    Vec<SpeedupRow>,
    Vec<SpeedupRow>,
    Vec<OverheadRow>,
);

/// The figure matrix of `ExperimentContext::matrix`, as three batches:
/// 8-way timing, 4-way timing, functional.
fn matrix(t: &mut Tracer, c: &mut Counts, compiled: &[CompiledWorkload]) -> Result<Matrix, String> {
    use CellMode::{Functional, Timing, TimingObserved};
    use Scheme::{Advanced, Basic, Conventional};
    use WidthPreset::{EightWay, FourWay};
    let per = |f: &dyn Fn(&str) -> Vec<CellSpec>| -> Vec<CellSpec> {
        compiled.iter().flat_map(|w| f(&w.name)).collect()
    };
    let t8 = per(&|n| {
        [Conventional, Basic, Advanced]
            .map(|s| spec(n, s, EightWay, Timing))
            .to_vec()
    });
    let t4 = per(&|n| {
        let mut aug = spec(n, Conventional, FourWay, Timing);
        aug.augmented = Some(true);
        vec![
            spec(n, Conventional, FourWay, Timing),
            spec(n, Basic, FourWay, Timing),
            spec(n, Advanced, FourWay, TimingObserved),
            aug,
        ]
    });
    let fu = per(&|n| {
        [Basic, Advanced, Conventional]
            .map(|s| spec(n, s, FourWay, Functional))
            .to_vec()
    });
    let r8 = cells(t, c, "sim.timing8", compiled, &t8)?;
    let r4 = cells(t, c, "sim.timing4", compiled, &t4)?;
    let rf = cells(t, c, "sim.functional", compiled, &fu)?;
    let mut fig8 = Vec::new();
    let mut fig9 = Vec::new();
    let mut fig10 = Vec::new();
    let mut ovh = Vec::new();
    for (i, w) in compiled.iter().enumerate() {
        let (a, b, f) = (&r8[3 * i..], &r4[4 * i..], &rf[3 * i..]);
        fig10.push(speedup_row(
            &w.name,
            timing(&a[0]),
            timing(&a[1]),
            timing(&a[2]),
        ));
        fig9.push(speedup_row(
            &w.name,
            timing(&b[0]),
            timing(&b[1]),
            timing(&b[2]),
        ));
        ovh.push(overhead_row(
            w,
            functional(&f[2]),
            functional(&f[1]),
            timing(&b[3]),
            timing(&b[2]),
        ));
        fig8.push(fig8_row(&w.name, functional(&f[0]), functional(&f[1])));
    }
    Ok((fig8, fig9, fig10, ovh))
}

fn optgap(
    t: &mut Tracer,
    c: &mut Counts,
    compiled: &[CompiledWorkload],
) -> Result<Vec<OptimalityGapRow>, String> {
    let specs: Vec<CellSpec> = compiled
        .iter()
        .flat_map(|w| {
            [Scheme::Basic, Scheme::Advanced, Scheme::Optimal]
                .map(|s| spec(&w.name, s, WidthPreset::FourWay, CellMode::Timing))
        })
        .collect();
    let r = cells(t, c, "sim.timing4", compiled, &specs)?;
    Ok(compiled
        .iter()
        .zip(r.chunks_exact(3))
        .map(|(w, r)| {
            let (basic, adv, opt) = (timing(&r[0]), timing(&r[1]), timing(&r[2]));
            OptimalityGapRow {
                name: w.name.clone(),
                basic_cycles: basic.cycles,
                advanced_cycles: adv.cycles,
                optimal_cycles: opt.cycles,
                gap_pct: (adv.cycles as f64 - opt.cycles as f64) / adv.cycles as f64 * 100.0,
            }
        })
        .collect())
}

fn fp(t: &mut Tracer, c: &mut Counts) -> Result<(Vec<Fig8Row>, Vec<SpeedupRow>), String> {
    let compiled = workloads(&build_set(t, c, &fpa_workloads::floating())?);
    let sizes: Vec<CellSpec> = compiled
        .iter()
        .flat_map(|w| {
            [Scheme::Basic, Scheme::Advanced]
                .map(|s| spec(&w.name, s, WidthPreset::FourWay, CellMode::Functional))
        })
        .collect();
    let speed: Vec<CellSpec> = compiled
        .iter()
        .flat_map(|w| {
            [Scheme::Conventional, Scheme::Basic, Scheme::Advanced]
                .map(|s| spec(&w.name, s, WidthPreset::FourWay, CellMode::Timing))
        })
        .collect();
    let rs = cells(t, c, "sim.functional", &compiled, &sizes)?;
    let rt = cells(t, c, "sim.timing4", &compiled, &speed)?;
    Ok((
        compiled
            .iter()
            .zip(rs.chunks_exact(2))
            .map(|(w, r)| fig8_row(&w.name, functional(&r[0]), functional(&r[1])))
            .collect(),
        compiled
            .iter()
            .zip(rt.chunks_exact(3))
            .map(|(w, r)| speedup_row(&w.name, timing(&r[0]), timing(&r[1]), timing(&r[2])))
            .collect(),
    ))
}

/// What the traced report pass produced: its stdout and the builds, so
/// the caller can compare both with untraced runs.
pub struct TracedReport {
    pub stdout: String,
    pub builds: Vec<(String, SuiteArtifacts)>,
}

/// `fpa-report all --jobs 1`, rebuilt from the layers' public calls.
/// The root span is `report`; its children are the report's phases.
pub fn traced(t: &mut Tracer, c: &mut Counts) -> Result<TracedReport, String> {
    t.span("report", |t| {
        let mut out = String::new();
        let mut emit = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        t.span("report.tables", |_| {
            emit(report::table1());
            emit(report::table2());
        });
        let builds = t.span("engine.build", |t| {
            build_set(t, c, &fpa_workloads::integer())
        })?;
        let compiled = workloads(&builds);
        let (fig8, fig9, fig10, ovh) = t.span("engine.matrix", |t| matrix(t, c, &compiled))?;
        emit(report::fig8(&fig8));
        emit(report::speedup(
            "Figure 9: Speedups on a 4-way machine",
            &fig9,
        ));
        emit(report::speedup(
            "Figure 10: Speedups on an 8-way machine",
            &fig10,
        ));
        emit(report::overheads(&ovh));
        let gap = t.span("experiments.optgap", |t| optgap(t, c, &compiled))?;
        emit(report::optimality_gap(&gap));
        let (sizes, speed) = t.span("experiments.fp", |t| fp(t, c))?;
        emit(report::fig8(&sizes));
        emit(report::speedup(
            "Section 7.5: FP programs on the 4-way machine",
            &speed,
        ));
        Ok(TracedReport {
            stdout: out,
            builds,
        })
    })
}
