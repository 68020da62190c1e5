//! The traced rebuild of one `fpa-fuzz --jobs 1 --no-corpus` campaign:
//! the lineage loop of `fpa_fuzz::campaign` and the differential oracle
//! of `fpa_fuzz::oracle::check_case`, with spans around the calls into
//! `gen::generate`, the compile layers, the simulator, the linter and
//! `coverage::extract`. The merged report it renders is compared
//! byte-for-byte with the untraced campaign's report.

use crate::build::{self, Counts};
use crate::trace::Tracer;
use fpa_fuzz::campaign::{
    global_case, lineage_steps, merge_shards, CampaignConfig, Genome, LineageResult, ShardReport,
};
use fpa_fuzz::coverage::{CoverageMap, CoverageSignature};
use fpa_fuzz::distill::NovelCase;
use fpa_fuzz::driver::case_seed;
use fpa_fuzz::gen::GenConfig;
use fpa_fuzz::oracle::{CheckedCase, OracleStats, COST_SWEEP, GENERATED_WORKLOAD, ORACLE_FUEL};
use fpa_harness::cell::{run_cells, CellId, CellMode, CellSource, CellSpec, WidthPreset};
use fpa_harness::compiler::{Scheme, SuiteArtifacts};
use fpa_isa::Program;
use fpa_partition::CostParams;
use fpa_testutil::Rng;
use std::collections::HashSet;

/// Parent-population cap per lineage (`fpa_fuzz::campaign`).
const POPULATION_CAP: usize = 24;

struct SuitePrograms<'a>(&'a SuiteArtifacts);

impl CellSource for SuitePrograms<'_> {
    fn resolve(&self, id: &CellId) -> Option<&Program> {
        let s = self.0;
        (id.workload == GENERATED_WORKLOAD).then_some(match id.scheme {
            Scheme::Conventional => &s.conventional,
            Scheme::Basic => &s.basic,
            Scheme::Advanced => &s.advanced,
            Scheme::Optimal => &s.optimal,
        })
    }
}

/// One functional run compared with the golden interpreter output.
fn compare(
    t: &mut Tracer,
    c: &mut Counts,
    prog: &Program,
    suite: &SuiteArtifacts,
) -> Result<fpa_sim::FuncSimResult, String> {
    let r = t
        .span("sim.functional", |_| {
            fpa_sim::run_functional(prog, ORACLE_FUEL)
        })
        .map_err(|e| e.to_string())?;
    c.sim_cells += 1;
    c.sim_retired += r.total;
    c.functional_retired += r.total;
    if r.output != suite.golden_output || r.exit_code != suite.golden_exit {
        return Err("functional run diverged from the golden run".into());
    }
    Ok(r)
}

fn lint(
    t: &mut Tracer,
    c: &mut Counts,
    stats: &mut OracleStats,
    prog: &Program,
    module: &fpa_ir::Module,
    assignment: &fpa_partition::Assignment,
) -> Result<(), String> {
    let (findings, touches) = t.span("lint", |_| {
        fpa_analysis::lint_with_touches(prog, Some(module), Some(assignment))
    });
    c.lint_binaries += 1;
    c.lint_findings += findings.len() as u64;
    if let Some(first) = findings.first() {
        return Err(format!("lint finding: {first}"));
    }
    for (slot, code) in fpa_analysis::ErrorCode::ALL.into_iter().enumerate() {
        stats.lint_touches[slot] += touches.sites_for(code);
    }
    stats.lint_checked += 1;
    Ok(())
}

/// `oracle::check_case`, stage by stage. Any failure ends the traced
/// pass: the benchmark's campaigns are ones on which nothing fails.
fn check_case(
    t: &mut Tracer,
    c: &mut Counts,
    src: &str,
) -> Result<(CheckedCase, SuiteArtifacts), String> {
    let suite = t
        .span("build", |t| build::suite(t, c, src, &CostParams::default()))
        .map_err(|e| e.to_string())?;
    let mut stats = OracleStats::default();
    let conv = compare(t, c, &suite.conventional, &suite)?;
    if conv.augmented != 0 || suite.basic_stats.static_copies != 0 {
        return Err("scheme invariant broken".into());
    }
    stats.conventional_total = conv.total;
    stats.basic_augmented = compare(t, c, &suite.basic, &suite)?.augmented;
    let adv = compare(t, c, &suite.advanced, &suite)?;
    stats.advanced_augmented = adv.augmented;
    stats.advanced_copies = adv.copies;
    stats.advanced_builds = 1;
    let opt = compare(t, c, &suite.optimal, &suite)?;
    stats.optimal_augmented = opt.augmented;
    stats.optimal_copies = opt.copies;

    let specs: Vec<CellSpec> = Scheme::ALL
        .into_iter()
        .map(|s| {
            CellSpec::new(
                CellId::new(GENERATED_WORKLOAD, s, WidthPreset::FourWay),
                CellMode::Cosim,
                ORACLE_FUEL,
            )
        })
        .collect();
    let cells = t
        .span("sim.cosim", |_| {
            run_cells(&SuitePrograms(&suite), &specs, 1)
        })
        .map_err(|e| e.to_string())?;
    for (slot, r) in cells.iter().enumerate() {
        let report = r.payload.cosim().expect("cosim cell");
        if !report.clean()
            || report.result.output != suite.golden_output
            || report.result.exit_code != suite.golden_exit
        {
            return Err(format!("co-simulation of {} failed", r.id));
        }
        c.sim_cells += 1;
        c.sim_cycles += report.result.cycles;
        c.sim_retired += report.result.retired;
        stats.timing_cycles[slot] = report.result.cycles;
        stats.timing_checked += 1;
    }

    for (_, prog, module, assignment) in suite.scheme_views() {
        lint(t, c, &mut stats, prog, module, assignment)?;
    }

    for (o_copy, o_dupl) in COST_SWEEP {
        let params = CostParams {
            o_copy,
            o_dupl,
            balance_cap: None,
        };
        let (prog, module, assignment) = t
            .span("build", |t| build::advanced(t, c, src, &params))
            .map_err(|e| e.to_string())?;
        compare(t, c, &prog, &suite)?;
        lint(t, c, &mut stats, &prog, &module, &assignment)?;
        stats.advanced_builds += 1;
    }

    let signature = t.span("fuzz.coverage", |_| {
        fpa_fuzz::coverage::extract(&suite, &stats)
    });
    Ok((CheckedCase { stats, signature }, suite))
}

/// What one traced campaign produced.
pub struct TracedCampaign {
    /// The merged report, rendered as `fpa-fuzz --json` writes it.
    pub report: String,
    /// Coverage features of the campaign.
    pub features: usize,
    /// Cases whose coverage was novel.
    pub novel: usize,
    /// Every case's source and traced suite, for comparison with an
    /// untraced build.
    pub suites: Vec<(String, SuiteArtifacts)>,
}

fn lineage(
    t: &mut Tracer,
    c: &mut Counts,
    cfg: &CampaignConfig,
    l: u32,
    suites: &mut Vec<(String, SuiteArtifacts)>,
) -> Result<LineageResult, String> {
    let steps = lineage_steps(cfg.cases, cfg.lineages, l);
    let mut rng = Rng::new(case_seed(cfg.base_seed, l));
    let base_cfg = if l == 0 {
        cfg.gen.clone()
    } else {
        GenConfig::explore(&mut rng)
    };
    let mut population: Vec<(Genome, CoverageSignature)> = Vec::new();
    let mut out = LineageResult {
        lineage: l,
        steps,
        coverage: CoverageMap::new(),
        offloaded_cases: 0,
        total_augmented: 0,
        total_retired: 0,
        advanced_builds: 0,
        timing_checked: 0,
        lint_checked: 0,
        store_requests: 0,
        store_repeats: 0,
        total_lines: 0,
        failures: Vec::new(),
        novel: Vec::new(),
    };
    let mut seen_keys = HashSet::new();
    for step in 0..steps {
        let pick_parent = |rng: &mut Rng, n: usize| -> usize {
            if rng.bool() {
                n - 1 - rng.index(n.min(4))
            } else {
                rng.index(n)
            }
        };
        let genome = if population.is_empty() || rng.below(8) == 0 {
            Genome {
                seed: rng.next_u64(),
                cfg: base_cfg.clone(),
            }
        } else if population.len() >= 2 && rng.below(4) == 0 {
            let a = pick_parent(&mut rng, population.len());
            let mut b = rng.index(population.len() - 1);
            if b >= a {
                b += 1;
            }
            Genome {
                seed: rng.next_u64(),
                cfg: population[a].0.cfg.splice(&population[b].0.cfg, &mut rng),
            }
        } else {
            let p = pick_parent(&mut rng, population.len());
            Genome {
                seed: rng.next_u64(),
                cfg: population[p].0.cfg.mutate(&mut rng),
            }
        };
        let (lines, src) = t.span("fuzz.gen", |_| {
            let prog = genome.program();
            (prog.source_lines(), prog.render())
        });
        out.total_lines += lines as u64;
        out.store_requests += 1;
        if !seen_keys.insert(fpa_fuzz::oracle::case_store_key(&src)) {
            out.store_repeats += 1;
        }
        let (checked, suite) = t.span("fuzz.oracle", |t| check_case(t, c, &src))?;
        suites.push((src, suite));
        let stats = checked.stats;
        if stats.advanced_augmented > 0 {
            out.offloaded_cases += 1;
        }
        out.total_augmented += stats.advanced_augmented;
        out.total_retired += stats.conventional_total;
        out.advanced_builds += u64::from(stats.advanced_builds);
        out.timing_checked += u64::from(stats.timing_checked);
        out.lint_checked += u64::from(stats.lint_checked);
        if out.coverage.novelty(&checked.signature) > 0 {
            out.coverage.add(&checked.signature);
            out.novel.push(NovelCase {
                lineage: l,
                step,
                case: global_case(cfg.cases, cfg.lineages, l, step),
                genome: genome.clone(),
                signature: checked.signature.clone(),
            });
            population.push((genome, checked.signature));
            if population.len() > POPULATION_CAP {
                population.remove(0);
            }
        }
    }
    Ok(out)
}

/// The campaign `fpa-fuzz --cases <cases> --seed <base_seed> --jobs 1
/// --no-corpus` runs, traced. The root span is `fuzz`.
pub fn traced(
    t: &mut Tracer,
    c: &mut Counts,
    cases: u32,
    base_seed: u64,
) -> Result<TracedCampaign, String> {
    let cfg = CampaignConfig {
        cases,
        base_seed,
        ..CampaignConfig::default()
    };
    let mut suites = Vec::new();
    let merged = t.span("fuzz", |t| {
        let results = (0..cfg.lineages)
            .map(|l| lineage(t, c, &cfg, l, &mut suites))
            .collect::<Result<Vec<_>, _>>()?;
        let shard = ShardReport {
            cases: cfg.cases,
            base_seed: cfg.base_seed,
            lineages: cfg.lineages,
            shards: 1,
            shard_id: 0,
            results,
        };
        t.span("fuzz.merge", |_| merge_shards(&[shard]))
            .map_err(|e| e.to_string())
    })?;
    Ok(TracedCampaign {
        report: merged.to_json().render(),
        features: merged.coverage.len(),
        novel: merged.novel.len(),
        suites,
    })
}
