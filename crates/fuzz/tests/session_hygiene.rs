//! Session hygiene: a long-lived [`SimSession`] must be purely an
//! allocation cache. Running the whole corpus through one session — in
//! an order that interleaves workloads, schemes, and machine widths, so
//! arenas repeatedly resize and the decoded-program cache churns — must
//! produce results identical to giving every run a fresh session, and
//! identical to the session-routed free functions the batch API uses.

use fpa_fuzz::corpus;
use fpa_harness::Compiler;
use fpa_isa::Program;
use fpa_sim::{CosimReport, ExecError, FuncSimResult, MachineConfig, SimSession, TimingResult};
use std::path::PathBuf;

const FUEL: u64 = 50_000_000;

/// Every corpus reproducer that still compiles, × 4 schemes, with the
/// scheme-appropriate augmented flag.
fn corpus_programs() -> Vec<(Program, bool)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
    let files = corpus::list(&dir).expect("list corpus");
    assert!(
        files.len() >= 10,
        "corpus unexpectedly small: {}",
        files.len()
    );
    let mut programs = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("read corpus file");
        // Corpus files reproduce *historical* failures; skip any the
        // current frontend rejects outright.
        let Ok(suite) = Compiler::new(&src).build_suite() else {
            continue;
        };
        programs.push((suite.conventional, false));
        programs.push((suite.basic, true));
        programs.push((suite.advanced, true));
        programs.push((suite.optimal, true));
    }
    assert!(
        programs.len() >= 2 * files.len(),
        "most corpus reproducers should still build ({} programs from {} files)",
        programs.len(),
        files.len()
    );
    programs
}

#[test]
fn interleaved_session_runs_match_fresh_state_runs() {
    let programs = corpus_programs();

    // The cell list: every program on both machine widths.
    let cells: Vec<(usize, MachineConfig)> = (0..programs.len())
        .flat_map(|i| {
            let augmented = programs[i].1;
            [
                (i, MachineConfig::four_way(augmented)),
                (i, MachineConfig::eight_way(augmented)),
            ]
        })
        .collect();

    // Baseline: every cell on a brand-new session (fresh arenas, empty
    // program cache).
    let baseline: Vec<_> = cells
        .iter()
        .map(|(i, cfg)| SimSession::new().simulate(&programs[*i].0, cfg, FUEL))
        .collect();

    // One persistent session, visiting cells outside-in (first, last,
    // second, second-to-last, ...) so consecutive runs flip between
    // programs and widths — the worst case for stale arena state. Two
    // full passes: the second replays everything through the warmed
    // decoded-program cache.
    let mut session = SimSession::new();
    let order = outside_in(cells.len());
    for pass in 0..2 {
        for &k in &order {
            let (i, cfg) = &cells[k];
            let got = session.simulate(&programs[*i].0, cfg, FUEL);
            assert_eq!(
                got, baseline[k],
                "cell {k} (program {i}) diverged on persistent-session pass {pass}"
            );
        }
    }

    // The free functions route through the calling thread's shared
    // session (how `run_cells` workers execute); they must agree too.
    for (k, (i, cfg)) in cells.iter().enumerate() {
        let got = fpa_sim::simulate(&programs[*i].0, cfg, FUEL);
        assert_eq!(
            got, baseline[k],
            "cell {k} diverged via thread-local session"
        );
    }
}

/// One run through a session: a program index and, for timing and
/// co-simulated runs, whether the machine is the 8-way one.
#[derive(Clone, Copy, Debug)]
enum Run {
    Timing(usize, bool),
    Functional(usize),
    Cosim(usize, bool),
}

/// What a run returned.
#[derive(Debug, PartialEq)]
enum Outcome {
    Timing(Result<TimingResult, ExecError>),
    Functional(Result<FuncSimResult, ExecError>),
    Cosim(Result<CosimReport, ExecError>),
}

/// The memory image a run left in its session, kept sparsely as
/// `(image length, non-zero 4 KiB pages)`.
type Image = (usize, Vec<(usize, Vec<u8>)>);

fn image(memory: &[u8]) -> Image {
    let pages = memory
        .chunks(4096)
        .enumerate()
        .filter(|(_, page)| page.iter().any(|&b| b != 0))
        .map(|(i, page)| (i, page.to_vec()))
        .collect();
    (memory.len(), pages)
}

fn config(augmented: bool, eight_way: bool) -> MachineConfig {
    if eight_way {
        MachineConfig::eight_way(augmented)
    } else {
        MachineConfig::four_way(augmented)
    }
}

fn execute(session: &mut SimSession, programs: &[(Program, bool)], run: Run) -> (Outcome, Image) {
    let outcome = match run {
        Run::Timing(i, wide) => {
            let (p, aug) = &programs[i];
            Outcome::Timing(session.simulate(p, &config(*aug, wide), FUEL))
        }
        Run::Functional(i) => Outcome::Functional(session.run_functional(&programs[i].0, FUEL)),
        Run::Cosim(i, wide) => {
            let (p, aug) = &programs[i];
            Outcome::Cosim(session.cosimulate(p, &config(*aug, wide), FUEL))
        }
    };
    (outcome, image(session.memory()))
}

#[test]
fn interleaved_functional_timing_and_cosim_runs_match_fresh_state_runs() {
    let mut programs = corpus_programs();
    // Every fourth program again with a smaller and a larger stack, so
    // the persistent session's memory images shrink and grow between
    // runs.
    let resized: Vec<_> = programs
        .iter()
        .step_by(4)
        .enumerate()
        .map(|(k, (p, aug))| {
            let mut p = p.clone();
            p.stack_top = if k % 2 == 0 {
                Program::DEFAULT_STACK_TOP / 2
            } else {
                Program::DEFAULT_STACK_TOP + 0x1_0000
            };
            (p, *aug)
        })
        .collect();
    programs.extend(resized);

    let runs: Vec<Run> = (0..programs.len())
        .flat_map(|i| {
            [
                Run::Functional(i),
                Run::Cosim(i, false),
                Run::Timing(i, true),
                Run::Cosim(i, true),
                Run::Timing(i, false),
            ]
        })
        .collect();
    let baseline: Vec<_> = runs
        .iter()
        .map(|&run| execute(&mut SimSession::new(), &programs, run))
        .collect();
    for (run, (outcome, _)) in runs.iter().zip(&baseline) {
        if let Outcome::Cosim(Ok(report)) = outcome {
            assert!(report.clean(), "{run:?}: {:?}", report.violations);
        }
    }

    // One persistent session, visiting runs outside-in, so consecutive
    // runs differ in kind, program, width and (often) stack size.
    let mut session = SimSession::new();
    for pass in 0..2 {
        for k in outside_in(runs.len()) {
            let got = execute(&mut session, &programs, runs[k]);
            assert!(
                got == baseline[k],
                "{:?} diverged from a fresh session on persistent-session pass {pass}",
                runs[k]
            );
        }
    }
}

/// `0..n` visited first, last, second, second-to-last, ...
fn outside_in(n: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(n);
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        order.push(lo);
        lo += 1;
        if lo < hi {
            hi -= 1;
            order.push(hi);
        }
    }
    order
}
