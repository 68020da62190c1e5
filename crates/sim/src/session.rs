//! Batched simulation sessions.
//!
//! A [`SimSession`] owns every piece of reusable simulator state — the
//! architectural machine (register files, memory image, output buffer)
//! plus a second one lent to the lockstep checker, cache tag arrays, branch-predictor counters, the in-flight entry slab
//! with its waiter vectors, the completion heap, the store index, and a
//! content-addressed cache of prepared programs (see
//! [`crate::dispatch`]). Running many cells through one session costs
//! zero steady-state allocation and decodes each distinct program once,
//! no matter how many schemes, machine widths, or sweep points run it.
//!
//! Results are bit-identical to fresh-state runs: the buffers carry
//! *allocations* across runs, never state (everything is reset at the
//! top of each run), which the session-hygiene property test in
//! `fpa-fuzz` verifies for every corpus reproducer.
//!
//! The free functions [`crate::simulate`], [`crate::simulate_observed`],
//! [`crate::run_functional`], and [`crate::cosimulate`] all route through
//! a thread-local session (see [`with_session`]), so existing callers —
//! including each worker thread of a fuzz campaign — get cross-cell
//! reuse without holding a session explicitly.

use crate::config::MachineConfig;
use crate::cosim::{CosimObserver, CosimReport};
use crate::dispatch::{self, PreProgram};
use crate::exec::ExecError;
use crate::func_sim::FuncSimResult;
use crate::observe::{NullObserver, SimObserver};
use crate::ooo::{self, SessionBufs, TimingResult};
use fpa_isa::Program;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Prepared-program cache bound: past this many distinct programs the
/// cache is emptied wholesale. Far above any experiment sweep (eight
/// workloads × three schemes), it only triggers on fuzz campaigns, where
/// every case is a fresh program and caching is moot anyway.
const MAX_CACHED_PROGRAMS: usize = 192;

/// A reusable simulation context: arena-style simulator state plus a
/// shared pre-decoded program cache. See the [module docs](self).
///
/// Not `Sync`/`Send`-shareable — one session per thread; the harness's
/// batch runner gives each worker its own.
pub struct SimSession {
    bufs: SessionBufs,
    programs: HashMap<u128, Rc<PreProgram>>,
}

impl SimSession {
    /// Creates an empty session.
    #[must_use]
    pub fn new() -> SimSession {
        SimSession {
            bufs: SessionBufs::new(),
            programs: HashMap::new(),
        }
    }

    /// Returns the prepared form of `program`, decoding it on first
    /// sight and serving the cached table afterwards (content-addressed,
    /// so the same program object or an equal clone both hit).
    fn prepared(&mut self, program: &Program) -> Rc<PreProgram> {
        let key = dispatch::hash_program(program);
        if let Some(pre) = self.programs.get(&key) {
            return Rc::clone(pre);
        }
        if self.programs.len() >= MAX_CACHED_PROGRAMS {
            self.programs.clear();
        }
        let pre = Rc::new(dispatch::prepare(program));
        self.programs.insert(key, Rc::clone(&pre));
        pre
    }

    /// Session-backed [`crate::simulate`]: identical results, reused
    /// simulator state.
    ///
    /// # Errors
    ///
    /// Same as [`crate::simulate`].
    pub fn simulate(
        &mut self,
        program: &Program,
        config: &MachineConfig,
        max_cycles: u64,
    ) -> Result<TimingResult, ExecError> {
        self.simulate_observed(program, config, max_cycles, &mut NullObserver)
    }

    /// Session-backed [`crate::simulate_observed`].
    ///
    /// # Errors
    ///
    /// Same as [`crate::simulate`].
    pub fn simulate_observed<O: SimObserver>(
        &mut self,
        program: &Program,
        config: &MachineConfig,
        max_cycles: u64,
        obs: &mut O,
    ) -> Result<TimingResult, ExecError> {
        let pre = self.prepared(program);
        ooo::simulate_core(program, &pre, config, max_cycles, obs, &mut self.bufs)
    }

    /// Session-backed [`crate::run_functional`]: the direct-threaded
    /// fast path over the prepared program, with the instruction-mix and
    /// per-block counters derived from a flat visit-count array after
    /// the run instead of per-instruction bookkeeping.
    ///
    /// # Errors
    ///
    /// Same as [`crate::run_functional`].
    pub fn run_functional(
        &mut self,
        program: &Program,
        fuel: u64,
    ) -> Result<FuncSimResult, ExecError> {
        let pre = self.prepared(program);
        self.bufs.machine.reset(program);
        let (exit_code, total) = dispatch::run_functional_pre(
            &pre,
            program.entry,
            fuel,
            &mut self.bufs.machine,
            &mut self.bufs.pc_counts,
        )?;
        let counts = &self.bufs.pc_counts;
        let mut fp_subsystem = 0u64;
        let mut augmented = 0u64;
        let mut copies = 0u64;
        let mut loads = 0u64;
        let mut stores = 0u64;
        for (pc, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let d = &pre.pre[pc].d;
            if d.subsystem == fpa_isa::Subsystem::Fp {
                fp_subsystem += count;
            }
            if d.is_augmented {
                augmented += count;
            }
            if d.is_copy {
                copies += count;
            }
            if d.is_load {
                loads += count;
            }
            if d.is_store {
                stores += count;
            }
        }
        let mut block_counts = HashMap::new();
        for (pc, func, block) in &pre.markers {
            let count = counts.get(*pc as usize).copied().unwrap_or(0);
            if count > 0 {
                *block_counts.entry((func.clone(), *block)).or_insert(0) += count;
            }
        }
        Ok(FuncSimResult {
            exit_code,
            output: std::mem::take(&mut self.bufs.machine.output),
            total,
            fp_subsystem,
            augmented,
            copies,
            loads,
            stores,
            block_counts,
        })
    }

    /// Session-backed [`crate::cosimulate`]: full lockstep co-simulation
    /// and invariant checking through the shared arena. The lockstep
    /// checker borrows the session's second machine, so its memory image
    /// is reused across runs like the timing oracle's.
    ///
    /// # Errors
    ///
    /// Same as [`crate::simulate`].
    pub fn cosimulate(
        &mut self,
        program: &Program,
        config: &MachineConfig,
        max_cycles: u64,
    ) -> Result<CosimReport, ExecError> {
        let checker = std::mem::take(&mut self.bufs.checker);
        let mut obs = CosimObserver::reusing(program, config, checker);
        let report = self
            .simulate_observed(program, config, max_cycles, &mut obs)
            .map(|result| {
                let violations = obs.finish(&result);
                CosimReport {
                    result,
                    violations,
                    total_violations: obs.total_violations(),
                    events: obs.events,
                }
            });
        self.bufs.checker = obs.lockstep.into_machine();
        report
    }

    /// The memory image the last run through this session left behind
    /// (the functional machine's, or the timing oracle's); empty before
    /// the first run.
    #[must_use]
    pub fn memory(&self) -> &[u8] {
        self.bufs.machine.memory()
    }
}

impl Default for SimSession {
    fn default() -> Self {
        SimSession::new()
    }
}

impl std::fmt::Debug for SimSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("cached_programs", &self.programs.len())
            .finish_non_exhaustive()
    }
}

thread_local! {
    static SESSION: RefCell<SimSession> = RefCell::new(SimSession::new());
}

/// Runs `f` with the calling thread's shared [`SimSession`]. This is how
/// the module-level `simulate`/`run_functional`/`cosimulate` entry points
/// get arena reuse transparently; call it directly to batch custom work.
///
/// Re-entrant calls (an observer that itself simulates) fall back to a
/// fresh transient session rather than aliasing the borrowed one.
pub fn with_session<R>(f: impl FnOnce(&mut SimSession) -> R) -> R {
    SESSION.with(|cell| match cell.try_borrow_mut() {
        Ok(mut session) => f(&mut session),
        Err(_) => f(&mut SimSession::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_isa::{Inst, IntReg, Op, Reg};

    fn counting_program(n: i32) -> Program {
        let r8: Reg = IntReg::new(8).into();
        let r9: Reg = IntReg::new(9).into();
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        p.code = vec![
            Inst::li(Op::Li, r8, n),
            Inst::alu_imm(Op::Addi, r8, r8, -1),
            Inst::branch(Op::Bnez, r8, 1),
            Inst::li(Op::Li, r9, 7),
            Inst {
                op: Op::Halt,
                rd: None,
                rs: Some(r9),
                rt: None,
                imm: 0,
                target: 0,
            },
        ];
        p.block_markers.insert(1, ("main".into(), 0));
        p
    }

    /// Stores `v` at `addr` (a word that straddles a page boundary when
    /// `addr % 4096 > 4092`), then halts.
    fn storing_program(stack_top: u32, addr: i32, v: i32) -> Program {
        let r8: Reg = IntReg::new(8).into();
        let mut p = Program::new();
        p.stack_top = stack_top;
        p.code = vec![
            Inst::li(Op::Li, r8, v),
            Inst::store(Op::Sw, r8, IntReg::ZERO, addr),
            Inst::store(Op::Sw, r8, IntReg::SP, -4),
            Inst {
                op: Op::Halt,
                rd: None,
                rs: None,
                rt: None,
                imm: 0,
                target: 0,
            },
        ];
        p
    }

    #[test]
    fn session_reuse_is_invisible_in_results() {
        let cfg = MachineConfig::four_way(true);
        let p1 = counting_program(500);
        let p2 = counting_program(3);
        let p3 = storing_program(0x1_0000, 0x2FFE, -1);
        let p4 = storing_program(0x2_0000, 0x5000, 9);
        let mut shared = SimSession::new();
        // Interleave four programs (two stack tops) through one session;
        // every result must equal a fresh session's.
        for _ in 0..3 {
            for p in [&p1, &p3, &p2, &p4] {
                let shared_t = shared.simulate(p, &cfg, 1 << 20).unwrap();
                let fresh_t = SimSession::new().simulate(p, &cfg, 1 << 20).unwrap();
                assert_eq!(shared_t, fresh_t);
                let shared_f = shared.run_functional(p, 1 << 20).unwrap();
                let mut fresh = SimSession::new();
                let fresh_f = fresh.run_functional(p, 1 << 20).unwrap();
                assert_eq!(shared_f, fresh_f);
                assert_eq!(shared.memory(), fresh.memory());
            }
        }
        // Four distinct programs decoded, each exactly once.
        assert_eq!(shared.programs.len(), 4);
    }

    #[test]
    fn steady_state_runs_reuse_the_memory_images() {
        let cfg = MachineConfig::four_way(true);
        let programs = [
            storing_program(Program::DEFAULT_STACK_TOP, 0x2FFE, -1),
            storing_program(Program::DEFAULT_STACK_TOP, 0x4000, 3),
        ];
        let mut s = SimSession::new();
        s.run_functional(&programs[0], 1 << 20).unwrap();
        s.cosimulate(&programs[0], &cfg, 1 << 20).unwrap();
        let images = |s: &SimSession| {
            [&s.bufs.machine, &s.bufs.checker].map(|m| (m.mem.as_ptr(), m.mem.capacity()))
        };
        let warm = images(&s);
        for i in 0..50 {
            let p = &programs[i % 2];
            s.run_functional(p, 1 << 20).unwrap();
            assert!(s.cosimulate(p, &cfg, 1 << 20).unwrap().clean());
            assert_eq!(images(&s), warm, "run {i} reallocated a memory image");
        }
    }

    #[test]
    fn functional_fast_path_matches_interpreter_shape() {
        let p = counting_program(10);
        let r = SimSession::new().run_functional(&p, 10_000).unwrap();
        assert_eq!(r.exit_code, 7);
        // 1 li + 10 × (addi, bnez) + li + halt.
        assert_eq!(r.total, 23);
        assert_eq!(r.block_counts[&("main".to_string(), 0)], 10);
    }

    #[test]
    fn program_cache_is_bounded() {
        let mut s = SimSession::new();
        for i in 0..(MAX_CACHED_PROGRAMS as i32 + 10) {
            // Distinct programs (different immediate) fill the cache.
            let p = counting_program(i + 1);
            s.run_functional(&p, 1 << 20).unwrap();
        }
        assert!(s.programs.len() <= MAX_CACHED_PROGRAMS);
    }
}
