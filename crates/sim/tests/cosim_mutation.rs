//! Mutation tests: inject deliberate microarchitectural defects into the
//! reference timing engine (`fpa_sim::reference`, the frozen full-scan
//! loop the production fast path is checked against) through the
//! test-only [`fpa_sim::reference::simulate_with_faults`] hook, and
//! prove the co-simulation layer detects them with cycle-stamped,
//! instruction-identified diagnostics. A checker that never fires is
//! indistinguishable from no checker at all.

use fpa_isa::{Inst, IntReg, Op, Program, Reg};
use fpa_sim::reference::{simulate_with_faults, FaultInjection};
use fpa_sim::{CosimObserver, MachineConfig};

fn r(i: u8) -> Reg {
    IntReg::new(i).into()
}

fn print_halt(reg: Reg) -> [Inst; 2] {
    [
        Inst {
            op: Op::Print,
            rd: None,
            rs: Some(reg),
            rt: None,
            imm: 0,
            target: 0,
        },
        Inst {
            op: Op::Halt,
            rd: None,
            rs: Some(reg),
            rt: None,
            imm: 0,
            target: 0,
        },
    ]
}

/// A long-latency `mul` at the ROB head with a quick independent `addi`
/// behind it: the out-of-order-retirement fault retires the `addi` while
/// the `mul` still executes.
fn reorder_victim() -> Program {
    let mut p = Program::new();
    p.stack_top = 0x1_0000;
    let [print, halt] = print_halt(r(11));
    p.code = vec![
        Inst::li(Op::Li, r(8), 5),               // 0
        Inst::li(Op::Li, r(9), 7),               // 1
        Inst::alu(Op::Mul, r(10), r(8), r(9)),   // 2: 6-cycle latency
        Inst::alu_imm(Op::Addi, r(11), r(9), 1), // 3: independent, 1 cycle
        print,                                   // 4
        halt,                                    // 5
    ];
    p
}

/// A dependent chain through the long-latency `mul`: the
/// ignore-readiness fault issues the consumer `addi` while the `mul`
/// result is still in flight.
fn bypass_victim() -> Program {
    let mut p = Program::new();
    p.stack_top = 0x1_0000;
    let [print, halt] = print_halt(r(11));
    p.code = vec![
        Inst::li(Op::Li, r(8), 5),                // 0
        Inst::li(Op::Li, r(9), 7),                // 1
        Inst::alu(Op::Mul, r(10), r(8), r(9)),    // 2: 6-cycle latency
        Inst::alu_imm(Op::Addi, r(11), r(10), 1), // 3: consumes the mul
        print,                                    // 4
        halt,                                     // 5
    ];
    p
}

#[test]
fn lockstep_checker_catches_out_of_order_retirement() {
    let p = reorder_victim();
    let cfg = MachineConfig::four_way(true);
    let mut obs = CosimObserver::new(&p, &cfg);
    // The defect strands a stale rename: the run may wedge into
    // OutOfFuel. The checkers fired long before, so ignore the result.
    let _ = simulate_with_faults(
        &p,
        &cfg,
        10_000,
        &mut obs,
        FaultInjection {
            retire_out_of_order: true,
            ..FaultInjection::default()
        },
    );
    let v = obs
        .lockstep
        .violations()
        .iter()
        .find(|v| v.check == "lockstep-pc")
        .expect("lockstep checker must flag the out-of-order retirement");
    // Cycle-stamped and instruction-identified: the wrongly retired
    // instruction is the addi at pc 3 (program-order seq 3).
    assert!(v.cycle > 0, "diagnostic must carry the detection cycle");
    assert_eq!(v.seq, 3);
    assert_eq!(v.pc, Some(3));
    assert_eq!(v.op, Some(Op::Addi));
    let text = v.to_string();
    assert!(text.contains("cycle"), "{text}");
    assert!(text.contains("inst #3"), "{text}");
    assert!(text.contains("pc 3"), "{text}");
    // The structural checker independently flags the broken retire order.
    assert!(obs
        .invariants
        .violations()
        .iter()
        .any(|v| v.check == "retire-order"));
}

#[test]
fn invariant_checker_catches_issue_before_operands_ready() {
    let p = bypass_victim();
    let cfg = MachineConfig::four_way(true);
    let mut obs = CosimObserver::new(&p, &cfg);
    let result = simulate_with_faults(
        &p,
        &cfg,
        10_000,
        &mut obs,
        FaultInjection {
            issue_ignores_readiness: true,
            ..FaultInjection::default()
        },
    )
    .expect("values come from the oracle, so the run still completes");
    let v = obs
        .invariants
        .violations()
        .iter()
        .find(|v| v.check == "issue-before-ready")
        .expect("invariant checker must flag the scoreboard bypass bug");
    assert!(v.cycle > 0);
    assert_eq!(v.op, Some(Op::Addi), "the mul's consumer issued early");
    assert!(
        v.detail.contains("#2"),
        "must name the unready producer: {}",
        v.detail
    );
    // Architectural state is oracle-fed, so lockstep stays clean — the
    // structural checker is what catches this class of defect.
    obs.lockstep.finish(&result);
    assert!(obs.lockstep.violations().is_empty());
    assert_eq!(result.output, "36\n");
}

#[test]
fn faults_default_to_off() {
    let p = bypass_victim();
    let cfg = MachineConfig::four_way(true);
    let mut obs = CosimObserver::new(&p, &cfg);
    let result = simulate_with_faults(&p, &cfg, 10_000, &mut obs, FaultInjection::default())
        .expect("clean run");
    let violations = obs.finish(&result);
    assert!(
        violations.is_empty(),
        "{:?}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    assert_eq!(result.output, "36\n");
}
