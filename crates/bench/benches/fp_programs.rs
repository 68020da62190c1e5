//! Section 7.5: partitioning applied to floating-point programs.

use fpa_harness::experiments::fp_programs;
use fpa_harness::report;
use fpa_sim::{simulate, MachineConfig};
use fpa_testutil::bench;

fn main() {
    let (sizes, speed) = fp_programs(1).expect("fp programs");
    println!("\n{}", report::fig8(&sizes));
    println!(
        "{}",
        report::speedup("Section 7.5: FP programs on the 4-way machine", &speed)
    );

    let ear = fpa_bench::compiled("ear_fp");
    let cfg = MachineConfig::four_way(true);
    bench("fp_programs/timing/ear_fp/advanced", 5, || {
        simulate(&ear.advanced, &cfg, 500_000_000).expect("sim");
    });
}
