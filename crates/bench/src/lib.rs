//! Shared helpers for the benchmark harnesses.

use fpa_harness::pipeline::CompiledWorkload;

/// Builds one workload by name.
#[must_use]
pub fn compiled(name: &str) -> CompiledWorkload {
    let w = fpa_workloads::by_name(name).expect("known workload");
    fpa_harness::pipeline::build(&w, &fpa_partition::CostParams::default()).expect("pipeline")
}
