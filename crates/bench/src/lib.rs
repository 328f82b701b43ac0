//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! Each `fig*` module exposes a `run(&BenchScale)` function returning
//! structured rows plus a `render` that prints the same series the paper
//! reports. The binaries in `src/bin/` are thin wrappers; the files in
//! `benches/` run reduced-scale versions under `cargo bench`.
//!
//! | artifact | module | binary |
//! |---|---|---|
//! | Table I   | [`table1`] | `table1` |
//! | Fig. 3    | [`fig3`]   | `fig3_profile` |
//! | Figs. 8+9 | [`fig8`]   | `fig8_fig9` |
//! | Figs. 10+11 | [`fig10`] | `fig10_fig11` |
//! | Fig. 12   | [`fig12`]  | `fig12_roofline` |
//! | §VI future work | [`dynpar`] | `ablation_dynpar` |
//! | reproduction checklist | — | `verify_reproduction` |
//! | CUDA vs OpenCL | — | `ablation_frontends` |
//! | trace-sampling fidelity | — | `ablation_sampling` |
//! | diagnostics | — | `debug_counters`, `debug_gpu`, `debug_steps` |
//!
//! Scale control: the default sizes finish on a laptop-class machine;
//! set `BDM_PAPER_SCALE=1` for the paper's full 262,144-cell /
//! 2-million-agent configurations.

pub mod dynpar;
pub mod emit;
pub mod fig10;
pub mod fig12;
pub mod fig3;
pub mod fig8;
pub mod paper;
pub mod scale;
pub mod table;
pub mod table1;

pub use scale::BenchScale;

use bdm_device::cpu::Phase;
use bdm_sim::profiler::Profiler;

/// Names of the profiler records that make up the mechanical
/// interactions operation on the CPU paths.
pub const MECH_OP_RECORDS: [&str; 3] = [
    "neighborhood build",
    "neighborhood search",
    "mechanical forces",
];

/// Collect the work phases of the mechanical op across all recorded
/// steps (the quantity Figs. 8–11 time).
pub fn mech_phases(profiler: &Profiler) -> Vec<Phase> {
    let mut phases = Vec::new();
    for step in profiler.steps() {
        for r in &step.records {
            if MECH_OP_RECORDS.contains(&r.name.as_str()) {
                phases.extend(r.phases.iter().copied());
            }
        }
    }
    phases
}

/// Sum of wall seconds of the mechanical op across steps.
pub fn mech_wall(profiler: &Profiler) -> f64 {
    profiler
        .steps()
        .iter()
        .flat_map(|s| &s.records)
        .filter(|r| MECH_OP_RECORDS.contains(&r.name.as_str()) || r.gpu.is_some())
        .map(|r| r.wall_s)
        .sum()
}

/// Total modeled GPU *kernel* time (grid build + mechanical kernels,
/// excluding transfers) across steps.
pub fn gpu_kernel_total(profiler: &Profiler) -> f64 {
    profiler
        .steps()
        .iter()
        .flat_map(|s| &s.records)
        .filter_map(|r| r.gpu.as_ref())
        .map(|g| g.kernel_s())
        .sum()
}

/// Total modeled GPU time (transfers + kernels) across steps, plus the
/// merged mechanical-kernel counters of the last step (roofline input).
pub fn gpu_totals(profiler: &Profiler) -> (f64, Option<bdm_gpu::counters::KernelCounters>, f64) {
    let mut total = 0.0;
    let mut last_counters = None;
    let mut last_mech_s = 0.0;
    for step in profiler.steps() {
        for r in &step.records {
            if let Some(g) = &r.gpu {
                total += g.total_s;
                last_counters = Some(g.mech_counters.clone());
                last_mech_s = g.mech_s;
            }
        }
    }
    (total, last_counters, last_mech_s)
}

/// Pick a warp-trace sampling stride that keeps detailed tracing around
/// `budget` warps for an `agents`-sized launch.
pub fn trace_sample_for(agents: usize, budget: u64) -> u64 {
    let warps = (agents as u64).div_ceil(32);
    (warps / budget).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_sim::workload::benchmark_a;
    use bdm_sim::EnvironmentKind;

    #[test]
    fn trace_sample_scales() {
        assert_eq!(trace_sample_for(1000, 2048), 1);
        assert!(trace_sample_for(10_000_000, 2048) > 100);
    }

    #[test]
    fn mech_phase_extraction_covers_cpu_pipelines() {
        let mut sim = benchmark_a(4, 1);
        sim.set_environment(EnvironmentKind::KdTree);
        sim.simulate(2);
        let phases = mech_phases(sim.profiler());
        // kd pipeline: 3 phases per step.
        assert_eq!(phases.len(), 6);
        assert!(mech_wall(sim.profiler()) > 0.0);
        // No GPU records on the CPU path.
        let (total, counters, _) = gpu_totals(sim.profiler());
        assert_eq!(total, 0.0);
        assert!(counters.is_none());
        assert_eq!(gpu_kernel_total(sim.profiler()), 0.0);
    }

    #[test]
    fn gpu_totals_cover_gpu_pipeline() {
        let mut sim = benchmark_a(4, 1);
        sim.set_environment(EnvironmentKind::gpu_default());
        sim.simulate(2);
        assert!(mech_phases(sim.profiler()).is_empty());
        let (total, counters, mech_s) = gpu_totals(sim.profiler());
        assert!(total > 0.0);
        assert!(counters.unwrap().total_flops() > 0.0);
        assert!(mech_s > 0.0);
        let kernel = gpu_kernel_total(sim.profiler());
        assert!(kernel > 0.0 && kernel < total, "kernel excludes transfers");
    }
}
