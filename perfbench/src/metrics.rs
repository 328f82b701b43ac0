//! The benchmark's metrics, computed from the passes of one run. The
//! names and units here are the ones `BENCHMARK.json` lists.

use crate::run::{Pass, MODELED_THREADS};
use crate::stats::{mean, percentile, ratio};
use crate::trace::Tracer;
use bdm_device::{CpuModel, Phase, SYSTEM_A};
use bdm_gpu::KernelCounters;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was taken, for the human-readable report.
    pub note: String,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: note.into(),
    }
}

/// The end-to-end metrics of the untraced measuring pass. `peak_rss_mib`
/// is the process high-water mark read right after that pass; `failed`
/// counts its steps that failed a check, final checks included.
pub fn end_to_end(pass: &Pass, peak_rss_mib: f64, failed: u64) -> Vec<Metric> {
    let walls_ms: Vec<f64> = pass.samples.iter().map(|s| s.wall_s * 1e3).collect();
    let n = walls_ms.len();
    let p50 = percentile(&walls_ms, 0.5).expect("a measuring pass times at least one step");
    let p90 = percentile(&walls_ms, 0.9).expect("a measuring pass times at least one step");
    let setup = percentile(&pass.setup_s, 0.5).expect("every pass sets up at least once");
    vec![
        metric(
            "agent_steps_per_s",
            pass.agent_steps_per_s(),
            "1/s",
            format!(
                "median over {} episodes of Σ agents at step start / Σ step wall",
                pass.episode_rates.len()
            ),
        ),
        metric(
            "step_ms_p50",
            p50.value,
            "ms",
            format!("median of {} steps", p50.samples),
        ),
        metric(
            "step_ms_p90",
            p90.value,
            "ms",
            format!("{} of {} steps lie beyond it", p90.beyond, p90.samples),
        ),
        metric(
            "setup_s",
            setup.value,
            "s",
            format!("median of {} set-ups", setup.samples),
        ),
        metric("peak_rss_mb", peak_rss_mib, "MiB", "process high-water RSS"),
        metric(
            "modeled_ms_per_step",
            pass.modeled_s / n as f64 * 1e3,
            "ms",
            format!(
                "System A CPU model, {MODELED_THREADS} threads; GPU ops at modeled device time"
            ),
        ),
        metric(
            "steps_ok_frac",
            1.0 - failed as f64 / pass.attempted as f64,
            "ratio",
            format!("{failed} of {} steps failed a check", pass.attempted),
        ),
    ]
}

/// Operation layers: metric prefix and the scheduler's operation name.
const OP_LAYERS: [(&str, &str); 4] = [
    ("behavior", "behaviors"),
    ("mech", "mechanical interactions"),
    ("bound_space", "bound space"),
    ("diffusion", "diffusion"),
];

/// Inputs of the per-layer metrics of one traced run.
pub struct TracedRun<'a> {
    /// Untraced pass whose steps `traced` replays.
    pub untraced: &'a Pass,
    pub traced: &'a Pass,
    /// Serial replay of the same steps.
    pub serial: &'a Pass,
    pub tracer: &'a Tracer,
    pub threads: usize,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &TracedRun<'_>) -> Vec<Metric> {
    let pass = run.traced;
    let l = &pass.layers;
    let steps = pass.steps() as f64;
    let per_step = |v: f64| ratio(v, steps);
    let agents: f64 = pass.samples.iter().map(|s| s.agents as f64).sum();
    let sim_step_s: f64 = pass.samples.iter().map(|s| s.sim_step_s).sum();
    let model = CpuModel::new(SYSTEM_A.cpu);
    let mut out = Vec::new();

    let self_s = run.tracer.step_self_time();
    out.push(metric(
        "scheduler.step_self_ms",
        per_step(self_s) * 1e3,
        "ms",
        "step span minus its operation spans",
    ));

    run.tracer.with_op_totals(|ops| {
        let wall_of = |op: &str| ops.get(op).map_or(0.0, |t| t.wall_s);
        // Σ of one `Phase` field over every record the op returned.
        let phase_sum = |op: &str, field: fn(&Phase) -> f64| -> f64 {
            ops.get(op).map_or(0.0, |t| {
                t.profiler
                    .steps()
                    .iter()
                    .flat_map(|s| &s.records)
                    .flat_map(|r| &r.phases)
                    .map(field)
                    .sum()
            })
        };
        for (layer, op) in OP_LAYERS {
            let wall = wall_of(op);
            let modeled: f64 = ops.get(op).map_or(0.0, |t| {
                t.profiler
                    .modeled_per_op(&model, MODELED_THREADS)
                    .iter()
                    .map(|(_, s)| s)
                    .sum()
            });
            let flops = phase_sum(op, |p| p.flops);
            let bytes = phase_sum(op, |p| p.bytes);
            out.push(metric(
                format!("{layer}.op_ms"),
                per_step(wall) * 1e3,
                "ms",
                "mean per step",
            ));
            out.push(metric(
                format!("{layer}.share"),
                ratio(wall, sim_step_s),
                "ratio",
                "of step wall",
            ));
            out.push(metric(
                format!("{layer}.modeled_ms"),
                per_step(modeled) * 1e3,
                "ms",
                "Profiler::modeled_per_op, System A, 20 threads",
            ));
            out.push(metric(
                format!("{layer}.measured_over_modeled"),
                ratio(wall, modeled),
                "ratio",
                "host wall / modeled",
            ));
            out.push(metric(
                format!("{layer}.computed_flops"),
                per_step(flops),
                "flop",
                "computed from Phase records, per step",
            ));
            out.push(metric(
                format!("{layer}.computed_bytes"),
                per_step(bytes),
                "B",
                "computed from Phase records, per step",
            ));
        }

        // Mechanical sub-phases and the GPU report, from the records the
        // mechanical operation returned.
        let mech_records: Vec<_> = ops
            .get("mechanical interactions")
            .map(|t| {
                t.profiler
                    .steps()
                    .iter()
                    .flat_map(|s| s.records.iter())
                    .collect()
            })
            .unwrap_or_default();
        let sub_wall = |name: &str| -> f64 {
            mech_records
                .iter()
                .filter(|r| r.name == name)
                .map(|r| r.wall_s)
                .sum()
        };
        let (build_s, force_s) = (
            sub_wall("neighborhood build"),
            sub_wall("mechanical forces"),
        );
        out.push(metric(
            "mech.build_ms",
            per_step(build_s) * 1e3,
            "ms",
            "neighborhood build sub-phase",
        ));
        out.push(metric(
            "mech.force_ms",
            per_step(force_s) * 1e3,
            "ms",
            "search + Eq. 1 force sub-phase",
        ));
        out.push(metric(
            "mech.ns_per_candidate",
            ratio(force_s, l.candidates as f64) * 1e9,
            "ns",
            "force sub-phase wall / candidates",
        ));
        out.push(metric(
            "mech.candidates_per_agent",
            ratio(l.candidates as f64, agents),
            "count",
            "per agent-step",
        ));
        out.push(metric(
            "mech.contact_ratio",
            ratio(l.contacts as f64, l.candidates as f64),
            "ratio",
            "contacts / candidates",
        ));
        out.push(metric(
            "mech.rebuild_skip_ratio",
            per_step(l.rebuilds_skipped as f64),
            "ratio",
            "CSR rebuilds skipped / steps",
        ));
        out.push(metric(
            "mech.csr_index_gap",
            ratio(l.index_gap_sum, l.index_gap_steps as f64),
            "count",
            "mean |agent − candidate| storage index, CSR pass",
        ));

        out.push(metric(
            "rm.births_per_step",
            per_step(l.births as f64),
            "count",
            "uids allocated",
        ));
        out.push(metric(
            "rm.deaths_per_step",
            per_step(l.deaths as f64),
            "count",
            "uids lost",
        ));
        out.push(metric(
            "behavior.ns_per_agent",
            ratio(wall_of("behaviors"), agents) * 1e9,
            "ns",
            "behavior op wall / agent-steps",
        ));

        let diffusion_wall = wall_of("diffusion");
        let diffusion_bytes = phase_sum("diffusion", |p| p.bytes);
        out.push(metric(
            "diffusion.substeps_per_step",
            per_step(l.diffusion_substeps as f64),
            "count",
            "Σ over substances",
        ));
        out.push(metric(
            "diffusion.ns_per_voxel_update",
            ratio(diffusion_wall, l.diffusion_updates as f64) * 1e9,
            "ns",
            "diffusion op wall / voxel updates",
        ));
        out.push(metric(
            "diffusion.computed_gb_per_s",
            ratio(diffusion_bytes, diffusion_wall) * 1e-9,
            "GB/s",
            "computed work-model bytes / diffusion op wall",
        ));
        out.push(metric(
            "diffusion.interior_fraction",
            ratio(l.diffusion_interior as f64, l.diffusion_updates as f64),
            "ratio",
            "branch-free interior updates / all updates",
        ));

        out.push(metric(
            "checkpoint.write_ms",
            mean(&l.checkpoint_write_s) * 1e3,
            "ms",
            format!("mean of {} writes", l.checkpoint_write_s.len()),
        ));
        out.push(metric(
            "checkpoint.bytes",
            mean(&l.checkpoint_bytes),
            "B",
            "mean checkpoint size",
        ));
        out.push(metric(
            "checkpoint.restore_ms",
            mean(&l.restore_s) * 1e3,
            "ms",
            format!("mean of {} restores", l.restore_s.len()),
        ));

        let gpu: Vec<_> = mech_records.iter().filter_map(|r| r.gpu.as_ref()).collect();
        let gpu_sum =
            |f: &dyn Fn(&bdm_gpu::GpuStepReport) -> f64| per_step(gpu.iter().map(|g| f(g)).sum());
        let (mut step_counters, mut mech_counters) =
            (KernelCounters::default(), KernelCounters::default());
        for g in &gpu {
            step_counters.merge(&g.counters);
            mech_counters.merge(&g.mech_counters);
        }
        let gpu_host_s = if gpu.is_empty() {
            0.0
        } else {
            wall_of("mechanical interactions")
        };
        let ai = mech_counters.arithmetic_intensity();
        out.push(metric(
            "gpu.host_ms",
            per_step(gpu_host_s) * 1e3,
            "ms",
            "host wall of the GPU mech op",
        ));
        out.push(metric(
            "gpu.h2d_ms",
            gpu_sum(&|g| g.h2d_s) * 1e3,
            "ms",
            "modeled",
        ));
        out.push(metric(
            "gpu.build_ms",
            gpu_sum(&|g| g.build_s) * 1e3,
            "ms",
            "modeled",
        ));
        out.push(metric(
            "gpu.mech_ms",
            gpu_sum(&|g| g.mech_s) * 1e3,
            "ms",
            "modeled",
        ));
        out.push(metric(
            "gpu.d2h_ms",
            gpu_sum(&|g| g.d2h_s) * 1e3,
            "ms",
            "modeled",
        ));
        out.push(metric(
            "gpu.bytes_h2d",
            gpu_sum(&|g| g.bytes_h2d as f64),
            "B",
            "per step",
        ));
        out.push(metric(
            "gpu.bytes_d2h",
            gpu_sum(&|g| g.bytes_d2h as f64),
            "B",
            "per step",
        ));
        out.push(metric(
            "gpu.sort_gathers",
            gpu_sum(&|g| g.sort_gathers as f64),
            "count",
            "per step",
        ));
        out.push(metric(
            "gpu.l2_hit_rate",
            step_counters.l2_read_share(),
            "ratio",
            "modeled, whole step",
        ));
        out.push(metric(
            "gpu.warp_efficiency",
            if gpu.is_empty() {
                0.0
            } else {
                mech_counters.warp_efficiency()
            },
            "ratio",
            "modeled, mech kernel",
        ));
        out.push(metric(
            "gpu.arithmetic_intensity",
            if ai.is_finite() { ai } else { 0.0 },
            "flop/B",
            "modeled, mech kernel FLOPs / DRAM bytes",
        ));
    });

    let serial = run.serial.agent_steps_per_s();
    let threads = run.threads as f64;
    let mean_wall = |p: &Pass| ratio(p.samples.iter().map(|s| s.wall_s).sum(), p.steps() as f64);
    out.push(metric(
        "run.rss_growth_mb",
        pass.rss_end_mib - pass.rss_after_setup_mib,
        "MiB",
        "RSS at the end minus after set-up",
    ));
    out.push(metric(
        "run.serial_agent_steps_per_s",
        serial,
        "1/s",
        "ExecMode::Serial replay of the same steps",
    ));
    out.push(metric(
        "run.parallel_efficiency",
        ratio(run.untraced.agent_steps_per_s(), serial * threads),
        "ratio",
        "parallel rate / (serial rate × threads)",
    ));
    out.push(metric(
        "run.threads",
        threads,
        "count",
        "worker threads of ExecMode::Parallel",
    ));
    out.push(metric(
        "run.trace_overhead_frac",
        ratio(
            mean_wall(pass) - mean_wall(run.untraced),
            mean_wall(run.untraced),
        ),
        "ratio",
        "traced vs untraced mean step wall, same steps",
    ));
    out
}
