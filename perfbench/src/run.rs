//! The closed loop: one simulation in one process, each step
//! issued when the previous one returns.

use crate::check::{self, Before};
use crate::host;
use crate::trace::{self, Tracer};
use crate::workloads::Workload;
use bdm_device::{CpuModel, SYSTEM_A};
use bdm_sim::{ExecMode, Simulation};
use std::time::Instant;

/// Threads of the modeled System A CPU (2 × 10-core Xeon E5-2640 v4).
pub const MODELED_THREADS: u32 = 20;

/// Fewest timed steps a measuring pass takes, so that ten samples lie
/// beyond the 90th percentile.
pub const MIN_TIMED_STEPS: usize = 100;

/// Error messages kept per pass; later failures are only counted.
const MAX_ERRORS: usize = 8;

/// When a pass stops stepping.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole episodes until at least this many seconds of them and at
    /// least [`MIN_TIMED_STEPS`] timed steps.
    Seconds(f64),
    /// Whole episodes until at least this many timed steps (a replay of
    /// an earlier pass).
    Steps(usize),
}

/// One timed step.
#[derive(Debug, Clone, Copy)]
pub struct StepSample {
    /// `Simulation::step` plus the per-step work the benchmark adds (a checkpoint
    /// write when one is due).
    pub wall_s: f64,
    /// `Simulation::step` alone.
    pub sim_step_s: f64,
    /// Agents alive when the step started.
    pub agents: usize,
}

/// Layer counters summed over the timed steps.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub births: u64,
    pub deaths: u64,
    pub candidates: u64,
    pub contacts: u64,
    pub rebuilds_skipped: u64,
    /// Σ and count of the CSR pass's mean index gap, over steps that
    /// measured one.
    pub index_gap_sum: f64,
    pub index_gap_steps: u64,
    pub diffusion_substeps: u64,
    pub diffusion_updates: u64,
    pub diffusion_interior: u64,
    pub checkpoint_write_s: Vec<f64>,
    pub checkpoint_bytes: Vec<f64>,
    pub restore_s: Vec<f64>,
}

/// Everything one pass measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    pub samples: Vec<StepSample>,
    /// Σ agents at step start ÷ Σ step wall of each episode.
    pub episode_rates: Vec<f64>,
    /// Seconds of each episode's set-up: scene construction plus warm-up
    /// steps.
    pub setup_s: Vec<f64>,
    /// Steps executed and checked, warm-up included.
    pub attempted: u64,
    /// Steps whose check failed.
    pub failed: u64,
    /// The first few failure messages, per-step and final.
    pub errors: Vec<String>,
    /// A final check (digest agreement, checkpoint restore) failed.
    pub final_failed: bool,
    /// Final-state digest of every episode.
    pub digests: Vec<u64>,
    /// Σ modeled seconds of the timed steps (System A CPU, 20 threads;
    /// GPU operations contribute their modeled device time).
    pub modeled_s: f64,
    pub layers: LayerCounts,
    /// Agents of the first scene as built.
    pub initial_agents: usize,
    /// Agents when the pass ended.
    pub final_agents: usize,
    /// Resident set after the last set-up and at the end, MiB.
    pub rss_after_setup_mib: f64,
    pub rss_end_mib: f64,
}

impl Pass {
    fn error(&mut self, msg: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    /// Record a failed final check.
    fn fail_final(&mut self, msg: String) {
        self.final_failed = true;
        self.error(msg);
    }

    /// Steps counted as failed: all of them once a final check failed.
    pub fn failed_steps(&self) -> u64 {
        if self.final_failed {
            self.attempted
        } else {
            self.failed
        }
    }

    /// Throughput: Σ agents at step start ÷ Σ step wall, taken per
    /// episode and reported as the median over the pass's episodes. All
    /// episodes of a pass are the same run, so the median is the typical
    /// episode's rate and ignores a minority of episodes that the host
    /// slowed or sped up.
    pub fn agent_steps_per_s(&self) -> f64 {
        crate::stats::percentile(&self.episode_rates, 0.5).map_or(0.0, |p| p.value)
    }

    /// Timed steps.
    pub fn steps(&self) -> usize {
        self.samples.len()
    }
}

/// How to drive one workload.
pub struct Runner<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub mode: ExecMode,
    pub tracer: Option<&'a Tracer>,
}

impl Runner<'_> {
    /// Drive the workload until `budget` is spent.
    pub fn run(&self, budget: Budget) -> Pass {
        let mut pass = Pass::default();
        let model = CpuModel::new(SYSTEM_A.cpu);
        let mut checkpoints = Checkpoints::default();
        let start = Instant::now();
        while !match budget {
            Budget::Seconds(s) => {
                pass.steps() >= MIN_TIMED_STEPS && start.elapsed().as_secs_f64() >= s
            }
            Budget::Steps(n) => pass.steps() >= n,
        } {
            let mut sim = self.setup(&mut pass);
            let modeled_base = sim.profiler().modeled_total(&model, MODELED_THREADS);
            checkpoints.at = None;
            let first = pass.samples.len();
            for _ in 0..self.workload.episode_steps() {
                self.step(&mut sim, &mut pass, &mut checkpoints, true);
            }
            let episode = &pass.samples[first..];
            let agents: usize = episode.iter().map(|s| s.agents).sum();
            let wall: f64 = episode.iter().map(|s| s.wall_s).sum();
            pass.episode_rates
                .push(crate::stats::ratio(agents as f64, wall));
            self.finish_episode(&sim, &mut pass, &model, modeled_base, &checkpoints);
        }
        pass.rss_end_mib = host::rss_mib().0;
        pass
    }

    /// Build one episode's scene and run its warm-up steps; timed as
    /// set-up.
    fn setup(&self, pass: &mut Pass) -> Simulation {
        let t0 = Instant::now();
        let mut sim = self.workload.build(self.seed);
        sim.set_exec_mode(self.mode);
        if let Some(tracer) = self.tracer {
            let traced = trace::traced_scheduler(tracer, sim.scheduler());
            if traced.op_names() != sim.scheduler().op_names()
                || traced.stats().iter().map(|s| s.enabled).ne(sim
                    .scheduler()
                    .stats()
                    .iter()
                    .map(|s| s.enabled))
            {
                pass.fail_final(format!(
                    "traced pipeline {:?} differs from the program's {:?}",
                    traced.op_names(),
                    sim.scheduler().op_names()
                ));
            }
            *sim.scheduler_mut() = traced;
        }
        if pass.initial_agents == 0 {
            pass.initial_agents = sim.rm().len();
        }
        for _ in 0..self.workload.warmup_steps() {
            self.step(&mut sim, pass, &mut Checkpoints::default(), false);
        }
        let t1 = Instant::now();
        pass.setup_s.push((t1 - t0).as_secs_f64());
        if let Some(t) = self.tracer {
            t.record("setup", t0, t1, sim.steps_executed(), false);
        }
        pass.rss_after_setup_mib = host::rss_mib().0;
        sim
    }

    /// One checked step, followed by a checkpoint write when one is due.
    fn step(
        &self,
        sim: &mut Simulation,
        pass: &mut Pass,
        checkpoints: &mut Checkpoints,
        timed: bool,
    ) {
        let before = Before::capture(sim);
        let diffusion_before = diffusion_totals(sim);
        let step = sim.steps_executed();
        if let Some(t) = self.tracer {
            t.open_step(step, timed);
        }
        let t0 = Instant::now();
        sim.step();
        let t1 = Instant::now();
        if let Some(t) = self.tracer {
            t.close_step();
        }
        let mut t2 = t1;
        if let Some(k) = self.workload.checkpoint_every() {
            if sim.steps_executed().is_multiple_of(k) {
                checkpoints.spare.clear();
                let written = sim.checkpoint(&mut checkpoints.spare);
                t2 = Instant::now();
                if let Some(t) = self.tracer {
                    t.record("checkpoint", t1, t2, step, timed);
                }
                match written {
                    Ok(()) => {
                        std::mem::swap(&mut checkpoints.last, &mut checkpoints.spare);
                        checkpoints.at = Some(sim.steps_executed());
                        if timed {
                            pass.layers.checkpoint_write_s.push((t2 - t1).as_secs_f64());
                            pass.layers
                                .checkpoint_bytes
                                .push(checkpoints.last.len() as f64);
                        }
                    }
                    Err(e) => {
                        pass.failed += 1;
                        pass.error(format!("step {step}: checkpoint failed: {e}"));
                    }
                }
            }
        }
        pass.attempted += 1;
        if timed {
            pass.samples.push(StepSample {
                wall_s: (t2 - t0).as_secs_f64(),
                sim_step_s: (t1 - t0).as_secs_f64(),
                agents: before.len(),
            });
        }
        let churn = match check::check_step(&before, sim) {
            Ok(churn) => churn,
            Err(e) => {
                pass.failed += 1;
                pass.error(format!("step {step}: {e}"));
                return;
            }
        };
        if !timed {
            return;
        }
        let l = &mut pass.layers;
        l.births += churn.births;
        l.deaths += churn.deaths;
        if let Some(work) = sim.last_mech_work() {
            l.candidates += work.candidates;
            l.contacts += work.contacts;
            l.rebuilds_skipped += work.csr_rebuilds_skipped;
            if let Some(gap) = work.index_gap {
                l.index_gap_sum += gap;
                l.index_gap_steps += 1;
            }
        }
        let diffusion_after = diffusion_totals(sim);
        l.diffusion_substeps += diffusion_after.0 - diffusion_before.0;
        l.diffusion_updates += diffusion_after.1 - diffusion_before.1;
        l.diffusion_interior += diffusion_after.2 - diffusion_before.2;
    }

    /// Close one episode: its digest, its modeled time, and for an
    /// episode that wrote checkpoints, restore the last one, step it to
    /// the end and require the same digest (resume equivalence).
    fn finish_episode(
        &self,
        sim: &Simulation,
        pass: &mut Pass,
        model: &CpuModel,
        modeled_base: f64,
        checkpoints: &Checkpoints,
    ) {
        let digest = check::digest(sim);
        pass.digests.push(digest);
        pass.modeled_s += sim.profiler().modeled_total(model, MODELED_THREADS) - modeled_base;
        pass.final_agents = sim.rm().len();
        let Some(at) = checkpoints.at else {
            return;
        };
        let t0 = Instant::now();
        let restored = Simulation::restore(&mut checkpoints.last.as_slice());
        let t1 = Instant::now();
        if let Some(t) = self.tracer {
            t.record("restore", t0, t1, at, false);
        }
        pass.layers.restore_s.push((t1 - t0).as_secs_f64());
        match restored {
            Err(e) => pass.fail_final(format!("restore of the last checkpoint failed: {e}")),
            Ok(mut resumed) => {
                resumed.set_exec_mode(self.mode);
                while resumed.steps_executed() < sim.steps_executed() {
                    resumed.step();
                }
                if check::digest(&resumed) != digest {
                    pass.fail_final(format!(
                        "the checkpoint at step {at} does not resume to the final state"
                    ));
                }
            }
        }
    }
}

/// The last checkpoint an episode wrote, and a second buffer to write the
/// next one into: steady-state writes reuse both allocations, so the
/// timed write is the encoding, not the benchmark's memory churn.
#[derive(Default)]
struct Checkpoints {
    last: Vec<u8>,
    /// Step count the last checkpoint holds; `None` before the first.
    at: Option<u64>,
    spare: Vec<u8>,
}

/// Σ over substances of (sub-steps, voxel updates, interior updates).
fn diffusion_totals(sim: &Simulation) -> (u64, u64, u64) {
    sim.diffusion_grids().iter().fold((0, 0, 0), |acc, g| {
        let s = g.stats();
        (
            acc.0 + s.substeps,
            acc.1 + s.voxel_updates,
            acc.2 + s.interior_updates,
        )
    })
}
