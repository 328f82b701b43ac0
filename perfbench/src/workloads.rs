//! The four benchmark scenes. Each is built from the seed alone; the
//! program under test receives only the generated scene. Why each one
//! exists is recorded in `README.md` beside this package.

use bdm_math::{SplitMix64, Vec3};
use bdm_sim::behavior::{volume_of, Behavior};
use bdm_sim::{
    workload, BoundaryCondition, CellBuilder, DiffusionParams, EnvironmentKind, SimParams,
    Simulation,
};

/// Lattice edge of the `division` scene: 24³ = 13,824 cells that
/// quadruple to 55,296 over one 10-step paper run.
const DIVISION_LATTICE: usize = 24;
/// Agents of the `frozen_cloud` scene.
const FROZEN_AGENTS: usize = 30_000;
/// Mean neighbors per agent of the `frozen_cloud` scene.
const FROZEN_DENSITY: f64 = 27.0;
/// Lattice edge of the `gpu_offload` scene: 10³ = 1,000 cells growing
/// to 4,000.
const GPU_LATTICE: usize = 10;
/// Steps of one Benchmark A paper run.
const PAPER_RUN_STEPS: u64 = 10;
/// Timed steps of one `frozen_cloud` episode.
const FROZEN_EPISODE_STEPS: u64 = 50;

/// Spheroid: proliferating, secreting, dying tumor cells.
const SPHEROID_TUMOR_CELLS: usize = 3_000;
/// Spheroid: immune-like cells chemotaxing towards the chemokine.
const SPHEROID_IMMUNE_CELLS: usize = 1_000;
/// Spheroid: lattice edge of each of the four substances.
const SPHEROID_RESOLUTION: usize = 64;
/// Spheroid: steps of one episode. Births and deaths balance only on
/// average, so a longer run lets the population drift further from its
/// start.
const SPHEROID_EPISODE_STEPS: u64 = 100;
/// Spheroid: steps between in-memory checkpoints. A checkpoint step
/// costs ≈ 1.5 normal steps, and the two kinds overlap in their tails, so
/// `step_ms_p90` is steady only when checkpoint steps are well over a
/// tenth of all steps: 16 of every 100 puts it inside the checkpoint
/// steps, not where the two kinds meet. The last checkpoint, at step 96,
/// leaves four steps for the resume check to replay.
const SPHEROID_CHECKPOINT_EVERY: u64 = 6;
const SPHEROID_HALF: f64 = 120.0;
const GROWTH_FACTOR: usize = 1;
const CHEMOKINE: usize = 2;
const WASTE: usize = 3;
/// Tumor cells divide at this diameter; their daughters start at half
/// its volume and need `volume_of(10) / 2 / TUMOR_GROWTH` ≈ 20 steps to
/// divide again.
const DIVISION_DIAMETER: f64 = 10.0;
const TUMOR_GROWTH: f64 = 13.09;
/// Per-step death probability that balances one division per ≈ 20
/// steps (`1 − 2^(−1/20)` ≈ 0.034), so the population stays near its
/// start; measured a little higher, as daughters start above half the
/// division volume and some cycles take only 19 steps.
const TUMOR_APOPTOSIS: f64 = 0.0349;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Benchmark A: fresh 10-step proliferation runs on the default
    /// environment (parallel linked-list grid, f64).
    Division,
    /// Benchmark B: frozen random cloud on the CSR grid (f64), measured
    /// after its warm-up steps.
    FrozenCloud,
    /// Diffusion-dominant tissue: four 64³ substances, secretion,
    /// chemotaxis, division balanced by apoptosis, periodic checkpoints.
    Spheroid,
    /// Benchmark A through the simulated-GPU offload pipeline.
    GpuOffload,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Division,
        Workload::FrozenCloud,
        Workload::Spheroid,
        Workload::GpuOffload,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Division => "division",
            Workload::FrozenCloud => "frozen_cloud",
            Workload::Spheroid => "spheroid",
            Workload::GpuOffload => "gpu_offload",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Build the scene from `seed`.
    pub fn build(self, seed: u64) -> Simulation {
        match self {
            Workload::Division => workload::benchmark_a(DIVISION_LATTICE, seed),
            Workload::FrozenCloud => {
                let mut sim = workload::benchmark_b(FROZEN_AGENTS, FROZEN_DENSITY, seed);
                sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
                sim
            }
            Workload::Spheroid => spheroid(seed),
            Workload::GpuOffload => {
                let mut sim = workload::benchmark_a(GPU_LATTICE, seed);
                sim.set_environment(EnvironmentKind::gpu_default());
                sim
            }
        }
    }

    /// Timed steps of one episode. A run repeats episodes, each a fresh
    /// scene built from the same seed, so every episode is the same run.
    pub fn episode_steps(self) -> u64 {
        match self {
            Workload::Division | Workload::GpuOffload => PAPER_RUN_STEPS,
            Workload::FrozenCloud => FROZEN_EPISODE_STEPS,
            Workload::Spheroid => SPHEROID_EPISODE_STEPS,
        }
    }

    /// Untimed steps that end each episode's set-up. The frozen cloud is
    /// measured in its steady state: its first step builds the CSR grid
    /// that every later step keeps. The other workloads time every step
    /// of a fresh run, as a user pays them.
    pub fn warmup_steps(self) -> u64 {
        match self {
            Workload::FrozenCloud => 2,
            _ => 0,
        }
    }

    /// Steps between in-memory checkpoints, for the workload whose
    /// per-step work includes writing one.
    pub fn checkpoint_every(self) -> Option<u64> {
        (self == Workload::Spheroid).then_some(SPHEROID_CHECKPOINT_EVERY)
    }
}

fn substance(
    name: &'static str,
    coefficient: f64,
    decay: f64,
    b: BoundaryCondition,
) -> DiffusionParams {
    DiffusionParams {
        name,
        coefficient,
        decay,
        resolution: SPHEROID_RESOLUTION,
        boundary: b,
    }
}

/// A point uniformly distributed in the shell `r_min ≤ |p| ≤ r_max`.
fn in_shell(rng: &mut SplitMix64, r_min: f64, r_max: f64) -> Vec3<f64> {
    loop {
        let p = Vec3::new(
            rng.uniform(-r_max, r_max),
            rng.uniform(-r_max, r_max),
            rng.uniform(-r_max, r_max),
        );
        let r = p.norm();
        if (r_min..=r_max).contains(&r) {
            return p;
        }
    }
}

fn spheroid(seed: u64) -> Simulation {
    let mut sim = Simulation::new(SimParams::cube(SPHEROID_HALF).with_seed(seed));
    // Oxygen starts saturated; the three secreted fields start empty.
    // The chemokine's coefficient needs two stability sub-steps per
    // step at this lattice, so sub-cycling is exercised too.
    let oxygen = sim.add_diffusion_grid(substance("oxygen", 0.5, 0.0, BoundaryCondition::Closed));
    sim.diffusion_grid_mut(oxygen).fill(1.0);
    sim.add_diffusion_grid(substance(
        "growth_factor",
        0.3,
        0.02,
        BoundaryCondition::Closed,
    ));
    sim.add_diffusion_grid(substance(
        "chemokine",
        1.2,
        0.01,
        BoundaryCondition::Dirichlet,
    ));
    sim.add_diffusion_grid(substance("waste", 0.1, 0.005, BoundaryCondition::Dirichlet));

    let mut rng = SplitMix64::new(seed);
    let division_volume = volume_of(DIVISION_DIAMETER);
    for _ in 0..SPHEROID_TUMOR_CELLS {
        let pos = in_shell(&mut rng, 0.0, 75.0);
        // Ages spread over a whole cycle, so divisions do not come in
        // synchronized waves.
        let volume = rng.uniform(division_volume / 2.0, division_volume);
        sim.add_cell(
            CellBuilder::new(pos)
                .diameter(bdm_sim::behavior::diameter_of(volume))
                .adherence(0.3)
                .behavior(Behavior::GrowthDivision {
                    growth_rate: TUMOR_GROWTH,
                    division_threshold: DIVISION_DIAMETER,
                })
                .behavior(Behavior::Secretion {
                    substance: GROWTH_FACTOR,
                    rate: 0.5,
                })
                .behavior(Behavior::Secretion {
                    substance: CHEMOKINE,
                    rate: 1.0,
                })
                .behavior(Behavior::Secretion {
                    substance: WASTE,
                    rate: 0.2,
                })
                .behavior(Behavior::Apoptosis {
                    probability: TUMOR_APOPTOSIS,
                }),
        );
    }
    for _ in 0..SPHEROID_IMMUNE_CELLS {
        sim.add_cell(
            CellBuilder::new(in_shell(&mut rng, 85.0, 110.0))
                .diameter(8.0)
                .adherence(0.05)
                .behavior(Behavior::Chemotaxis {
                    substance: CHEMOKINE,
                    speed: 0.5,
                }),
        );
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::digest;

    /// Digest of the scene as built and after `steps` steps.
    fn digests(w: Workload, seed: u64, steps: u64) -> (u64, u64) {
        let mut sim = w.build(seed);
        let built = digest(&sim);
        sim.simulate(steps);
        (built, digest(&sim))
    }

    #[test]
    fn the_seed_alone_determines_every_scene() {
        for w in Workload::ALL {
            // Three steps reach Benchmark A's first division wave, whose
            // axes are the only seeded part of its lattice scene.
            let a = digests(w, 7, 3);
            assert_eq!(
                a,
                digests(w, 7, 3),
                "{}: same seed, same scene and run",
                w.name()
            );
            let b = digests(w, 8, 3);
            assert_ne!(a.0, b.0, "{}: another seed, another scene", w.name());
            assert_ne!(a.1, b.1, "{}: another seed, another run", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
