//! The scheduler's parallel execution mode is *deterministic*: chunked
//! agent loops run one rayon task per fixed-size chunk, buffer births /
//! deaths / secretions in per-chunk execution contexts, and merge the
//! contexts in chunk order. The trajectory must therefore be bitwise
//! identical to serial scheduling — not merely tolerance-equal — for
//! every neighborhood environment, including the simulated-GPU offload.
//!
//! Property-based: random mixed-behavior scenes (growth/division,
//! apoptosis, chemotaxis, secretion, any combination per agent) over a
//! shared substance field, stepped under both execution modes across
//! all six environment kinds. Two fixed-shape scenes add the extremes:
//! a dense one where every agent touches several others while cells
//! divide and die, and a sparse one whose births, deaths and secretions
//! churn a diffusion field that is compared bit for bit.

use biodynamo::math::SplitMix64;
use biodynamo::prelude::*;
use proptest::prelude::*;

const SUBSTANCE: usize = 0;

fn environments() -> Vec<EnvironmentKind> {
    vec![
        EnvironmentKind::KdTree,
        EnvironmentKind::uniform_grid_serial(),
        EnvironmentKind::uniform_grid_parallel(),
        EnvironmentKind::uniform_grid_csr_serial(),
        EnvironmentKind::uniform_grid_csr_parallel(),
        EnvironmentKind::gpu_default(),
    ]
}

/// Attach behaviors according to the low four selector bits, so the
/// generator covers every subset — including agents that divide *and*
/// may die in the same step.
fn behaviors_for(sel: u8) -> Vec<Behavior> {
    let mut b = Vec::new();
    if sel & 1 != 0 {
        b.push(Behavior::GrowthDivision {
            growth_rate: 80.0,
            division_threshold: 10.2,
        });
    }
    if sel & 2 != 0 {
        b.push(Behavior::Apoptosis { probability: 0.25 });
    }
    if sel & 4 != 0 {
        b.push(Behavior::Chemotaxis {
            substance: SUBSTANCE,
            speed: 0.5,
        });
    }
    if sel & 8 != 0 {
        b.push(Behavior::Secretion {
            substance: SUBSTANCE,
            rate: 1.5,
        });
    }
    b
}

type AgentSpec = (f64, f64, f64, u8);

fn trajectory(
    agents: &[AgentSpec],
    seed: u64,
    env: EnvironmentKind,
    mode: ExecMode,
    steps: u64,
) -> Vec<(u64, Vec3<f64>, f64)> {
    let mut sim = Simulation::new(SimParams::cube(30.0).with_seed(seed));
    sim.set_environment(env);
    sim.set_exec_mode(mode);
    let s = sim.add_diffusion_grid(DiffusionParams {
        name: "signal",
        coefficient: 0.05,
        decay: 0.0,
        resolution: 8,
        boundary: BoundaryCondition::Closed,
    });
    assert_eq!(s, SUBSTANCE);
    // Off-center source so chemotaxis has a non-trivial gradient from
    // the first step.
    sim.diffusion_grid_mut(SUBSTANCE)
        .secrete(Vec3::new(20.0, 10.0, -5.0), 500.0);
    for &(x, y, z, sel) in agents {
        let mut cell = CellBuilder::new(Vec3::new(x, y, z))
            .diameter(9.8)
            .adherence(0.05);
        for b in behaviors_for(sel) {
            cell = cell.behavior(b);
        }
        sim.add_cell(cell);
    }
    sim.simulate(steps);
    (0..sim.rm().len())
        .map(|i| (sim.rm().uid(i), sim.rm().position(i), sim.rm().diameter(i)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_scheduling_matches_serial_bitwise_in_every_environment(
        agents in proptest::collection::vec(
            (-25.0f64..25.0, -25.0f64..25.0, -25.0f64..25.0, 0u8..16),
            20..100,
        ),
        steps in 2u64..4,
        seed in 0u64..1_000,
    ) {
        for env in environments() {
            let serial = trajectory(&agents, seed, env, ExecMode::Serial, steps);
            let parallel = trajectory(&agents, seed, env, ExecMode::Parallel, steps);
            // Exact equality on (uid, position, diameter) tuples: bitwise
            // FP64 identity, no tolerance.
            prop_assert_eq!(
                serial,
                parallel,
                "serial vs parallel diverged in {:?}",
                env
            );
        }
    }
}

/// Bitwise per-agent state in uid order, so the comparison does not
/// depend on storage order.
fn by_uid(sim: &Simulation) -> Vec<(u64, [u64; 4])> {
    let rm = sim.rm();
    let mut state: Vec<(u64, [u64; 4])> = (0..rm.len())
        .map(|i| {
            let p = rm.position(i);
            let bits = [
                p.x.to_bits(),
                p.y.to_bits(),
                p.z.to_bits(),
                rm.diameter(i).to_bits(),
            ];
            (rm.uid(i), bits)
        })
        .collect();
    state.sort_unstable_by_key(|&(uid, _)| uid);
    state
}

/// Every concentration of every substance, as raw bits.
fn field_bits(sim: &Simulation) -> Vec<u64> {
    sim.diffusion_grids()
        .iter()
        .flat_map(|g| g.concentrations().iter().map(|c| c.to_bits()))
        .collect()
}

/// 90 overlapping cells in an 18-unit box (contacts everywhere), every
/// seventh dividing, plus 10 that die with probability 0.3 per step.
fn dense_scene(sim: &mut Simulation, seed: u64) {
    let mut rng = SplitMix64::new(seed.wrapping_add(1));
    let point = |rng: &mut SplitMix64| {
        Vec3::new(
            rng.uniform(-9.0, 9.0),
            rng.uniform(-9.0, 9.0),
            rng.uniform(-9.0, 9.0),
        )
    };
    for k in 0..90 {
        let mut cell = CellBuilder::new(point(&mut rng))
            .diameter(rng.uniform(2.0, 4.0))
            .adherence(0.01);
        if k % 7 == 0 {
            cell = cell.behavior(Behavior::GrowthDivision {
                growth_rate: 14.0,
                division_threshold: 4.1,
            });
        }
        sim.add_cell(cell);
    }
    for _ in 0..10 {
        sim.add_cell(
            CellBuilder::new(point(&mut rng))
                .diameter(3.0)
                .adherence(0.01)
                .behavior(Behavior::Apoptosis { probability: 0.3 }),
        );
    }
}

/// 40 sparse cells over one substance, a quarter each dividing, dying,
/// secreting and following the gradient.
fn churn_scene(sim: &mut Simulation, seed: u64) {
    let s = sim.add_diffusion_grid(DiffusionParams {
        name: "attractant",
        coefficient: 0.1,
        decay: 0.01,
        resolution: 12,
        boundary: BoundaryCondition::Closed,
    });
    let mut rng = SplitMix64::new(seed.wrapping_add(2));
    for k in 0..40 {
        let cell = CellBuilder::new(Vec3::new(
            rng.uniform(-55.0, 55.0),
            rng.uniform(-55.0, 55.0),
            rng.uniform(-55.0, 55.0),
        ))
        .diameter(5.0)
        .adherence(5.0);
        let cell = match k % 4 {
            0 => cell.behavior(Behavior::GrowthDivision {
                growth_rate: 40.0,
                division_threshold: 6.0,
            }),
            1 => cell.behavior(Behavior::Apoptosis { probability: 0.2 }),
            2 => cell.behavior(Behavior::Secretion {
                substance: s,
                rate: 3.0,
            }),
            _ => cell.behavior(Behavior::Chemotaxis {
                substance: s,
                speed: 0.5,
            }),
        };
        sim.add_cell(cell);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The dense and churn scenes step bitwise identically under both
    /// execution modes in every environment: per-uid state, population,
    /// and (churn) every diffusion concentration plus the total mass.
    #[test]
    fn parallel_matches_serial_bitwise_on_dense_and_churn_scenes(seed in 0u64..200) {
        type Scene = fn(&mut Simulation, u64);
        let scenes: [(&str, f64, Scene); 2] =
            [("dense", 10.0, dense_scene), ("churn", 60.0, churn_scene)];
        for (name, half, scene) in scenes {
            for env in environments() {
                let run = |mode: ExecMode| {
                    let mut sim = Simulation::new(SimParams::cube(half).with_seed(seed));
                    sim.set_environment(env);
                    sim.set_exec_mode(mode);
                    scene(&mut sim, seed);
                    sim.simulate(4);
                    sim
                };
                let serial = run(ExecMode::Serial);
                let parallel = run(ExecMode::Parallel);
                prop_assert_eq!(
                    by_uid(&serial),
                    by_uid(&parallel),
                    "{} scene: per-uid state diverged in {:?}",
                    name,
                    env
                );
                prop_assert_eq!(
                    field_bits(&serial),
                    field_bits(&parallel),
                    "{} scene: diffusion field diverged in {:?}",
                    name,
                    env
                );
                let mass = |sim: &Simulation| {
                    sim.diffusion_grids()
                        .iter()
                        .map(|g| g.total_mass().to_bits())
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(mass(&serial), mass(&parallel));
            }
        }
    }
}
