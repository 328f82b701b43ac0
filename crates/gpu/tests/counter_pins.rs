//! Bit-exact pins of the simulator's performance counters.
//!
//! One `MechanicalPipeline::step` per kernel version at full and 1-in-4
//! warp tracing, plus a cold/warm `step_resident` pair, on one fixed
//! seeded scene. Every `KernelCounters` field of the merged step counters
//! and of the mechanical kernel's counters is compared by bit pattern
//! against recorded literals. A change to the coalescer, the order of the
//! L2 drain or the cache model that moves a single transaction, hit or
//! atomic cycle fails here.

use bdm_device::specs::SYSTEM_A;
use bdm_gpu::pipeline::SceneRef;
use bdm_gpu::{ApiFrontend, GpuStepReport, KernelCounters, KernelVersion, MechanicalPipeline};
use bdm_math::interaction::MechParams;
use bdm_math::{Aabb, SplitMix64, Vec3};

const N: usize = 400;
const EXTENT: f64 = 8.0;

/// Every field of `c` as raw bits, in declaration order. The exhaustive
/// destructuring makes a new counter field a compile error here.
fn bits(c: &KernelCounters) -> [u64; 16] {
    let KernelCounters {
        threads_run,
        warps_run,
        warps_traced,
        flops_fp32,
        flops_fp64,
        compute_warp_cycles,
        lane_cycles_total,
        global_transactions,
        l2_hits,
        l2_misses,
        shared_accesses,
        atomic_serial_cycles,
        atomic_ops,
        occupancy_warps_per_sm,
        barriers,
        child_launches,
    } = *c;
    [
        threads_run,
        warps_run,
        warps_traced,
        flops_fp32.to_bits(),
        flops_fp64.to_bits(),
        compute_warp_cycles.to_bits(),
        lane_cycles_total.to_bits(),
        global_transactions.to_bits(),
        l2_hits.to_bits(),
        l2_misses.to_bits(),
        shared_accesses.to_bits(),
        atomic_serial_cycles.to_bits(),
        atomic_ops.to_bits(),
        occupancy_warps_per_sm.to_bits(),
        barriers,
        child_launches,
    ]
}

struct Scene {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    diameters: Vec<f64>,
    adherences: Vec<f64>,
}

impl Scene {
    fn random(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut col = || (0..N).map(|_| rng.uniform(0.0, EXTENT)).collect();
        Self {
            xs: col(),
            ys: col(),
            zs: col(),
            diameters: vec![1.0; N],
            adherences: vec![0.01; N],
        }
    }

    fn moved_to(&self, positions: &[Vec3<f64>]) -> Self {
        Self {
            xs: positions.iter().map(|p| p.x).collect(),
            ys: positions.iter().map(|p| p.y).collect(),
            zs: positions.iter().map(|p| p.z).collect(),
            diameters: self.diameters.clone(),
            adherences: self.adherences.clone(),
        }
    }

    fn as_ref(&self) -> SceneRef<'_> {
        SceneRef {
            xs: &self.xs,
            ys: &self.ys,
            zs: &self.zs,
            diameters: &self.diameters,
            adherences: &self.adherences,
            space: Aabb::new(Vec3::zero(), Vec3::splat(EXTENT)),
            box_len: 1.0,
        }
    }
}

fn pipeline(version: KernelVersion, trace_sample: u64) -> MechanicalPipeline {
    let mut p = MechanicalPipeline::new(SYSTEM_A, ApiFrontend::Cuda, version, trace_sample);
    // Low enough that the scene's denser neighborhoods fan out into
    // child launches (the default leaves this scene without any).
    p.dynpar_threshold = 16;
    p
}

/// The pinned runs, labelled, each with (merged, mechanical) counters.
fn runs() -> Vec<(String, [[u64; 16]; 2])> {
    let params = MechParams::default_params();
    let scene = Scene::random(7);
    let pin = |r: &GpuStepReport| [bits(&r.counters), bits(&r.mech_counters)];
    let mut out = Vec::new();
    for version in KernelVersion::ALL {
        for trace_sample in [1, 4] {
            let (_, report) = pipeline(version, trace_sample).step(&scene.as_ref(), &params);
            out.push((
                format!("{version:?}/step/sample{trace_sample}"),
                pin(&report),
            ));
        }
    }
    let uids: Vec<u64> = (0..N as u64).collect();
    let mut resident = pipeline(KernelVersion::V2Sorted, 1);
    let (moved, cold) = resident.step_resident(&scene.as_ref(), &uids, &params);
    let (_, warm) = resident.step_resident(&scene.moved_to(&moved).as_ref(), &uids, &params);
    out.push(("V2Sorted/resident/cold".into(), pin(&cold)));
    out.push(("V2Sorted/resident/warm".into(), pin(&warm)));
    out
}

#[test]
fn counters_match_recorded_bits() {
    let got = runs();
    assert_eq!(got.len(), PINS.len());
    for ((label, counters), (want_label, want)) in got.iter().zip(PINS) {
        assert_eq!(label, want_label);
        assert_eq!(counters, want, "{label}: [merged, mech] counter bits");
    }
}

#[rustfmt::skip]
const PINS: &[(&str, [[u64; 16]; 2])] = &[
    ("V0/step/sample1", [
        [0x400, 0x20, 0x20, 0x0, 0x40f74aa000000000, 0x40fddf0b4115b1eb, 0x4140cc3e6d8f2fb9, 0x40dbf64000000000, 0x40dbb90000000000, 0x406ea00000000000, 0x0, 0x4088000000000000, 0x4089000000000000, 0x4050000000000000, 0x0, 0x0],
        [0x200, 0x10, 0x10, 0x0, 0x40f74aa000000000, 0x40fdd8f34115b1eb, 0x4140c6626d8f2fb9, 0x40db874000000000, 0x40db680000000000, 0x405f400000000000, 0x0, 0x0, 0x0, 0x4050000000000000, 0x0, 0x0],
    ]),
    ("V0/step/sample4", [
        [0x400, 0x20, 0x8, 0x0, 0x40f74aa000000000, 0x40fddf0b4115b1eb, 0x4140cc3e6d8f2fb9, 0x40e0388000000000, 0x40dfc40000000000, 0x4085a00000000000, 0x0, 0x4090000000000000, 0x408c000000000000, 0x4050000000000000, 0x0, 0x0],
        [0x200, 0x10, 0x4, 0x0, 0x40f74aa000000000, 0x40fdd8f34115b1eb, 0x4140c6626d8f2fb9, 0x40dff20000000000, 0x40df7e0000000000, 0x407d000000000000, 0x0, 0x0, 0x0, 0x4050000000000000, 0x0, 0x0],
    ]),
    ("V1Fp32/step/sample1", [
        [0x400, 0x20, 0x20, 0x40f74aa000000000, 0x0, 0x40b37f8000000000, 0x40f7998800000000, 0x40d72cc000000000, 0x40d7078000000000, 0x4062a00000000000, 0x0, 0x4088000000000000, 0x4089000000000000, 0x4050000000000000, 0x0, 0x0],
        [0x200, 0x10, 0x10, 0x40f74aa000000000, 0x0, 0x40b31e0000000000, 0x40f6de0800000000, 0x40d6c6c000000000, 0x40d6b68000000000, 0x4050400000000000, 0x0, 0x0, 0x0, 0x4050000000000000, 0x0, 0x0],
    ]),
    ("V1Fp32/step/sample4", [
        [0x400, 0x20, 0x8, 0x40f74aa000000000, 0x0, 0x40b37f8000000000, 0x40f7998800000000, 0x40db5f0000000000, 0x40daee0000000000, 0x407c400000000000, 0x0, 0x4090000000000000, 0x408c000000000000, 0x4050000000000000, 0x0, 0x0],
        [0x200, 0x10, 0x4, 0x40f74aa000000000, 0x0, 0x40b31e0000000000, 0x40f6de0800000000, 0x40dae90000000000, 0x40daa80000000000, 0x4070400000000000, 0x0, 0x0, 0x0, 0x4050000000000000, 0x0, 0x0],
    ]),
    ("V2Sorted/step/sample1", [
        [0x400, 0x20, 0x20, 0x40f74aa000000000, 0x0, 0x40b35b8000000000, 0x40f7998800000000, 0x40c51d0000000000, 0x40c4d28000000000, 0x4062a00000000000, 0x0, 0x40be000000000000, 0x4089000000000000, 0x4050000000000000, 0x0, 0x0],
        [0x200, 0x10, 0x10, 0x40f74aa000000000, 0x0, 0x40b2fa0000000000, 0x40f6de0800000000, 0x40c4d20000000000, 0x40c4b18000000000, 0x4050400000000000, 0x0, 0x0, 0x0, 0x4050000000000000, 0x0, 0x0],
    ]),
    ("V2Sorted/step/sample4", [
        [0x400, 0x20, 0x8, 0x40f74aa000000000, 0x0, 0x40b35b8000000000, 0x40f7998800000000, 0x40c7180000000000, 0x40c63c0000000000, 0x407b800000000000, 0x0, 0x40bf000000000000, 0x408c000000000000, 0x4050000000000000, 0x0, 0x0],
        [0x200, 0x10, 0x4, 0x40f74aa000000000, 0x0, 0x40b2fa0000000000, 0x40f6de0800000000, 0x40c6c40000000000, 0x40c63c0000000000, 0x4071000000000000, 0x0, 0x0, 0x0, 0x4050000000000000, 0x0, 0x0],
    ]),
    ("V3Shared/step/sample1", [
        [0x2440, 0x122, 0x122, 0x40f6d4e000000000, 0x0, 0x40f5100000000000, 0x41147a0e00000000, 0x40cb2e0000000000, 0x40cadf0000000000, 0x4063c00000000000, 0x40ef474000000000, 0x4100df0000000000, 0x4089000000000000, 0x3ff0000000000000, 0x112, 0x0],
        [0x2240, 0x112, 0x112, 0x40f6d4e000000000, 0x0, 0x40f509e800000000, 0x41144b2e00000000, 0x40cae30000000000, 0x40cabe0000000000, 0x4052800000000000, 0x40ef474000000000, 0x40ffde0000000000, 0x0, 0x3ff0000000000000, 0x112, 0x0],
    ]),
    ("V3Shared/step/sample4", [
        [0x2440, 0x122, 0x49, 0x40f6d4e000000000, 0x0, 0x40f5100000000000, 0x41147a0e00000000, 0x40cb1403b5cc0ed7, 0x40c9d9b21642c859, 0x4083a519f89467e2, 0x410f0d39f89467e2, 0x410063303b5cc0ee, 0x408c000000000000, 0x3ff0000000000000, 0x112, 0x0],
        [0x2240, 0x112, 0x45, 0x40f6d4e000000000, 0x0, 0x40f509e800000000, 0x41144b2e00000000, 0x40cac003b5cc0ed7, 0x40c9d9b21642c859, 0x407cca33f128cfc4, 0x410f0d39f89467e2, 0x40fed66076b981db, 0x0, 0x3ff0000000000000, 0x112, 0x0],
    ]),
    ("DynPar/step/sample1", [
        [0x1d00, 0xe8, 0xe8, 0x40fd1df000000000, 0x0, 0x40cee9e000000000, 0x4103aecc00000000, 0x40e1526000000000, 0x40e0f82000000000, 0x4086900000000000, 0x0, 0x40cb600000000000, 0x408ff80000000000, 0x4050000000000000, 0x0, 0xdf],
        [0x1b00, 0xd8, 0xd8, 0x40fd1df000000000, 0x0, 0x40ceb92000000000, 0x4103510c00000000, 0x40e13fa000000000, 0x40e0efe000000000, 0x4083f00000000000, 0x0, 0x40b8c00000000000, 0x406be00000000000, 0x4050000000000000, 0x0, 0xdf],
    ]),
    ("DynPar/step/sample4", [
        [0x1d00, 0xe8, 0x3a, 0x40fd1df000000000, 0x0, 0x40cee9e000000000, 0x4103aecc00000000, 0x40e3650000000000, 0x40e2af8000000000, 0x4096b00000000000, 0x0, 0x40cb800000000000, 0x4091600000000000, 0x4050000000000000, 0x0, 0xdf],
        [0x1b00, 0xd8, 0x36, 0x40fd1df000000000, 0x0, 0x40ceb92000000000, 0x4103510c00000000, 0x40e3500000000000, 0x40e2af8000000000, 0x4094100000000000, 0x0, 0x40b8000000000000, 0x406b000000000000, 0x4050000000000000, 0x0, 0xdf],
    ]),
    ("V4Csr/step/sample1", [
        [0x600, 0x30, 0x30, 0x40f74aa000000000, 0x0, 0x40b2b90000000000, 0x40f6e68c00000000, 0x40c3bc0000000000, 0x40c3718000000000, 0x4062a00000000000, 0x0, 0x40be000000000000, 0x4089000000000000, 0x4050000000000000, 0x0, 0x0],
        [0x200, 0x10, 0x10, 0x40f74aa000000000, 0x0, 0x40b1f2c000000000, 0x40f5694c00000000, 0x40c3428000000000, 0x40c3220000000000, 0x4050400000000000, 0x0, 0x0, 0x0, 0x4050000000000000, 0x0, 0x0],
    ]),
    ("V4Csr/step/sample4", [
        [0x600, 0x30, 0xc, 0x40f74aa000000000, 0x0, 0x40b2b90000000000, 0x40f6e68c00000000, 0x40c5340000000000, 0x40c4580000000000, 0x407b800000000000, 0x0, 0x40bf000000000000, 0x408c000000000000, 0x4050000000000000, 0x0, 0x0],
        [0x200, 0x10, 0x4, 0x40f74aa000000000, 0x0, 0x40b1f2c000000000, 0x40f5694c00000000, 0x40c4ae0000000000, 0x40c4360000000000, 0x406e000000000000, 0x0, 0x0, 0x0, 0x4050000000000000, 0x0, 0x0],
    ]),
    ("V2Sorted/resident/cold", [
        [0x600, 0x30, 0x30, 0x40f795a000000000, 0x0, 0x40b3b04000000000, 0x40f7f74800000000, 0x40d74a0000000000, 0x40d724c000000000, 0x4062a00000000000, 0x0, 0x4088000000000000, 0x4089000000000000, 0x4050000000000000, 0x0, 0x0],
        [0x400, 0x20, 0x20, 0x40f795a000000000, 0x0, 0x40b34ec000000000, 0x40f73bc800000000, 0x40d6e40000000000, 0x40d6d3c000000000, 0x4050400000000000, 0x0, 0x0, 0x0, 0x4050000000000000, 0x0, 0x0],
    ]),
    ("V2Sorted/resident/warm", [
        [0x600, 0x30, 0x30, 0x40f4708000000000, 0x0, 0x40b19e0000000000, 0x40f4c74400000000, 0x40d543c000000000, 0x40d543c000000000, 0x0, 0x0, 0x4088000000000000, 0x4089000000000000, 0x4050000000000000, 0x0, 0x0],
        [0x400, 0x20, 0x20, 0x40f4708000000000, 0x0, 0x40b13c8000000000, 0x40f40bc400000000, 0x40d4dd4000000000, 0x40d4dd4000000000, 0x0, 0x0, 0x0, 0x0, 0x4050000000000000, 0x0, 0x0],
    ]),
];
