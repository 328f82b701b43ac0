//! Checkpoint wire-format pinning and malformed-input hardening.
//!
//! Two jobs:
//!
//! 1. **Golden fixtures.** A checkpoint of a fixed scene is committed at
//!    `tests/fixtures/checkpoint_v3.bin` and compared byte-for-byte
//!    against a freshly serialized copy. Any format drift — field order,
//!    widths, a [`bdm_sim::checkpoint::FORMAT_VERSION`] bump — fails the
//!    test until the fixture is deliberately regenerated with
//!    `BDM_UPDATE_CHECKPOINT_FIXTURE=1 cargo test -p bdm-sim --test
//!    checkpoint_format`. The fixture scene is built with exact decimal
//!    arithmetic and **zero simulation steps** (no libm transcendentals),
//!    so its bytes are identical on every platform. The retained v1 and
//!    v2 streams of the same scene, written by builds that sharded the
//!    mechanical pass, are never regenerated: they must restore,
//!    re-checkpoint to the v3 bytes, and resume to the trajectory they
//!    produced when they ran sharded.
//!
//! 2. **Negative paths.** Every malformed-input class maps to its own
//!    [`CheckpointError`] variant, restore never panics, and no
//!    partially-restored `Simulation` escapes. Proptests sweep strict
//!    prefixes (always an error) and random single-byte corruptions
//!    (never a panic).

use bdm_math::Vec3;
use bdm_sim::behavior::Behavior;
use bdm_sim::cell::CellBuilder;
use bdm_sim::checkpoint::{CheckpointError, FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION};
use bdm_sim::diffusion::{BoundaryCondition, DiffusionParams};
use bdm_sim::environment::EnvironmentKind;
use bdm_sim::param::SimParams;
use bdm_sim::simulation::Simulation;
use proptest::prelude::*;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/checkpoint_v3.bin"
);

/// Retained legacy streams of the fixture scene with 2 shards: v1 (no
/// `gpu_resident` byte in PARAMS) and v2, both carrying the shard
/// fields and a SHARDS section. Never regenerated.
const LEGACY_FIXTURES: [(u32, &str); 2] = [
    (
        1,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/checkpoint_v1.bin"
        ),
    ),
    (
        2,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/checkpoint_v2.bin"
        ),
    ),
];

/// Steps the resume check runs from each fixture.
const RESUME_STEPS: u64 = 8;
/// [`state_digest`] after restoring a legacy fixture and running
/// [`RESUME_STEPS`] steps, recorded with the build that wrote the v2
/// format, where these streams ran on the 2-shard mechanical pass.
const LEGACY_RESUME_DIGEST: u64 = 0x33d4_b0b9_cf09_0aa7;

fn legacy_bytes(version: u32) -> Vec<u8> {
    let (_, path) = LEGACY_FIXTURES
        .iter()
        .find(|(v, _)| *v == version)
        .expect("retained legacy version");
    std::fs::read(path).expect("retained legacy fixture present")
}

/// FNV-1a over the step count, the population, every agent's state in
/// uid order (uid, position, diameter, adherence as raw bits) and every
/// substance's concentrations: equal digests mean bitwise-equal
/// simulations, whatever their storage order.
fn state_digest(sim: &Simulation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let rm = sim.rm();
    let mut order: Vec<usize> = (0..rm.len()).collect();
    order.sort_by_key(|&i| rm.uid(i));
    eat(sim.steps_executed());
    eat(rm.len() as u64);
    for i in order {
        let p = rm.position(i);
        eat(rm.uid(i));
        eat(p.x.to_bits());
        eat(p.y.to_bits());
        eat(p.z.to_bits());
        eat(rm.diameter(i).to_bits());
        eat(rm.adherence(i).to_bits());
    }
    for g in sim.diffusion_grids() {
        for c in g.concentrations() {
            eat(c.to_bits());
        }
    }
    h
}

fn ckpt(sim: &Simulation) -> Vec<u8> {
    let mut buf = Vec::new();
    sim.checkpoint(&mut buf).expect("checkpoint to Vec");
    buf
}

/// Restore, discarding the (non-Debug) simulation — negative-path tests
/// only match on the error variant.
fn restore_err(bytes: &[u8]) -> Result<(), CheckpointError> {
    Simulation::restore(&mut &bytes[..]).map(|_| ())
}

/// The committed scene: the CSR parallel grid (the environment the
/// legacy fixtures' sharded builds selected), one substance with
/// non-uniform exact-dyadic concentrations, all four behavior kinds, a
/// non-default op frequency — and no stepping, so every float is an
/// exact decimal and the bytes are platform-exact.
fn fixture_sim() -> Simulation {
    let params = SimParams::cube(32.0)
        .with_seed(42)
        .with_interaction_radius(8.0);
    let mut sim = Simulation::new(params);
    sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
    let s = sim.add_diffusion_grid(DiffusionParams {
        name: "fixture-substance",
        coefficient: 0.25,
        decay: 0.125,
        resolution: 4,
        boundary: BoundaryCondition::Dirichlet,
    });
    sim.diffusion_grid_mut(s).fill(0.5);
    sim.diffusion_grid_mut(s)
        .secrete(Vec3::new(8.0, -8.0, 16.0), 2.0);
    assert!(sim.scheduler_mut().set_frequency("diffusion", 3));
    sim.add_cell(
        CellBuilder::new(Vec3::new(-8.0, 4.5, 2.25))
            .diameter(3.5)
            .adherence(0.125)
            .behavior(Behavior::GrowthDivision {
                growth_rate: 16.0,
                division_threshold: 4.0,
            }),
    );
    sim.add_cell(
        CellBuilder::new(Vec3::new(10.0, -6.5, 0.75))
            .diameter(2.5)
            .behavior(Behavior::Chemotaxis {
                substance: s,
                speed: 0.5,
            }),
    );
    sim.add_cell(
        CellBuilder::new(Vec3::new(0.5, 0.25, -12.0))
            .diameter(4.0)
            .behavior(Behavior::Secretion {
                substance: s,
                rate: 1.5,
            })
            .behavior(Behavior::Apoptosis { probability: 0.25 }),
    );
    sim
}

fn valid_bytes() -> Vec<u8> {
    ckpt(&fixture_sim())
}

// --------------------------------------------------------------------
// Wire-layout helpers for surgical corruption (header: magic 8 +
// version u32 + section_count u32 = 16 bytes; table entries 12 bytes:
// tag u32 + len u64).
// --------------------------------------------------------------------

const HEADER: usize = 16;
const ENTRY: usize = 12;

fn section_count(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize
}

/// `(table_entry_offset, payload_offset, payload_len)` for `tag`.
fn locate(bytes: &[u8], tag: u32) -> (usize, usize, usize) {
    let n = section_count(bytes);
    let mut payload = HEADER + n * ENTRY;
    for i in 0..n {
        let e = HEADER + i * ENTRY;
        let t = u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[e + 4..e + 12].try_into().unwrap()) as usize;
        if t == tag {
            return (e, payload, len);
        }
        payload += len;
    }
    panic!("section {tag} not found in stream");
}

/// Remove the *last* section (entry + payload) from a valid stream.
fn strip_last_section(bytes: &[u8]) -> Vec<u8> {
    let n = section_count(bytes);
    let last_entry = HEADER + (n - 1) * ENTRY;
    let len =
        u64::from_le_bytes(bytes[last_entry + 4..last_entry + 12].try_into().unwrap()) as usize;
    let mut out = Vec::with_capacity(bytes.len() - ENTRY - len);
    out.extend_from_slice(&bytes[..12]);
    out.extend_from_slice(&((n - 1) as u32).to_le_bytes());
    out.extend_from_slice(&bytes[HEADER..last_entry]);
    out.extend_from_slice(&bytes[last_entry + ENTRY..bytes.len() - len]);
    out
}

// --------------------------------------------------------------------
// Satellite 1: the golden fixture
// --------------------------------------------------------------------

/// Byte-for-byte format pinning. A [`FORMAT_VERSION`] bump (or any
/// layout change) without a deliberate fixture regeneration fails here.
#[test]
fn golden_fixture_matches_byte_for_byte() {
    let bytes = valid_bytes();
    if std::env::var_os("BDM_UPDATE_CHECKPOINT_FIXTURE").is_some() {
        std::fs::write(FIXTURE, &bytes).expect("write fixture");
        eprintln!("regenerated {FIXTURE} ({} bytes)", bytes.len());
        return;
    }
    let golden = std::fs::read(FIXTURE).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {FIXTURE} ({e}); regenerate with \
             BDM_UPDATE_CHECKPOINT_FIXTURE=1 cargo test -p bdm-sim --test checkpoint_format"
        )
    });
    assert_eq!(
        FORMAT_VERSION, 3,
        "FORMAT_VERSION changed: bump the fixture file name to checkpoint_v{FORMAT_VERSION}.bin, \
         regenerate it, and update this test's expectations"
    );
    assert_eq!(
        bytes, golden,
        "checkpoint wire format drifted from the committed v3 fixture; if the change is \
         intentional, bump FORMAT_VERSION and regenerate with BDM_UPDATE_CHECKPOINT_FIXTURE=1"
    );
}

/// The committed fixture stays restorable and semantically intact.
#[test]
fn golden_fixture_restores_with_expected_contents() {
    let golden = std::fs::read(FIXTURE).expect("golden fixture present");
    let sim = Simulation::restore(&mut &golden[..]).expect("fixture restores");
    assert_eq!(sim.steps_executed(), 0);
    assert_eq!(sim.rm().len(), 3);
    assert_eq!(sim.rm().diameter(0), 3.5);
    assert_eq!(sim.rm().position(1), Vec3::new(10.0, -6.5, 0.75));
    assert_eq!(sim.params().seed, 42);
    assert_eq!(sim.params().interaction_radius, Some(8.0));
    assert_eq!(
        *sim.environment(),
        EnvironmentKind::uniform_grid_csr_parallel()
    );
    let g = sim.diffusion_grid(0);
    assert_eq!(g.params().name, "fixture-substance");
    assert_eq!(g.resolution(), 4);
    // fill(0.5) over 4³ voxels plus one secrete(2.0) — exact dyadics.
    assert_eq!(g.concentrations().iter().sum::<f64>(), 64.0 * 0.5 + 2.0);
    let diffusion = sim
        .scheduler()
        .stats()
        .into_iter()
        .find(|s| s.name == "diffusion")
        .expect("diffusion op present");
    assert_eq!(diffusion.frequency, 3);
    // And the restored state re-checkpoints to the identical stream.
    assert_eq!(ckpt(&sim), golden);
}

/// The retained v1 and v2 streams still restore: `MIN_FORMAT_VERSION`
/// is a promise, not decoration. Their shard fields and SHARDS section
/// are dropped, the v1 residency flag defaults off, and re-checkpointing
/// emits exactly the v3 golden stream of the same scene.
#[test]
fn legacy_fixtures_restore_and_rewrite_as_the_v3_golden() {
    let golden = std::fs::read(FIXTURE).expect("golden fixture present");
    assert_eq!(LEGACY_FIXTURES[0].0, MIN_FORMAT_VERSION);
    for (version, _) in LEGACY_FIXTURES {
        let bytes = legacy_bytes(version);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            version
        );
        let sim = Simulation::restore(&mut &bytes[..]).expect("legacy stream restores");
        assert!(!sim.params().gpu_resident);
        assert_eq!(sim.rm().len(), 3);
        assert_eq!(sim.params().seed, 42);
        // The legacy `shard rebalance` scheduler entry is skipped.
        assert!(sim
            .scheduler()
            .stats()
            .iter()
            .all(|s| s.name != "shard rebalance"));
        assert_eq!(ckpt(&sim), golden, "v{version} re-checkpoint");
    }
}

/// A legacy stream resumes on the unsharded pass to the bitwise state
/// it reached when it ran sharded, and so does the v3 golden: the
/// removed driver never changed a trajectory.
#[test]
fn legacy_fixtures_resume_to_the_recorded_sharded_trajectory() {
    let golden = std::fs::read(FIXTURE).expect("golden fixture present");
    let streams = LEGACY_FIXTURES
        .iter()
        .map(|&(v, _)| (v, legacy_bytes(v)))
        .chain([(FORMAT_VERSION, golden)]);
    for (version, bytes) in streams {
        let mut sim = Simulation::restore(&mut &bytes[..]).expect("stream restores");
        sim.simulate(RESUME_STEPS);
        assert_eq!(sim.rm().len(), 129, "v{version} population");
        assert_eq!(
            state_digest(&sim),
            LEGACY_RESUME_DIGEST,
            "v{version} stream diverged from the recorded trajectory"
        );
    }
}

#[test]
fn stream_header_is_the_documented_layout() {
    let bytes = valid_bytes();
    assert_eq!(&bytes[..8], &MAGIC);
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        FORMAT_VERSION
    );
    // META, PARAMS, AGENTS, DIFFUSION, SCHEDULER.
    assert_eq!(section_count(&bytes), 5);
    let tags: Vec<u32> = (0..5)
        .map(|i| {
            let e = HEADER + i * ENTRY;
            u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap())
        })
        .collect();
    assert_eq!(tags, vec![1, 2, 3, 4, 5]);
    // The v2 stream of the same scene carries the legacy SHARDS
    // section last, and 24 more PARAMS bytes (the three shard fields).
    let legacy = legacy_bytes(2);
    assert_eq!(section_count(&legacy), 6);
    assert_eq!(locate(&legacy, 6).0, HEADER + 5 * ENTRY);
    assert_eq!(locate(&legacy, 2).2, locate(&bytes, 2).2 + 24);
}

// --------------------------------------------------------------------
// Satellite 2: distinct errors per malformed-input class, no panics
// --------------------------------------------------------------------

#[test]
fn bad_magic_is_detected() {
    let mut bytes = valid_bytes();
    bytes[0] ^= 0x20;
    match restore_err(&bytes) {
        Err(CheckpointError::BadMagic) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn unsupported_version_reports_both_versions() {
    let mut bytes = valid_bytes();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match restore_err(&bytes) {
        Err(CheckpointError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncation_inside_the_header_is_truncated() {
    let bytes = valid_bytes();
    match restore_err(&bytes[..10]) {
        Err(CheckpointError::Truncated) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn truncation_inside_a_section_is_truncated() {
    // Shorten the last section's *table entry* by one byte and drop the
    // stream's final byte: the table is self-consistent, but the
    // section's own encoding ends early.
    let mut bytes = valid_bytes();
    let n = section_count(&bytes);
    let last_entry = HEADER + (n - 1) * ENTRY;
    let len = u64::from_le_bytes(bytes[last_entry + 4..last_entry + 12].try_into().unwrap());
    bytes[last_entry + 4..last_entry + 12].copy_from_slice(&(len - 1).to_le_bytes());
    bytes.truncate(bytes.len() - 1);
    match restore_err(&bytes) {
        Err(CheckpointError::Truncated) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn section_length_overflow_is_reported_with_context() {
    let mut bytes = valid_bytes();
    // Claim more payload than the stream holds for the AGENTS section.
    let (entry, _, _) = locate(&bytes, 3);
    bytes[entry + 4..entry + 12].copy_from_slice(&u64::MAX.to_le_bytes());
    match restore_err(&bytes) {
        Err(CheckpointError::SectionOverflow {
            tag,
            len,
            remaining,
        }) => {
            assert_eq!(tag, 3);
            assert_eq!(len, u64::MAX);
            assert!(remaining < u64::MAX);
        }
        other => panic!("expected SectionOverflow, got {other:?}"),
    }
}

/// Offset of the legacy shard count in a v2 stream of the fixture
/// scene. PARAMS layout: space 6×f64 (48) + mech 4×f64 (32) + seed u64
/// (8) + interaction_radius flag (1) + value (8, Some in the fixture) +
/// curve u8 + reorder.every u64 + precision u8 → count u64, then
/// rebalance_every u64 and imbalance_threshold f64.
fn legacy_shard_count_offset(bytes: &[u8]) -> usize {
    let (_, payload, len) = locate(bytes, 2);
    let off = payload + 48 + 32 + 8 + 1 + 8 + 1 + 8 + 1;
    assert!(off + 24 <= payload + len);
    off
}

/// A legacy stream whose params claim 2 shards but whose SHARDS section
/// is gone is still rejected, as the sharded builds rejected it.
#[test]
fn stripping_the_shards_section_is_invalid_params() {
    let bytes = legacy_bytes(2);
    let stripped = strip_last_section(&bytes);
    match restore_err(&stripped) {
        Err(CheckpointError::InvalidParams(msg)) => {
            assert!(msg.contains("shard"), "unexpected message: {msg}");
        }
        other => panic!("expected InvalidParams, got {other:?}"),
    }
}

/// The other direction: a legacy SHARDS section is present but the
/// params' shard count was zeroed.
#[test]
fn zeroing_the_shard_count_is_invalid_params() {
    let mut bytes = legacy_bytes(2);
    let off = legacy_shard_count_offset(&bytes);
    bytes[off..off + 8].copy_from_slice(&0u64.to_le_bytes());
    match restore_err(&bytes) {
        Err(CheckpointError::InvalidParams(msg)) => {
            assert!(msg.contains("shard"), "unexpected message: {msg}");
        }
        other => panic!("expected InvalidParams, got {other:?}"),
    }
}

/// A legacy stream's shard policy fields are validated as the sharded
/// builds validated them, though restore then discards them.
#[test]
fn invalid_legacy_shard_policy_is_invalid_params() {
    let valid = legacy_bytes(2);
    let off = legacy_shard_count_offset(&valid);
    let mut bytes = valid.clone();
    bytes[off + 8..off + 16].copy_from_slice(&0u64.to_le_bytes());
    match restore_err(&bytes) {
        Err(CheckpointError::InvalidParams(msg)) => {
            assert!(msg.contains("never fires"), "unexpected message: {msg}");
        }
        other => panic!("expected InvalidParams, got {other:?}"),
    }
    for threshold in [0.5, f64::NAN] {
        let mut bytes = valid.clone();
        bytes[off + 16..off + 24].copy_from_slice(&threshold.to_bits().to_le_bytes());
        match restore_err(&bytes) {
            Err(CheckpointError::InvalidParams(msg)) => {
                assert!(msg.contains("imbalance"), "unexpected message: {msg}");
            }
            other => panic!("expected InvalidParams, got {other:?}"),
        }
    }
}

/// A legacy SHARDS section is still decoded in full: span bounds that
/// break the map invariant, or a span count that disagrees with the
/// params, are corrupt.
#[test]
fn malformed_legacy_shard_bounds_are_corrupt() {
    let valid = legacy_bytes(2);
    // SHARDS layout: bound count u64, then the bounds.
    let (_, payload, _) = locate(&valid, 6);
    let first = payload + 8;
    let cases: [(usize, u64, &str); 3] = [
        (payload, 1, "at least 2 entries"),
        (first, 1, "start at 0"),
        (first + 16, 7, "end at u64::MAX"),
    ];
    for (at, value, what) in cases {
        let mut bytes = valid.clone();
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        match restore_err(&bytes) {
            Err(CheckpointError::Corrupt(msg)) => {
                assert!(msg.contains(what), "unexpected message: {msg}");
            }
            other => panic!("expected Corrupt ({what}), got {other:?}"),
        }
    }
    // Params claim 3 shards; the section carries 2 spans.
    let mut bytes = valid.clone();
    let off = legacy_shard_count_offset(&bytes);
    bytes[off..off + 8].copy_from_slice(&3u64.to_le_bytes());
    match restore_err(&bytes) {
        Err(CheckpointError::Corrupt(msg)) => {
            assert!(msg.contains("spans"), "unexpected message: {msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// Offset of the reorder-curve byte in the v3 fixture: PARAMS payload +
/// 97, per the layout in [`legacy_shard_count_offset`].
fn curve_byte_offset(bytes: &[u8]) -> usize {
    let (_, payload, _) = locate(bytes, 2);
    payload + 48 + 32 + 8 + 1 + 8
}

/// The committed v3 fixture with its reorder-curve byte set to `curve`.
fn fixture_with_curve_byte(curve: u8) -> Vec<u8> {
    let mut bytes = std::fs::read(FIXTURE).expect("committed v3 fixture present");
    let off = curve_byte_offset(&bytes);
    assert_eq!(bytes[off], 0, "the fixture reorders along Z-order");
    bytes[off] = curve;
    bytes
}

/// Reorder-curve byte 1 is what builds with a Hilbert reorder wrote. This
/// build removed that curve, so the stream is rejected with a message
/// naming it.
#[test]
fn hilbert_curve_byte_is_invalid_params() {
    match restore_err(&fixture_with_curve_byte(1)) {
        Err(CheckpointError::InvalidParams(msg)) => {
            assert!(msg.contains("Hilbert"), "unexpected message: {msg}");
        }
        other => panic!("expected InvalidParams, got {other:?}"),
    }
}

/// No build ever wrote a curve byte above 1.
#[test]
fn unknown_curve_byte_is_corrupt() {
    match restore_err(&fixture_with_curve_byte(2)) {
        Err(CheckpointError::Corrupt(msg)) => {
            assert!(msg.contains("curve 2"), "unexpected message: {msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// Version 3 never writes SHARDS, so a v3 stream carrying one is corrupt.
#[test]
fn shards_section_in_a_v3_stream_is_corrupt() {
    let mut bytes = legacy_bytes(2);
    bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
    match restore_err(&bytes) {
        Err(CheckpointError::Corrupt(msg)) => {
            assert!(msg.contains("tag 6"), "unexpected message: {msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn missing_required_section_is_corrupt() {
    // The last section is SCHEDULER, which is required.
    let stripped = strip_last_section(&valid_bytes());
    match restore_err(&stripped) {
        Err(CheckpointError::Corrupt(msg)) => {
            assert!(msg.contains("SCHEDULER"), "unexpected message: {msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn behavior_with_dangling_substance_index_is_corrupt() {
    // An unsharded scene whose only substance reference points past the
    // (empty) substance list.
    let mut sim = Simulation::new(SimParams::cube(8.0).with_seed(1));
    sim.add_cell(
        CellBuilder::new(Vec3::new(0.0, 0.0, 0.0))
            .diameter(2.0)
            .behavior(Behavior::Secretion {
                substance: 5,
                rate: 1.0,
            }),
    );
    let bytes = ckpt(&sim);
    match restore_err(&bytes) {
        Err(CheckpointError::Corrupt(msg)) => {
            assert!(msg.contains("substance"), "unexpected message: {msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn error_display_is_informative() {
    let e = CheckpointError::SectionOverflow {
        tag: 3,
        len: 1000,
        remaining: 10,
    };
    let msg = e.to_string();
    assert!(msg.contains('3') && msg.contains("1000") && msg.contains("10"));
    assert!(CheckpointError::BadMagic.to_string().contains("magic"));
    let v = CheckpointError::UnsupportedVersion {
        found: 9,
        supported: 1,
    };
    assert!(v.to_string().contains('9'));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of a valid stream, current or legacy, is an
    /// error (never a panic, never a silently half-restored simulation).
    #[test]
    fn every_strict_prefix_errors(frac in 0.0f64..1.0) {
        for bytes in [valid_bytes(), legacy_bytes(2)] {
            let cut = ((bytes.len() as f64) * frac) as usize;
            prop_assert!(cut < bytes.len());
            let res = restore_err(&bytes[..cut]);
            prop_assert!(res.is_err(), "prefix of {cut}/{} bytes restored", bytes.len());
        }
    }

    /// Random single-byte corruption anywhere in a current or legacy
    /// stream never panics. (It may legitimately still restore — e.g. a
    /// flipped bit inside a position mantissa — but it must never crash
    /// or hang.)
    #[test]
    fn single_byte_corruption_never_panics(frac in 0.0f64..1.0, xor in 1u8..=255) {
        for mut bytes in [valid_bytes(), legacy_bytes(2)] {
            let i = ((bytes.len() as f64) * frac) as usize;
            bytes[i] ^= xor;
            let _ = restore_err(&bytes);
        }
    }
}
