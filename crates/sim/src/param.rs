//! Simulation-wide parameters.

use bdm_math::interaction::MechParams;
use bdm_math::{Aabb, Vec3};

/// Host-side Z-order reorder policy (the paper's Improvement II applied
/// to the resident SoA columns, not just the GPU upload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReorderParams {
    /// Re-sort every `every` steps; `0` disables the reorder operation
    /// entirely (insertion order — the pre-reorder behavior). Because
    /// agents drift slowly relative to the voxel size, sortedness decays
    /// over many steps and the sort cost amortizes (§V).
    pub every: u64,
}

/// Arithmetic precision of the host hot paths — the CPU mechanical force
/// pass and the diffusion stencil (the paper's Improvement I brought to
/// the host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Scalar `f64` throughout — BioDynaMo's storage default and the
    /// bitwise-reproducibility reference. The default.
    #[default]
    F64,
    /// Mixed precision, in two places:
    ///
    /// - Mechanics: the fused CSR search+force pass reads `f32` mirrors
    ///   of the hot columns through 8-wide SIMD lanes, while per-agent
    ///   force accumulation and displacement integration stay `f64`,
    ///   within a documented ±1e-5 per-step envelope of
    ///   [`Precision::F64`]. Storage order (reorder on/off) changes lane
    ///   packing and therefore rounding, so trajectories are a function
    ///   of storage order too. Only the CSR uniform-grid environment has a
    ///   vectorized pass; every other environment's force pass ignores
    ///   the knob and runs `f64` (see `bdm_sim::mech`).
    /// - Diffusion, in every environment: each substance is staged into
    ///   `f32`, sub-stepped by the `f32` stencil and widened back
    ///   (`DiffusionGrid::step_in`), at ~1e-7 relative truncation per
    ///   sub-step.
    ///
    /// Deterministic (serial ≡ parallel, run ≡ rerun, bitwise) but
    /// *different* from [`Precision::F64`].
    F32Simd,
}

impl Precision {
    /// Short label for benchmark tables and metric dimensions.
    pub fn label(&self) -> &'static str {
        match self {
            Precision::F64 => "fp64",
            Precision::F32Simd => "fp32-simd",
        }
    }
}

/// Global parameters of a simulation (BioDynaMo's `Param`).
#[derive(Debug, Clone)]
pub struct SimParams {
    /// The bounded simulation space; agents are clamped into it by the
    /// bound-space operation each step.
    pub space: Aabb<f64>,
    /// Mechanical interaction parameters (Eq. 1 coefficients, timestep,
    /// displacement clamp).
    pub mech: MechParams<f64>,
    /// Master seed; every stochastic decision (division axes, benchmark
    /// placement) derives deterministically from it.
    pub seed: u64,
    /// Override for the uniform-grid voxel edge / interaction radius.
    /// `None` = the BioDynaMo policy: the largest agent diameter.
    pub interaction_radius: Option<f64>,
    /// Host-side agent reorder policy (off by default).
    pub reorder: ReorderParams,
    /// Arithmetic precision of the CPU force pass and the diffusion
    /// stencil (`F64` default).
    pub precision: Precision,
    /// Keep agent state resident on the GPU across steps (off by
    /// default). With the GPU environment, steady-state steps then move
    /// no agent columns over the bus: the pipeline diffs the host
    /// columns against its device mirrors and uploads only what changed
    /// (births, deaths, behavior edits). Trajectories are bitwise
    /// identical to the non-resident path; only the transfer/timing
    /// accounting changes. Ignored by every CPU environment.
    pub gpu_resident: bool,
}

impl SimParams {
    /// Parameters for a cubic space `[-half, half]³`.
    pub fn cube(half: f64) -> Self {
        Self {
            space: Aabb::cube(half),
            mech: MechParams::default_params(),
            seed: 0x5EED,
            interaction_radius: None,
            reorder: ReorderParams::default(),
            precision: Precision::default(),
            gpu_resident: false,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style mechanical-parameter override.
    pub fn with_mech(mut self, mech: MechParams<f64>) -> Self {
        self.mech = mech;
        self
    }

    /// Builder-style interaction-radius override.
    pub fn with_interaction_radius(mut self, r: f64) -> Self {
        self.interaction_radius = Some(r);
        self
    }

    /// Builder-style reorder frequency: re-sort the agent columns along
    /// the Z-order curve every `every` steps.
    ///
    /// Panics on `every == 0`: a zero frequency would register a reorder
    /// op that never fires. Reorder is off by default — to leave it off,
    /// don't call this builder (see also [`SimParams::validate`]).
    pub fn with_reorder(mut self, every: u64) -> Self {
        assert!(
            every > 0,
            "with_reorder(0) would schedule a reorder that never fires; \
             reorder is off by default — omit the builder to leave it off"
        );
        self.reorder.every = every;
        self
    }

    /// Builder-style precision override for the CPU force pass and the
    /// diffusion stencil.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Builder-style GPU residency toggle: keep agent state on the
    /// device across steps (GPU environments only; a no-op elsewhere).
    pub fn with_gpu_resident(mut self, resident: bool) -> Self {
        self.gpu_resident = resident;
        self
    }

    /// Check the parameter set for configurations that would silently
    /// misbehave — a frozen timestep, a degenerate interaction radius or
    /// space. [`crate::Simulation::new`] calls this and panics with the
    /// returned message, so a bad hand-built `SimParams` fails loudly at
    /// construction instead of producing a subtly wrong run.
    pub fn validate(&self) -> Result<(), String> {
        if self.mech.timestep <= 0.0 {
            return Err(format!(
                "mech.timestep must be positive; got {}",
                self.mech.timestep
            ));
        }
        if let Some(r) = self.interaction_radius {
            if !r.is_finite() || r <= 0.0 {
                return Err(format!(
                    "interaction_radius override must be positive and finite; got {r}"
                ));
            }
        }
        let e = self.space.extents();
        if !(e.x > 0.0 && e.y > 0.0 && e.z > 0.0) {
            return Err(format!(
                "space must have positive, finite extent on every axis; got \
                 ({}, {}, {})",
                e.x, e.y, e.z
            ));
        }
        Ok(())
    }
}

impl Default for SimParams {
    fn default() -> Self {
        Self::cube(100.0)
    }
}

/// Convenience: center of the configured space.
pub fn space_center(p: &SimParams) -> Vec3<f64> {
    p.space.center()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_space_is_symmetric() {
        let p = SimParams::cube(50.0);
        assert_eq!(p.space.min, Vec3::splat(-50.0));
        assert_eq!(p.space.max, Vec3::splat(50.0));
        assert_eq!(space_center(&p), Vec3::zero());
    }

    #[test]
    fn builders_apply() {
        let p = SimParams::cube(1.0)
            .with_seed(99)
            .with_interaction_radius(2.5)
            .with_reorder(50);
        assert_eq!(p.seed, 99);
        assert_eq!(p.interaction_radius, Some(2.5));
        assert_eq!(p.reorder.every, 50);
    }

    #[test]
    fn reorder_defaults_off() {
        let p = SimParams::default();
        assert_eq!(p.reorder.every, 0, "reorder is opt-in");
    }

    #[test]
    #[should_panic(expected = "with_reorder(0)")]
    fn zero_reorder_frequency_is_rejected_at_the_builder() {
        let _ = SimParams::cube(1.0).with_reorder(0);
    }

    #[test]
    fn validate_rejects_a_zero_timestep() {
        // Zero timestep would freeze displacement integration.
        let mut p = SimParams::cube(1.0);
        p.mech.timestep = 0.0;
        assert!(p.validate().unwrap_err().contains("timestep"));
    }

    #[test]
    fn validate_rejects_bad_interaction_radius_and_degenerate_space() {
        // Zero, negative, and non-finite radius overrides.
        for r in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut p = SimParams::cube(10.0);
            p.interaction_radius = Some(r);
            let err = p.validate().unwrap_err();
            assert!(err.contains("interaction_radius"), "{r}: {err}");
        }
        // The builder path stays valid.
        assert!(SimParams::cube(10.0)
            .with_interaction_radius(2.0)
            .validate()
            .is_ok());
        // Degenerate (zero/negative/NaN extent) spaces.
        let mut p = SimParams::cube(10.0);
        p.space.max = p.space.min;
        assert!(p.validate().unwrap_err().contains("extent"));
        p.space.max.x = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn gpu_residency_defaults_off() {
        let p = SimParams::default();
        assert!(!p.gpu_resident, "device residency is opt-in");
        assert!(SimParams::cube(1.0).with_gpu_resident(true).gpu_resident);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn precision_defaults_to_f64() {
        let p = SimParams::default();
        assert_eq!(p.precision, Precision::F64, "mixed precision is opt-in");
        let p = p.with_precision(Precision::F32Simd);
        assert_eq!(p.precision, Precision::F32Simd);
        assert_eq!(Precision::F64.label(), "fp64");
        assert_eq!(Precision::F32Simd.label(), "fp32-simd");
    }
}
