//! Output checks: per-step invariants and the final-state digest.
//!
//! Every step is checked against the state captured before it:
//! positions and diameters are finite, agents lie inside the space
//! (bound space runs before the step returns), uids are unique, the
//! population balances (`after = before + births − deaths`, where births
//! are the uids the step allocated and deaths the uids it lost), only an
//! agent carrying a death rule disappears, and every substance
//! concentration is finite and non-negative.

use bdm_sim::behavior::Behavior;
use bdm_sim::Simulation;

/// What a step's check needs to know about the state before the step.
pub struct Before {
    len: usize,
    next_uid: u64,
    /// Uids alive before the step, ascending.
    uids: Vec<u64>,
    /// Uids of the agents that carry an apoptosis rule, ascending.
    mortal: Vec<u64>,
}

impl Before {
    /// Capture the pre-step state of `sim`.
    pub fn capture(sim: &Simulation) -> Self {
        let rm = sim.rm();
        let mut uids = rm.uid_column().to_vec();
        uids.sort_unstable();
        let mut mortal: Vec<u64> = (0..rm.len())
            .filter(|&i| {
                rm.behaviors(i)
                    .iter()
                    .any(|b| matches!(b, Behavior::Apoptosis { .. }))
            })
            .map(|i| rm.uid(i))
            .collect();
        mortal.sort_unstable();
        Self {
            len: rm.len(),
            next_uid: rm.next_uid(),
            uids,
            mortal,
        }
    }

    /// Agents alive before the step.
    pub fn len(&self) -> usize {
        self.len
    }
}

/// Population change of one checked step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Churn {
    /// Uids the step allocated.
    pub births: u64,
    /// Agents alive before the step and gone after it.
    pub deaths: u64,
}

/// Check the state of `sim` after one step against `before`. Returns
/// the step's churn, or the first violated invariant.
pub fn check_step(before: &Before, sim: &Simulation) -> Result<Churn, String> {
    let rm = sim.rm();
    let space = sim.params().space;
    for i in 0..rm.len() {
        let (p, d) = (rm.position(i), rm.diameter(i));
        if !(p.x.is_finite() && p.y.is_finite() && p.z.is_finite()) {
            return Err(format!("agent uid {} has a non-finite position", rm.uid(i)));
        }
        if !(d.is_finite() && d > 0.0) {
            return Err(format!("agent uid {} has diameter {d}", rm.uid(i)));
        }
        if !space.contains(p) {
            return Err(format!("agent uid {} lies outside the space", rm.uid(i)));
        }
    }

    let mut after = rm.uid_column().to_vec();
    after.sort_unstable();
    if after.windows(2).any(|w| w[0] == w[1]) {
        return Err("duplicate uid".into());
    }
    let births = rm
        .next_uid()
        .checked_sub(before.next_uid)
        .ok_or("uid counter went backwards")?;
    // Uids are unique in both sorted lists, so one merge walk yields the
    // agents that vanished and the ones that appeared.
    let (mut i, mut j, mut deaths, mut appeared) = (0, 0, 0u64, 0u64);
    while i < before.uids.len() || j < after.len() {
        match (before.uids.get(i), after.get(j)) {
            (Some(b), Some(a)) if b == a => (i, j) = (i + 1, j + 1),
            (Some(&b), a) if a.is_none_or(|&a| b < a) => {
                if before.mortal.binary_search(&b).is_err() {
                    return Err(format!("agent uid {b} vanished without a death rule"));
                }
                deaths += 1;
                i += 1;
            }
            (_, Some(&a)) => {
                if !(before.next_uid..rm.next_uid()).contains(&a) {
                    return Err(format!("agent uid {a} appeared without being born"));
                }
                appeared += 1;
                j += 1;
            }
            (Some(_), None) | (None, None) => unreachable!("covered above"),
        }
    }
    if appeared != births || rm.len() as u64 != before.len as u64 + births - deaths {
        return Err(format!(
            "population does not balance: {} before + {births} births - {deaths} deaths != {} after",
            before.len,
            rm.len()
        ));
    }

    for grid in sim.diffusion_grids() {
        if let Some(c) = grid
            .concentrations()
            .iter()
            .find(|c| !(c.is_finite() && **c >= 0.0))
        {
            return Err(format!(
                "substance '{}' holds concentration {c}",
                grid.params().name
            ));
        }
    }
    Ok(Churn { births, deaths })
}

/// Hash of the complete trajectory-determining state: seed, step count,
/// every agent column in storage order, and every substance field. Two
/// runs agree bitwise exactly when their digests agree (up to hash
/// collisions).
pub fn digest(sim: &Simulation) -> u64 {
    let mut h = Fnv64::default();
    h.word(sim.params().seed);
    h.word(sim.steps_executed());
    let rm = sim.rm();
    h.word(rm.len() as u64);
    h.word(rm.next_uid());
    for i in 0..rm.len() {
        let p = rm.position(i);
        h.word(rm.uid(i));
        for v in [p.x, p.y, p.z, rm.diameter(i), rm.adherence(i)] {
            h.word(v.to_bits());
        }
        h.word(rm.behaviors(i).len() as u64);
    }
    for grid in sim.diffusion_grids() {
        for c in grid.concentrations() {
            h.word(c.to_bits());
        }
    }
    h.0
}

/// FNV-1a over 64-bit words.
struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_math::Vec3;
    use bdm_sim::{CellBuilder, SimParams};

    fn row_of_cells() -> Simulation {
        let mut sim = Simulation::new(SimParams::cube(50.0).with_seed(3));
        for i in 0..8 {
            sim.add_cell(
                CellBuilder::new(Vec3::new(i as f64 * 9.0 - 30.0, 0.0, 0.0))
                    .diameter(10.0)
                    .behavior(Behavior::GrowthDivision {
                        growth_rate: 100.0,
                        division_threshold: 10.5,
                    }),
            );
        }
        sim
    }

    #[test]
    fn a_real_step_passes_and_reports_its_births() {
        let mut sim = row_of_cells();
        let before = Before::capture(&sim);
        sim.step();
        let churn = check_step(&before, &sim).expect("a correct step passes");
        assert_eq!(
            churn,
            Churn {
                births: 8,
                deaths: 0
            }
        );
    }

    #[test]
    fn an_injected_nan_position_is_flagged() {
        let mut sim = row_of_cells();
        let before = Before::capture(&sim);
        sim.rm_mut().set_position(2, Vec3::new(f64::NAN, 0.0, 0.0));
        let err = check_step(&before, &sim).unwrap_err();
        assert!(err.contains("non-finite position"), "{err}");
    }

    #[test]
    fn a_lost_agent_is_flagged() {
        let mut sim = row_of_cells();
        let before = Before::capture(&sim);
        sim.rm_mut().remove(5);
        let err = check_step(&before, &sim).unwrap_err();
        assert!(err.contains("vanished without a death rule"), "{err}");
    }

    #[test]
    fn an_agent_outside_the_space_is_flagged() {
        let mut sim = row_of_cells();
        let before = Before::capture(&sim);
        sim.rm_mut().set_position(0, Vec3::new(80.0, 0.0, 0.0));
        let err = check_step(&before, &sim).unwrap_err();
        assert!(err.contains("outside the space"), "{err}");
    }

    #[test]
    fn digest_sees_a_one_bit_change() {
        let mut sim = row_of_cells();
        let d0 = digest(&sim);
        let p = sim.rm().position(4);
        sim.rm_mut()
            .set_position(4, Vec3::new(f64::from_bits(p.x.to_bits() ^ 1), p.y, p.z));
        assert_ne!(digest(&sim), d0);
    }
}
