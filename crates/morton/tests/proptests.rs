//! Property-based tests for the Z-order curve.

use bdm_math::{Aabb, Vec3};
use bdm_morton::{compact, decode3, encode2, encode3, quantize, spread, COORD_MAX};
use proptest::prelude::*;

proptest! {
    /// spread/compact are inverse for every 21-bit value.
    #[test]
    fn spread_compact_bijection(v in 0u32..=COORD_MAX) {
        prop_assert_eq!(compact(spread(v)), v);
    }

    /// encode3/decode3 are inverse.
    #[test]
    fn encode_decode_bijection(
        x in 0u32..=COORD_MAX,
        y in 0u32..=COORD_MAX,
        z in 0u32..=COORD_MAX,
    ) {
        prop_assert_eq!(decode3(encode3(x, y, z)), (x, y, z));
    }

    /// Distinct coordinates yield distinct Z-values (injectivity).
    #[test]
    fn encode_injective(
        a in (0u32..1024, 0u32..1024, 0u32..1024),
        b in (0u32..1024, 0u32..1024, 0u32..1024),
    ) {
        if a != b {
            prop_assert_ne!(encode3(a.0, a.1, a.2), encode3(b.0, b.1, b.2));
        }
    }

    /// Monotone within an axis: increasing one coordinate while the others
    /// stay at zero increases the Z-value.
    #[test]
    fn monotone_on_axes(v in 0u32..COORD_MAX) {
        prop_assert!(encode3(v, 0, 0) < encode3(v + 1, 0, 0));
        prop_assert!(encode3(0, v, 0) < encode3(0, v + 1, 0));
        prop_assert!(encode3(0, 0, v) < encode3(0, 0, v + 1));
    }

    /// Octant nesting: the top interleaved bits of the Z-value select the
    /// octant, so all points of a lower octant sort before any point of a
    /// higher octant at the same level.
    #[test]
    fn octant_nesting(
        x0 in 0u32..512, y0 in 0u32..512, z0 in 0u32..512,
        x1 in 512u32..1024, y1 in 512u32..1024, z1 in 512u32..1024,
    ) {
        // Point entirely within the low half on every axis precedes a point
        // entirely within the high half on every axis (10-bit space).
        prop_assert!(encode3(x0, y0, z0) < encode3(x1, y1, z1));
    }

    /// The 2-D encode agrees with the 3-D encode at z = 0 after removing
    /// the z-lane gaps — checked indirectly through order agreement.
    #[test]
    fn encode2_order_matches_encode3_z0(
        a in (0u32..4096, 0u32..4096),
        b in (0u32..4096, 0u32..4096),
    ) {
        let ord2 = encode2(a.0, a.1).cmp(&encode2(b.0, b.1));
        let ord3 = encode3(a.0, a.1, 0).cmp(&encode3(b.0, b.1, 0));
        prop_assert_eq!(ord2, ord3);
    }

    /// Quantization is translation-consistent: shifting the space and the
    /// point by the same offset yields the same voxel coordinates.
    #[test]
    fn quantize_translation_invariant(
        px in 0.0f64..100.0, py in 0.0f64..100.0, pz in 0.0f64..100.0,
        shift in -50.0f64..50.0,
    ) {
        let space = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::splat(100.0));
        let shifted = Aabb::new(
            Vec3::splat(shift),
            Vec3::splat(shift + 100.0),
        );
        let p = Vec3::new(px, py, pz);
        let ps = p + Vec3::splat(shift);
        prop_assert_eq!(
            quantize(p, &space, 1.0),
            quantize(ps, &shifted, 1.0)
        );
    }
}
