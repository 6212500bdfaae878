//! Property-based tests for version-vector lattice laws.

use locus_types::{VersionVector, VvOrder};
use proptest::prelude::*;

fn arb_vv() -> impl Strategy<Value = VersionVector> {
    proptest::collection::vec((0u32..6, 0u64..8), 0..6).prop_map(|pairs| {
        let mut v = VersionVector::new();
        for (origin, count) in pairs {
            for _ in 0..count {
                v.bump(origin);
            }
        }
        v
    })
}

proptest! {
    #[test]
    fn compare_is_antisymmetric(a in arb_vv(), b in arb_vv()) {
        let ab = a.compare(&b);
        let ba = b.compare(&a);
        let expect = match ab {
            VvOrder::Equal => VvOrder::Equal,
            VvOrder::Dominates => VvOrder::Dominated,
            VvOrder::Dominated => VvOrder::Dominates,
            VvOrder::Concurrent => VvOrder::Concurrent,
        };
        prop_assert_eq!(ba, expect);
    }

    #[test]
    fn compare_equal_iff_same(a in arb_vv(), b in arb_vv()) {
        prop_assert_eq!(a.compare(&b) == VvOrder::Equal, a == b);
    }

    #[test]
    fn merge_max_is_least_upper_bound(a in arb_vv(), b in arb_vv()) {
        let m = a.merge_max(&b);
        prop_assert!(m.covers(&a));
        prop_assert!(m.covers(&b));
        // Least: every origin count in m appears in a or b.
        for (origin, count) in m.iter() {
            prop_assert!(a.get(origin) == count || b.get(origin) == count);
        }
    }

    #[test]
    fn merge_max_commutative(a in arb_vv(), b in arb_vv()) {
        prop_assert_eq!(a.merge_max(&b), b.merge_max(&a));
    }

    #[test]
    fn merge_max_associative(a in arb_vv(), b in arb_vv(), c in arb_vv()) {
        prop_assert_eq!(a.merge_max(&b).merge_max(&c), a.merge_max(&b.merge_max(&c)));
    }

    #[test]
    fn merge_max_idempotent(a in arb_vv()) {
        prop_assert_eq!(a.merge_max(&a), a.clone());
    }

    #[test]
    fn bump_strictly_dominates(a in arb_vv(), origin in 0u32..6) {
        let mut bumped = a.clone();
        bumped.bump(origin);
        prop_assert_eq!(bumped.compare(&a), VvOrder::Dominates);
    }

    #[test]
    fn covers_is_transitive(a in arb_vv(), b in arb_vv(), c in arb_vv()) {
        if a.covers(&b) && b.covers(&c) {
            prop_assert!(a.covers(&c));
        }
    }

    #[test]
    fn compare_matches_pointwise_definition(a in arb_vv(), b in arb_vv()) {
        let greater = (0u32..6).any(|o| a.get(o) > b.get(o));
        let less = (0u32..6).any(|o| a.get(o) < b.get(o));
        let expect = match (greater, less) {
            (false, false) => VvOrder::Equal,
            (true, false) => VvOrder::Dominates,
            (false, true) => VvOrder::Dominated,
            (true, true) => VvOrder::Concurrent,
        };
        prop_assert_eq!(a.compare(&b), expect);
    }

    #[test]
    fn iter_is_origin_ordered_and_nonzero(a in arb_vv()) {
        let pairs: Vec<(u32, u64)> = a.iter().collect();
        prop_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert!(pairs.iter().all(|&(o, c)| c > 0 && a.get(o) == c));
        prop_assert_eq!(pairs.is_empty(), a.is_zero());
    }

    #[test]
    fn total_matches_iter_sum(a in arb_vv()) {
        let sum: u64 = a.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(a.total(), sum);
    }
}
