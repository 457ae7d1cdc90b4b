//! Property-based tests of the `memtree-spec v1` wire format: any spec,
//! any order pair, any caps vector — the round trip through text is
//! fingerprint-equal, so a serialized spec addresses exactly the policy
//! its sender meant.

use memtree_order::OrderKind;
use memtree_sched::{AllotmentCaps, HeuristicKind, PolicySpec};
use proptest::prelude::*;

const ORDERS: [OrderKind; 6] = [
    OrderKind::MemPostorder,
    OrderKind::OptSeq,
    OrderKind::CriticalPath,
    OrderKind::PerfPostorder,
    OrderKind::AvgMemPostorder,
    OrderKind::NaturalPostorder,
];

fn arb_kind() -> impl Strategy<Value = HeuristicKind> {
    (0usize..HeuristicKind::all().len()).prop_map(|i| HeuristicKind::all()[i])
}

fn arb_order() -> impl Strategy<Value = OrderKind> {
    (0usize..ORDERS.len()).prop_map(|i| ORDERS[i])
}

fn arb_caps() -> impl Strategy<Value = Option<Vec<u32>>> {
    (0u8..2, 1usize..40)
        .prop_flat_map(|(some, len)| (Just(some), proptest::collection::vec(1u32..64, len)))
        .prop_map(|(some, caps)| (some == 1).then_some(caps))
}

/// Short garbage from a charset that cannot spell a legal spec key.
fn arb_garbage() -> impl Strategy<Value = String> {
    (1usize..11)
        .prop_flat_map(|len| proptest::collection::vec(0usize..3, len))
        .prop_map(|ixs| ixs.into_iter().map(|i| ['x', 'q', 'z'][i]).collect())
}

fn arb_spec() -> impl Strategy<Value = PolicySpec> {
    (
        arb_kind(),
        arb_order(),
        arb_order(),
        0u64..=u64::MAX,
        arb_caps(),
    )
        .prop_map(|(kind, ao, eo, memory, caps)| PolicySpec {
            kind,
            ao,
            eo,
            memory,
            caps: caps.map(AllotmentCaps::from_caps),
        })
}

proptest! {
    #[test]
    fn spec_wire_roundtrip_is_fingerprint_equal(spec in arb_spec()) {
        let text = spec.spec_to_string();
        let back = PolicySpec::spec_from_str(&text).unwrap();
        prop_assert_eq!(back.fingerprint(), spec.fingerprint());
        // And the round trip is textually stable (a fixpoint): the
        // re-serialisation is byte-identical.
        prop_assert_eq!(back.spec_to_string(), text);
    }

    #[test]
    fn spec_wire_rejects_trailing_garbage(spec in arb_spec(), garbage in arb_garbage()) {
        // Any non-comment trailing line is an unknown key or a missing
        // value — strictly rejected either way (the charset cannot spell
        // a legal key, which would be a *duplicate*-key rejection or, for
        // caps on a caps-less spec, a silent acceptance).
        let text = format!("{}{garbage} 1\n", spec.spec_to_string());
        prop_assert!(PolicySpec::spec_from_str(&text).is_err());
    }

    #[test]
    fn spec_wire_rejects_duplicated_documents(spec in arb_spec()) {
        let text = spec.spec_to_string();
        prop_assert!(PolicySpec::spec_from_str(&format!("{text}{text}")).is_err());
    }
}
