//! Property tests for the reconfiguration protocols: the partition
//! protocol always reaches consensus matching the physical components,
//! from *any* initial belief state (§5.4: "this state can be reached from
//! any initial condition"); the merge protocol always declares exactly
//! the reachable set; and running only the protocols each component's
//! event calls for ends where running both always does.

use std::collections::{BTreeMap, BTreeSet};

use locus_net::Net;
use locus_topology::merge::{merge_protocol, MergeTimeouts};
use locus_topology::partition::partition_all;
use locus_topology::reconfig::establish_partitions;
use locus_types::SiteId;
use proptest::prelude::*;

const N: u32 = 6;

fn arb_beliefs() -> impl Strategy<Value = BTreeMap<SiteId, BTreeSet<SiteId>>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0..N, 0..N as usize),
        N as usize,
    )
    .prop_map(|sets| {
        sets.into_iter()
            .enumerate()
            .map(|(i, raw)| {
                let mut set: BTreeSet<SiteId> = raw.into_iter().map(SiteId).collect();
                set.insert(SiteId(i as u32)); // a site always believes in itself
                (SiteId(i as u32), set)
            })
            .collect()
    })
}

fn arb_groups() -> impl Strategy<Value = Vec<Vec<SiteId>>> {
    // A random assignment of the N sites into up to 3 groups.
    proptest::collection::vec(0u8..3, N as usize).prop_map(|assign| {
        let mut groups: Vec<Vec<SiteId>> = vec![Vec::new(); 3];
        for (i, g) in assign.into_iter().enumerate() {
            groups[g as usize].push(SiteId(i as u32));
        }
        groups.into_iter().filter(|g| !g.is_empty()).collect()
    })
}

/// A topology: a split into groups, then cut links, then crashed sites.
#[derive(Clone, Debug)]
struct Topology {
    groups: Vec<Vec<SiteId>>,
    cuts: Vec<(u32, u32)>,
    crashed: BTreeSet<u32>,
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    (
        arb_groups(),
        proptest::collection::vec((0..N, 0..N), 0..4usize),
        proptest::collection::btree_set(0..N, 0..3usize),
    )
        .prop_map(|(groups, cuts, crashed)| Topology {
            groups,
            cuts,
            crashed,
        })
}

fn apply(net: &Net, t: &Topology) {
    net.heal();
    net.partition(&t.groups);
    for &(a, b) in &t.cuts {
        net.cut_link(SiteId(a), SiteId(b));
    }
    for i in 0..N {
        if t.crashed.contains(&i) {
            net.crash(SiteId(i));
        } else {
            net.revive(SiteId(i));
        }
    }
}

/// Both protocols in every component, whatever changed: the partition
/// protocol everywhere, then the merge protocol from each outcome's
/// lowest site not yet absorbed.
fn both_protocols(
    net: &Net,
    beliefs: &mut BTreeMap<SiteId, BTreeSet<SiteId>>,
) -> Vec<BTreeSet<SiteId>> {
    let mut declared: Vec<BTreeSet<SiteId>> = Vec::new();
    for o in partition_all(net, beliefs) {
        let initiator = *o.members.first().expect("non-empty");
        if !declared.iter().any(|d| d.contains(&initiator)) {
            declared
                .push(merge_protocol(net, initiator, beliefs, MergeTimeouts::default()).members);
        }
    }
    declared
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn selected_protocols_end_where_both_do(
        earlier in arb_topology(),
        now in arb_topology(),
        heal in any::<bool>(),
    ) {
        // The partition sets the earlier topology left behind.
        let all: BTreeSet<SiteId> = (0..N).map(SiteId).collect();
        let mut left: BTreeMap<_, _> = (0..N).map(|i| (SiteId(i), all.clone())).collect();
        let net = Net::new(N as usize);
        apply(&net, &earlier);
        both_protocols(&net, &mut left);
        // The same new topology on two networks: a heal drops every split
        // and cut but keeps the crashes.
        let now = if heal {
            Topology { groups: Vec::new(), cuts: Vec::new(), ..now }
        } else {
            now
        };
        let (both_net, selected_net) = (Net::new(N as usize), Net::new(N as usize));
        apply(&both_net, &now);
        apply(&selected_net, &now);
        let mut both_sets = left.clone();
        let both = both_protocols(&both_net, &mut both_sets);
        let mut selected_sets = left;
        let selected =
            establish_partitions(&selected_net, &mut selected_sets, MergeTimeouts::default());
        prop_assert_eq!(&selected.partitions, &both);
        prop_assert_eq!(&selected_sets, &both_sets);
    }

    #[test]
    fn partition_protocol_reaches_component_consensus(
        groups in arb_groups(),
        mut beliefs in arb_beliefs(),
        crashed in proptest::collection::btree_set(0..N, 0..3usize),
    ) {
        let net = Net::new(N as usize);
        net.partition(&groups);
        for &c in &crashed {
            net.crash(SiteId(c));
        }
        let outcomes = partition_all(&net, &mut beliefs);
        let components = net.partitions();
        prop_assert_eq!(outcomes.len(), components.len());
        for (o, comp) in outcomes.iter().zip(components.iter()) {
            let component: BTreeSet<SiteId> = comp.iter().copied().collect();
            // The partition protocol only *shrinks* belief sets to a
            // fully-connected consensus; discovering sites outside Pα is
            // the merge protocol's job (§5.3/§5.5). So: subset of the
            // physical component, plus member consensus.
            prop_assert!(o.members.is_subset(&component), "ghost members");
            for m in &o.members {
                prop_assert_eq!(beliefs.get(m), Some(&o.members));
            }
        }
        // After the merge protocol runs from each partition's active
        // site, the final set equals the physical component exactly.
        for comp in &components {
            let initiator = *comp.first().expect("non-empty");
            let out = merge_protocol(&net, initiator, &mut beliefs, MergeTimeouts::default());
            let component: BTreeSet<SiteId> = comp.iter().copied().collect();
            prop_assert_eq!(&out.members, &component, "merge missed sites");
        }
    }

    #[test]
    fn merge_protocol_declares_exactly_the_reachable_set(
        groups in arb_groups(),
        mut beliefs in arb_beliefs(),
    ) {
        let net = Net::new(N as usize);
        net.partition(&groups);
        // First establish per-component consensus, then heal and merge.
        partition_all(&net, &mut beliefs);
        net.heal();
        let out = merge_protocol(&net, SiteId(0), &mut beliefs, MergeTimeouts::default());
        let expect: BTreeSet<SiteId> = (0..N).map(SiteId).collect();
        prop_assert_eq!(&out.members, &expect);
        for m in &out.members {
            prop_assert_eq!(beliefs.get(m), Some(&out.members));
        }
        prop_assert_eq!(out.polls, N - 1, "every site is polled exactly once");
    }

    #[test]
    fn protocols_are_stable_under_repetition(groups in arb_groups()) {
        let net = Net::new(N as usize);
        net.partition(&groups);
        let all: BTreeSet<SiteId> = (0..N).map(SiteId).collect();
        let mut beliefs: BTreeMap<_, _> = (0..N).map(|i| (SiteId(i), all.clone())).collect();
        let first = partition_all(&net, &mut beliefs);
        let second = partition_all(&net, &mut beliefs);
        prop_assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(second.iter()) {
            prop_assert_eq!(&a.members, &b.members);
            // With correct beliefs, re-running needs one confirmation round.
            prop_assert!(b.rounds <= a.rounds.max(1));
        }
    }
}
