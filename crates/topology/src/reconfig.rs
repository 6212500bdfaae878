//! Stages 1–2 of a reconfiguration (§5.3): each connected component runs
//! only the protocol its event calls for.
//!
//! LOCUS starts the partition protocol when a virtual circuit fails and
//! the merge protocol when a site becomes reachable. Here the circuit
//! layer's reachability ([`Net::partitions`]) stands in for those
//! notices, read against the partition sets the last reconfiguration
//! left behind:
//!
//! | detected in the component | protocols run |
//! |---|---|
//! | failure only (crash, split) | partition (§5.4) |
//! | arrival only (revive, heal) | merge (§5.5) |
//! | both | partition, then merge |
//! | neither | none |
//!
//! Whatever runs, every member ends with its component as its partition
//! set: the partition protocol finds it when no member is missing a
//! reachable site, and the merge protocol finds it from any start.

use std::collections::{BTreeMap, BTreeSet};

use locus_net::Net;
use locus_types::SiteId;

use crate::merge::{merge_protocol, MergeTimeouts};
use crate::partition::partition_protocol;

/// Every site's partition set, as the protocols keep them.
type PartitionSets = BTreeMap<SiteId, BTreeSet<SiteId>>;

/// Whether a failure is detectable in `component`: some member's
/// partition set names a site it can no longer reach.
fn failure_detected(beliefs: &PartitionSets, component: &BTreeSet<SiteId>) -> bool {
    component
        .iter()
        .any(|m| beliefs.get(m).is_some_and(|p| !p.is_subset(component)))
}

/// Whether an arrival is detectable in `component`: a reachable site is
/// missing from some member's partition set (a site with none knows only
/// itself).
fn arrival_detected(beliefs: &PartitionSets, component: &BTreeSet<SiteId>) -> bool {
    component.iter().any(|m| {
        beliefs
            .get(m)
            .map_or(component.len() > 1, |p| !component.is_subset(p))
    })
}

/// What stages 1–2 of one reconfiguration established.
#[derive(Clone, Debug, Default)]
pub struct Established {
    /// The declared partitions (sorted member sets), in component order.
    pub partitions: Vec<BTreeSet<SiteId>>,
    /// Partition-protocol polls sent.
    pub partition_polls: u32,
    /// Merge-protocol polls sent.
    pub merge_polls: u32,
}

/// Runs, in every connected component, the protocols its event calls
/// for: the partition protocol from the lowest member where a failure is
/// detectable, then the merge protocol from the lowest member where an
/// arrival is. Components run each stage side by side ([`Net::overlap`]).
pub fn establish_partitions(
    net: &Net,
    beliefs: &mut BTreeMap<SiteId, BTreeSet<SiteId>>,
    timeouts: MergeTimeouts,
) -> Established {
    let components: Vec<BTreeSet<SiteId>> = net
        .partitions()
        .into_iter()
        .map(|c| c.into_iter().collect())
        .collect();
    // Both events are read before either protocol rewrites a set.
    let events: Vec<(bool, bool)> = components
        .iter()
        .map(|c| (failure_detected(beliefs, c), arrival_detected(beliefs, c)))
        .collect();
    let lowest = |c: &BTreeSet<SiteId>| *c.first().expect("components are non-empty");

    // Stage 1: the partition protocol (§5.4) where a site was lost.
    let partitioned = net.overlap(components.iter().zip(&events), |(c, &(failed, _))| {
        failed.then(|| partition_protocol(net, lowest(c), beliefs))
    });
    let mut out = Established {
        partition_polls: partitioned.iter().flatten().map(|p| p.polls).sum(),
        ..Established::default()
    };

    // Stage 2: the merge protocol (§5.5) where a site arrived. A
    // component whose lowest site an earlier merge absorbed is part of
    // that partition already.
    let merge_polls = net.overlap(
        components.iter().zip(&events).zip(partitioned),
        |((c, &(_, arrived)), p)| {
            let initiator = lowest(c);
            if out.partitions.iter().any(|d| d.contains(&initiator)) {
                return 0;
            }
            let (members, polls) = if arrived {
                let mo = merge_protocol(net, initiator, beliefs, timeouts);
                (mo.members, mo.polls)
            } else {
                (p.map_or_else(|| c.clone(), |p| p.members), 0)
            };
            out.partitions.push(members);
            polls
        },
    );
    out.merge_polls = merge_polls.iter().sum();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(sites: &[u32]) -> BTreeSet<SiteId> {
        sites.iter().map(|&i| SiteId(i)).collect()
    }

    fn sets_of(groups: &[&[u32]]) -> PartitionSets {
        let mut out = BTreeMap::new();
        for g in groups {
            for &i in *g {
                out.insert(SiteId(i), set(g));
            }
        }
        out
    }

    #[test]
    fn predicates_read_each_event() {
        let c = set(&[0, 1, 2]);
        // Steady: neither.
        let steady = sets_of(&[&[0, 1, 2]]);
        assert!(!failure_detected(&steady, &c) && !arrival_detected(&steady, &c));
        // Site 3 left: failure only.
        let lost = sets_of(&[&[0, 1, 2, 3]]);
        assert!(failure_detected(&lost, &c) && !arrival_detected(&lost, &c));
        // Site 2 arrived: arrival only.
        let joined = sets_of(&[&[0, 1], &[2]]);
        assert!(!failure_detected(&joined, &c) && arrival_detected(&joined, &c));
        // Site 2 arrived while site 3 left: both.
        let both = sets_of(&[&[0, 1, 3], &[2]]);
        assert!(failure_detected(&both, &c) && arrival_detected(&both, &c));
        // A site with no partition set knows only itself.
        assert!(arrival_detected(&BTreeMap::new(), &c));
        assert!(!arrival_detected(&BTreeMap::new(), &set(&[4])));
    }

    #[test]
    fn no_change_sends_nothing() {
        let net = Net::new(4);
        let mut beliefs = sets_of(&[&[0, 1, 2, 3]]);
        net.reset_stats();
        let t0 = net.now();
        let out = establish_partitions(&net, &mut beliefs, MergeTimeouts::default());
        assert_eq!(out.partitions, vec![set(&[0, 1, 2, 3])]);
        assert_eq!((out.partition_polls, out.merge_polls), (0, 0));
        assert_eq!(net.stats().total_sends(), 0);
        assert_eq!(net.now(), t0);
    }

    #[test]
    fn split_runs_only_the_partition_protocol() {
        let net = Net::new(4);
        net.partition(&[vec![SiteId(0), SiteId(1)], vec![SiteId(2), SiteId(3)]]);
        let mut beliefs = sets_of(&[&[0, 1, 2, 3]]);
        let out = establish_partitions(&net, &mut beliefs, MergeTimeouts::default());
        assert_eq!(out.partitions, vec![set(&[0, 1]), set(&[2, 3])]);
        assert!(out.partition_polls > 0);
        assert_eq!(out.merge_polls, 0);
        assert_eq!(beliefs, sets_of(&[&[0, 1], &[2, 3]]));
    }

    #[test]
    fn heal_runs_only_the_merge_protocol() {
        let net = Net::new(4);
        let mut beliefs = sets_of(&[&[0, 1], &[2, 3]]);
        let out = establish_partitions(&net, &mut beliefs, MergeTimeouts::default());
        assert_eq!(out.partitions, vec![set(&[0, 1, 2, 3])]);
        assert_eq!(out.partition_polls, 0);
        assert_eq!(out.merge_polls, 3);
        assert_eq!(beliefs, sets_of(&[&[0, 1, 2, 3]]));
    }
}
