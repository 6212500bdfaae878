//! The partition protocol: consensus by iterative intersection (§5.4).
//!
//! "The criterion for consensus may be stated in set notation as: for
//! every α,β ∈ P, Pα = Pβ. This state can be reached from any initial
//! condition by taking successive intersections of the partition sets of
//! a group of sites.
//!
//! When a site α runs the partition algorithm, it polls the sites in Pα.
//! Each site polled responds with its own partition set P_pollsite. When a
//! site is polled successfully, it is added to the new partition set Pα′,
//! and Pα is changed to Pα ∩ P_pollsite. α continues to poll those sites
//! in Pα but not in Pα′ until the two sets are equal, at which point a
//! consensus is assured, and α announces it to the other sites."

use std::collections::{BTreeMap, BTreeSet};

use locus_net::{Net, RpcEngine};
use locus_types::SiteId;

use crate::proto::{TopoMsg, PARTITION_MSG_BYTES, POLL_RETRY};

/// Result of one active site's run of the partition protocol.
#[derive(Clone, Debug)]
pub struct PartitionOutcome {
    /// The agreed partition set (the active site's Pα′ at consensus).
    pub members: BTreeSet<SiteId>,
    /// Poll rounds executed.
    pub rounds: u32,
    /// Poll messages sent (including failed polls to departed sites).
    pub polls: u32,
    /// Announcement messages sent.
    pub announcements: u32,
}

/// Runs the partition protocol with `active` as the polling site.
///
/// `beliefs` holds every site's current partition set Pα (its site table
/// before the failure is handled); polls consult the *actual* network
/// reachability, so sites that cannot be reached fall out of the
/// intersection. On success every member's belief is replaced with the
/// consensus set.
pub fn partition_protocol(
    net: &Net,
    active: SiteId,
    beliefs: &mut BTreeMap<SiteId, BTreeSet<SiteId>>,
) -> PartitionOutcome {
    let span = net.obs_span_open("topology", "partition-poll", active);
    let out = partition_protocol_inner(net, active, beliefs);
    net.obs_span_close(span, "ok");
    out
}

fn partition_protocol_inner(
    net: &Net,
    active: SiteId,
    beliefs: &mut BTreeMap<SiteId, BTreeSet<SiteId>>,
) -> PartitionOutcome {
    let engine = RpcEngine::new(POLL_RETRY);
    let mut p_a: BTreeSet<SiteId> = beliefs
        .get(&active)
        .cloned()
        .unwrap_or_else(|| [active].into_iter().collect());
    p_a.insert(active);
    let mut p_new: BTreeSet<SiteId> = [active].into_iter().collect();
    let mut rounds = 0;
    let mut polls = 0;

    while p_a != p_new {
        rounds += 1;
        // Poll the sites believed up but not yet joined, all at once: one
        // fan-out round. Each poll is one RPC under the engine's
        // retry/backoff, so an injected message drop is not mistaken for
        // a departed site — only persistent unreachability removes a site
        // from the partition. The reply carries P_pollsite back.
        let pending: Vec<SiteId> = p_a.difference(&p_new).copied().collect();
        polls += pending.len() as u32;
        let replies = engine.fan_out(
            net,
            active,
            &pending,
            TopoMsg::PartitionPoll,
            |_: &BTreeSet<SiteId>| PARTITION_MSG_BYTES,
            |site, _| {
                beliefs
                    .get(&site)
                    .cloned()
                    .unwrap_or_else(|| [site].into_iter().collect())
            },
        );
        // No reply depends on another, so folding them after the round,
        // in poll order, agrees with folding each as it arrives.
        for (site, reply) in pending.into_iter().zip(replies) {
            let Ok(p_polled) = reply else {
                // Cannot be reached: it is not in this partition.
                p_a.remove(&site);
                continue;
            };
            // Pα := Pα ∩ P_pollsite — but the active site and the polled
            // site are in the new partition by construction.
            p_a = p_a.intersection(&p_polled).copied().collect();
            p_a.insert(active);
            p_a.insert(site);
            p_new.insert(site);
        }
        // Drop joined members that the intersection excluded.
        p_new = p_new.intersection(&p_a).copied().collect();
        p_new.insert(active);
    }

    // Consensus assured: announce to the other members.
    let mut announcements = 0;
    for &site in &p_new {
        if site != active {
            let _ = engine.one_way(net, active, site, TopoMsg::PartitionAnnounce, |_| ());
            announcements += 1;
        }
        beliefs.insert(site, p_new.clone());
    }

    PartitionOutcome {
        members: p_new,
        rounds,
        polls,
        announcements,
    }
}

/// Runs the partition protocol for *every* current partition: each
/// connected component's lowest-numbered live site acts as the active site
/// (the §5.7 total order provides the tie-break). The partitions run
/// their protocols side by side ([`Net::overlap`]). Returns one outcome
/// per partition.
pub fn partition_all(
    net: &Net,
    beliefs: &mut BTreeMap<SiteId, BTreeSet<SiteId>>,
) -> Vec<PartitionOutcome> {
    net.overlap(net.partitions(), |component| {
        let active = *component.first().expect("components are non-empty");
        partition_protocol(net, active, beliefs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_beliefs(n: u32) -> BTreeMap<SiteId, BTreeSet<SiteId>> {
        let all: BTreeSet<SiteId> = (0..n).map(SiteId).collect();
        (0..n).map(|i| (SiteId(i), all.clone())).collect()
    }

    #[test]
    fn healthy_network_reaches_trivial_consensus() {
        let net = Net::new(5);
        let mut beliefs = full_beliefs(5);
        let out = partition_protocol(&net, SiteId(0), &mut beliefs);
        assert_eq!(out.members.len(), 5);
        for i in 0..5 {
            assert_eq!(beliefs[&SiteId(i)], out.members, "Pα = Pβ for all α,β");
        }
    }

    #[test]
    fn partitioned_network_converges_per_side() {
        let net = Net::new(4);
        net.partition(&[vec![SiteId(0), SiteId(1)], vec![SiteId(2), SiteId(3)]]);
        let mut beliefs = full_beliefs(4);
        let outs = partition_all(&net, &mut beliefs);
        assert_eq!(outs.len(), 2);
        let a: BTreeSet<SiteId> = [SiteId(0), SiteId(1)].into_iter().collect();
        let b: BTreeSet<SiteId> = [SiteId(2), SiteId(3)].into_iter().collect();
        assert_eq!(outs[0].members, a);
        assert_eq!(outs[1].members, b);
        assert_eq!(beliefs[&SiteId(1)], a);
        assert_eq!(beliefs[&SiteId(3)], b);
    }

    #[test]
    fn single_link_cut_keeps_maximum_partition() {
        // §5.4: "a single communications failure should not result in the
        // network breaking into three or more parts" — with transitivity
        // intact, one cut link keeps everyone in one partition.
        let net = Net::new(3);
        net.cut_link(SiteId(0), SiteId(1));
        let mut beliefs = full_beliefs(3);
        let outs = partition_all(&net, &mut beliefs);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].members.len(), 3, "maximum partition found");
    }

    #[test]
    fn crashed_site_is_excluded() {
        let net = Net::new(3);
        net.crash(SiteId(1));
        let mut beliefs = full_beliefs(3);
        let out = partition_protocol(&net, SiteId(0), &mut beliefs);
        let expect: BTreeSet<SiteId> = [SiteId(0), SiteId(2)].into_iter().collect();
        assert_eq!(out.members, expect);
        assert!(out.polls >= 2, "the dead site was polled and timed out");
    }

    #[test]
    fn stale_beliefs_shrink_by_intersection() {
        // Site 2 already knows site 3 is gone; site 0 does not. The
        // intersection removes site 3 even though 0 believed it up.
        let net = Net::new(4);
        net.crash(SiteId(3));
        let mut beliefs = full_beliefs(4);
        beliefs.insert(
            SiteId(2),
            [SiteId(0), SiteId(1), SiteId(2)].into_iter().collect(),
        );
        let out = partition_protocol(&net, SiteId(0), &mut beliefs);
        assert!(!out.members.contains(&SiteId(3)));
        assert_eq!(out.members.len(), 3);
    }

    #[test]
    fn injected_drops_do_not_shrink_the_partition() {
        use locus_net::{FaultPlan, FaultSpec};
        // A lossy link is not a departed site: the retry policy absorbs
        // injected drops, so the full partition is still found.
        let net = Net::new(5);
        net.install_faults(FaultPlan::new(7).default_spec(FaultSpec::drop_rate(0.25)));
        let mut beliefs = full_beliefs(5);
        let out = partition_protocol(&net, SiteId(0), &mut beliefs);
        assert_eq!(
            out.members.len(),
            5,
            "drops were retried, not treated as down"
        );
        assert!(
            net.stats().total_retries() > 0,
            "losses were in fact injected"
        );
    }

    #[test]
    fn message_counts_are_reported() {
        let net = Net::new(4);
        net.reset_stats();
        let mut beliefs = full_beliefs(4);
        let out = partition_protocol(&net, SiteId(0), &mut beliefs);
        let st = net.stats();
        assert_eq!(st.sends("PARTITION poll"), out.polls as u64);
        assert_eq!(st.sends("PARTITION announce"), out.announcements as u64);
        assert_eq!(out.announcements, 3);
    }
}
