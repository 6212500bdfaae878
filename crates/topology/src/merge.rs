//! The merge protocol (§5.5).
//!
//! "The merge procedure joins several partitions into one. It establishes
//! new site and mount tables, and re-establishes CSS's for all the file
//! groups. To form the largest possible partition, the protocol must
//! check all possible sites … the merge strategy polls the sites
//! asynchronously. … The site initiating the protocol sends a request for
//! information to all sites in the network. Those sites which are able
//! respond with the information necessary for the initiating site to
//! build the global tables. After a suitable time, the initiating site
//! gives up on the other sites, declares a new partition, and broadcasts
//! its composition to the world."
//!
//! The timeout strategy is the paper's two-level scheme: "When a site
//! answers the poll, it sends its partition information in the reply.
//! Until all sites believed up by some site in the new partition have
//! replied, the timeout is long. Once all such sites have replied, the
//! timeout is short."

use std::collections::{BTreeMap, BTreeSet};

use locus_net::{Net, RpcEngine};
use locus_types::{SiteId, Ticks};

use crate::proto::{TopoMsg, MERGE_MSG_BYTES, POLL_RETRY};

/// The two timeout levels of §5.5.
#[derive(Clone, Copy, Debug)]
pub struct MergeTimeouts {
    /// Waiting for sites some member still believes up.
    pub long: Ticks,
    /// Tail wait once every expected site has answered.
    pub short: Ticks,
}

impl Default for MergeTimeouts {
    fn default() -> Self {
        MergeTimeouts {
            long: Ticks::secs(5),
            short: Ticks::millis(200),
        }
    }
}

/// Result of a merge-protocol run.
#[derive(Clone, Debug)]
pub struct MergeOutcome {
    /// The newly declared partition.
    pub members: BTreeSet<SiteId>,
    /// Poll messages sent.
    pub polls: u32,
    /// Replies received.
    pub replies: u32,
    /// The timeout tail the initiator actually waited (short if every
    /// expected site answered, long otherwise).
    pub waited: Ticks,
}

/// Runs the merge protocol from `initiator`, polling every site in the
/// network. `beliefs` are the per-site partition sets (established by the
/// partition protocol); on success every member's belief becomes the new
/// partition. The elapsed timeout is charged to the virtual clock so
/// experiment E7 can compare adaptive and fixed strategies.
pub fn merge_protocol(
    net: &Net,
    initiator: SiteId,
    beliefs: &mut BTreeMap<SiteId, BTreeSet<SiteId>>,
    timeouts: MergeTimeouts,
) -> MergeOutcome {
    let span = net.obs_span_open("topology", "merge-poll", initiator);
    let out = merge_protocol_inner(net, initiator, beliefs, timeouts);
    net.obs_span_close(span, "ok");
    out
}

fn merge_protocol_inner(
    net: &Net,
    initiator: SiteId,
    beliefs: &mut BTreeMap<SiteId, BTreeSet<SiteId>>,
    timeouts: MergeTimeouts,
) -> MergeOutcome {
    let engine = RpcEngine::new(POLL_RETRY);
    let mut members: BTreeSet<SiteId> = [initiator].into_iter().collect();

    // Asynchronous poll of every site in the network: one fan-out round,
    // each poll an engine RPC retried under the policy so an injected
    // drop does not shrink the merged partition; only persistently
    // unreachable sites are skipped. The MERGE info reply carries the
    // responder's partition information.
    let others: Vec<SiteId> = (0..net.site_count() as u32)
        .map(SiteId)
        .filter(|&s| s != initiator)
        .collect();
    let answers = engine.fan_out(
        net,
        initiator,
        &others,
        TopoMsg::MergePoll,
        |_: &()| MERGE_MSG_BYTES,
        |_, _| (),
    );
    let polls = others.len() as u32;
    let mut replies = 0;
    for (site, answer) in others.into_iter().zip(answers) {
        if answer.is_ok() {
            replies += 1;
            members.insert(site);
        }
    }

    // Two-level timeout: the set of sites "believed up by some site in
    // the new partition" is the union of member beliefs; if every such
    // site replied, only the short tail is paid.
    let mut expected: BTreeSet<SiteId> = BTreeSet::new();
    for m in &members {
        if let Some(b) = beliefs.get(m) {
            expected.extend(b.iter().copied());
        }
    }
    expected.insert(initiator);
    let all_expected_replied = expected.is_subset(&members);
    let waited = if all_expected_replied {
        timeouts.short
    } else {
        timeouts.long
    };
    net.charge_timeout(waited);

    // Declare the new partition and broadcast its composition.
    for &site in &members {
        if site != initiator {
            let _ = engine.one_way(net, initiator, site, TopoMsg::MergeAnnounce, |_| ());
        }
        beliefs.insert(site, members.clone());
    }

    MergeOutcome {
        members,
        polls,
        replies,
        waited,
    }
}

/// The §5.5 arbitration run by a *polled* site deciding whether to join an
/// initiator's merge. `merging` says whether this site is itself running a
/// merge, `actsite` is the active site it currently defers to, `locsite`
/// is this site and `fsite` the foreign initiator. Returns the new active
/// site if the site accepts, or `None` to decline.
///
/// This is a direct transliteration of the paper's pseudocode:
///
/// ```text
/// IF ready to merge THEN
///   IF merging AND actsite == locsite THEN
///     IF fsite < locsite THEN actsite := fsite; halt active merge;
///     ELSE decline to merge FI
///   ELSE actsite := fsite; FI
/// ELSE decline to merge FI
/// ```
pub fn merge_arbitration(
    ready: bool,
    merging: bool,
    actsite: SiteId,
    locsite: SiteId,
    fsite: SiteId,
) -> Option<SiteId> {
    if !ready {
        return None;
    }
    if merging && actsite == locsite {
        if fsite < locsite {
            Some(fsite) // halt our own merge, defer to the lower site
        } else {
            None // decline: we keep running our own merge
        }
    } else {
        Some(fsite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beliefs_of(groups: &[&[u32]]) -> BTreeMap<SiteId, BTreeSet<SiteId>> {
        let mut out = BTreeMap::new();
        for g in groups {
            let set: BTreeSet<SiteId> = g.iter().map(|&i| SiteId(i)).collect();
            for &i in *g {
                out.insert(SiteId(i), set.clone());
            }
        }
        out
    }

    #[test]
    fn merge_joins_two_partitions() {
        let net = Net::new(4);
        // Two partitions just healed: beliefs still reflect the split.
        let mut beliefs = beliefs_of(&[&[0, 1], &[2, 3]]);
        let out = merge_protocol(&net, SiteId(0), &mut beliefs, MergeTimeouts::default());
        assert_eq!(out.members.len(), 4);
        assert_eq!(out.replies, 3);
        for i in 0..4 {
            assert_eq!(beliefs[&SiteId(i)].len(), 4);
        }
    }

    #[test]
    fn adaptive_timeout_short_when_all_expected_reply() {
        let net = Net::new(3);
        let t = MergeTimeouts::default();
        let mut beliefs = beliefs_of(&[&[0, 1], &[2]]);
        let out = merge_protocol(&net, SiteId(0), &mut beliefs, t);
        assert_eq!(out.waited, t.short, "everyone believed up replied");
    }

    #[test]
    fn adaptive_timeout_long_when_a_believed_site_is_silent() {
        let net = Net::new(3);
        net.crash(SiteId(2));
        let t = MergeTimeouts::default();
        // Site 1 still believes site 2 is up.
        let mut beliefs = beliefs_of(&[&[0], &[1, 2]]);
        let out = merge_protocol(&net, SiteId(0), &mut beliefs, t);
        assert!(!out.members.contains(&SiteId(2)));
        assert_eq!(out.waited, t.long, "a believed-up site never answered");
    }

    #[test]
    fn merge_polls_all_sites_even_those_thought_down() {
        let net = Net::new(5);
        let mut beliefs = beliefs_of(&[&[0]]);
        net.reset_stats();
        let out = merge_protocol(&net, SiteId(0), &mut beliefs, MergeTimeouts::default());
        assert_eq!(out.polls, 4, "the protocol must check all possible sites");
        assert_eq!(net.stats().sends("MERGE poll"), 4);
    }

    #[test]
    fn injected_drops_do_not_shrink_the_merge() {
        use locus_net::{FaultPlan, FaultSpec};
        let net = Net::new(4);
        net.install_faults(FaultPlan::new(11).default_spec(FaultSpec::drop_rate(0.25)));
        let mut beliefs = beliefs_of(&[&[0, 1], &[2, 3]]);
        let out = merge_protocol(&net, SiteId(0), &mut beliefs, MergeTimeouts::default());
        assert_eq!(out.members.len(), 4, "drops were retried, not treated as down");
    }

    #[test]
    fn arbitration_matches_the_paper_pseudocode() {
        let loc = SiteId(5);
        // Not ready: decline.
        assert_eq!(merge_arbitration(false, false, loc, loc, SiteId(1)), None);
        // Idle and ready: accept any initiator.
        assert_eq!(
            merge_arbitration(true, false, loc, loc, SiteId(9)),
            Some(SiteId(9))
        );
        // Actively merging ourselves: lower site wins, we halt.
        assert_eq!(
            merge_arbitration(true, true, loc, loc, SiteId(1)),
            Some(SiteId(1))
        );
        // Actively merging ourselves: higher site is declined.
        assert_eq!(merge_arbitration(true, true, loc, loc, SiteId(9)), None);
        // Merging but deferring to someone else already: accept.
        assert_eq!(
            merge_arbitration(true, true, SiteId(2), loc, SiteId(9)),
            Some(SiteId(9))
        );
    }
}
