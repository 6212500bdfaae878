//! Synchronization-site selection after a partition change (§5.6).
//!
//! "Once the machines in a partition have mutually agreed upon the
//! membership of the partition, the system must select, for each
//! filegroup it supports, a new synchronization site."

use std::collections::BTreeSet;

use locus_types::SiteId;

/// Picks the new CSS for a filegroup: the lowest-numbered partition member
/// hosting one of the filegroup's containers (the deterministic choice
/// every member computes identically). `None` if no container is in the
/// partition — the filegroup is inaccessible there.
pub(crate) fn select_css(
    partition: &BTreeSet<SiteId>,
    container_sites: &[SiteId],
) -> Option<SiteId> {
    partition
        .iter()
        .copied()
        .find(|s| container_sites.contains(s))
}

/// Like `select_css`, but prefers container members outside `excluded`
/// (the gray-failure quarantine list): the lowest-numbered non-excluded
/// container member wins. If *every* container member in the partition is
/// excluded, the choice falls back to the plain `select_css` answer —
/// the filegroup stays served by a degraded site rather than going dark,
/// availability over isolation.
pub fn select_css_excluding(
    partition: &BTreeSet<SiteId>,
    container_sites: &[SiteId],
    excluded: &BTreeSet<SiteId>,
) -> Option<SiteId> {
    partition
        .iter()
        .copied()
        .find(|s| container_sites.contains(s) && !excluded.contains(s))
        .or_else(|| select_css(partition, container_sites))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> BTreeSet<SiteId> {
        ids.iter().map(|&i| SiteId(i)).collect()
    }

    #[test]
    fn lowest_container_member_wins() {
        let css = select_css(&set(&[1, 2, 3]), &[SiteId(3), SiteId(2)]);
        assert_eq!(css, Some(SiteId(2)));
    }

    #[test]
    fn no_container_in_partition_means_inaccessible() {
        assert_eq!(select_css(&set(&[4, 5]), &[SiteId(0), SiteId(1)]), None);
    }

    #[test]
    fn exclusion_skips_quarantined_containers() {
        let p = set(&[0, 1, 2]);
        let containers = [SiteId(0), SiteId(1), SiteId(2)];
        // Healthy choice: lowest container member.
        assert_eq!(
            select_css_excluding(&p, &containers, &set(&[])),
            Some(SiteId(0))
        );
        // Quarantining the default pick moves the role to the next member.
        assert_eq!(
            select_css_excluding(&p, &containers, &set(&[0])),
            Some(SiteId(1))
        );
        assert_eq!(
            select_css_excluding(&p, &containers, &set(&[0, 1])),
            Some(SiteId(2))
        );
    }

    #[test]
    fn all_excluded_falls_back_to_degraded_choice() {
        let p = set(&[0, 1]);
        let containers = [SiteId(0), SiteId(1)];
        // Availability over isolation: a fully-quarantined container set
        // still yields a CSS rather than making the filegroup inaccessible.
        assert_eq!(
            select_css_excluding(&p, &containers, &set(&[0, 1])),
            Some(SiteId(0))
        );
        // But a partition with no container at all stays inaccessible.
        assert_eq!(
            select_css_excluding(&set(&[4]), &containers, &set(&[])),
            None
        );
    }

    #[test]
    fn deterministic_across_members() {
        let p = set(&[0, 1, 2]);
        let containers = [SiteId(1), SiteId(2)];
        let choice = select_css(&p, &containers);
        // Every member computing the choice gets the same answer.
        assert_eq!(choice, select_css(&p, &containers));
        assert_eq!(choice, Some(SiteId(1)));
    }
}
