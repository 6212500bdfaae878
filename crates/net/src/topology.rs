//! Site liveness, links, and transitive reachability.
//!
//! §5.1: "The high-level protocols of LOCUS assume that the underlying
//! network is fully connected … The low-level protocols enforce that
//! network transitivity." We model the physical layer as an undirected
//! link matrix over live sites and define *communication* over connected
//! components, which is exactly the transitive closure the low level
//! provides (routing through intermediate sites).

use locus_types::SiteId;

/// Liveness and link state for `n` sites.
#[derive(Clone, Debug)]
pub struct Topology {
    up: Vec<bool>,
    /// Symmetric adjacency matrix (self-links unused).
    links: Vec<Vec<bool>>,
}

impl Topology {
    /// Fully connected topology of `n` live sites.
    pub fn new(n: usize) -> Self {
        Topology {
            up: vec![true; n],
            links: vec![vec![true; n]; n],
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.up.len()
    }

    /// Whether the site is up.
    pub fn is_up(&self, s: SiteId) -> bool {
        self.up.get(s.index()).copied().unwrap_or(false)
    }

    /// Marks a site up or down.
    pub fn set_up(&mut self, s: SiteId, up: bool) {
        if let Some(slot) = self.up.get_mut(s.index()) {
            *slot = up;
        }
    }

    /// Sets the physical link between two sites.
    pub(crate) fn set_link(&mut self, a: SiteId, b: SiteId, connected: bool) {
        let (i, j) = (a.index(), b.index());
        if i < self.links.len() && j < self.links.len() && i != j {
            self.links[i][j] = connected;
            self.links[j][i] = connected;
        }
    }

    /// Restores all links and leaves liveness unchanged.
    pub fn heal(&mut self) {
        let n = self.site_count();
        for i in 0..n {
            for j in 0..n {
                self.links[i][j] = true;
            }
        }
    }

    /// Cuts the network into the given groups: intra-group links restored,
    /// inter-group links cut. Sites not mentioned keep their links to each
    /// other but lose links to all mentioned sites outside their group.
    pub(crate) fn set_partition(&mut self, groups: &[Vec<SiteId>]) {
        let n = self.site_count();
        let mut group_of = vec![usize::MAX; n];
        for (gi, group) in groups.iter().enumerate() {
            for s in group {
                if s.index() < n {
                    group_of[s.index()] = gi;
                }
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let connected = group_of[i] == group_of[j];
                self.links[i][j] = connected;
                self.links[j][i] = connected;
            }
        }
    }

    /// Whether two sites can communicate: both up and in the same
    /// connected component of the live-link graph (transitivity). A site
    /// always communicates with itself while it is up (local service is a
    /// procedure call, §2.3.3) and never while down.
    pub(crate) fn can_communicate(&self, a: SiteId, b: SiteId) -> bool {
        if !self.is_up(a) || !self.is_up(b) {
            return false;
        }
        a == b || self.component_of(a).contains(&b)
    }

    /// The connected components of live sites, each sorted, ordered by
    /// their smallest member.
    pub fn components(&self) -> Vec<Vec<SiteId>> {
        let n = self.site_count();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for i in 0..n {
            if self.up[i] && !seen[i] {
                let comp = self.component_of(SiteId(i as u32));
                for s in &comp {
                    seen[s.index()] = true;
                }
                out.push(comp);
            }
        }
        out
    }

    fn component_of(&self, start: SiteId) -> Vec<SiteId> {
        let n = self.site_count();
        let mut seen = vec![false; n];
        let mut stack = vec![start.index()];
        seen[start.index()] = true;
        while let Some(i) = stack.pop() {
            for (j, seen_j) in seen.iter_mut().enumerate().take(n) {
                if !*seen_j && j != i && self.up[j] && self.links[i][j] {
                    *seen_j = true;
                    stack.push(j);
                }
            }
        }
        (0..n)
            .filter(|&i| seen[i])
            .map(|i| SiteId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SiteId {
        SiteId(i)
    }

    #[test]
    fn fully_connected_is_one_component() {
        let t = Topology::new(4);
        assert_eq!(t.components().len(), 1);
        assert!(t.can_communicate(s(0), s(3)));
    }

    #[test]
    fn self_communication_tracks_liveness() {
        let mut t = Topology::new(2);
        assert!(t.can_communicate(s(0), s(0)));
        t.set_up(s(0), false);
        assert!(!t.can_communicate(s(0), s(0)));
        t.set_up(s(0), true);
        assert!(t.can_communicate(s(0), s(0)));
    }

    #[test]
    fn routing_through_intermediate_site() {
        let mut t = Topology::new(3);
        t.set_link(s(0), s(1), false);
        // 0-2 and 1-2 remain: transitivity keeps 0 and 1 communicating.
        assert!(t.can_communicate(s(0), s(1)));
    }

    #[test]
    fn down_intermediate_breaks_the_route() {
        let mut t = Topology::new(3);
        t.set_link(s(0), s(1), false);
        t.set_up(s(2), false);
        assert!(!t.can_communicate(s(0), s(1)));
        assert_eq!(t.components(), vec![vec![s(0)], vec![s(1)]]);
    }

    #[test]
    fn set_partition_creates_disjoint_groups() {
        let mut t = Topology::new(5);
        t.set_partition(&[vec![s(0), s(1), s(2)], vec![s(3), s(4)]]);
        assert!(t.can_communicate(s(0), s(2)));
        assert!(t.can_communicate(s(3), s(4)));
        assert!(!t.can_communicate(s(2), s(3)));
        assert_eq!(t.components().len(), 2);
    }

    #[test]
    fn partition_of_down_site_is_empty() {
        let mut t = Topology::new(2);
        t.set_up(s(0), false);
        assert_eq!(t.components(), vec![vec![s(1)]]);
    }

    #[test]
    fn heal_restores_links_not_liveness() {
        let mut t = Topology::new(3);
        t.set_partition(&[vec![s(0)], vec![s(1), s(2)]]);
        t.set_up(s(2), false);
        t.heal();
        assert!(t.can_communicate(s(0), s(1)));
        assert!(!t.can_communicate(s(0), s(2)));
    }
}
