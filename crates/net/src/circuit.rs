//! Virtual circuits.
//!
//! §5.1: "Network information is kept internally in both a high-level
//! status table and a collection of virtual circuits. … Failure of a
//! virtual circuit, either on or after open, does, however, remove a node
//! from a partition. Likewise removal from a partition closes all relevant
//! virtual circuits." Circuits here carry no payload (delivery is modelled
//! by [`crate::Net::send`]); they track which site pairs have an open
//! conversation so that partition changes can abort in-flight activity and
//! the reconfiguration protocol can observe circuit failures.

use std::collections::BTreeSet;

use locus_types::SiteId;

/// The set of open virtual circuits, keyed by unordered site pair.
#[derive(Debug, Default)]
pub struct CircuitTable {
    open: BTreeSet<(SiteId, SiteId)>,
    /// Pairs whose circuit failed mid-conversation (e.g. a lost reply);
    /// the next send between such a pair is refused with `CircuitClosed`
    /// so the ongoing activity observes the abort (§5.1).
    aborted: BTreeSet<(SiteId, SiteId)>,
}

fn key(a: SiteId, b: SiteId) -> (SiteId, SiteId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl CircuitTable {
    /// An empty table.
    pub fn new() -> Self {
        CircuitTable::default()
    }

    /// Opens the circuit between `a` and `b` if not already open.
    pub fn ensure_open(&mut self, a: SiteId, b: SiteId) {
        self.open.insert(key(a, b));
    }

    /// Whether a circuit between the pair is open.
    pub fn is_open(&self, a: SiteId, b: SiteId) -> bool {
        self.open.contains(&key(a, b))
    }

    /// Closes the circuit between the pair (idempotent).
    pub fn close_pair(&mut self, a: SiteId, b: SiteId) {
        self.open.remove(&key(a, b));
    }

    /// Closes the circuit between the pair *mid-conversation*: the pair is
    /// additionally marked aborted, so the next send attempt between them
    /// observes `CircuitClosed` before a fresh circuit can open.
    pub fn abort_pair(&mut self, a: SiteId, b: SiteId) {
        self.open.remove(&key(a, b));
        self.aborted.insert(key(a, b));
    }

    /// Consumes the pair's abort mark, returning whether one was set.
    pub fn take_abort(&mut self, a: SiteId, b: SiteId) -> bool {
        self.aborted.remove(&key(a, b))
    }

    /// Closes every circuit involving `site`; returns how many closed.
    pub fn close_involving(&mut self, site: SiteId) -> u64 {
        let before = self.open.len();
        self.open.retain(|&(a, b)| a != site && b != site);
        (before - self.open.len()) as u64
    }

    /// Visits every open circuit.
    pub fn for_each_open(&self, mut f: impl FnMut(SiteId, SiteId)) {
        for &(a, b) in &self.open {
            f(a, b);
        }
    }

    /// Number of open circuits.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_is_unordered_and_idempotent() {
        let mut t = CircuitTable::new();
        t.ensure_open(SiteId(1), SiteId(2));
        t.ensure_open(SiteId(2), SiteId(1));
        assert_eq!(t.open_count(), 1);
        assert!(t.is_open(SiteId(2), SiteId(1)));
    }

    #[test]
    fn close_involving_counts() {
        let mut t = CircuitTable::new();
        t.ensure_open(SiteId(0), SiteId(1));
        t.ensure_open(SiteId(0), SiteId(2));
        t.ensure_open(SiteId(1), SiteId(2));
        assert_eq!(t.close_involving(SiteId(0)), 2);
        assert_eq!(t.open_count(), 1);
        assert!(t.is_open(SiteId(1), SiteId(2)));
    }

    #[test]
    fn abort_marks_are_consumed_once() {
        let mut t = CircuitTable::new();
        t.ensure_open(SiteId(0), SiteId(1));
        t.abort_pair(SiteId(1), SiteId(0));
        assert!(!t.is_open(SiteId(0), SiteId(1)));
        assert!(t.take_abort(SiteId(0), SiteId(1)));
        assert!(!t.take_abort(SiteId(0), SiteId(1)), "mark consumed");
    }

    #[test]
    fn close_pair_is_idempotent() {
        let mut t = CircuitTable::new();
        t.ensure_open(SiteId(0), SiteId(1));
        t.close_pair(SiteId(1), SiteId(0));
        t.close_pair(SiteId(0), SiteId(1));
        assert_eq!(t.open_count(), 0);
    }
}
