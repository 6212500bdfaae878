//! Virtual circuits.
//!
//! §5.1: "Network information is kept internally in both a high-level
//! status table and a collection of virtual circuits. … Failure of a
//! virtual circuit, either on or after open, does, however, remove a node
//! from a partition. Likewise removal from a partition closes all relevant
//! virtual circuits." Circuits here carry no payload (delivery is modelled
//! by [`crate::Net::send`]) and no open state: reachability alone decides
//! whether a send can reach the wire. What a protocol can see of a circuit
//! is its failure mid-conversation: a lost reply leaves a closed-circuit
//! notice for the pair, and the pair's next send observes it.

use std::collections::BTreeSet;

use locus_types::SiteId;

/// The pending closed-circuit notices, keyed by unordered site pair.
#[derive(Debug, Default)]
pub(crate) struct CircuitTable {
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

    /// Closes the circuit between the pair *mid-conversation*: the next
    /// send attempt between them observes `CircuitClosed`.
    pub(crate) fn abort_pair(&mut self, a: SiteId, b: SiteId) {
        self.aborted.insert(key(a, b));
    }

    /// Consumes the pair's abort mark, returning whether one was set.
    pub(crate) fn take_abort(&mut self, a: SiteId, b: SiteId) -> bool {
        self.aborted.remove(&key(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_marks_are_consumed_once() {
        let mut t = CircuitTable::new();
        t.abort_pair(SiteId(1), SiteId(0));
        t.abort_pair(SiteId(0), SiteId(1));
        assert!(t.take_abort(SiteId(0), SiteId(1)), "pairs are unordered");
        assert!(!t.take_abort(SiteId(1), SiteId(0)), "mark consumed");
    }
}
