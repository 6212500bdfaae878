//! The transaction lock table with ancestor inheritance.

use std::collections::{BTreeMap, BTreeSet};

use locus_types::Gfid;

/// Transaction identifier (defined here to avoid a cycle; re-exported as
/// [`crate::TxnId`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxnId(pub u64);

impl core::fmt::Display for TxnId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// Write-lock table: file → holders. The nested-transaction rule: a
/// transaction may take a lock if every current holder is one of its
/// ancestors; committing a subtransaction passes its locks to the parent.
#[derive(Debug, Default)]
pub(crate) struct LockTable {
    held: BTreeMap<Gfid, BTreeSet<TxnId>>,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Attempts to acquire a write lock for `tid`, whose ancestor chain
    /// (inclusive) is `ancestors`. Returns false on conflict.
    pub fn acquire(&mut self, gfid: Gfid, tid: TxnId, ancestors: &BTreeSet<TxnId>) -> bool {
        let holders = self.held.entry(gfid).or_default();
        if holders.iter().all(|h| ancestors.contains(h)) {
            holders.insert(tid);
            true
        } else {
            false
        }
    }

    /// Whether `tid` currently holds a lock on `gfid`.
    pub fn holds(&self, gfid: Gfid, tid: TxnId) -> bool {
        self.held
            .get(&gfid)
            .map(|h| h.contains(&tid))
            .unwrap_or(false)
    }

    /// Passes all of `child`'s locks to `parent` (subtransaction commit).
    pub(crate) fn pass_to_parent(&mut self, child: TxnId, parent: TxnId) {
        for holders in self.held.values_mut() {
            if holders.remove(&child) {
                holders.insert(parent);
            }
        }
        self.prune();
    }

    /// Releases every lock held by `tid` (abort, or top-level commit).
    pub(crate) fn release_all(&mut self, tid: TxnId) {
        for holders in self.held.values_mut() {
            holders.remove(&tid);
        }
        self.prune();
    }

    /// Number of files currently locked.
    pub fn locked_files(&self) -> usize {
        self.held.len()
    }

    fn prune(&mut self) {
        self.held.retain(|_, h| !h.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{FilegroupId, Ino};

    fn g(i: u32) -> Gfid {
        Gfid::new(FilegroupId(0), Ino(i))
    }

    fn anc(ids: &[u64]) -> BTreeSet<TxnId> {
        ids.iter().map(|&i| TxnId(i)).collect()
    }

    #[test]
    fn independent_transactions_conflict() {
        let mut lt = LockTable::new();
        assert!(lt.acquire(g(1), TxnId(1), &anc(&[1])));
        assert!(!lt.acquire(g(1), TxnId(2), &anc(&[2])));
        assert!(
            lt.acquire(g(2), TxnId(2), &anc(&[2])),
            "different file is fine"
        );
    }

    #[test]
    fn child_may_take_ancestor_lock() {
        let mut lt = LockTable::new();
        assert!(lt.acquire(g(1), TxnId(1), &anc(&[1])));
        // Child 3 of parent 1: ancestors = {3, 1}.
        assert!(lt.acquire(g(1), TxnId(3), &anc(&[3, 1])));
        // Unrelated txn 2 still conflicts.
        assert!(!lt.acquire(g(1), TxnId(2), &anc(&[2])));
    }

    #[test]
    fn commit_passes_locks_up_and_release_frees() {
        let mut lt = LockTable::new();
        assert!(lt.acquire(g(1), TxnId(3), &anc(&[3, 1])));
        lt.pass_to_parent(TxnId(3), TxnId(1));
        assert!(lt.holds(g(1), TxnId(1)));
        assert!(!lt.holds(g(1), TxnId(3)));
        lt.release_all(TxnId(1));
        assert_eq!(lt.locked_files(), 0);
        assert!(lt.acquire(g(1), TxnId(2), &anc(&[2])));
    }
}
