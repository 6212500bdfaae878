//! The nested-transaction manager.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use locus_fs::ops::namei;
use locus_fs::FsCluster;
use locus_net::RpcEngine;
use locus_types::{Errno, Gfid, SiteId, SysResult};

use crate::locks::LockTable;
pub use crate::locks::TxnId;
use crate::proto::{TxnMsg, CTRL_BYTES};

/// Transaction lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnState {
    /// In progress.
    Active,
    /// Committed (for a subtransaction: relative to its parent).
    Committed,
    /// Aborted; all effects discarded.
    Aborted,
}

#[derive(Clone, Debug)]
struct Txn {
    parent: Option<TxnId>,
    children: Vec<TxnId>,
    site: SiteId,
    state: TxnState,
    /// Staged whole-file images, visible to this transaction and its
    /// descendants until top-level commit.
    writes: BTreeMap<Gfid, Vec<u8>>,
}

/// The transaction manager: transaction tree, lock table, staging and the
/// partition-abort rule of §5.6.
pub struct TxnMgr {
    inner: RefCell<Inner>,
}

struct Inner {
    txns: BTreeMap<TxnId, Txn>,
    locks: LockTable,
    next: u64,
}

impl Default for TxnMgr {
    fn default() -> Self {
        TxnMgr::new()
    }
}

impl TxnMgr {
    /// An empty manager.
    pub fn new() -> Self {
        TxnMgr {
            inner: RefCell::new(Inner {
                txns: BTreeMap::new(),
                locks: LockTable::new(),
                next: 1,
            }),
        }
    }

    /// Begins a top-level transaction at `site`.
    pub fn begin(&self, site: SiteId) -> TxnId {
        self.insert(None, site)
    }

    /// Begins a subtransaction of `parent`, possibly at another site (one
    /// control message each way when remote).
    pub fn begin_sub(&self, fsc: &FsCluster, parent: TxnId, site: SiteId) -> SysResult<TxnId> {
        let psite = {
            let g = self.inner.borrow();
            let p = g.txns.get(&parent).ok_or(Errno::Enotxn)?;
            if p.state != TxnState::Active {
                return Err(Errno::Enotxn);
            }
            p.site
        };
        RpcEngine::new(fsc.retry_policy())
            .rpc(
                fsc.net(),
                psite,
                site,
                TxnMsg::Begin,
                |_| CTRL_BYTES,
                |_| (),
            )
            .map_err(|_| Errno::Esitedown)?;
        let tid = self.insert(Some(parent), site);
        self.inner
            .borrow_mut()
            .txns
            .get_mut(&parent)
            .expect("checked above")
            .children
            .push(tid);
        Ok(tid)
    }

    fn insert(&self, parent: Option<TxnId>, site: SiteId) -> TxnId {
        let mut g = self.inner.borrow_mut();
        let tid = TxnId(g.next);
        g.next += 1;
        g.txns.insert(
            tid,
            Txn {
                parent,
                children: Vec::new(),
                site,
                state: TxnState::Active,
                writes: BTreeMap::new(),
            },
        );
        tid
    }

    /// The transaction's state.
    pub fn state(&self, tid: TxnId) -> SysResult<TxnState> {
        Ok(self
            .inner
            .borrow()
            .txns
            .get(&tid)
            .ok_or(Errno::Enotxn)?
            .state)
    }

    /// The ancestor chain including `tid` itself.
    fn ancestors(&self, tid: TxnId) -> SysResult<BTreeSet<TxnId>> {
        let g = self.inner.borrow();
        let mut out = BTreeSet::new();
        let mut cur = Some(tid);
        while let Some(t) = cur {
            let txn = g.txns.get(&t).ok_or(Errno::Enotxn)?;
            out.insert(t);
            cur = txn.parent;
        }
        Ok(out)
    }

    /// Transactional read: the nearest staged version on the ancestor
    /// chain, else the committed file.
    pub fn read(&self, fsc: &FsCluster, tid: TxnId, gfid: Gfid) -> SysResult<Vec<u8>> {
        let (site, chain) = {
            let g = self.inner.borrow();
            let t = g.txns.get(&tid).ok_or(Errno::Enotxn)?;
            if t.state != TxnState::Active {
                return Err(Errno::Enotxn);
            }
            let mut chain = Vec::new();
            let mut cur = Some(tid);
            while let Some(c) = cur {
                chain.push(c);
                cur = g.txns.get(&c).and_then(|t| t.parent);
            }
            (t.site, chain)
        };
        {
            let g = self.inner.borrow();
            for t in &chain {
                if let Some(bytes) = g.txns[t].writes.get(&gfid) {
                    return Ok(bytes.clone());
                }
            }
        }
        namei::read_file_internal(fsc, site, gfid)
    }

    /// Transactional write: stages a whole-file image under a write lock.
    pub fn write(&self, fsc: &FsCluster, tid: TxnId, gfid: Gfid, bytes: &[u8]) -> SysResult<()> {
        let _ = fsc;
        let ancestors = self.ancestors(tid)?;
        let mut g = self.inner.borrow_mut();
        let t = g.txns.get(&tid).ok_or(Errno::Enotxn)?;
        if t.state != TxnState::Active {
            return Err(Errno::Enotxn);
        }
        if !g.locks.holds(gfid, tid) && !g.locks.acquire(gfid, tid, &ancestors) {
            return Err(Errno::Etxtbsy);
        }
        g.txns
            .get_mut(&tid)
            .expect("checked above")
            .writes
            .insert(gfid, bytes.to_vec());
        Ok(())
    }

    /// Commits `tid`. A subtransaction passes its updates and locks to its
    /// parent; a top-level transaction installs every staged file through
    /// the filesystem's atomic commit. Active children are committed
    /// bottom-up first (a convenience; strict Moss requires children
    /// complete first, and this enforces exactly that order).
    pub fn commit(&self, fsc: &FsCluster, tid: TxnId) -> SysResult<()> {
        // Children first.
        let children: Vec<TxnId> = {
            let g = self.inner.borrow();
            let t = g.txns.get(&tid).ok_or(Errno::Enotxn)?;
            if t.state != TxnState::Active {
                return Err(Errno::Enotxn);
            }
            t.children.clone()
        };
        for c in children {
            if self.state(c)? == TxnState::Active {
                self.commit(fsc, c)?;
            }
        }

        let (parent, site, writes) = {
            let g = self.inner.borrow();
            let t = &g.txns[&tid];
            (t.parent, t.site, t.writes.clone())
        };
        match parent {
            Some(p) => {
                // Subtransaction: inherit updates and locks upward; one
                // commit message if the parent is elsewhere.
                let psite = self.inner.borrow().txns[&p].site;
                RpcEngine::new(fsc.retry_policy())
                    .one_way(fsc.net(), site, psite, TxnMsg::Commit, |_| ())
                    .map_err(|_| Errno::Esitedown)?;
                let mut g = self.inner.borrow_mut();
                let parent_txn = g.txns.get_mut(&p).ok_or(Errno::Enotxn)?;
                if parent_txn.state != TxnState::Active {
                    return Err(Errno::Enotxn);
                }
                for (gfid, bytes) in writes {
                    parent_txn.writes.insert(gfid, bytes);
                }
                g.locks.pass_to_parent(tid, p);
                g.txns.get_mut(&tid).expect("exists").state = TxnState::Committed;
                Ok(())
            }
            None => {
                // Top-level: make it all permanent via §2.3.6 commits.
                for (gfid, bytes) in &writes {
                    namei::write_file_internal(fsc, site, *gfid, bytes)?;
                }
                let mut g = self.inner.borrow_mut();
                g.locks.release_all(tid);
                g.txns.get_mut(&tid).expect("exists").state = TxnState::Committed;
                Ok(())
            }
        }
    }

    /// Aborts `tid` and its whole subtree: staged updates are discarded
    /// and locks released ("undo any changes back to the previous commit
    /// point").
    #[allow(clippy::only_used_in_recursion)] // kept for API symmetry with `commit`
    pub fn abort(&self, fsc: &FsCluster, tid: TxnId) -> SysResult<()> {
        let children: Vec<TxnId> = {
            let g = self.inner.borrow();
            g.txns.get(&tid).ok_or(Errno::Enotxn)?.children.clone()
        };
        for c in children {
            if self.state(c)? == TxnState::Active {
                self.abort(fsc, c)?;
            }
        }
        let mut g = self.inner.borrow_mut();
        let t = g.txns.get_mut(&tid).ok_or(Errno::Enotxn)?;
        t.writes.clear();
        t.state = TxnState::Aborted;
        g.locks.release_all(tid);
        Ok(())
    }

    /// §5.6 cleanup, "Distributed Transaction" row: when the partition
    /// changes, "abort all related subtransactions in partition" — every
    /// active subtransaction that can no longer reach its parent's site is
    /// aborted (with its subtree). Returns how many were aborted.
    pub fn abort_orphans(&self, fsc: &FsCluster) -> usize {
        let orphans: Vec<TxnId> = {
            let g = self.inner.borrow();
            g.txns
                .iter()
                .filter(|(_, t)| t.state == TxnState::Active)
                .filter(|(_, t)| match t.parent {
                    Some(p) => {
                        let psite = g.txns[&p].site;
                        psite != t.site && !fsc.net().reachable(t.site, psite)
                    }
                    None => !fsc.net().is_up(t.site),
                })
                .map(|(&tid, _)| tid)
                .collect()
        };
        let mut n = 0;
        for tid in orphans {
            if self.state(tid) == Ok(TxnState::Active) {
                let _ = self.abort(fsc, tid);
                n += 1;
            }
        }
        n
    }

    /// Number of files currently write-locked by transactions.
    pub fn locked_files(&self) -> usize {
        self.inner.borrow().locks.locked_files()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_fs::ops::{fd, namei};
    use locus_fs::{FsClusterBuilder, ProcFsCtx};
    use locus_types::{FileType, MachineType, Perms};

    fn setup() -> (FsCluster, TxnMgr, Gfid) {
        let fsc = FsClusterBuilder::new()
            .vax_sites(3)
            .filegroup("root", &[0, 1])
            .build();
        let ctx = ProcFsCtx::new(
            fsc.kernel(SiteId(0)).mount.root().unwrap(),
            MachineType::Vax,
        );
        let fdn = fd::creat(
            &fsc,
            SiteId(0),
            &ctx,
            "/acct",
            FileType::Database,
            Perms::FILE_DEFAULT,
        )
        .unwrap();
        fd::write(&fsc, SiteId(0), fdn, b"balance=100").unwrap();
        fd::close(&fsc, SiteId(0), fdn).unwrap();
        fsc.settle();
        let gfid = namei::resolve(&fsc, SiteId(0), &ctx, "/acct").unwrap();
        (fsc, TxnMgr::new(), gfid)
    }

    use locus_fs::FsCluster;

    #[test]
    fn top_level_commit_persists() {
        let (fsc, tm, gfid) = setup();
        let t = tm.begin(SiteId(0));
        assert_eq!(tm.read(&fsc, t, gfid).unwrap(), b"balance=100");
        tm.write(&fsc, t, gfid, b"balance=50").unwrap();
        assert_eq!(
            tm.read(&fsc, t, gfid).unwrap(),
            b"balance=50",
            "own write visible"
        );
        assert_eq!(
            namei::read_file_internal(&fsc, SiteId(1), gfid).unwrap(),
            b"balance=100",
            "uncommitted write invisible outside"
        );
        tm.commit(&fsc, t).unwrap();
        fsc.settle();
        assert_eq!(
            namei::read_file_internal(&fsc, SiteId(1), gfid).unwrap(),
            b"balance=50"
        );
    }

    #[test]
    fn abort_discards_and_unlocks() {
        let (fsc, tm, gfid) = setup();
        let t = tm.begin(SiteId(0));
        tm.write(&fsc, t, gfid, b"balance=0").unwrap();
        tm.abort(&fsc, t).unwrap();
        assert_eq!(
            namei::read_file_internal(&fsc, SiteId(0), gfid).unwrap(),
            b"balance=100"
        );
        assert_eq!(tm.locked_files(), 0);
        let t2 = tm.begin(SiteId(1));
        tm.write(&fsc, t2, gfid, b"balance=99").unwrap();
        tm.commit(&fsc, t2).unwrap();
    }

    #[test]
    fn nested_commit_flows_through_parent() {
        let (fsc, tm, gfid) = setup();
        let top = tm.begin(SiteId(0));
        let sub = tm.begin_sub(&fsc, top, SiteId(1)).unwrap();
        tm.write(&fsc, sub, gfid, b"balance=75").unwrap();
        tm.commit(&fsc, sub).unwrap();
        // Parent now sees the subtransaction's update; disk does not.
        assert_eq!(tm.read(&fsc, top, gfid).unwrap(), b"balance=75");
        assert_eq!(
            namei::read_file_internal(&fsc, SiteId(0), gfid).unwrap(),
            b"balance=100"
        );
        tm.commit(&fsc, top).unwrap();
        assert_eq!(
            namei::read_file_internal(&fsc, SiteId(0), gfid).unwrap(),
            b"balance=75"
        );
    }

    #[test]
    fn subtransaction_abort_leaves_parent_intact() {
        let (fsc, tm, gfid) = setup();
        let top = tm.begin(SiteId(0));
        tm.write(&fsc, top, gfid, b"balance=90").unwrap();
        let sub = tm.begin_sub(&fsc, top, SiteId(1)).unwrap();
        tm.write(&fsc, sub, gfid, b"balance=10").unwrap();
        assert_eq!(tm.read(&fsc, sub, gfid).unwrap(), b"balance=10");
        tm.abort(&fsc, sub).unwrap();
        assert_eq!(tm.read(&fsc, top, gfid).unwrap(), b"balance=90");
        tm.commit(&fsc, top).unwrap();
        assert_eq!(
            namei::read_file_internal(&fsc, SiteId(0), gfid).unwrap(),
            b"balance=90"
        );
    }

    #[test]
    fn sibling_lock_conflict() {
        let (fsc, tm, gfid) = setup();
        let top = tm.begin(SiteId(0));
        let s1 = tm.begin_sub(&fsc, top, SiteId(0)).unwrap();
        let s2 = tm.begin_sub(&fsc, top, SiteId(1)).unwrap();
        tm.write(&fsc, s1, gfid, b"one").unwrap();
        assert_eq!(
            tm.write(&fsc, s2, gfid, b"two").unwrap_err(),
            Errno::Etxtbsy
        );
        tm.commit(&fsc, s1).unwrap();
        // After s1 commits, the lock belongs to `top`, s2's ancestor.
        tm.write(&fsc, s2, gfid, b"two").unwrap();
        tm.commit(&fsc, s2).unwrap();
        tm.commit(&fsc, top).unwrap();
        assert_eq!(
            namei::read_file_internal(&fsc, SiteId(0), gfid).unwrap(),
            b"two"
        );
    }

    #[test]
    fn partition_aborts_orphan_subtransactions() {
        let (fsc, tm, gfid) = setup();
        let top = tm.begin(SiteId(0));
        let sub = tm.begin_sub(&fsc, top, SiteId(2)).unwrap();
        tm.write(&fsc, sub, gfid, b"tentative").unwrap();
        fsc.net()
            .partition(&[vec![SiteId(0), SiteId(1)], vec![SiteId(2)]]);
        let n = tm.abort_orphans(&fsc);
        assert_eq!(n, 1);
        assert_eq!(tm.state(sub).unwrap(), TxnState::Aborted);
        assert_eq!(
            tm.state(top).unwrap(),
            TxnState::Active,
            "parent side survives"
        );
        // The parent can still commit its own (empty) work.
        tm.commit(&fsc, top).unwrap();
        assert_eq!(
            namei::read_file_internal(&fsc, SiteId(0), gfid).unwrap(),
            b"balance=100"
        );
    }

    #[test]
    fn operations_on_finished_transactions_fail() {
        let (fsc, tm, gfid) = setup();
        let t = tm.begin(SiteId(0));
        tm.commit(&fsc, t).unwrap();
        assert_eq!(tm.write(&fsc, t, gfid, b"x").unwrap_err(), Errno::Enotxn);
        assert_eq!(tm.read(&fsc, t, gfid).unwrap_err(), Errno::Enotxn);
        assert_eq!(tm.commit(&fsc, t).unwrap_err(), Errno::Enotxn);
    }

    use locus_types::SiteId;
}
