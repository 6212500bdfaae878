//! The per-site name-lookup and attribute cache (§2.3.4 acceleration).
//!
//! Pathname searching dominates filesystem message traffic: the baseline
//! protocol pays an internal open → read-all-pages → close exchange for
//! every component of every path, and every attribute interrogation pays
//! an open/close pair. This cache keeps whole directory contents and
//! [`InodeInfo`] attributes at the using site, each tagged with the
//! version vector it was read at, and revalidates an entry with a single
//! cheap CSS version probe ([`crate::proto::FsMsg::VvCheck`]) instead of
//! re-reading pages — the client-caching lineage of Sprite and AFS
//! grafted onto the paper's version-vector machinery.
//!
//! Coherence is three-fold:
//!
//! * **validate on use** — an entry is served only when its version
//!   vector *equals* the most current version the CSS knows (§2.3.1); a
//!   diskless using site receives no commit notifications, so the probe,
//!   not the notification, is the coherence backbone;
//! * **invalidate on write** — local directory mutation (`dir_update`
//!   commits), inbound commit notifications, replica propagation and
//!   explicit `Invalidate` messages all drop the file's entries;
//! * **demote on reconfiguration** — §5.6 cleanup and recovery call
//!   [`NameAttrCache::demote_fg`] per filegroup, readmission after
//!   quarantine calls [`NameAttrCache::demote`] on everything: the
//!   demoted lease marks and page-valid tags go, the entries stay, and
//!   each is served again only after a `VvCheck` against the CSS of the
//!   *new* partition. Cleanup demotes only the filegroups a site does not
//!   *keep*: a filegroup is kept when reconfiguration selects the same
//!   CSS again and the site was in that CSS's partition (and up) at the
//!   previous reconfiguration. A kept mark is backed by a lease row that
//!   the CSS kept too, so the CSS's next recall still reaches it.
//!
//! Keeping entries across a partition change rests on two rules. *Exact
//! version*: a version vector names one content, so an entry whose vector
//! equals the CSS's holds the bytes that CSS would serve — but an entry
//! *newer* than the CSS's (the site split off with a lagging replica)
//! holds bytes its partition does not have, so `covers` is not enough.
//! *No vouching for a conflict*: conflict marking is the one change that
//! leaves the vector alone, so the CSS answers a probe on a copy marked
//! in conflict with `Econflict` and the using site takes the uncached
//! open, which carries the flag. Together with recovery rebuilding the
//! CSS's `known_latest` from the actual copies before `reconfigure()`
//! returns, that is enough: every answer a probe can give after a
//! reconfiguration describes a copy the new partition holds.
//!
//! Everything here is plain local state: fills and invalidations cost no
//! messages and no virtual time, so enabling the cache changes message
//! flows only where a validated entry short-circuits a protocol exchange
//! — and replaying a seed remains byte-identical.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use locus_storage::CacheStats;
use locus_types::{FileType, FilegroupId, Gfid, Ino, VersionVector};

use crate::directory::Directory;
use crate::proto::InodeInfo;

/// One cached directory: parsed contents plus the inode info they were
/// read under.
#[derive(Debug)]
struct CachedDir {
    /// Version vector the contents were read at.
    vv: VersionVector,
    /// The directory's own inode info (type/permission checks on a hit).
    info: InodeInfo,
    /// Parsed contents, shared with every outstanding hit. Searching
    /// only reads the entries, so a validated hit hands out another
    /// reference instead of re-deriving (deep-copying) the dentry state;
    /// the copy is paid once, at fill time.
    dir: Arc<Directory>,
    /// File types of previously looked-up children. Valid exactly as
    /// long as the directory version is: a type can only change if the
    /// inode is freed and reused, which removes the directory entry
    /// first and therefore bumps the directory's version vector.
    types: HashMap<Ino, FileType>,
}

/// The per-site name and attribute cache.
#[derive(Debug, Default)]
pub struct NameAttrCache {
    dirs: HashMap<Gfid, CachedDir>,
    /// Inode information as of the version in its `vv`.
    attrs: HashMap<Gfid, InodeInfo>,
    /// Version the remotely fetched *pages* of a file in this site's
    /// buffer cache are valid for — the page-valid check of §3.2 fn 1.
    /// Kept apart from `attrs`: an attribute refresh must never make
    /// stale buffered pages look current, and a commit by this site
    /// re-tags the pages it installed without vouching for attributes.
    page_tags: HashMap<Gfid, VersionVector>,
    /// Files this site holds a CSS-granted coherence lease on: cached
    /// entries for these gfids may be served without a `VvCheck` probe
    /// until a `LeaseRecall` (or any invalidation) drops the mark. A mark
    /// never outlives the entries it covers — every invalidation path
    /// below clears it.
    leases: BTreeSet<Gfid>,
    dentry_hits: u64,
    dentry_misses: u64,
    attr_hits: u64,
    attr_misses: u64,
    invalidations: u64,
    dir_deep_copies: u64,
    lease_grants: u64,
    lease_hits: u64,
    lease_recalls: u64,
    lease_recall_acks: u64,
    lease_revokes: u64,
}

impl NameAttrCache {
    /// An empty cache.
    pub fn new() -> Self {
        NameAttrCache::default()
    }

    /// The page-valid check at open time (§3.2 fn 1): whether remotely
    /// cached pages were fetched under exactly the version now being
    /// opened. Always re-tags the entry with the opened version and
    /// refreshes the attribute copy — the open reply is authoritative.
    pub fn pages_fresh(&mut self, gfid: Gfid, info: &InodeInfo) -> bool {
        let fresh = self.page_tag(gfid) == Some(&info.vv);
        if fresh {
            self.attr_hits += 1;
        } else {
            self.attr_misses += 1;
        }
        self.tag_pages(gfid, info.vv.clone());
        self.attrs.insert(gfid, info.clone());
        fresh
    }

    /// The version this site's network-fetched pages of `gfid` are valid
    /// for, if any are vouched for at all.
    pub fn page_tag(&self, gfid: Gfid) -> Option<&VersionVector> {
        self.page_tags.get(&gfid)
    }

    /// Declares this site's network-keyed pages of `gfid` valid for
    /// exactly `vv`. Only two callers may: the page-valid check above
    /// (after dropping whatever failed it) and the using site's commit,
    /// which has just brought the pages to the committed version.
    pub fn tag_pages(&mut self, gfid: Gfid, vv: VersionVector) {
        self.page_tags.insert(gfid, vv);
    }

    /// Serves the cached attributes if they are exactly `latest` (the
    /// version the CSS vouched for).
    pub fn attr_fresh(&mut self, gfid: Gfid, latest: &VersionVector) -> Option<InodeInfo> {
        match self.attrs.get(&gfid) {
            Some(info) if info.vv == *latest => {
                self.attr_hits += 1;
                Some(info.clone())
            }
            _ => {
                self.attr_misses += 1;
                None
            }
        }
    }

    /// Upserts attributes learned from a stat or a directory read,
    /// leaving the page-valid tag alone.
    pub fn insert_attr(&mut self, gfid: Gfid, info: InodeInfo) {
        self.attrs.insert(gfid, info);
    }

    /// Serves the cached directory contents and inode info if they are
    /// exactly `latest`. A stale entry is dropped on the spot (counted as
    /// an invalidation) so a subsequent fill starts clean.
    pub fn dir_fresh(
        &mut self,
        gfid: Gfid,
        latest: &VersionVector,
    ) -> Option<(Arc<Directory>, InodeInfo)> {
        match self.dirs.get(&gfid) {
            Some(e) if e.vv == *latest => {
                self.dentry_hits += 1;
                Some((Arc::clone(&e.dir), e.info.clone()))
            }
            Some(_) => {
                self.dentry_misses += 1;
                self.dirs.remove(&gfid);
                self.invalidations += 1;
                None
            }
            None => {
                self.dentry_misses += 1;
                None
            }
        }
    }

    /// Caches a directory's parsed contents under the version they were
    /// read at. The fill is the one place dentry state is materialized
    /// by copy, and the counter proves it.
    pub fn insert_dir(&mut self, gfid: Gfid, info: InodeInfo, dir: Arc<Directory>) {
        self.dir_deep_copies += 1;
        self.dirs.insert(
            gfid,
            CachedDir {
                vv: info.vv.clone(),
                info,
                dir,
                types: HashMap::new(),
            },
        );
    }

    /// Message-free, non-counting peek at the cached contents of `dir`,
    /// whatever version they were read at. The parallel-epoch footprint
    /// walk uses this to follow dentries across mount points without
    /// perturbing the hit/miss counters or revalidating against the CSS
    /// (either would cost messages and diverge the engines' traces). A
    /// stale entry is safe for that purpose: mount-point stubs are
    /// immutable, so staleness can change which same-filegroup inode a
    /// name appears to reach but never whether the step crosses a mount.
    pub fn peek_dir(&self, gfid: Gfid) -> Option<Arc<Directory>> {
        self.dirs.get(&gfid).map(|e| Arc::clone(&e.dir))
    }

    /// The remembered file type of a child of `dir`, valid while the
    /// directory entry is (type changes require an ino free + reuse,
    /// which edits the directory and bumps its version vector).
    pub fn child_type(&self, dir: Gfid, child: Ino) -> Option<FileType> {
        self.dirs
            .get(&dir)
            .and_then(|e| e.types.get(&child).copied())
    }

    /// Records a child's file type against the current directory entry
    /// (a no-op when the directory is not cached).
    pub fn remember_child_type(&mut self, dir: Gfid, child: Ino, ftype: FileType) {
        if let Some(e) = self.dirs.get_mut(&dir) {
            e.types.insert(child, ftype);
        }
    }

    /// Marks `gfid` as held under a CSS-granted coherence lease (the
    /// grant rode back on a `VvKnown` reply).
    pub fn grant_lease(&mut self, gfid: Gfid) {
        self.leases.insert(gfid);
        self.lease_grants += 1;
    }

    /// Whether this site holds a live lease on `gfid`.
    pub fn lease_held(&self, gfid: Gfid) -> bool {
        self.leases.contains(&gfid)
    }

    /// Serves the cached attributes under a live lease — no version check
    /// and no wire traffic; the CSS promised to recall before the entry
    /// could go stale. `None` when no lease or no entry is held.
    pub fn attr_under_lease(&mut self, gfid: Gfid) -> Option<InodeInfo> {
        if !self.leases.contains(&gfid) {
            return None;
        }
        let info = self.attrs.get(&gfid)?.clone();
        self.attr_hits += 1;
        self.lease_hits += 1;
        Some(info)
    }

    /// Serves the cached directory contents under a live lease (see
    /// [`NameAttrCache::attr_under_lease`]).
    pub fn dir_under_lease(&mut self, gfid: Gfid) -> Option<(Arc<Directory>, InodeInfo)> {
        if !self.leases.contains(&gfid) {
            return None;
        }
        match self.dirs.get(&gfid) {
            Some(e) => {
                self.dentry_hits += 1;
                self.lease_hits += 1;
                Some((Arc::clone(&e.dir), e.info.clone()))
            }
            None => None,
        }
    }

    /// Processes an inbound `LeaseRecall`: drops the lease mark and every
    /// entry it covered. Counted whether or not a lease was actually held
    /// — a duplicated recall still crossed the wire.
    pub fn recall_lease(&mut self, gfid: Gfid) {
        self.leases.remove(&gfid);
        self.invalidate(gfid);
        self.lease_recalls += 1;
    }

    /// Counts one recall acknowledgement received (CSS side).
    pub fn count_recall_ack(&mut self) {
        self.lease_recall_acks += 1;
    }

    /// Counts `n` leases revoked unilaterally — dropped from a lease
    /// table without a recall round trip (unreachable holder, §5.6
    /// cleanup, quarantine, readmission).
    pub fn count_revokes(&mut self, n: u64) {
        self.lease_revokes += n;
    }

    /// Demotes the whole cache at a partition change or a readmission:
    /// every lease mark is revoked (counted) and every page-valid tag
    /// dropped, while the dentry and attribute entries — with each
    /// directory's remembered child types — stay. Nothing kept is served
    /// until a `VvCheck` against the CSS the site now answers to reports
    /// exactly its version; in lease mode that probe re-grants the lease.
    pub fn demote(&mut self) {
        self.lease_revokes += self.leases.len() as u64;
        self.leases.clear();
        self.page_tags.clear();
    }

    /// [`NameAttrCache::demote`] restricted to the files of `fg`: the
    /// reconfiguration step for a filegroup whose CSS moved, or whose CSS
    /// this site was not partitioned with. Marks and tags of every other
    /// filegroup stay.
    pub fn demote_fg(&mut self, fg: FilegroupId) {
        let before = self.leases.len();
        self.leases.retain(|g| g.fg != fg);
        self.lease_revokes += (before - self.leases.len()) as u64;
        self.page_tags.retain(|g, _| g.fg != fg);
    }

    /// Drops every entry for `gfid`: local commit, inbound notification,
    /// propagation, and explicit invalidation all land here. Any lease
    /// mark dies with the entries — a lease never vouches for state the
    /// holder no longer caches.
    pub fn invalidate(&mut self, gfid: Gfid) {
        self.leases.remove(&gfid);
        self.invalidations += u64::from(self.dirs.remove(&gfid).is_some());
        self.invalidations += u64::from(self.attrs.remove(&gfid).is_some());
        self.page_tags.remove(&gfid);
    }

    /// Number of cached entries, directories plus attributes (tests
    /// assert what invalidation and demotion keep).
    pub fn entries(&self) -> usize {
        self.dirs.len() + self.attrs.len()
    }

    /// Number of live lease marks (tests assert revocation).
    pub fn leases_held(&self) -> usize {
        self.leases.len()
    }

    /// Folds the counters into a merged [`CacheStats`].
    pub fn merge_stats(&self, s: &mut CacheStats) {
        s.dentry_hits += self.dentry_hits;
        s.dentry_misses += self.dentry_misses;
        s.attr_hits += self.attr_hits;
        s.attr_misses += self.attr_misses;
        s.name_invalidations += self.invalidations;
        s.dir_deep_copies += self.dir_deep_copies;
        s.lease_grants += self.lease_grants;
        s.lease_hits += self.lease_hits;
        s.lease_recalls += self.lease_recalls;
        s.lease_recall_acks += self.lease_recall_acks;
        s.lease_revokes += self.lease_revokes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{FilegroupId, Perms, Ticks};

    fn gfid(ino: u32) -> Gfid {
        Gfid::new(FilegroupId(0), Ino(ino))
    }

    fn info(vv: VersionVector) -> InodeInfo {
        InodeInfo {
            ftype: FileType::Directory,
            perms: Perms::DIR_DEFAULT,
            owner: 0,
            size: 0,
            nlink: 2,
            vv,
            mtime: Ticks::ZERO,
            deleted: false,
            conflict: false,
            replicas: vec![0],
        }
    }

    fn vv(n: u64) -> VersionVector {
        let mut v = VersionVector::new();
        for _ in 0..n {
            v.bump(0);
        }
        v
    }

    #[test]
    fn dir_entry_serves_until_version_moves() {
        let mut c = NameAttrCache::new();
        let d = gfid(1);
        c.insert_dir(d, info(vv(1)), Arc::new(Directory::new()));
        assert!(c.dir_fresh(d, &vv(1)).is_some(), "current entry served");
        assert!(c.dir_fresh(d, &vv(2)).is_none(), "newer CSS version rejected");
        assert!(
            c.dir_fresh(d, &vv(1)).is_none(),
            "stale entry was dropped, not resurrected"
        );
        let mut s = CacheStats::default();
        c.merge_stats(&mut s);
        assert_eq!(s.dentry_hits, 1);
        assert_eq!(s.dentry_misses, 2);
        assert_eq!(s.name_invalidations, 1);
        assert_eq!(s.dir_deep_copies, 1, "only the fill copies dentry state");
    }

    #[test]
    fn child_types_die_with_the_directory_entry() {
        let mut c = NameAttrCache::new();
        let d = gfid(1);
        c.insert_dir(d, info(vv(1)), Arc::new(Directory::new()));
        c.remember_child_type(d, Ino(9), FileType::HiddenDirectory);
        assert_eq!(c.child_type(d, Ino(9)), Some(FileType::HiddenDirectory));
        assert!(c.dir_fresh(d, &vv(2)).is_none()); // drops the stale entry
        assert_eq!(c.child_type(d, Ino(9)), None);
    }

    #[test]
    fn attr_refresh_never_revives_the_page_tag() {
        let mut c = NameAttrCache::new();
        let f = gfid(2);
        assert!(!c.pages_fresh(f, &info(vv(1))), "first open tags the pages");
        assert!(c.pages_fresh(f, &info(vv(1))), "same version is fresh");
        // An attribute refresh at a newer version must not make the old
        // pages look current for that version.
        c.insert_attr(f, info(vv(2)));
        assert!(
            !c.pages_fresh(f, &info(vv(2))),
            "pages were fetched under v1; v2 open must invalidate"
        );
    }

    #[test]
    fn lease_serves_without_version_and_dies_on_recall() {
        let mut c = NameAttrCache::new();
        let f = gfid(3);
        c.insert_attr(f, info(vv(1)));
        assert!(c.attr_under_lease(f).is_none(), "no lease, no short-circuit");
        c.grant_lease(f);
        assert!(c.lease_held(f));
        assert!(c.attr_under_lease(f).is_some(), "leased entry served");
        c.insert_dir(f, info(vv(1)), Arc::new(Directory::new()));
        assert!(c.dir_under_lease(f).is_some(), "leased dir served");
        c.recall_lease(f);
        assert!(!c.lease_held(f));
        assert!(c.attr_under_lease(f).is_none(), "recall dropped the entry");
        let mut s = CacheStats::default();
        c.merge_stats(&mut s);
        assert_eq!(s.lease_grants, 1);
        assert_eq!(s.lease_hits, 2);
        assert_eq!(s.lease_recalls, 1);
    }

    #[test]
    fn invalidation_drops_lease_marks() {
        let mut c = NameAttrCache::new();
        c.insert_attr(gfid(1), info(vv(1)));
        c.grant_lease(gfid(1));
        c.invalidate(gfid(1));
        assert!(!c.lease_held(gfid(1)), "invalidate kills the mark");
        assert_eq!(c.leases_held(), 0);
    }

    #[test]
    fn demote_keeps_entries_and_drops_marks_and_tags() {
        let mut c = NameAttrCache::new();
        let (d, f) = (gfid(1), gfid(4));
        c.insert_dir(d, info(vv(1)), Arc::new(Directory::new()));
        c.remember_child_type(d, Ino(9), FileType::HiddenDirectory);
        c.grant_lease(d);
        assert!(!c.pages_fresh(f, &info(vv(1))), "first open tags");
        assert!(c.pages_fresh(f, &info(vv(1))), "tagged pages fresh");
        assert_eq!(c.entries(), 2);

        c.demote();
        assert_eq!(c.entries(), 2, "entries survive a demotion");
        assert_eq!(c.child_type(d, Ino(9)), Some(FileType::HiddenDirectory));
        assert_eq!(c.leases_held(), 0, "every mark is revoked");
        assert!(c.dir_under_lease(d).is_none(), "no lease-served hit after demote");
        assert!(c.page_tag(f).is_none(), "every page tag is dropped");
        assert!(
            !c.pages_fresh(f, &info(vv(1))),
            "a dropped tag forces a refetch even at the same version"
        );
        assert!(c.dir_fresh(d, &vv(1)).is_some(), "a VV check at the same version serves it");

        let mut s = CacheStats::default();
        c.merge_stats(&mut s);
        assert_eq!(s.lease_revokes, 1, "the dropped mark counts as a revoke");
        assert_eq!(s.name_invalidations, 0, "demotion invalidates nothing");
    }

    #[test]
    fn demote_fg_touches_only_that_filegroup() {
        let mut c = NameAttrCache::new();
        let other = Gfid::new(FilegroupId(1), Ino(2));
        for g in [gfid(1), other] {
            c.insert_attr(g, info(vv(1)));
            c.grant_lease(g);
            c.tag_pages(g, vv(1));
        }
        c.demote_fg(FilegroupId(0));
        assert!(!c.lease_held(gfid(1)) && c.page_tag(gfid(1)).is_none());
        assert!(c.lease_held(other) && c.page_tag(other).is_some(), "fg 1 kept");
        assert_eq!(c.entries(), 2, "entries survive");
        let mut s = CacheStats::default();
        c.merge_stats(&mut s);
        assert_eq!(s.lease_revokes, 1);
    }

    #[test]
    fn only_the_exact_version_is_served() {
        // A vector *newer* than the CSS's is as stale as an older one: a
        // site split off with a lagging replica must not keep serving
        // what only the other partition holds.
        let mut c = NameAttrCache::new();
        let d = gfid(1);
        c.insert_dir(d, info(vv(2)), Arc::new(Directory::new()));
        c.insert_attr(d, info(vv(2)));
        assert!(c.attr_fresh(d, &vv(1)).is_none(), "newer attrs not served");
        assert!(c.dir_fresh(d, &vv(1)).is_none(), "newer contents not served");
        assert!(c.dir_fresh(d, &vv(2)).is_none(), "and dropped on the spot");
    }

    #[test]
    fn invalidate_counts_dropped_entries() {
        let mut c = NameAttrCache::new();
        c.insert_dir(gfid(1), info(vv(1)), Arc::new(Directory::new()));
        c.insert_attr(gfid(1), info(vv(1)));
        c.insert_attr(gfid(2), info(vv(1)));
        assert_eq!(c.entries(), 3);
        c.invalidate(gfid(1));
        assert_eq!(c.entries(), 1);
        let mut s = CacheStats::default();
        c.merge_stats(&mut s);
        assert_eq!(s.name_invalidations, 2);
    }
}
