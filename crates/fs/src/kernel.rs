//! The per-site filesystem kernel: packs, incore inodes, buffer cache,
//! open-file table, shadow sessions and the propagation queue.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use locus_net::Net;
use locus_storage::{BufferCache, Pack, ShadowSession};
use locus_types::{
    Errno, FilegroupId, Gfid, MachineType, OpenMode, PackId, SiteId, SysResult, Ticks,
    VersionVector,
};

use crate::device::DeviceState;
use crate::incore::Incore;
use crate::mount::MountTable;
use crate::pipe::PipeState;
use crate::proto::{Fd, InodeInfo, SharedFdId};

/// What a file descriptor is attached to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FdKind {
    /// A regular file (or directory opened internally).
    File,
    /// A pipe endpoint; `reader` distinguishes the two ends.
    Pipe {
        /// Whether this is the read end.
        reader: bool,
    },
    /// A character device.
    Device,
}

/// Adaptive readahead state of one descriptor (used in batched I/O mode,
/// [`crate::cluster::IoPolicy::batched`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadAhead {
    /// Byte offset the next read would start at if access is sequential.
    /// `u64::MAX` means no read has completed yet.
    pub next: u64,
    /// Current readahead window in pages: doubles on each remote fetch
    /// during sequential access (up to the policy cap) and resets to one
    /// page on a seek.
    pub window: usize,
}

impl Default for ReadAhead {
    fn default() -> Self {
        ReadAhead {
            next: u64::MAX,
            window: 1,
        }
    }
}

/// US-side write-behind buffer of one file: consecutive whole dirty pages
/// awaiting a batched `WritePages` flush to the SS. Nothing here is
/// visible to any other site until the flush lands in the SS's shadow
/// session, and nothing in the session is visible until commit (§2.3.4) —
/// buffering therefore never weakens commit atomicity, it only defers the
/// wire transfer.
#[derive(Clone, Debug)]
pub struct WriteBehind {
    /// Destination storage site.
    pub ss: SiteId,
    /// Logical page number of `pages[0]`.
    pub first: usize,
    /// Buffered pages, consecutive from `first`.
    pub pages: Vec<Vec<u8>>,
    /// File size after applying the buffered pages.
    pub new_size: u64,
}

/// US-side mirror of what this site has changed in a file's open
/// modification session at a *remote* SS: the image of every page it sent
/// and the lowest page count it truncated to. Nothing here is visible to
/// a reader until the session commits; on the `Committed` reply the
/// images go into this site's network-keyed buffer cache under the
/// committed version, so re-reading a file just rewritten costs no
/// `READ req`. Abort, a failed commit, the last close and §5.6 cleanup
/// simply drop it.
#[derive(Clone, Debug)]
pub struct Staged {
    /// Page images sent to the SS, by logical page number.
    pub pages: BTreeMap<usize, Vec<u8>>,
    /// Lowest page count the session was truncated to (`usize::MAX` if
    /// it never was): a page at or past it that is not in `pages` is a
    /// hole in the session, whatever the cache holds for it.
    pub npages: usize,
}

impl Default for Staged {
    fn default() -> Self {
        Staged {
            pages: BTreeMap::new(),
            npages: usize::MAX,
        }
    }
}

/// One open-file table entry.
#[derive(Clone, Debug)]
pub struct OpenFile {
    /// The open file.
    pub gfid: Gfid,
    /// Open mode.
    pub mode: OpenMode,
    /// Current byte offset ("file descriptors … contain current file
    /// position pointers", §3.1).
    pub offset: u64,
    /// The storage site serving this open.
    pub ss: SiteId,
    /// Cached inode info from open time.
    pub info: InodeInfo,
    /// Attachment kind.
    pub kind: FdKind,
    /// Shared-descriptor group, for descriptors inherited across a remote
    /// fork (§3.1 fn 1).
    pub shared: Option<SharedFdId>,
    /// Home site of the shared group (where the token state lives).
    pub shared_home: SiteId,
    /// Whether any write has been issued (close must commit).
    pub wrote: bool,
    /// Error latched by the cleanup procedure ("set error in local file
    /// descriptor", §5.6); subsequent operations return it.
    pub error: Option<locus_types::Errno>,
    /// Adaptive readahead state (batched I/O mode only).
    pub ra: ReadAhead,
}

/// Home-site record of a shared descriptor group: who currently holds the
/// offset token, and the offset as of the last surrender.
#[derive(Clone, Debug)]
pub struct SharedHome {
    /// Current token holder.
    pub holder: SiteId,
    /// Offset last synchronized at the home site.
    pub offset: u64,
}

/// A queued propagation request ("a queue of propagation requests is kept
/// by the kernel at each site and a kernel process services the queue",
/// §2.3.6).
#[derive(Clone, Debug)]
pub struct PropReq {
    /// File to bring up to date.
    pub gfid: Gfid,
    /// Site that holds the latest version.
    pub source: SiteId,
    /// Only these pages changed, if known.
    pub pages: Option<Vec<usize>>,
}

/// The filesystem kernel of one site.
#[derive(Debug)]
pub struct FsKernel {
    /// This site.
    pub site: SiteId,
    /// This site's CPU type (hidden-directory context, §2.4.1).
    pub machine: MachineType,
    /// Replicated mount table.
    pub mount: MountTable,
    pub(crate) packs: HashMap<PackId, Pack>,
    pub(crate) incore: HashMap<Gfid, Incore>,
    pub(crate) cache: BufferCache,
    pub(crate) sessions: HashMap<Gfid, ShadowSession>,
    /// The using site each open session belongs to. Shadow pages are
    /// visible only to their writer: any other reader — a propagation
    /// pull, a third-party open — must see the last committed version, or
    /// an orphaned session (its writer's close lost to the network) would
    /// serve uncommitted pages under committed metadata.
    pub(crate) session_writer: HashMap<Gfid, SiteId>,
    pub(crate) fds: HashMap<Fd, OpenFile>,
    next_fd: Fd,
    pub(crate) shared_home: HashMap<SharedFdId, SharedHome>,
    /// Shared groups whose token this site currently holds, mapped to the
    /// local descriptor carrying the live offset.
    pub(crate) token_held: HashMap<SharedFdId, Fd>,
    pub(crate) pipes: HashMap<Gfid, PipeState>,
    pub(crate) devices: HashMap<Gfid, DeviceState>,
    pub(crate) prop_queue: VecDeque<PropReq>,
    /// Latest version vectors learned from commit notifications; a CSS
    /// whose own data copy is stale still "knows what the most current
    /// version of the file is" (§2.3.1) through this table.
    pub(crate) latest: HashMap<Gfid, locus_types::VersionVector>,
    /// The name-lookup and attribute cache (§2.3.4 acceleration), which
    /// also carries the page-valid tags of §3.2 fn 1: an open under a
    /// newer version drops the stale buffers. Public so recovery can
    /// demote it alongside [`FsKernel::retain_latest`].
    pub name_cache: crate::namecache::NameAttrCache,
    /// Per-file write-behind buffers (batched I/O mode only).
    pub(crate) write_behind: HashMap<Gfid, WriteBehind>,
    /// Per-file images of the pages sent to a remote SS's open session.
    pub(crate) staged: HashMap<Gfid, Staged>,
    /// Cumulative synchronization requests this site served *as CSS*,
    /// per filegroup (§2.3.1 open/close/VV-check traffic). The placement
    /// driver samples deltas of this counter as its request-queue-depth
    /// signal; a site that stops being CSS simply stops accumulating.
    pub(crate) css_served: BTreeMap<FilegroupId, u64>,
    /// Cumulative CSS-role claims this site performed via live handoff.
    pub css_claims: u64,
    /// CSS-role coherence-lease table: which sites hold a name/attribute
    /// lease on each file this site synchronizes (name-lease mode). Every
    /// invalidation path drains the file's row and recalls the holders;
    /// `css_handoff` snapshots the filegroup's rows and ships them to the
    /// successor under the same epoch numbering as [`FsKernel::latest`].
    pub(crate) lease_holders: BTreeMap<Gfid, BTreeSet<SiteId>>,
    /// (file, holder) leases whose recall was abandoned and revoked
    /// unilaterally (CSS role). The next §5.6 cleanup here re-sends each
    /// recall to a holder back in the partition: a holder cut off only
    /// briefly keeps its mark across a reconfiguration that keeps the
    /// CSS, and nothing else would ever drop it.
    abandoned_recalls: BTreeSet<(Gfid, SiteId)>,
}

impl FsKernel {
    /// A kernel with no packs; storage is attached by the builder.
    pub fn new(site: SiteId, machine: MachineType) -> Self {
        FsKernel {
            site,
            machine,
            mount: MountTable::new(),
            packs: HashMap::new(),
            incore: HashMap::new(),
            cache: BufferCache::new(256),
            sessions: HashMap::new(),
            session_writer: HashMap::new(),
            fds: HashMap::new(),
            next_fd: 3, // 0-2 conventionally reserved
            shared_home: HashMap::new(),
            token_held: HashMap::new(),
            pipes: HashMap::new(),
            devices: HashMap::new(),
            prop_queue: VecDeque::new(),
            latest: HashMap::new(),
            name_cache: crate::namecache::NameAttrCache::new(),
            write_behind: HashMap::new(),
            staged: HashMap::new(),
            css_served: BTreeMap::new(),
            css_claims: 0,
            lease_holders: BTreeMap::new(),
            abandoned_recalls: BTreeSet::new(),
        }
    }

    /// Records `holder` as holding a coherence lease on `gfid` (CSS
    /// role). Re-granting to a site already in the row is a no-op.
    pub fn record_lease(&mut self, gfid: Gfid, holder: SiteId) {
        self.lease_holders.entry(gfid).or_default().insert(holder);
    }

    /// Drains and returns every lease holder of `gfid`, in site order —
    /// the recall fan-out set of one invalidation.
    pub fn take_lease_holders(&mut self, gfid: Gfid) -> Vec<SiteId> {
        self.lease_holders
            .remove(&gfid)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default()
    }

    /// Every site holding a lease on any file of `fg`, in site order.
    pub fn lease_holder_sites_for(&self, fg: FilegroupId) -> BTreeSet<SiteId> {
        self.lease_holders
            .iter()
            .filter(|(g, _)| g.fg == fg)
            .flat_map(|(_, s)| s.iter().copied())
            .collect()
    }

    /// Snapshots the whole lease table of `fg` for transfer to a
    /// successor CSS, sorted by file then site (deterministic wire
    /// image). Non-destructive so a re-delivered handoff RPC returns the
    /// same snapshot; the ex-CSS drops its rows when it adopts the
    /// successor's [`crate::proto::FsMsg::CssUpdate`]
    /// ([`FsKernel::retain_lease_rows`]).
    pub fn snapshot_leases_for(&self, fg: FilegroupId) -> Vec<(Gfid, Vec<SiteId>)> {
        self.lease_holders
            .iter()
            .filter(|(g, _)| g.fg == fg)
            .map(|(g, holders)| (*g, holders.iter().copied().collect()))
            .collect()
    }

    /// Adopts a drained lease table from a predecessor CSS.
    pub fn adopt_leases(&mut self, leases: Vec<(Gfid, Vec<SiteId>)>) {
        for (gfid, holders) in leases {
            let row = self.lease_holders.entry(gfid).or_default();
            row.extend(holders);
        }
    }

    /// Keeps the (file, holder) leases `keep` accepts and drops the rest:
    /// the CSS side of §5.6 cleanup (rows of filegroups whose role did not
    /// stay here, and of holders that left the partition), of a
    /// quarantined site's readmission, and the ex-CSS's side of a
    /// completed handoff. Returns how many leases were dropped.
    pub fn retain_lease_rows(&mut self, keep: impl Fn(Gfid, SiteId) -> bool) -> u64 {
        let mut dropped = 0;
        self.lease_holders.retain(|&gfid, holders| {
            let before = holders.len();
            holders.retain(|&h| keep(gfid, h));
            dropped += (before - holders.len()) as u64;
            !holders.is_empty()
        });
        dropped
    }

    /// Remembers that the recall of `holder`'s lease on `gfid` was
    /// abandoned (the holder was unreachable) and the row revoked
    /// unilaterally: the holder may still carry the mark.
    pub(crate) fn note_abandoned_recall(&mut self, gfid: Gfid, holder: SiteId) {
        self.abandoned_recalls.insert((gfid, holder));
    }

    /// Drains the abandoned recalls, in file then holder order.
    pub(crate) fn take_abandoned_recalls(&mut self) -> BTreeSet<(Gfid, SiteId)> {
        std::mem::take(&mut self.abandoned_recalls)
    }

    /// Counts one synchronization request served by this site in its CSS
    /// role for `fg`.
    pub fn note_css_request(&mut self, fg: FilegroupId) {
        *self.css_served.entry(fg).or_insert(0) += 1;
    }

    /// Cumulative CSS-served request count for `fg`.
    pub fn css_served(&self, fg: FilegroupId) -> u64 {
        self.css_served.get(&fg).copied().unwrap_or(0)
    }

    /// Records a version vector learned from a commit notification,
    /// keeping the newest.
    pub fn note_latest(&mut self, gfid: Gfid, vv: &locus_types::VersionVector) {
        match self.latest.get_mut(&gfid) {
            Some(cur) => {
                if vv.covers(cur) {
                    *cur = vv.clone();
                }
            }
            None => {
                self.latest.insert(gfid, vv.clone());
            }
        }
    }

    /// The most current version this site knows for `gfid`: the maximum of
    /// its container copy's vector and notified vectors.
    pub fn known_latest(&self, gfid: Gfid) -> locus_types::VersionVector {
        let local = self.local_info(gfid).map(|i| i.vv).unwrap_or_default();
        match self.latest.get(&gfid) {
            Some(n) if n.covers(&local) => n.clone(),
            _ => local,
        }
    }

    /// Drops the notified versions of `fg`'s files that `held` rejects.
    /// Recovery keeps exactly the versions some copy in the partition
    /// holds: anything else is hearsay from before the partition change.
    /// Returns the files whose notified version was dropped.
    pub fn retain_latest(
        &mut self,
        fg: FilegroupId,
        held: impl Fn(Gfid, &locus_types::VersionVector) -> bool,
    ) -> Vec<Gfid> {
        let mut dropped = Vec::new();
        self.latest.retain(|&g, vv| {
            let keep = g.fg != fg || held(g, vv);
            if !keep {
                dropped.push(g);
            }
            keep
        });
        dropped
    }

    /// Whether a propagation pull of `gfid` is queued here: until it
    /// lands, the local copy may be older than the version this site was
    /// told about.
    pub fn pull_queued(&self, gfid: Gfid) -> bool {
        self.prop_queue.iter().any(|r| r.gfid == gfid)
    }

    /// Attaches a physical container to this site.
    pub fn attach_pack(&mut self, pack: Pack) {
        self.packs.insert(pack.id(), pack);
    }

    /// Detaches a physical container (live replica removal). Returns the
    /// pack, if this site hosted it. The buffers go with it: a pack-keyed
    /// cache entry stands for a page *of that pack*.
    pub fn detach_pack(&mut self, id: PackId) -> Option<Pack> {
        self.cache.clear();
        self.packs.remove(&id)
    }

    /// Notified most-current version vectors recorded for files of `fg` —
    /// the "knows what the most current version of the file is" state a
    /// CSS hands to its successor.
    pub fn latest_entries_for(
        &self,
        fg: FilegroupId,
    ) -> impl Iterator<Item = (Gfid, &locus_types::VersionVector)> + '_ {
        self.latest
            .iter()
            .filter(move |(g, _)| g.fg == fg)
            .map(|(g, vv)| (*g, vv))
    }

    /// Live CSS lock-table entries for files of `fg` (§2.3.3 incore
    /// synchronization state), for handoff to a successor CSS.
    pub fn css_locks_for(
        &self,
        fg: FilegroupId,
    ) -> impl Iterator<Item = (Gfid, &crate::incore::CssState)> + '_ {
        self.incore
            .iter()
            .filter(move |(g, _)| g.fg == fg)
            .filter_map(|(g, inc)| inc.css.as_ref().map(|cs| (*g, cs)))
    }

    /// The local container of `fg`, if this site hosts one.
    pub fn pack_of(&mut self, fg: FilegroupId) -> Option<&mut Pack> {
        self.packs.values_mut().find(|p| p.id().fg == fg)
    }

    /// Immutable view of the local container of `fg`.
    pub fn pack_of_ref(&self, fg: FilegroupId) -> Option<&Pack> {
        self.packs.values().find(|p| p.id().fg == fg)
    }

    /// Whether this site stores the *data* of `gfid` locally.
    pub fn stores_data(&self, gfid: Gfid) -> bool {
        self.pack_of_ref(gfid.fg)
            .and_then(|p| p.inode(gfid.ino))
            .map(|i| i.data_here && !i.deleted)
            .unwrap_or(false)
    }

    /// The local copy's inode info, if the container has (at least
    /// metadata for) the file.
    pub fn local_info(&self, gfid: Gfid) -> Option<InodeInfo> {
        self.pack_of_ref(gfid.fg)
            .and_then(|p| p.inode(gfid.ino))
            .map(InodeInfo::from)
    }

    /// The incore structure for `gfid`, allocating one around `info` if
    /// absent (§2.3.3).
    pub fn incore_mut(&mut self, gfid: Gfid, info: InodeInfo) -> &mut Incore {
        self.incore.entry(gfid).or_insert_with(|| Incore::new(info))
    }

    /// The existing incore structure, if allocated.
    pub fn incore_get(&mut self, gfid: Gfid) -> Option<&mut Incore> {
        self.incore.get_mut(&gfid)
    }

    /// Releases the incore structure if no role still needs it ("so they
    /// can deallocate incore inode structures", §2.3.3).
    pub fn maybe_release_incore(&mut self, gfid: Gfid) {
        if let Some(inc) = self.incore.get(&gfid) {
            if inc.idle() {
                self.incore.remove(&gfid);
            }
        }
    }

    /// Allocates a descriptor.
    pub fn alloc_fd(&mut self, of: OpenFile) -> Fd {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(fd, of);
        fd
    }

    /// Looks up a descriptor.
    pub fn fd(&self, fd: Fd) -> SysResult<&OpenFile> {
        self.fds.get(&fd).ok_or(Errno::Ebadf)
    }

    /// Mutable descriptor lookup.
    pub fn fd_mut(&mut self, fd: Fd) -> SysResult<&mut OpenFile> {
        self.fds.get_mut(&fd).ok_or(Errno::Ebadf)
    }

    /// Removes a descriptor.
    pub fn take_fd(&mut self, fd: Fd) -> SysResult<OpenFile> {
        self.fds.remove(&fd).ok_or(Errno::Ebadf)
    }

    /// Number of open descriptors (tests assert no leaks).
    pub fn open_fd_count(&self) -> usize {
        self.fds.len()
    }

    /// Number of live incore structures (tests assert deallocation).
    pub fn incore_count(&self) -> usize {
        self.incore.len()
    }

    /// Queued propagation requests.
    pub fn prop_queue_len(&self) -> usize {
        self.prop_queue.len()
    }

    /// Enqueues a propagation pull. A request already pending for the
    /// same file and source absorbs the new one: the pull installs the
    /// source's *latest* version, so it must fetch every page any of the
    /// commits it covers changed — the union of their page lists, and
    /// all pages as soon as one of them does not know its list.
    pub fn enqueue_propagation(&mut self, req: PropReq) {
        let pending = self
            .prop_queue
            .iter_mut()
            .find(|r| r.gfid == req.gfid && r.source == req.source);
        let Some(pending) = pending else {
            self.prop_queue.push_back(req);
            return;
        };
        pending.pages = match (pending.pages.take(), req.pages) {
            (Some(a), Some(b)) => Some(
                a.into_iter()
                    .chain(b)
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect(),
            ),
            _ => None,
        };
    }

    /// Drains the disk time accumulated on the local container of `fg`
    /// and charges it to this site's disk, waiting for it. Every handler
    /// that touches the disk ends with this or [`FsKernel::queue_io`], so
    /// the meter reads zero between handlers and a page's 25 ms lands on
    /// the site that caused it.
    pub(crate) fn charge_io(&mut self, net: &Net, fg: FilegroupId) {
        let io = self.take_io(fg);
        if io > Ticks::ZERO {
            net.charge_disk_at(self.site, io);
        }
    }

    /// Like [`FsKernel::charge_io`], but without waiting: a delayed write
    /// into a shadow session. The disk is busy for it all the same, and
    /// [`FsKernel::commit_session`] waits for it.
    pub(crate) fn queue_io(&mut self, net: &Net, fg: FilegroupId) {
        let io = self.take_io(fg);
        if io > Ticks::ZERO {
            net.queue_disk_at(self.site, io);
        }
    }

    /// Drains the local container's disk meter for a handler that folds
    /// it into a larger charge of its own.
    pub(crate) fn take_io(&mut self, fg: FilegroupId) -> Ticks {
        self.pack_of(fg)
            .map(|p| p.take_io_cost())
            .unwrap_or_default()
    }

    /// The one place a shadow session becomes the committed version of
    /// `gfid` in this site's container. Pairs the atomic inode switch
    /// with everything that must follow it at this site: the session's
    /// buffers are *installed* in the buffer cache (pages it cut off are
    /// dropped, pages it did not touch stay — a pack-keyed entry always
    /// equals the committed page in the pack), the name/attribute entries
    /// of the superseded version go, `known_latest` learns the vector,
    /// and the disk time is charged here, to the site that did the I/O.
    /// The switch waits for the site's disk to drain: the session's
    /// delayed page writes are on disk before the inode points at them
    /// (§2.3.6).
    pub(crate) fn commit_session(
        &mut self,
        net: &Net,
        gfid: Gfid,
        sess: ShadowSession,
        vv: VersionVector,
    ) -> SysResult<InodeInfo> {
        net.drain_disk(self.site);
        let pack = self.pack_of(gfid.fg).ok_or(Errno::Enocopy)?;
        let pid = pack.id();
        let committed = sess.commit(pack, vv);
        self.charge_io(net, gfid.fg);
        let committed = committed?;
        self.cache
            .install(pid, gfid.ino, committed.pages, committed.npages);
        self.name_cache.invalidate(gfid);
        let info = self.local_info(gfid).expect("just committed");
        self.note_latest(gfid, &info.vv);
        Ok(info)
    }

    /// Discards the open modification session of `gfid`, if any, leaving
    /// the committed version (and therefore the buffer cache) as it was.
    /// Releasing shadow blocks costs no disk time, and the writes that
    /// filled them were charged as they happened.
    pub(crate) fn abort_session(&mut self, gfid: Gfid) -> SysResult<()> {
        self.session_writer.remove(&gfid);
        let Some(sess) = self.sessions.remove(&gfid) else {
            return Ok(());
        };
        sess.abort(self.pack_of(gfid.fg).ok_or(Errno::Enocopy)?)
    }

    /// Takes `writer`'s open modification session on `gfid` out of the
    /// table, beginning one on first touch; the caller puts it back. A
    /// leftover session from a *different* writer is dead — the
    /// single-writer policy means that writer's close or abort was lost
    /// in transit — and is discarded before the new session begins.
    pub(crate) fn take_session(&mut self, writer: SiteId, gfid: Gfid) -> SysResult<ShadowSession> {
        if self.session_writer.get(&gfid) != Some(&writer) {
            self.abort_session(gfid)?;
        }
        let sess = match self.sessions.remove(&gfid) {
            Some(sess) => sess,
            None => ShadowSession::begin(self.pack_of(gfid.fg).ok_or(Errno::Enocopy)?, gfid.ino)?,
        };
        self.session_writer.insert(gfid, writer);
        Ok(sess)
    }

    /// Device registry access for examples/tests (attach input, inspect
    /// output).
    pub fn device_mut(&mut self, gfid: Gfid) -> Option<&mut DeviceState> {
        self.devices.get_mut(&gfid)
    }

    /// Registers a device instance at this site (its *home*); the device
    /// special file `gfid` routes operations here (§2.4.2).
    pub fn register_device(&mut self, gfid: Gfid, dev: DeviceState) {
        self.devices.insert(gfid, dev);
    }

    /// Buffer-cache statistics `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Full cache counters: buffer-cache pages plus the name/attribute
    /// cache, merged into one [`locus_storage::CacheStats`].
    pub fn cache_full_stats(&self) -> locus_storage::CacheStats {
        let mut s = self.cache.full_stats();
        self.name_cache.merge_stats(&mut s);
        s
    }

    /// Drops every cached page of `gfid`, local and network-fetched,
    /// plus its name/attribute entries. Recovery calls this after
    /// rewriting copies behind the cache's back.
    pub fn invalidate_caches_for(&mut self, gfid: Gfid) {
        self.name_cache.invalidate(gfid);
        if let Some(p) = self.pack_of(gfid.fg) {
            let pid = p.id();
            self.cache.invalidate_file(pid, gfid.ino);
        }
        self.cache
            .invalidate_file(PackId::new(gfid.fg, u32::MAX), gfid.ino);
    }

    /// Validates open-mode argument for externally issued opens.
    pub(crate) fn check_external_mode(mode: OpenMode) -> SysResult<()> {
        if mode.synchronized() {
            Ok(())
        } else {
            Err(Errno::Einval)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{FileType, Ino, Perms, Ticks, VersionVector};

    fn info() -> InodeInfo {
        InodeInfo {
            ftype: FileType::Untyped,
            perms: Perms::FILE_DEFAULT,
            owner: 0,
            size: 0,
            nlink: 1,
            vv: VersionVector::new(),
            mtime: Ticks::ZERO,
            deleted: false,
            conflict: false,
            replicas: vec![0],
        }
    }

    #[test]
    fn fd_lifecycle() {
        let mut k = FsKernel::new(SiteId(0), MachineType::Vax);
        let gfid = Gfid::new(FilegroupId(0), Ino(2));
        let fd = k.alloc_fd(OpenFile {
            gfid,
            mode: OpenMode::Read,
            offset: 0,
            ss: SiteId(0),
            info: info(),
            kind: FdKind::File,
            shared: None,
            shared_home: SiteId(0),
            wrote: false,
            error: None,
            ra: ReadAhead::default(),
        });
        assert!(fd >= 3);
        assert_eq!(k.fd(fd).unwrap().gfid, gfid);
        k.take_fd(fd).unwrap();
        assert_eq!(k.fd(fd).err(), Some(Errno::Ebadf));
        assert_eq!(k.open_fd_count(), 0);
    }

    #[test]
    fn incore_alloc_and_release() {
        let mut k = FsKernel::new(SiteId(0), MachineType::Vax);
        let gfid = Gfid::new(FilegroupId(0), Ino(2));
        k.incore_mut(gfid, info()).opens_here = 1;
        k.maybe_release_incore(gfid);
        assert_eq!(k.incore_count(), 1, "busy structure kept");
        k.incore_get(gfid).unwrap().opens_here = 0;
        k.maybe_release_incore(gfid);
        assert_eq!(k.incore_count(), 0, "idle structure released");
    }

    #[test]
    fn propagation_queue_merges_page_lists_of_one_file_and_source() {
        let mut k = FsKernel::new(SiteId(0), MachineType::Vax);
        let gfid = Gfid::new(FilegroupId(0), Ino(2));
        let req = |pages: Option<Vec<usize>>| PropReq {
            gfid,
            source: SiteId(1),
            pages,
        };
        k.enqueue_propagation(req(Some(vec![0, 2])));
        k.enqueue_propagation(req(Some(vec![3, 2])));
        assert_eq!(k.prop_queue_len(), 1);
        assert_eq!(k.prop_queue[0].pages, Some(vec![0, 2, 3]), "union, sorted");
        // A commit that cannot list its pages makes the pull fetch all.
        k.enqueue_propagation(req(None));
        k.enqueue_propagation(req(Some(vec![1])));
        assert_eq!(k.prop_queue_len(), 1);
        assert_eq!(k.prop_queue[0].pages, None, "`None` absorbs");
        // Another source is another pull.
        k.enqueue_propagation(PropReq {
            source: SiteId(2),
            ..req(None)
        });
        assert_eq!(k.prop_queue_len(), 2);
    }

    #[test]
    fn external_unsync_mode_rejected() {
        assert!(FsKernel::check_external_mode(OpenMode::Read).is_ok());
        assert_eq!(
            FsKernel::check_external_mode(OpenMode::InternalUnsyncRead),
            Err(Errno::Einval)
        );
    }
}
