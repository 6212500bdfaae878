//! Kernel-to-kernel message types and shared wire structures.
//!
//! These are the specialized operating-system-to-operating-system
//! protocols of §2.3.2–2.3.6: open, storage-site poll, page read/write,
//! close, commit and propagation. "There are no other messages involved;
//! no acknowledgements, flow control or any other underlying mechanism"
//! (§2.3.3 fn 1).

use locus_types::{FileType, Gfid, Ino, OpenMode, Perms, SiteId, Ticks, VersionVector};

/// A site-local file descriptor number.
pub type Fd = u32;

/// Identifier of a file-descriptor group shared across sites after a
/// remote fork (§3.2 fn 1).
pub(crate) type SharedFdId = u64;

/// The slice of disk-inode information shipped in open/commit replies
/// ("all the disk inode information (eg. file size, ownership,
/// permissions) is obtained from the CSS response", §2.3.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InodeInfo {
    /// File type.
    pub ftype: FileType,
    /// Permission bits.
    pub perms: Perms,
    /// Owning user.
    pub owner: u32,
    /// Size in bytes.
    pub size: u64,
    /// Link count.
    pub nlink: u32,
    /// The version vector of the serving copy.
    pub vv: VersionVector,
    /// Modification time.
    pub mtime: Ticks,
    /// Deleted tombstone flag.
    pub deleted: bool,
    /// Unreconciled-conflict flag (§4.6).
    pub conflict: bool,
    /// Pack indexes storing the data.
    pub replicas: Vec<u32>,
}

impl InodeInfo {
    /// Number of logical pages covered by `size`.
    pub fn page_count(&self) -> usize {
        (self.size as usize).div_ceil(locus_storage::PAGE_SIZE)
    }

    /// Materializes a pageless disk inode carrying this information, used
    /// when a container first learns of a file from a commit notification
    /// or a propagation pull.
    pub(crate) fn to_disk_inode(&self, data_here: bool) -> locus_storage::DiskInode {
        let mut d = locus_storage::DiskInode::new(self.ftype, self.perms, self.owner);
        d.size = self.size;
        d.nlink = self.nlink;
        d.vv = self.vv.clone();
        d.mtime = self.mtime;
        d.deleted = self.deleted;
        d.conflict = self.conflict;
        d.replicas = self.replicas.clone();
        d.data_here = data_here;
        d
    }

    /// Copies the permissions, owner, link count, replica list and the
    /// deleted and conflict flags into `sess`'s working inode: a copy that
    /// catches up with a version merge recovery made also takes back a
    /// file it had deleted (§4.4 rule d) and drops a conflict mark the
    /// merge settled. Each caller sets the other fields (size, mtime,
    /// data-here) its own way.
    pub(crate) fn copy_meta_to(&self, sess: &mut locus_storage::ShadowSession) {
        sess.set_perms(self.perms);
        sess.set_owner(self.owner);
        sess.set_nlink(self.nlink);
        sess.set_replicas(self.replicas.clone());
        sess.set_deleted(self.deleted);
        sess.set_conflict(self.conflict);
    }
}

impl From<&locus_storage::DiskInode> for InodeInfo {
    fn from(d: &locus_storage::DiskInode) -> Self {
        InodeInfo {
            ftype: d.ftype,
            perms: d.perms,
            owner: d.owner,
            size: d.size,
            nlink: d.nlink,
            vv: d.vv.clone(),
            mtime: d.mtime,
            deleted: d.deleted,
            conflict: d.conflict,
            replicas: d.replicas.clone(),
        }
    }
}

/// Per-process state the filesystem needs from the process layer: current
/// directory, machine-type context for hidden directories (§2.4.1), the
/// inherited default replication factor (§2.3.7) and the user id.
#[derive(Clone, Debug)]
pub struct ProcFsCtx {
    /// Current working directory.
    pub cwd: Gfid,
    /// Hidden-directory context names, tried in order (e.g. `["vax"]`).
    pub contexts: Vec<String>,
    /// "An inherited variable … to store the default number of copies of
    /// files created by that process" (§2.3.7).
    pub ncopies: u32,
    /// User id; owners of conflicted files get mail (§4.6).
    pub uid: u32,
}

impl ProcFsCtx {
    /// A context rooted at `cwd` with the given machine context.
    pub fn new(cwd: Gfid, machine: locus_types::MachineType) -> Self {
        ProcFsCtx {
            cwd,
            contexts: vec![machine.context_name().to_owned()],
            ncopies: u32::MAX, // "as replicated as the parent directory"
            uid: 0,
        }
    }
}

/// Requests of the fs wire protocol.
#[derive(Clone, Debug)]
pub enum FsMsg {
    /// US → CSS: open request (§2.3.3). Carries the US's own copy version,
    /// if any, enabling the US-is-SS optimization.
    OpenReq {
        /// Target file.
        gfid: Gfid,
        /// Requested mode.
        mode: OpenMode,
        /// Version vector of the US's local copy, if it stores one.
        us_vv: Option<VersionVector>,
        /// The requesting site (the US).
        us: SiteId,
    },
    /// CSS → candidate SS: "the potential sites are polled to see if they
    /// will act as storage sites" (§2.3.3).
    SsPoll {
        /// Target file.
        gfid: Gfid,
        /// The latest version vector known to the CSS; the candidate
        /// refuses if its copy is older.
        latest: VersionVector,
        /// The US the storage site would serve.
        us: SiteId,
        /// Whether the open is for modification.
        write: bool,
    },
    /// US → SS: read one logical page (§2.3.3). Includes "a guess as to
    /// where the incore inode information is stored at the SS".
    ReadPage {
        /// Target file.
        gfid: Gfid,
        /// Logical page number.
        lpn: usize,
        /// Incore-slot guess (performance hint only).
        guess: u32,
    },
    /// US → SS: write one logical page (one-way; only low-level
    /// acknowledgement, §2.3.5).
    WritePage {
        /// Target file.
        gfid: Gfid,
        /// Logical page number.
        lpn: usize,
        /// Page image.
        data: Vec<u8>,
        /// New file size if the write extends the file.
        new_size: u64,
    },
    /// US → SS: commit the open modification session (§2.3.6).
    Commit {
        /// Target file.
        gfid: Gfid,
        /// Inode-only changes to fold in (chmod/chown/delete marks).
        meta: Option<MetaUpdate>,
    },
    /// US → SS: discard changes back to the last commit point.
    AbortChanges {
        /// Target file.
        gfid: Gfid,
    },
    /// US → SS: close (§2.3.3); `write` selects the close path.
    Close {
        /// Target file.
        gfid: Gfid,
        /// Closing site.
        us: SiteId,
        /// Whether the open being closed was for modification.
        write: bool,
    },
    /// SS → CSS: a US closed the file; the CSS updates synchronization
    /// state (the four-message close of §2.3.3 fn 2).
    SsClose {
        /// Target file.
        gfid: Gfid,
        /// The US that closed.
        us: SiteId,
        /// Whether a writer closed.
        write: bool,
    },
    /// SS → CSS and SS → other storage sites: a new version committed
    /// (§2.3.6). Other storage sites respond by *pulling*.
    CommitNotify {
        /// Target file.
        gfid: Gfid,
        /// The new version vector.
        vv: VersionVector,
        /// The site where the latest data now lives.
        source: SiteId,
        /// Pack index whose version-vector slot this commit bumped.
        origin: u32,
        /// Inode-only change (no data pages to pull)?
        inode_only: bool,
        /// Explicitly modified pages, if the SS chose to enumerate them.
        pages: Option<Vec<usize>>,
        /// Updated inode information for container metadata.
        info: InodeInfo,
    },
    /// Propagation process → source SS: internal open-for-pull of the
    /// latest version (§2.3.6 "propagation is done by pulling the data").
    PullOpen {
        /// Target file.
        gfid: Gfid,
    },
    /// Token management for shared file descriptors (§3.2 fn 1).
    TokenAcquire {
        /// The shared descriptor group.
        id: SharedFdId,
        /// The site requesting the token.
        requester: SiteId,
    },
    /// Home site → current holder: surrender the offset token.
    TokenRecall {
        /// The shared descriptor group.
        id: SharedFdId,
    },
    /// Departing holder → home site: hand the token (and final offset)
    /// back on close.
    TokenGive {
        /// The shared descriptor group.
        id: SharedFdId,
        /// The holder's final offset.
        offset: u64,
    },
    /// Pipe data/state operations, serviced at the pipe's storage site.
    PipeOp {
        /// Target pipe file.
        gfid: Gfid,
        /// The operation.
        op: crate::pipe::PipeOp,
    },
    /// Device operations, serviced at the device's home site (§2.4.2).
    DeviceOp {
        /// Target device file.
        gfid: Gfid,
        /// The operation.
        op: crate::device::DeviceOp,
    },
    /// Remote create: "a placeholder is sent instead of an inode number"
    /// (§2.3.7); the storage site allocates from its local pool.
    CreateAt {
        /// Filegroup the file is created in.
        fg: locus_types::FilegroupId,
        /// The pack that should perform the create.
        pack_idx: u32,
        /// New file's type.
        ftype: FileType,
        /// New file's permissions.
        perms: Perms,
        /// Owner.
        owner: u32,
        /// Chosen replica set (pack indexes).
        replicas: Vec<u32>,
    },
    /// Cache invalidation when a new version commits while readers hold
    /// pages (the page-valid token scheme of §3.2 fn, simplified to
    /// invalidation).
    Invalidate {
        /// Target file.
        gfid: Gfid,
    },
    /// US → CSS: name/attribute-cache revalidation probe — "is my cached
    /// version still current?" The CSS answers with the most current
    /// version vector it knows (§2.3.1); one cheap control exchange
    /// replaces the open → read-pages → close protocol when the cached
    /// entry covers it. Purely a query, hence idempotent.
    VvCheck {
        /// Target file.
        gfid: Gfid,
    },
    /// CSS → lease holder: invalidation callback revoking a coherence
    /// lease granted on an earlier validation. The holder drops its
    /// leased name/attribute entries for the file and acknowledges; the
    /// reply is the ack the committing operation waits for. Dropping an
    /// already-dropped lease is harmless, hence idempotent — a recall
    /// whose ack was lost is simply re-issued.
    LeaseRecall {
        /// The file whose lease is being recalled.
        gfid: Gfid,
    },
    /// Committing SS → CSS (one-way): an invalidation at the storage site
    /// must break the file's outstanding leases. The CSS-side recall
    /// fan-out is driven by the committing operation itself, so the
    /// message carries the trigger's cost and the handler has nothing
    /// left to do; a lost break does not stop the recalls.
    LeaseBreak {
        /// The file whose leases are being broken.
        gfid: Gfid,
    },
    /// Partition member → (new) CSS (one-way): re-registers one open
    /// file so the CSS can rebuild its lock table after a
    /// reconfiguration (§5.6). The registration happens in the handler,
    /// so only on delivery.
    ReconfigRegister {
        /// The open file.
        gfid: Gfid,
        /// The using site holding it open.
        us: SiteId,
        /// The storage site serving the open.
        ss: SiteId,
        /// Whether the open is for modification.
        write: bool,
    },
    /// New CSS → old CSS: epoch-numbered synchronization-role transfer.
    /// The old CSS stops answering as CSS (racing requests get
    /// `FsReply::NotCss` redirects), records the new assignment, and
    /// replies with its drained synchronization state — the most current
    /// version vectors it knows and the live lock table for the
    /// filegroup. The reply is computed from a snapshot the old CSS
    /// keeps until a newer epoch supersedes it, so a retried handoff
    /// whose reply was lost re-fetches the same state.
    CssHandoff {
        /// The filegroup changing synchronization site.
        fg: locus_types::FilegroupId,
        /// The new, strictly larger CSS epoch.
        epoch: u64,
        /// The site taking over as CSS.
        new_css: SiteId,
    },
    /// New CSS → everyone else (one-way): the filegroup's CSS changed.
    /// Receivers adopt the assignment only if the epoch is newer than
    /// the one they hold, so late or duplicated updates are harmless.
    CssUpdate {
        /// The filegroup whose CSS changed.
        fg: locus_types::FilegroupId,
        /// The epoch of the assignment.
        epoch: u64,
        /// The site now acting as CSS.
        new_css: SiteId,
    },
}

/// Inode-only modifications folded into a commit ("it was just inode
/// information that changed and no data (eg. ownership or permissions)",
/// §2.3.6).
#[derive(Clone, Debug, Default)]
pub struct MetaUpdate {
    /// New permissions, if changing.
    pub perms: Option<Perms>,
    /// New owner, if changing.
    pub owner: Option<u32>,
    /// New link count, if changing.
    pub nlink: Option<u32>,
    /// Mark the file deleted (§2.3.7 delete-via-commit).
    pub delete: bool,
}

impl MetaUpdate {
    /// Whether this update changes anything.
    pub fn is_empty(&self) -> bool {
        self.perms.is_none() && self.owner.is_none() && self.nlink.is_none() && !self.delete
    }
}

/// Replies of the fs wire protocol.
#[derive(Clone, Debug)]
pub(crate) enum FsReply {
    /// Reply to [`FsMsg::OpenReq`].
    Opened {
        /// The storage site selected by the CSS.
        ss: SiteId,
        /// Disk-inode information for the US's incore structure.
        info: InodeInfo,
    },
    /// Reply to [`FsMsg::SsPoll`]: acceptance with current info.
    SsAccept {
        /// The candidate's inode information.
        info: InodeInfo,
    },
    /// Reply to [`FsMsg::SsPoll`]: refusal ("if they do not yet store the
    /// latest version, they refuse to act as a storage site", §2.3.3).
    SsRefuse,
    /// Reply to [`FsMsg::ReadPage`].
    Page {
        /// The page image.
        data: Vec<u8>,
    },
    /// Reply to [`FsMsg::Commit`]: the committed inode information.
    Committed {
        /// Post-commit inode information.
        info: InodeInfo,
    },
    /// Reply to [`FsMsg::PullOpen`]: latest version info for propagation.
    PullInfo {
        /// Source inode information (vv, size, pages).
        info: InodeInfo,
    },
    /// Reply to [`FsMsg::TokenAcquire`]: the token with the current
    /// offset.
    TokenGranted {
        /// Offset at the time of transfer.
        offset: u64,
    },
    /// Reply to [`FsMsg::TokenRecall`]: offset surrendered by the holder.
    TokenSurrendered {
        /// The holder's last offset.
        offset: u64,
    },
    /// Reply to [`FsMsg::PipeOp`].
    Pipe(crate::pipe::PipeReply),
    /// Reply to [`FsMsg::DeviceOp`].
    Device(crate::device::DeviceReply),
    /// Reply to [`FsMsg::CreateAt`]: the allocated inode number.
    Created {
        /// Inode number allocated from the storage site's pool.
        ino: Ino,
        /// The new file's inode information.
        info: InodeInfo,
    },
    /// Reply to [`FsMsg::VvCheck`]: the most current version vector the
    /// CSS knows for the file.
    VvKnown {
        /// Latest known version vector.
        vv: VersionVector,
        /// Whether the CSS granted the requester a coherence lease on the
        /// file: until a [`FsMsg::LeaseRecall`] arrives, the requester may
        /// serve its cached entries without re-validating. Always `false`
        /// when leases are disabled, so the VvCheck-only protocol is
        /// byte-identical to before the flag existed.
        lease: bool,
    },
    /// Reply to [`FsMsg::CssHandoff`]: the old CSS's drained
    /// synchronization state for the filegroup.
    HandoffState {
        /// Most current version vectors the old CSS knew, per file.
        latest: Vec<(Gfid, VersionVector)>,
        /// Live open/lock state, per file (§2.3.3 CSS state).
        locks: Vec<(Gfid, crate::incore::CssState)>,
        /// Outstanding coherence-lease holders, per file — drained from
        /// the old CSS's lease table under the same epoch numbering as
        /// `latest`, so the successor can keep recalling them. Empty when
        /// leases are disabled.
        leases: Vec<(Gfid, Vec<SiteId>)>,
    },
    /// "I am no longer the CSS for this filegroup": a typed redirect
    /// carrying the newest assignment the answering site knows. The
    /// caller adopts it and retries against the named site.
    NotCss {
        /// Epoch of the assignment the answering site holds.
        epoch: u64,
        /// The site it believes is the CSS.
        new_css: SiteId,
    },
    /// Generic success.
    Ok,
}

/// Wire size of a [`FsMsg::ReconfigRegister`]: a control header plus the
/// open's (gfid, storage site, mode) triple.
const RECONFIG_REGISTER_BYTES: usize = 96;

/// Short labels used for message statistics and events.
impl FsMsg {
    /// The statistics/trace label of this message.
    pub fn kind(&self) -> &'static str {
        match self {
            FsMsg::OpenReq { .. } => "OPEN req",
            FsMsg::SsPoll { .. } => "SS poll",
            FsMsg::ReadPage { .. } => "READ req",
            FsMsg::WritePage { .. } => "WRITE page",
            FsMsg::Commit { .. } => "COMMIT req",
            FsMsg::AbortChanges { .. } => "ABORT req",
            FsMsg::Close { .. } => "CLOSE req",
            FsMsg::SsClose { .. } => "SSCLOSE req",
            FsMsg::CommitNotify { .. } => "COMMIT notify",
            FsMsg::PullOpen { .. } => "PULL open",
            FsMsg::TokenAcquire { .. } => "TOKEN acquire",
            FsMsg::TokenRecall { .. } => "TOKEN recall",
            FsMsg::TokenGive { .. } => "TOKEN give",
            FsMsg::PipeOp { .. } => "PIPE op",
            FsMsg::DeviceOp { .. } => "DEVICE op",
            FsMsg::CreateAt { .. } => "CREATE req",
            FsMsg::Invalidate { .. } => "INVALIDATE",
            FsMsg::VvCheck { .. } => "VV check",
            FsMsg::LeaseRecall { .. } => "LEASE recall",
            FsMsg::LeaseBreak { .. } => "LEASE break",
            FsMsg::ReconfigRegister { .. } => "RECONFIG register",
            FsMsg::CssHandoff { .. } => "CSS handoff",
            FsMsg::CssUpdate { .. } => "CSS update",
        }
    }

    /// The reply label paired with this request.
    pub fn reply_kind(&self) -> &'static str {
        match self {
            FsMsg::OpenReq { .. } => "OPEN resp",
            FsMsg::SsPoll { .. } => "SS poll resp",
            FsMsg::ReadPage { .. } => "READ resp",
            FsMsg::WritePage { .. } => "WRITE ack",
            FsMsg::Commit { .. } => "COMMIT resp",
            FsMsg::AbortChanges { .. } => "ABORT resp",
            FsMsg::Close { .. } => "CLOSE resp",
            FsMsg::SsClose { .. } => "SSCLOSE resp",
            FsMsg::CommitNotify { .. } => "COMMIT notify ack",
            FsMsg::PullOpen { .. } => "PULL resp",
            FsMsg::TokenAcquire { .. } => "TOKEN grant",
            FsMsg::TokenRecall { .. } => "TOKEN surrender",
            FsMsg::TokenGive { .. } => "TOKEN give ack",
            FsMsg::PipeOp { .. } => "PIPE resp",
            FsMsg::DeviceOp { .. } => "DEVICE resp",
            FsMsg::CreateAt { .. } => "CREATE resp",
            FsMsg::Invalidate { .. } => "INVALIDATE ack",
            FsMsg::VvCheck { .. } => "VV resp",
            FsMsg::LeaseRecall { .. } => "LEASE recall ack",
            FsMsg::LeaseBreak { .. } => "LEASE break ack",
            FsMsg::ReconfigRegister { .. } => "RECONFIG register ack",
            FsMsg::CssHandoff { .. } => "CSS handoff resp",
            FsMsg::CssUpdate { .. } => "CSS update ack",
        }
    }

    /// Approximate wire size of the request.
    pub fn wire_bytes(&self) -> usize {
        match self {
            FsMsg::WritePage { data, .. } => crate::cost::CONTROL_MSG_BYTES + data.len(),
            FsMsg::ReconfigRegister { .. } => RECONFIG_REGISTER_BYTES,
            _ => crate::cost::CONTROL_MSG_BYTES,
        }
    }

    /// Whether the request may be *re-issued* after its reply was lost —
    /// i.e. the remote handler may have already run once. Requests whose
    /// effect is a query, a set insertion, or an open registration that
    /// tolerates repetition qualify; state transitions that must happen
    /// exactly once (commit, close bookkeeping, token transfers, creates)
    /// do not — a lost reply there surfaces as an error and the §5.6
    /// cleanup / recovery procedures reconcile.
    pub fn idempotent(&self) -> bool {
        matches!(
            self,
            FsMsg::OpenReq { .. }
                | FsMsg::SsPoll { .. }
                | FsMsg::ReadPage { .. }
                | FsMsg::PullOpen { .. }
                | FsMsg::AbortChanges { .. }
                | FsMsg::Invalidate { .. }
                | FsMsg::VvCheck { .. }
                | FsMsg::LeaseRecall { .. }
                | FsMsg::CssHandoff { .. }
                | FsMsg::CssUpdate { .. }
        )
    }
}

/// The filesystem protocol as seen by the shared
/// [`RpcEngine`](locus_net::RpcEngine): delegates to the inherent
/// methods above so the engine and direct callers agree on labels,
/// sizes and idempotency.
impl locus_net::WireMsg for FsMsg {
    const SERVICE: &'static str = "fs";

    fn kind(&self) -> &'static str {
        FsMsg::kind(self)
    }

    fn reply_kind(&self) -> &'static str {
        FsMsg::reply_kind(self)
    }

    fn wire_bytes(&self) -> usize {
        FsMsg::wire_bytes(self)
    }

    fn idempotent(&self) -> bool {
        FsMsg::idempotent(self)
    }
}

impl FsReply {
    /// Approximate wire size of the reply.
    pub fn wire_bytes(&self) -> usize {
        match self {
            FsReply::Page { data } => crate::cost::CONTROL_MSG_BYTES + data.len(),
            FsReply::HandoffState {
                latest,
                locks,
                leases,
            } => crate::cost::CONTROL_MSG_BYTES + 32 * (latest.len() + locks.len() + leases.len()),
            FsReply::Opened { .. }
            | FsReply::Committed { .. }
            | FsReply::PullInfo { .. }
            | FsReply::SsAccept { .. }
            | FsReply::Created { .. } => crate::cost::INODE_MSG_BYTES,
            _ => crate::cost::CONTROL_MSG_BYTES,
        }
    }
}
