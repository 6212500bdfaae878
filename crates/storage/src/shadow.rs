//! Shadow-page file modification and atomic commit.
//!
//! §2.3.6: "LOCUS uses a shadow page mechanism … a new physical page is
//! allocated if a change is made to an existing page of a file. … Both
//! these cases leave the old information intact. … The atomic commit
//! operation consists merely of moving the incore inode information to the
//! disk inode. … To abort … one merely discards the incore information."
//!
//! A [`ShadowSession`] is the incore inode of a file open for
//! modification at its storage site. Until [`commit`](ShadowSession::commit)
//! the on-disk inode and all of its pages are untouched, so a crash (drop
//! of the session) at *any* point leaves the old version intact — the
//! property experiment E8 injects faults to verify.

use std::collections::BTreeMap;

use locus_types::{Errno, Ino, SysResult, Ticks, VersionVector};

use crate::disk::{BlockContent, BlockNo, PAGE_SIZE};
use crate::inode::{DiskInode, NDIRECT, NINDIRECT};
use crate::pack::Pack;

/// An in-progress set of modifications to one file at one pack.
#[derive(Debug)]
pub struct ShadowSession {
    ino: Ino,
    work: DiskInode,
    /// Logical pages already shadowed this session; subsequent writes to
    /// them are "reused in place" (§2.3.6). Each entry keeps the kernel
    /// buffer the page was written from beside its shadow block — "the
    /// buffer that contains it is renamed and sent out to secondary
    /// storage" — so neither the session's own reads nor the buffer
    /// cache after commit go back to the disk for it.
    shadowed: BTreeMap<usize, (BlockNo, Vec<u8>)>,
    /// Lowest page count a truncate of this session cut mapped pages off
    /// at (`usize::MAX` if none did): every page at or past it that is
    /// not in `shadowed` reads as a hole once the session commits.
    truncated_to: usize,
    /// Old blocks to release if and only if the session commits.
    free_on_commit: Vec<BlockNo>,
    /// Whether the indirect block has been shadowed.
    indirect_shadowed: bool,
    /// The first error a page write or truncate of this session met. A
    /// session that lost a change cannot commit: its commit aborts and
    /// returns this error, the reply a write's sender gets (§2.3.5–2.3.6).
    failed: Option<Errno>,
}

/// What a commit changed in the pack's page contents — what a buffer
/// cache needs to stay equal to the pack without reading it.
#[derive(Debug, PartialEq, Eq)]
pub struct Committed {
    /// The pages the session shadowed, as `(logical page, image)`; each
    /// image is exactly [`PAGE_SIZE`] bytes.
    pub pages: Vec<(usize, Vec<u8>)>,
    /// Every page at or past this number that is not in `pages` is now
    /// unmapped (truncated away, or released by a delete); `usize::MAX`
    /// when the session unmapped nothing.
    pub npages: usize,
}

impl ShadowSession {
    /// Opens a modification session on `ino`, cloning its disk inode as
    /// the incore working copy.
    pub fn begin(pack: &Pack, ino: Ino) -> SysResult<Self> {
        let work = pack.inode(ino).ok_or(Errno::Enoent)?.clone();
        Ok(ShadowSession {
            ino,
            work,
            shadowed: BTreeMap::new(),
            truncated_to: usize::MAX,
            free_on_commit: Vec::new(),
            indirect_shadowed: false,
            failed: None,
        })
    }

    /// The file being modified.
    pub fn ino(&self) -> Ino {
        self.ino
    }

    /// The working (incore) inode.
    pub fn working(&self) -> &DiskInode {
        &self.work
    }

    /// Reads a page as currently visible *within* this session (shadow
    /// content if written, otherwise the committed content). A shadowed
    /// page is served from the buffer it was written from: no disk read.
    pub fn read_page(&self, pack: &mut Pack, lpn: usize) -> SysResult<Vec<u8>> {
        if let Some((_, buf)) = self.shadowed.get(&lpn) {
            return Ok(buf.clone());
        }
        match self.lookup(pack, lpn)? {
            None => Ok(vec![0u8; PAGE_SIZE]),
            Some(b) => {
                let content = pack.dev_mut().read(b)?;
                Ok(content.data()?.to_vec())
            }
        }
    }

    /// Writes one logical page. The first write to a page allocates a
    /// shadow block; later writes to the same page reuse it in place. A
    /// write that fails (`Enospc`) leaves the session's pages as they
    /// were, and the session can no longer commit.
    pub fn write_page(&mut self, pack: &mut Pack, lpn: usize, bytes: &[u8]) -> SysResult<()> {
        let r = self.try_write_page(pack, lpn, bytes);
        self.note(r)
    }

    fn try_write_page(&mut self, pack: &mut Pack, lpn: usize, bytes: &[u8]) -> SysResult<()> {
        if lpn >= NDIRECT + NINDIRECT {
            return Err(Errno::Einval);
        }
        let content = BlockContent::from_bytes(bytes);
        let buf = content.data()?.to_vec();
        if let Some((b, old)) = self.shadowed.get_mut(&lpn) {
            pack.dev_mut().write(*b, content)?;
            *old = buf;
            return Ok(());
        }
        let old = self.lookup(pack, lpn)?;
        let new = pack.dev_mut().alloc(content)?;
        if let Err(e) = self.map(pack, lpn, Some(new)) {
            pack.dev_mut().free(new)?;
            return Err(e);
        }
        self.free_on_commit.extend(old);
        self.shadowed.insert(lpn, (new, buf));
        Ok(())
    }

    /// Unmaps every page at or beyond `npages` (shrinking truncate). A
    /// truncate that fails (`Enospc`) leaves the session's pages as they
    /// were, and the session can no longer commit.
    pub fn truncate_pages(&mut self, pack: &mut Pack, npages: usize) -> SysResult<()> {
        let r = self.try_truncate_pages(pack, npages);
        self.note(r)
    }

    fn try_truncate_pages(&mut self, pack: &mut Pack, npages: usize) -> SysResult<()> {
        let mapped = self.work.pages.mapped_pages(pack.dev_mut())?;
        // Last page first: only the first indirect-range unmap can fail
        // (it clones the indirect block), and then nothing is unmapped yet.
        for (lpn, bno) in mapped.into_iter().rev() {
            if lpn < npages {
                continue;
            }
            self.map(pack, lpn, None)?;
            self.truncated_to = self.truncated_to.min(npages);
            if self.shadowed.remove(&lpn).is_some() {
                // A block born in this session dies in it.
                pack.dev_mut().free(bno)?;
            } else {
                self.free_on_commit.push(bno);
            }
        }
        Ok(())
    }

    /// Remembers the first failure among this session's changes.
    fn note(&mut self, r: SysResult<()>) -> SysResult<()> {
        if let Err(e) = r {
            self.failed.get_or_insert(e);
        }
        r
    }

    /// Sets the working file size.
    pub fn set_size(&mut self, size: u64) {
        self.work.size = size;
    }

    /// Sets the working permission bits (an inode-only change; the commit
    /// notification can say "just inode information changed", §2.3.6).
    pub fn set_perms(&mut self, perms: locus_types::Perms) {
        self.work.perms = perms;
    }

    /// Sets the working owner.
    pub fn set_owner(&mut self, owner: u32) {
        self.work.owner = owner;
    }

    /// Sets the working link count.
    pub fn set_nlink(&mut self, nlink: u32) {
        self.work.nlink = nlink;
    }

    /// Sets the working modification time.
    pub fn set_mtime(&mut self, mtime: Ticks) {
        self.work.mtime = mtime;
    }

    /// Marks the working inode deleted ("the US marks the inode and does a
    /// commit", §2.3.7); data pages are released at commit, leaving a
    /// tombstone that propagates the delete. Clearing the mark undoes a
    /// delete (§4.4 rule d).
    pub fn set_deleted(&mut self, deleted: bool) {
        self.work.deleted = deleted;
    }

    /// Clears or sets the conflict mark (recovery uses this).
    pub fn set_conflict(&mut self, conflict: bool) {
        self.work.conflict = conflict;
    }

    /// Replaces the replica (pack-index) list carried in the inode.
    pub fn set_replicas(&mut self, replicas: Vec<u32>) {
        self.work.replicas = replicas;
    }

    /// Marks whether this copy holds data pages (a metadata-only copy
    /// becomes a data copy when propagation pulls the pages in, §2.3.6).
    pub fn set_data_here(&mut self, data_here: bool) {
        self.work.data_here = data_here;
    }

    /// Whether a truncate of this session cut off a mapped page. The
    /// list of [`modified_pages`](Self::modified_pages) cannot say which
    /// pages *went*, so a commit notification for such a session must not
    /// offer it as the complete set of changes.
    pub fn cut_pages(&self) -> bool {
        self.truncated_to != usize::MAX
    }

    /// The logical pages modified in this session, for the commit
    /// notification's "which explicit logical pages were modified" option
    /// (§2.3.6).
    pub fn modified_pages(&self) -> Vec<usize> {
        self.shadowed.keys().copied().collect()
    }

    /// Atomically installs the working inode with `new_vv` as the file's
    /// version vector, releasing replaced blocks. This is the single
    /// atomic step of §2.3.6. Hands back the buffers of the pages it
    /// installed (see [`Committed`]). A session whose page write or
    /// truncate failed is aborted instead, and its first error returned:
    /// the file stays at its previous version.
    pub fn commit(mut self, pack: &mut Pack, new_vv: VersionVector) -> SysResult<Committed> {
        if let Some(e) = self.failed {
            self.abort(pack)?;
            return Err(e);
        }
        self.work.vv = new_vv;
        let committed = if self.work.deleted {
            // The shadow blocks are mapped, so they are freed with
            // everything else; their buffers die with the file.
            let mapped = self.work.pages.mapped_pages(pack.dev_mut())?;
            for (_, bno) in mapped {
                pack.dev_mut().free(bno)?;
            }
            if let Some(ib) = self.work.pages.indirect {
                pack.dev_mut().free(ib)?;
            }
            self.work.pages = Default::default();
            self.work.size = 0;
            Committed {
                pages: Vec::new(),
                npages: 0,
            }
        } else {
            Committed {
                pages: std::mem::take(&mut self.shadowed)
                    .into_iter()
                    .map(|(lpn, (_, buf))| (lpn, buf))
                    .collect(),
                npages: self.truncated_to,
            }
        };
        for bno in self.free_on_commit.drain(..) {
            pack.dev_mut().free(bno)?;
        }
        pack.itable_mut().insert(self.ino, self.work);
        Ok(committed)
    }

    /// Discards the session: every shadow block is released and the
    /// committed version remains exactly as it was.
    pub fn abort(mut self, pack: &mut Pack) -> SysResult<()> {
        for (_, (bno, _)) in std::mem::take(&mut self.shadowed) {
            pack.dev_mut().free(bno)?;
        }
        if self.indirect_shadowed {
            if let Some(ib) = self.work.pages.indirect {
                pack.dev_mut().free(ib)?;
            }
        }
        Ok(())
    }

    /// Looks up the *working* mapping of `lpn`.
    fn lookup(&self, pack: &mut Pack, lpn: usize) -> SysResult<Option<BlockNo>> {
        self.work.pages.lookup(lpn, pack.dev_mut())
    }

    /// Shadow-aware mapping update: the committed inode's indirect block
    /// is never modified; the first indirect-range update clones it, and
    /// the old one is released at commit only once the clone exists.
    fn map(&mut self, pack: &mut Pack, lpn: usize, bno: Option<BlockNo>) -> SysResult<()> {
        if lpn < NDIRECT {
            self.work.pages.direct[lpn] = bno;
            return Ok(());
        }
        let idx = lpn - NDIRECT;
        if idx >= NINDIRECT {
            return Err(Errno::Einval);
        }
        if !self.indirect_shadowed {
            let old_ib = self.work.pages.indirect;
            let table = match old_ib {
                None => {
                    if bno.is_none() {
                        return Ok(());
                    }
                    vec![None; NINDIRECT]
                }
                Some(old_ib) => match pack.dev_mut().read(old_ib)? {
                    BlockContent::Index(t) => t,
                    BlockContent::Data(_) => return Err(Errno::Eio),
                },
            };
            let new_ib = pack.dev_mut().alloc(BlockContent::Index(table))?;
            self.free_on_commit.extend(old_ib);
            self.work.pages.indirect = Some(new_ib);
            self.indirect_shadowed = true;
        }
        let ib = self.work.pages.indirect.expect("indirect shadowed above");
        let mut table = match pack.dev_mut().read(ib)? {
            BlockContent::Index(t) => t,
            BlockContent::Data(_) => return Err(Errno::Eio),
        };
        table[idx] = bno;
        pack.dev_mut().write(ib, BlockContent::Index(table))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{FileType, FilegroupId, PackId, Perms};

    fn pack_with_file(data: &[u8]) -> (Pack, Ino) {
        pack_of(256, data)
    }

    fn pack_of(nblocks: u32, data: &[u8]) -> (Pack, Ino) {
        let mut p = Pack::new(PackId::new(FilegroupId(0), 0), 1..40, nblocks);
        let ino = p.alloc_ino().unwrap();
        p.install_inode(
            ino,
            DiskInode::new(FileType::Untyped, Perms::FILE_DEFAULT, 0),
        );
        if !data.is_empty() {
            p.write_all(ino, data).unwrap();
        }
        (p, ino)
    }

    #[test]
    fn abort_leaves_old_version_intact() {
        let (mut p, ino) = pack_with_file(b"original");
        let free_before = p.free_blocks();
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        s.write_page(&mut p, 0, b"clobbered").unwrap();
        s.set_size(9);
        s.abort(&mut p).unwrap();
        assert_eq!(p.read_all(ino).unwrap(), b"original");
        assert_eq!(p.free_blocks(), free_before, "shadow blocks released");
        p.fsck().unwrap();
    }

    #[test]
    fn commit_installs_new_version_and_frees_old_pages() {
        let (mut p, ino) = pack_with_file(b"original");
        let free_before = p.free_blocks();
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        s.write_page(&mut p, 0, b"newdata!").unwrap();
        s.set_size(8);
        let mut vv = p.inode(ino).unwrap().vv.clone();
        vv.bump(p.origin());
        s.commit(&mut p, vv).unwrap();
        assert_eq!(p.read_all(ino).unwrap(), b"newdata!");
        assert_eq!(p.free_blocks(), free_before, "old page freed, shadow kept");
        p.fsck().unwrap();
    }

    #[test]
    fn drop_without_commit_models_crash() {
        // E8: a crash at any point before commit must leave the old file.
        let (mut p, ino) = pack_with_file(b"stable");
        {
            let mut s = ShadowSession::begin(&p, ino).unwrap();
            s.write_page(&mut p, 0, b"doomed").unwrap();
            // Session dropped here: the crash. (Shadow blocks leak on the
            // simulated disk exactly as they would on a real one until
            // fsck, but the committed data is intact.)
        }
        assert_eq!(p.read_all(ino).unwrap(), b"stable");
    }

    #[test]
    fn page_rewritten_twice_reuses_shadow_block() {
        let (mut p, ino) = pack_with_file(b"x");
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        s.write_page(&mut p, 0, b"first").unwrap();
        let free_after_first = p.free_blocks();
        s.write_page(&mut p, 0, b"second").unwrap();
        assert_eq!(p.free_blocks(), free_after_first, "reused in place");
        assert_eq!(s.modified_pages(), vec![0]);
        let vv = s.working().vv.clone();
        s.set_size(6);
        s.commit(&mut p, vv).unwrap();
        assert_eq!(p.read_all(ino).unwrap(), b"second");
    }

    #[test]
    fn indirect_block_is_shadowed_not_mutated() {
        let big = vec![3u8; (NDIRECT + 2) * PAGE_SIZE];
        let (mut p, ino) = pack_with_file(&big);
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        s.write_page(&mut p, NDIRECT + 1, b"modified-tail").unwrap();
        // Abort: the committed indirect table still points at old pages.
        s.abort(&mut p).unwrap();
        assert_eq!(p.read_all(ino).unwrap(), big);
        p.fsck().unwrap();
    }

    #[test]
    fn delete_commit_releases_pages_and_leaves_tombstone() {
        let (mut p, ino) = pack_with_file(&vec![9u8; 3 * PAGE_SIZE]);
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        s.set_deleted(true);
        let mut vv = s.working().vv.clone();
        vv.bump(p.origin());
        s.commit(&mut p, vv).unwrap();
        let inode = p.inode(ino).unwrap();
        assert!(inode.deleted);
        assert_eq!(inode.size, 0);
        assert!(p.stores(ino), "tombstone remains to propagate the delete");
        p.fsck().unwrap();
    }

    #[test]
    fn session_read_sees_own_writes_but_disk_does_not() {
        let (mut p, ino) = pack_with_file(b"committed");
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        s.write_page(&mut p, 0, b"uncommitted").unwrap();
        let in_session = s.read_page(&mut p, 0).unwrap();
        assert_eq!(&in_session[..11], b"uncommitted");
        let on_disk = p.read_page(ino, 0).unwrap();
        assert_eq!(&on_disk[..9], b"committed");
        s.abort(&mut p).unwrap();
    }

    #[test]
    fn session_keeps_its_buffers_and_commit_hands_them_over() {
        let (mut p, ino) = pack_with_file(&vec![1u8; 4 * PAGE_SIZE]);
        p.take_io_cost();
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        s.write_page(&mut p, 1, b"first").unwrap();
        s.write_page(&mut p, 1, b"second").unwrap();
        s.write_page(&mut p, 3, &[7u8; PAGE_SIZE]).unwrap();
        let writes = p.take_io_cost();
        // The writer's own read of a shadowed page comes from the buffer.
        let page = s.read_page(&mut p, 1).unwrap();
        assert_eq!(&page[..6], b"second");
        assert_eq!(page.len(), PAGE_SIZE, "padded like a disk page");
        assert_eq!(
            p.take_io_cost(),
            Ticks::ZERO,
            "no disk read for a held buffer"
        );
        assert_eq!(writes, Ticks::millis(75), "three block writes");
        let vv = s.working().vv.clone();
        let committed = s.commit(&mut p, vv).unwrap();
        assert_eq!(committed.npages, usize::MAX, "nothing was cut off");
        let lpns: Vec<usize> = committed.pages.iter().map(|(l, _)| *l).collect();
        assert_eq!(lpns, vec![1, 3]);
        for (lpn, image) in &committed.pages {
            assert_eq!(image, &p.read_page(ino, *lpn).unwrap(), "page {lpn}");
        }
    }

    #[test]
    fn commit_reports_where_the_file_was_cut() {
        let (mut p, ino) = pack_with_file(&vec![1u8; 4 * PAGE_SIZE]);
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        s.truncate_pages(&mut p, 6).unwrap();
        assert!(!s.cut_pages(), "a cut past the last page removes nothing");
        s.write_page(&mut p, 2, b"kept").unwrap();
        s.truncate_pages(&mut p, 3).unwrap();
        s.truncate_pages(&mut p, 1).unwrap();
        s.write_page(&mut p, 2, b"back").unwrap();
        assert!(s.cut_pages());
        s.set_size(3 * PAGE_SIZE as u64);
        let vv = s.working().vv.clone();
        let committed = s.commit(&mut p, vv).unwrap();
        assert_eq!(committed.npages, 1, "the lowest cut");
        assert_eq!(
            committed.pages.len(),
            1,
            "page 2's first image died with the cut"
        );
        assert_eq!(&committed.pages[0].1[..4], b"back");
        assert_eq!(
            p.read_page(ino, 1).unwrap(),
            vec![0u8; PAGE_SIZE],
            "a hole now"
        );
        p.fsck().unwrap();

        let mut s = ShadowSession::begin(&p, ino).unwrap();
        s.write_page(&mut p, 0, b"doomed").unwrap();
        s.set_deleted(true);
        let vv = s.working().vv.clone();
        let gone = Committed {
            pages: Vec::new(),
            npages: 0,
        };
        assert_eq!(
            s.commit(&mut p, vv).unwrap(),
            gone,
            "a delete keeps no page"
        );
    }

    #[test]
    fn growing_file_through_indirect_range() {
        let (mut p, ino) = pack_with_file(b"small");
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        let n = NDIRECT + 3;
        for lpn in 0..n {
            s.write_page(&mut p, lpn, &[lpn as u8; PAGE_SIZE]).unwrap();
        }
        s.set_size((n * PAGE_SIZE) as u64);
        let vv = s.working().vv.clone();
        s.commit(&mut p, vv).unwrap();
        let all = p.read_all(ino).unwrap();
        assert_eq!(all.len(), n * PAGE_SIZE);
        assert_eq!(all[NDIRECT * PAGE_SIZE], NDIRECT as u8);
        p.fsck().unwrap();
    }

    #[test]
    fn a_write_that_runs_out_of_blocks_leaks_none() {
        // Every block but one holds a direct page; the first indirect-range
        // page gets its data block but not the indirect block.
        let (mut p, ino) = pack_of(NDIRECT as u32 + 1, b"");
        let free_before = p.free_blocks();
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        for lpn in 0..NDIRECT {
            s.write_page(&mut p, lpn, b"page").unwrap();
        }
        assert_eq!(s.write_page(&mut p, NDIRECT, b"tail"), Err(Errno::Enospc));
        assert_eq!(s.modified_pages(), (0..NDIRECT).collect::<Vec<_>>());
        s.abort(&mut p).unwrap();
        assert_eq!(p.free_blocks(), free_before, "the data block went back");
        p.fsck().unwrap();
    }

    #[test]
    fn a_write_that_runs_out_of_blocks_changes_no_commit() {
        // One block is free: the shadow data page takes it, the shadow
        // indirect block finds none. The commit after the failed write
        // fails with it, and frees neither the old page nor the old
        // indirect block.
        let file: Vec<u8> = (0..=NDIRECT)
            .flat_map(|lpn| vec![lpn as u8; PAGE_SIZE])
            .collect();
        let (mut p, ino) = pack_of(NDIRECT as u32 + 3, &file);
        assert_eq!(p.free_blocks(), 1);
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        assert_eq!(s.write_page(&mut p, NDIRECT, b"tail"), Err(Errno::Enospc));
        assert!(s.modified_pages().is_empty());
        let vv = s.working().vv.clone();
        assert_eq!(s.commit(&mut p, vv).err(), Some(Errno::Enospc));
        p.fsck().unwrap();
        assert_eq!(p.read_all(ino).unwrap(), file);
        assert_eq!(p.free_blocks(), 1);

        // With no block free, a truncate cannot clone the indirect block
        // to unmap its page, and the commit after it fails and keeps
        // every page.
        let (mut p, ino) = pack_of(NDIRECT as u32 + 2, &file);
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        assert_eq!(s.truncate_pages(&mut p, 5), Err(Errno::Enospc));
        assert!(!s.cut_pages());
        let vv = s.working().vv.clone();
        assert_eq!(s.commit(&mut p, vv).err(), Some(Errno::Enospc));
        p.fsck().unwrap();
        assert_eq!(p.read_all(ino).unwrap(), file);
    }

    #[test]
    fn truncate_in_session_is_atomic_too() {
        let (mut p, ino) = pack_with_file(&vec![1u8; 4 * PAGE_SIZE]);
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        s.truncate_pages(&mut p, 1).unwrap();
        s.set_size(PAGE_SIZE as u64);
        s.abort(&mut p).unwrap();
        assert_eq!(p.read_all(ino).unwrap().len(), 4 * PAGE_SIZE);
        let mut s = ShadowSession::begin(&p, ino).unwrap();
        s.truncate_pages(&mut p, 1).unwrap();
        s.set_size(PAGE_SIZE as u64);
        let vv = s.working().vv.clone();
        s.commit(&mut p, vv).unwrap();
        assert_eq!(p.read_all(ino).unwrap().len(), PAGE_SIZE);
        p.fsck().unwrap();
    }
}
