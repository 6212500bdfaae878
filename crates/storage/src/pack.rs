//! Packs: physical containers of a logical filegroup.

use std::collections::{BTreeMap, BTreeSet};

use locus_types::{Errno, Ino, PackId, SysResult, Ticks};

use crate::disk::{BlockDevice, DiskParams, PAGE_SIZE};
use crate::inode::DiskInode;
use crate::superblock::Superblock;

/// One physical container: a slice of the filegroup's inode space, an
/// inode table, and a block device holding the stored files' pages.
#[derive(Debug)]
pub struct Pack {
    sb: Superblock,
    dev: BlockDevice,
    itable: BTreeMap<Ino, DiskInode>,
    free_inos: BTreeSet<u32>,
}

impl Pack {
    /// Creates an empty pack with `nblocks` of storage.
    pub fn new(pack: PackId, ino_range: core::ops::Range<u32>, nblocks: u32) -> Self {
        let free_inos = ino_range.clone().collect();
        Pack {
            sb: Superblock::new(pack, ino_range),
            dev: BlockDevice::new(nblocks, DiskParams::default()),
            itable: BTreeMap::new(),
            free_inos,
        }
    }

    /// This pack's identifier.
    pub fn id(&self) -> PackId {
        self.sb.pack
    }

    /// The pack index used as version-vector update origin.
    pub fn origin(&self) -> u32 {
        self.sb.pack.idx
    }

    /// The superblock.
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// Allocates an inode number from this pack's private slice (§2.3.7).
    pub fn alloc_ino(&mut self) -> SysResult<Ino> {
        let n = *self.free_inos.iter().next().ok_or(Errno::Enospc)?;
        self.free_inos.remove(&n);
        Ok(Ino(n))
    }

    /// Returns an inode number to the free pool; only numbers in this
    /// pack's slice may be recycled here ("the inode can be reallocated by
    /// the site which has control of that inode", §2.3.7).
    pub fn release_ino(&mut self, ino: Ino) -> SysResult<()> {
        if !self.sb.ino_range.contains(&ino.0) {
            return Err(Errno::Eperm);
        }
        self.free_inos.insert(ino.0);
        Ok(())
    }

    /// Installs an inode under a caller-chosen number — used when a create
    /// or an update propagates in from another pack, and when building
    /// initial filesystem images.
    pub fn install_inode(&mut self, ino: Ino, inode: DiskInode) {
        self.free_inos.remove(&ino.0);
        self.itable.insert(ino, inode);
    }

    /// Whether a copy of `ino` is stored here (tombstones count: the pack
    /// has *seen* the file).
    pub fn stores(&self, ino: Ino) -> bool {
        self.itable.contains_key(&ino)
    }

    /// The stored inode, if any.
    pub fn inode(&self, ino: Ino) -> Option<&DiskInode> {
        self.itable.get(&ino)
    }

    /// All inode numbers present in this pack's table (live and deleted).
    pub fn inos(&self) -> impl Iterator<Item = Ino> + '_ {
        self.itable.keys().copied()
    }

    /// Reads logical page `lpn` of `ino`; holes and pages past EOF read
    /// as zeros.
    pub fn read_page(&mut self, ino: Ino, lpn: usize) -> SysResult<Vec<u8>> {
        let inode = self.itable.get(&ino).ok_or(Errno::Enoent)?;
        let pages = inode.pages.clone();
        match pages.lookup(lpn, &mut self.dev)? {
            None => Ok(vec![0u8; PAGE_SIZE]),
            Some(bno) => {
                let content = self.dev.read(bno)?;
                Ok(content.data()?.to_vec())
            }
        }
    }

    /// Reads the whole file as bytes (up to `size`).
    pub fn read_all(&mut self, ino: Ino) -> SysResult<Vec<u8>> {
        let size = self.itable.get(&ino).ok_or(Errno::Enoent)?.size as usize;
        let mut out = Vec::with_capacity(size);
        let npages = size.div_ceil(PAGE_SIZE);
        for lpn in 0..npages {
            let page = self.read_page(ino, lpn)?;
            let take = (size - lpn * PAGE_SIZE).min(PAGE_SIZE);
            out.extend_from_slice(&page[..take]);
        }
        Ok(out)
    }

    /// Removes the inode and frees all its blocks — the final reap after
    /// every storage site has seen a delete, or the removal of a stale
    /// replica. Does not recycle the inode number (see
    /// [`release_ino`](Self::release_ino)).
    pub fn drop_inode(&mut self, ino: Ino) -> SysResult<()> {
        let inode = self.itable.remove(&ino).ok_or(Errno::Enoent)?;
        let mapped = inode.pages.mapped_pages(&mut self.dev)?;
        for (_, bno) in mapped {
            self.dev.free(bno)?;
        }
        if let Some(ib) = inode.pages.indirect {
            self.dev.free(ib)?;
        }
        Ok(())
    }

    /// Drains accumulated disk I/O cost.
    pub fn take_io_cost(&mut self) -> Ticks {
        self.dev.take_io_cost()
    }

    /// Free data blocks remaining.
    pub fn free_blocks(&self) -> usize {
        self.dev.free_blocks()
    }

    /// Mutable access to the device, for the shadow machinery.
    pub(crate) fn dev_mut(&mut self) -> &mut BlockDevice {
        &mut self.dev
    }

    /// Mutable access to the inode table, for the shadow machinery.
    pub(crate) fn itable_mut(&mut self) -> &mut BTreeMap<Ino, DiskInode> {
        &mut self.itable
    }

    /// Bumps and returns the commit sequence number.
    pub(crate) fn next_commit_seq(&mut self) -> u64 {
        self.sb.commit_seq += 1;
        self.sb.commit_seq
    }

    /// Writes `data` as the complete contents of `ino` in one shadow
    /// commit, leaving the version vector untouched (caller manages it).
    /// Convenience for tests and image building.
    pub fn write_all(&mut self, ino: Ino, data: &[u8]) -> SysResult<()> {
        let mut sess = crate::shadow::ShadowSession::begin(self, ino)?;
        let npages = data.len().div_ceil(PAGE_SIZE);
        for lpn in 0..npages {
            let chunk = &data[lpn * PAGE_SIZE..((lpn + 1) * PAGE_SIZE).min(data.len())];
            sess.write_page(self, lpn, chunk)?;
        }
        sess.truncate_pages(self, npages)?;
        sess.set_size(data.len() as u64);
        let vv = sess.working().vv.clone();
        sess.commit(self, vv)?;
        Ok(())
    }

    /// Verifies internal allocation consistency: every block referenced by
    /// an inode is allocated, and no block is referenced twice. Used by
    /// failure-injection tests to prove crashes never corrupt the pack.
    pub fn fsck(&mut self) -> SysResult<()> {
        let mut seen = BTreeSet::new();
        let inodes: Vec<_> = self.itable.values().cloned().collect();
        for inode in inodes {
            let mapped = inode.pages.mapped_pages(&mut self.dev)?;
            for (_, bno) in mapped {
                if !self.dev.is_allocated(bno) {
                    return Err(Errno::Eio);
                }
                if !seen.insert(bno) {
                    return Err(Errno::Eio);
                }
            }
            if let Some(ib) = inode.pages.indirect {
                if !self.dev.is_allocated(ib) || !seen.insert(ib) {
                    return Err(Errno::Eio);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{FileType, FilegroupId, Perms};

    fn pack() -> Pack {
        Pack::new(PackId::new(FilegroupId(0), 0), 1..50, 256)
    }

    #[test]
    fn ino_allocation_stays_in_slice() {
        let mut p = Pack::new(PackId::new(FilegroupId(0), 1), 50..60, 64);
        for _ in 0..10 {
            let ino = p.alloc_ino().unwrap();
            assert!((50..60).contains(&ino.0));
        }
        assert_eq!(p.alloc_ino(), Err(Errno::Enospc));
    }

    #[test]
    fn release_rejects_foreign_ino() {
        let mut p = Pack::new(PackId::new(FilegroupId(0), 1), 50..60, 64);
        assert_eq!(p.release_ino(Ino(3)), Err(Errno::Eperm));
        assert!(p.release_ino(Ino(55)).is_ok());
    }

    #[test]
    fn write_all_read_all_roundtrip() {
        let mut p = pack();
        let ino = p.alloc_ino().unwrap();
        p.install_inode(
            ino,
            DiskInode::new(FileType::Untyped, Perms::FILE_DEFAULT, 0),
        );
        let data: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
        p.write_all(ino, &data).unwrap();
        assert_eq!(p.read_all(ino).unwrap(), data);
        p.fsck().unwrap();
    }

    #[test]
    fn shrinking_rewrite_frees_blocks() {
        let mut p = pack();
        let ino = p.alloc_ino().unwrap();
        p.install_inode(
            ino,
            DiskInode::new(FileType::Untyped, Perms::FILE_DEFAULT, 0),
        );
        p.write_all(ino, &vec![7u8; 5 * PAGE_SIZE]).unwrap();
        let free_after_big = p.free_blocks();
        p.write_all(ino, b"tiny").unwrap();
        assert!(p.free_blocks() > free_after_big);
        assert_eq!(p.read_all(ino).unwrap(), b"tiny");
        p.fsck().unwrap();
    }

    #[test]
    fn holes_read_as_zeros() {
        let mut p = pack();
        let ino = p.alloc_ino().unwrap();
        p.install_inode(
            ino,
            DiskInode::new(FileType::Untyped, Perms::FILE_DEFAULT, 0),
        );
        assert_eq!(p.read_page(ino, 3).unwrap(), vec![0u8; PAGE_SIZE]);
    }

    #[test]
    fn drop_inode_frees_everything() {
        let mut p = pack();
        let ino = p.alloc_ino().unwrap();
        p.install_inode(
            ino,
            DiskInode::new(FileType::Untyped, Perms::FILE_DEFAULT, 0),
        );
        let before = p.free_blocks();
        p.write_all(ino, &vec![1u8; 12 * PAGE_SIZE]).unwrap(); // uses indirect
        p.drop_inode(ino).unwrap();
        assert_eq!(p.free_blocks(), before);
        assert!(!p.stores(ino));
    }

    #[test]
    fn read_missing_inode_is_enoent() {
        let mut p = pack();
        assert_eq!(p.read_page(Ino(9), 0), Err(Errno::Enoent));
    }
}
