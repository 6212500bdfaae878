//! Packs: physical containers of a logical filegroup.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use locus_types::{Errno, Ino, PackId, SysResult, Ticks};

use crate::disk::{BlockDevice, DiskParams, PAGE_SIZE};
use crate::inode::DiskInode;

/// One physical container: a slice of the filegroup's inode space, an
/// inode table, and a block device holding the stored files' pages.
#[derive(Debug)]
pub struct Pack {
    id: PackId,
    dev: BlockDevice,
    itable: BTreeMap<Ino, DiskInode>,
    free_inos: BTreeSet<u32>,
}

impl Pack {
    /// Creates an empty pack with `nblocks` of storage.
    pub fn new(pack: PackId, ino_range: Range<u32>, nblocks: u32) -> Self {
        Pack {
            id: pack,
            dev: BlockDevice::new(nblocks, DiskParams::default()),
            itable: BTreeMap::new(),
            free_inos: ino_range.collect(),
        }
    }

    /// Splits an inode space of `total` inodes evenly across `npacks`
    /// packs, giving pack `idx` its slice: "the entire inode space of a
    /// filegroup is partitioned so that each physical container for the
    /// filegroup has a collection of inode numbers that it can allocate"
    /// (§2.3.7). Inode 0 is never allocated (reserved, as in Unix); inode
    /// 1 is the conventional root directory and always belongs to pack
    /// 0's slice.
    pub fn partition_ino_space(total: u32, npacks: u32, idx: u32) -> Range<u32> {
        debug_assert!(idx < npacks);
        let usable = total - 1; // ino 0 reserved
        let per = usable / npacks;
        let lo = 1 + idx * per;
        let hi = if idx == npacks - 1 { total } else { lo + per };
        lo..hi
    }

    /// This pack's identifier.
    pub fn id(&self) -> PackId {
        self.id
    }

    /// The pack index used as version-vector update origin.
    pub fn origin(&self) -> u32 {
        self.id.idx
    }

    /// Allocates an inode number from this pack's private slice (§2.3.7).
    pub fn alloc_ino(&mut self) -> SysResult<Ino> {
        let n = *self.free_inos.iter().next().ok_or(Errno::Enospc)?;
        self.free_inos.remove(&n);
        Ok(Ino(n))
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

    /// Writes `data` as the complete contents of `ino` in one shadow
    /// commit, leaving the version vector untouched (caller manages it).
    /// Convenience for tests and image building. A write that fails
    /// (`Enospc`) ends the loop; the commit then aborts the session,
    /// freeing every block it took, and returns that error.
    pub fn write_all(&mut self, ino: Ino, data: &[u8]) -> SysResult<()> {
        let mut sess = crate::shadow::ShadowSession::begin(self, ino)?;
        let npages = data.len().div_ceil(PAGE_SIZE);
        for lpn in 0..npages {
            let chunk = &data[lpn * PAGE_SIZE..((lpn + 1) * PAGE_SIZE).min(data.len())];
            if sess.write_page(self, lpn, chunk).is_err() {
                break;
            }
        }
        let _ = sess.truncate_pages(self, npages);
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
    fn ino_space_partition_is_disjoint_and_covering() {
        let total = 100;
        let npacks = 3;
        let mut seen = vec![false; total as usize];
        for idx in 0..npacks {
            for i in Pack::partition_ino_space(total, npacks, idx) {
                assert!(!seen[i as usize], "ino {i} allocated to two packs");
                seen[i as usize] = true;
            }
        }
        assert!(!seen[0], "ino 0 must stay reserved");
        assert!(
            seen[1..].iter().all(|&s| s),
            "every ino must be allocatable"
        );
    }

    #[test]
    fn root_ino_belongs_to_pack_zero() {
        let r = Pack::partition_ino_space(64, 4, 0);
        assert!(r.contains(&1));
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
    fn a_write_all_that_runs_out_of_space_frees_every_block() {
        let mut p = Pack::new(PackId::new(FilegroupId(0), 0), 1..50, 12);
        let ino = p.alloc_ino().unwrap();
        p.install_inode(
            ino,
            DiskInode::new(FileType::Untyped, Perms::FILE_DEFAULT, 0),
        );
        assert_eq!(p.free_blocks(), 12);
        assert_eq!(
            p.write_all(ino, &vec![7u8; 20 * PAGE_SIZE]),
            Err(Errno::Enospc)
        );
        assert_eq!(p.free_blocks(), 12, "the aborted session leaks no block");
        assert_eq!(p.read_all(ino).unwrap(), b"", "the file is as it was");
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
    fn read_missing_inode_is_enoent() {
        let mut p = pack();
        assert_eq!(p.read_page(Ino(9), 0), Err(Errno::Enoent));
    }
}
