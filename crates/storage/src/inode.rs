//! Disk inodes and per-file page tables.
//!
//! The inode is "a collection of information about the file" (§4.4) and is
//! treated "as part of the file from the recovery point of view": the
//! version vector lives in the inode and is committed with it. The page
//! table has direct slots plus one indirect block, reproducing §2.3.6's
//! "large files that are structured through indirect pages".

use locus_types::{Errno, FileType, Perms, SysResult, Ticks, VersionVector};

use crate::disk::{BlockContent, BlockDevice, BlockNo, PAGE_SIZE};

/// Number of direct page slots in an inode.
pub const NDIRECT: usize = 10;

/// Entries in one indirect block.
pub(crate) const NINDIRECT: usize = PAGE_SIZE / 4;

/// The per-file map from logical page number to physical block.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PageTable {
    /// Direct block pointers.
    pub direct: [Option<BlockNo>; NDIRECT],
    /// One single-indirect block holding further pointers.
    pub(crate) indirect: Option<BlockNo>,
}

impl PageTable {
    /// Largest representable logical page number + 1.
    pub const MAX_PAGES: usize = NDIRECT + NINDIRECT;

    /// Looks up the physical block of logical page `lpn`, reading the
    /// indirect block from `dev` if needed. `Ok(None)` means a hole.
    pub fn lookup(&self, lpn: usize, dev: &mut BlockDevice) -> SysResult<Option<BlockNo>> {
        if lpn < NDIRECT {
            return Ok(self.direct[lpn]);
        }
        let idx = lpn - NDIRECT;
        if idx >= NINDIRECT {
            return Err(Errno::Einval);
        }
        match self.indirect {
            None => Ok(None),
            Some(ib) => match dev.read(ib)? {
                BlockContent::Index(table) => Ok(table.get(idx).copied().flatten()),
                BlockContent::Data(_) => Err(Errno::Eio),
            },
        }
    }

    /// Points logical page `lpn` at `bno`, allocating or updating the
    /// indirect block as required. Returns the previous mapping.
    pub fn map(
        &mut self,
        lpn: usize,
        bno: Option<BlockNo>,
        dev: &mut BlockDevice,
    ) -> SysResult<Option<BlockNo>> {
        if lpn < NDIRECT {
            return Ok(std::mem::replace(&mut self.direct[lpn], bno));
        }
        let idx = lpn - NDIRECT;
        if idx >= NINDIRECT {
            return Err(Errno::Einval);
        }
        match self.indirect {
            None => {
                if bno.is_none() {
                    return Ok(None);
                }
                let mut table = vec![None; NINDIRECT];
                table[idx] = bno;
                self.indirect = Some(dev.alloc(BlockContent::Index(table))?);
                Ok(None)
            }
            Some(ib) => {
                let mut table = match dev.read(ib)? {
                    BlockContent::Index(t) => t,
                    BlockContent::Data(_) => return Err(Errno::Eio),
                };
                let old = std::mem::replace(&mut table[idx], bno);
                dev.write(ib, BlockContent::Index(table))?;
                Ok(old)
            }
        }
    }

    /// All mapped `(lpn, block)` pairs.
    pub(crate) fn mapped_pages(&self, dev: &mut BlockDevice) -> SysResult<Vec<(usize, BlockNo)>> {
        let mut out = Vec::new();
        for (lpn, slot) in self.direct.iter().enumerate() {
            if let Some(b) = slot {
                out.push((lpn, *b));
            }
        }
        if let Some(ib) = self.indirect {
            match dev.read(ib)? {
                BlockContent::Index(table) => {
                    for (idx, slot) in table.iter().enumerate() {
                        if let Some(b) = slot {
                            out.push((NDIRECT + idx, *b));
                        }
                    }
                }
                BlockContent::Data(_) => return Err(Errno::Eio),
            }
        }
        Ok(out)
    }
}

/// The on-disk inode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiskInode {
    /// File type, used by recovery to pick a merge strategy (§4.3).
    pub ftype: FileType,
    /// Permission bits.
    pub perms: Perms,
    /// Owning user (notified by mail on unresolvable conflicts, §4.6).
    pub owner: u32,
    /// File length in bytes.
    pub size: u64,
    /// Hard-link count.
    pub nlink: u32,
    /// The copy's version vector (§2.2.2).
    pub vv: VersionVector,
    /// Page table.
    pub pages: PageTable,
    /// Modification time (virtual).
    pub mtime: Ticks,
    /// Set when the file was deleted: the tombstone lets delete propagate
    /// to other packs at merge (§4.4 rules b/d).
    pub deleted: bool,
    /// Set when a merge detected an unresolvable conflict; "normal
    /// attempts to access them fail" (§4.6).
    pub conflict: bool,
    /// Pack indexes that store this file's *data* — the CSS "has a list of
    /// packs which store the file" because inode information is replicated
    /// in every container (§2.3.3). Replicated with the inode.
    pub replicas: Vec<u32>,
    /// Whether *this copy* holds the data pages, or is metadata only
    /// (containers store "only a subset of the files", §2.2.2).
    pub data_here: bool,
}

impl DiskInode {
    /// A fresh empty inode of the given type.
    pub fn new(ftype: FileType, perms: Perms, owner: u32) -> Self {
        DiskInode {
            ftype,
            perms,
            owner,
            size: 0,
            nlink: 1,
            vv: VersionVector::new(),
            pages: PageTable::default(),
            mtime: Ticks::ZERO,
            deleted: false,
            conflict: false,
            replicas: Vec::new(),
            data_here: true,
        }
    }

    /// Number of logical pages covered by `size`.
    pub fn page_count(&self) -> usize {
        self.size.div_ceil(PAGE_SIZE as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskParams;

    fn dev() -> BlockDevice {
        BlockDevice::new(1024, DiskParams::default())
    }

    #[test]
    fn direct_map_and_lookup() {
        let mut d = dev();
        let mut pt = PageTable::default();
        let b = d.alloc(BlockContent::zeroed()).unwrap();
        assert_eq!(pt.map(3, Some(b), &mut d).unwrap(), None);
        assert_eq!(pt.lookup(3, &mut d).unwrap(), Some(b));
        assert_eq!(pt.lookup(4, &mut d).unwrap(), None);
    }

    #[test]
    fn indirect_pages_allocate_index_block() {
        let mut d = dev();
        let mut pt = PageTable::default();
        let b = d.alloc(BlockContent::zeroed()).unwrap();
        let lpn = NDIRECT + 5;
        pt.map(lpn, Some(b), &mut d).unwrap();
        assert!(pt.indirect.is_some());
        assert_eq!(pt.lookup(lpn, &mut d).unwrap(), Some(b));
        assert_eq!(pt.lookup(NDIRECT, &mut d).unwrap(), None);
    }

    #[test]
    fn map_returns_previous_binding() {
        let mut d = dev();
        let mut pt = PageTable::default();
        let b1 = d.alloc(BlockContent::zeroed()).unwrap();
        let b2 = d.alloc(BlockContent::zeroed()).unwrap();
        pt.map(0, Some(b1), &mut d).unwrap();
        assert_eq!(pt.map(0, Some(b2), &mut d).unwrap(), Some(b1));
    }

    #[test]
    fn out_of_range_page_is_einval() {
        let mut d = dev();
        let pt = PageTable::default();
        assert_eq!(pt.lookup(PageTable::MAX_PAGES, &mut d), Err(Errno::Einval));
    }

    #[test]
    fn mapped_pages_walks_both_levels() {
        let mut d = dev();
        let mut pt = PageTable::default();
        let b1 = d.alloc(BlockContent::zeroed()).unwrap();
        let b2 = d.alloc(BlockContent::zeroed()).unwrap();
        pt.map(1, Some(b1), &mut d).unwrap();
        pt.map(NDIRECT + 2, Some(b2), &mut d).unwrap();
        let pages = pt.mapped_pages(&mut d).unwrap();
        assert_eq!(pages, vec![(1, b1), (NDIRECT + 2, b2)]);
    }

    #[test]
    fn page_count_rounds_up() {
        let mut ino = DiskInode::new(FileType::Untyped, Perms::FILE_DEFAULT, 0);
        ino.size = 1;
        assert_eq!(ino.page_count(), 1);
        ino.size = PAGE_SIZE as u64;
        assert_eq!(ino.page_count(), 1);
        ino.size = PAGE_SIZE as u64 + 1;
        assert_eq!(ino.page_count(), 2);
    }
}
