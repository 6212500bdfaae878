//! Pack superblocks.

use core::ops::Range;

use locus_types::{FilegroupId, PackId};

/// Metadata identifying a pack and its slice of the inode space.
///
/// "The entire inode space of a filegroup is partitioned so that each
/// physical container for the filegroup has a collection of inode numbers
/// that it can allocate" (§2.3.7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Superblock {
    /// Which pack this is.
    pub pack: PackId,
    /// The inode numbers this pack may allocate.
    pub(crate) ino_range: Range<u32>,
    /// Monotonic count of commits performed at this pack; the origin slot
    /// bumped in version vectors is the pack index.
    pub(crate) commit_seq: u64,
}

impl Superblock {
    /// Builds a superblock.
    pub fn new(pack: PackId, ino_range: Range<u32>) -> Self {
        Superblock {
            pack,
            ino_range,
            commit_seq: 0,
        }
    }

    /// The filegroup this pack belongs to.
    pub fn filegroup(&self) -> FilegroupId {
        self.pack.fg
    }

    /// Splits an inode space of `total` inodes evenly across `npacks`
    /// packs, giving pack `idx` its slice. Inode 0 is never allocated
    /// (reserved, as in Unix); inode 1 is the conventional root directory
    /// and always belongs to pack 0's slice.
    pub fn partition_ino_space(total: u32, npacks: u32, idx: u32) -> Range<u32> {
        debug_assert!(idx < npacks);
        let usable = total - 1; // ino 0 reserved
        let per = usable / npacks;
        let lo = 1 + idx * per;
        let hi = if idx == npacks - 1 { total } else { lo + per };
        lo..hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ino_space_partition_is_disjoint_and_covering() {
        let total = 100;
        let npacks = 3;
        let mut seen = vec![false; total as usize];
        for idx in 0..npacks {
            for i in Superblock::partition_ino_space(total, npacks, idx) {
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
        let r = Superblock::partition_ino_space(64, 4, 0);
        assert!(r.contains(&1));
    }
}
