//! Per-site storage substrate: block devices, packs (physical containers
//! of a logical filegroup), disk inodes and the shadow-page atomic commit.
//!
//! The unit of replication in LOCUS is the file, not the filegroup: "any
//! physical container is incomplete; it stores only a subset of the files
//! in the subtree to which it corresponds" (§2.2.2). A [`Pack`] is one such
//! container. Each pack owns a private slice of the filegroup's inode
//! number space "to facilitate inode allocation and allow operation when
//! not all sites are accessible" (§2.3.7).
//!
//! File modification is transactional at the granularity of one file: all
//! changed pages are *shadow pages* until commit, and "the atomic commit
//! operation consists merely of moving the incore inode information to the
//! disk inode" (§2.3.6). [`shadow::ShadowSession`] reproduces that design,
//! including in-place reuse of a page already shadowed once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod disk;
pub mod inode;
pub mod pack;
pub mod shadow;

pub use buffer::{BufferCache, CacheStats};
pub use disk::{BlockContent, BlockDevice, DiskParams, PAGE_SIZE};
pub use inode::{DiskInode, PageTable, NDIRECT};
pub use pack::Pack;
pub use shadow::{Committed, ShadowSession};
