//! The LOCUS distributed filesystem (§2 of the paper).
//!
//! This crate implements the heart of LOCUS: a network-wide, location
//! transparent, replicated tree-structured filesystem. It reproduces:
//!
//! * the three logical sites of every file access — **using site (US)**,
//!   **storage site (SS)** and **current synchronization site (CSS)** — and
//!   the full open protocol with both of the paper's optimizations
//!   (§2.3.1–2.3.3, Figure 2);
//! * network read with readahead, network write, shadow-page commit with
//!   commit notification, and pull-based background propagation (§2.3.3,
//!   §2.3.5–2.3.6);
//! * pathname searching with internal unsynchronized directory opens and
//!   *hidden directories* for machine-type–dependent load modules
//!   (§2.3.4, §2.4.1);
//! * create/delete with replica placement and per-pack inode allocation
//!   pools (§2.3.7);
//! * shared file descriptors across sites via an offset token (§3.2 fn),
//!   named pipes and remote character devices (§2.4.2), and typed mailbox
//!   files (§4.5).
//!
//! The multi-site machinery lives in [`FsCluster`], which owns one
//! [`kernel::FsKernel`] per site plus the simulated [`locus_net::Net`].
//! Higher layers (processes, transactions, recovery, reconfiguration)
//! build on this type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod cluster;
pub mod cost;
pub mod device;
pub mod directory;
pub mod handoff;
pub mod incore;
pub mod kernel;
pub mod mailbox;
pub mod mount;
pub mod namecache;
pub mod ops;
pub mod pipe;
pub mod placement;
pub mod proto;

pub use build::FsClusterBuilder;
pub use cluster::{Coherence, FsCluster, IoPolicy};
pub use directory::{DirEntry, Directory};
pub use handoff::{css_handoff, probation_probe, replica_add, replica_remove, HandoffReport};
pub use kernel::FsKernel;
pub use mount::{MountInfo, MountTable};
pub use placement::{PlacementDriver, PlacementPolicy, PlacementReport};
pub use proto::{Fd, InodeInfo, ProcFsCtx};
