//! LOCUS: a network-transparent, replicated, Unix-compatible distributed
//! operating system — a faithful Rust reproduction of Walker, Popek,
//! English, Kline and Thiel, *The LOCUS Distributed Operating System*,
//! SOSP 1983.
//!
//! This crate is the facade: it assembles the distributed filesystem
//! (`locus-fs`), remote processes (`locus-proc`), nested transactions
//! (`locus-txn`), partition recovery (`locus-recovery`) and the dynamic
//! reconfiguration protocols (`locus-topology`) into one [`Cluster`] with
//! a Unix-flavoured system-call surface.
//!
//! # Quick start
//!
//! ```
//! use locus::{Cluster, OpenMode};
//!
//! // Three VAXen; the root filegroup is replicated on sites 0 and 1.
//! let cluster = Cluster::builder()
//!     .vax_sites(3)
//!     .filegroup("root", &[0, 1])
//!     .build();
//!
//! // A shell on site 2 (which stores nothing) creates a file: fully
//! // transparently, the data lands on the replicated storage sites.
//! let sh = cluster.login(locus::SiteId(2), 100).unwrap();
//! let fd = cluster.creat(sh, "/readme").unwrap();
//! cluster.write(sh, fd, b"all the network is one machine").unwrap();
//! cluster.close(sh, fd).unwrap();
//!
//! // Any site reads it back by the same name.
//! let sh0 = cluster.login(locus::SiteId(0), 100).unwrap();
//! let fd = cluster.open(sh0, "/readme", OpenMode::Read).unwrap();
//! assert_eq!(cluster.read(sh0, fd, 128).unwrap(), b"all the network is one machine");
//! cluster.close(sh0, fd).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod engine;
pub mod reconfig;

pub use cluster::{Cluster, ClusterBuilder};
pub use engine::{EpochOp, EpochOutcome};
pub use locus_net::EngineKind;
pub use locus_fs::proto::InodeInfo;
pub use locus_recovery::{FileOutcome, RecoveryReport};
pub use locus_topology::{FailureAction, ResourceSituation};
pub use locus_types::{
    Errno, FileType, FilegroupId, Gfid, Ino, MachineType, OpenMode, Perms, Pid, SiteId, SysResult,
    Ticks, VersionVector, VvOrder,
};
pub use reconfig::ReconfigReport;

/// Re-export of the process-level types.
pub use locus_proc::{ExitStatus, ProcError, Signal};
/// Re-export of the transaction identifiers.
pub use locus_txn::{TxnId, TxnState};
