//! Dynamic reconfiguration protocols (§5 of the paper).
//!
//! "The present strategy splits the reconfiguration into two stages:
//! first, a partition protocol runs to find fully-connected sub-networks;
//! then a merge protocol runs to merge several such sub-networks into a
//! full partition" (§5.3).
//!
//! * [`partition`] — the partition protocol: consensus by **iterative
//!   intersection** of partition sets, finding *maximum* partitions so a
//!   single communications failure never splits the network into three or
//!   more pieces (§5.4);
//! * [`merge`] — the merge protocol: an asynchronous poll of every site
//!   with the paper's **two-level adaptive timeout** (§5.5);
//! * [`reconfig`] — which of the two protocols each connected component
//!   runs, read from the failure or arrival its partition sets reveal;
//! * [`css`] — synchronization-site selection for the new partition
//!   ("the system must select, for each filegroup it supports, a new
//!   synchronization site", §5.6);
//! * [`shard`] — the pure load/health mathematics behind adaptive CSS
//!   placement across namespace shards.
//!
//! The protocols here are deliberately independent of the filesystem: they
//! operate on [`locus_net::Net`] reachability and produce decisions the
//! orchestration layer (the `locus` crate) applies to kernels, processes
//! and transactions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod css;
pub mod merge;
pub mod partition;
pub mod proto;
pub mod reconfig;
pub mod shard;

pub use css::select_css_excluding;
pub use merge::{merge_protocol, MergeOutcome, MergeTimeouts};
pub use partition::{partition_protocol, PartitionOutcome};
pub use reconfig::{establish_partitions, Established};
pub use shard::{select_placement, Candidate, PlacementConfig};
