//! Filesystem operations: the system-call layer and the message handlers.
//!
//! Each submodule implements one slice of §2.3:
//!
//! * [`open`] — the US/CSS/SS open protocol (Figure 2) and close;
//! * [`io`] — page read/write, pipes, devices;
//! * [`commit`] — atomic commit, abort, commit notification and pull
//!   propagation;
//! * [`namei`] — pathname searching, create/delete/link/rename, hidden
//!   directories, mail delivery;
//! * [`fd`] — descriptor-level calls and the shared-offset token scheme;
//! * [`cleanup`] — the §5.6 failure actions applied to filesystem state.

#[cfg(test)]
mod cache_props;
pub mod cleanup;
pub mod commit;
pub mod fd;
pub mod io;
pub mod namei;
pub mod open;

use locus_types::{Gfid, SiteId};

use crate::proto::InodeInfo;

/// The result of an internal open: which SS serves the file and how the
/// open was performed, so the matching close can retrace its steps.
#[derive(Clone, Debug)]
pub struct OpenTicket {
    /// The open file.
    pub gfid: Gfid,
    /// The serving storage site.
    pub ss: SiteId,
    /// Whether the open is for modification.
    pub write: bool,
    /// Whether this was a purely local unsynchronized directory open that
    /// bypassed the CSS (§2.3.4).
    pub bypass: bool,
    /// Whether this open skipped global locking (internal unsynchronized
    /// read).
    pub unsync: bool,
    /// Inode information at open time.
    pub info: InodeInfo,
}
