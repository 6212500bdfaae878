//! CPU cost constants for the simulated kernel paths.
//!
//! Calibrated so the *relationships* the paper reports hold: local access
//! comparable to conventional Unix, remote page access roughly twice the
//! CPU overhead of local, remote open significantly more expensive than
//! local open (§2.2.1 fn 1, §6). Absolute values approximate a VAX-11/750.

use locus_types::Ticks;

/// Fixed system-call entry/exit overhead.
pub const SYSCALL_CPU: Ticks = Ticks::micros(200);

/// Serving one page out of the buffer cache / copying to the user: the
/// dominant CPU cost of a local 1 KiB read on a VAX-750.
pub const PAGE_SERVICE_CPU: Ticks = Ticks::micros(2_000);

/// Extra request setup/teardown at the using site for a remote operation.
pub(crate) const REMOTE_SETUP_CPU: Ticks = Ticks::micros(500);

/// Directory entry scan cost per page searched.
pub const DIR_SCAN_CPU: Ticks = Ticks::micros(300);

/// Processing an open/close/commit control message at a serving site.
pub(crate) const CONTROL_CPU: Ticks = Ticks::micros(400);

/// Approximate on-the-wire size of a control (non-data) message.
pub(crate) const CONTROL_MSG_BYTES: usize = 64;

/// Approximate size of an inode-information reply.
pub(crate) const INODE_MSG_BYTES: usize = 160;
