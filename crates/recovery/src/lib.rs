//! Partition recovery and reconciliation (§4 of the paper).
//!
//! "The basic approach in LOCUS is to maintain, within a single partition,
//! strict synchronization among copies of a file … Each partition operates
//! independently, however. Upon merge, conflicts are reliably detected.
//! For those data types which the system understands, automatic
//! reconciliation is done. Otherwise, the problem is reported to a higher
//! level … Eventually, if necessary, the user is notified and tools are
//! provided by which he can interactively merge the copies" (§4).
//!
//! This crate implements the whole hierarchy:
//!
//! * version-vector conflict **detection** across the copies of every file
//!   (\[PARK83\], §4.2);
//! * automatic **propagation** of dominating versions to stale copies;
//! * the *deleted-in-one-partition, modified-in-another* rule — the file
//!   "wants to be saved" (§4.4 rule d), so the delete is undone;
//! * the hierarchical **directory merge** algorithm with name-conflict
//!   renaming and owner notification by mail (§4.4);
//! * **mailbox merge** (§4.5);
//! * conflict **marking** of untyped/database files so normal access
//!   fails, mail to the owners, and the interactive **split tool** that
//!   turns each version back into a normal file (§4.6);
//! * **demand recovery** of a single file "out of order to allow access to
//!   it with only a small delay" (§4.4).
//!
//! Recovery runs "as a privileged application program" (§5.3), outside
//! the synchronized open path. What each copy looks like it learns from
//! one bulk inventory reply per container (`proto::InventoryReply`); it
//! reads other sites' copies as a pull does, commits a merged version at
//! one data replica, and the other containers catch up by commit
//! notification and pull (§2.3.6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conflicts;
pub mod dir_merge;
pub mod filegroup;
pub mod mail_merge;
pub mod managers;
pub mod proto;
pub mod report;

pub use filegroup::{reconcile_file, reconcile_filegroup, reconcile_filegroup_with};
pub use managers::MergeManagers;
pub use report::{FileOutcome, RecoveryReport};
