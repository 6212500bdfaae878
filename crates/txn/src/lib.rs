//! Nested transactions for LOCUS ([MEUL 83], cited in §1 and §4.1).
//!
//! The paper states LOCUS supplies "a full implementation of nested
//! transactions" and uses them when "changes to sets of objects are
//! related" (§4.1); the §5.6 cleanup table requires that on partition the
//! system "abort all related subtransactions in partition".
//!
//! The model follows Moss-style nesting as adapted by Mueller, Moore and
//! Popek:
//!
//! * a *top-level* transaction owns a tree of subtransactions, each of
//!   which may execute at a different site;
//! * a transaction may acquire a write lock if every current holder is an
//!   ancestor (lock inheritance);
//! * a subtransaction's updates and locks are passed to its parent on
//!   commit, and discarded (with its whole subtree) on abort;
//! * only top-level commit makes anything permanent, applied through the
//!   filesystem's atomic per-file commit (§2.3.6 shadow pages);
//! * reads see the nearest ancestor's staged version, else the committed
//!   file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod locks;
pub mod mgr;
pub mod proto;

pub use mgr::{TxnId, TxnMgr, TxnState};
