//! Transparent remote processes (§3 of the paper).
//!
//! "LOCUS permits one to execute programs at any site in the network,
//! subject to permission control, in a manner just as easy as executing
//! the program locally … The mechanism is entirely transparent, so that
//! existing software can be executed either locally or remotely, with no
//! change to that software" (§3.1).
//!
//! This crate implements:
//!
//! * network-wide process identifiers and a process table;
//! * `fork` (local and remote, with address-space page copy), `exec`
//!   (with execution-site selection driven by the per-process *advice
//!   list* and machine-type load-module lookup through hidden
//!   directories), and the `run` optimization ("run avoids the copy of
//!   the parent process image which occurs with fork", §3.1);
//! * descriptor inheritance across sites through the shared-offset token
//!   scheme of `locus-fs`;
//! * cross-machine signals and exit/wait with Unix semantics (§3.2);
//! * the error-handling rules of §3.3: when a child's site fails the
//!   parent receives an error signal plus detail "deposited in the
//!   parent's process structure, which can be interrogated via a new
//!   system call", and vice versa.
//!
//! Process state is held in one [`ProcMgr`]; message costs for remote
//! operations are charged to the shared simulated network so experiment
//! harnesses see fork/exec/signal traffic alongside filesystem traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mgr;
pub mod process;
pub mod proto;

pub use mgr::ProcMgr;
pub use process::{ExitStatus, ProcError, ProcState, Process, Signal};
