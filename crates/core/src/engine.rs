//! Batched system calls: [`Cluster::run_epoch`].
//!
//! A batch runs each op inline, in submission order, waiting after each
//! one for every site it kept busy to go idle, then settles the
//! cluster's background work: the same results, events, statistics and
//! clock as issuing the ops one by one through the [`Cluster`] system
//! calls, with a [`locus_net::Net::wait_idle`] after each, then calling
//! [`Cluster::settle`].

use locus_fs::ops::namei;
use locus_fs::FsCluster;
use locus_proc::ProcMgr;
use locus_types::{FileType, Gfid, OpenMode, Perms, Pid, SysResult};

use crate::cluster::Cluster;

/// One operation in a [`Cluster::run_epoch`] batch. Mutating ops are
/// open-for-modify → write → commit → close composites (§2.3.5–2.3.6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EpochOp {
    /// `open(2)` for read + `read(2)` of up to `len` bytes + `close(2)`.
    OpenReadClose {
        /// The calling process.
        pid: Pid,
        /// The file, absolute or cwd-relative.
        path: String,
        /// Maximum byte count to read.
        len: usize,
    },
    /// `stat(2)`.
    Stat {
        /// The calling process.
        pid: Pid,
        /// The file, absolute or cwd-relative.
        path: String,
    },
    /// `creat(2)` (create or truncate) + `write(2)` of `data` +
    /// `close(2)` — the whole-file-overwrite pattern §2.3.6 says
    /// dominates Unix file modification. The close commits.
    WriteFile {
        /// The calling process.
        pid: Pid,
        /// The file, absolute or cwd-relative.
        path: String,
        /// The file's new contents.
        data: Vec<u8>,
    },
    /// `creat(2)` + `close(2)`: an empty file, committed.
    Create {
        /// The calling process.
        pid: Pid,
        /// The file, absolute or cwd-relative.
        path: String,
    },
    /// `mkdir(2)`.
    Mkdir {
        /// The calling process.
        pid: Pid,
        /// The directory, absolute or cwd-relative.
        path: String,
    },
    /// `unlink(2)` (rmdir semantics on an empty directory).
    Unlink {
        /// The path, absolute or cwd-relative.
        pid: Pid,
        /// The file, absolute or cwd-relative.
        path: String,
    },
}

/// The successful result of one [`EpochOp`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EpochOutcome {
    /// Bytes read by [`EpochOp::OpenReadClose`].
    Read(Vec<u8>),
    /// Attributes returned by [`EpochOp::Stat`].
    Stat(locus_fs::proto::InodeInfo),
    /// Byte count written by [`EpochOp::WriteFile`].
    Wrote(usize),
    /// Identifier created by [`EpochOp::Create`] / [`EpochOp::Mkdir`].
    Created(Gfid),
    /// [`EpochOp::Unlink`] completed.
    Unlinked,
}

/// Runs one op. The op ends once every site it kept busy is idle again
/// (detached one-ways, delayed writes, readahead), so no queue carries
/// over into the next op of the batch.
fn exec_op(fsc: &FsCluster, procs: &ProcMgr, op: &EpochOp) -> SysResult<EpochOutcome> {
    let out = exec_op_inner(fsc, procs, op);
    fsc.net().wait_idle();
    out
}

fn exec_op_inner(fsc: &FsCluster, procs: &ProcMgr, op: &EpochOp) -> SysResult<EpochOutcome> {
    match op {
        EpochOp::OpenReadClose { pid, path, len } => {
            let fd = procs.popen(fsc, *pid, path, OpenMode::Read)?;
            let read = procs.pread(fsc, *pid, fd, *len);
            let closed = procs.pclose(fsc, *pid, fd);
            let data = read?;
            closed?;
            Ok(EpochOutcome::Read(data))
        }
        EpochOp::Stat { pid, path } => {
            let p = procs.get(*pid)?;
            Ok(EpochOutcome::Stat(namei::stat(fsc, p.site, &p.ctx, path)?))
        }
        EpochOp::WriteFile { pid, path, data } => {
            let fd = procs.pcreat(fsc, *pid, path)?;
            let wrote = procs.pwrite(fsc, *pid, fd, data);
            let closed = procs.pclose(fsc, *pid, fd);
            let n = wrote?;
            closed?;
            Ok(EpochOutcome::Wrote(n))
        }
        EpochOp::Create { pid, path } => {
            let p = procs.get(*pid)?;
            let gfid = namei::create(
                fsc,
                p.site,
                &p.ctx,
                path,
                FileType::Untyped,
                Perms::FILE_DEFAULT,
            )?;
            Ok(EpochOutcome::Created(gfid))
        }
        EpochOp::Mkdir { pid, path } => {
            let p = procs.get(*pid)?;
            let gfid = namei::create(
                fsc,
                p.site,
                &p.ctx,
                path,
                FileType::Directory,
                Perms::DIR_DEFAULT,
            )?;
            Ok(EpochOutcome::Created(gfid))
        }
        EpochOp::Unlink { pid, path } => {
            let p = procs.get(*pid)?;
            namei::unlink(fsc, p.site, &p.ctx, path)?;
            Ok(EpochOutcome::Unlinked)
        }
    }
}

impl Cluster {
    /// Executes a batch of operations, returning per-op results in
    /// submission order: each op runs inline, in order, with a wait for
    /// every site to go idle after it, and the batch ends with
    /// [`FsCluster::settle`].
    pub fn run_epoch(&self, ops: &[EpochOp]) -> Vec<SysResult<EpochOutcome>> {
        if ops.is_empty() {
            return Vec::new();
        }
        let out = ops
            .iter()
            .map(|op| exec_op(&self.fsc, &self.procs, op))
            .collect();
        self.fsc.settle();
        out
    }
}
