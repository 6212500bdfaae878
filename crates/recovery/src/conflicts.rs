//! Unresolvable-conflict handling and the interactive resolution tool
//! (§4.6).
//!
//! "Files with unresolved conflicts are marked so normal attempts to
//! access them fail … A trivial tool is provided by which the user may
//! rename each version of the conflicted file and make each one a normal
//! file again. Then the standard set of application programs can be used
//! to compare and merge the files."

use locus_fs::directory::Directory;
use locus_fs::ops::{commit, namei};
use locus_fs::proto::ProcFsCtx;
use locus_fs::FsCluster;
use locus_net::RpcEngine;
use locus_types::{Errno, FileType, Gfid, Perms, SiteId, SysResult};

use crate::filegroup::{read_version, stored_versions, Inventory};
use crate::proto::{RecMsg, RECOVERY_MSG_BYTES};

/// Sets (or clears) the conflict mark on the copies of `gfid` at `sites`:
/// one `RECOVERY mark` RPC per container, fanned out from `from` (a
/// procedure call at `from` itself), each container marking its own
/// copy. `Esitedown` if any is abandoned.
pub(crate) fn mark_copies(
    fsc: &FsCluster,
    from: SiteId,
    gfid: Gfid,
    sites: &[SiteId],
    conflict: bool,
) -> SysResult<()> {
    let acks = RpcEngine::new(fsc.retry_policy()).fan_out(
        fsc.net(),
        from,
        sites,
        RecMsg::Mark { gfid, conflict },
        |_| RECOVERY_MSG_BYTES,
        |site, msg| match msg {
            RecMsg::Mark { gfid, conflict } => commit::set_conflict_mark(fsc, site, gfid, conflict),
            _ => Err(Errno::Eio),
        },
    );
    for ack in acks {
        ack.map_err(|_| Errno::Esitedown)??;
    }
    Ok(())
}

/// The §4.6 resolution tool: splits the conflicted versions of
/// `dir/name` into separate ordinary files named `name.<n>`, removing the
/// original entry and clearing the conflict marks of every reachable
/// copy. Returns the new names.
pub fn split_conflict(
    fsc: &FsCluster,
    site: SiteId,
    ctx: &ProcFsCtx,
    dir_path: &str,
    name: &str,
) -> SysResult<Vec<String>> {
    let dirg = namei::resolve(fsc, site, ctx, dir_path)?;
    let dir_bytes = namei::read_file_internal(fsc, site, dirg)?;
    let dir = Directory::parse(&dir_bytes)?;
    let ino = dir.lookup(name).ok_or(Errno::Enoent)?;
    let gfid = Gfid::new(dirg.fg, ino);

    // Each distinct stored version, read as the merge procedure reads
    // one: in place from this site's own copy, else over the wire.
    let inv = Inventory::take(fsc, site, gfid.fg, Some(gfid.ino))?;
    let copies = inv.copies(gfid.ino);
    let vvs = stored_versions(copies);
    if vvs.is_empty() {
        return Err(Errno::Enocopy);
    }
    let versions = vvs
        .into_iter()
        .map(|vv| read_version(fsc, site, gfid, copies, vv))
        .collect::<SysResult<Vec<_>>>()?;

    // Create one ordinary file per version, then retire the conflicted
    // original.
    let mut new_names = Vec::new();
    for (i, bytes) in versions.iter().enumerate() {
        let new_name = format!("{name}.{}", i + 1);
        let path = format!("{}/{}", dir_path.trim_end_matches('/'), new_name);
        let new_gfid = namei::create(
            fsc,
            site,
            ctx,
            &path,
            FileType::Untyped,
            Perms::FILE_DEFAULT,
        )?;
        namei::write_file_internal(fsc, site, new_gfid, bytes)?;
        new_names.push(new_name);
    }
    // Clear the conflict marks so the tombstoning commit can proceed.
    let holders: Vec<SiteId> = copies.iter().map(|c| c.site).collect();
    mark_copies(fsc, site, gfid, &holders, false)?;
    namei::unlink(
        fsc,
        site,
        ctx,
        &format!("{}/{}", dir_path.trim_end_matches('/'), name),
    )?;
    Ok(new_names)
}
