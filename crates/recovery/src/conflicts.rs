//! Unresolvable-conflict handling and the interactive resolution tool
//! (§4.6).
//!
//! "Files with unresolved conflicts are marked so normal attempts to
//! access them fail … A trivial tool is provided by which the user may
//! rename each version of the conflicted file and make each one a normal
//! file again. Then the standard set of application programs can be used
//! to compare and merge the files."

use locus_fs::directory::Directory;
use locus_fs::ops::namei;
use locus_fs::proto::ProcFsCtx;
use locus_fs::FsCluster;
use locus_storage::ShadowSession;
use locus_types::{Errno, FileType, Gfid, Perms, SiteId, SysResult};

/// Marks one copy of `gfid` as conflicted so normal opens fail with
/// `ECONFLICT`.
pub(crate) fn mark_conflict(fsc: &FsCluster, site: SiteId, gfid: Gfid) -> SysResult<()> {
    let mut k = fsc.kernel(site);
    let Some(pack) = k.pack_of(gfid.fg) else {
        return Ok(());
    };
    if pack.inode(gfid.ino).is_none() {
        return Ok(());
    }
    let vv = pack.inode(gfid.ino).expect("checked").vv.clone();
    let mut sess = ShadowSession::begin(pack, gfid.ino)?;
    sess.set_conflict(true);
    sess.commit(pack, vv)?;
    // As in `overwrite_copy`: recovery's disk time is discarded, not
    // charged, and never left on the meter.
    pack.take_io_cost();
    k.invalidate_caches_for(gfid);
    drop(k);
    // The flag changed behind the CSS's lease table, as a commit does.
    fsc.recall_if_css(site, gfid);
    Ok(())
}

/// Sends conflict mail to a file's owner ("mail is sent to the owner(s)
/// of a given file that is in conflict, describing the problem", §4.6).
/// Failures are swallowed: recovery must proceed even if the mail spool
/// is itself unavailable.
pub(crate) fn notify_owner(fsc: &FsCluster, site: SiteId, owner: u32, body: &str) {
    let _ = namei::deliver_mail(fsc, site, owner, body);
}

/// The §4.6 resolution tool: splits the conflicted versions of
/// `dir/name` into separate ordinary files named `name.<n>`, removing the
/// original entry and clearing all conflict marks. Returns the new names.
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

    // Collect the distinct versions directly from the containers.
    let containers = fsc.kernel(site).mount.get(dirg.fg)?.containers.clone();
    let mut versions: Vec<(Vec<u8>, locus_types::VersionVector)> = Vec::new();
    for (_, csite) in containers {
        if csite != site && !fsc.net().reachable(site, csite) {
            continue;
        }
        let mut k = fsc.kernel(csite);
        let Some(pack) = k.pack_of(dirg.fg) else {
            continue;
        };
        let Some(inode) = pack.inode(gfid.ino) else {
            continue;
        };
        if inode.deleted || !inode.data_here {
            continue;
        }
        let vv = inode.vv.clone();
        if versions.iter().any(|(_, v)| *v == vv) {
            continue;
        }
        let bytes = pack.read_all(gfid.ino)?;
        pack.take_io_cost();
        versions.push((bytes, vv));
    }
    if versions.is_empty() {
        return Err(Errno::Enocopy);
    }

    // Create one ordinary file per version, then retire the conflicted
    // original.
    let mut new_names = Vec::new();
    for (i, (bytes, _)) in versions.iter().enumerate() {
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
    let all_sites: Vec<SiteId> = fsc.sites().collect();
    for s in all_sites {
        let mut k = fsc.kernel(s);
        let Some(pack) = k.pack_of(dirg.fg) else {
            continue;
        };
        if pack.inode(gfid.ino).is_some() {
            let vv = pack.inode(gfid.ino).expect("checked").vv.clone();
            let mut sess = ShadowSession::begin(pack, gfid.ino)?;
            sess.set_conflict(false);
            sess.commit(pack, vv)?;
            k.invalidate_caches_for(gfid);
        }
    }
    namei::unlink(
        fsc,
        site,
        ctx,
        &format!("{}/{}", dir_path.trim_end_matches('/'), name),
    )?;
    Ok(new_names)
}
