//! The logical mount table.
//!
//! "Gluing together a collection of filegroups to construct the uniform
//! naming tree is done via the mount mechanism. … The glue which allows
//! smooth path traversals up and down the expanded naming tree is kept as
//! operating system state information. Currently this state information is
//! replicated at all sites" (§2.1). Every kernel holds an identical copy;
//! only the per-partition CSS assignment differs across partitions and is
//! maintained by the reconfiguration protocol (§5.6).

use std::collections::BTreeMap;

use locus_types::{Errno, FilegroupId, Gfid, Ino, PackId, SiteId, SysResult, Ticks};

/// Mount-table record for one logical filegroup.
#[derive(Clone, Debug)]
pub struct MountInfo {
    /// The filegroup.
    pub fg: FilegroupId,
    /// Root inode of the filegroup's subtree (conventionally 1).
    pub(crate) root_ino: Ino,
    /// Where this filegroup is mounted in the naming tree (`None` for the
    /// root filegroup).
    pub(crate) mounted_on: Option<Gfid>,
    /// Every physical container of the filegroup and the site hosting it.
    pub containers: Vec<(PackId, SiteId)>,
    /// The current synchronization site for this filegroup, as seen by
    /// this kernel's partition ("there is only one CSS for any given
    /// filegroup in any set of communicating sites", §2.3.1).
    pub css: SiteId,
    /// Epoch of the CSS assignment. Every live handoff and every
    /// reconfiguration-driven reassignment bumps it; sites adopt an
    /// assignment only if its epoch is newer than the one they hold, so
    /// stale redirects and duplicated update messages cannot roll the
    /// role backwards.
    pub css_epoch: u64,
    /// When the current CSS assignment was adopted via live handoff
    /// (`None` for build-time and reconfiguration-driven assignments).
    /// The handoff path refuses a *new* claim inside
    /// [`locus_net::CSS_CLAIM_COOLDOWN`] of this instant, which is what
    /// bounds handoff storms and upholds trace-audit invariant 9.
    pub(crate) css_claimed_at: Option<Ticks>,
}

impl MountInfo {
    /// The site hosting pack `idx`, if that pack exists.
    pub(crate) fn site_of_pack(&self, idx: u32) -> Option<SiteId> {
        self.containers
            .iter()
            .find(|(p, _)| p.idx == idx)
            .map(|(_, s)| *s)
    }

    /// The pack hosted at `site`, if any.
    pub(crate) fn pack_at(&self, site: SiteId) -> Option<PackId> {
        self.containers
            .iter()
            .find(|(_, s)| *s == site)
            .map(|(p, _)| *p)
    }

    /// The root directory's global file identifier.
    pub fn root(&self) -> Gfid {
        Gfid::new(self.fg, self.root_ino)
    }
}

/// The replicated mount table of one kernel.
#[derive(Clone, Debug, Default)]
pub struct MountTable {
    groups: BTreeMap<FilegroupId, MountInfo>,
    /// Reverse map: directory → filegroup mounted on it.
    mounts_on: BTreeMap<Gfid, FilegroupId>,
    root_fg: Option<FilegroupId>,
}

impl MountTable {
    /// An empty table.
    pub fn new() -> Self {
        MountTable::default()
    }

    /// Registers a filegroup; the first one with `mounted_on == None`
    /// becomes the root filegroup.
    pub fn add(&mut self, info: MountInfo) {
        if let Some(at) = info.mounted_on {
            self.mounts_on.insert(at, info.fg);
        } else if self.root_fg.is_none() {
            self.root_fg = Some(info.fg);
        }
        self.groups.insert(info.fg, info);
    }

    /// Looks up a filegroup.
    pub fn get(&self, fg: FilegroupId) -> SysResult<&MountInfo> {
        self.groups.get(&fg).ok_or(Errno::Enoent)
    }

    /// Mutable lookup (reconfiguration updates the CSS field).
    pub fn get_mut(&mut self, fg: FilegroupId) -> SysResult<&mut MountInfo> {
        self.groups.get_mut(&fg).ok_or(Errno::Enoent)
    }

    /// The root directory of the whole naming tree.
    pub fn root(&self) -> SysResult<Gfid> {
        let fg = self.root_fg.ok_or(Errno::Enoent)?;
        Ok(self.groups[&fg].root())
    }

    /// If a filegroup is mounted on `dir`, its root; otherwise `dir`
    /// unchanged. Pathname searching calls this on every resolved
    /// component to cross filegroup boundaries (§2.3.4).
    pub(crate) fn cross_mount_point(&self, dir: Gfid) -> Gfid {
        match self.mounts_on.get(&dir) {
            Some(fg) => self.groups[fg].root(),
            None => dir,
        }
    }

    /// All registered filegroups.
    pub fn filegroups(&self) -> impl Iterator<Item = &MountInfo> + '_ {
        self.groups.values()
    }

    /// The CSS currently assigned for `fg`.
    pub fn css_of(&self, fg: FilegroupId) -> SysResult<SiteId> {
        Ok(self.get(fg)?.css)
    }

    /// Adopts a CSS assignment if `epoch` is strictly newer than the one
    /// on record, stamping the adoption instant. Returns whether the
    /// table changed. Monotonicity makes redirect handling and update
    /// delivery order-insensitive.
    pub fn adopt_css(&mut self, fg: FilegroupId, css: SiteId, epoch: u64, now: Ticks) -> bool {
        match self.groups.get_mut(&fg) {
            Some(m) if epoch > m.css_epoch => {
                m.css = css;
                m.css_epoch = epoch;
                m.css_claimed_at = Some(now);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(fg: u32, on: Option<Gfid>, css: u32) -> MountInfo {
        MountInfo {
            fg: FilegroupId(fg),
            root_ino: Ino(1),
            mounted_on: on,
            containers: vec![(PackId::new(FilegroupId(fg), 0), SiteId(css))],
            css: SiteId(css),
            css_epoch: 0,
            css_claimed_at: None,
        }
    }

    #[test]
    fn adopt_css_is_epoch_monotone() {
        let mut t = MountTable::new();
        t.add(info(0, None, 0));
        let t1 = Ticks::millis(1);
        assert!(t.adopt_css(FilegroupId(0), SiteId(2), 3, t1));
        assert_eq!(t.css_of(FilegroupId(0)).unwrap(), SiteId(2));
        assert_eq!(t.get(FilegroupId(0)).unwrap().css_claimed_at, Some(t1));
        // An older or equal epoch never rolls the assignment back (and
        // never re-stamps the claim instant).
        let t2 = Ticks::millis(2);
        assert!(!t.adopt_css(FilegroupId(0), SiteId(1), 3, t2));
        assert!(!t.adopt_css(FilegroupId(0), SiteId(1), 2, t2));
        assert_eq!(t.css_of(FilegroupId(0)).unwrap(), SiteId(2));
        assert_eq!(t.get(FilegroupId(0)).unwrap().css_claimed_at, Some(t1));
        assert!(t.adopt_css(FilegroupId(0), SiteId(1), 4, t2));
        assert_eq!(t.css_of(FilegroupId(0)).unwrap(), SiteId(1));
        assert_eq!(t.get(FilegroupId(0)).unwrap().css_claimed_at, Some(t2));
        assert!(
            !t.adopt_css(FilegroupId(9), SiteId(1), 99, t2),
            "unknown fg"
        );
    }

    #[test]
    fn root_filegroup_is_first_unmounted() {
        let mut t = MountTable::new();
        t.add(info(0, None, 0));
        assert_eq!(t.root().unwrap(), Gfid::new(FilegroupId(0), Ino(1)));
    }

    #[test]
    fn mount_point_crossing() {
        let mut t = MountTable::new();
        t.add(info(0, None, 0));
        let at = Gfid::new(FilegroupId(0), Ino(7));
        t.add(info(1, Some(at), 1));
        assert_eq!(t.cross_mount_point(at), Gfid::new(FilegroupId(1), Ino(1)));
        let other = Gfid::new(FilegroupId(0), Ino(8));
        assert_eq!(t.cross_mount_point(other), other);
    }

    #[test]
    fn missing_filegroup_is_enoent() {
        let t = MountTable::new();
        assert_eq!(t.get(FilegroupId(9)).err(), Some(Errno::Enoent));
        assert_eq!(t.root().err(), Some(Errno::Enoent));
    }

    #[test]
    fn pack_site_lookups() {
        let mut t = MountTable::new();
        let mut i = info(0, None, 2);
        i.containers
            .push((PackId::new(FilegroupId(0), 1), SiteId(4)));
        t.add(i);
        let m = t.get(FilegroupId(0)).unwrap();
        assert_eq!(m.site_of_pack(1), Some(SiteId(4)));
        assert_eq!(m.pack_at(SiteId(2)), Some(PackId::new(FilegroupId(0), 0)));
        assert_eq!(m.pack_at(SiteId(9)), None);
    }
}
