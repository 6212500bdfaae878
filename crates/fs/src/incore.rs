//! Incore inode structures and role-specific open state.
//!
//! "If the inode information is not already in an incore inode structure,
//! a structure is allocated" (§2.3.3). One `Incore` per
//! `<filegroup, inode>` per site carries the state for whichever of the
//! three logical roles (US, SS, CSS) this site is playing for the file —
//! "since there are three possible independent roles a given site can
//! play (US, CSS, SS), it can therefore operate in one of eight modes"
//! (§2.3.1).

use std::collections::{BTreeMap, BTreeSet};

use locus_types::{Errno, OpenMode, SiteId, SysResult};

use crate::proto::InodeInfo;

/// Synchronization state kept at the CSS for one file.
///
/// "Enough state information is kept incore at the CSS to support those
/// synchronization decisions. For example, if the policy allows only a
/// single open for modification, the site where that modification is
/// ongoing would be kept incore at the CSS" (§2.3.3).
#[derive(Clone, Debug, Default)]
pub(crate) struct CssState {
    /// Site with the open-for-modification, if any (single-writer policy).
    pub writer: Option<SiteId>,
    /// Reader USs and their open counts.
    pub readers: BTreeMap<SiteId, u32>,
    /// The SS serving each US ("the CSS must know all the sites currently
    /// serving as storage sites", §2.3.3).
    pub(crate) ss_of: BTreeMap<SiteId, SiteId>,
}

impl CssState {
    /// Registers an open decision.
    pub fn register(&mut self, us: SiteId, ss: SiteId, mode: OpenMode) -> SysResult<()> {
        if mode.is_write() {
            // Re-registration by the site already holding the write slot
            // is a retried open whose reply was lost; the single
            // registration stands.
            if self.writer.is_some_and(|w| w != us) {
                return Err(Errno::Etxtbsy);
            }
            self.writer = Some(us);
        } else {
            *self.readers.entry(us).or_insert(0) += 1;
        }
        self.ss_of.insert(us, ss);
        Ok(())
    }

    /// Deregisters a close.
    pub(crate) fn deregister(&mut self, us: SiteId, write: bool) {
        if write {
            if self.writer == Some(us) {
                self.writer = None;
            }
        } else if let Some(n) = self.readers.get_mut(&us) {
            *n -= 1;
            if *n == 0 {
                self.readers.remove(&us);
            }
        }
        if self.writer != Some(us) && !self.readers.contains_key(&us) {
            self.ss_of.remove(&us);
        }
    }

    /// Whether any opens remain registered.
    pub(crate) fn in_use(&self) -> bool {
        self.writer.is_some() || !self.readers.is_empty()
    }

    /// Drops all state belonging to sites outside `alive` — the lock-table
    /// cleanup run when the partition changes (§5.6).
    pub(crate) fn retain_sites(&mut self, alive: &BTreeSet<SiteId>) {
        if let Some(w) = self.writer {
            if !alive.contains(&w) {
                self.writer = None;
            }
        }
        self.readers.retain(|s, _| alive.contains(s));
        self.ss_of
            .retain(|us, ss| alive.contains(us) && alive.contains(ss));
    }
}

/// The incore inode of one file at one site.
#[derive(Clone, Debug)]
pub(crate) struct Incore {
    /// Latest known disk-inode information (possibly filled from a CSS
    /// response rather than local disk, §2.3.3).
    pub info: InodeInfo,
    /// US role: number of opens issued from this site.
    pub(crate) opens_here: u32,
    /// US role: the storage site serving this site's opens.
    pub ss: Option<SiteId>,
    /// SS role: the USs this site is currently serving ("the SS must keep
    /// track, for each file, of all the USs that it is currently serving",
    /// §2.3.3).
    pub serving: BTreeSet<SiteId>,
    /// CSS role synchronization state.
    pub css: Option<CssState>,
}

impl Incore {
    /// A fresh incore structure around `info`.
    pub fn new(info: InodeInfo) -> Self {
        Incore {
            info,
            opens_here: 0,
            ss: None,
            serving: BTreeSet::new(),
            css: None,
        }
    }

    /// Whether the structure can be deallocated (no role holds it).
    pub fn idle(&self) -> bool {
        self.opens_here == 0
            && self.serving.is_empty()
            && self.css.as_ref().map(|c| !c.in_use()).unwrap_or(true)
    }

    /// The CSS state, allocating it on first use.
    pub(crate) fn css_mut(&mut self) -> &mut CssState {
        self.css.get_or_insert_with(CssState::default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{FileType, Perms, Ticks, VersionVector};

    fn info() -> InodeInfo {
        InodeInfo {
            ftype: FileType::Untyped,
            perms: Perms::FILE_DEFAULT,
            owner: 0,
            size: 0,
            nlink: 1,
            vv: VersionVector::new(),
            mtime: Ticks::ZERO,
            deleted: false,
            conflict: false,
            replicas: vec![0],
        }
    }

    #[test]
    fn single_writer_policy() {
        let mut css = CssState::default();
        css.register(SiteId(1), SiteId(2), OpenMode::Write).unwrap();
        assert_eq!(
            css.register(SiteId(3), SiteId(2), OpenMode::Write),
            Err(Errno::Etxtbsy)
        );
        // Readers are allowed concurrently with the writer (§2.3.6 fn).
        css.register(SiteId(3), SiteId(2), OpenMode::Read).unwrap();
        css.deregister(SiteId(1), true);
        css.register(SiteId(3), SiteId(2), OpenMode::Write).unwrap();
    }

    #[test]
    fn reader_counts_nest() {
        let mut css = CssState::default();
        css.register(SiteId(1), SiteId(1), OpenMode::Read).unwrap();
        css.register(SiteId(1), SiteId(1), OpenMode::Read).unwrap();
        css.deregister(SiteId(1), false);
        assert!(css.in_use());
        css.deregister(SiteId(1), false);
        assert!(!css.in_use());
    }

    #[test]
    fn retain_sites_drops_departed_partition_members() {
        let mut css = CssState::default();
        css.register(SiteId(1), SiteId(2), OpenMode::Write).unwrap();
        css.register(SiteId(3), SiteId(3), OpenMode::Read).unwrap();
        let alive: BTreeSet<_> = [SiteId(3)].into_iter().collect();
        css.retain_sites(&alive);
        assert_eq!(css.writer, None, "writer at departed site dropped");
        assert!(css.readers.contains_key(&SiteId(3)));
        assert!(!css.ss_of.contains_key(&SiteId(1)));
    }

    #[test]
    fn incore_idle_tracking() {
        let mut inc = Incore::new(info());
        assert!(inc.idle());
        inc.opens_here = 1;
        assert!(!inc.idle());
        inc.opens_here = 0;
        inc.serving.insert(SiteId(4));
        assert!(!inc.idle());
        inc.serving.clear();
        inc.css_mut()
            .register(SiteId(1), SiteId(1), OpenMode::Read)
            .unwrap();
        assert!(!inc.idle());
    }
}
