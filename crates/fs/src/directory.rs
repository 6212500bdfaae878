//! Directory file format and entry operations.
//!
//! "A directory can be viewed as a set of records, each one containing the
//! character string comprising one element in the path name of a file.
//! Associated with that string is an index that points at a descriptor
//! (inode)" (§4.4). Directories are ordinary replicated files whose pages
//! travel over the same read/write protocols as any other file; this
//! module only defines their byte format.
//!
//! Removed entries leave *tombstones* so that a delete performed in one
//! partition can propagate at merge time (§4.4 rule b needs deletion
//! information, exactly as the mailbox discussion in §4.5 notes).

use locus_types::{Errno, Ino, SysResult};

/// Longest permitted entry name.
pub const NAME_MAX: usize = 255;

/// One directory record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// Component name.
    pub name: String,
    /// Inode the name binds to.
    pub ino: Ino,
    /// Whether the record is a tombstone (the name was removed).
    pub removed: bool,
}

/// An in-memory directory image: the parse of a directory file's bytes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Directory {
    entries: Vec<DirEntry>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Parses a directory file image.
    ///
    /// Format per record: `status u8 | ino u32 LE | name_len u8 | name`.
    pub fn parse(bytes: &[u8]) -> SysResult<Self> {
        let mut entries = Vec::new();
        let mut i = 0usize;
        while i < bytes.len() {
            if bytes.len() - i < 6 {
                return Err(Errno::Eio);
            }
            let status = bytes[i];
            let ino = u32::from_le_bytes([bytes[i + 1], bytes[i + 2], bytes[i + 3], bytes[i + 4]]);
            let nlen = bytes[i + 5] as usize;
            i += 6;
            if bytes.len() - i < nlen {
                return Err(Errno::Eio);
            }
            let name = std::str::from_utf8(&bytes[i..i + nlen])
                .map_err(|_| Errno::Eio)?
                .to_owned();
            i += nlen;
            entries.push(DirEntry {
                name,
                ino: Ino(ino),
                removed: status == 0,
            });
        }
        Ok(Directory { entries })
    }

    /// Serializes back to the on-disk byte format.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for e in &self.entries {
            out.push(if e.removed { 0 } else { 1 });
            out.extend_from_slice(&e.ino.0.to_le_bytes());
            out.push(e.name.len() as u8);
            out.extend_from_slice(e.name.as_bytes());
        }
        out
    }

    /// Looks up a live entry.
    pub fn lookup(&self, name: &str) -> Option<Ino> {
        self.entries
            .iter()
            .find(|e| !e.removed && e.name == name)
            .map(|e| e.ino)
    }

    /// All records, tombstones included (the merge algorithm needs both).
    pub fn records(&self) -> &[DirEntry] {
        &self.entries
    }

    /// Live entries, in insertion order.
    pub fn live(&self) -> impl Iterator<Item = &DirEntry> + '_ {
        self.entries.iter().filter(|e| !e.removed)
    }

    /// Inserts a live entry; `Eexist` if the name is already live, and the
    /// tombstone of a previously removed name is resurrected in place.
    pub fn insert(&mut self, name: &str, ino: Ino) -> SysResult<()> {
        if name.is_empty() || name.len() > NAME_MAX {
            return Err(Errno::Enametoolong);
        }
        if name.contains('/') {
            return Err(Errno::Einval);
        }
        if self.lookup(name).is_some() {
            return Err(Errno::Eexist);
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.name == name) {
            e.ino = ino;
            e.removed = false;
            return Ok(());
        }
        self.entries.push(DirEntry {
            name: name.to_owned(),
            ino,
            removed: false,
        });
        Ok(())
    }

    /// Removes a live entry, leaving a tombstone; returns the inode it
    /// named.
    pub fn remove(&mut self, name: &str) -> SysResult<Ino> {
        match self
            .entries
            .iter_mut()
            .find(|e| !e.removed && e.name == name)
        {
            Some(e) => {
                e.removed = true;
                Ok(e.ino)
            }
            None => Err(Errno::Enoent),
        }
    }

    /// Renames a live entry in place (used by the name-conflict rule of
    /// the merge algorithm as well as the `rename` system call).
    pub fn rename(&mut self, from: &str, to: &str) -> SysResult<()> {
        if self.lookup(to).is_some() {
            return Err(Errno::Eexist);
        }
        let ino = self.remove(from)?;
        self.insert(to, ino)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty_and_populated() {
        let mut d = Directory::new();
        assert_eq!(Directory::parse(&d.serialize()).unwrap(), d);
        d.insert("passwd", Ino(12)).unwrap();
        d.insert("group", Ino(13)).unwrap();
        d.remove("passwd").unwrap();
        let d2 = Directory::parse(&d.serialize()).unwrap();
        assert_eq!(d, d2);
        assert_eq!(d2.lookup("group"), Some(Ino(13)));
        assert_eq!(d2.lookup("passwd"), None);
        assert_eq!(d2.records().len(), 2, "tombstone preserved");
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut d = Directory::new();
        d.insert("x", Ino(1)).unwrap();
        assert_eq!(d.insert("x", Ino(2)), Err(Errno::Eexist));
    }

    #[test]
    fn tombstone_resurrection_reuses_record() {
        let mut d = Directory::new();
        d.insert("x", Ino(1)).unwrap();
        d.remove("x").unwrap();
        d.insert("x", Ino(9)).unwrap();
        assert_eq!(d.lookup("x"), Some(Ino(9)));
        assert_eq!(d.records().len(), 1);
    }

    #[test]
    fn bad_names_rejected() {
        let mut d = Directory::new();
        assert_eq!(d.insert("", Ino(1)), Err(Errno::Enametoolong));
        assert_eq!(d.insert("a/b", Ino(1)), Err(Errno::Einval));
        let long = "x".repeat(NAME_MAX + 1);
        assert_eq!(d.insert(&long, Ino(1)), Err(Errno::Enametoolong));
    }

    #[test]
    fn remove_missing_is_enoent() {
        let mut d = Directory::new();
        assert_eq!(d.remove("ghost"), Err(Errno::Enoent));
        d.insert("f", Ino(1)).unwrap();
        d.remove("f").unwrap();
        assert_eq!(d.remove("f"), Err(Errno::Enoent), "tombstone not removable");
    }

    #[test]
    fn rename_moves_binding() {
        let mut d = Directory::new();
        d.insert("old", Ino(5)).unwrap();
        d.rename("old", "new").unwrap();
        assert_eq!(d.lookup("new"), Some(Ino(5)));
        assert_eq!(d.lookup("old"), None);
        d.insert("third", Ino(6)).unwrap();
        assert_eq!(d.rename("third", "new"), Err(Errno::Eexist));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Directory::parse(&[1, 2, 3]).is_err());
        // Truncated name.
        assert!(Directory::parse(&[1, 0, 0, 0, 0, 5, b'a']).is_err());
        // Invalid UTF-8 name.
        assert!(Directory::parse(&[1, 0, 0, 0, 0, 1, 0xFF]).is_err());
    }
}
