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
//!
//! Each record also carries the file type of the inode it names, so a
//! pathname search learns whether an entry is a hidden directory (§2.4.1)
//! from the directory it has just read, without interrogating the inode.
//! The type is committed in the same record as the binding it describes:
//! an inode number freed and reused under another type can only come
//! back through a new record.

use locus_types::{Errno, FileType, Ino, SysResult};

/// Longest permitted entry name.
pub(crate) const NAME_MAX: usize = 255;

/// One directory record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// Component name.
    pub name: String,
    /// Inode the name binds to.
    pub ino: Ino,
    /// File type of that inode, kept with the binding.
    pub ftype: FileType,
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
    /// Format per record: `status u8 | ino u32 LE | name_len u8 | name`,
    /// where bit 0 of `status` is set for a live entry and bits 1–3 hold
    /// the file type.
    pub fn parse(bytes: &[u8]) -> SysResult<Self> {
        let mut entries = Vec::new();
        let mut i = 0usize;
        while i < bytes.len() {
            if bytes.len() - i < 6 {
                return Err(Errno::Eio);
            }
            let status = bytes[i];
            let ftype = ftype_from_code(status >> 1).ok_or(Errno::Eio)?;
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
                ftype,
                removed: status & 1 == 0,
            });
        }
        Ok(Directory { entries })
    }

    /// Serializes back to the on-disk byte format.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for e in &self.entries {
            out.push((ftype_code(e.ftype) << 1) | u8::from(!e.removed));
            out.extend_from_slice(&e.ino.0.to_le_bytes());
            out.push(e.name.len() as u8);
            out.extend_from_slice(e.name.as_bytes());
        }
        out
    }

    /// Looks up a live entry.
    pub fn lookup(&self, name: &str) -> Option<Ino> {
        self.lookup_typed(name).map(|(ino, _)| ino)
    }

    /// Looks up a live entry with the file type its record carries.
    pub fn lookup_typed(&self, name: &str) -> Option<(Ino, FileType)> {
        self.entries
            .iter()
            .find(|e| !e.removed && e.name == name)
            .map(|e| (e.ino, e.ftype))
    }

    /// All records, tombstones included (the merge algorithm needs both).
    pub fn records(&self) -> &[DirEntry] {
        &self.entries
    }

    /// Live entries, in insertion order.
    pub fn live(&self) -> impl Iterator<Item = &DirEntry> + '_ {
        self.entries.iter().filter(|e| !e.removed)
    }

    /// Inserts a live entry binding `name` to `ino` of type `ftype`;
    /// `Eexist` if the name is already live, and the tombstone of a
    /// previously removed name is resurrected in place.
    pub fn insert(&mut self, name: &str, ino: Ino, ftype: FileType) -> SysResult<()> {
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
            e.ftype = ftype;
            e.removed = false;
            return Ok(());
        }
        self.entries.push(DirEntry {
            name: name.to_owned(),
            ino,
            ftype,
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
        let (ino, ftype) = self.lookup_typed(from).ok_or(Errno::Enoent)?;
        self.remove(from)?;
        self.insert(to, ino, ftype)
    }
}

/// The status-byte code of a file type (bits 1–3 of a record's status).
fn ftype_code(t: FileType) -> u8 {
    match t {
        FileType::Untyped => 0,
        FileType::Directory => 1,
        FileType::Mailbox => 2,
        FileType::Database => 3,
        FileType::HiddenDirectory => 4,
        FileType::Device => 5,
        FileType::Pipe => 6,
    }
}

/// Inverse of [`ftype_code`]; `None` for a code no type has.
fn ftype_from_code(code: u8) -> Option<FileType> {
    Some(match code {
        0 => FileType::Untyped,
        1 => FileType::Directory,
        2 => FileType::Mailbox,
        3 => FileType::Database,
        4 => FileType::HiddenDirectory,
        5 => FileType::Device,
        6 => FileType::Pipe,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FileType = FileType::Untyped;

    #[test]
    fn roundtrip_empty_and_populated() {
        let mut d = Directory::new();
        assert_eq!(Directory::parse(&d.serialize()).unwrap(), d);
        d.insert("passwd", Ino(12), F).unwrap();
        d.insert("group", Ino(13), F).unwrap();
        d.remove("passwd").unwrap();
        let d2 = Directory::parse(&d.serialize()).unwrap();
        assert_eq!(d, d2);
        assert_eq!(d2.lookup("group"), Some(Ino(13)));
        assert_eq!(d2.lookup("passwd"), None);
        assert_eq!(d2.records().len(), 2, "tombstone preserved");
    }

    #[test]
    fn roundtrip_keeps_every_file_type() {
        let types = [
            FileType::Untyped,
            FileType::Directory,
            FileType::Mailbox,
            FileType::Database,
            FileType::HiddenDirectory,
            FileType::Device,
            FileType::Pipe,
        ];
        let mut d = Directory::new();
        for (i, &t) in types.iter().enumerate() {
            d.insert(&format!("live{i}"), Ino(i as u32 + 1), t).unwrap();
            d.insert(&format!("gone{i}"), Ino(i as u32 + 20), t)
                .unwrap();
            d.remove(&format!("gone{i}")).unwrap();
        }
        let bytes = d.serialize();
        let d2 = Directory::parse(&bytes).unwrap();
        assert_eq!(d2, d, "types survive the round trip, tombstones too");
        for (i, &t) in types.iter().enumerate() {
            assert_eq!(
                d2.lookup_typed(&format!("live{i}")),
                Some((Ino(i as u32 + 1), t))
            );
        }
        // The type rides in the status byte: records keep their size.
        let plain: usize = d.records().iter().map(|e| 6 + e.name.len()).sum();
        assert_eq!(bytes.len(), plain);
    }

    #[test]
    fn rename_and_resurrection_carry_the_new_type() {
        let mut d = Directory::new();
        d.insert("who", Ino(3), FileType::HiddenDirectory).unwrap();
        d.rename("who", "what").unwrap();
        assert_eq!(
            d.lookup_typed("what"),
            Some((Ino(3), FileType::HiddenDirectory))
        );
        d.remove("what").unwrap();
        d.insert("what", Ino(4), FileType::Pipe).unwrap();
        assert_eq!(d.lookup_typed("what"), Some((Ino(4), FileType::Pipe)));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut d = Directory::new();
        d.insert("x", Ino(1), F).unwrap();
        assert_eq!(d.insert("x", Ino(2), F), Err(Errno::Eexist));
    }

    #[test]
    fn tombstone_resurrection_reuses_record() {
        let mut d = Directory::new();
        d.insert("x", Ino(1), F).unwrap();
        d.remove("x").unwrap();
        d.insert("x", Ino(9), F).unwrap();
        assert_eq!(d.lookup("x"), Some(Ino(9)));
        assert_eq!(d.records().len(), 1);
    }

    #[test]
    fn bad_names_rejected() {
        let mut d = Directory::new();
        assert_eq!(d.insert("", Ino(1), F), Err(Errno::Enametoolong));
        assert_eq!(d.insert("a/b", Ino(1), F), Err(Errno::Einval));
        let long = "x".repeat(NAME_MAX + 1);
        assert_eq!(d.insert(&long, Ino(1), F), Err(Errno::Enametoolong));
    }

    #[test]
    fn remove_missing_is_enoent() {
        let mut d = Directory::new();
        assert_eq!(d.remove("ghost"), Err(Errno::Enoent));
        d.insert("f", Ino(1), F).unwrap();
        d.remove("f").unwrap();
        assert_eq!(d.remove("f"), Err(Errno::Enoent), "tombstone not removable");
    }

    #[test]
    fn rename_moves_binding() {
        let mut d = Directory::new();
        d.insert("old", Ino(5), F).unwrap();
        d.rename("old", "new").unwrap();
        assert_eq!(d.lookup("new"), Some(Ino(5)));
        assert_eq!(d.lookup("old"), None);
        d.insert("third", Ino(6), F).unwrap();
        assert_eq!(d.rename("third", "new"), Err(Errno::Eexist));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Directory::parse(&[1, 2, 3]).is_err());
        // Truncated name.
        assert!(Directory::parse(&[1, 0, 0, 0, 0, 5, b'a']).is_err());
        // Invalid UTF-8 name.
        assert!(Directory::parse(&[1, 0, 0, 0, 0, 1, 0xFF]).is_err());
        // A type code no file type has.
        assert!(Directory::parse(&[(7 << 1) | 1, 0, 0, 0, 0, 1, b'a']).is_err());
    }
}
