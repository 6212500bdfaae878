//! The "conventional Unix" baseline filesystem.
//!
//! §2.1: "In LOCUS, when resources are local, access is no more expensive
//! than on a conventional Unix system." To *show* that, experiment E2
//! needs a conventional Unix to compare against: a single machine, one
//! disk, inodes, a buffer cache, no distribution machinery at all — the
//! same storage substrate (`locus-storage`) and the same CPU cost
//! constants, minus every CSS/incore/replication step.

use locus_fs::directory::Directory;
use locus_storage::{BufferCache, DiskInode, Pack, PAGE_SIZE};
use locus_types::{Errno, FileType, FilegroupId, Ino, PackId, Perms, SysResult, Ticks};

/// CPU costs shared with the LOCUS kernel paths (`locus_fs::cost`).
const SYSCALL_CPU: Ticks = Ticks::micros(200);
const PAGE_SERVICE_CPU: Ticks = Ticks::micros(2_000);
const DIR_SCAN_CPU: Ticks = Ticks::micros(300);

/// A single-machine Unix-like filesystem with its own virtual clock.
pub struct UnixFs {
    pack: Pack,
    cache: BufferCache,
    root: Ino,
    clock: Ticks,
}

impl Default for UnixFs {
    fn default() -> Self {
        UnixFs::new()
    }
}

impl UnixFs {
    /// Formats a fresh filesystem with an empty root directory.
    pub fn new() -> Self {
        let mut pack = Pack::new(PackId::new(FilegroupId(0), 0), 1..2048, 8192);
        let root = Ino(1);
        pack.install_inode(
            root,
            DiskInode::new(FileType::Directory, Perms::DIR_DEFAULT, 0),
        );
        let mut d = Directory::new();
        d.insert(".", root, FileType::Directory).expect("fresh");
        d.insert("..", root, FileType::Directory).expect("fresh");
        pack.write_all(root, &d.serialize()).expect("mkfs");
        pack.take_io_cost();
        UnixFs {
            pack,
            cache: BufferCache::new(256),
            root,
            clock: Ticks::ZERO,
        }
    }

    /// Elapsed virtual time.
    pub fn now(&self) -> Ticks {
        self.clock
    }

    fn charge(&mut self, t: Ticks) {
        self.clock += t;
    }

    fn lookup(&mut self, name: &str) -> SysResult<Ino> {
        self.charge(DIR_SCAN_CPU);
        // Directory pages come through the buffer cache, exactly like the
        // LOCUS local path.
        let size = self
            .pack
            .inode(self.root)
            .map(|i| i.size as usize)
            .ok_or(Errno::Enoent)?;
        let mut bytes = Vec::with_capacity(size);
        for lpn in 0..size.div_ceil(PAGE_SIZE) {
            let page = self.read_page(self.root, lpn)?;
            let take = (size - lpn * PAGE_SIZE).min(PAGE_SIZE);
            bytes.extend_from_slice(&page[..take]);
        }
        Directory::parse(&bytes)?.lookup(name).ok_or(Errno::Enoent)
    }

    /// Creates an empty file in the root directory.
    pub fn creat(&mut self, name: &str) -> SysResult<Ino> {
        self.charge(SYSCALL_CPU);
        let ino = self.pack.alloc_ino()?;
        self.pack.install_inode(
            ino,
            DiskInode::new(FileType::Untyped, Perms::FILE_DEFAULT, 0),
        );
        let bytes = self.pack.read_all(self.root)?;
        let mut d = Directory::parse(&bytes)?;
        d.insert(name, ino, FileType::Untyped)?;
        self.pack.write_all(self.root, &d.serialize())?;
        let io = self.pack.take_io_cost();
        self.charge(io);
        Ok(ino)
    }

    /// Opens by name (pathname search only — Unix open of a root entry).
    pub fn open(&mut self, name: &str) -> SysResult<Ino> {
        self.charge(SYSCALL_CPU);
        self.lookup(name)
    }

    /// Reads one page through the buffer cache.
    pub fn read_page(&mut self, ino: Ino, lpn: usize) -> SysResult<Vec<u8>> {
        self.charge(PAGE_SERVICE_CPU);
        let key = (self.pack.id(), ino, lpn);
        if let Some(d) = self.cache.get(&key) {
            return Ok(d);
        }
        let data = self.pack.read_page(ino, lpn)?;
        let io = self.pack.take_io_cost();
        self.charge(io);
        self.cache.put(key, data.clone());
        Ok(data)
    }

    /// Replaces a file's contents (whole-file overwrite, the common Unix
    /// modification pattern per §2.3.6).
    pub fn write_all(&mut self, ino: Ino, data: &[u8]) -> SysResult<()> {
        self.charge(SYSCALL_CPU);
        self.charge(PAGE_SERVICE_CPU.scaled(data.len().div_ceil(PAGE_SIZE).max(1) as u64));
        self.pack.write_all(ino, data)?;
        let io = self.pack.take_io_cost();
        self.charge(io);
        self.cache.invalidate_file(self.pack.id(), ino);
        Ok(())
    }

    /// Reads a whole file.
    pub fn read_all(&mut self, ino: Ino) -> SysResult<Vec<u8>> {
        self.charge(SYSCALL_CPU);
        let size = self
            .pack
            .inode(ino)
            .map(|i| i.size as usize)
            .ok_or(Errno::Enoent)?;
        let mut out = Vec::with_capacity(size);
        let npages = size.div_ceil(PAGE_SIZE);
        for lpn in 0..npages {
            let page = self.read_page(ino, lpn)?;
            let take = (size - lpn * PAGE_SIZE).min(PAGE_SIZE);
            out.extend_from_slice(&page[..take]);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrip() {
        let mut fs = UnixFs::new();
        let ino = fs.creat("f").unwrap();
        fs.write_all(ino, b"conventional unix").unwrap();
        let found = fs.open("f").unwrap();
        assert_eq!(found, ino);
        assert_eq!(fs.read_all(ino).unwrap(), b"conventional unix");
        assert!(fs.now() > Ticks::ZERO);
    }

    #[test]
    fn cache_makes_rereads_cheaper() {
        let mut fs = UnixFs::new();
        let ino = fs.creat("f").unwrap();
        fs.write_all(ino, &vec![1u8; PAGE_SIZE]).unwrap();
        let t0 = fs.now();
        fs.read_page(ino, 0).unwrap();
        let cold = fs.now() - t0;
        let t1 = fs.now();
        fs.read_page(ino, 0).unwrap();
        let warm = fs.now() - t1;
        assert!(warm < cold);
    }
}
