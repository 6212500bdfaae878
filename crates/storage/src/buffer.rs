//! The per-site buffer cache.
//!
//! "All such requests are serviced via kernel buffers, both in standard
//! Unix and in LOCUS … including the one page readahead done for files
//! being read sequentially" (§2.3.3). The cache is keyed by
//! `(pack, inode, logical page)`; the propagation process and the network
//! read path rename buffers rather than copying through user space, which
//! we model by the cache simply holding page images.
//!
//! The cache is write-through: whoever changes what a key stands for
//! hands the new images to [`BufferCache::install`] in the same step, so
//! an entry is never stale and a page just written is never re-read from
//! the disk or the wire. [`BufferCache::invalidate_file`] is for the
//! cases where the new content is not at hand (see its comment).

use std::collections::HashMap;

use locus_types::{Ino, PackId};

/// Cache key: one logical page of one file copy.
pub(crate) type PageKey = (PackId, Ino, usize);

/// Cumulative cache counters.
///
/// The page fields account the buffer cache; the `dentry_*`/`attr_*`/
/// `name_invalidations` fields account the filesystem layer's name and
/// attribute cache, which reports through the same structure so one
/// merge covers every cache a site runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Pages dropped by explicit invalidation (not LRU eviction).
    pub invalidations: u64,
    /// Directory-contents lookups served from the name cache.
    pub dentry_hits: u64,
    /// Directory-contents lookups that re-read the directory.
    pub dentry_misses: u64,
    /// Attribute lookups served from the name cache.
    pub attr_hits: u64,
    /// Attribute lookups that re-fetched the inode information.
    pub attr_misses: u64,
    /// Name/attribute entries dropped by invalidation.
    pub name_invalidations: u64,
    /// Directory contents materialized by parse + copy on a name-cache
    /// fill. A validated hit serves the parsed contents by shared
    /// pointer, so this stays proportional to misses, not hits.
    pub dir_deep_copies: u64,
    /// Coherence leases granted by a CSS (name-lease mode).
    pub lease_grants: u64,
    /// Name/attribute lookups served locally under a live lease, with no
    /// validation probe and zero wire traffic.
    pub lease_hits: u64,
    /// Inbound `LeaseRecall` callbacks processed by holders.
    pub lease_recalls: u64,
    /// Recall acknowledgements received by the recalling CSS.
    pub lease_recall_acks: u64,
    /// Leases revoked without a recall round trip (unreachable holder,
    /// §5.6 cleanup, quarantine or readmission).
    pub lease_revokes: u64,
}

impl CacheStats {
    /// Page hits over total page lookups; 0.0 when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Dentry hits over total dentry lookups; 0.0 when none happened.
    pub fn dentry_hit_ratio(&self) -> f64 {
        let total = self.dentry_hits + self.dentry_misses;
        if total == 0 {
            0.0
        } else {
            self.dentry_hits as f64 / total as f64
        }
    }

    /// Attribute hits over total attribute lookups; 0.0 when none
    /// happened.
    pub fn attr_hit_ratio(&self) -> f64 {
        let total = self.attr_hits + self.attr_misses;
        if total == 0 {
            0.0
        } else {
            self.attr_hits as f64 / total as f64
        }
    }

    /// Component-wise sum (for aggregating per-site caches).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.dentry_hits += other.dentry_hits;
        self.dentry_misses += other.dentry_misses;
        self.attr_hits += other.attr_hits;
        self.attr_misses += other.attr_misses;
        self.name_invalidations += other.name_invalidations;
        self.dir_deep_copies += other.dir_deep_copies;
        self.lease_grants += other.lease_grants;
        self.lease_hits += other.lease_hits;
        self.lease_recalls += other.lease_recalls;
        self.lease_recall_acks += other.lease_recall_acks;
        self.lease_revokes += other.lease_revokes;
    }
}

/// A fixed-capacity LRU page cache with hit/miss accounting.
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    map: HashMap<PageKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

#[derive(Debug)]
struct Entry {
    data: Vec<u8>,
    last_used: u64,
}

impl BufferCache {
    /// A cache holding up to `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        BufferCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// Whether a page is cached, without touching recency or the hit/miss
    /// counters, so a probe does not perturb the accounted hit ratio.
    pub fn contains(&self, key: &PageKey) -> bool {
        self.map.contains_key(key)
    }

    /// The cached image of a page, if any, with the same discretion as
    /// [`BufferCache::contains`]: tests audit the cache's contents against
    /// the disk with this without changing what it will evict or report.
    pub fn peek(&self, key: &PageKey) -> Option<&[u8]> {
        self.map.get(key).map(|e| e.data.as_slice())
    }

    /// Looks up a page, refreshing its recency on hit.
    pub fn get(&mut self, key: &PageKey) -> Option<Vec<u8>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                self.hits += 1;
                Some(e.data.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) a page, evicting the least recently used
    /// entry if full.
    pub fn put(&mut self, key: PageKey, data: Vec<u8>) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(
            key,
            Entry {
                data,
                last_used: self.tick,
            },
        );
    }

    /// Brings the cached pages of one file copy in line with a change to
    /// it: every cached page at or past `npages` is dropped (truncated
    /// away or deleted; counted as invalidations), then each of `pages`
    /// is inserted as the page's new content. Pages below `npages` that
    /// are not in `pages` did not change and stay. The images are moved
    /// in, not copied.
    pub fn install(
        &mut self,
        pack: PackId,
        ino: Ino,
        pages: impl IntoIterator<Item = (usize, Vec<u8>)>,
        npages: usize,
    ) {
        if npages != usize::MAX {
            let before = self.map.len();
            self.map
                .retain(|(p, i, lpn), _| !(*p == pack && *i == ino && *lpn >= npages));
            self.invalidations += (before - self.map.len()) as u64;
        }
        for (lpn, data) in pages {
            self.put((pack, ino, lpn), data);
        }
    }

    /// Drops every cached page of a file whose new content is not at
    /// hand: a copy rewritten behind the cache's back (recovery), or
    /// network-fetched pages that failed the page-valid check.
    pub fn invalidate_file(&mut self, pack: PackId, ino: Ino) {
        let before = self.map.len();
        self.map.retain(|(p, i, _), _| !(*p == pack && *i == ino));
        self.invalidations += (before - self.map.len()) as u64;
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Full counters, including invalidations. The name-cache fields are
    /// zero here; the filesystem layer merges its own counters in.
    pub fn full_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            ..CacheStats::default()
        }
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::FilegroupId;

    fn key(ino: u32, lpn: usize) -> PageKey {
        (PackId::new(FilegroupId(0), 0), Ino(ino), lpn)
    }

    #[test]
    fn hit_after_put() {
        let mut c = BufferCache::new(4);
        assert!(c.get(&key(1, 0)).is_none());
        c.put(key(1, 0), vec![1, 2, 3]);
        assert_eq!(c.get(&key(1, 0)), Some(vec![1, 2, 3]));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = BufferCache::new(2);
        c.put(key(1, 0), vec![1]);
        c.put(key(2, 0), vec![2]);
        c.get(&key(1, 0)); // refresh 1
        c.put(key(3, 0), vec![3]); // evicts 2
        assert!(c.get(&key(2, 0)).is_none());
        assert!(c.get(&key(1, 0)).is_some());
        assert!(c.get(&key(3, 0)).is_some());
    }

    #[test]
    fn invalidate_file_clears_all_its_pages() {
        let mut c = BufferCache::new(8);
        c.put(key(1, 0), vec![1]);
        c.put(key(1, 1), vec![2]);
        c.put(key(2, 0), vec![3]);
        c.invalidate_file(PackId::new(FilegroupId(0), 0), Ino(1));
        assert!(c.get(&key(1, 0)).is_none());
        assert!(c.get(&key(1, 1)).is_none());
        assert!(c.get(&key(2, 0)).is_some());
        assert_eq!(c.full_stats().invalidations, 2);
    }

    #[test]
    fn install_replaces_written_pages_and_drops_the_truncated_tail() {
        let pack = PackId::new(FilegroupId(0), 0);
        let mut c = BufferCache::new(8);
        for lpn in 0..4 {
            c.put(key(1, lpn), vec![lpn as u8]);
        }
        c.put(key(2, 3), vec![7]);
        // Truncate to 2 pages, then rewrite page 1 and extend with page 3.
        c.install(pack, Ino(1), vec![(1, vec![11]), (3, vec![13])], 2);
        assert_eq!(c.get(&key(1, 0)), Some(vec![0]), "untouched page kept");
        assert_eq!(c.get(&key(1, 1)), Some(vec![11]), "written page replaced");
        assert!(c.get(&key(1, 2)).is_none(), "truncated page dropped");
        assert_eq!(
            c.get(&key(1, 3)),
            Some(vec![13]),
            "page past the cut re-installed"
        );
        assert_eq!(c.get(&key(2, 3)), Some(vec![7]), "other file untouched");
        assert_eq!(c.full_stats().invalidations, 2);
        // No truncation: nothing is dropped.
        c.install(pack, Ino(1), vec![(0, vec![20])], usize::MAX);
        assert_eq!(c.get(&key(1, 0)), Some(vec![20]));
        assert_eq!(c.get(&key(1, 1)), Some(vec![11]));
        assert_eq!(c.full_stats().invalidations, 2);
    }

    #[test]
    fn contains_probe_leaves_counters_alone() {
        let mut c = BufferCache::new(4);
        c.put(key(1, 0), vec![1]);
        assert!(c.contains(&key(1, 0)));
        assert!(!c.contains(&key(1, 1)));
        assert_eq!(c.full_stats(), CacheStats::default());
    }

    #[test]
    fn reinsert_updates_value_without_evicting() {
        let mut c = BufferCache::new(2);
        c.put(key(1, 0), vec![1]);
        c.put(key(2, 0), vec![2]);
        c.put(key(1, 0), vec![9]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&key(1, 0)), Some(vec![9]));
        assert!(c.get(&key(2, 0)).is_some());
    }
}
