//! Version vectors for mutual-inconsistency detection.
//!
//! Each copy of a replicated file carries a version vector "that maintains
//! necessary history information" (§2.2.2); at partition merge the vectors
//! of two copies are compared to decide whether one copy simply lags the
//! other (propagate) or the copies were modified in different partitions
//! (conflict). This is the algorithm of Parker, Popek et al., *Detection of
//! Mutual Inconsistency in Distributed Systems* (IEEE TSE, May 1983), cited
//! by the paper as \[PARK83\].
//!
//! A vector maps an *update origin* (we use the pack index of the physical
//! container where the commit was performed) to the count of updates
//! committed there.

use core::cmp::Ordering;
use core::fmt;

/// Result of comparing two version vectors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VvOrder {
    /// The vectors are identical: the copies are the same version.
    Equal,
    /// Left strictly dominates right: left is newer, propagate left→right.
    Dominates,
    /// Right strictly dominates left: left is older, propagate right→left.
    Dominated,
    /// Neither dominates: the copies were updated independently in
    /// different partitions — a genuine conflict (§4.2).
    Concurrent,
}

impl VvOrder {
    /// Whether this ordering represents a detected update conflict.
    pub const fn is_conflict(self) -> bool {
        matches!(self, VvOrder::Concurrent)
    }
}

/// A version vector: update-origin → update count.
///
/// # Examples
///
/// ```
/// use locus_types::{VersionVector, VvOrder};
///
/// let mut a = VersionVector::new();
/// let mut b = VersionVector::new();
/// a.bump(0); // one commit at pack 0
/// assert_eq!(a.compare(&b), VvOrder::Dominates);
/// b.bump(1); // an independent commit at pack 1
/// assert_eq!(a.compare(&b), VvOrder::Concurrent);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct VersionVector {
    /// `(origin, count)` pairs sorted by origin, with no zero counts: one
    /// small allocation per vector, and derived equality is vector
    /// equality.
    counts: Vec<(u32, u64)>,
}

impl VersionVector {
    /// An all-zero vector (a freshly created, never-committed file).
    pub fn new() -> Self {
        VersionVector::default()
    }

    fn slot(&self, origin: u32) -> Result<usize, usize> {
        self.counts.binary_search_by_key(&origin, |&(o, _)| o)
    }

    /// The update count recorded for `origin` (zero if absent).
    pub fn get(&self, origin: u32) -> u64 {
        self.slot(origin).map_or(0, |i| self.counts[i].1)
    }

    /// Records one more update committed at `origin`.
    pub fn bump(&mut self, origin: u32) {
        match self.slot(origin) {
            Ok(i) => self.counts[i].1 += 1,
            Err(i) => self.counts.insert(i, (origin, 1)),
        }
    }

    /// Total number of updates across all origins.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&(_, c)| c).sum()
    }

    /// Whether no update has ever been recorded.
    pub fn is_zero(&self) -> bool {
        self.counts.is_empty()
    }

    /// Compares `self` against `other`: one merge walk over the two
    /// sorted origin lists.
    pub fn compare(&self, other: &VersionVector) -> VvOrder {
        let mut some_greater = false;
        let mut some_less = false;
        let (a, b) = (&self.counts, &other.counts);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    some_greater = true;
                    i += 1;
                }
                Ordering::Greater => {
                    some_less = true;
                    j += 1;
                }
                Ordering::Equal => {
                    match a[i].1.cmp(&b[j].1) {
                        Ordering::Greater => some_greater = true,
                        Ordering::Less => some_less = true,
                        Ordering::Equal => {}
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        some_greater |= i < a.len();
        some_less |= j < b.len();
        match (some_greater, some_less) {
            (false, false) => VvOrder::Equal,
            (true, false) => VvOrder::Dominates,
            (false, true) => VvOrder::Dominated,
            (true, true) => VvOrder::Concurrent,
        }
    }

    /// Whether `self` is at least as new as `other` (equal or dominating).
    pub fn covers(&self, other: &VersionVector) -> bool {
        matches!(self.compare(other), VvOrder::Equal | VvOrder::Dominates)
    }

    /// Element-wise maximum: the least vector covering both inputs. Used
    /// when a conflict is resolved so the reconciled copy dominates both
    /// ancestors (the resolver then [`bump`](Self::bump)s its own origin).
    pub fn merge_max(&self, other: &VersionVector) -> VersionVector {
        let (a, b) = (&self.counts, &other.counts);
        let mut counts = Vec::with_capacity(a.len().max(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    counts.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    counts.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    counts.push((a[i].0, a[i].1.max(b[j].1)));
                    i += 1;
                    j += 1;
                }
            }
        }
        counts.extend_from_slice(&a[i..]);
        counts.extend_from_slice(&b[j..]);
        VersionVector { counts }
    }

    /// Iterates over `(origin, count)` pairs with non-zero counts, in
    /// origin order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().copied()
    }
}

impl fmt::Display for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (o, c)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{o}:{c}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vectors_are_equal() {
        let a = VersionVector::new();
        let b = VersionVector::new();
        assert_eq!(a.compare(&b), VvOrder::Equal);
        assert!(a.is_zero());
    }

    #[test]
    fn linear_history_dominates() {
        let mut a = VersionVector::new();
        a.bump(0);
        a.bump(0);
        let mut b = VersionVector::new();
        b.bump(0);
        assert_eq!(a.compare(&b), VvOrder::Dominates);
        assert_eq!(b.compare(&a), VvOrder::Dominated);
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
    }

    #[test]
    fn divergent_histories_conflict() {
        // The §4.2 example: f modified at S1 producing f1 while f was
        // modified at S2 producing f2 — merge must detect a conflict.
        let mut f1 = VersionVector::new();
        let mut f2 = VersionVector::new();
        f1.bump(1);
        f2.bump(2);
        assert!(f1.compare(&f2).is_conflict());
    }

    #[test]
    fn one_sided_update_is_not_a_conflict() {
        // The §4.2 non-conflict example: only S1's copy was modified, so
        // propagation (not conflict) results.
        let mut f1 = VersionVector::new();
        let f2 = VersionVector::new();
        f1.bump(1);
        assert_eq!(f1.compare(&f2), VvOrder::Dominates);
    }

    #[test]
    fn merge_max_covers_both() {
        let mut a = VersionVector::new();
        let mut b = VersionVector::new();
        a.bump(0);
        a.bump(0);
        b.bump(1);
        let m = a.merge_max(&b);
        assert!(m.covers(&a) && m.covers(&b));
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn display_skips_zero_slots() {
        let mut v = VersionVector::new();
        v.bump(3);
        assert_eq!(v.to_string(), "[3:1]");
    }
}
