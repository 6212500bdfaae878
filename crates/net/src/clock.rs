//! The virtual clock all simulated costs are charged to.

use locus_types::Ticks;

/// A monotonically advancing virtual clock.
///
/// The simulation is single-threaded; each message transmission, disk
/// transfer or kernel CPU burst advances the clock by its modelled cost,
/// so elapsed virtual time of an operation is `now() - start`.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: Ticks,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> Ticks {
        self.now
    }

    /// Advances the clock by `span`.
    pub fn advance(&mut self, span: Ticks) {
        self.now += span;
    }

    /// Sets the clock to `now`, which must not be in the past: the join
    /// of overlapped legs ([`crate::Net::overlap`]) moves the clock
    /// forward to the latest leg's end.
    pub fn set(&mut self, now: Ticks) {
        assert!(now >= self.now, "tried to move the clock backwards");
        self.now = now;
    }

    /// Moves the clock back to the instant a leg forked at
    /// ([`crate::Net::fork`]: an overlap leg, a one-way's handler). That is
    /// the only caller: nothing else may move the clock backwards.
    pub(crate) fn rewind(&mut self, fork: Ticks) {
        debug_assert!(fork <= self.now, "a leg rewinds to its fork");
        self.now = fork;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), Ticks::ZERO);
        c.advance(Ticks::micros(5));
        c.advance(Ticks::micros(7));
        assert_eq!(c.now(), Ticks::micros(12));
    }
}
