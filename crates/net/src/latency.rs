//! Message latency model.
//!
//! The paper stresses that LOCUS owes much of its performance to
//! *specialized* kernel-to-kernel protocols: "Because multilayered support
//! and error handling, such as suggested by the ISO standard, is not
//! present, much higher performance has been achieved" (§2.3.3 fn). The
//! model therefore separates the fixed per-message protocol-processing cost
//! (the knob the layering ablation turns) from the wire cost.

use locus_types::Ticks;

/// Per-message cost model: `fixed + bytes × micros_per_byte`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed per-message cost: protocol processing at both ends plus
    /// propagation. This is what a layered protocol stack inflates.
    pub fixed: Ticks,
    /// Wire time per payload byte, in microseconds.
    pub(crate) micros_per_byte: u64,
}

impl LatencyModel {
    /// Calibrated to the paper's testbed: 10 Mbit/s Ethernet, rounded to
    /// 1 µs a byte, with a ~1 ms specialized-protocol processing cost per
    /// message (consistent with [GOLD 83]-era kernel path lengths on a
    /// VAX-11/750).
    pub const fn ethernet_1983() -> Self {
        LatencyModel {
            fixed: Ticks::micros(1_000),
            micros_per_byte: 1,
        }
    }

    /// The same wire with an ISO-style layered protocol stack: each message
    /// pays several additional layers of processing (used only by the
    /// layering ablation, DESIGN.md §4.4).
    pub const fn layered_stack() -> Self {
        LatencyModel {
            fixed: Ticks::micros(5_000),
            micros_per_byte: 1,
        }
    }

    /// Cost of one message carrying `bytes` of payload.
    pub fn message_cost(&self, bytes: usize) -> Ticks {
        self.fixed + Ticks::micros(bytes as u64 * self.micros_per_byte)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::ethernet_1983()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_scales_with_size() {
        let m = LatencyModel::ethernet_1983();
        let small = m.message_cost(64);
        let page = m.message_cost(4096);
        assert!(page > small);
        assert_eq!(small, Ticks::micros(1_064));
    }

    #[test]
    fn layered_stack_is_slower() {
        let fast = LatencyModel::ethernet_1983();
        let slow = LatencyModel::layered_stack();
        assert!(slow.message_cost(64) > fast.message_cost(64));
    }
}
