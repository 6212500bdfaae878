//! Per-message-kind network statistics.
//!
//! Message counts are the unit the paper's protocol descriptions are
//! written in ("The protocol for a network read is thus: US -> SS … SS ->
//! US", §2.3.3); the experiment harnesses regenerate those counts from
//! these counters.

use std::collections::BTreeMap;

use locus_types::SiteId;

/// One row of the per-directed-link accounting table.
///
/// The per-service and per-kind tables aggregate both directions of a
/// link, which is exactly wrong for *gray* faults: a one-directional
/// slow link or block hits `A -> B` while `B -> A` stays clean. These
/// counters are keyed by ordered `(from, to)` so the health monitor and
/// the chaos suites can attribute a gray fault to the direction that
/// actually suffered it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Successful sends in this direction.
    pub sends: u64,
    /// Bytes carried by those sends.
    pub bytes: u64,
    /// Injected drops of messages in this direction.
    pub drops: u64,
    /// Failed sends (unreachable destination or circuit abort).
    pub fails: u64,
    /// Sends whose latency was inflated by a gray slow link.
    pub slowed: u64,
    /// Sends silently lost to a gray one-directional block.
    pub blocked: u64,
}

/// One row of the per-service wire-accounting table: every message the
/// [`crate::rpc::RpcEngine`] moves is tagged with its originating service
/// (`"fs"`, `"proc"`, `"topology"`, `"recovery"`), so each subsystem's
/// share of the wire is directly reportable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Successful request and reply sends attributed to the service.
    pub sends: u64,
    /// Bytes carried by those sends.
    pub bytes: u64,
    /// Engine-level retries (resent requests and re-issued RPCs).
    pub retries: u64,
    /// Injected drops of the service's messages.
    pub drops: u64,
    /// One-way notifications abandoned after retry exhaustion.
    pub losses: u64,
}

/// One row of the per-message-kind table: everything the send path
/// counts about one kind label.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Successful sends.
    pub sends: u64,
    /// Bytes carried by those sends.
    pub bytes: u64,
    /// Failed sends (unreachable destination or circuit abort).
    pub fails: u64,
    /// Messages lost to an injected drop.
    pub drops: u64,
    /// Injected wire-level duplicate deliveries.
    pub dups: u64,
    /// Injected delivery delays.
    pub delays: u64,
    /// Retries (resends provoked by a fault).
    pub retries: u64,
    /// One-way notifications abandoned after retry exhaustion.
    pub losses: u64,
}

/// Counters of sends, bytes and failures, keyed by message kind label.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    kinds: BTreeMap<&'static str, KindStats>,
    services: BTreeMap<&'static str, ServiceStats>,
    links: BTreeMap<(SiteId, SiteId), LinkStats>,
    site_busy: BTreeMap<SiteId, u64>,
    site_wait: BTreeMap<SiteId, u64>,
    gauges: BTreeMap<String, u64>,
    /// Circuits closed by partition changes or crashes.
    pub circuits_closed: u64,
}

impl NetStats {
    /// Empty statistics.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// The mutable row of one message kind (created zeroed on first use).
    pub(crate) fn kind_mut(&mut self, kind: &'static str) -> &mut KindStats {
        self.kinds.entry(kind).or_default()
    }

    /// The mutable row of one service (created zeroed on first use).
    pub(crate) fn service_mut(&mut self, service: &'static str) -> &mut ServiceStats {
        self.services.entry(service).or_default()
    }

    /// The mutable row of the directed link `from -> to` (created zeroed
    /// on first use).
    pub(crate) fn link_mut(&mut self, from: SiteId, to: SiteId) -> &mut LinkStats {
        self.links.entry((from, to)).or_default()
    }

    /// Attributes `micros` of virtual CPU time to `site`. The simulation
    /// runs every site against one global virtual clock, so wall-style
    /// elapsed time cannot distinguish a balanced cluster from one whose
    /// whole load funnels through a single synchronization site; this
    /// table records where the cycles were actually spent.
    pub fn record_busy(&mut self, site: SiteId, micros: u64) {
        *self.site_busy.entry(site).or_insert(0) += micros;
    }

    /// Virtual CPU micros attributed to `site` (zero if it never worked).
    pub fn busy_micros(&self, site: SiteId) -> u64 {
        self.site_busy.get(&site).copied().unwrap_or(0)
    }

    /// The largest per-site busy time — the bottleneck site's load, which
    /// bounds the cluster's aggregate throughput under an open loop.
    pub fn max_busy_micros(&self) -> u64 {
        self.site_busy.values().copied().max().unwrap_or(0)
    }

    /// Iterates the per-site busy table in site order.
    pub fn site_busy(&self) -> impl Iterator<Item = (SiteId, u64)> + '_ {
        self.site_busy.iter().map(|(&s, &us)| (s, us))
    }

    /// Attributes `micros` of queue wait to `site`: the time a service
    /// arriving there waited for the site's CPU or disk to come free
    /// ([`crate::Net::charge_cpu_at`]). A service that found its timeline
    /// free waited nothing and adds no row.
    pub(crate) fn record_wait(&mut self, site: SiteId, micros: u64) {
        if micros > 0 {
            *self.site_wait.entry(site).or_insert(0) += micros;
        }
    }

    /// Virtual micros services at `site` spent queued for its CPU or disk.
    pub fn wait_micros(&self, site: SiteId) -> u64 {
        self.site_wait.get(&site).copied().unwrap_or(0)
    }

    /// Sets a named gauge (last-write-wins instantaneous value, e.g. a
    /// CSS request-queue depth sampled by the placement driver).
    pub fn set_gauge(&mut self, key: &str, value: u64) {
        self.gauges.insert(key.to_string(), value);
    }

    /// The current value of a named gauge (zero if never set).
    pub fn gauge(&self, key: &str) -> u64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// Iterates the gauge table sorted by key.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The accounting row of one message kind (zeros if never seen).
    pub fn kind(&self, kind: &str) -> KindStats {
        self.kinds.get(kind).copied().unwrap_or_default()
    }

    /// Successful sends of `kind`.
    pub fn sends(&self, kind: &str) -> u64 {
        self.kind(kind).sends
    }

    /// Failed sends of `kind`.
    pub fn failures(&self, kind: &str) -> u64 {
        self.kind(kind).fails
    }

    /// Bytes carried by successful sends of `kind`.
    pub fn bytes(&self, kind: &str) -> u64 {
        self.kind(kind).bytes
    }

    /// Injected drops of `kind`.
    pub fn drops(&self, kind: &str) -> u64 {
        self.kind(kind).drops
    }

    /// Retries of `kind`.
    pub fn retries(&self, kind: &str) -> u64 {
        self.kind(kind).retries
    }

    /// Abandoned one-way sends of `kind`.
    pub fn one_way_losses(&self, kind: &str) -> u64 {
        self.kind(kind).losses
    }

    /// Total abandoned one-way sends across all kinds.
    pub fn total_one_way_losses(&self) -> u64 {
        self.kinds.values().map(|k| k.losses).sum()
    }

    /// The accounting row of one service (zeros if it never sent).
    pub fn service(&self, service: &str) -> ServiceStats {
        self.services.get(service).copied().unwrap_or_default()
    }

    /// Iterates the per-service table sorted by service name.
    pub fn services(&self) -> impl Iterator<Item = (&'static str, ServiceStats)> + '_ {
        self.services.iter().map(|(&s, &row)| (s, row))
    }

    /// The accounting row of one directed link (zeros if never used).
    pub fn link(&self, from: SiteId, to: SiteId) -> LinkStats {
        self.links.get(&(from, to)).copied().unwrap_or_default()
    }

    /// Iterates the per-directed-link table in key order.
    pub fn links(&self) -> impl Iterator<Item = ((SiteId, SiteId), LinkStats)> + '_ {
        self.links.iter().map(|(&k, &row)| (k, row))
    }

    /// Total injected drops across all kinds.
    pub fn total_drops(&self) -> u64 {
        self.kinds.values().map(|k| k.drops).sum()
    }

    /// Total injected duplicates across all kinds.
    pub fn total_duplicates(&self) -> u64 {
        self.kinds.values().map(|k| k.dups).sum()
    }

    /// Total injected delays across all kinds.
    pub fn total_delays(&self) -> u64 {
        self.kinds.values().map(|k| k.delays).sum()
    }

    /// Total retries across all kinds.
    pub fn total_retries(&self) -> u64 {
        self.kinds.values().map(|k| k.retries).sum()
    }

    /// Total successful sends across all kinds.
    pub fn total_sends(&self) -> u64 {
        self.kinds.values().map(|k| k.sends).sum()
    }

    /// Total bytes across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.kinds.values().map(|k| k.bytes).sum()
    }

    /// Iterates `(kind, sends, bytes)` over the kinds that were sent at
    /// least once, sorted by kind.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.kinds
            .iter()
            .filter(|(_, row)| row.sends > 0)
            .map(|(&k, row)| (k, row.sends, row.bytes))
    }

    /// Message-count difference against an earlier snapshot; used to count
    /// messages of a single operation.
    pub fn delta_sends(&self, earlier: &NetStats) -> BTreeMap<&'static str, u64> {
        Self::diff(&self.kinds, &earlier.kinds, |k| k.sends)
    }

    /// Injected-drop difference against an earlier snapshot. Run *totals*
    /// misattribute faults suffered by setup traffic; a per-operation
    /// figure must be a delta between snapshots bracketing the operation.
    pub fn delta_drops(&self, earlier: &NetStats) -> BTreeMap<&'static str, u64> {
        Self::diff(&self.kinds, &earlier.kinds, |k| k.drops)
    }

    /// Retry difference against an earlier snapshot (see
    /// [`NetStats::delta_drops`]).
    pub fn delta_retries(&self, earlier: &NetStats) -> BTreeMap<&'static str, u64> {
        Self::diff(&self.kinds, &earlier.kinds, |k| k.retries)
    }

    /// Sum of one delta table's counts across all kinds.
    pub fn delta_total(delta: &BTreeMap<&'static str, u64>) -> u64 {
        delta.values().sum()
    }

    /// Per-directed-link drop difference against an earlier snapshot
    /// (see [`NetStats::delta_drops`] for why deltas, not totals).
    pub fn delta_link_drops(&self, earlier: &NetStats) -> BTreeMap<(SiteId, SiteId), u64> {
        Self::diff(&self.links, &earlier.links, |l| l.drops)
    }

    /// Per-directed-link slow-inflation difference against an earlier
    /// snapshot.
    pub fn delta_link_slowed(&self, earlier: &NetStats) -> BTreeMap<(SiteId, SiteId), u64> {
        Self::diff(&self.links, &earlier.links, |l| l.slowed)
    }

    /// Per-directed-link block difference against an earlier snapshot.
    pub fn delta_link_blocked(&self, earlier: &NetStats) -> BTreeMap<(SiteId, SiteId), u64> {
        Self::diff(&self.links, &earlier.links, |l| l.blocked)
    }

    /// The rows whose `field` grew since `earlier`, with the growth.
    fn diff<K: Ord + Copy, R>(
        now: &BTreeMap<K, R>,
        earlier: &BTreeMap<K, R>,
        field: impl Fn(&R) -> u64,
    ) -> BTreeMap<K, u64> {
        let mut out = BTreeMap::new();
        for (&k, row) in now {
            let d = field(row) - earlier.get(&k).map(&field).unwrap_or(0);
            if d > 0 {
                out.insert(k, d);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(s: &mut NetStats, kind: &'static str, bytes: u64) {
        let row = s.kind_mut(kind);
        row.sends += 1;
        row.bytes += bytes;
    }

    #[test]
    fn records_and_sums() {
        let mut s = NetStats::new();
        sent(&mut s, "READ req", 32);
        sent(&mut s, "READ req", 32);
        sent(&mut s, "READ resp", 4096);
        s.kind_mut("OPEN req").fails += 1;
        assert_eq!(s.sends("READ req"), 2);
        assert_eq!(s.bytes("READ resp"), 4096);
        assert_eq!(s.failures("OPEN req"), 1);
        assert_eq!(s.total_sends(), 3);
        assert_eq!(s.total_bytes(), 4160);
    }

    #[test]
    fn fault_counters_accumulate() {
        let mut s = NetStats::new();
        s.kind_mut("OPEN req").drops += 1;
        s.kind_mut("OPEN req").drops += 1;
        s.kind_mut("READ resp").dups += 1;
        s.kind_mut("SS poll").delays += 1;
        s.kind_mut("OPEN req").retries += 1;
        assert_eq!(s.drops("OPEN req"), 2);
        assert_eq!(s.total_drops(), 2);
        assert_eq!(s.total_duplicates(), 1);
        assert_eq!(s.total_delays(), 1);
        assert_eq!(s.retries("OPEN req"), 1);
        assert_eq!(s.total_retries(), 1);
    }

    #[test]
    fn service_table_accumulates_per_service() {
        let mut s = NetStats::new();
        s.service_mut("fs").sends += 2;
        s.service_mut("fs").bytes += 1088;
        s.service_mut("fs").retries += 1;
        s.service_mut("proc").drops += 1;
        s.service_mut("proc").losses += 1;
        s.kind_mut("EXIT notify").losses += 1;
        assert_eq!(s.service("fs").sends, 2);
        assert_eq!(s.service("fs").bytes, 1088);
        assert_eq!(s.service("fs").retries, 1);
        assert_eq!(s.service("proc").drops, 1);
        assert_eq!(s.service("proc").losses, 1);
        assert_eq!(s.service("topology"), ServiceStats::default());
        assert_eq!(s.one_way_losses("EXIT notify"), 1);
        assert_eq!(s.total_one_way_losses(), 1);
        let names: Vec<&str> = s.services().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["fs", "proc"]);
    }

    #[test]
    fn delta_isolates_one_operation() {
        let mut s = NetStats::new();
        sent(&mut s, "OPEN req", 64);
        let snap = s.clone();
        sent(&mut s, "OPEN req", 64);
        sent(&mut s, "OPEN resp", 128);
        let d = s.delta_sends(&snap);
        assert_eq!(d.get("OPEN req"), Some(&1));
        assert_eq!(d.get("OPEN resp"), Some(&1));
        assert_eq!(d.len(), 2);
    }

    /// Regression: gray faults are one-directional, and the per-service
    /// and per-kind tables aggregate both directions of a link. The
    /// directed-link table must keep `A -> B` separate from `B -> A`.
    #[test]
    fn link_table_attributes_directions_separately() {
        let mut s = NetStats::new();
        let (a, b) = (SiteId(0), SiteId(1));
        s.link_mut(a, b).sends += 1;
        s.link_mut(a, b).bytes += 64;
        s.link_mut(b, a).sends += 1;
        s.link_mut(a, b).drops += 1;
        s.link_mut(a, b).blocked += 1;
        s.link_mut(b, a).slowed += 1;
        s.link_mut(b, a).fails += 1;
        assert_eq!(s.link(a, b).sends, 1);
        assert_eq!(s.link(a, b).bytes, 64);
        assert_eq!(s.link(a, b).drops, 1);
        assert_eq!(s.link(a, b).blocked, 1);
        assert_eq!(s.link(a, b).slowed, 0, "the slow fault hit b -> a");
        assert_eq!(s.link(b, a).slowed, 1);
        assert_eq!(s.link(b, a).fails, 1);
        assert_eq!(s.link(b, a).drops, 0, "the drop hit a -> b");
        assert_eq!(s.link(SiteId(2), a), LinkStats::default());
        assert_eq!(s.links().count(), 2);
    }

    #[test]
    fn link_deltas_exclude_earlier_faults() {
        let mut s = NetStats::new();
        let (a, b) = (SiteId(0), SiteId(1));
        s.link_mut(a, b).drops += 1;
        s.link_mut(a, b).slowed += 1;
        let snap = s.clone();
        s.link_mut(a, b).drops += 1;
        s.link_mut(b, a).slowed += 1;
        s.link_mut(b, a).blocked += 1;
        let drops = s.delta_link_drops(&snap);
        assert_eq!(drops.get(&(a, b)), Some(&1), "only the new drop");
        let slowed = s.delta_link_slowed(&snap);
        assert_eq!(slowed.get(&(a, b)), None, "setup inflation excluded");
        assert_eq!(slowed.get(&(b, a)), Some(&1));
        assert_eq!(s.delta_link_blocked(&snap).get(&(b, a)), Some(&1));
    }

    /// The busy table keys by site so a sweep can find the bottleneck
    /// site; gauges are last-write-wins instantaneous values.
    #[test]
    fn busy_table_and_gauges() {
        let mut s = NetStats::new();
        s.record_busy(SiteId(0), 200);
        s.record_busy(SiteId(0), 400);
        s.record_busy(SiteId(3), 200);
        assert_eq!(s.busy_micros(SiteId(0)), 600);
        assert_eq!(s.busy_micros(SiteId(3)), 200);
        assert_eq!(s.busy_micros(SiteId(7)), 0);
        assert_eq!(s.max_busy_micros(), 600);
        let rows: Vec<(SiteId, u64)> = s.site_busy().collect();
        assert_eq!(rows, vec![(SiteId(0), 600), (SiteId(3), 200)]);
        s.set_gauge("css.depth.fg1", 5);
        s.set_gauge("css.depth.fg1", 2);
        assert_eq!(s.gauge("css.depth.fg1"), 2, "gauges overwrite");
        assert_eq!(s.gauge("css.depth.fg2"), 0);
        let gauges: Vec<(&str, u64)> = s.gauges().collect();
        assert_eq!(gauges, vec![("css.depth.fg1", 2)]);
    }

    /// Regression: per-operation drop/retry figures used to be computed
    /// from run totals, silently absorbing faults suffered by setup
    /// traffic before the measured operation began.
    #[test]
    fn drop_and_retry_deltas_exclude_earlier_faults() {
        let mut s = NetStats::new();
        // Setup traffic suffers faults too.
        s.kind_mut("OPEN req").drops += 1;
        s.kind_mut("OPEN req").retries += 1;
        let snap = s.clone();
        // The measured operation.
        s.kind_mut("PTN poll").drops += 1;
        s.kind_mut("PTN poll").drops += 1;
        s.kind_mut("PTN poll").retries += 1;
        let drops = s.delta_drops(&snap);
        let retries = s.delta_retries(&snap);
        assert_eq!(drops.get("PTN poll"), Some(&2));
        assert_eq!(drops.get("OPEN req"), None, "setup drops excluded");
        assert_eq!(retries.get("PTN poll"), Some(&1));
        assert_eq!(NetStats::delta_total(&drops), 2);
        assert_eq!(NetStats::delta_total(&retries), 1);
        assert!(
            s.total_drops() > NetStats::delta_total(&drops),
            "the totals really do overcount the operation"
        );
    }
}
