//! Per-message-kind network statistics.
//!
//! Message counts are the unit the paper's protocol descriptions are
//! written in ("The protocol for a network read is thus: US -> SS … SS ->
//! US", §2.3.3); the experiment harnesses regenerate those counts from
//! these counters.

use std::collections::BTreeMap;

use locus_types::SiteId;

/// One service's share of the wire (`"fs"`, `"proc"`, `"topology"`,
/// `"recovery"`): the sum of the kind rows that service's
/// [`crate::rpc::RpcEngine`] sent ([`KindStats::service`]).
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

impl ServiceStats {
    fn add(&mut self, k: &KindStats) {
        self.sends += k.sends;
        self.bytes += k.bytes;
        self.retries += k.retries;
        self.drops += k.drops;
        self.losses += k.losses;
    }
}

/// One row of the per-message-kind table: everything the send path
/// counts about one kind label.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Successful sends.
    pub sends: u64,
    /// Bytes carried by those sends.
    pub bytes: u64,
    /// Failed sends (unreachable destination or a closed-circuit notice).
    pub fails: u64,
    /// Messages lost to an injected drop.
    pub drops: u64,
    /// Injected wire-level duplicate deliveries.
    pub(crate) dups: u64,
    /// Injected delivery delays.
    pub(crate) delays: u64,
    /// Retries (resends provoked by a fault).
    pub retries: u64,
    /// One-way notifications abandoned after retry exhaustion.
    pub losses: u64,
    /// The service whose engine sends this kind; `None` for a kind only
    /// ever sent raw ([`crate::Net::send`]). A kind belongs to one
    /// service.
    pub service: Option<&'static str>,
}

/// Counters of sends, bytes and failures, keyed by message kind label.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    kinds: BTreeMap<&'static str, KindStats>,
    site_busy: BTreeMap<SiteId, u64>,
    site_wait: BTreeMap<SiteId, u64>,
}

impl NetStats {
    /// Empty statistics.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// The mutable row of one message kind (created zeroed on first use),
    /// tagged with `service` when an engine sends it.
    pub(crate) fn kind_mut(
        &mut self,
        kind: &'static str,
        service: Option<&'static str>,
    ) -> &mut KindStats {
        let row = self.kinds.entry(kind).or_default();
        if service.is_some() {
            assert!(
                row.service.is_none() || row.service == service,
                "kind {kind:?} sent by both {:?} and {service:?}",
                row.service
            );
            row.service = service;
        }
        row
    }

    /// Attributes `micros` of virtual CPU time to `site`. The simulation
    /// runs every site against one global virtual clock, so wall-style
    /// elapsed time cannot distinguish a balanced cluster from one whose
    /// whole load funnels through a single synchronization site; this
    /// table records where the cycles were actually spent.
    pub(crate) fn record_busy(&mut self, site: SiteId, micros: u64) {
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

    /// The accounting row of one message kind (zeros if never seen).
    pub fn kind(&self, kind: &str) -> KindStats {
        self.kinds.get(kind).copied().unwrap_or_default()
    }

    /// Successful sends of `kind`.
    pub fn sends(&self, kind: &str) -> u64 {
        self.kind(kind).sends
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

    /// The accounting row of one service: its kind rows summed (zeros if
    /// it never sent).
    pub fn service(&self, service: &str) -> ServiceStats {
        let mut row = ServiceStats::default();
        for k in self.kinds.values().filter(|k| k.service == Some(service)) {
            row.add(k);
        }
        row
    }

    /// Iterates the services that counted anything, sorted by name.
    pub fn services(&self) -> impl Iterator<Item = (&'static str, ServiceStats)> + '_ {
        let mut table: BTreeMap<&'static str, ServiceStats> = BTreeMap::new();
        for k in self.kinds.values() {
            if let Some(s) = k.service {
                table.entry(s).or_default().add(k);
            }
        }
        table
            .into_iter()
            .filter(|(_, row)| *row != ServiceStats::default())
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

    /// The rows whose `field` grew since `earlier`, with the growth.
    fn diff(
        now: &BTreeMap<&'static str, KindStats>,
        earlier: &BTreeMap<&'static str, KindStats>,
        field: impl Fn(&KindStats) -> u64,
    ) -> BTreeMap<&'static str, u64> {
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
        let row = s.kind_mut(kind, None);
        row.sends += 1;
        row.bytes += bytes;
    }

    #[test]
    fn records_and_sums() {
        let mut s = NetStats::new();
        sent(&mut s, "READ req", 32);
        sent(&mut s, "READ req", 32);
        sent(&mut s, "READ resp", 4096);
        s.kind_mut("OPEN req", None).fails += 1;
        assert_eq!(s.sends("READ req"), 2);
        assert_eq!(s.bytes("READ resp"), 4096);
        assert_eq!(s.kind("OPEN req").fails, 1);
        assert_eq!(s.total_sends(), 3);
        assert_eq!(s.total_bytes(), 4160);
    }

    #[test]
    fn fault_counters_accumulate() {
        let mut s = NetStats::new();
        s.kind_mut("OPEN req", None).drops += 1;
        s.kind_mut("OPEN req", None).drops += 1;
        s.kind_mut("READ resp", None).dups += 1;
        s.kind_mut("SS poll", None).delays += 1;
        s.kind_mut("OPEN req", None).retries += 1;
        assert_eq!(s.drops("OPEN req"), 2);
        assert_eq!(s.kind("READ resp").dups, 1);
        assert_eq!(s.kind("SS poll").delays, 1);
        assert_eq!(s.retries("OPEN req"), 1);
        assert_eq!(s.total_retries(), 1);
    }

    #[test]
    fn service_table_accumulates_per_service() {
        let mut s = NetStats::new();
        let fs = Some("fs");
        s.kind_mut("OPEN req", fs).sends += 1;
        s.kind_mut("OPEN req", fs).bytes += 64;
        s.kind_mut("OPEN resp", fs).sends += 1;
        s.kind_mut("OPEN resp", fs).bytes += 1024;
        s.kind_mut("OPEN req", fs).retries += 1;
        s.kind_mut("OPEN req", fs).fails += 1;
        s.kind_mut("EXIT notify", Some("proc")).drops += 1;
        s.kind_mut("EXIT notify", Some("proc")).losses += 1;
        // A failure alone counts toward no service field.
        s.kind_mut("SS poll", Some("topology")).fails += 1;
        // A raw send's kind joins no service.
        s.kind_mut("x", None).sends += 1;
        assert_eq!(s.service("fs").sends, 2);
        assert_eq!(s.service("fs").bytes, 1088);
        assert_eq!(s.service("fs").retries, 1);
        assert_eq!(s.service("proc").drops, 1);
        assert_eq!(s.service("proc").losses, 1);
        assert_eq!(s.service("topology"), ServiceStats::default());
        assert_eq!(s.one_way_losses("EXIT notify"), 1);
        assert_eq!(s.kind("OPEN req").losses, 0);
        assert_eq!(s.kind("x").service, None);
        // Touching a tagged row untagged keeps its service.
        s.kind_mut("OPEN req", None).sends += 1;
        assert_eq!(s.service("fs").sends, 3);
        let names: Vec<&str> = s.services().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["fs", "proc"]);
    }

    /// The per-service table is a regrouping of the kind rows, so a kind
    /// must belong to one service only.
    #[test]
    #[should_panic(expected = "sent by both")]
    fn a_kind_tagged_by_two_services_panics() {
        let mut s = NetStats::new();
        s.kind_mut("OPEN req", Some("fs")).sends += 1;
        s.kind_mut("OPEN req", Some("proc")).sends += 1;
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

    /// The busy table keys by site so a sweep can find the bottleneck
    /// site.
    #[test]
    fn busy_table() {
        let mut s = NetStats::new();
        s.record_busy(SiteId(0), 200);
        s.record_busy(SiteId(0), 400);
        s.record_busy(SiteId(3), 200);
        assert_eq!(s.busy_micros(SiteId(0)), 600);
        assert_eq!(s.busy_micros(SiteId(3)), 200);
        assert_eq!(s.busy_micros(SiteId(7)), 0);
        assert_eq!(s.max_busy_micros(), 600);
        let rows: Vec<(SiteId, u64)> = s.site_busy.into_iter().collect();
        assert_eq!(rows, vec![(SiteId(0), 600), (SiteId(3), 200)]);
    }

    /// Regression: per-operation drop/retry figures used to be computed
    /// from run totals, silently absorbing faults suffered by setup
    /// traffic before the measured operation began.
    #[test]
    fn drop_and_retry_deltas_exclude_earlier_faults() {
        let mut s = NetStats::new();
        // Setup traffic suffers faults too.
        s.kind_mut("OPEN req", None).drops += 1;
        s.kind_mut("OPEN req", None).retries += 1;
        let snap = s.clone();
        // The measured operation.
        s.kind_mut("PTN poll", None).drops += 1;
        s.kind_mut("PTN poll", None).drops += 1;
        s.kind_mut("PTN poll", None).retries += 1;
        let drops = s.delta_drops(&snap);
        let retries = s.delta_retries(&snap);
        assert_eq!(drops.get("PTN poll"), Some(&2));
        assert_eq!(drops.get("OPEN req"), None, "setup drops excluded");
        assert_eq!(retries.get("PTN poll"), Some(&1));
        assert_eq!(NetStats::delta_total(&drops), 2);
        assert_eq!(NetStats::delta_total(&retries), 1);
        assert!(
            s.drops("OPEN req") + s.drops("PTN poll") > NetStats::delta_total(&drops),
            "the totals really do overcount the operation"
        );
    }
}
