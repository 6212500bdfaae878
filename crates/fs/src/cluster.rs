//! The multi-site filesystem cluster: kernels + network + message
//! dispatch.
//!
//! LOCUS is "a procedure based operating system — processes request system
//! service by executing system calls … At the point within the execution
//! of the system call that foreign service is needed, the operating system
//! packages up a message and sends it to the relevant foreign site.
//! Typically the kernel then sleeps, waiting for a response" (§2.3.2,
//! Figure 1). `FsCluster`'s internal `rpc` reproduces exactly that flow: the
//! caller's kernel state is quiescent while the serving site's handler
//! runs, and the reply resumes the system call.
//!
//! Commit notifications and update propagation are instead *asynchronous*:
//! they are queued as posts and drained by [`FsCluster::settle`], which
//! plays the role of the paper's background kernel process servicing the
//! propagation queue (§2.3.6). Tests can observe the staleness window
//! between a commit and the corresponding `settle`.

use std::cell::{Cell, RefCell, RefMut};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use locus_net::{EngineKind, Net, PostStamp, RetryPolicy, RpcEngine};
use locus_types::{Errno, FilegroupId, SiteId, SysResult, Ticks};

use crate::kernel::FsKernel;
use crate::ops;
use crate::proto::{FsMsg, FsReply};

/// Page-transfer policy: how the US moves file pages to and from a remote
/// SS.
///
/// The default reproduces the paper exactly — one two-message exchange per
/// page with a fixed one-page readahead (§2.3.3) and a synchronous one-way
/// message per written page (§2.3.5). [`IoPolicy::batched`] turns on the
/// batched-transfer extension: multi-page `READV`/`WRITEV` messages, an
/// adaptive readahead window that doubles on detected sequential access,
/// and a US-side write-behind buffer flushed at window boundaries, on
/// seek and at commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoPolicy {
    /// Fetch read windows with `ReadPages` instead of per-page RPCs.
    pub(crate) batched_reads: bool,
    /// Cap on the adaptive readahead window, in pages.
    pub(crate) max_read_window: usize,
    /// Coalesce consecutive written pages in a US buffer and flush them
    /// in batched `WritePages` messages.
    pub(crate) write_behind: bool,
    /// Flush the write-behind buffer when it reaches this many pages.
    pub(crate) max_write_batch: usize,
}

impl IoPolicy {
    /// The per-page protocols exactly as the paper describes them.
    pub const fn paper_faithful() -> Self {
        IoPolicy {
            batched_reads: false,
            max_read_window: 1,
            write_behind: false,
            max_write_batch: 1,
        }
    }

    /// Batched transfers with an 8-page window cap in both directions.
    pub const fn batched() -> Self {
        IoPolicy {
            batched_reads: true,
            max_read_window: 8,
            write_behind: true,
            max_write_batch: 8,
        }
    }
}

impl Default for IoPolicy {
    fn default() -> Self {
        IoPolicy::paper_faithful()
    }
}

/// How the using-site name/attribute cache ([`crate::namecache`]) is kept
/// coherent. Each tier includes the one before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coherence {
    /// No cache: the paper-faithful protocol re-reads every directory on
    /// every search (§2.3.4).
    Off,
    /// Pull validation: a cached entry is served after one
    /// [`FsMsg::VvCheck`] round trip to the CSS vouches for its version.
    Validate,
    /// Push invalidation: the CSS records the validating site as a lease
    /// holder, a leased warm hit is served with zero wire traffic, and
    /// every invalidation path recalls the holders first.
    Lease,
}

/// One stamped asynchronous message buffered on the site-sharded run
/// queues. The stamp — (post time, source site, per-source sequence
/// number) — is assigned at [`FsCluster::post`] time and defines the
/// delivery order at the next settle epoch ([`PostStamp`]).
#[derive(Debug)]
pub(crate) struct Posted {
    pub(crate) at: Ticks,
    pub(crate) from: SiteId,
    pub(crate) to: SiteId,
    pub(crate) seq: u64,
    pub(crate) msg: FsMsg,
}

impl Posted {
    fn stamp(&self) -> PostStamp {
        PostStamp {
            at: self.at,
            from: self.from,
            seq: self.seq,
        }
    }
}

/// Site-sharded run queues for asynchronous messages: one shard per
/// destination site, plus the per-source sequence counters that complete
/// the delivery stamp. Shards let a parallel epoch buffer its posts
/// privately and merge them at the barrier by sorting on the stamp — the
/// same sort the sequential engine applies, so both deliver identically.
#[derive(Debug)]
pub(crate) struct RunQueues {
    shards: Vec<VecDeque<Posted>>,
    seq: Vec<u64>,
}

impl RunQueues {
    fn new(n: usize) -> Self {
        RunQueues {
            shards: (0..n).map(|_| VecDeque::new()).collect(),
            seq: vec![0; n],
        }
    }

    fn post(&mut self, at: Ticks, from: SiteId, to: SiteId, msg: FsMsg) {
        let seq = self.seq[from.index()];
        self.seq[from.index()] += 1;
        self.shards[to.index()].push_back(Posted {
            at,
            from,
            to,
            seq,
            msg,
        });
    }

    fn len(&self) -> usize {
        self.shards.iter().map(VecDeque::len).sum()
    }

    /// Takes every post buffered so far, sorted by the engine's delivery
    /// stamp. Posts made *during* delivery re-enter the shards and land
    /// in the next epoch.
    fn drain_epoch(&mut self) -> Vec<Posted> {
        let mut batch: Vec<Posted> = self.shards.iter_mut().flat_map(std::mem::take).collect();
        batch.sort_by_key(|p| p.stamp());
        batch
    }

    /// Every buffered post in stamp order (for diagnostics).
    fn sorted_refs(&self) -> Vec<&Posted> {
        let mut all: Vec<&Posted> = self.shards.iter().flatten().collect();
        all.sort_by_key(|p| p.stamp());
        all
    }
}

/// The distributed filesystem: one kernel per site plus the network.
///
/// Kernels sit behind `Option` so a parallel epoch can *move* a site
/// group's kernels into a shard cluster ([`FsCluster::fork_shard`]) and
/// back; touching a kernel outside its shard's footprint is a grouping
/// bug and panics loudly.
pub struct FsCluster {
    pub(crate) net: Net,
    pub(crate) kernels: Vec<RefCell<Option<FsKernel>>>,
    pub(crate) queues: RefCell<RunQueues>,
    pub(crate) next_shared: Cell<u64>,
    pub(crate) mail_seq: Cell<u32>,
    pub(crate) retry: Cell<RetryPolicy>,
    pub(crate) io_policy: Cell<IoPolicy>,
    pub(crate) coherence: Cell<Coherence>,
    pub(crate) engine: Cell<EngineKind>,
    pub(crate) epoch: Cell<u64>,
    pub(crate) mount_names: RefCell<BTreeMap<String, FilegroupId>>,
    pub(crate) parallel_epochs: Cell<u64>,
    pub(crate) epoch_stamp: Cell<Option<Ticks>>,
}

impl FsCluster {
    /// Assembles a cluster from prepared kernels (use
    /// [`crate::build::FsClusterBuilder`] rather than calling this
    /// directly). The engine defaults to the `LOCUS_ENGINE` environment
    /// variable, falling back to sequential.
    pub fn from_parts(net: Net, kernels: Vec<FsKernel>) -> Self {
        let n = kernels.len();
        FsCluster {
            net,
            kernels: kernels.into_iter().map(|k| RefCell::new(Some(k))).collect(),
            queues: RefCell::new(RunQueues::new(n)),
            next_shared: Cell::new(1),
            mail_seq: Cell::new(1),
            retry: Cell::new(RetryPolicy::default()),
            io_policy: Cell::new(IoPolicy::paper_faithful()),
            coherence: Cell::new(Coherence::Off),
            engine: Cell::new(locus_net::engine_from_env().unwrap_or_default()),
            epoch: Cell::new(0),
            mount_names: RefCell::new(BTreeMap::new()),
            parallel_epochs: Cell::new(0),
            epoch_stamp: Cell::new(None),
        }
    }

    /// How many epoch batches actually forked shards onto threads. A
    /// diagnostic counter (deliberately outside the trace/stats surface,
    /// which must stay byte-identical across engines): tests use it to
    /// prove the parallel path engaged rather than silently serializing.
    pub fn parallel_epochs(&self) -> u64 {
        self.parallel_epochs.get()
    }

    /// Counts one shard-forked epoch (the epoch driver calls this).
    pub fn note_parallel_epoch(&self) {
        self.parallel_epochs.set(self.parallel_epochs.get() + 1);
    }

    /// Marks the cluster as inside (`Some`) or outside (`None`) one
    /// `run_epoch`-style batch, pinning the epoch's entry time. While
    /// set, commit fan-out buffers on the run queues instead of
    /// delivering synchronously (`FsCluster::notify`) and inode mtimes
    /// stamp at the pinned boundary ([`FsCluster::stamp_now`]) — both are
    /// required for mutating epoch batches to produce identical bytes on
    /// the sequential and parallel engines, whose mid-epoch clocks
    /// legitimately differ.
    pub fn set_epoch_stamp(&self, at: Option<Ticks>) {
        self.epoch_stamp.set(at);
    }

    /// Whether an epoch batch is in flight ([`FsCluster::set_epoch_stamp`]).
    pub fn in_epoch(&self) -> bool {
        self.epoch_stamp.get().is_some()
    }

    /// The time to stamp into committed inodes: the epoch boundary while
    /// a batch is in flight (engine-independent), the live clock
    /// otherwise.
    pub fn stamp_now(&self) -> Ticks {
        self.epoch_stamp.get().unwrap_or_else(|| self.net.now())
    }

    /// Records the root-directory component name under which each mounted
    /// filegroup lives (the builder supplies this). The parallel-epoch
    /// engine's footprint analysis consults the map so it can bound an
    /// absolute path's filegroup set without resolving the path. Renaming
    /// a mount-point stub directory at run time is outside the footprint
    /// heuristic's contract; such workloads must use the sequential
    /// engine.
    pub fn set_mount_names(&self, names: BTreeMap<String, FilegroupId>) {
        *self.mount_names.borrow_mut() = names;
    }

    /// The filegroup mounted under the root-directory component `name`,
    /// if any.
    pub fn mounted_fg(&self, name: &str) -> Option<FilegroupId> {
        self.mount_names.borrow().get(name).copied()
    }

    /// The simulation engine driving this cluster.
    pub fn engine(&self) -> EngineKind {
        self.engine.get()
    }

    /// Selects the simulation engine. Both engines produce byte-identical
    /// traces; parallel-epoch only changes wall-clock scheduling.
    pub fn set_engine(&self, engine: EngineKind) {
        self.engine.set(engine);
    }

    /// How many settle epochs have run (each delivery round of
    /// [`FsCluster::settle`] is one epoch).
    pub fn settle_epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// The retry/backoff policy the rpc layer applies under message loss.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry.get()
    }

    /// Replaces the rpc retry/backoff policy.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.retry.set(policy);
    }

    /// The page-transfer policy in effect (paper-faithful per-page
    /// protocols by default).
    pub fn io_policy(&self) -> IoPolicy {
        self.io_policy.get()
    }

    /// Replaces the page-transfer policy.
    pub fn set_io_policy(&self, policy: IoPolicy) {
        self.io_policy.set(policy);
    }

    /// The name/attribute cache's coherence mode, fixed by the builder
    /// ([`Coherence::Off`] by default).
    pub fn coherence(&self) -> Coherence {
        self.coherence.get()
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.kernels.len()
    }

    /// The simulated network (fault injection, statistics, clock).
    pub fn net(&self) -> &Net {
        &self.net
    }

    /// Borrows the kernel of `site`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is already borrowed — which would indicate a
    /// re-entrant message cycle, a protocol bug this simulation is
    /// designed to surface loudly — or if the kernel was moved into a
    /// parallel-epoch shard that does not cover `site` (an operation
    /// escaped its declared footprint).
    pub fn kernel(&self, site: SiteId) -> RefMut<'_, FsKernel> {
        RefMut::map(self.kernels[site.index()].borrow_mut(), |k| {
            k.as_mut()
                .expect("kernel accessed outside its epoch shard footprint")
        })
    }

    /// Runs `f` with the kernel of `site` borrowed.
    pub fn with_kernel<R>(&self, site: SiteId, f: impl FnOnce(&mut FsKernel) -> R) -> R {
        f(&mut self.kernel(site))
    }

    /// All site identifiers.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> {
        (0..self.kernels.len() as u32).map(SiteId)
    }

    /// Buffer-cache counters summed over every site's kernel.
    pub fn cache_stats(&self) -> locus_storage::CacheStats {
        let mut total = locus_storage::CacheStats::default();
        for site in self.sites() {
            total.merge(&self.kernel(site).cache_full_stats());
        }
        total
    }

    /// Publishes the cluster-wide lease counters as `lease.*` stats
    /// gauges and, when a trace is recording, as mirror notes in the
    /// JSONL export. The keys are plural — `lease.grants`, never
    /// `lease.grant` — so the mirrors cannot collide with the per-event
    /// notes the trace auditor's lease invariant consumes.
    pub fn publish_lease_gauges(&self) {
        let s = self.cache_stats();
        for (key, value) in [
            ("lease.grants", s.lease_grants),
            ("lease.hits", s.lease_hits),
            ("lease.recalls", s.lease_recalls),
            ("lease.recall_acks", s.lease_recall_acks),
            ("lease.revokes", s.lease_revokes),
        ] {
            self.net.set_stat_gauge(key, value);
            self.net.obs_note(SiteId(0), key, "cluster", value);
        }
    }

    /// Synchronous remote procedure call (§2.3.2): request message, remote
    /// handler, reply message, driven by the shared
    /// [`RpcEngine`](locus_net::RpcEngine) under the cluster's
    /// [`RetryPolicy`]. A same-site "call" is a plain procedure call with
    /// no network traffic.
    ///
    /// Under fault injection the engine makes the call resilient: a
    /// dropped *request* never ran the handler and is always retried
    /// (after exponential backoff charged to the virtual clock); a
    /// dropped *reply* closed the circuit mid-conversation (§5.1), so the
    /// request is re-issued only if it is [idempotent](FsMsg::idempotent)
    /// — otherwise the ambiguity surfaces as `Esitedown` and recovery
    /// reconciles.
    pub(crate) fn rpc(&self, from: SiteId, to: SiteId, msg: FsMsg) -> SysResult<FsReply> {
        let engine = RpcEngine::new(self.retry.get());
        match engine.rpc(&self.net, from, to, msg, reply_bytes, |m| {
            self.dispatch(to, from, m)
        }) {
            Ok(result) => result,
            Err(_) => Err(Errno::Esitedown),
        }
    }

    /// One-way message with only low-level acknowledgement (the write
    /// protocol and commit notifications, §2.3.5–2.3.6): one message, no
    /// reply message. The handler runs at delivery on the destination's
    /// timelines while the sender moves on ([`RpcEngine::one_way`]). A
    /// dropped send never reached the handler, so it is always safe to
    /// retry.
    pub(crate) fn one_way(&self, from: SiteId, to: SiteId, msg: FsMsg) -> SysResult<FsReply> {
        let engine = RpcEngine::new(self.retry.get());
        match engine.one_way(&self.net, from, to, msg, |m| self.dispatch(to, from, m)) {
            Ok(result) => result,
            Err(_) => Err(Errno::Esitedown),
        }
    }

    /// Delivers a deferred notification. Outside an epoch batch this is
    /// the paper-faithful synchronous one-way (§2.3.6); inside one the
    /// message buffers on the run queues instead, crossing the epoch
    /// barrier and delivering at the next [`settle`](Self::settle) in
    /// stamp order. Buffering is what lets a parallel shard commit
    /// without touching kernels outside its footprint (a reader holding
    /// a stale buffer may live on any site), and the stamp re-basing at
    /// absorb time makes the delivery schedule engine-independent.
    pub fn notify(&self, from: SiteId, to: SiteId, msg: FsMsg) {
        if self.in_epoch() {
            self.post(from, to, msg);
        } else {
            // Delivery failures surface as dropped notifications, exactly
            // like a partition race; recovery handles it.
            let _ = self.one_way(from, to, msg);
        }
    }

    /// Recalls every outstanding coherence lease on `gfid` from the lease
    /// table at `css`, triggered by an invalidation that `trigger`
    /// noticed (the committing SS, the CSS itself, or a propagation
    /// puller). A no-op when leases are off or no lease is outstanding —
    /// the leases-off wire image is untouched.
    ///
    /// Outside an epoch batch the recalls are one fan-out round of
    /// reliable rpcs whose replies are the acknowledgements, so every
    /// holder has dropped its lease before the committing operation's
    /// `commit.end`, at the cost of one overlapped round; an unreachable
    /// holder is revoked unilaterally (its own §5.6 cleanup demotes the
    /// cache when the partition change is processed). Inside an epoch the
    /// recalls buffer on the site-sharded run queues and cross the
    /// barrier in [`PostStamp`] order, keeping the parallel engine
    /// byte-identical; the holders are part of the committing op's
    /// mutating footprint, so the shard owns their queues. Either way a
    /// recall that never reaches its holder is remembered at the CSS and
    /// re-sent at its next §5.6 cleanup.
    pub(crate) fn recall_leases(&self, trigger: SiteId, css: SiteId, gfid: locus_types::Gfid) {
        if self.coherence() != Coherence::Lease {
            return;
        }
        let holders = self.kernel(css).take_lease_holders(gfid);
        if holders.is_empty() {
            return;
        }
        if trigger != css && !self.in_epoch() {
            // The committing SS synchronously nudges the CSS to break the
            // leases; one control message models the trigger. The recalls
            // below run even when it is lost: skipping them would leave
            // live leases behind a commit.
            let _ = self.one_way(trigger, css, FsMsg::LeaseBreak { gfid });
        }
        // Grants never target the CSS itself (a local probe is a
        // procedure call); a row naming it is vestigial.
        let holders: Vec<SiteId> = holders.into_iter().filter(|&h| h != css).collect();
        if self.in_epoch() {
            for holder in holders {
                self.post(css, holder, FsMsg::LeaseRecall { gfid });
            }
            return;
        }
        self.send_recalls(css, gfid, &holders);
    }

    /// One acknowledged fan-out round of `LeaseRecall`s on `gfid` from
    /// `css` to `holders`. An abandoned recall is a unilateral revoke,
    /// remembered for the CSS's next cleanup.
    pub(crate) fn send_recalls(&self, css: SiteId, gfid: locus_types::Gfid, holders: &[SiteId]) {
        let acks = RpcEngine::new(self.retry.get()).fan_out(
            &self.net,
            css,
            holders,
            FsMsg::LeaseRecall { gfid },
            reply_bytes,
            |holder, m| self.dispatch(holder, css, m),
        );
        let mut k = self.kernel(css);
        for (&holder, ack) in holders.iter().zip(acks) {
            match ack {
                Ok(Ok(_)) => k.name_cache.count_recall_ack(),
                _ => {
                    k.name_cache.count_revokes(1);
                    k.note_abandoned_recall(gfid, holder);
                }
            }
        }
    }

    /// Breaks the leases on `gfid` when `site` holds the CSS role: for
    /// every path that installs a version directly into the CSS's pack
    /// (a propagation pull, a recovery install), behind every granted
    /// cache's back.
    pub fn recall_if_css(&self, site: SiteId, gfid: locus_types::Gfid) {
        let is_css = self.kernel(site).mount.css_of(gfid.fg) == Ok(site);
        if is_css {
            self.recall_leases(site, site, gfid);
        }
    }

    /// Runs `f` as one observed syscall-level operation: opens an
    /// observability span for service `"fs"` around it and closes it
    /// with the outcome (`"ok"` or the errno name). A no-op wrapper
    /// while observation is off.
    pub(crate) fn with_span<T>(
        &self,
        op: &str,
        site: SiteId,
        f: impl FnOnce() -> SysResult<T>,
    ) -> SysResult<T> {
        if !self.net.observing() {
            return f();
        }
        let span = self.net.obs_span_open("fs", op, site);
        let out = f();
        let outcome = match &out {
            Ok(_) => "ok".to_owned(),
            Err(e) => format!("{e:?}"),
        };
        self.net.obs_span_close(span, &outcome);
        out
    }

    /// Queues an asynchronous post on the site-sharded run queues,
    /// stamped with the current virtual time and the source site's next
    /// sequence number; the next [`settle`](Self::settle) epoch delivers
    /// all buffered posts in stamp order. Posts to sites that become
    /// unreachable are silently dropped — partition recovery reconciles
    /// later (§4). This is the single stamping choke point: every
    /// deferred notification must enter through it so the engines agree
    /// on the delivery order.
    pub fn post(&self, from: SiteId, to: SiteId, msg: FsMsg) {
        let at = self.net.now();
        self.queues.borrow_mut().post(at, from, to, msg);
    }

    /// Snapshot of the per-source post sequence counters. The epoch
    /// driver records one snapshot per op boundary (mirroring
    /// [`Net::op_mark`]): a post whose source-seq falls between two
    /// snapshots was made during that op, which is what lets
    /// [`FsCluster::absorb_shard_rebased`] shift its stamp by the same
    /// amount as the op's trace segment.
    pub fn post_seqs(&self) -> Vec<u64> {
        self.queues.borrow().seq.clone()
    }

    /// Describes the current background-work state: pending-queue length
    /// and head message kinds, plus every nonempty per-site propagation
    /// queue. This is the panic payload when [`FsCluster::settle`] fails
    /// to quiesce, so a livelock is diagnosable from the message alone.
    pub fn settle_diagnostics(&self) -> String {
        let queues = self.queues.borrow();
        let sorted = queues.sorted_refs();
        let mut out = format!(
            "engine {}, epoch {}; pending queue: {} message(s)",
            self.engine.get(),
            self.epoch.get(),
            sorted.len()
        );
        let kinds: Vec<String> = sorted
            .iter()
            .rev()
            .take(8)
            .map(|p| format!("{} -> {} {}", p.from, p.to, p.msg.kind()))
            .collect();
        if !kinds.is_empty() {
            out.push_str(&format!(
                "; newest first: [{}]{}",
                kinds.join(", "),
                if sorted.len() > kinds.len() { ", …" } else { "" }
            ));
        }
        let mut any_prop = false;
        for site in self.sites() {
            let k = self.kernel(site);
            let depth = k.prop_queue_len();
            if depth > 0 {
                any_prop = true;
                let head = k
                    .prop_queue
                    .front()
                    .map(|r| format!("{:?} from {}", r.gfid, r.source))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "; {site} prop_queue depth {depth} (head: {head})"
                ));
            }
        }
        if !any_prop {
            out.push_str("; all prop_queues empty");
        }
        out
    }

    /// Drains all background work until quiescent, in virtual-time
    /// epochs. Each epoch snapshots every buffered post and delivers the
    /// batch in the engine's documented stamp order — (post time, source
    /// site, per-source sequence number) — then drains the per-site
    /// propagation queues in site order. Posts produced during an epoch
    /// are buffered for the next one. Both engines run this exact loop,
    /// which is why the delivery schedule (and hence the trace) is
    /// engine-independent; under observation each epoch is wrapped in a
    /// `settle.epoch` span whose `settle.deliver` notes the trace
    /// auditor's invariant 10 checks against the same order.
    pub fn settle(&self) {
        // Epoch budget scales with the cluster: a broadcast storm at n
        // sites legitimately needs O(n) epochs to quiesce.
        let max_rounds = 4_096 + 64 * self.site_count();
        for _ in 0..max_rounds {
            let mut moved = false;
            let batch = self.queues.borrow_mut().drain_epoch();
            if !batch.is_empty() {
                moved = true;
                self.epoch.set(self.epoch.get() + 1);
                let span = if self.net.observing() {
                    self.net.obs_span_open("fs", "settle.epoch", SiteId(0))
                } else {
                    0
                };
                for p in batch {
                    self.net.obs_note(
                        p.to,
                        "settle.deliver",
                        format_args!("{}->{}@{}", p.from, p.to, p.at.as_micros()),
                        p.seq,
                    );
                    // A recall that cannot be delivered is remembered at
                    // the CSS like an abandoned acknowledged one.
                    let recall = match p.msg {
                        FsMsg::LeaseRecall { gfid } => Some(gfid),
                        _ => None,
                    };
                    // Other delivery failures surface as dropped
                    // notifications, exactly like a partition race;
                    // recovery handles it.
                    let delivered = self.net.reachable(p.from, p.to)
                        && p.from != p.to
                        && self.one_way(p.from, p.to, p.msg).is_ok();
                    if let (false, Some(gfid)) = (delivered, recall) {
                        self.kernel(p.from).note_abandoned_recall(gfid, p.to);
                    }
                }
                if span != 0 {
                    self.net.obs_span_close(span, "ok");
                }
            }
            for site in self.sites() {
                loop {
                    let req = {
                        let mut k = self.kernel(site);
                        k.prop_queue.pop_front()
                    };
                    let Some(req) = req else { break };
                    moved = true;
                    // A failed pull leaves the local copy coherent but out
                    // of date (§2.3.6); the merge procedure fixes it.
                    let _ = ops::commit::propagate_pull(self, site, &req);
                }
            }
            if !moved {
                // Settled means idle: every detached one-way and delayed
                // write has finished, so nothing carries over to the next
                // operation or epoch.
                self.net.wait_idle();
                debug_assert!(self.net.is_idle(), "settle left a site busy");
                return;
            }
        }
        // Unreachable in practice; a livelock here would be a protocol
        // bug — report the stuck state so it is diagnosable.
        panic!(
            "settle ({} engine) did not quiesce after {max_rounds} epochs: {}",
            self.engine.get(),
            self.settle_diagnostics()
        );
    }

    /// Whether any background work is pending (tests use this to observe
    /// the propagation window).
    pub fn has_pending_background_work(&self) -> bool {
        if self.queues.borrow().len() > 0 {
            return true;
        }
        self.sites().any(|s| self.kernel(s).prop_queue_len() > 0)
    }

    /// Forks a shard cluster for one parallel-epoch site group: the
    /// member sites' kernels *move* into the shard (any other site's
    /// kernel slot is empty and panics on access), the network forks via
    /// [`Net::fork_shard`], the run queues start empty with the sequence
    /// counters copied, and the shared-descriptor / mailbox counters are
    /// copied and asserted unchanged at absorb time (epoch op sets that
    /// would allocate them are executed serially instead).
    pub fn fork_shard(&self, sites: &BTreeSet<SiteId>) -> FsCluster {
        let n = self.site_count();
        let kernels: Vec<RefCell<Option<FsKernel>>> = (0..n)
            .map(|i| {
                let site = SiteId(i as u32);
                RefCell::new(if sites.contains(&site) {
                    Some(
                        self.kernels[i]
                            .borrow_mut()
                            .take()
                            .expect("site already moved into another epoch shard"),
                    )
                } else {
                    None
                })
            })
            .collect();
        let mut queues = RunQueues::new(n);
        queues.seq.copy_from_slice(&self.queues.borrow().seq);
        FsCluster {
            net: self.net.fork_shard(sites),
            kernels,
            queues: RefCell::new(queues),
            next_shared: Cell::new(self.next_shared.get()),
            mail_seq: Cell::new(self.mail_seq.get()),
            retry: Cell::new(self.retry.get()),
            io_policy: Cell::new(self.io_policy.get()),
            coherence: Cell::new(self.coherence.get()),
            engine: Cell::new(self.engine.get()),
            epoch: Cell::new(self.epoch.get()),
            mount_names: RefCell::new(self.mount_names.borrow().clone()),
            parallel_epochs: Cell::new(0),
            epoch_stamp: Cell::new(self.epoch_stamp.get()),
        }
    }

    /// Re-absorbs a shard cluster at the epoch barrier: kernels move
    /// back, shard posts (stamps intact) append onto the global run
    /// queues, and member sites' sequence counters are adopted. Returns
    /// the shard's network for the caller to merge via
    /// [`Net::absorb_shards`] in global submission order. Single-segment
    /// callers (tests, whole-shard work with no interleaving to hide)
    /// use this directly; the epoch driver uses
    /// [`FsCluster::absorb_shard_rebased`] so post stamps land on the
    /// merged clock.
    pub fn absorb_shard(&self, shard: FsCluster) -> Net {
        self.absorb_shard_rebased(shard, &[], &[])
    }

    /// [`FsCluster::absorb_shard`] with per-op stamp re-basing.
    /// `seq_marks[j]` is the [`FsCluster::post_seqs`] snapshot at the
    /// j-th op boundary (ops + 1 entries) and `shifts[j]` is the shift
    /// [`Net::absorb_shards`] applies to op j's trace segment: a post
    /// whose source-seq falls in segment j was made during op j on the
    /// shard-local clock, so adding the same shift reproduces the stamp
    /// the sequential engine would have assigned — the merged delivery
    /// order is then engine-independent. With empty slices, stamps pass
    /// through untouched.
    pub fn absorb_shard_rebased(
        &self,
        shard: FsCluster,
        seq_marks: &[Vec<u64>],
        shifts: &[Ticks],
    ) -> Net {
        assert_eq!(
            shard.next_shared.get(),
            self.next_shared.get(),
            "an epoch shard allocated a shared descriptor; such ops must run serially"
        );
        assert_eq!(
            shard.mail_seq.get(),
            self.mail_seq.get(),
            "an epoch shard allocated a mailbox sequence; such ops must run serially"
        );
        let mut members = Vec::new();
        for (i, slot) in shard.kernels.iter().enumerate() {
            if let Some(k) = slot.borrow_mut().take() {
                members.push(i);
                let prev = self.kernels[i].borrow_mut().replace(k);
                assert!(
                    prev.is_none(),
                    "absorbed a kernel into an occupied slot (overlapping shards)"
                );
            }
        }
        let mut shard_queues = shard.queues.into_inner();
        let mut g = self.queues.borrow_mut();
        for &i in &members {
            g.seq[i] = shard_queues.seq[i];
        }
        for q in shard_queues.shards.iter_mut() {
            for mut p in std::mem::take(q) {
                assert!(
                    members.contains(&p.from.index()),
                    "an epoch shard posted on behalf of a site outside its footprint"
                );
                if !shifts.is_empty() {
                    let f = p.from.index();
                    let j = (0..shifts.len())
                        .find(|&j| p.seq >= seq_marks[j][f] && p.seq < seq_marks[j + 1][f])
                        .expect("a shard post falls outside every op segment");
                    p.at += shifts[j];
                }
                g.shards[p.to.index()].push_back(p);
            }
        }
        shard.net
    }

    /// Central message dispatch: the serving site's kernel runs the
    /// requested operation (Figure 1's "system call continuation").
    fn dispatch(&self, at: SiteId, from: SiteId, msg: FsMsg) -> SysResult<FsReply> {
        match msg {
            FsMsg::OpenReq {
                gfid,
                mode,
                us_vv,
                us,
            } => ops::open::handle_css_open(self, at, gfid, mode, us_vv, us),
            FsMsg::SsPoll {
                gfid,
                latest,
                us,
                write,
            } => ops::open::handle_ss_poll(self, at, gfid, &latest, us, write),
            FsMsg::ReadPage { gfid, lpn, .. } => {
                ops::io::handle_read_page(self, at, from, gfid, lpn)
            }
            FsMsg::ReadPages {
                gfid, first, count, ..
            } => ops::io::handle_read_pages(self, at, from, gfid, first, count),
            FsMsg::WritePages {
                gfid,
                first,
                pages,
                new_size,
            } => ops::io::handle_write_pages(self, at, from, gfid, first, &pages, new_size),
            FsMsg::WritePage {
                gfid,
                lpn,
                data,
                new_size,
            } => ops::io::handle_write_page(self, at, from, gfid, lpn, &data, new_size),
            FsMsg::Commit { gfid, meta } => ops::commit::handle_commit(self, at, gfid, meta),
            FsMsg::AbortChanges { gfid } => ops::commit::handle_abort(self, at, gfid),
            FsMsg::Close { gfid, us, write } => ops::open::handle_close(self, at, gfid, us, write),
            FsMsg::SsClose { gfid, us, write } => {
                ops::open::handle_ss_close(self, at, gfid, us, write)
            }
            FsMsg::CommitNotify {
                gfid,
                vv,
                source,
                origin,
                inode_only,
                pages,
                info,
            } => ops::commit::handle_commit_notify(
                self, at, gfid, vv, source, origin, inode_only, pages, info,
            ),
            FsMsg::PullOpen { gfid } => ops::commit::handle_pull_open(self, at, gfid),
            FsMsg::TokenAcquire { id, requester } => {
                ops::fd::handle_token_acquire(self, at, id, requester)
            }
            FsMsg::TokenRecall { id } => ops::fd::handle_token_recall(self, at, id),
            FsMsg::TokenGive { id, offset } => ops::fd::handle_token_give(self, at, id, offset),
            FsMsg::PipeOp { gfid, op } => ops::io::handle_pipe_op(self, at, gfid, op),
            FsMsg::DeviceOp { gfid, op } => ops::io::handle_device_op(self, at, gfid, op),
            FsMsg::CreateAt {
                fg,
                pack_idx,
                ftype,
                perms,
                owner,
                replicas,
            } => {
                ops::namei::handle_create_at(self, at, fg, pack_idx, ftype, perms, owner, replicas)
            }
            FsMsg::Invalidate { gfid } => {
                self.kernel(at).invalidate_caches_for(gfid);
                // An Invalidate landing at the file's CSS breaks any
                // outstanding leases too (recovery rewrites copies behind
                // every cache's back).
                let is_css = self.kernel(at).mount.css_of(gfid.fg) == Ok(at);
                if is_css {
                    self.recall_leases(at, at, gfid);
                }
                Ok(FsReply::Ok)
            }
            FsMsg::VvCheck { gfid } => ops::namei::handle_vv_check(self, at, from, gfid),
            FsMsg::LeaseRecall { gfid } => {
                self.kernel(at).name_cache.recall_lease(gfid);
                self.net.obs_note(at, "lease.recall", gfid, 0);
                Ok(FsReply::Ok)
            }
            FsMsg::LeaseBreak { .. } => Ok(FsReply::Ok),
            FsMsg::ReconfigRegister {
                gfid,
                us,
                ss,
                write,
            } => ops::cleanup::handle_reconfig_register(self, at, gfid, us, ss, write),
            FsMsg::CssHandoff { fg, epoch, new_css } => {
                crate::handoff::handle_css_handoff(self, at, fg, epoch, new_css)
            }
            FsMsg::CssUpdate { fg, epoch, new_css } => {
                crate::handoff::handle_css_update(self, at, fg, epoch, new_css)
            }
        }
    }
}

/// Wire size of a filesystem reply; an error reply is one control message.
fn reply_bytes(result: &SysResult<FsReply>) -> usize {
    match result {
        Ok(reply) => reply.wire_bytes(),
        Err(_) => crate::cost::CONTROL_MSG_BYTES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::FsClusterBuilder;
    use crate::kernel::PropReq;
    use locus_types::{FilegroupId, Gfid};

    fn cluster() -> FsCluster {
        FsClusterBuilder::new()
            .vax_sites(3)
            .filegroup("root", &[0, 1])
            .build()
    }

    /// Regression: the "settle did not quiesce" panic used to carry no
    /// state at all. The diagnostics must name the queue depths and the
    /// stuck message kinds.
    #[test]
    fn settle_diagnostics_report_queues_and_kinds() {
        let fsc = cluster();
        let quiet = fsc.settle_diagnostics();
        assert!(quiet.contains("pending queue: 0 message(s)"), "{quiet}");
        assert!(quiet.contains("all prop_queues empty"), "{quiet}");

        let gfid = Gfid::new(FilegroupId(1), locus_types::Ino(7));
        fsc.post(SiteId(0), SiteId(1), FsMsg::Invalidate { gfid });
        fsc.post(SiteId(0), SiteId(2), FsMsg::PullOpen { gfid });
        fsc.kernel(SiteId(2)).enqueue_propagation(PropReq {
            gfid,
            source: SiteId(0),
            pages: None,
        });
        let stuck = fsc.settle_diagnostics();
        assert!(stuck.contains("pending queue: 2 message(s)"), "{stuck}");
        assert!(stuck.contains("PULL open"), "newest kind named: {stuck}");
        assert!(stuck.contains("S2 prop_queue depth 1"), "{stuck}");
        assert!(stuck.contains("from S0"), "propagation source named: {stuck}");

        fsc.settle();
        assert!(!fsc.has_pending_background_work());
        assert!(fsc
            .settle_diagnostics()
            .contains("pending queue: 0 message(s)"));
    }
}
