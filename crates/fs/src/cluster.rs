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
//! Commit notifications are instead one-way messages whose handlers run
//! detached on the destination's timelines, and update propagation is
//! *asynchronous*: each notified site queues a pull that
//! [`FsCluster::settle`] drains, playing the role of the paper's
//! background kernel process servicing the propagation queue (§2.3.6).
//! Tests can observe the staleness window between a commit and the
//! corresponding `settle`.

use std::cell::{Cell, RefCell, RefMut};

use locus_net::{EngineKind, Net, RetryPolicy, RpcEngine};
use locus_types::{Errno, SiteId, SysResult};

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

/// The distributed filesystem: one kernel per site plus the network.
pub struct FsCluster {
    pub(crate) net: Net,
    pub(crate) kernels: Vec<RefCell<FsKernel>>,
    pub(crate) next_shared: Cell<u64>,
    pub(crate) mail_seq: Cell<u32>,
    pub(crate) retry: Cell<RetryPolicy>,
    pub(crate) io_policy: Cell<IoPolicy>,
    pub(crate) coherence: Cell<Coherence>,
}

impl FsCluster {
    /// Assembles a cluster from prepared kernels (use
    /// [`crate::build::FsClusterBuilder`] rather than calling this
    /// directly).
    pub fn from_parts(net: Net, kernels: Vec<FsKernel>) -> Self {
        FsCluster {
            net,
            kernels: kernels.into_iter().map(RefCell::new).collect(),
            next_shared: Cell::new(1),
            mail_seq: Cell::new(1),
            retry: Cell::new(RetryPolicy::default()),
            io_policy: Cell::new(IoPolicy::paper_faithful()),
            coherence: Cell::new(Coherence::Off),
        }
    }

    /// Always [`EngineKind::Sequential`]: there is one engine. Kept only
    /// for the benchmark's layer probe until it stops asking.
    pub fn engine(&self) -> EngineKind {
        EngineKind::Sequential
    }

    /// Ignores `engine`: there is one engine. Kept only for the
    /// benchmark's layer probe until it stops selecting one.
    pub fn set_engine(&self, _engine: EngineKind) {}

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
    /// designed to surface loudly.
    pub fn kernel(&self, site: SiteId) -> RefMut<'_, FsKernel> {
        self.kernels[site.index()].borrow_mut()
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

    /// Sends a notification (a commit notice, an invalidation) as a
    /// paper-faithful one-way (§2.3.6): the handler runs detached on the
    /// destination's timelines and the sender moves on. Delivery
    /// failures surface as dropped notifications, exactly like a
    /// partition race; recovery handles it.
    pub fn notify(&self, from: SiteId, to: SiteId, msg: FsMsg) {
        let _ = self.one_way(from, to, msg);
    }

    /// Recalls every outstanding coherence lease on `gfid` from the lease
    /// table at `css`, triggered by an invalidation that `trigger`
    /// noticed (the committing SS, the CSS itself, or a propagation
    /// puller). A no-op when leases are off or no lease is outstanding —
    /// the leases-off wire image is untouched.
    ///
    /// The recalls are one fan-out round of reliable rpcs whose replies
    /// are the acknowledgements, so every holder has dropped its lease
    /// before the committing operation's `commit.end`, at the cost of one
    /// overlapped round. An unreachable holder is revoked unilaterally
    /// (its own §5.6 cleanup demotes the cache when the partition change
    /// is processed), and the recall that never reached it is remembered
    /// at the CSS and re-sent at its next §5.6 cleanup.
    pub(crate) fn recall_leases(&self, trigger: SiteId, css: SiteId, gfid: locus_types::Gfid) {
        if self.coherence() != Coherence::Lease {
            return;
        }
        let holders = self.kernel(css).take_lease_holders(gfid);
        if holders.is_empty() {
            return;
        }
        if trigger != css {
            // The committing SS synchronously nudges the CSS to break the
            // leases; one control message models the trigger. The recalls
            // below run even when it is lost: skipping them would leave
            // live leases behind a commit.
            let _ = self.one_way(trigger, css, FsMsg::LeaseBreak { gfid });
        }
        // Grants never target the CSS itself (a local probe is a
        // procedure call); a row naming it is vestigial.
        let holders: Vec<SiteId> = holders.into_iter().filter(|&h| h != css).collect();
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

    /// Describes the current background-work state: every nonempty
    /// per-site propagation queue with its head request. This is the
    /// panic payload when [`FsCluster::settle`] fails to quiesce, so a
    /// livelock is diagnosable from the message alone.
    pub fn settle_diagnostics(&self) -> String {
        let stuck: Vec<String> = self
            .sites()
            .filter_map(|site| {
                let k = self.kernel(site);
                let head = k.prop_queue.front()?;
                Some(format!(
                    "{site} prop_queue depth {} (head: {:?} from {})",
                    k.prop_queue_len(),
                    head.gfid,
                    head.source
                ))
            })
            .collect();
        if stuck.is_empty() {
            "all prop_queues empty".to_owned()
        } else {
            stuck.join("; ")
        }
    }

    /// Drains all background work until quiescent: the per-site
    /// propagation queues in site order, round after round (a pull may
    /// queue further pulls), then waits for every site to go idle.
    pub fn settle(&self) {
        // The round budget scales with the cluster: a propagation storm
        // at n sites legitimately needs O(n) rounds to quiesce.
        let max_rounds = 4_096 + 64 * self.site_count();
        for _ in 0..max_rounds {
            let mut moved = false;
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
                // operation.
                self.net.wait_idle();
                debug_assert!(self.net.is_idle(), "settle left a site busy");
                return;
            }
        }
        // Unreachable in practice; a livelock here would be a protocol
        // bug — report the stuck state so it is diagnosable.
        panic!(
            "settle did not quiesce after {max_rounds} rounds: {}",
            self.settle_diagnostics()
        );
    }

    /// Whether any background work is pending (tests use this to observe
    /// the propagation window).
    pub fn has_pending_background_work(&self) -> bool {
        self.sites().any(|s| self.kernel(s).prop_queue_len() > 0)
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
    /// stuck requests.
    #[test]
    fn settle_diagnostics_report_queues_and_kinds() {
        let fsc = cluster();
        let quiet = fsc.settle_diagnostics();
        assert!(quiet.contains("all prop_queues empty"), "{quiet}");

        let gfid = Gfid::new(FilegroupId(1), locus_types::Ino(7));
        fsc.kernel(SiteId(2)).enqueue_propagation(PropReq {
            gfid,
            source: SiteId(0),
            pages: None,
        });
        assert!(fsc.has_pending_background_work());
        let stuck = fsc.settle_diagnostics();
        assert!(stuck.contains("S2 prop_queue depth 1"), "{stuck}");
        assert!(stuck.contains("from S0"), "propagation source named: {stuck}");

        fsc.settle();
        assert!(!fsc.has_pending_background_work());
        assert!(fsc.settle_diagnostics().contains("all prop_queues empty"));
    }
}
