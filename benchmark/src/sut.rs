//! The adapter: every call the end-to-end driver makes into the program
//! goes through this file, and nothing else in the package names a
//! program type. It keeps the smallest surface that serves the four
//! workloads — the `Cluster` system calls, its fault injection, and the
//! public counters (`Net::stats`, `FsCluster::cache_stats`,
//! `Net::take_obs_events`) — so a change to any other API of the program
//! cannot stop the end-to-end numbers. The layer probes call the APIs
//! they time from their own binary for the same reason.
//!
//! When a [`Tracer`] is attached, each call is also recorded as a host
//! span, and the program's own event stream is drained after it to count
//! the messages, bytes and wire time the call caused.

use locus::{Cluster, OpenMode, Pid, SiteId};
use locus_fs::PlacementPolicy;
use locus_net::{HealthPolicy, LatencyModel, ObsEvent, SendOutcome};
use locus_topology::PlacementConfig;

use crate::trace::{CallObs, Tracer};

/// The program's error code.
pub type Errno = locus::Errno;
/// Result of one call into the program.
pub type SutResult<T> = Result<T, Errno>;

/// One filegroup of a cluster to build.
#[derive(Clone, Debug)]
pub struct FgSpec {
    /// Filegroup name.
    pub name: String,
    /// Sites holding a container (a replica pack), first is where creates
    /// land.
    pub containers: Vec<u32>,
    /// Mount point (`/name`), `None` for the root filegroup.
    pub mount: Option<String>,
}

/// The cluster a workload runs on. Health monitoring and name leases are
/// always on: the configuration the ROADMAP's knee and recall numbers
/// refer to.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Number of sites.
    pub sites: u32,
    /// Filegroups; the first is the root of the naming tree.
    pub filegroups: Vec<FgSpec>,
    /// Whether the adaptive CSS placement driver runs.
    pub placement: bool,
    /// Pages per pack.
    pub blocks_per_pack: u32,
    /// Inode numbers per filegroup.
    pub inos_per_fg: u32,
}

/// A logged-in user: one process on one site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct User {
    pid: Pid,
    /// The site the process runs on.
    pub site: u32,
}

/// What `stat` returned, reduced to what the model checks.
#[derive(Clone, Copy, Debug)]
pub struct StatInfo {
    /// Whether the path is a directory.
    pub is_dir: bool,
    /// Size in bytes.
    pub size: u64,
    /// Whether the file is marked in unreconciled conflict (§4.6).
    pub conflict: bool,
}

/// What one `reconfigure()` did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReconfigSummary {
    /// Partitions that emerged.
    pub partitions: u32,
    /// Partition-protocol polls sent.
    pub partition_polls: u32,
    /// Merge-protocol polls sent.
    pub merge_polls: u32,
    /// Files the recovery procedure had to act on.
    pub files_reconciled: u32,
    /// Files it left marked in conflict.
    pub conflicts: u32,
}

/// A snapshot of the program's public counters. All values are
/// cumulative; the driver subtracts two snapshots.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Successful sends.
    pub sends: u64,
    /// Bytes they carried.
    pub bytes: u64,
    /// Engine-level retries.
    pub retries: u64,
    /// Sends by originating service: fs, proc, topology, recovery.
    pub service_sends: [u64; 4],
    /// `LEASE recall` requests and acks.
    pub lease_recall_msgs: u64,
    /// `COMMIT notify` messages and acks.
    pub commit_notify_msgs: u64,
    /// Consumed CPU per site, µs of virtual time.
    pub busy_us: Vec<u64>,
    /// Buffer-cache page lookups served from the cache / missed.
    pub page_hits: u64,
    /// See `page_hits`.
    pub page_misses: u64,
    /// Directory-contents lookups served from the name cache / missed.
    pub dentry_hits: u64,
    /// See `dentry_hits`.
    pub dentry_misses: u64,
    /// Attribute lookups served from the name cache / missed.
    pub attr_hits: u64,
    /// See `attr_hits`.
    pub attr_misses: u64,
    /// Lookups served locally under a live lease.
    pub lease_hits: u64,
    /// `LeaseRecall` callbacks processed by holders.
    pub lease_recalls: u64,
    /// CSS roles the placement driver has moved.
    pub placement_migrations: u64,
    /// Sites currently holding a synchronization role.
    pub css_sites: Vec<u32>,
}

/// Names of the services [`Counters::service_sends`] is indexed by.
pub const SERVICES: [&str; 4] = ["fs", "proc", "topology", "recovery"];

/// The system under test.
pub struct Sut {
    cluster: Cluster,
    latency: LatencyModel,
    tracer: Option<Tracer>,
    /// Deepest per-site CSS queue any `balance_css` step has reported
    /// since the last [`Sut::take_css_depth_max`].
    css_depth_max: u64,
}

impl Sut {
    /// Builds the cluster. The builder's default engine is used; the
    /// caller (run.sh) leaves `LOCUS_ENGINE` unset.
    pub fn build(spec: &ClusterSpec) -> Sut {
        let mut b = Cluster::builder()
            .vax_sites(spec.sites as usize)
            .blocks_per_pack(spec.blocks_per_pack)
            .inos_per_fg(spec.inos_per_fg)
            .name_leases(true);
        for fg in &spec.filegroups {
            b = match &fg.mount {
                None => b.filegroup(&fg.name, &fg.containers),
                Some(path) => b.filegroup_mounted(&fg.name, &fg.containers, path),
            };
        }
        let cluster = b.build();
        cluster.net().enable_health(HealthPolicy::default());
        if spec.placement {
            // e13's policy: the one the ROADMAP's 64-site knee was
            // measured under.
            cluster.enable_placement(PlacementPolicy {
                config: PlacementConfig {
                    hysteresis_pct: 25,
                    min_load: 2,
                },
                max_moves_per_step: 32,
                ..Default::default()
            });
        }
        let latency = cluster.net().latency();
        Sut {
            cluster,
            latency,
            tracer: None,
            css_depth_max: 0,
        }
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// Starts the traced run: host spans around every call, and the
    /// program's own virtual-clock events switched on.
    pub fn start_tracing(&mut self) {
        self.cluster.net().set_observing(true);
        self.cluster.net().take_obs_events();
        self.tracer = Some(Tracer::new());
    }

    /// Stops tracing and hands back the recorder.
    pub fn stop_tracing(&mut self) -> Option<Tracer> {
        self.cluster.net().set_observing(false);
        self.cluster.net().take_obs_events();
        self.tracer.take()
    }

    /// Marks the start of one driver-level op in the trace.
    pub fn begin_op(&mut self, name: &'static str, op_id: u64) {
        if let Some(t) = self.tracer.as_mut() {
            t.begin_op(name, op_id);
        }
    }

    /// Marks the end of the current op in the trace.
    pub fn end_op(&mut self) {
        if let Some(t) = self.tracer.as_mut() {
            t.end_op();
        }
    }

    /// Makes one call into the program, recording it when tracing.
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce(&Cluster) -> T) -> T {
        let Some(tracer) = self.tracer.as_mut() else {
            return f(&self.cluster);
        };
        let net = self.cluster.net();
        let sim0 = net.now().as_micros();
        let start_ns = tracer.now_ns();
        let out = f(&self.cluster);
        let end_ns = tracer.now_ns();
        let sim_us = net.now().as_micros() - sim0;
        let mut obs = CallObs::default();
        for ev in net.take_obs_events() {
            match ev {
                ObsEvent::Request { bytes, outcome, .. }
                | ObsEvent::Reply { bytes, outcome, .. }
                | ObsEvent::OneWay { bytes, outcome, .. } => {
                    if outcome == SendOutcome::Delivered {
                        obs.msgs += 1;
                        obs.bytes += bytes;
                        obs.wire_us += self.latency.message_cost(bytes as usize).as_micros();
                    }
                }
                ObsEvent::SpanOpen {
                    id,
                    service,
                    op,
                    at,
                    ..
                } => tracer.prog_open(id, &service, &op, at.as_micros()),
                ObsEvent::SpanClose { id, at, .. } => tracer.prog_close(id, at.as_micros()),
                ObsEvent::OneWayLoss { .. } | ObsEvent::Note { .. } => {}
            }
        }
        tracer.call(name, start_ns, end_ns, sim_us, obs);
        out
    }

    // ------------------------------------------------------------------
    // Counters
    // ------------------------------------------------------------------

    /// Virtual time, µs.
    pub fn now_us(&self) -> u64 {
        self.cluster.net().now().as_micros()
    }

    /// Number of sites.
    pub fn site_count(&self) -> u32 {
        self.cluster.site_count() as u32
    }

    /// Snapshots the public counters. Costs a copy of the statistics
    /// tables, so the driver calls it at window edges only.
    pub fn counters(&self) -> Counters {
        let stats = self.cluster.net().stats();
        let cache = self.cluster.fs().cache_stats();
        let n = self.cluster.site_count() as u32;
        let mut css_sites: Vec<u32> = self
            .cluster
            .fs()
            .kernel(SiteId(0))
            .mount
            .filegroups()
            .map(|m| m.css.0)
            .collect();
        css_sites.sort_unstable();
        css_sites.dedup();
        Counters {
            sends: stats.total_sends(),
            bytes: stats.total_bytes(),
            retries: stats.total_retries(),
            service_sends: SERVICES.map(|s| stats.service(s).sends),
            lease_recall_msgs: stats.sends("LEASE recall") + stats.sends("LEASE recall ack"),
            commit_notify_msgs: stats.sends("COMMIT notify") + stats.sends("COMMIT notify ack"),
            busy_us: (0..n).map(|s| stats.busy_micros(SiteId(s))).collect(),
            page_hits: cache.hits,
            page_misses: cache.misses,
            dentry_hits: cache.dentry_hits,
            dentry_misses: cache.dentry_misses,
            attr_hits: cache.attr_hits,
            attr_misses: cache.attr_misses,
            lease_hits: cache.lease_hits,
            lease_recalls: cache.lease_recalls,
            placement_migrations: self.cluster.placement_migrations(),
            css_sites,
        }
    }

    /// The deepest CSS queue seen since the last call, then forgets it.
    pub fn take_css_depth_max(&mut self) -> u64 {
        std::mem::take(&mut self.css_depth_max)
    }

    // ------------------------------------------------------------------
    // System calls
    // ------------------------------------------------------------------

    /// Logs a user in on `site`.
    pub fn login(&mut self, site: u32, uid: u32) -> SutResult<User> {
        let pid = self.call("proc.login", |c| c.login(SiteId(site), uid))?;
        Ok(User { pid, site })
    }

    /// `mkdir`.
    pub fn mkdir(&mut self, u: User, path: &str) -> SutResult<()> {
        self.call("fs.mkdir", |c| c.mkdir(u.pid, path)).map(|_| ())
    }

    /// `open` for read, `lseek` to `off` when non-zero, `read` of up to
    /// `len` bytes, `close`. The close runs even when the read failed.
    pub fn open_read_close(
        &mut self,
        u: User,
        path: &str,
        off: u64,
        len: usize,
    ) -> SutResult<Vec<u8>> {
        let fd = self.call("fs.open", |c| c.open(u.pid, path, OpenMode::Read))?;
        let data = if off == 0 {
            self.call("fs.read", |c| c.read(u.pid, fd, len))
        } else {
            self.call("fs.read", |c| {
                c.lseek(u.pid, fd, off)?;
                c.read(u.pid, fd, len)
            })
        };
        let closed = self.call("fs.close", |c| c.close(u.pid, fd));
        let data = data?;
        closed?;
        Ok(data)
    }

    /// Whole-file overwrite: `creat`, `write`, `close` (which commits).
    pub fn write_file(&mut self, u: User, path: &str, data: &[u8]) -> SutResult<()> {
        self.call("fs.write_commit", |c| c.write_file(u.pid, path, data))
    }

    /// `stat`.
    pub fn stat(&mut self, u: User, path: &str) -> SutResult<StatInfo> {
        let info = self.call("fs.stat", |c| c.stat(u.pid, path))?;
        Ok(StatInfo {
            is_dir: info.ftype.is_directory_like(),
            size: info.size,
            conflict: info.conflict,
        })
    }

    /// Pathname resolution only; the identifier is opaque to the driver.
    pub fn resolve(&mut self, u: User, path: &str) -> SutResult<(u32, u32)> {
        let gfid = self.call("fs.resolve", |c| c.resolve(u.pid, path))?;
        Ok((gfid.fg.0, gfid.ino.0))
    }

    /// Directory listing without `.` and `..`.
    pub fn readdir(&mut self, u: User, path: &str) -> SutResult<Vec<String>> {
        let mut names = self.call("fs.readdir", |c| c.readdir(u.pid, path))?;
        names.retain(|n| n != "." && n != "..");
        Ok(names)
    }

    /// `creat` + `close`: an empty committed file.
    pub fn create(&mut self, u: User, path: &str) -> SutResult<()> {
        self.call("fs.create", |c| {
            let fd = c.creat(u.pid, path)?;
            c.close(u.pid, fd)
        })
    }

    /// `unlink`.
    pub fn unlink(&mut self, u: User, path: &str) -> SutResult<()> {
        self.call("fs.unlink", |c| c.unlink(u.pid, path))
    }

    /// `fork` to site `to`, then the child exits and the parent reaps it.
    pub fn fork_exit_wait(&mut self, u: User, to: u32) -> SutResult<()> {
        let child = self.call("proc.fork_remote", |c| c.fork(u.pid, Some(SiteId(to))))?;
        self.call("proc.exit_wait", |c| {
            c.exit(child, 0)?;
            let reaped = c.wait(u.pid)?;
            // Drain the SIGCHLD so the pending list stays bounded.
            c.signals(u.pid)?;
            match reaped {
                Some((pid, _)) if pid == child => Ok(()),
                _ => Err(Errno::Echild),
            }
        })
    }

    /// Drains background propagation.
    pub fn settle(&mut self) {
        self.call("fs.settle", |c| c.settle());
    }

    /// One step of the adaptive CSS placement driver.
    pub fn balance_css(&mut self) {
        let report = self.call("core.balance_css", |c| c.balance_css());
        let depth = report.site_load.values().copied().max().unwrap_or(0);
        self.css_depth_max = self.css_depth_max.max(depth);
    }

    // ------------------------------------------------------------------
    // Faults and reconfiguration
    // ------------------------------------------------------------------

    /// Splits the network into the given groups of sites.
    pub fn partition(&mut self, groups: &[Vec<u32>]) {
        let groups: Vec<Vec<SiteId>> = groups
            .iter()
            .map(|g| g.iter().map(|&s| SiteId(s)).collect())
            .collect();
        self.call("net.partition", |c| c.partition(&groups));
    }

    /// Heals every link failure.
    pub fn heal(&mut self) {
        self.call("net.heal", |c| c.heal());
    }

    /// Crashes a site.
    pub fn crash(&mut self, site: u32) {
        self.call("net.crash", |c| c.crash(SiteId(site)));
    }

    /// Revives a crashed site.
    pub fn revive(&mut self, site: u32) {
        self.call("net.revive", |c| c.revive(SiteId(site)));
    }

    /// Runs the reconfiguration procedure (§5.3–§5.6).
    pub fn reconfigure(&mut self) -> SutResult<ReconfigSummary> {
        let r = self.call("core.reconfigure", |c| c.reconfigure())?;
        Ok(ReconfigSummary {
            partitions: r.partitions.len() as u32,
            partition_polls: r.partition_polls,
            merge_polls: r.merge_polls,
            files_reconciled: r.recovery.iter().map(|(_, rr)| rr.actions() as u32).sum(),
            conflicts: r
                .recovery
                .iter()
                .map(|(_, rr)| rr.conflict_count() as u32)
                .sum(),
        })
    }

    /// The cluster itself, for the layer probes that need a warmed one.
    /// The end-to-end driver never calls this.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }
}
