//! The full dynamic-reconfiguration procedure (§5.3–§5.6): the partition
//! and merge protocols each event calls for → cleanup → CSS re-selection
//! and lock-table rebuild → recovery.

use std::collections::{BTreeMap, BTreeSet};

use locus_fs::ops::cleanup::{cleanup_site, rebuild_css_state, CleanupReport};
use locus_recovery::{reconcile_filegroup, RecoveryReport};
use locus_topology::{establish_partitions, select_css_excluding, MergeTimeouts};
use locus_types::{FilegroupId, SiteId, SysResult};

use crate::cluster::Cluster;

/// What one reconfiguration did.
#[derive(Debug, Default)]
pub struct ReconfigReport {
    /// The partitions that emerged (sorted member sets).
    pub partitions: Vec<BTreeSet<SiteId>>,
    /// Partition-protocol polls sent.
    pub partition_polls: u32,
    /// Merge-protocol polls sent.
    pub merge_polls: u32,
    /// Cleanup actions at each site.
    pub cleanup: Vec<(SiteId, CleanupReport)>,
    /// CSS assignments per filegroup per partition.
    pub css_assignments: Vec<(FilegroupId, SiteId)>,
    /// Lock-table re-registrations delivered to new CSSs (one-way
    /// `RECONFIG register` messages; a delivered one the CSS could not
    /// enter is counted too).
    pub locks_rebuilt: usize,
    /// Parent/child partition-split notifications delivered.
    pub procs_notified: usize,
    /// Orphaned subtransactions aborted (§5.6).
    pub txns_aborted: usize,
    /// Recovery results, one per (filegroup, partition that could run it).
    pub recovery: Vec<(FilegroupId, RecoveryReport)>,
}

impl Cluster {
    /// Runs the complete reconfiguration procedure. In the real system
    /// this fires automatically on any virtual-circuit failure or site
    /// arrival; in the simulation the test/driver calls it after changing
    /// the topology.
    pub fn reconfigure(&self) -> SysResult<ReconfigReport> {
        let mut report = ReconfigReport::default();
        let net = self.net();

        // Crashed sites: processes on them die with their volatile state
        // (§3.3). Detect against the previous liveness snapshot.
        let was_up = {
            let mut prev = self.prev_up.borrow_mut();
            let now_up: BTreeSet<SiteId> = (0..net.site_count() as u32)
                .map(SiteId)
                .filter(|&s| net.is_up(s))
                .collect();
            for &dead in prev.difference(&now_up) {
                self.procs.handle_site_failure(dead);
            }
            std::mem::replace(&mut *prev, now_up)
        };
        // Who was partitioned with whom at the previous reconfiguration:
        // a site keeps a filegroup's coherence state only if it was with
        // that filegroup's CSS then.
        let was_with: BTreeMap<SiteId, BTreeSet<SiteId>> = self.beliefs.borrow().clone();

        // Stages 1–2: in each connected component, the partition protocol
        // (§5.4) where a site was lost, then the merge protocol (§5.5)
        // where one arrived; a component with neither keeps its partition.
        let established = {
            let mut beliefs = self.beliefs.borrow_mut();
            establish_partitions(net, &mut beliefs, MergeTimeouts::default())
        };
        report.partition_polls = established.partition_polls;
        report.merge_polls = established.merge_polls;
        let final_partitions = established.partitions;
        report.partitions = final_partitions.clone();

        // Stage 3: cleanup (§5.6) at every member of every partition, then
        // CSS re-selection and lock-table rebuild.
        for partition in &final_partitions {
            // New synchronization sites first ("the system must select,
            // for each filegroup it supports, a new synchronization
            // site"), so the cleanup's transparent reopens go through a
            // CSS that is actually in this partition.
            let fgs: Vec<(FilegroupId, Vec<SiteId>)> = {
                let first = *partition.iter().next().expect("non-empty");
                let k = self.fsc.kernel(first);
                k.mount
                    .filegroups()
                    .map(|m| (m.fg, m.containers.iter().map(|(_, s)| *s).collect()))
                    .collect()
            };
            // Sites the health monitor has quarantined for gray failure
            // must not take the synchronization role unless no healthy
            // container exists in the partition.
            let quarantined: BTreeSet<SiteId> = partition
                .iter()
                .copied()
                .filter(|&s| net.quarantined(s))
                .collect();
            // The filegroups each member keeps (see `cleanup_site`).
            let mut keep: BTreeMap<SiteId, BTreeSet<FilegroupId>> = BTreeMap::new();
            for (fg, containers) in &fgs {
                if let Some(css) = select_css_excluding(partition, containers, &quarantined) {
                    // The previous CSS is the member assignment with the
                    // highest epoch; the new one bumps past it so it
                    // supersedes any live handoff that raced the
                    // reconfiguration.
                    let assignments: Vec<(u64, SiteId)> = partition
                        .iter()
                        .filter_map(|&s| {
                            let k = self.fsc.kernel(s);
                            k.mount.get(*fg).ok().map(|m| (m.css_epoch, m.css))
                        })
                        .collect();
                    let prev_epoch = assignments.iter().map(|a| a.0).max().unwrap_or(0);
                    let epoch = prev_epoch + 1;
                    // Kept: the same site selected again. A member keeps
                    // it only if it was up and with that CSS last time.
                    if assignments.contains(&(prev_epoch, css)) {
                        for &site in partition {
                            if was_up.contains(&site)
                                && was_with.get(&site).is_some_and(|p| p.contains(&css))
                            {
                                keep.entry(site).or_default().insert(*fg);
                            }
                        }
                    }
                    // The epoch is above every member's, so each member
                    // adopts it; the claim time stamped with it lets the
                    // placement driver's per-filegroup cooldown cover
                    // reconfiguration-assigned roles too.
                    let now = net.now();
                    for &site in partition {
                        self.fsc.kernel(site).mount.adopt_css(*fg, css, epoch, now);
                    }
                    report.css_assignments.push((*fg, css));
                }
            }
            for &site in partition {
                let kept = keep.remove(&site).unwrap_or_default();
                let r = cleanup_site(&self.fsc, site, partition, &kept);
                report.cleanup.push((site, r));
            }
            report.locks_rebuilt += rebuild_css_state(&self.fsc, partition);
        }

        // Cross-partition process pairs and orphaned subtransactions.
        report.procs_notified = self.procs.handle_partition_split(&self.fsc);
        report.txns_aborted = self.txns.abort_orphans(&self.fsc);

        // The placement driver's load samples predate the new topology;
        // let it rebuild its picture from scratch.
        if let Some(d) = self.placement.borrow_mut().as_mut() {
            d.reset();
        }

        // Stage 4: the recovery procedure (§4) per filegroup, run in each
        // partition that has a synchronization site for it. Every pass
        // runs at its own CSS, side by side with the others; the first
        // failure ends the stage, as it would a serial loop. Recovery
        // decides and notifies: the pulls it queues run in the
        // background, at the next `settle`, while the filesystem serves.
        let passes: Vec<(&BTreeSet<SiteId>, FilegroupId)> = final_partitions
            .iter()
            .flat_map(|partition| {
                let first = *partition.iter().next().expect("non-empty");
                let k = self.fsc.kernel(first);
                let fgs: Vec<FilegroupId> = k.mount.filegroups().map(|m| m.fg).collect();
                fgs.into_iter().map(move |fg| (partition, fg))
            })
            .collect();
        let mut failed = false;
        let recovered = net.overlap(passes, |(partition, fg)| {
            if failed {
                return None;
            }
            let first = *partition.iter().next().expect("non-empty");
            let css = self.fsc.kernel(first).mount.css_of(fg).ok()?;
            if !partition.contains(&css) {
                return None; // no container here: the filegroup is inaccessible
            }
            let r = reconcile_filegroup(&self.fsc, css, fg);
            failed = r.is_err();
            Some(r.map(|r| (fg, r)))
        });
        for pass in recovered.into_iter().flatten() {
            report.recovery.push(pass?);
        }
        Ok(report)
    }
}
