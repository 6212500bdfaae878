//! **E6** — partition-protocol behaviour vs. network size (§5.4):
//! consensus (∀α,β: Pα = Pβ), maximum partitions under a single link
//! failure, and message/round costs as the network grows.
//!
//! Run with `cargo run -p locus-bench --bin e6_partition_protocol`.
//! Writes `BENCH_e6.json` (honours `$BENCH_OUT_DIR`).

use std::collections::{BTreeMap, BTreeSet};

use locus_bench::BenchReport;

use locus_net::{FaultPlan, FaultSpec, Net, NetStats};
use locus_topology::partition::{partition_all, partition_protocol};
use locus_types::SiteId;

fn full_beliefs(n: u32) -> BTreeMap<SiteId, BTreeSet<SiteId>> {
    let all: BTreeSet<SiteId> = (0..n).map(SiteId).collect();
    (0..n).map(|i| (SiteId(i), all.clone())).collect()
}

fn main() {
    let mut report = BenchReport::new("e6");
    let mut virtual_us = 0u64;
    let mut msgs = 0u64;
    println!("E6: partition protocol — iterative intersection (§5.4)\n");
    println!(
        "{:<8} {:<22} {:>8} {:>8} {:>10} {:>10}",
        "sites", "failure", "polls", "rounds", "consensus", "elapsed"
    );
    for n in [4u32, 8, 16, 32] {
        // Case A: one site crashes.
        let net = Net::new(n as usize);
        net.crash(SiteId(n - 1));
        let mut beliefs = full_beliefs(n);
        let t0 = net.now();
        let out = partition_protocol(&net, SiteId(0), &mut beliefs);
        let consensus = out
            .members
            .iter()
            .all(|m| beliefs.get(m) == Some(&out.members));
        println!(
            "{:<8} {:<22} {:>8} {:>8} {:>10} {:>10}",
            n,
            "one site crashed",
            out.polls,
            out.rounds,
            consensus,
            (net.now() - t0).to_string()
        );
        report
            .int(&format!("n{n}.crash_polls"), out.polls as u64)
            .int(&format!("n{n}.crash_rounds"), out.rounds as u64);
        virtual_us += (net.now() - t0).as_micros();
        msgs += net.stats().total_sends();

        // Case B: half the network splits away.
        let net = Net::new(n as usize);
        let a: Vec<SiteId> = (0..n / 2).map(SiteId).collect();
        let b: Vec<SiteId> = (n / 2..n).map(SiteId).collect();
        net.partition(&[a, b]);
        let mut beliefs = full_beliefs(n);
        let t0 = net.now();
        let outs = partition_all(&net, &mut beliefs);
        let polls: u32 = outs.iter().map(|o| o.polls).sum();
        let rounds: u32 = outs.iter().map(|o| o.rounds).max().unwrap_or(0);
        let consensus = outs
            .iter()
            .all(|o| o.members.iter().all(|m| beliefs.get(m) == Some(&o.members)));
        println!(
            "{:<8} {:<22} {:>8} {:>8} {:>10} {:>10}",
            n,
            "even split",
            polls,
            rounds,
            consensus,
            (net.now() - t0).to_string()
        );

        // Case C: a single link cut — the maximum-partition property.
        let net = Net::new(n as usize);
        net.cut_link(SiteId(0), SiteId(1));
        let mut beliefs = full_beliefs(n);
        let outs = partition_all(&net, &mut beliefs);
        println!(
            "{:<8} {:<22} {:>8} {:>8} {:>10} {:>10}",
            n,
            "single link cut",
            outs.iter().map(|o| o.polls).sum::<u32>(),
            outs.iter().map(|o| o.rounds).max().unwrap_or(0),
            format!("{} part", outs.len()),
            "-"
        );
        assert_eq!(outs.len(), 1, "a single failure must not fragment the net");
    }
    // Case D: lossy links — injected drops are retried, not mistaken for
    // departed sites. Protocol messages (the §5.4 poll/announce exchanges)
    // are reported separately from the retransmissions the loss forced.
    println!();
    println!("under injected message loss (drop=0.20, seed 1, deterministic):\n");
    println!(
        "{:<8} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "sites", "protocol", "dropped", "retries", "members", "consensus"
    );
    for n in [4u32, 8, 16, 32] {
        let net = Net::new(n as usize);
        net.install_faults(FaultPlan::new(1).default_spec(FaultSpec::drop_rate(0.20)));
        // Snapshot deltas, not run totals: faults suffered by any earlier
        // traffic must not be attributed to the protocol run.
        let snap = net.stats();
        let mut beliefs = full_beliefs(n);
        let out = partition_protocol(&net, SiteId(0), &mut beliefs);
        let st = net.stats();
        let drops = NetStats::delta_total(&st.delta_drops(&snap));
        let retries = NetStats::delta_total(&st.delta_retries(&snap));
        let consensus = out
            .members
            .iter()
            .all(|m| beliefs.get(m) == Some(&out.members));
        report
            .int(&format!("n{n}.lossy_drops"), drops)
            .int(&format!("n{n}.lossy_retries"), retries);
        virtual_us += net.now().as_micros();
        msgs += NetStats::delta_total(&st.delta_sends(&snap));
        println!(
            "{:<8} {:>10} {:>9} {:>9} {:>9} {:>10}",
            n,
            out.polls + out.announcements,
            drops,
            retries,
            out.members.len(),
            consensus
        );
        assert_eq!(
            out.members.len(),
            n as usize,
            "a lossy link must not be treated as a down site"
        );
    }
    println!();
    println!("paper: \"the partition algorithm should find maximum partitions:");
    println!("a single communications failure should not result in the network");
    println!("breaking into three or more parts\" — one partition in every");
    println!("single-link-cut row above; polls grow linearly with N.");
    report
        .int("msgs_total", msgs)
        .int("virtual_elapsed_us", virtual_us);
    let path = report.write();
    println!("wrote {}", path.display());
}
