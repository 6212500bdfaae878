//! **E7** — the merge protocol's adaptive two-level timeout vs. a fixed
//! timeout (§5.5): "a fixed length timeout long enough to handle a
//! sizeable network would add unreasonable delay to a smaller network or
//! a small partition of a large network."
//!
//! Run with `cargo run -p locus-bench --bin e7_merge_timeout`.
//! Writes `BENCH_e7.json` (honours `$BENCH_OUT_DIR`).

use std::collections::{BTreeMap, BTreeSet};

use locus_bench::BenchReport;

use locus_net::{FaultPlan, FaultSpec, Net, NetStats};
use locus_topology::merge::{merge_protocol, MergeTimeouts};
use locus_types::{SiteId, Ticks};

fn beliefs_split(n: u32, split_at: u32) -> BTreeMap<SiteId, BTreeSet<SiteId>> {
    let a: BTreeSet<SiteId> = (0..split_at).map(SiteId).collect();
    let b: BTreeSet<SiteId> = (split_at..n).map(SiteId).collect();
    (0..n)
        .map(|i| (SiteId(i), if i < split_at { a.clone() } else { b.clone() }))
        .collect()
}

/// Merges from site 0 after the last `crash_tail` sites crashed; sites
/// below `noticed` have already dropped them from their partition sets,
/// the rest still believe them up.
fn run(n: u32, crash_tail: u32, noticed: u32, timeouts: MergeTimeouts) -> (Ticks, usize) {
    let net = Net::new(n as usize);
    for i in (n - crash_tail)..n {
        net.crash(SiteId(i));
    }
    let mut beliefs = beliefs_split(n, n / 2);
    for i in 0..noticed {
        let b = beliefs.get_mut(&SiteId(i)).expect("present");
        for dead in (n - crash_tail)..n {
            b.remove(&SiteId(dead));
        }
    }
    let t0 = net.now();
    let out = merge_protocol(&net, SiteId(0), &mut beliefs, timeouts);
    (net.now() - t0, out.members.len())
}

fn main() {
    let adaptive = MergeTimeouts::default(); // long 5s / short 200ms
    let fixed = MergeTimeouts {
        long: adaptive.long,
        short: adaptive.long, // a fixed strategy always waits long
    };
    println!(
        "E7: merge delay, adaptive two-level timeout vs fixed (long={}, short={})\n",
        adaptive.long, adaptive.short
    );
    println!(
        "{:<8} {:<26} {:>12} {:>12} {:>9}",
        "sites", "scenario", "adaptive", "fixed", "members"
    );
    let mut report = BenchReport::new("e7");
    let mut virtual_us = 0u64;
    for n in [4u32, 8, 16, 32] {
        // Every site answers: no poll is outstanding, so neither
        // strategy waits.
        let (t_a, m) = run(n, 0, n, adaptive);
        let (t_f, _) = run(n, 0, n, fixed);
        println!(
            "{:<8} {:<26} {:>12} {:>12} {:>9}",
            n,
            "all sites answer",
            t_a.to_string(),
            t_f.to_string(),
            m
        );
        report
            .int(&format!("n{n}.all_answer_adaptive_us"), t_a.as_micros())
            .int(&format!("n{n}.all_answer_fixed_us"), t_f.as_micros());
        virtual_us += t_a.as_micros() + t_f.as_micros();
        // One site stays silent that the other half still believes up
        // (only the initiator's half noticed the crash): both strategies
        // wait long.
        let (t_a, m) = run(n, 1, n / 2, adaptive);
        let (t_f, _) = run(n, 1, n / 2, fixed);
        println!(
            "{:<8} {:<26} {:>12} {:>12} {:>9}",
            n,
            "one believed site silent",
            t_a.to_string(),
            t_f.to_string(),
            m
        );
        report.int(&format!("n{n}.one_silent_adaptive_us"), t_a.as_micros());
        virtual_us += t_a.as_micros() + t_f.as_micros();
        // One site is silent but no member believes it up: every
        // expected site answered, so the adaptive strategy pays only the
        // short tail where the fixed one waits long.
        let (t_a, m) = run(n, 1, n, adaptive);
        let (t_f, _) = run(n, 1, n, fixed);
        println!(
            "{:<8} {:<26} {:>12} {:>12} {:>9}",
            n,
            "one unbelieved site silent",
            t_a.to_string(),
            t_f.to_string(),
            m
        );
        report
            .int(
                &format!("n{n}.unbelieved_silent_adaptive_us"),
                t_a.as_micros(),
            )
            .int(&format!("n{n}.unbelieved_silent_fixed_us"), t_f.as_micros());
        assert!(
            t_a < t_f,
            "the adaptive rule shortens an unbelieved silence"
        );
        virtual_us += t_a.as_micros() + t_f.as_micros();
    }
    // Lossy merge: injected drops force retransmissions but must not
    // shrink the merged partition. Protocol messages (§5.5 poll/info/
    // announce) are reported separately from the loss-forced retries.
    println!();
    println!("under injected message loss (drop=0.20, seed 7, deterministic):\n");
    println!(
        "{:<8} {:>10} {:>9} {:>9} {:>9}",
        "sites", "protocol", "dropped", "retries", "members"
    );
    for n in [4u32, 8, 16, 32] {
        let net = Net::new(n as usize);
        net.install_faults(FaultPlan::new(7).default_spec(FaultSpec::drop_rate(0.20)));
        // Snapshot deltas, not run totals: faults suffered by any earlier
        // traffic must not be attributed to the protocol run.
        let snap = net.stats();
        let mut beliefs = beliefs_split(n, n / 2);
        let out = merge_protocol(&net, SiteId(0), &mut beliefs, adaptive);
        let st = net.stats();
        let drops = NetStats::delta_total(&st.delta_drops(&snap));
        let retries = NetStats::delta_total(&st.delta_retries(&snap));
        println!(
            "{:<8} {:>10} {:>9} {:>9} {:>9}",
            n,
            out.polls + out.replies + (out.members.len() as u32 - 1),
            drops,
            retries,
            out.members.len()
        );
        assert_eq!(
            out.members.len(),
            n as usize,
            "a lossy link must not shrink the merge"
        );
        report.int(&format!("n{n}.lossy_retries"), retries).int(
            &format!("n{n}.lossy_msgs"),
            NetStats::delta_total(&st.delta_sends(&snap)),
        );
        virtual_us += net.now().as_micros();
    }
    println!();
    println!("paper: \"The merge protocol waits longer when there is a reasonable");
    println!("expectation that further replies will arrive … Once all such sites");
    println!("have replied, the timeout is short.\" The adaptive column matches");
    println!("the fixed column when a believed-up site is genuinely silent, and");
    println!("neither waits once every site has answered.");
    report.int("virtual_elapsed_us", virtual_us);
    let path = report.write();
    println!("wrote {}", path.display());
}
