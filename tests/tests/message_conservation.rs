//! Message conservation: every message the statistics count is an event
//! in the observability stream. `NetStats::total_sends()` must equal the
//! number of delivered request, reply and one-way events, over a schedule
//! that exercises every subsystem's traffic — including the kinds that
//! once bypassed the RPC engine (`LEASE break`, `RECONFIG register`,
//! `TXN begin`, `TXN commit`). A raw `Net::send` anywhere in the program
//! breaks the equality.

use locus::{Cluster, OpenMode, SiteId};
use locus_net::{ObsEvent, SendOutcome};

fn s(i: u32) -> SiteId {
    SiteId(i)
}

#[test]
fn every_counted_send_is_an_observed_event() {
    // Root filegroup at sites 0 (the CSS) and 1; sites 2 and 3 diskless.
    let c = Cluster::builder()
        .vax_sites(4)
        .filegroup("root", &[0, 1])
        .name_leases(true)
        .build();
    let net = c.net();
    net.set_observing(true);
    let pids: Vec<_> = (0..4).map(|i| c.login(s(i), 1).unwrap()).collect();

    // A commit at a non-CSS storage site with remote lease holders: site
    // 1 writes its own copy (US = SS = 1, CSS = 0) after sites 2 and 3
    // took leases on the file.
    c.write_file(pids[1], "/shared", b"v1").unwrap();
    c.settle();
    for &p in &pids[2..] {
        assert_eq!(c.stat(p, "/shared").unwrap().size, 2);
    }
    c.write_file(pids[1], "/shared", b"v2 is longer").unwrap();
    c.settle();

    // A remote subtransaction begin and commit.
    let top = c.txn_begin(pids[0]).unwrap();
    let sub = c.txn_sub(top, s(2)).unwrap();
    c.txn_write(sub, pids[2], "/shared", b"v3 from a subtransaction")
        .unwrap();
    c.txn_commit(sub).unwrap();
    c.txn_commit(top).unwrap();
    c.settle();

    // A reconfiguration with a file open at a site other than its CSS.
    let fd = c.open(pids[2], "/shared", OpenMode::Read).unwrap();
    c.partition(&[vec![s(0), s(1), s(2)], vec![s(3)]]);
    c.reconfigure().unwrap();
    c.close(pids[2], fd).unwrap();
    c.heal();
    c.reconfigure().unwrap();
    c.settle();

    let stats = net.stats();
    for kind in [
        "LEASE break",
        "RECONFIG register",
        "TXN begin",
        "TXN commit",
    ] {
        assert!(stats.sends(kind) > 0, "the schedule must send `{kind}`");
    }
    assert_eq!(net.obs_truncated(), 0, "the event stream must be complete");
    let observed = net
        .take_obs_events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                ObsEvent::Request { outcome, .. }
                | ObsEvent::Reply { outcome, .. }
                | ObsEvent::OneWay { outcome, .. }
                    if *outcome == SendOutcome::Delivered
            )
        })
        .count() as u64;
    assert_eq!(
        stats.total_sends(),
        observed,
        "a message was counted but never observed (a send outside the RPC engine)"
    );
}
