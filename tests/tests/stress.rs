//! Randomized whole-system stress: seeded sequences of file operations,
//! partitions, crashes, merges and reconfigurations. The invariants after
//! the final heal + reconfigure:
//!
//! 1. a second reconciliation pass finds nothing to do (convergence);
//! 2. every pair of container copies of every file carries an identical
//!    version vector (mutual consistency, §4.2);
//! 3. every non-conflicted live file is readable from every site with
//!    identical contents (single-system image restored);
//! 4. no descriptor or incore-inode leaks.

use locus::{Cluster, FilegroupId, OpenMode, Pid, SiteId};
use locus_net::SimRng;

const SITES: u32 = 4;
const FILES: usize = 8;

fn run_stress(seed: u64, steps: usize) {
    let cluster = Cluster::builder()
        .vax_sites(SITES as usize)
        .filegroup("root", &[0, 1])
        .build();
    let users: Vec<Pid> = (0..SITES)
        .map(|i| cluster.login(SiteId(i), 100 + i).expect("login"))
        .collect();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut partitioned = false;

    for step in 0..steps {
        let roll = rng.gen_f64();
        let site = rng.gen_range(0..SITES) as usize;
        let pid = users[site];
        let path = format!("/f{}", rng.gen_range(0..FILES));
        if roll < 0.45 {
            // Write (may legitimately fail during partitions).
            let body = format!("step {step} by site {site}");
            let _ = cluster.write_file(pid, &path, body.as_bytes());
        } else if roll < 0.75 {
            let _ = cluster.open(pid, &path, OpenMode::Read).map(|fd| {
                let _ = cluster.read(pid, fd, 4096);
                let _ = cluster.close(pid, fd);
            });
        } else if roll < 0.82 {
            let _ = cluster.unlink(pid, &path);
        } else if roll < 0.90 && !partitioned {
            // Random bisection.
            let mask: u32 = rng.gen_range(1..(1 << SITES) - 1);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for i in 0..SITES {
                if mask & (1 << i) != 0 {
                    a.push(SiteId(i));
                } else {
                    b.push(SiteId(i));
                }
            }
            cluster.partition(&[a, b]);
            cluster.reconfigure().expect("reconfigure");
            partitioned = true;
        } else if roll < 0.95 && partitioned {
            cluster.heal();
            cluster.reconfigure().expect("merge");
            partitioned = false;
        } else {
            cluster.settle();
        }
    }

    // Final convergence.
    cluster.heal();
    cluster.reconfigure().expect("final merge");
    let second = cluster.reconfigure().expect("idempotence check");
    let residual: usize = second.recovery.iter().map(|(_, r)| r.actions()).sum();
    assert_eq!(residual, 0, "seed {seed}: recovery did not converge");
    // Recovery decides and notifies; the copies catch up by the pulls.
    cluster.settle();

    // Mutual consistency of every copy of every file.
    let inos: Vec<_> = cluster.fs().with_kernel(SiteId(0), |k| {
        k.pack_of(FilegroupId(0))
            .unwrap()
            .inos()
            .collect::<Vec<_>>()
    });
    for ino in inos {
        let g = locus::Gfid::new(FilegroupId(0), ino);
        let i0 = cluster.fs().kernel(SiteId(0)).local_info(g);
        let i1 = cluster.fs().kernel(SiteId(1)).local_info(g);
        if let (Some(a), Some(b)) = (i0, i1) {
            if a.conflict || b.conflict {
                // §4.6: conflicted copies intentionally keep their own
                // versions (and data) until the user resolves them.
                continue;
            }
            assert_eq!(a.vv, b.vv, "seed {seed}: copies of {g} diverged");
            assert_eq!(a.deleted, b.deleted, "seed {seed}: tombstone mismatch {g}");
        }
    }

    // Every live, non-conflicted file reads identically from every site.
    for f in 0..FILES {
        let path = format!("/f{f}");
        let mut seen: Option<Vec<u8>> = None;
        for (i, &pid) in users.iter().enumerate() {
            match cluster.open(pid, &path, OpenMode::Read) {
                Ok(fd) => {
                    let data = cluster.read(pid, fd, 4096).expect("read");
                    cluster.close(pid, fd).expect("close");
                    match &seen {
                        None => seen = Some(data),
                        Some(prev) => {
                            assert_eq!(prev, &data, "seed {seed}: {path} differs at site {i}")
                        }
                    }
                }
                Err(locus::Errno::Enoent) | Err(locus::Errno::Econflict) => {}
                Err(e) => panic!("seed {seed}: unexpected {e} opening {path} at site {i}"),
            }
        }
    }

    // No leaks anywhere.
    cluster.settle();
    for i in 0..SITES {
        let k = cluster.fs().kernel(SiteId(i));
        assert_eq!(k.open_fd_count(), 0, "seed {seed}: fd leak at site {i}");
        assert_eq!(
            k.prop_queue_len(),
            0,
            "seed {seed}: stuck propagation at site {i}"
        );
    }
}

#[test]
fn stress_seed_1() {
    run_stress(1, 120);
}

#[test]
fn stress_seed_2() {
    run_stress(2, 120);
}

#[test]
fn stress_seed_3() {
    run_stress(3, 160);
}

#[test]
fn stress_seed_4() {
    run_stress(4, 160);
}

#[test]
fn stress_seed_5_long() {
    run_stress(5, 300);
}

#[test]
fn stress_with_crashes() {
    // Crashes (volatile-state loss) instead of clean partitions.
    let cluster = Cluster::builder()
        .vax_sites(4)
        .filegroup("root", &[0, 1])
        .build();
    let mut rng = SimRng::seed_from_u64(77);
    let users: Vec<Pid> = (0..4)
        .map(|i| cluster.login(SiteId(i), i).expect("login"))
        .collect();
    for step in 0..100 {
        let roll = rng.gen_f64();
        let site = rng.gen_range(0..4u32);
        if roll < 0.6 {
            let path = format!("/c{}", rng.gen_range(0..5));
            if cluster.net().is_up(SiteId(site)) {
                let pid = users[site as usize];
                let _ = cluster.write_file(pid, &path, format!("s{step}").as_bytes());
            }
        } else if roll < 0.75 {
            // Never crash both containers at once: data must survive.
            if site != 0 && cluster.net().is_up(SiteId(site)) {
                cluster.crash(SiteId(site));
                cluster.reconfigure().expect("reconfigure after crash");
            }
        } else {
            for i in 1..4u32 {
                if !cluster.net().is_up(SiteId(i)) {
                    cluster.revive(SiteId(i));
                }
            }
            cluster.heal();
            cluster.reconfigure().expect("rejoin");
        }
    }
    for i in 1..4u32 {
        if !cluster.net().is_up(SiteId(i)) {
            cluster.revive(SiteId(i));
        }
    }
    cluster.heal();
    cluster.reconfigure().expect("final");
    let second = cluster.reconfigure().expect("idempotent");
    let residual: usize = second.recovery.iter().map(|(_, r)| r.actions()).sum();
    assert_eq!(residual, 0);
}
