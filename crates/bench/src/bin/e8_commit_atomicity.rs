//! **E8** — shadow-page commit atomicity under crash injection (§2.3.6):
//! "one is always left with either the original file or a completely
//! changed file but never with a partially made change, even in the face
//! of local or foreign site failures. Such was not the case in the
//! standard Unix environment."
//!
//! A modification session writes N pages and commits. A crash is injected
//! after every prefix of the steps; after each crash the pack is checked:
//! the file must read as exactly the old version or exactly the new one,
//! and `fsck` must find no corruption.
//!
//! A second table is the shadow-commit **workload ablation** (§2.3.6:
//! "LOCUS uses a shadow page mechanism, partly because Unix file
//! modifications tend to overwrite entire files"): a whole-file overwrite
//! never reads an old page, a scattered small update pays one old-page
//! read per page it touches — asserted, with the disk time of each.
//!
//! Run with `cargo run -p locus-bench --bin e8_commit_atomicity`.
//! Writes `BENCH_e8.json` (honours `$BENCH_OUT_DIR`).

use locus_bench::BenchReport;
use locus_storage::{DiskInode, DiskParams, Pack, ShadowSession, PAGE_SIZE};
use locus_types::{FileType, FilegroupId, Ino, PackId, Perms, Ticks};

const NPAGES: usize = 14; // spans direct and indirect pages
/// The ablation's file stays within the direct pages, so a page read is
/// one disk read with no index block behind it.
const ABLATION_PAGES: usize = 8;

fn make_pack(npages: usize) -> (Pack, Ino, Vec<u8>) {
    let mut pack = Pack::new(PackId::new(FilegroupId(0), 0), 1..64, 1024);
    let ino = pack.alloc_ino().expect("ino");
    pack.install_inode(
        ino,
        DiskInode::new(FileType::Untyped, Perms::FILE_DEFAULT, 0),
    );
    let old: Vec<u8> = (0..npages * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
    pack.write_all(ino, &old).expect("seed");
    pack.take_io_cost();
    (pack, ino, old)
}

fn new_content() -> Vec<u8> {
    (0..NPAGES * PAGE_SIZE)
        .map(|i| (i % 97) as u8 ^ 0xFF)
        .collect()
}

/// One modify + commit session over the seeded file: each page of `lpns`
/// is rewritten whole, or — `read_modify_write` — read back, changed in
/// one byte and written (the §2.3.5 partial-page path). Returns the disk
/// time spent reading old pages and the session's total disk time.
fn ablation_session(lpns: &[usize], read_modify_write: bool) -> (Ticks, Ticks) {
    let (mut pack, ino, _) = make_pack(ABLATION_PAGES);
    let mut s = ShadowSession::begin(&pack, ino).expect("begin");
    let (mut old_reads, mut rest) = (Ticks::ZERO, Ticks::ZERO);
    for &lpn in lpns {
        let page = if read_modify_write {
            rest += pack.take_io_cost();
            let mut page = s.read_page(&mut pack, lpn).expect("read old page");
            old_reads += pack.take_io_cost();
            page[7] ^= 0xFF;
            page
        } else {
            vec![2u8; PAGE_SIZE]
        };
        s.write_page(&mut pack, lpn, &page).expect("write");
    }
    let vv = s.working().vv.clone();
    s.commit(&mut pack, vv).expect("commit");
    (old_reads, old_reads + rest + pack.take_io_cost())
}

/// The workload-sensitivity table; asserts each row's old-page reads
/// and disk time.
fn shadow_ablation(report: &mut BenchReport) {
    let disk_params = DiskParams::default();
    let (read_cost, write_cost) = (
        disk_params.read_cost.as_micros(),
        disk_params.write_cost.as_micros(),
    );
    let all: Vec<usize> = (0..ABLATION_PAGES).collect();
    let every_other: Vec<usize> = (0..ABLATION_PAGES).step_by(2).collect();
    println!("\nshadow-commit workload ablation ({ABLATION_PAGES}-page file):");
    println!(
        "{:<34} {:>8} {:>15} {:>11}",
        "workload", "touched", "old-page reads", "disk time"
    );
    for (name, label, lpns, rmw, want_per_page) in [
        ("overwrite", "whole-file overwrite", &all, false, 0),
        ("scattered", "scattered small updates", &every_other, true, 1),
    ] {
        let (old_reads, disk) = ablation_session(lpns, rmw);
        let touched = lpns.len() as u64;
        let reads = old_reads.as_micros() / read_cost;
        println!("{label:<34} {touched:>8} {reads:>15} {:>11}", disk.to_string());
        assert_eq!(
            reads,
            want_per_page * touched,
            "{label}: {want_per_page} old-page read(s) per touched page"
        );
        assert_eq!(
            disk.as_micros(),
            touched * (write_cost + want_per_page * read_cost),
            "{label}: the disk writes each shadow page once and reads nothing else"
        );
        report
            .int(&format!("ablation_{name}_pages_touched"), touched)
            .int(&format!("ablation_{name}_old_page_reads"), reads)
            .elapsed(&format!("ablation_{name}_disk_us"), disk);
    }
}

fn main() {
    let new = new_content();
    let total_steps = NPAGES + 1; // one crash point after each page write, plus pre-commit
    let mut old_survivals = 0;
    let mut new_survivals = 0;
    let mut corruptions = 0;

    println!("E8: crash injection through a {NPAGES}-page modify+commit\n");
    println!("{:<34} {:>10} {:>8}", "crash point", "version", "fsck");
    for crash_after in 0..=total_steps {
        let (mut pack, ino, old) = make_pack(NPAGES);
        let mut sess = Some(ShadowSession::begin(&pack, ino).expect("begin"));
        for lpn in 0..NPAGES {
            if crash_after == lpn {
                sess = None; // the crash: volatile incore state vanishes
                break;
            }
            sess.as_mut()
                .expect("session alive")
                .write_page(&mut pack, lpn, &new[lpn * PAGE_SIZE..(lpn + 1) * PAGE_SIZE])
                .expect("write");
        }
        if let Some(mut live) = sess {
            if crash_after == NPAGES {
                drop(live); // crash after all writes, before commit
            } else {
                live.set_size(new.len() as u64);
                let mut vv = pack.inode(ino).expect("inode").vv.clone();
                vv.bump(pack.origin());
                live.commit(&mut pack, vv).expect("commit");
            }
        }

        let contents = pack.read_all(ino).expect("readable");
        let label = if crash_after <= NPAGES {
            format!("crash after {crash_after} page write(s)")
        } else {
            "no crash (commit completed)".to_owned()
        };
        let version = if contents == old {
            old_survivals += 1;
            "old"
        } else if contents == new {
            new_survivals += 1;
            "new"
        } else {
            corruptions += 1;
            "CORRUPT"
        };
        // NOTE: shadow blocks orphaned by a crash are garbage to collect,
        // not corruption; fsck checks reachable structures only.
        let fsck = if pack.fsck().is_ok() { "ok" } else { "BAD" };
        println!("{label:<34} {version:>10} {fsck:>8}");
    }

    println!();
    println!(
        "summary: {} crashes left the old version, {} runs the new, {} corrupt",
        old_survivals, new_survivals, corruptions
    );
    assert_eq!(corruptions, 0, "atomicity violated");
    println!("paper: \"either the original file or a completely changed file,");
    println!("but never a partially made change\" — zero corruptions above.");
    let mut report = BenchReport::new("e8");
    report
        .int("old_survivals", old_survivals as u64)
        .int("new_survivals", new_survivals as u64)
        .int("corruptions", corruptions as u64);
    shadow_ablation(&mut report);
    let path = report.write();
    println!("wrote {}", path.display());
}
