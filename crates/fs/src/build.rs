//! Filesystem image and cluster construction (`mkfs` for the simulation).

use locus_net::{EngineKind, LatencyModel, Net, RetryPolicy};
use locus_storage::{DiskInode, Pack, Superblock};
use locus_types::{FileType, FilegroupId, Gfid, Ino, MachineType, PackId, Perms, SiteId};

use crate::cluster::{Coherence, FsCluster, IoPolicy};
use crate::directory::Directory;
use crate::kernel::FsKernel;
use crate::mount::{MountInfo, MountTable};

/// Per-filegroup build specification.
struct FgSpec {
    name: String,
    containers: Vec<SiteId>,
    mount_at: Option<String>,
    css: Option<SiteId>,
}

/// Builds an [`FsCluster`]: sites, filegroups, containers and the initial
/// naming tree.
///
/// # Examples
///
/// ```
/// use locus_fs::FsClusterBuilder;
/// use locus_types::MachineType;
///
/// let fsc = FsClusterBuilder::new()
///     .site(MachineType::Vax)
///     .site(MachineType::Vax)
///     .filegroup("root", &[0, 1])
///     .build();
/// assert_eq!(fsc.site_count(), 2);
/// ```
pub struct FsClusterBuilder {
    machines: Vec<MachineType>,
    fgs: Vec<FgSpec>,
    blocks_per_pack: u32,
    inos_per_fg: u32,
    latency: LatencyModel,
    retry: RetryPolicy,
    io_policy: IoPolicy,
    name_cache: bool,
    name_leases: bool,
    engine: Option<EngineKind>,
}

impl Default for FsClusterBuilder {
    fn default() -> Self {
        FsClusterBuilder::new()
    }
}

impl FsClusterBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        FsClusterBuilder {
            machines: Vec::new(),
            fgs: Vec::new(),
            blocks_per_pack: 8192,
            inos_per_fg: 4096,
            latency: LatencyModel::ethernet_1983(),
            retry: RetryPolicy::default(),
            io_policy: IoPolicy::paper_faithful(),
            name_cache: false,
            name_leases: false,
            engine: None,
        }
    }

    /// Adds one site of the given machine type.
    pub fn site(mut self, machine: MachineType) -> Self {
        self.machines.push(machine);
        self
    }

    /// Adds `n` VAX sites.
    pub fn vax_sites(mut self, n: usize) -> Self {
        self.machines
            .extend(std::iter::repeat_n(MachineType::Vax, n));
        self
    }

    /// Registers a filegroup with containers at the given site indexes.
    /// The first filegroup becomes the root of the naming tree.
    pub fn filegroup(mut self, name: &str, container_sites: &[u32]) -> Self {
        self.fgs.push(FgSpec {
            name: name.to_owned(),
            containers: container_sites.iter().map(|&s| SiteId(s)).collect(),
            mount_at: None,
            css: None,
        });
        self
    }

    /// Overrides the starting CSS of the most recently registered
    /// filegroup (the default is the lowest-numbered container site).
    /// Placement experiments use this to start every shard's CSS on one
    /// hot site and let the placement driver spread the load.
    ///
    /// # Panics
    ///
    /// Panics if no filegroup has been registered yet or if `site` is not
    /// one of its containers.
    pub fn css_at(mut self, site: u32) -> Self {
        let spec = self.fgs.last_mut().expect("css_at needs a filegroup");
        let site = SiteId(site);
        assert!(
            spec.containers.contains(&site),
            "CSS for filegroup {} must be a container site",
            spec.name
        );
        spec.css = Some(site);
        self
    }

    /// Registers a filegroup mounted at `path` (a single-component
    /// absolute path in the root filegroup, e.g. `"/proj"`).
    pub fn filegroup_mounted(mut self, name: &str, container_sites: &[u32], path: &str) -> Self {
        self.fgs.push(FgSpec {
            name: name.to_owned(),
            containers: container_sites.iter().map(|&s| SiteId(s)).collect(),
            mount_at: Some(path.to_owned()),
            css: None,
        });
        self
    }

    /// Overrides the per-pack block count.
    pub fn blocks_per_pack(mut self, n: u32) -> Self {
        self.blocks_per_pack = n;
        self
    }

    /// Overrides the per-filegroup inode-space size. Large sharded
    /// clusters shrink this (together with [`Self::blocks_per_pack`]) to
    /// keep the image footprint proportional to what the workload needs.
    pub fn inos_per_fg(mut self, n: u32) -> Self {
        self.inos_per_fg = n;
        self
    }

    /// Overrides the latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Overrides the rpc retry/backoff policy (the knob chaos tests turn
    /// up when running under heavy injected loss).
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the page-transfer policy (paper-faithful per-page
    /// protocols by default; [`IoPolicy::batched`] enables batched
    /// transfers, adaptive readahead and write-behind).
    pub fn io_policy(mut self, policy: IoPolicy) -> Self {
        self.io_policy = policy;
        self
    }

    /// Enables the using-site name/attribute cache (off by default; see
    /// [`crate::namecache`]).
    pub fn name_cache(mut self, on: bool) -> Self {
        self.name_cache = on;
        self
    }

    /// Enables CSS-granted coherence leases on the name cache (off by
    /// default; implies [`Self::name_cache`]). Warm lookups are then
    /// served with zero messages: the CSS records holders on the first
    /// validation probe and pushes [`crate::proto::FsMsg::LeaseRecall`]
    /// callbacks from every invalidation path.
    pub fn name_leases(mut self, on: bool) -> Self {
        self.name_leases = on;
        self
    }

    /// Selects the simulation engine explicitly, overriding the
    /// `LOCUS_ENGINE` environment variable (which is otherwise the
    /// default; sequential when neither is given). Both engines produce
    /// byte-identical traces, histograms and statistics.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Builds the cluster: packs are formatted, every filegroup's root
    /// directory exists (replicated, identical, at every container), mount
    /// points are glued and the replicated mount table is installed at
    /// every site.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent specification (no sites, no filegroups,
    /// container site out of range, bad mount path) — these are build-time
    /// configuration errors, not runtime conditions.
    pub fn build(self) -> FsCluster {
        assert!(!self.machines.is_empty(), "at least one site required");
        assert!(!self.fgs.is_empty(), "at least one filegroup required");
        let nsites = self.machines.len();
        let net = Net::with_latency(nsites, self.latency);

        // Format packs: one per (filegroup, container).
        let mut packs: Vec<Vec<Pack>> = Vec::new();
        for (fgi, spec) in self.fgs.iter().enumerate() {
            let fg = FilegroupId(fgi as u32);
            let npacks = spec.containers.len() as u32;
            assert!(npacks > 0, "filegroup {} has no containers", spec.name);
            let mut fg_packs = Vec::new();
            for (idx, &site) in spec.containers.iter().enumerate() {
                assert!(site.index() < nsites, "container site out of range");
                let range = Superblock::partition_ino_space(self.inos_per_fg, npacks, idx as u32);
                fg_packs.push(Pack::new(
                    PackId::new(fg, idx as u32),
                    range,
                    self.blocks_per_pack,
                ));
            }
            packs.push(fg_packs);
        }

        // Root directory (ino 1) of every filegroup, replicated at every
        // container with identical contents and version vectors.
        let all_replicas: Vec<Vec<u32>> = packs
            .iter()
            .map(|fgp| (0..fgp.len() as u32).collect())
            .collect();
        let mut root_dirs: Vec<Directory> = Vec::new();
        for fgp in &mut packs {
            let mut d = Directory::new();
            d.insert(".", Ino(1)).expect("fresh directory");
            d.insert("..", Ino(1)).expect("fresh directory");
            root_dirs.push(d);
            for pack in fgp.iter_mut() {
                let mut inode = DiskInode::new(FileType::Directory, Perms::DIR_DEFAULT, 0);
                inode.nlink = 2;
                inode.replicas = all_replicas[pack.id().fg.0 as usize].clone();
                pack.install_inode(Ino(1), inode);
            }
        }

        // Glue mount points: a stub directory inode in the root filegroup
        // per mounted filegroup, entered in the root directory.
        let mut mount_points: Vec<Option<Gfid>> = vec![None; self.fgs.len()];
        for (fgi, spec) in self.fgs.iter().enumerate() {
            let Some(path) = &spec.mount_at else { continue };
            let name = path
                .strip_prefix('/')
                .filter(|n| !n.is_empty() && !n.contains('/'))
                .unwrap_or_else(|| panic!("mount path {path} must be a single absolute component"));
            assert!(fgi != 0, "the root filegroup cannot be mounted");
            let stub_ino = packs[0][0].alloc_ino().expect("ino space exhausted");
            for pack in packs[0].iter_mut() {
                let mut inode = DiskInode::new(FileType::Directory, Perms::DIR_DEFAULT, 0);
                inode.nlink = 2;
                inode.replicas = all_replicas[0].clone();
                pack.install_inode(stub_ino, inode);
            }
            root_dirs[0]
                .insert(name, stub_ino)
                .unwrap_or_else(|_| panic!("duplicate mount point {path}"));
            mount_points[fgi] = Some(Gfid::new(FilegroupId(0), stub_ino));
        }

        // Write the root directory contents everywhere.
        for (fgi, fgp) in packs.iter_mut().enumerate() {
            let bytes = root_dirs[fgi].serialize();
            for pack in fgp.iter_mut() {
                pack.write_all(Ino(1), &bytes).expect("image build");
                pack.take_io_cost(); // image building is free
            }
        }

        // Replicated mount table: CSS defaults to the lowest-numbered
        // container site ("there is only one CSS for any given filegroup
        // in any set of communicating sites", §2.3.1).
        let mut table = MountTable::new();
        for (fgi, spec) in self.fgs.iter().enumerate() {
            let fg = FilegroupId(fgi as u32);
            let containers: Vec<(PackId, SiteId)> = spec
                .containers
                .iter()
                .enumerate()
                .map(|(idx, &site)| (PackId::new(fg, idx as u32), site))
                .collect();
            let css = spec
                .css
                .unwrap_or_else(|| containers.iter().map(|(_, s)| *s).min().expect("non-empty"));
            table.add(MountInfo {
                fg,
                root_ino: Ino(1),
                mounted_on: mount_points[fgi],
                containers,
                css,
                css_epoch: 0,
                css_claimed_at: None,
            });
        }

        // Assemble kernels and hand out the packs.
        let mut kernels: Vec<FsKernel> = self
            .machines
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let mut k = FsKernel::new(SiteId(i as u32), m);
                k.mount = table.clone();
                k
            })
            .collect();
        for fgp in packs {
            for pack in fgp {
                let site = table
                    .get(pack.id().fg)
                    .expect("registered above")
                    .site_of_pack(pack.id().idx)
                    .expect("container registered");
                kernels[site.index()].attach_pack(pack);
            }
        }
        let fsc = FsCluster::from_parts(net, kernels);
        let mount_names = self
            .fgs
            .iter()
            .enumerate()
            .filter_map(|(fgi, spec)| {
                let path = spec.mount_at.as_deref()?;
                Some((
                    path.strip_prefix('/').expect("validated above").to_owned(),
                    FilegroupId(fgi as u32),
                ))
            })
            .collect();
        fsc.set_mount_names(mount_names);
        fsc.set_retry_policy(self.retry);
        fsc.set_io_policy(self.io_policy);
        fsc.coherence.set(match (self.name_leases, self.name_cache) {
            (true, _) => Coherence::Lease,
            (false, true) => Coherence::Validate,
            (false, false) => Coherence::Off,
        });
        if let Some(engine) = self.engine {
            fsc.set_engine(engine);
        }
        fsc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::OpenMode;

    #[test]
    fn build_produces_identical_root_copies() {
        let fsc = FsClusterBuilder::new()
            .vax_sites(3)
            .filegroup("root", &[0, 1, 2])
            .build();
        let root = fsc.kernel(SiteId(0)).mount.root().unwrap();
        for s in 0..3u32 {
            let k = fsc.kernel(SiteId(s));
            let info = k.local_info(root).expect("every container stores root");
            assert_eq!(info.ftype, FileType::Directory);
            assert!(k.stores_data(root));
        }
    }

    #[test]
    fn mounted_filegroup_is_reachable_through_the_tree() {
        let fsc = FsClusterBuilder::new()
            .vax_sites(2)
            .filegroup("root", &[0])
            .filegroup_mounted("proj", &[1], "/proj")
            .build();
        let ctx = crate::proto::ProcFsCtx::new(
            fsc.kernel(SiteId(0)).mount.root().unwrap(),
            MachineType::Vax,
        );
        let g = crate::ops::namei::resolve(&fsc, SiteId(0), &ctx, "/proj").unwrap();
        assert_eq!(g.fg, FilegroupId(1), "mount point crossed");
        assert_eq!(g.ino, Ino(1));
    }

    #[test]
    fn root_opens_locally_and_remotely() {
        let fsc = FsClusterBuilder::new()
            .vax_sites(2)
            .filegroup("root", &[0])
            .build();
        let root = fsc.kernel(SiteId(0)).mount.root().unwrap();
        // Local site 0 and diskless site 1 both open the root.
        for s in 0..2u32 {
            let t = crate::ops::open::open_gfid(&fsc, SiteId(s), root, OpenMode::Read).unwrap();
            crate::ops::open::close_ticket(&fsc, SiteId(s), &t).unwrap();
        }
    }
}
