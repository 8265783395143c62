//! NAND SSD model: command-overhead latency plus a page-mapped FTL whose
//! garbage collection charges real time and counts erase cycles.

use simdes::{Resource, SimTime};

use crate::lse::LseModel;
use crate::stats::DeviceStats;
use crate::{IoKind, IoOp, Pattern};

const UNMAPPED: u32 = u32::MAX;

/// Entries per [`PageTable`] leaf (16 KiB of `u32`s).
const LEAF_BITS: u32 = 12;
const LEAF_LEN: usize = 1 << LEAF_BITS;

/// Sparse `u32 -> u32` table: a directory of fixed-size leaves, each
/// allocated on its first [`set`](PageTable::set) of a mapped value.
/// Entries in a missing leaf read as [`UNMAPPED`], so host memory scales
/// with the pages written rather than with the device capacity.
#[derive(Debug, Clone)]
struct PageTable {
    leaves: Vec<Option<Box<[u32]>>>,
}

impl PageTable {
    fn new(len: u64) -> PageTable {
        PageTable {
            leaves: vec![None; (len as usize).div_ceil(LEAF_LEN)],
        }
    }

    fn get(&self, i: u32) -> u32 {
        match &self.leaves[(i >> LEAF_BITS) as usize] {
            Some(leaf) => leaf[i as usize & (LEAF_LEN - 1)],
            None => UNMAPPED,
        }
    }

    fn set(&mut self, i: u32, v: u32) {
        let slot = &mut self.leaves[(i >> LEAF_BITS) as usize];
        if slot.is_none() && v == UNMAPPED {
            return;
        }
        let leaf = slot.get_or_insert_with(|| vec![UNMAPPED; LEAF_LEN].into_boxed_slice());
        leaf[i as usize & (LEAF_LEN - 1)] = v;
    }

    /// The inverse of this table over `0..len`: every mapped `i -> v`
    /// becomes `v -> i`. Only allocated leaves are walked, so the cost
    /// follows the entries mapped, not `len`.
    fn inverse(&self, len: u64) -> PageTable {
        let mut inv = PageTable::new(len);
        for (l, leaf) in self.leaves.iter().enumerate() {
            let Some(leaf) = leaf else { continue };
            let base = (l << LEAF_BITS) as u32;
            for (off, &v) in leaf.iter().enumerate() {
                if v != UNMAPPED {
                    inv.set(v, base + off as u32);
                }
            }
        }
        inv
    }

    /// Number of allocated leaves.
    #[cfg(test)]
    fn allocated_leaves(&self) -> usize {
        self.leaves.iter().filter(|l| l.is_some()).count()
    }
}

/// SSD configuration.
///
/// Defaults model a datacenter SATA/NVMe-class drive of the kind the paper's
/// Chameleon nodes carried, scaled down in capacity. Capacity costs no host
/// memory up front: the FTL holds one `u32` per mapped logical page, and
/// derives its inverse map only at the first garbage collection.
/// The latency constants encode the property the paper leans on: a small
/// random command costs two orders of magnitude more than its share of a
/// large sequential stream.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// NAND page size in bytes.
    pub page_size: u64,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Logical (host-visible) capacity in bytes.
    pub capacity: u64,
    /// Extra physical space fraction reserved for the FTL.
    pub over_provision: f64,
    /// Internal command parallelism (NCQ/NVMe queue lanes).
    pub queue_depth: usize,
    /// Fixed overhead of a random read command.
    pub rand_read_overhead: SimTime,
    /// Fixed overhead of a random write command.
    pub rand_write_overhead: SimTime,
    /// Fixed overhead of a sequential read command.
    pub seq_read_overhead: SimTime,
    /// Fixed overhead of a sequential write command.
    pub seq_write_overhead: SimTime,
    /// Sustained read bandwidth, bytes per second.
    pub read_bandwidth: u64,
    /// Sustained write bandwidth, bytes per second.
    pub write_bandwidth: u64,
    /// Time to erase one NAND block.
    pub erase_time: SimTime,
    /// Time to relocate one valid page during GC (read + program).
    pub gc_page_move_time: SimTime,
    /// GC starts when the free-block fraction drops below this.
    pub gc_free_threshold: f64,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig {
            page_size: 4096,
            pages_per_block: 64, // 256 KiB erase block
            capacity: 2 << 30,   // 2 GiB logical (scaled-down 400 GB drive)
            over_provision: 0.125,
            queue_depth: 4,
            rand_read_overhead: 45 * simdes::units::MICROS,
            rand_write_overhead: 60 * simdes::units::MICROS,
            seq_read_overhead: 15 * simdes::units::MICROS,
            seq_write_overhead: 20 * simdes::units::MICROS,
            read_bandwidth: 2_000_000_000,
            write_bandwidth: 1_100_000_000,
            erase_time: 2 * simdes::units::MILLIS,
            gc_page_move_time: 60 * simdes::units::MICROS,
            gc_free_threshold: 0.06,
        }
    }
}

/// Page-mapped flash translation layer.
///
/// Logical pages map to physical pages; overwrites invalidate the old
/// physical page. When the pool of free blocks falls below the GC
/// threshold, greedy GC picks the block with the fewest valid pages,
/// relocates them, and erases it. Erases and relocations are returned to
/// the caller so they can be charged to the device timeline and to the
/// wear counters.
///
/// Until the first GC the FTL holds one `u32` per mapped logical page,
/// its `lpn -> ppa` map. GC is the only reader of the inverse
/// `ppa -> lpn` map, so the first GC derives it from the forward map and
/// writes maintain it from then on: a device that never collects garbage
/// never pays for it.
#[derive(Debug, Clone)]
pub struct Ftl {
    pages_per_block: u32,
    logical_pages: u64,
    /// lpn -> ppa
    map: PageTable,
    /// ppa -> lpn, the exact inverse of `map`; `None` until the first GC
    rmap: Option<PageTable>,
    /// valid page count per physical block
    valid: Vec<u16>,
    /// stack of free (erased) block ids
    free_blocks: Vec<u32>,
    /// per-block "is on `free_blocks`" flag, kept in step with it
    is_free: Vec<bool>,
    active_block: u32,
    active_next_page: u32,
    gc_threshold_blocks: usize,
    total_blocks: usize,
    /// Re-entrancy guard: relocations during GC allocate pages, which must
    /// not trigger a nested GC pass (the inner pass could erase and reuse
    /// the outer pass's victim mid-relocation).
    gc_active: bool,
}

/// GC/wear cost of a batch of page writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashCost {
    /// Pages programmed on behalf of the host.
    pub host_pages: u64,
    /// Pages relocated by garbage collection.
    pub moved_pages: u64,
    /// Blocks erased.
    pub erases: u64,
}

impl Ftl {
    fn new(cfg: &SsdConfig) -> Ftl {
        let logical_pages = cfg.capacity.div_ceil(cfg.page_size);
        let physical_pages = ((logical_pages as f64) * (1.0 + cfg.over_provision)).ceil() as u64;
        let total_blocks = physical_pages.div_ceil(cfg.pages_per_block as u64) as usize;
        assert!(
            total_blocks >= 4,
            "SSD too small: needs at least 4 erase blocks"
        );
        assert!(
            (total_blocks as u64) * (cfg.pages_per_block as u64) < UNMAPPED as u64,
            "SSD too large: physical page numbers must fit in u32"
        );
        let free_blocks: Vec<u32> = (1..total_blocks as u32).rev().collect();
        let active_block = 0;
        let mut is_free = vec![true; total_blocks];
        is_free[active_block as usize] = false;
        let gc_threshold_blocks =
            ((total_blocks as f64 * cfg.gc_free_threshold).ceil() as usize).max(2);
        Ftl {
            pages_per_block: cfg.pages_per_block,
            logical_pages,
            map: PageTable::new(logical_pages),
            rmap: None,
            valid: vec![0; total_blocks],
            free_blocks,
            is_free,
            active_block,
            active_next_page: 0,
            gc_threshold_blocks,
            total_blocks,
            gc_active: false,
        }
    }

    /// Number of logical pages.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Whether `lpn` has ever been written (a page is un-mapped only inside
    /// [`write_page`](Ftl::write_page), which maps it again).
    fn is_mapped(&self, lpn: u64) -> bool {
        self.map.get(lpn as u32) != UNMAPPED
    }

    /// Writes one logical page; returns the wear cost incurred (including
    /// any GC this write triggered).
    pub fn write_page(&mut self, lpn: u64) -> FlashCost {
        debug_assert!(lpn < self.logical_pages, "lpn out of range");
        let lpn = lpn as u32;
        let mut cost = FlashCost::default();
        // Invalidate the previous location. `map` drops the entry too: the
        // allocation below may run the first GC, which derives `rmap` from
        // `map` and must not see the stale `old -> lpn` pair.
        let old = self.map.get(lpn);
        if old != UNMAPPED {
            let blk = (old / self.pages_per_block) as usize;
            self.valid[blk] -= 1;
            self.map.set(lpn, UNMAPPED);
            if let Some(rmap) = &mut self.rmap {
                rmap.set(old, UNMAPPED);
            }
        }
        let ppa = self.allocate_page(&mut cost);
        self.map.set(lpn, ppa);
        if let Some(rmap) = &mut self.rmap {
            rmap.set(ppa, lpn);
        }
        self.valid[(ppa / self.pages_per_block) as usize] += 1;
        cost.host_pages += 1;
        cost
    }

    fn allocate_page(&mut self, cost: &mut FlashCost) -> u32 {
        if self.active_next_page == self.pages_per_block {
            // Active block is full: pick a new one, GC first if needed.
            if !self.gc_active && self.free_blocks.len() < self.gc_threshold_blocks {
                self.collect_garbage(cost);
            }
            self.active_block = self
                .free_blocks
                .pop()
                .expect("GC must keep at least one free block");
            self.is_free[self.active_block as usize] = false;
            self.active_next_page = 0;
        }
        let ppa = self.active_block * self.pages_per_block + self.active_next_page;
        self.active_next_page += 1;
        ppa
    }

    fn collect_garbage(&mut self, cost: &mut FlashCost) {
        self.gc_active = true;
        // Relocations allocate through `allocate_page`, which never reads
        // `rmap`, so the table is held locally for the pass.
        let physical_pages = self.total_blocks as u64 * self.pages_per_block as u64;
        let mut rmap = self
            .rmap
            .take()
            .unwrap_or_else(|| self.map.inverse(physical_pages));
        while self.free_blocks.len() < self.gc_threshold_blocks {
            // Greedy victim: fewest valid pages, excluding active and free.
            let mut victim = usize::MAX;
            let mut best = u16::MAX;
            for b in 0..self.total_blocks {
                if b as u32 == self.active_block || self.is_free[b] {
                    continue;
                }
                if self.valid[b] < best {
                    best = self.valid[b];
                    victim = b;
                    if best == 0 {
                        break;
                    }
                }
            }
            assert!(victim != usize::MAX, "no GC victim available");
            // Relocate the victim's valid pages into the active stream.
            let base = victim as u32 * self.pages_per_block;
            for p in 0..self.pages_per_block {
                let ppa = base + p;
                let lpn = rmap.get(ppa);
                if lpn == UNMAPPED {
                    continue;
                }
                rmap.set(ppa, UNMAPPED);
                self.valid[victim] -= 1;
                let new_ppa = self.allocate_page(cost);
                self.map.set(lpn, new_ppa);
                rmap.set(new_ppa, lpn);
                self.valid[(new_ppa / self.pages_per_block) as usize] += 1;
                cost.moved_pages += 1;
            }
            debug_assert_eq!(self.valid[victim], 0);
            cost.erases += 1;
            self.free_blocks.push(victim as u32);
            self.is_free[victim] = true;
        }
        self.rmap = Some(rmap);
        self.gc_active = false;
    }
}

/// The SSD device: latency model + FTL + statistics.
#[derive(Debug, Clone)]
pub struct Ssd {
    cfg: SsdConfig,
    ftl: Ftl,
    queue: Resource,
    stats: DeviceStats,
    /// Latent-sector-error oracle, if installed.
    lse: Option<LseModel>,
}

impl Ssd {
    /// Builds an SSD from its configuration.
    pub fn new(cfg: SsdConfig) -> Ssd {
        Ssd {
            queue: Resource::new(cfg.queue_depth),
            ftl: Ftl::new(&cfg),
            stats: DeviceStats::default(),
            lse: None,
            cfg,
        }
    }

    /// SSD with default configuration.
    pub fn with_defaults() -> Ssd {
        Ssd::new(SsdConfig::default())
    }

    /// Logical capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.cfg.capacity
    }

    /// Device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Total busy time booked on the device queue.
    pub fn busy_time(&self) -> u64 {
        self.queue.busy_time()
    }

    /// Installs (or replaces) the latent-sector-error oracle.
    pub fn install_lse(&mut self, model: LseModel) {
        self.lse = Some(model);
    }

    /// The latent-sector-error oracle, if installed.
    pub fn lse(&self) -> Option<&LseModel> {
        self.lse.as_ref()
    }

    /// Mutable access to the latent-sector-error oracle.
    pub fn lse_mut(&mut self) -> Option<&mut LseModel> {
        self.lse.as_mut()
    }

    /// Pure service-time model for an op (no queueing, no FTL): fixed
    /// command overhead by pattern plus transfer at media bandwidth.
    pub fn service_time(&self, op: &IoOp) -> SimTime {
        let (overhead, bw) = match (op.kind, op.pattern) {
            (IoKind::Read, Pattern::Random) => {
                (self.cfg.rand_read_overhead, self.cfg.read_bandwidth)
            }
            (IoKind::Read, Pattern::Sequential) => {
                (self.cfg.seq_read_overhead, self.cfg.read_bandwidth)
            }
            (IoKind::Write, Pattern::Random) => {
                (self.cfg.rand_write_overhead, self.cfg.write_bandwidth)
            }
            (IoKind::Write, Pattern::Sequential) => {
                (self.cfg.seq_write_overhead, self.cfg.write_bandwidth)
            }
        };
        overhead + op.len * simdes::units::SECS / bw
    }

    /// Submits an I/O; returns its completion time.
    ///
    /// Writes run through the FTL page by page; GC relocations and erases
    /// extend this command's service time (foreground GC), which is how
    /// sustained random overwrite load degrades latency on real drives.
    ///
    /// # Panics
    /// Panics if the op exceeds the device capacity or has zero length.
    pub fn submit(&mut self, now: SimTime, op: IoOp) -> SimTime {
        assert!(op.len > 0, "zero-length I/O");
        assert!(
            op.offset + op.len <= self.cfg.capacity,
            "I/O beyond device capacity: offset {} len {} cap {}",
            op.offset,
            op.len,
            self.cfg.capacity
        );
        let mut service = self.service_time(&op);
        match op.kind {
            IoKind::Read => {
                self.stats.reads.record(op.len);
                if op.pattern == Pattern::Random {
                    self.stats.random_reads.record(op.len);
                }
            }
            IoKind::Write => {
                self.stats.writes.record(op.len);
                if op.pattern == Pattern::Random {
                    self.stats.random_writes.record(op.len);
                }
                // FTL programming + GC, with overwrite accounting at page
                // granularity: a page is mapped exactly when the host has
                // written it before.
                let first = op.offset / self.cfg.page_size;
                let last = (op.offset + op.len - 1) / self.cfg.page_size;
                let mut over_bytes = 0u64;
                let mut cost = FlashCost::default();
                for lpn in first..=last {
                    if self.ftl.is_mapped(lpn) {
                        over_bytes += self.page_overlap(op.offset, op.len, lpn);
                    }
                    let c = self.ftl.write_page(lpn);
                    cost.host_pages += c.host_pages;
                    cost.moved_pages += c.moved_pages;
                    cost.erases += c.erases;
                }
                if over_bytes > 0 {
                    self.stats.overwrites.record(over_bytes);
                }
                self.stats.nand_pages_programmed += cost.host_pages + cost.moved_pages;
                self.stats.gc_relocated_pages += cost.moved_pages;
                self.stats.erases += cost.erases;
                self.stats.wear_bytes += (cost.host_pages + cost.moved_pages) * self.cfg.page_size;
                service += cost.moved_pages * self.cfg.gc_page_move_time
                    + cost.erases * self.cfg.erase_time;
            }
        }
        self.queue.reserve(now, service)
    }

    fn page_overlap(&self, offset: u64, len: u64, lpn: u64) -> u64 {
        let ps = self.cfg.page_size;
        let page_start = lpn * ps;
        let page_end = page_start + ps;
        let start = offset.max(page_start);
        let end = (offset + len).min(page_end);
        end.saturating_sub(start)
    }

    /// Explicitly erases the flash blocks backing `[offset, offset+len)` —
    /// the cost of reusing *fixed* on-device log regions (e.g. PLR's
    /// reserved space) that cannot ride the FTL's remapping. Counts erase
    /// cycles and books erase time on the device queue.
    pub fn erase_region(&mut self, now: SimTime, offset: u64, len: u64) -> SimTime {
        assert!(len > 0, "zero-length erase");
        assert!(offset + len <= self.cfg.capacity, "erase beyond capacity");
        let block_bytes = self.cfg.page_size * self.cfg.pages_per_block as u64;
        let first = offset / block_bytes;
        let last = (offset + len - 1) / block_bytes;
        let blocks = last - first + 1;
        self.stats.erases += blocks;
        self.queue.reserve(now, blocks * self.cfg.erase_time)
    }

    /// Projected lifespan multiplier relative to a baseline erase count:
    /// `baseline_erases / self.erases` (∞-safe: returns baseline when this
    /// device has zero erases).
    pub fn lifespan_vs(&self, baseline_erases: u64) -> f64 {
        if self.stats.erases == 0 {
            baseline_erases.max(1) as f64
        } else {
            baseline_erases as f64 / self.stats.erases as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simdes::units::{MICROS, SECS};

    /// The FTL as it was before its tables went sparse: dense `lpn -> ppa`
    /// and `ppa -> lpn` vectors, both kept from the first write, and a GC
    /// that asks `free_blocks` for each block it scans. Kept only as the
    /// reference [`Ftl`] must match.
    struct DenseFtl {
        pages_per_block: u32,
        map: Vec<u32>,
        rmap: Vec<u32>,
        valid: Vec<u16>,
        free_blocks: Vec<u32>,
        active_block: u32,
        active_next_page: u32,
        gc_threshold_blocks: usize,
        total_blocks: usize,
        gc_active: bool,
    }

    impl DenseFtl {
        fn new(cfg: &SsdConfig) -> DenseFtl {
            let logical_pages = cfg.capacity.div_ceil(cfg.page_size);
            let physical_pages =
                ((logical_pages as f64) * (1.0 + cfg.over_provision)).ceil() as u64;
            let total_blocks = physical_pages.div_ceil(cfg.pages_per_block as u64) as usize;
            DenseFtl {
                pages_per_block: cfg.pages_per_block,
                map: vec![UNMAPPED; logical_pages as usize],
                rmap: vec![UNMAPPED; total_blocks * cfg.pages_per_block as usize],
                valid: vec![0; total_blocks],
                free_blocks: (1..total_blocks as u32).rev().collect(),
                active_block: 0,
                active_next_page: 0,
                gc_threshold_blocks: ((total_blocks as f64 * cfg.gc_free_threshold).ceil()
                    as usize)
                    .max(2),
                total_blocks,
                gc_active: false,
            }
        }

        fn write_page(&mut self, lpn: u64) -> FlashCost {
            let mut cost = FlashCost::default();
            let old = self.map[lpn as usize];
            if old != UNMAPPED {
                self.valid[(old / self.pages_per_block) as usize] -= 1;
                self.rmap[old as usize] = UNMAPPED;
            }
            let ppa = self.allocate_page(&mut cost);
            self.map[lpn as usize] = ppa;
            self.rmap[ppa as usize] = lpn as u32;
            self.valid[(ppa / self.pages_per_block) as usize] += 1;
            cost.host_pages += 1;
            cost
        }

        fn allocate_page(&mut self, cost: &mut FlashCost) -> u32 {
            if self.active_next_page == self.pages_per_block {
                if !self.gc_active && self.free_blocks.len() < self.gc_threshold_blocks {
                    self.collect_garbage(cost);
                }
                self.active_block = self.free_blocks.pop().unwrap();
                self.active_next_page = 0;
            }
            let ppa = self.active_block * self.pages_per_block + self.active_next_page;
            self.active_next_page += 1;
            ppa
        }

        fn collect_garbage(&mut self, cost: &mut FlashCost) {
            self.gc_active = true;
            while self.free_blocks.len() < self.gc_threshold_blocks {
                let mut victim = usize::MAX;
                let mut best = u16::MAX;
                for b in 0..self.total_blocks {
                    if b as u32 == self.active_block || self.free_blocks.contains(&(b as u32)) {
                        continue;
                    }
                    if self.valid[b] < best {
                        best = self.valid[b];
                        victim = b;
                        if best == 0 {
                            break;
                        }
                    }
                }
                let base = victim as u32 * self.pages_per_block;
                for ppa in base..base + self.pages_per_block {
                    let lpn = self.rmap[ppa as usize];
                    if lpn == UNMAPPED {
                        continue;
                    }
                    self.rmap[ppa as usize] = UNMAPPED;
                    self.valid[victim] -= 1;
                    let new_ppa = self.allocate_page(cost);
                    self.map[lpn as usize] = new_ppa;
                    self.rmap[new_ppa as usize] = lpn;
                    self.valid[(new_ppa / self.pages_per_block) as usize] += 1;
                    cost.moved_pages += 1;
                }
                cost.erases += 1;
                self.free_blocks.push(victim as u32);
            }
            self.gc_active = false;
        }
    }

    /// The FTL configuration the dense-reference checks run on: 4 MiB
    /// (1024 logical pages) at 25% over-provisioning, so 20 blocks of 64
    /// pages and a GC threshold of 2 free blocks.
    fn reference_cfg() -> SsdConfig {
        SsdConfig {
            capacity: 4 << 20,
            over_provision: 0.25,
            ..SsdConfig::default()
        }
    }

    /// Writes `lpns` to both an [`Ftl`] and a [`DenseFtl`]; every write must
    /// cost what the dense FTL charges, and both must end in the same
    /// state, the derived `rmap` included once GC has run. Returns the
    /// sparse FTL and the index of the write that ran the first GC.
    fn check_against_dense(lpns: impl IntoIterator<Item = u64>) -> (Ftl, Option<usize>) {
        let cfg = reference_cfg();
        let mut sparse = Ftl::new(&cfg);
        let mut dense = DenseFtl::new(&cfg);
        let mut first_gc = None;
        for (i, lpn) in lpns.into_iter().enumerate() {
            let cost = sparse.write_page(lpn);
            assert_eq!(cost, dense.write_page(lpn), "write {i} of lpn {lpn}");
            if cost.erases > 0 && first_gc.is_none() {
                first_gc = Some(i);
            }
            assert_eq!(sparse.rmap.is_some(), first_gc.is_some(), "write {i}");
        }
        for (lpn, &ppa) in dense.map.iter().enumerate() {
            assert_eq!(sparse.map.get(lpn as u32), ppa);
        }
        if let Some(rmap) = &sparse.rmap {
            for (ppa, &lpn) in dense.rmap.iter().enumerate() {
                assert_eq!(rmap.get(ppa as u32), lpn);
            }
        }
        assert_eq!(&sparse.valid, &dense.valid);
        assert_eq!(&sparse.free_blocks, &dense.free_blocks);
        assert_eq!(sparse.active_block, dense.active_block);
        assert_eq!(sparse.active_next_page, dense.active_next_page);
        for b in 0..sparse.total_blocks {
            assert_eq!(sparse.is_free[b], dense.free_blocks.contains(&(b as u32)));
        }
        (sparse, first_gc)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The FTL is filled once and then overwritten at random within a
        /// hot set of `hot` pages, far past GC onset.
        #[test]
        fn sparse_ftl_matches_dense_reference(
            hot in 16u64..1024,
            writes in proptest::collection::vec(0u64..1024, 2000..6000),
        ) {
            let fill = 0..reference_cfg().capacity / 4096;
            let (_, first_gc) = check_against_dense(fill.chain(writes.iter().map(|w| w % hot)));
            prop_assert!(first_gc.is_some(), "the sequence must run GC");
        }
    }

    /// The first GC runs inside an overwrite whose old page lies in the
    /// victim block. After the fill, 192 overwrites take 12 pages from each
    /// of the 16 filled blocks and fill the 3 spare blocks, so the 193rd
    /// (of lpn 12) finds one free block, runs GC, and its own invalidation
    /// leaves block 0 the unique emptiest, the first victim. Deriving `rmap` from a `map`
    /// that still held `12 -> old` would relocate the dead page.
    #[test]
    fn first_gc_inside_an_overwrite_matches_dense_reference() {
        let fill = 0..1024u64;
        let overwrites = (0..193u64).map(|i| (i % 16) * 64 + i / 16);
        let (_, first_gc) = check_against_dense(fill.chain(overwrites));
        assert_eq!(first_gc, Some(1024 + 192));
    }

    #[test]
    fn ftl_tables_grow_with_pages_written() {
        let mut ssd = Ssd::with_defaults();
        assert_eq!(ssd.config().capacity, 2 << 30);
        assert_eq!(ssd.ftl.map.allocated_leaves(), 0);
        assert!(ssd.ftl.rmap.is_none());
        // Pages 4096 apart each land in a leaf of their own.
        for i in 0..8u64 {
            ssd.submit(
                0,
                IoOp::write((1 << 30) + i * (16 << 20), 4096, Pattern::Random),
            );
            assert!(ssd.ftl.map.allocated_leaves() as u64 <= i + 1);
        }
        assert!(ssd.ftl.is_mapped(1 << 18));
        assert!(ssd.ftl.rmap.is_none(), "no GC, no inverse map");

        let mut ssd = Ssd::new(reference_cfg());
        let cap = ssd.capacity();
        for off in (0..2 * cap).step_by(4096) {
            ssd.submit(0, IoOp::write(off % cap, 4096, Pattern::Random));
        }
        assert!(ssd.stats().erases > 0);
        assert!(ssd.ftl.rmap.is_some(), "GC derived the inverse map");
    }

    fn small_ssd() -> Ssd {
        Ssd::new(SsdConfig {
            capacity: 16 << 20, // 16 MiB
            ..SsdConfig::default()
        })
    }

    #[test]
    fn sequential_faster_than_random() {
        let ssd = small_ssd();
        let r = ssd.service_time(&IoOp::read(0, 4096, Pattern::Random));
        let s = ssd.service_time(&IoOp::read(0, 4096, Pattern::Sequential));
        assert!(r > 2 * s, "random {r} vs sequential {s}");
        let rw = ssd.service_time(&IoOp::write(0, 4096, Pattern::Random));
        let sw = ssd.service_time(&IoOp::write(0, 4096, Pattern::Sequential));
        assert!(rw > 2 * sw, "random {rw} vs sequential {sw}");
    }

    #[test]
    fn large_sequential_hits_bandwidth() {
        let ssd = small_ssd();
        let len = 8 << 20; // 8 MiB
        let t = ssd.service_time(&IoOp::read(0, len, Pattern::Sequential));
        let ideal = len * SECS / ssd.config().read_bandwidth;
        assert!(t < ideal + ideal / 10, "t {t} vs ideal {ideal}");
    }

    #[test]
    fn queue_depth_allows_parallel_commands() {
        let mut ssd = small_ssd();
        let t1 = ssd.submit(0, IoOp::read(0, 4096, Pattern::Random));
        let t2 = ssd.submit(0, IoOp::read(8192, 4096, Pattern::Random));
        assert_eq!(t1, t2, "two commands fit the queue simultaneously");
        // Saturate the queue: the (QD+1)-th command must wait.
        let mut last = 0;
        for i in 0..ssd.config().queue_depth as u64 {
            last = ssd.submit(0, IoOp::read(i * 4096, 4096, Pattern::Random));
        }
        assert!(last > t1);
    }

    #[test]
    fn overwrites_counted_only_on_rewrite() {
        let mut ssd = small_ssd();
        ssd.submit(0, IoOp::write(0, 8192, Pattern::Sequential));
        assert_eq!(ssd.stats().overwrites.ops, 0);
        ssd.submit(0, IoOp::write(0, 4096, Pattern::Random));
        assert_eq!(ssd.stats().overwrites.ops, 1);
        assert_eq!(ssd.stats().overwrites.bytes, 4096);
        // A fresh region is again not an overwrite.
        ssd.submit(0, IoOp::write(1 << 20, 4096, Pattern::Random));
        assert_eq!(ssd.stats().overwrites.ops, 1);
    }

    #[test]
    fn sub_page_overwrite_counts_overlap_bytes() {
        let mut ssd = small_ssd();
        ssd.submit(0, IoOp::write(0, 4096, Pattern::Random));
        ssd.submit(0, IoOp::write(100, 200, Pattern::Random));
        assert_eq!(ssd.stats().overwrites.bytes, 200);
    }

    #[test]
    fn sustained_overwrite_triggers_gc_and_erases() {
        let mut ssd = Ssd::new(SsdConfig {
            capacity: 4 << 20, // 4 MiB: 16 blocks of 256 KiB
            over_provision: 0.25,
            ..SsdConfig::default()
        });
        // Fill the device once, then overwrite it several times.
        let mut now = 0;
        for round in 0..6u64 {
            for off in (0..(4 << 20)).step_by(4096) {
                now = ssd.submit(now, IoOp::write(off, 4096, Pattern::Random));
            }
            if round == 0 {
                assert_eq!(ssd.stats().erases, 0, "first fill needs no GC");
            }
        }
        assert!(ssd.stats().erases > 0, "overwrites must trigger GC");
        assert!(
            ssd.stats().write_amplification(4096) >= 1.0,
            "WA must be >= 1"
        );
    }

    #[test]
    fn wear_tracks_write_volume() {
        // Two devices, one written 4x more: it must erase more.
        let cfg = SsdConfig {
            capacity: 4 << 20,
            ..SsdConfig::default()
        };
        let mut a = Ssd::new(cfg.clone());
        let mut b = Ssd::new(cfg);
        for round in 0..2u64 {
            let _ = round;
            for off in (0..(4 << 20)).step_by(4096) {
                a.submit(0, IoOp::write(off, 4096, Pattern::Random));
            }
        }
        for _ in 0..8u64 {
            for off in (0..(4 << 20)).step_by(4096) {
                b.submit(0, IoOp::write(off, 4096, Pattern::Random));
            }
        }
        assert!(b.stats().erases > a.stats().erases);
        assert!(a.lifespan_vs(b.stats().erases) > 1.0);
    }

    #[test]
    fn wear_counts_programmed_bytes_including_gc() {
        let mut ssd = Ssd::new(SsdConfig {
            capacity: 4 << 20,
            over_provision: 0.25,
            ..SsdConfig::default()
        });
        assert_eq!(ssd.stats().wear_bytes, 0);
        ssd.submit(0, IoOp::write(0, 8192, Pattern::Sequential));
        assert_eq!(ssd.stats().wear_bytes, 8192, "no GC yet: wear = host bytes");
        // Reads never wear the flash.
        ssd.submit(0, IoOp::read(0, 8192, Pattern::Sequential));
        assert_eq!(ssd.stats().wear_bytes, 8192);
        // Fill once, then hammer only the even pages: GC victims keep
        // their odd pages valid, forcing relocations (physical wear beyond
        // the host write volume).
        for off in (0..(4 << 20)).step_by(4096) {
            ssd.submit(0, IoOp::write(off, 4096, Pattern::Random));
        }
        for _ in 0..8u64 {
            for off in (0..(4 << 20)).step_by(8192) {
                ssd.submit(0, IoOp::write(off, 4096, Pattern::Random));
            }
        }
        let host = ssd.stats().writes.bytes;
        assert!(
            ssd.stats().wear_bytes > host,
            "GC relocations must wear beyond host writes: {} vs {host}",
            ssd.stats().wear_bytes
        );
        assert_eq!(
            ssd.stats().wear_bytes,
            ssd.stats().nand_pages_programmed * ssd.config().page_size
        );
    }

    #[test]
    #[should_panic(expected = "beyond device capacity")]
    fn oversized_io_rejected() {
        let mut ssd = small_ssd();
        ssd.submit(0, IoOp::read((16 << 20) - 100, 4096, Pattern::Random));
    }

    #[test]
    fn service_time_includes_transfer() {
        let ssd = small_ssd();
        let small = ssd.service_time(&IoOp::write(0, 4096, Pattern::Sequential));
        let big = ssd.service_time(&IoOp::write(0, 1 << 20, Pattern::Sequential));
        assert!(
            big > small + 800 * MICROS,
            "1 MiB at ~1.1 GB/s takes ~950 us"
        );
    }
}
