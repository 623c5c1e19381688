//! Local filesystem: a page cache in front of a block device.
//!
//! This is the ext4-on-SSD / tmpfs mount that DataNodes and shuffle stores
//! sit on. The write-back page cache is what makes the paper's Fig 8a
//! plateau: up to ~600 GB of aggregate intermediate data, "using SSD ...
//! achieves comparable performance as RAMDisk due to the caching effects
//! from the file system"; past the cache capacity, writes hit the device.
//!
//! Model summary:
//! * Writes that fit in free cache complete at memory speed and are flushed
//!   to the device in the background (one in-flight flush chunk at a time).
//! * Writes that do not fit go write-through, at device speed, competing
//!   with the flusher and any reads.
//! * Reads are served at memory speed for the resident fraction of a file
//!   and at device speed for the rest; files are evicted clean-first, LRU.

// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::device::{Device, IoDone, Op};
use memres_des::ps::PsResource;
use memres_des::sim::Gen;
use memres_des::time::SimTime;
use memres_des::Bytes;
use std::collections::{BTreeMap, VecDeque};

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// Completed filesystem operation (user-visible).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FsDone {
    pub tag: u64,
    pub op: Op,
}

#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Page-cache capacity in bytes (Hyperion: tens of GB of the 64 GB DRAM).
    pub capacity: f64,
    /// Memory copy bandwidth for cache hits.
    pub mem_bw: f64,
    /// Flush chunk granularity.
    pub flush_chunk: f64,
}

impl CacheConfig {
    pub fn hyperion() -> Self {
        const GB: f64 = 1024.0 * 1024.0 * 1024.0;
        CacheConfig {
            capacity: 20.0 * GB,
            mem_bw: 3.0 * GB,
            flush_chunk: 64.0 * 1024.0 * 1024.0,
        }
    }
}

#[derive(Default)]
struct CachedFile {
    resident: f64,
    dirty: f64,
}

struct PageCache {
    cfg: CacheConfig,
    /// The files with cached pages, least recently used first: the one
    /// record of a file is its place in the LRU.
    files: VecDeque<(FileId, CachedFile)>,
    resident_total: f64,
    dirty_total: f64,
    /// FIFO of dirty segments awaiting flush.
    flush_queue: VecDeque<(FileId, f64)>,
    /// In-flight flush: (file, bytes) under the internal device tag.
    flush_inflight: Option<(FileId, f64)>,
}

impl PageCache {
    fn new(cfg: CacheConfig) -> Self {
        PageCache {
            cfg,
            files: VecDeque::new(),
            resident_total: 0.0,
            dirty_total: 0.0,
            flush_queue: VecDeque::new(),
            flush_inflight: None,
        }
    }

    /// Take `file`'s record out of the LRU, if it has pages cached.
    fn take(&mut self, file: FileId) -> Option<(FileId, CachedFile)> {
        let pos = self.files.iter().position(|(f, _)| *f == file)?;
        self.files.remove(pos)
    }

    /// Move `file` to the young end of the LRU. A file with nothing resident
    /// (written through, or evicted since) has no place in it.
    fn touch(&mut self, file: FileId) {
        if let Some(entry) = self.take(file) {
            self.files.push_back(entry);
        }
    }

    /// Evict clean bytes (LRU) until `needed` bytes are free, best-effort.
    fn evict_for(&mut self, needed: f64) {
        let mut i = 0;
        while self.cfg.capacity - self.resident_total < needed && i < self.files.len() {
            let (_, f) = &mut self.files[i];
            let clean = (f.resident - f.dirty).max(0.0);
            let take = clean.min(needed - (self.cfg.capacity - self.resident_total));
            if take > 0.0 {
                f.resident -= take;
                self.resident_total -= take;
            }
            if f.resident <= 1e-6 && f.dirty <= 1e-6 {
                self.files.remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn free(&self) -> f64 {
        self.cfg.capacity - self.resident_total
    }

    fn resident_of(&self, file: FileId) -> f64 {
        let found = self.files.iter().find(|(f, _)| *f == file);
        found.map_or(0.0, |(_, c)| c.resident)
    }

    fn absorb_write(&mut self, file: FileId, bytes: f64) {
        let (_, mut f) = self.take(file).unwrap_or((file, CachedFile::default()));
        f.resident += bytes;
        f.dirty += bytes;
        self.files.push_back((file, f));
        self.resident_total += bytes;
        self.dirty_total += bytes;
        self.flush_queue.push_back((file, bytes));
    }

    fn drop_file(&mut self, file: FileId) {
        if let Some((_, f)) = self.take(file) {
            self.resident_total -= f.resident;
            self.dirty_total -= f.dirty;
        }
        self.flush_queue.retain(|&(fid, _)| fid != file);
        // An in-flight flush for the file is left to finish harmlessly.
    }
}

/// Device tag → sub-operation. Tags are minted in order, so the ledger is
/// the run of slots from `base`, the oldest tag still outstanding (the next
/// to mint when none is): a completion empties its slot and the empty slots
/// at the front go, so the length is bounded by the ops submitted since the
/// oldest outstanding one.
struct Ledger<T> {
    slots: VecDeque<Option<T>>,
    base: u64,
}

impl<T> Ledger<T> {
    fn new() -> Self {
        Ledger {
            slots: VecDeque::new(),
            base: 0,
        }
    }

    /// Record `op` under the next tag, which is returned.
    fn mint(&mut self, op: T) -> u64 {
        self.slots.push_back(Some(op));
        self.base + self.slots.len() as u64 - 1
    }

    /// Take the op recorded under `tag`: `None` if it was never minted or
    /// was taken already.
    fn take(&mut self, tag: u64) -> Option<T> {
        let slot = usize::try_from(tag.checked_sub(self.base)?).ok()?;
        let op = self.slots.get_mut(slot)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        op
    }

    /// The outstanding ops, oldest first.
    fn live(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

enum SubOp {
    /// Whole user write that went write-through on the device.
    UserWrite { tag: u64 },
    /// Device part of a user read; may be joined with a mem part.
    UserReadPart { tag: u64 },
    /// Background flush chunk.
    Flush,
}

/// A local filesystem mount on one node.
pub struct LocalFs {
    device: Box<dyn Device>,
    cache: Option<PageCache>,
    /// Memory-speed channel for cache hits/absorbed writes.
    mem: PsResource<(u64, Op)>,
    capacity: f64,
    used: f64,
    files: BTreeMap<FileId, f64>,
    /// Device-tag -> suboperation bookkeeping.
    subs: Ledger<SubOp>,
    /// user read tag -> outstanding part count.
    read_join: BTreeMap<u64, u8>,
    done: Vec<FsDone>,
    gen: Gen,
}

impl LocalFs {
    pub fn new(device: Box<dyn Device>, capacity: f64, cache: Option<CacheConfig>) -> Self {
        let mem_bw = cache.as_ref().map(|c| c.mem_bw).unwrap_or(1.0);
        LocalFs {
            device,
            cache: cache.map(PageCache::new),
            mem: PsResource::new(mem_bw),
            capacity,
            used: 0.0,
            files: BTreeMap::new(),
            subs: Ledger::new(),
            read_join: BTreeMap::new(),
            done: Vec::new(),
            gen: Gen::default(),
        }
    }

    pub fn used(&self) -> f64 {
        self.used
    }

    pub fn free(&self) -> f64 {
        self.capacity - self.used
    }

    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Page-cache capacity of this mount in bytes ([`CacheConfig::capacity`]);
    /// 0 for a mount without one.
    pub fn page_cache_capacity(&self) -> f64 {
        self.cache.as_ref().map_or(0.0, |c| c.cfg.capacity)
    }

    pub fn file_size(&self, file: FileId) -> Option<f64> {
        self.files.get(&file).copied()
    }

    pub fn device(&self) -> &dyn Device {
        self.device.as_ref()
    }

    /// In-flight request count at the device (congestion signal for CAD).
    pub fn device_queue_depth(&self) -> usize {
        self.device.queue_depth()
    }

    /// Append `bytes` to `file`. Completion arrives via [`LocalFs::poll`].
    ///
    /// Capacity is enforced: writes beyond capacity panic, because callers
    /// (HDFS placement, shuffle store) are expected to check `free()` first —
    /// matching the paper's observation that RAMDisk-backed HDFS simply
    /// cannot host more than ~1.2 TB of intermediate data.
    pub fn write(&mut self, now: SimTime, file: FileId, bytes: Bytes, tag: u64) {
        let bytes = bytes.get();
        assert!(bytes >= 0.0);
        assert!(
            self.used + bytes <= self.capacity * (1.0 + 1e-9),
            "LocalFs over capacity: used={} + {} > {}",
            self.used,
            bytes,
            self.capacity
        );
        self.used += bytes;
        *self.files.entry(file).or_insert(0.0) += bytes;
        self.gen.bump();
        match &mut self.cache {
            Some(cache) => {
                cache.evict_for(bytes);
                if cache.free() >= bytes {
                    cache.absorb_write(file, bytes);
                    self.mem.add(now, bytes, (tag, Op::Write));
                    self.kick_flusher(now);
                } else {
                    // Write-through under cache pressure.
                    let st = self.subs.mint(SubOp::UserWrite { tag });
                    self.device.submit(now, Op::Write, bytes, st);
                }
            }
            None => {
                let st = self.subs.mint(SubOp::UserWrite { tag });
                self.device.submit(now, Op::Write, bytes, st);
            }
        }
    }

    /// Read `bytes` of `file` (must exist with at least that many bytes).
    pub fn read(&mut self, now: SimTime, file: FileId, bytes: Bytes, tag: u64) {
        let bytes = bytes.get();
        assert!(bytes >= 0.0);
        let size = self.files.get(&file).copied().unwrap_or(0.0);
        assert!(
            bytes <= size * (1.0 + 1e-9) + 1.0,
            "read past EOF: {bytes} of {size} in {file:?}"
        );
        self.gen.bump();
        let hit = match &mut self.cache {
            Some(cache) => {
                let h = cache.resident_of(file).min(bytes);
                cache.touch(file);
                h
            }
            None => 0.0,
        };
        let miss = bytes - hit;
        let mut parts = 0u8;
        if hit > 0.0 || miss == 0.0 {
            self.mem.add(now, hit, (tag, Op::Read));
            parts += 1;
        }
        if miss > 0.0 {
            let st = self.subs.mint(SubOp::UserReadPart { tag });
            self.device.submit(now, Op::Read, miss, st);
            parts += 1;
        }
        self.read_join.insert(tag, parts);
    }

    /// Register a pre-existing file instantly (no simulated I/O): used to
    /// lay out input datasets before a run. Not cache-resident.
    pub fn preload(&mut self, file: FileId, bytes: Bytes) {
        let bytes = bytes.get();
        assert!(bytes >= 0.0);
        assert!(
            self.used + bytes <= self.capacity * (1.0 + 1e-9),
            "preload over capacity"
        );
        self.used += bytes;
        *self.files.entry(file).or_insert(0.0) += bytes;
    }

    /// Remove a file, freeing space and cache residency instantly.
    pub fn delete(&mut self, file: FileId) {
        if let Some(size) = self.files.remove(&file) {
            self.used -= size;
            if let Some(cache) = &mut self.cache {
                cache.drop_file(file);
            }
            self.gen.bump();
        }
    }

    /// Drop the last `bytes` of `file` — the abandoned output of a failed
    /// writer. Frees capacity; any cache residency beyond the new size is a
    /// small, harmless overstatement (pages of the dropped tail linger until
    /// evicted).
    pub fn truncate(&mut self, file: FileId, bytes: Bytes) {
        let bytes = bytes.get();
        if let Some(size) = self.files.get_mut(&file) {
            let take = bytes.min(*size);
            *size -= take;
            self.used -= take;
            if *size <= 1e-6 {
                self.files.remove(&file);
                if let Some(cache) = &mut self.cache {
                    cache.drop_file(file);
                }
            }
            self.gen.bump();
        }
    }

    /// Attach a trace sink to the backing device, stamping its events with
    /// `node` (no-op for devices without traceable internal transitions).
    pub fn set_tracer(&mut self, node: u32, sink: memres_trace::SharedSink) {
        self.device.set_tracer(node, sink);
    }

    /// Fault-injection hook: permanently scale the backing device's
    /// bandwidth by `factor` (see [`Device::degrade`]).
    pub fn degrade_device(&mut self, now: SimTime, factor: f64) {
        self.device.degrade(now, factor);
        self.gen.bump();
    }

    fn kick_flusher(&mut self, now: SimTime) {
        let Some(cache) = &mut self.cache else { return };
        if cache.flush_inflight.is_some() {
            return;
        }
        // Coalesce queued dirty segments up to the flush chunk size.
        let mut chunk = 0.0;
        let mut file = None;
        while chunk < cache.cfg.flush_chunk {
            let Some(head) = cache.flush_queue.front_mut() else {
                break;
            };
            let (f, b) = *head;
            if file.is_some() && file != Some(f) {
                break;
            }
            file = Some(f);
            let room = cache.cfg.flush_chunk - chunk;
            if b <= room {
                chunk += b;
                cache.flush_queue.pop_front();
            } else {
                chunk += room;
                head.1 -= room;
            }
        }
        if let Some(f) = file {
            cache.flush_inflight = Some((f, chunk));
            let st = self.subs.mint(SubOp::Flush);
            self.device.submit(now, Op::Write, chunk, st);
        }
    }

    /// Advance to `now`, returning completed user operations.
    pub fn poll(&mut self, now: SimTime) -> Vec<FsDone> {
        // Memory-speed completions.
        for (_, (tag, op)) in self.mem.poll(now) {
            match op {
                Op::Write => self.done.push(FsDone { tag, op: Op::Write }),
                Op::Read => self.finish_read_part(tag),
            }
        }
        // Device completions.
        let io: Vec<IoDone> = self.device.poll(now);
        for d in io {
            match self.subs.take(d.tag) {
                Some(SubOp::UserWrite { tag }) => self.done.push(FsDone { tag, op: Op::Write }),
                Some(SubOp::UserReadPart { tag }) => self.finish_read_part(tag),
                Some(SubOp::Flush) => {
                    if let Some(cache) = &mut self.cache {
                        if let Some((file, bytes)) = cache.flush_inflight.take() {
                            cache.dirty_total = (cache.dirty_total - bytes).max(0.0);
                            let mut files = cache.files.iter_mut();
                            if let Some((_, f)) = files.find(|(id, _)| *id == file) {
                                f.dirty = (f.dirty - bytes).max(0.0);
                            }
                        }
                    }
                    self.kick_flusher(now);
                }
                #[expect(
                    clippy::panic,
                    reason = "the device completes each tag once, and only tags the ledger minted when they were submitted, so the slot is still live"
                )]
                None => panic!("device completion for unknown sub-op {}", d.tag),
            }
        }
        if !self.done.is_empty() {
            self.gen.bump();
        }
        std::mem::take(&mut self.done)
    }

    fn finish_read_part(&mut self, tag: u64) {
        #[expect(
            clippy::expect_used,
            reason = "read() records a tag's part count as it submits the parts, and it leaves only at zero; in-flight read tags are distinct (the caller's contract)"
        )]
        let remaining = self.read_join.get_mut(&tag).expect("read join missing");
        *remaining -= 1;
        if *remaining == 0 {
            self.read_join.remove(&tag);
            self.done.push(FsDone { tag, op: Op::Read });
        }
    }

    pub fn next_event(&self) -> Option<SimTime> {
        let a = self.mem.next_completion();
        let b = self.device.next_event();
        match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        }
    }

    pub fn gen(&self) -> Gen {
        self.gen
    }

    /// Quiescence audit (DESIGN.md §4.13): with no job resident the memory
    /// channel holds no request and no undelivered completion, no user
    /// operation is outstanding, and the device carries nothing but the page
    /// cache's own write-back.
    pub fn audit_idle(&self) -> Result<(), String> {
        let is_flush = |s: &&SubOp| matches!(s, SubOp::Flush);
        let flushing = self.subs.live().filter(is_flush).count();
        let (mem, dev) = (self.mem.load(), self.device.queue_depth());
        let users = self.subs.live().count() - flushing + self.read_join.len() + self.done.len();
        if mem == 0 && self.mem.next_completion().is_none() && users == 0 && dev == flushing {
            return Ok(());
        }
        Err(format!(
            "{mem} memory and {dev} device requests ({flushing} write-back), {users} user operations"
        ))
    }

    /// Cache-resident bytes of a file (test/diagnostic hook).
    pub fn cached_bytes(&self, file: FileId) -> f64 {
        self.cache.as_ref().map_or(0.0, |c| c.resident_of(file))
    }

    pub fn dirty_bytes(&self) -> f64 {
        self.cache.as_ref().map_or(0.0, |c| c.dirty_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::RamDisk;
    use crate::ssd::{Ssd, SsdConfig};

    fn run_until_tag(fs: &mut LocalFs, want: u64) -> SimTime {
        loop {
            let t = fs.next_event().expect("fs went idle before completion");
            if fs.poll(t).iter().any(|d| d.tag == want) {
                return t;
            }
        }
    }

    fn ssd_fs(cache: Option<CacheConfig>) -> LocalFs {
        LocalFs::new(Box::new(Ssd::new(SsdConfig::test_small())), 1e9, cache)
    }

    fn small_cache() -> CacheConfig {
        CacheConfig {
            capacity: 100.0,
            mem_bw: 10_000.0,
            flush_chunk: 25.0,
        }
    }

    #[test]
    fn cached_write_is_memory_speed() {
        let mut fs = ssd_fs(Some(small_cache()));
        assert_eq!(fs.page_cache_capacity(), 100.0);
        fs.write(SimTime::ZERO, FileId(1), Bytes(50.0), 1);
        let t = run_until_tag(&mut fs, 1);
        // 50 bytes at mem_bw 10_000/s: ~5ms, far faster than device 100/s.
        assert!(t.as_secs_f64() < 0.05, "took {t}");
        assert_eq!(fs.used(), 50.0);
    }

    #[test]
    fn overflow_write_hits_device() {
        let mut fs = ssd_fs(Some(small_cache()));
        // Fill the cache with dirty data (cannot be evicted until flushed).
        fs.write(SimTime::ZERO, FileId(1), Bytes(100.0), 1);
        fs.write(SimTime::ZERO, FileId(2), Bytes(100.0), 2);
        let t = run_until_tag(&mut fs, 2);
        // The second write must go through the device (100 bytes competing
        // with the flusher at ~100-400/s): decidedly slower than memory speed.
        assert!(t.as_secs_f64() > 0.2, "took {t}");
    }

    #[test]
    fn read_of_a_written_through_file_leaves_no_lru_entry_to_evict() {
        // File 2 goes to the device and holds no cache pages; reading it must
        // not enter it in the LRU, or the eviction walk of the next write
        // meets an entry with nothing behind it (a panic until PR 24).
        let mut fs = ssd_fs(Some(small_cache()));
        let t = SimTime::ZERO;
        fs.write(t, FileId(1), Bytes(100.0), 1);
        fs.write(t, FileId(2), Bytes(100.0), 2);
        fs.read(t, FileId(2), Bytes(100.0), 3);
        fs.write(t, FileId(3), Bytes(100.0), 4);
        run_until_tag(&mut fs, 4);
    }

    #[test]
    fn read_of_cached_file_is_fast() {
        let mut fs = ssd_fs(Some(small_cache()));
        fs.write(SimTime::ZERO, FileId(1), Bytes(50.0), 1);
        let t1 = run_until_tag(&mut fs, 1);
        fs.read(t1, FileId(1), Bytes(50.0), 2);
        let t2 = run_until_tag(&mut fs, 2);
        assert!(
            t2.since(t1).as_secs_f64() < 0.05,
            "read took {}",
            t2.since(t1)
        );
    }

    #[test]
    fn read_of_evicted_file_hits_device() {
        let mut fs = LocalFs::new(
            Box::new(RamDisk::new(100.0, 100.0)),
            1e9,
            Some(small_cache()),
        );
        fs.write(SimTime::ZERO, FileId(1), Bytes(80.0), 1);
        let t1 = run_until_tag(&mut fs, 1);
        // Let the flusher clean file 1, then write file 2 to evict it.
        let mut now = t1;
        while fs.dirty_bytes() > 0.0 {
            let t = fs.next_event().unwrap();
            fs.poll(t);
            now = t;
        }
        fs.write(now, FileId(2), Bytes(90.0), 2);
        let t2 = run_until_tag(&mut fs, 2);
        assert!(
            fs.cached_bytes(FileId(1)) < 80.0,
            "file1 should be (partly) evicted"
        );
        fs.read(t2, FileId(1), Bytes(80.0), 3);
        let t3 = run_until_tag(&mut fs, 3);
        // Mostly device speed (100 B/s): takes ~0.7s+.
        assert!(
            t3.since(t2).as_secs_f64() > 0.5,
            "read took {}",
            t3.since(t2)
        );
    }

    #[test]
    fn no_cache_means_device_speed_writes() {
        let mut fs = LocalFs::new(Box::new(RamDisk::new(100.0, 100.0)), 1e9, None);
        assert_eq!(fs.page_cache_capacity(), 0.0);
        fs.write(SimTime::ZERO, FileId(1), Bytes(100.0), 7);
        let t = run_until_tag(&mut fs, 7);
        assert!((t.as_secs_f64() - 1.0).abs() < 0.01);
    }

    #[test]
    fn delete_frees_space() {
        let mut fs = LocalFs::new(Box::new(RamDisk::new(100.0, 100.0)), 150.0, None);
        fs.write(SimTime::ZERO, FileId(1), Bytes(100.0), 1);
        run_until_tag(&mut fs, 1);
        assert_eq!(fs.free(), 50.0);
        fs.delete(FileId(1));
        assert_eq!(fs.free(), 150.0);
        assert_eq!(fs.file_size(FileId(1)), None);
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn capacity_is_enforced() {
        let mut fs = LocalFs::new(Box::new(RamDisk::new(100.0, 100.0)), 10.0, None);
        fs.write(SimTime::ZERO, FileId(1), Bytes(11.0), 1);
    }

    #[test]
    fn flusher_drains_dirty_data() {
        let mut fs = ssd_fs(Some(small_cache()));
        fs.write(SimTime::ZERO, FileId(1), Bytes(100.0), 1);
        run_until_tag(&mut fs, 1);
        assert!(fs.dirty_bytes() > 0.0);
        while let Some(t) = fs.next_event() {
            fs.poll(t);
            if fs.dirty_bytes() == 0.0 {
                break;
            }
        }
        assert_eq!(fs.dirty_bytes(), 0.0);
    }

    #[test]
    fn truncate_frees_partial_capacity() {
        let mut fs = LocalFs::new(Box::new(RamDisk::new(100.0, 100.0)), 150.0, None);
        fs.write(SimTime::ZERO, FileId(1), Bytes(100.0), 1);
        run_until_tag(&mut fs, 1);
        fs.truncate(FileId(1), Bytes(30.0));
        assert_eq!(fs.free(), 80.0);
        assert_eq!(fs.file_size(FileId(1)), Some(70.0));
        // Truncating everything removes the file.
        fs.truncate(FileId(1), Bytes(1e9));
        assert_eq!(fs.free(), 150.0);
        assert_eq!(fs.file_size(FileId(1)), None);
        // Truncating a missing file is a no-op.
        fs.truncate(FileId(9), Bytes(10.0));
        assert_eq!(fs.free(), 150.0);
    }

    #[test]
    fn degrade_device_slows_uncached_writes() {
        let mut fs = LocalFs::new(Box::new(Ssd::new(SsdConfig::test_small())), 1e9, None);
        fs.degrade_device(SimTime::ZERO, 0.25);
        // 40 bytes at a quarter of the 400/s accept rate: ~0.4 s.
        fs.write(SimTime::ZERO, FileId(1), Bytes(40.0), 1);
        let t = run_until_tag(&mut fs, 1);
        assert!(t.as_secs_f64() > 0.3, "took {t}");
    }

    #[test]
    fn zero_byte_read_completes() {
        let mut fs = LocalFs::new(Box::new(RamDisk::new(100.0, 100.0)), 1e9, None);
        fs.write(SimTime::ZERO, FileId(1), Bytes(10.0), 1);
        run_until_tag(&mut fs, 1);
        fs.read(SimTime::from_secs_f64(1.0), FileId(1), Bytes(0.0), 2);
        run_until_tag(&mut fs, 2);
    }

    mod ledger {
        use super::super::Ledger;
        use proptest::prelude::*;
        use proptest::sample::Index;
        use std::collections::BTreeMap;

        /// After every step the ledger holds what the model holds, oldest
        /// first, in exactly the slots from the oldest outstanding tag to
        /// the next to mint.
        fn agrees(ledger: &Ledger<u64>, model: &BTreeMap<u64, u64>, next: u64) -> bool {
            let oldest = model.keys().next().copied().unwrap_or(next);
            ledger.live().eq(model.values()) && ledger.slots.len() as u64 == next - oldest
        }

        proptest! {
            /// Submits and completions in any order: step 0 mints, 1 takes
            /// an outstanding tag, 2 takes any tag up to two past the next
            /// (never minted, or taken already, reads `None` like the
            /// model); then every op still outstanding completes.
            #[test]
            fn ledger_matches_a_btreemap(
                steps in proptest::collection::vec((0u8..3, any::<Index>()), 1..300),
                drain in proptest::collection::vec(any::<Index>(), 300),
            ) {
                let (mut ledger, mut model, mut next) = (Ledger::new(), BTreeMap::new(), 0u64);
                for (i, (kind, pick)) in steps.into_iter().enumerate() {
                    let op = i as u64 * 7;
                    match kind {
                        0 => {
                            prop_assert_eq!(ledger.mint(op), next);
                            model.insert(next, op);
                            next += 1;
                        }
                        1 if !model.is_empty() => {
                            let tag = *model.keys().nth(pick.index(model.len())).unwrap();
                            prop_assert_eq!(ledger.take(tag), model.remove(&tag));
                        }
                        _ => {
                            let tag = pick.index(next as usize + 2) as u64;
                            prop_assert_eq!(ledger.take(tag), model.remove(&tag));
                        }
                    }
                    prop_assert!(agrees(&ledger, &model, next), "{model:?} vs {:?}", ledger.slots);
                }
                for pick in drain {
                    if model.is_empty() {
                        break;
                    }
                    let tag = *model.keys().nth(pick.index(model.len())).unwrap();
                    prop_assert_eq!(ledger.take(tag), model.remove(&tag));
                    prop_assert!(agrees(&ledger, &model, next), "{model:?} vs {:?}", ledger.slots);
                }
                prop_assert!(ledger.slots.is_empty() && ledger.base == next);
            }
        }
    }
}
