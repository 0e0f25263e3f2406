//! The Infinity Cache: a memory-side, per-channel cache slice.
//!
//! Per the paper (Section IV.D): each of the 128 memory channels is paired
//! with a 2 MB slice (256 MB total); because the cache is on the *memory
//! side* of the fabric it does not participate in coherence; its job is
//! **bandwidth amplification** (up to 17 TB/s versus 5.3 TB/s of raw HBM)
//! plus a hardware prefetcher to shave latency.
//!
//! The slice is a classic set-associative write-back cache with true-LRU
//! replacement and a sequential stream prefetcher.

use ehp_sim_core::stats::Counter;
use ehp_sim_core::units::Bytes;

/// Outcome of a cache lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present (demand hit).
    Hit,
    /// Line present because the prefetcher brought it in earlier; counts
    /// as a hit for service latency but is reported separately.
    PrefetchedHit,
    /// Line absent; `writeback` carries the dirty victim address if one
    /// was evicted.
    Miss {
        /// Dirty victim line address that must be written back to HBM.
        writeback: Option<u64>,
    },
}

impl CacheOutcome {
    /// `true` if the access is served from the cache.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit | CacheOutcome::PrefetchedHit)
    }
}

/// Stream prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetcherConfig {
    /// Whether prefetching is enabled.
    pub enabled: bool,
    /// Lines fetched ahead on a detected sequential stream.
    pub degree: u32,
    /// Consecutive-line accesses needed before the stream trains.
    pub train_threshold: u32,
}

impl PrefetcherConfig {
    /// The MI300-style default: enabled, moderate depth.
    #[must_use]
    pub fn mi300() -> PrefetcherConfig {
        PrefetcherConfig {
            enabled: true,
            degree: 4,
            train_threshold: 2,
        }
    }

    /// Disabled prefetcher (ablation baseline).
    #[must_use]
    pub fn disabled() -> PrefetcherConfig {
        PrefetcherConfig {
            enabled: false,
            degree: 0,
            train_threshold: u32::MAX,
        }
    }
}

/// Per-line flag bit: the line holds data newer than HBM.
const DIRTY: u32 = 1;
/// Per-line flag bit: the line was filled by the prefetcher and has not
/// been demand-hit yet.
const PREFETCHED: u32 = 2;
/// Flag bits stored per slot.
const FLAG_BITS: usize = 2;
/// Slots whose flags share one `u32` word of the packed flag region.
const FLAGS_PER_WORD: usize = 32 / FLAG_BITS;

/// One Infinity Cache slice (per memory channel).
///
/// Addresses given to the slice are full physical addresses; the slice
/// indexes with line-granular bits above the line offset. Because the
/// interleaver already steered the address here, no channel bits need to
/// be stripped (they are constant within a slice and harmlessly join the
/// tag).
///
/// # Example
///
/// ```
/// use ehp_mem::icache::{InfinityCacheSlice, PrefetcherConfig, CacheOutcome};
/// use ehp_sim_core::units::Bytes;
///
/// let mut s = InfinityCacheSlice::new(Bytes::from_mib(2), 16, 128,
///                                     PrefetcherConfig::disabled());
/// assert!(!s.access(0x1000, false).is_hit()); // cold miss
/// assert!(s.access(0x1000, false).is_hit());  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct InfinityCacheSlice {
    /// All line state of the slice in one zero-initialised allocation,
    /// three regions back to back (`slots = sets × ways`; slot `i` of
    /// set `s` is `s * ways + i`):
    ///
    /// | region | words | contents |
    /// |--------|-------|----------|
    /// | lines  | `2 × slots` | per set, its `ways` tags from `2 * ways * s`, then their LRU stamps (larger = more recent) |
    /// | lengths | `sets` | live lines of set `s` at `len_base + s` (0..=ways) |
    /// | flags  | `slots / 16` rounded up | [`DIRTY`] / [`PREFETCHED`], 2 bits per slot |
    ///
    /// Only the first `len` slots of a set hold live lines. One flat
    /// buffer keeps construction to a single allocation per slice — a
    /// full MI300 socket holds 2048 of them, and replay benches build
    /// whole subsystems in their timed region. Each set's tags stay
    /// contiguous, so the tag scan is cache-dense (a 16-way set's tags
    /// are 64 B), and a hit's tag and stamp sit in the same 128 B span
    /// instead of a region apart. Within-set order is immaterial to behaviour: tags are unique per
    /// set and LRU stamps are globally unique, so lookup and victim
    /// selection are order-independent.
    ///
    /// Tags and stamps are deliberately `u32`: half the zeroed bytes at
    /// construction and twice the scan density. A 32-bit tag covers any
    /// address below `line_bytes << (32 + set_bits)` (≥ 2^45 B for the
    /// smallest modelled slice) and a 32-bit clock covers 4 G accesses
    /// to one slice; both bounds are asserted, not assumed.
    store: Vec<u32>,
    /// Start of the per-set length region in `store`.
    len_base: usize,
    /// Start of the packed flag region in `store`.
    flag_base: usize,
    ways: usize,
    line_bytes: u64,
    set_mask: u64,
    lru_clock: u32,
    pf: PrefetcherConfig,
    /// Last line index accessed (stream detector state).
    last_line: Option<u64>,
    stream_len: u32,
    hits: Counter,
    prefetch_hits: Counter,
    misses: Counter,
    writebacks: Counter,
    prefetch_issued: Counter,
}

impl InfinityCacheSlice {
    /// Creates a slice of the given capacity/associativity/line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `ways × line` sets, or set count not a power of two).
    #[must_use]
    pub fn new(
        capacity: Bytes,
        ways: usize,
        line_bytes: u64,
        pf: PrefetcherConfig,
    ) -> InfinityCacheSlice {
        assert!(ways > 0 && line_bytes.is_power_of_two());
        let lines = capacity.as_u64() / line_bytes;
        assert!(
            lines.is_multiple_of(ways as u64),
            "capacity must divide into whole sets"
        );
        let num_sets = lines / ways as u64;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        let slots = num_sets as usize * ways;
        let len_base = 2 * slots;
        let flag_base = len_base + num_sets as usize;
        InfinityCacheSlice {
            store: vec![0; flag_base + slots.div_ceil(FLAGS_PER_WORD)],
            len_base,
            flag_base,
            ways,
            line_bytes,
            set_mask: num_sets - 1,
            lru_clock: 0,
            pf,
            last_line: None,
            stream_len: 0,
            hits: Counter::new("icache_hits"),
            prefetch_hits: Counter::new("icache_prefetch_hits"),
            misses: Counter::new("icache_misses"),
            writebacks: Counter::new("icache_writebacks"),
            prefetch_issued: Counter::new("icache_prefetch_issued"),
        }
    }

    /// The MI300 per-channel slice: 2 MB, 16-way, 128 B lines.
    #[must_use]
    pub fn mi300(pf: PrefetcherConfig) -> InfinityCacheSlice {
        InfinityCacheSlice::new(Bytes::from_mib(2), 16, 128, pf)
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Live line count of set `set_idx`.
    fn set_len(&self, set_idx: usize) -> usize {
        self.store[self.len_base + set_idx] as usize
    }

    /// Index in `store` of set `set_idx`'s first tag; the set's LRU
    /// stamps follow at `+ ways`.
    fn set_base(&self, set_idx: usize) -> usize {
        2 * self.ways * set_idx
    }

    /// The live tags of set `set_idx`.
    fn live_tags(&self, set_idx: usize) -> &[u32] {
        let base = self.set_base(set_idx);
        &self.store[base..base + self.set_len(set_idx)]
    }

    /// The [`DIRTY`] / [`PREFETCHED`] bits of `slot`.
    fn flags(&self, slot: usize) -> u32 {
        let shift = FLAG_BITS * (slot % FLAGS_PER_WORD);
        (self.store[self.flag_base + slot / FLAGS_PER_WORD] >> shift) & (DIRTY | PREFETCHED)
    }

    /// Overwrites the [`DIRTY`] / [`PREFETCHED`] bits of `slot`.
    fn set_flags(&mut self, slot: usize, flags: u32) {
        let shift = FLAG_BITS * (slot % FLAGS_PER_WORD);
        let word = &mut self.store[self.flag_base + slot / FLAGS_PER_WORD];
        *word = (*word & !((DIRTY | PREFETCHED) << shift)) | (flags << shift);
    }

    /// The stored (32-bit) tag for a line index.
    ///
    /// # Panics
    ///
    /// Panics if the tag exceeds 32 bits — an address beyond the
    /// modelled physical space (≥ `line_bytes << (32 + set_bits)`).
    fn tag_of(&self, line: u64) -> u32 {
        let tag = line >> self.set_mask.trailing_ones();
        u32::try_from(tag).expect("address beyond the modelled physical space")
    }

    /// Advances the LRU clock and returns the fresh stamp; panics on
    /// 32-bit wraparound (4 G accesses to a single slice) rather than
    /// silently corrupting recency order.
    fn tick(&mut self) -> u32 {
        self.lru_clock = self.lru_clock.checked_add(1).expect("LRU clock overflow");
        self.lru_clock
    }

    /// Installs a line (demand fill or prefetch); returns the dirty victim
    /// address if one was evicted.
    fn install(&mut self, line: u64, dirty: bool, prefetched: bool) -> Option<u64> {
        let set_idx = self.set_of(line);
        let tag = self.tag_of(line);
        let stamp = self.tick();
        let ways = self.ways;
        let base = self.set_base(set_idx);
        let first_slot = set_idx * ways;
        let len = self.set_len(set_idx);

        if let Some(i) = self.live_tags(set_idx).iter().position(|&t| t == tag) {
            // Already present (e.g. racing prefetch): just update.
            let slot = first_slot + i;
            self.set_flags(slot, self.flags(slot) | (u32::from(dirty) * DIRTY));
            self.store[base + ways + i] = stamp;
            return None;
        }

        let mut victim_addr = None;
        let i = if len == ways {
            // Full set: overwrite the unique-minimum LRU slot in place.
            let vi = (0..len)
                .min_by_key(|&i| self.store[base + ways + i])
                .expect("full set");
            if self.flags(first_slot + vi) & DIRTY != 0 {
                self.writebacks.inc();
                let victim_line = (u64::from(self.store[base + vi])
                    << self.set_mask.trailing_ones())
                    | set_idx as u64;
                victim_addr = Some(victim_line * self.line_bytes);
            }
            vi
        } else {
            self.store[self.len_base + set_idx] = (len + 1) as u32;
            len
        };
        self.store[base + i] = tag;
        self.store[base + ways + i] = stamp;
        self.set_flags(
            first_slot + i,
            u32::from(dirty) * DIRTY + u32::from(prefetched) * PREFETCHED,
        );
        victim_addr
    }

    /// Runs the stream detector; returns whether the stream is trained
    /// (the caller then prefetches `degree` lines ahead of `line`).
    fn stream_trained(&mut self, line: u64) -> bool {
        if !self.pf.enabled {
            return false;
        }
        match self.last_line {
            Some(prev) if line == prev + 1 => self.stream_len += 1,
            Some(prev) if line == prev => {}
            _ => self.stream_len = 0,
        }
        self.last_line = Some(line);
        self.stream_len >= self.pf.train_threshold
    }

    /// Looks up `addr`, updating replacement and dirty state.
    ///
    /// Returns the outcome plus the list of prefetch addresses the stream
    /// prefetcher wants fetched (the caller charges those to HBM
    /// bandwidth and installs them via [`InfinityCacheSlice::fill_prefetch`]).
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        let line = self.line_of(addr);
        let set_idx = self.set_of(line);
        let tag = self.tag_of(line);

        if let Some(i) = self.live_tags(set_idx).iter().position(|&t| t == tag) {
            let slot = set_idx * self.ways + i;
            let flags = self.flags(slot);
            let was_prefetched = flags & PREFETCHED != 0;
            self.set_flags(slot, (flags | (u32::from(is_write) * DIRTY)) & !PREFETCHED);
            let stamp_at = self.set_base(set_idx) + self.ways + i;
            self.store[stamp_at] = self.tick();
            if was_prefetched {
                self.prefetch_hits.inc();
                return CacheOutcome::PrefetchedHit;
            }
            self.hits.inc();
            return CacheOutcome::Hit;
        }

        self.misses.inc();
        let writeback = self.install(line, is_write, false);
        CacheOutcome::Miss { writeback }
    }

    /// Returns prefetch addresses triggered by an access at `addr`.
    /// Call after [`InfinityCacheSlice::access`]; separated so callers can
    /// decide whether to act on them.
    pub fn take_prefetches(&mut self, addr: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.take_prefetches_into(addr, &mut out);
        out
    }

    /// Allocation-free variant of [`InfinityCacheSlice::take_prefetches`]:
    /// clears `out` and appends the prefetch addresses. Replay hot paths
    /// pass a reused scratch buffer so steady-state replay performs no
    /// per-access allocation.
    pub fn take_prefetches_into(&mut self, addr: u64, out: &mut Vec<u64>) {
        // lint:hot-path
        out.clear();
        let line = self.line_of(addr);
        if !self.stream_trained(line) {
            return;
        }
        for d in 1..=u64::from(self.pf.degree) {
            let l = line + d;
            let set_idx = self.set_of(l);
            let tag = self.tag_of(l);
            if !self.live_tags(set_idx).contains(&tag) {
                out.push(l * self.line_bytes);
            }
        }
        // lint:hot-path-end
    }

    /// Installs a prefetched line; returns dirty victim address if any.
    pub fn fill_prefetch(&mut self, addr: u64) -> Option<u64> {
        self.prefetch_issued.inc();
        let line = self.line_of(addr);
        self.install(line, false, true)
    }

    /// Demand hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.value()
    }

    /// Hits on prefetched lines.
    #[must_use]
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits.value()
    }

    /// Misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.value()
    }

    /// Dirty evictions written back to HBM.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.writebacks.value()
    }

    /// Prefetch fills issued.
    #[must_use]
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetch_issued.value()
    }

    /// Overall hit rate including prefetched hits; `None` before any
    /// access.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits.value() + self.prefetch_hits.value() + self.misses.value();
        (total > 0).then(|| (self.hits.value() + self.prefetch_hits.value()) as f64 / total as f64)
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of resident lines (for tests/diagnostics).
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.store[self.len_base..self.flag_base]
            .iter()
            .map(|&l| l as usize)
            .sum()
    }

    /// Number of sets (for tests/diagnostics).
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.flag_base - self.len_base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice() -> InfinityCacheSlice {
        InfinityCacheSlice::new(Bytes::from_kib(64), 4, 128, PrefetcherConfig::disabled())
    }

    #[test]
    fn mi300_geometry() {
        let s = InfinityCacheSlice::mi300(PrefetcherConfig::mi300());
        // 2 MiB / 128 B / 16 ways = 1024 sets.
        assert_eq!(s.num_sets(), 1024);
        assert_eq!(s.line_bytes(), 128);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut s = slice();
        assert!(matches!(s.access(0x1000, false), CacheOutcome::Miss { .. }));
        assert_eq!(s.access(0x1000, false), CacheOutcome::Hit);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut s = slice();
        s.access(0x1000, false);
        assert!(s.access(0x1040, false).is_hit(), "same 128 B line");
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut s = slice(); // 4-way, 128 sets
        let num_sets = s.num_sets() as u64;
        let stride = 128 * num_sets; // same set each time
        for i in 0..4 {
            s.access(i * stride, false);
        }
        // Touch line 0 so line 1 becomes LRU.
        s.access(0, false);
        // Insert a 5th line -> evicts line 1.
        s.access(4 * stride, false);
        assert!(s.access(0, false).is_hit(), "recently used survives");
        assert!(!s.access(stride, false).is_hit(), "LRU victim was evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut s = slice();
        let num_sets = s.num_sets() as u64;
        let stride = 128 * num_sets;
        s.access(0, true); // dirty line
        for i in 1..4 {
            s.access(i * stride, false);
        }
        // Evict the dirty line.
        match s.access(4 * stride, false) {
            CacheOutcome::Miss { writeback: Some(a) } => assert_eq!(a, 0),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
        assert_eq!(s.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut s = slice();
        let num_sets = s.num_sets() as u64;
        let stride = 128 * num_sets;
        for i in 0..5 {
            match s.access(i * stride, false) {
                CacheOutcome::Miss { writeback } => assert_eq!(writeback, None),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut s = slice();
        let num_sets = s.num_sets() as u64;
        let stride = 128 * num_sets;
        s.access(0, false); // clean fill
        s.access(0, true); // dirty it via write hit
        for i in 1..5 {
            s.access(i * stride, false);
        }
        assert_eq!(s.writebacks(), 1);
    }

    #[test]
    fn stream_prefetcher_trains_and_hits() {
        let mut s = InfinityCacheSlice::new(Bytes::from_kib(64), 4, 128, PrefetcherConfig::mi300());
        // Walk sequential lines; after training, later lines should be
        // prefetched hits.
        let mut prefetched_hits = 0;
        for i in 0..64u64 {
            let addr = i * 128;
            let out = s.access(addr, false);
            if out == CacheOutcome::PrefetchedHit {
                prefetched_hits += 1;
            }
            for pa in s.take_prefetches(addr) {
                s.fill_prefetch(pa);
            }
        }
        assert!(
            prefetched_hits > 40,
            "got {prefetched_hits} prefetched hits"
        );
        assert!(s.prefetches_issued() > 0);
    }

    #[test]
    fn packed_flags_stay_per_slot() {
        // Dirty every other line of a full slice (512 slots, 32 packed
        // flag words), then evict all of it: exactly the dirty lines
        // write back, each under its own address.
        let mut s = slice();
        let lines = s.num_sets() as u64 * 4;
        for l in 0..lines {
            s.access(l * 128, l % 2 == 1);
        }
        assert_eq!(s.resident_lines(), 512);
        let mut written_back = Vec::new();
        for l in lines..2 * lines {
            if let CacheOutcome::Miss {
                writeback: Some(addr),
            } = s.access(l * 128, false)
            {
                written_back.push(addr);
            }
        }
        written_back.sort_unstable();
        let dirty: Vec<u64> = (0..lines).filter(|l| l % 2 == 1).map(|l| l * 128).collect();
        assert_eq!(written_back, dirty);
        assert_eq!(s.writebacks(), lines / 2);
    }

    #[test]
    fn disabled_prefetcher_issues_nothing() {
        let mut s = slice();
        for i in 0..32u64 {
            s.access(i * 128, false);
            assert!(s.take_prefetches(i * 128).is_empty());
        }
    }

    #[test]
    fn random_stream_does_not_train() {
        let mut s = InfinityCacheSlice::new(Bytes::from_kib(64), 4, 128, PrefetcherConfig::mi300());
        let mut rng = ehp_sim_core::rng::SplitMix64::new(1);
        let mut issued = 0;
        for _ in 0..256 {
            let addr = rng.next_below(1 << 30) & !127;
            s.access(addr, false);
            issued += s.take_prefetches(addr).len();
        }
        // Random lines almost never form length-2 sequential runs.
        assert!(issued <= 8, "random stream issued {issued} prefetches");
    }

    #[test]
    fn hit_rate_reporting() {
        let mut s = slice();
        assert_eq!(s.hit_rate(), None);
        s.access(0, false);
        s.access(0, false);
        assert!((s.hit_rate().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_bounded() {
        let mut s = slice(); // 64 KiB / 128 B = 512 lines max
        for i in 0..10_000u64 {
            s.access(i * 128, false);
        }
        assert!(s.resident_lines() <= 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = InfinityCacheSlice::new(Bytes(3 * 128 * 4), 4, 128, PrefetcherConfig::disabled());
    }
}
