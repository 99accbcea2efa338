//! The set-associative cache structure.

use super::placement::window_rotation;
use super::{PlacementPolicy, ReplacementPolicy};
use crate::addr::Addr;
use proxima_prng::RandomSource;

/// Geometry and policies of one cache.
///
/// The paper's IL1 and DL1 are 16 KB, 4-way, and this crate defaults to
/// 32-byte lines (the LEON3 line size), giving 128 sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (number of ways).
    pub ways: u64,
    /// Line size in bytes.
    pub line_size: u64,
    /// Index-generation policy.
    pub placement: PlacementPolicy,
    /// Victim-selection policy.
    pub replacement: ReplacementPolicy,
    /// Whether a store miss allocates the line (`false` for the LEON3 DL1,
    /// which is write-through **no-write-allocate**).
    pub allocate_on_write: bool,
}

impl CacheConfig {
    /// The paper's 16 KB 4-way L1 geometry with the given policies.
    pub fn leon3_l1(placement: PlacementPolicy, replacement: ReplacementPolicy) -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_size: 32,
            placement,
            replacement,
            allocate_on_write: false,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (line size or set count not
    /// a power of two).
    pub fn n_sets(&self) -> u64 {
        assert!(
            self.line_size.is_power_of_two(),
            "cache line size must be a power of two, got {}",
            self.line_size
        );
        let sets = self.size_bytes / (self.ways * self.line_size);
        assert!(
            sets.is_power_of_two() && sets > 0,
            "cache geometry must give a power-of-two set count, got {sets}"
        );
        sets
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::leon3_l1(PlacementPolicy::default(), ReplacementPolicy::default())
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; `allocated` says whether it was brought in.
    Miss {
        /// Whether the line was allocated into the cache.
        allocated: bool,
    },
}

impl AccessOutcome {
    /// `true` for [`AccessOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total number of accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; 0 if there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// Entries of the per-run random-modulo rotation memo.
const ROTATION_MEMO: usize = 64;
/// log2 of the entries of the line → slot hint table.
const HINT_BITS: u32 = 10;

/// A set-associative cache with pluggable placement and replacement.
///
/// # Examples
///
/// ```
/// use proxima_sim::{Addr, CacheConfig, PlacementPolicy, ReplacementPolicy, SetAssocCache};
/// use proxima_prng::Mwc64;
///
/// let cfg = CacheConfig::leon3_l1(PlacementPolicy::Modulo, ReplacementPolicy::Lru);
/// let mut cache = SetAssocCache::new(cfg);
/// let mut rng = Mwc64::new(0);
/// cache.reseed(0);
/// assert!(!cache.access(Addr::new(0x1000), false, &mut rng).is_hit()); // cold miss
/// assert!(cache.access(Addr::new(0x1000), false, &mut rng).is_hit());  // now present
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `log2(line_size)`.
    line_shift: u32,
    /// `log2(n_sets)`.
    set_bits: u32,
    ways: usize,
    /// `tags[set * ways + way]`: Some(line) if valid.
    tags: Vec<Option<u64>>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    /// Per-set round-robin pointers.
    rr_ptrs: Vec<usize>,
    /// Monotonic access counter for LRU stamping.
    tick: u64,
    /// Per-run placement seed (set by [`SetAssocCache::reseed`]).
    placement_seed: u64,
    /// Random-modulo rotations of this run, direct-mapped by window:
    /// `(window, rotation)`. Cleared by [`SetAssocCache::reseed`].
    rotations: Vec<Option<(u64, u64)>>,
    /// Line → slot hints, direct-mapped by a hash of the line. A hint is
    /// only trusted when `tags[slot]` holds the line; it is recorded from a
    /// lookup in the line's set under the current seed, and cleared by
    /// [`SetAssocCache::reseed`], so a verified hint is the slot a full
    /// lookup would find.
    hints: Vec<u32>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build an empty cache with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::n_sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let n_sets = config.n_sets();
        let slots = (n_sets * config.ways) as usize;
        assert!(
            u32::try_from(slots).is_ok_and(|s| s < u32::MAX),
            "cache has too many lines: {slots}"
        );
        SetAssocCache {
            line_shift: config.line_size.trailing_zeros(),
            set_bits: n_sets.trailing_zeros(),
            ways: config.ways as usize,
            tags: vec![None; slots],
            stamps: vec![0; slots],
            rr_ptrs: vec![0; n_sets as usize],
            tick: 0,
            placement_seed: 0,
            rotations: vec![None; ROTATION_MEMO],
            hints: vec![u32::MAX; 1 << HINT_BITS],
            stats: CacheStats::default(),
            config,
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit/miss counters accumulated since the last [`SetAssocCache::flush`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidate every line and reset statistics (the per-run cache flush
    /// of the measurement protocol).
    pub fn flush(&mut self) {
        self.tags.fill(None);
        self.stamps.fill(0);
        self.rr_ptrs.fill(0);
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// Install the per-run placement seed (a fresh seed per run is the
    /// "set a new seed for each experiment" step of the paper's protocol).
    pub fn reseed(&mut self, placement_seed: u64) {
        self.placement_seed = placement_seed;
        self.rotations.fill(None);
        self.hints.fill(u32::MAX);
    }

    /// The line index of `addr`.
    pub(crate) fn line_of(&self, addr: Addr) -> u64 {
        addr.raw() >> self.line_shift
    }

    /// Access the line containing `addr`.
    ///
    /// `is_write` selects store semantics: with
    /// [`CacheConfig::allocate_on_write`] false (write-through
    /// no-write-allocate), a store miss does not install the line.
    /// `rng` supplies victim-way randomness for random replacement.
    pub fn access<R: RandomSource + ?Sized>(
        &mut self,
        addr: Addr,
        is_write: bool,
        rng: &mut R,
    ) -> AccessOutcome {
        self.access_line(self.line_of(addr), is_write, rng)
    }

    /// Access by pre-computed line index (used by the pipeline fast path).
    pub fn access_line<R: RandomSource + ?Sized>(
        &mut self,
        line: u64,
        is_write: bool,
        rng: &mut R,
    ) -> AccessOutcome {
        self.tick += 1;
        let hint = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - HINT_BITS)) as usize;
        let slot = self.hints[hint] as usize;
        if self.tags.get(slot) == Some(&Some(line)) {
            return self.hit(slot);
        }

        let set = self.set_of(line);
        let base = set * self.ways;
        let ways = self.ways;
        if let Some(way) = self.tags[base..base + ways]
            .iter()
            .position(|&t| t == Some(line))
        {
            self.hints[hint] = (base + way) as u32;
            return self.hit(base + way);
        }
        self.stats.misses += 1;

        let allocate = !is_write || self.config.allocate_on_write;
        if allocate {
            // Prefer an invalid way; otherwise consult the policy.
            let victim = (0..ways)
                .find(|&w| self.tags[base + w].is_none())
                .unwrap_or_else(|| {
                    self.config.replacement.victim(
                        &self.stamps[base..base + ways],
                        &mut self.rr_ptrs[set],
                        rng,
                    )
                });
            self.tags[base + victim] = Some(line);
            self.stamps[base + victim] = self.tick;
            self.hints[hint] = (base + victim) as u32;
        }
        AccessOutcome::Miss {
            allocated: allocate,
        }
    }

    fn hit(&mut self, slot: usize) -> AccessOutcome {
        self.stamps[slot] = self.tick;
        self.stats.hits += 1;
        AccessOutcome::Hit
    }

    /// The set of `line` under the current placement seed; random-modulo
    /// rotations come from the per-run memo.
    fn set_of(&mut self, line: u64) -> usize {
        let placement = self.config.placement;
        if placement != PlacementPolicy::RandomModulo {
            return placement.index(line, self.set_bits, self.placement_seed) as usize;
        }
        let mask = (1u64 << self.set_bits) - 1;
        let window = line >> self.set_bits;
        let entry = &mut self.rotations[window as usize % ROTATION_MEMO];
        let rot = match *entry {
            Some((w, rot)) if w == window => rot,
            _ => {
                let rot = window_rotation(window, self.placement_seed, mask);
                *entry = Some((window, rot));
                rot
            }
        };
        (((line & mask) + rot) & mask) as usize
    }

    /// `true` if the line containing `addr` is currently cached (no state
    /// change, no statistics impact).
    pub fn probe(&self, addr: Addr) -> bool {
        let line = self.line_of(addr);
        let set = self
            .config
            .placement
            .index(line, self.set_bits, self.placement_seed);
        let base = set as usize * self.ways;
        self.tags[base..base + self.ways].contains(&Some(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxima_prng::Mwc64;

    fn det_cache() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::leon3_l1(
            PlacementPolicy::Modulo,
            ReplacementPolicy::Lru,
        ))
    }

    #[test]
    fn geometry_of_leon3_l1() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.n_sets(), 128);
        assert_eq!(cfg.size_bytes, 16 * 1024);
        assert_eq!(cfg.ways, 4);
        assert!(!cfg.allocate_on_write);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        let a = Addr::new(0x4000);
        assert!(!c.access(a, false, &mut rng).is_hit());
        assert!(c.access(a, false, &mut rng).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        c.access(Addr::new(0x4000), false, &mut rng);
        assert!(c.access(Addr::new(0x401F), false, &mut rng).is_hit());
        assert!(!c.access(Addr::new(0x4020), false, &mut rng).is_hit());
    }

    #[test]
    fn write_miss_does_not_allocate() {
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        let a = Addr::new(0x8000);
        let out = c.access(a, true, &mut rng);
        assert_eq!(out, AccessOutcome::Miss { allocated: false });
        assert!(!c.probe(a), "no-write-allocate must leave the line out");
        // A subsequent load still misses.
        assert!(!c.access(a, false, &mut rng).is_hit());
    }

    #[test]
    fn write_hit_keeps_line() {
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        let a = Addr::new(0x8000);
        c.access(a, false, &mut rng); // allocate via load
        assert!(c.access(a, true, &mut rng).is_hit());
        assert!(c.probe(a));
    }

    #[test]
    fn lru_evicts_least_recent_of_full_set() {
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        // 5 lines mapping to the same set (stride = n_sets * line = 4096).
        let lines: Vec<Addr> = (0..5).map(|i| Addr::new(0x1000 + i * 4096)).collect();
        for a in &lines[..4] {
            c.access(*a, false, &mut rng);
        }
        // Touch 0..3 again so line 0 is oldest → fills stamps.
        for a in &lines[..4] {
            assert!(c.access(*a, false, &mut rng).is_hit());
        }
        c.access(lines[4], false, &mut rng); // evicts lines[0]
        assert!(!c.probe(lines[0]));
        assert!(c.probe(lines[1]));
        assert!(c.probe(lines[4]));
    }

    #[test]
    fn flush_empties_everything() {
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        for i in 0..32 {
            c.access(Addr::new(i * 32), false, &mut rng);
        }
        c.flush();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.probe(Addr::new(0)));
        assert!(!c.access(Addr::new(0), false, &mut rng).is_hit());
    }

    #[test]
    fn working_set_within_capacity_has_no_conflict_misses() {
        // 512 distinct lines = exactly 16KB / 32B: with modulo placement
        // and LRU, a second sweep hits on every line.
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        for i in 0..512u64 {
            c.access(Addr::new(i * 32), false, &mut rng);
        }
        for i in 0..512u64 {
            assert!(
                c.access(Addr::new(i * 32), false, &mut rng).is_hit(),
                "line {i} should hit on the second sweep"
            );
        }
    }

    #[test]
    fn random_replacement_varies_across_seeds() {
        // Thrash one set with 8 lines; the surviving tags depend on the RNG.
        let cfg = CacheConfig::leon3_l1(PlacementPolicy::Modulo, ReplacementPolicy::Random);
        let survivors = |seed: u64| {
            let mut c = SetAssocCache::new(cfg);
            let mut rng = Mwc64::new(seed);
            for i in 0..8u64 {
                c.access(Addr::new(0x100 + i * 4096), false, &mut rng);
            }
            (0..8u64)
                .filter(|i| c.probe(Addr::new(0x100 + i * 4096)))
                .collect::<Vec<_>>()
        };
        let all_same = (1..20).all(|s| survivors(s) == survivors(0));
        assert!(!all_same, "random replacement should differ across seeds");
    }

    #[test]
    fn random_modulo_defuses_pathological_aliasing() {
        // 8 lines aliasing to one modulo set thrash a 4-way LRU set under
        // modulo placement but scatter across sets under random modulo.
        let run = |placement: PlacementPolicy, seed: u64| {
            let cfg = CacheConfig::leon3_l1(placement, ReplacementPolicy::Lru);
            let mut c = SetAssocCache::new(cfg);
            c.reseed(seed);
            let mut rng = Mwc64::new(seed);
            for _round in 0..20 {
                for i in 0..8u64 {
                    c.access(Addr::new(0x100 + i * 4096), false, &mut rng);
                }
            }
            c.stats().misses
        };
        let det = run(PlacementPolicy::Modulo, 0);
        assert_eq!(det, 160, "8 lines round-robin in a 4-way LRU set: all miss");
        for seed in 0..16 {
            assert!(
                run(PlacementPolicy::RandomModulo, seed) < det,
                "random modulo must break the alias pathology (seed {seed})"
            );
        }
    }

    #[test]
    fn random_modulo_miss_count_varies_across_seeds() {
        // Exceed capacity (600 windows > 512 lines of space): how badly the
        // working set collides is a per-seed random variable.
        let cfg = CacheConfig::leon3_l1(PlacementPolicy::RandomModulo, ReplacementPolicy::Lru);
        let misses = |seed: u64| {
            let mut c = SetAssocCache::new(cfg);
            c.reseed(seed);
            let mut rng = Mwc64::new(seed);
            for _round in 0..3 {
                for i in 0..600u64 {
                    // One line per alignment window: placement fully random.
                    c.access(Addr::new(i * 4096), false, &mut rng);
                }
            }
            c.stats().misses
        };
        let counts: std::collections::HashSet<u64> = (0..16).map(misses).collect();
        assert!(
            counts.len() > 1,
            "miss counts should vary across placement seeds"
        );
    }

    #[test]
    fn stats_miss_ratio() {
        let s = CacheStats {
            hits: 30,
            misses: 10,
        };
        assert_eq!(s.accesses(), 40);
        assert!((s.miss_ratio() - 0.25).abs() < 1e-15);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_size_panics_at_construction() {
        // 48-byte lines × 1 way × 128 sets: a power-of-two set count, but
        // line numbers would not be a shift of the address.
        SetAssocCache::new(CacheConfig {
            size_bytes: 48 * 128,
            ways: 1,
            line_size: 48,
            ..CacheConfig::default()
        });
    }
}
