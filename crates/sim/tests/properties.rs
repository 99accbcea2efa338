//! Property-based tests for the platform model.

use proptest::prelude::*;
use proxima_prng::{Mwc64, PrngKind, RandomSource, SplitMix64};
use proxima_sim::bus::BusModel;
use proxima_sim::{
    Addr, CacheConfig, FpuModel, Inst, InstKind, PlacementPolicy, Platform, PlatformConfig,
    ReplacementPolicy, RunResult, RunStats, SetAssocCache, Tlb, TlbConfig, ValueClass,
};

/// The per-instruction simulator loop, built from the public component
/// APIs: a full ITLB access per instruction, an IL1 access per fetch line
/// (and after a taken branch), a DTLB and DL1 access per load and store.
/// `Platform::run` must equal it exactly.
fn reference_run(config: &PlatformConfig, trace: &[Inst], seed: u64) -> RunResult {
    let mut il1 = SetAssocCache::new(config.il1);
    let mut dl1 = SetAssocCache::new(config.dl1);
    let mut itlb = Tlb::new(config.itlb);
    let mut dtlb = Tlb::new(config.dtlb);
    let fpu = FpuModel::new(config.fpu_mode);
    let mut seeder = SplitMix64::new(seed);
    il1.reseed(seeder.next_u64());
    dl1.reseed(seeder.next_u64());
    let mut rng = config.prng.build(seeder.next_u64());
    let t = config.timing;
    let memory = |rng: &mut Box<dyn RandomSource>| {
        config.bus.transaction_cycles(rng) + config.dram.access_latency()
    };

    let mut cycles = 0;
    let mut stats = RunStats::default();
    let mut fetch_line_hot = None;
    for inst in trace {
        cycles += t.base_cpi;
        stats.instructions += 1;
        if !itlb.access(inst.pc, &mut rng) {
            cycles += t.tlb_walk_cycles;
        }
        let fetch_line = inst.pc.line(config.il1.line_size);
        if fetch_line_hot != Some(fetch_line) {
            fetch_line_hot = Some(fetch_line);
            if !il1.access_line(fetch_line, false, &mut rng).is_hit() {
                let mem = memory(&mut rng);
                cycles += mem;
                stats.memory_cycles += mem;
            }
        }
        let fpu_stall = match inst.kind {
            InstKind::IntAlu | InstKind::Nop => 0,
            InstKind::IntMul => {
                cycles += t.int_mul_extra;
                0
            }
            InstKind::IntDiv => {
                cycles += t.int_div_extra;
                0
            }
            InstKind::Branch { taken } => {
                if taken {
                    cycles += t.taken_branch_extra;
                    fetch_line_hot = None;
                }
                0
            }
            InstKind::FpAdd => fpu.add_latency() - 1,
            InstKind::FpMul => fpu.mul_latency() - 1,
            InstKind::FpDiv(class) => fpu.div_latency(class) - 1,
            InstKind::FpSqrt(class) => fpu.sqrt_latency(class) - 1,
            InstKind::Load(addr) => {
                if !dtlb.access(addr, &mut rng) {
                    cycles += t.tlb_walk_cycles;
                }
                if !dl1.access(addr, false, &mut rng).is_hit() {
                    let mem = memory(&mut rng);
                    cycles += mem;
                    stats.memory_cycles += mem;
                }
                0
            }
            InstKind::Store(addr) => {
                if !dtlb.access(addr, &mut rng) {
                    cycles += t.tlb_walk_cycles;
                }
                let _ = dl1.access(addr, true, &mut rng);
                cycles += t.store_extra;
                0
            }
        };
        cycles += fpu_stall;
        stats.fpu_stall_cycles += fpu_stall;
    }
    let (il1s, dl1s) = (il1.stats(), dl1.stats());
    stats.il1 = (il1s.hits, il1s.misses);
    stats.dl1 = (dl1s.hits, dl1s.misses);
    stats.itlb = itlb.stats();
    stats.dtlb = dtlb.stats();
    RunResult { cycles, stats }
}

/// A victim way among `stamps` as `ReplacementPolicy` picks it.
fn naive_victim(
    policy: ReplacementPolicy,
    stamps: &[u64],
    rr: &mut usize,
    rng: &mut Mwc64,
) -> usize {
    match policy {
        ReplacementPolicy::Lru => (0..stamps.len()).min_by_key(|&i| stamps[i]).unwrap_or(0),
        ReplacementPolicy::Random => rng.below(stamps.len() as u64) as usize,
        ReplacementPolicy::RoundRobin => {
            let v = *rr % stamps.len();
            *rr = (v + 1) % stamps.len();
            v
        }
    }
}

/// A set-associative lookup by full scan, with no memo or hint: one
/// `(tags, stamps, rr)` per set, `ways` tags each, placement by the public
/// `PlacementPolicy::set_index`. A TLB is the one-set case.
struct NaiveCache {
    tags: Vec<Vec<Option<u64>>>,
    stamps: Vec<Vec<u64>>,
    rr: Vec<usize>,
    tick: u64,
    policy: ReplacementPolicy,
    allocate_on_write: bool,
}

impl NaiveCache {
    fn new(sets: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        NaiveCache {
            tags: vec![vec![None; ways]; sets],
            stamps: vec![vec![0; ways]; sets],
            rr: vec![0; sets],
            tick: 0,
            policy,
            allocate_on_write: false,
        }
    }

    fn access(&mut self, set: usize, key: u64, is_write: bool, rng: &mut Mwc64) -> bool {
        self.tick += 1;
        if let Some(w) = self.tags[set].iter().position(|&t| t == Some(key)) {
            self.stamps[set][w] = self.tick;
            return true;
        }
        if !is_write || self.allocate_on_write {
            let w = self.tags[set]
                .iter()
                .position(Option::is_none)
                .unwrap_or_else(|| {
                    naive_victim(self.policy, &self.stamps[set], &mut self.rr[set], rng)
                });
            self.tags[set][w] = Some(key);
            self.stamps[set][w] = self.tick;
        }
        false
    }
}

/// Caches with `placement`/`replacement`, TLBs with `replacement`, on the
/// RAND platform otherwise.
fn policies(placement: PlacementPolicy, replacement: ReplacementPolicy) -> PlatformConfig {
    PlatformConfig {
        il1: CacheConfig::leon3_l1(placement, replacement),
        dl1: CacheConfig::leon3_l1(placement, replacement),
        itlb: TlbConfig::leon3(replacement),
        dtlb: TlbConfig::leon3(replacement),
        ..PlatformConfig::mbpta_compliant()
    }
}

/// Every platform personality, every PRNG kind, and a small geometry
/// (16-set 2-way caches of 64-byte lines, 8-entry TLBs of 1 KB pages) under
/// which evictions are frequent.
fn personalities() -> Vec<PlatformConfig> {
    let compliant = PlatformConfig::mbpta_compliant;
    let small_cache = |replacement| CacheConfig {
        size_bytes: 2048,
        ways: 2,
        line_size: 64,
        ..CacheConfig::leon3_l1(PlacementPolicy::RandomModulo, replacement)
    };
    let small_tlb = |replacement| TlbConfig {
        entries: 8,
        page_size: 1024,
        replacement,
    };
    let mut all = vec![
        compliant(),
        PlatformConfig::mbpta_operation(),
        PlatformConfig::deterministic(),
        policies(PlacementPolicy::RandomModulo, ReplacementPolicy::RoundRobin),
        policies(PlacementPolicy::HashRandom, ReplacementPolicy::Random),
        policies(PlacementPolicy::Modulo, ReplacementPolicy::Random),
        PlatformConfig {
            bus: BusModel::leon3(3),
            ..compliant()
        },
    ];
    for prng in [PrngKind::XorShift, PrngKind::SplitMix, PrngKind::WeakLcg] {
        all.push(PlatformConfig {
            prng,
            ..compliant()
        });
    }
    for replacement in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Random,
        ReplacementPolicy::RoundRobin,
    ] {
        all.push(PlatformConfig {
            il1: small_cache(replacement),
            dl1: small_cache(replacement),
            itlb: small_tlb(replacement),
            dtlb: small_tlb(replacement),
            ..compliant()
        });
    }
    all
}

/// A random trace of every instruction kind: mostly sequential code with
/// taken branches to any of 96 code pages, and loads and stores that stay
/// near recent data but reach 96 data pages, so both TLBs replace entries.
fn random_trace(seed: u64, len: usize) -> Vec<Inst> {
    const PAGES: u64 = 96;
    let mut r = SplitMix64::new(seed);
    let mut pc = 0x4000_0000u64;
    let mut data = 0x6000_0000u64;
    let classes = [ValueClass::Fast, ValueClass::Typical, ValueClass::Worst];
    (0..len)
        .map(|_| {
            let x = r.next_u64();
            let class = classes[(x >> 8) as usize % 3];
            if x % 4 == 0 {
                // A new data neighbourhood: any of the pages, any line.
                data = 0x6000_0000 + (r.next_u64() % PAGES) * 4096 + (r.next_u64() % 4096);
            } else {
                data = data.wrapping_add(r.next_u64() % 64);
            }
            let kind = match x % 16 {
                0..=2 => InstKind::IntAlu,
                3 => InstKind::Nop,
                4 => InstKind::IntMul,
                5 => InstKind::IntDiv,
                6 => InstKind::FpAdd,
                7 => InstKind::FpMul,
                8 => InstKind::FpDiv(class),
                9 => InstKind::FpSqrt(class),
                10..=12 => InstKind::Load(Addr::new(data)),
                13 => InstKind::Store(Addr::new(data)),
                _ => InstKind::Branch {
                    taken: (x >> 16) % 3 != 0,
                },
            };
            let inst = Inst::new(pc, kind);
            pc = match kind {
                // Half the taken branches stay near (a loop), half jump to
                // any code page.
                InstKind::Branch { taken: true } if (x >> 20) % 2 == 0 => {
                    pc.wrapping_sub(4 * (r.next_u64() % 32))
                }
                InstKind::Branch { taken: true } => {
                    0x4000_0000 + (r.next_u64() % PAGES) * 4096 + 4 * (r.next_u64() % 1024)
                }
                _ => pc + 4,
            };
            inst
        })
        .collect()
}

proptest! {
    /// Random modulo never maps two lines of the same alignment window to
    /// the same set — for any window, any seed, any power-of-two geometry.
    #[test]
    fn random_modulo_intra_window_injective(
        window in 0u64..1_000_000,
        seed in any::<u64>(),
        log_sets in 4u32..10,
    ) {
        let n_sets = 1u64 << log_sets;
        let mut seen = vec![false; n_sets as usize];
        for i in 0..n_sets {
            let line = window * n_sets + i;
            let s = PlacementPolicy::RandomModulo.set_index(line, n_sets, seed) as usize;
            prop_assert!(!seen[s], "collision in window {window}");
            seen[s] = true;
        }
    }

    /// Every placement policy stays within the set range.
    #[test]
    fn placement_in_range(line in any::<u64>(), seed in any::<u64>(), log_sets in 1u32..12) {
        let n_sets = 1u64 << log_sets;
        for policy in [PlacementPolicy::Modulo, PlacementPolicy::RandomModulo, PlacementPolicy::HashRandom] {
            prop_assert!(policy.set_index(line, n_sets, seed) < n_sets);
        }
    }

    /// A line just loaded is always resident (probe sees it), regardless of
    /// policies and prior traffic.
    #[test]
    fn loaded_line_is_resident(
        traffic in prop::collection::vec(0u64..(1 << 22), 0..200),
        target in 0u64..(1 << 22),
        seed in any::<u64>(),
    ) {
        let cfg = CacheConfig::leon3_l1(PlacementPolicy::RandomModulo, ReplacementPolicy::Random);
        let mut cache = SetAssocCache::new(cfg);
        cache.reseed(seed);
        let mut rng = Mwc64::new(seed);
        for a in traffic {
            cache.access(Addr::new(a * 32), false, &mut rng);
        }
        cache.access(Addr::new(target * 32), false, &mut rng);
        prop_assert!(cache.probe(Addr::new(target * 32)));
    }

    /// Cache statistics are consistent: hits + misses equals accesses.
    #[test]
    fn cache_stats_consistent(
        accesses in prop::collection::vec((0u64..(1 << 20), any::<bool>()), 1..300),
        seed in any::<u64>(),
    ) {
        let mut cache = SetAssocCache::new(CacheConfig::default());
        cache.reseed(seed);
        let mut rng = Mwc64::new(seed);
        for (a, is_write) in &accesses {
            cache.access(Addr::new(*a), *is_write, &mut rng);
        }
        let s = cache.stats();
        prop_assert_eq!(s.accesses() as usize, accesses.len());
        prop_assert!(s.miss_ratio() >= 0.0 && s.miss_ratio() <= 1.0);
    }

    /// TLB capacity invariant: after touching k ≤ entries distinct pages,
    /// all of them hit on a second pass (LRU).
    #[test]
    fn tlb_no_spurious_evictions(pages in prop::collection::hash_set(0u64..10_000, 1..64)) {
        let mut tlb = Tlb::new(TlbConfig::leon3(ReplacementPolicy::Lru));
        let mut rng = Mwc64::new(0);
        let pages: Vec<u64> = pages.into_iter().collect();
        for &p in &pages {
            tlb.access(Addr::new(p * 4096), &mut rng);
        }
        for &p in &pages {
            prop_assert!(tlb.access(Addr::new(p * 4096), &mut rng), "page {p} evicted early");
        }
    }

    /// Platform timing is deterministic per seed and strictly positive,
    /// and instruction counts are preserved, for arbitrary load traces.
    #[test]
    fn run_deterministic_and_counted(
        addrs in prop::collection::vec(0u64..(1 << 26), 1..150),
        seed in any::<u64>(),
    ) {
        let trace: Vec<Inst> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| Inst::load(0x1000 + 4 * i as u64, a))
            .collect();
        let mut p = Platform::new(PlatformConfig::mbpta_compliant());
        let r1 = p.run(&trace, seed);
        let r2 = p.run(&trace, seed);
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(r1.stats.instructions as usize, trace.len());
        prop_assert!(r1.cycles >= trace.len() as u64);
    }

    /// DET timing is seed-independent for arbitrary traces.
    #[test]
    fn det_seed_independent(
        addrs in prop::collection::vec(0u64..(1 << 24), 1..100),
        s1 in any::<u64>(),
        s2 in any::<u64>(),
    ) {
        let trace: Vec<Inst> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| Inst::load(0x1000 + 4 * i as u64, a))
            .collect();
        let mut p = Platform::new(PlatformConfig::deterministic());
        prop_assert_eq!(p.run(&trace, s1).cycles, p.run(&trace, s2).cycles);
    }

    /// `Platform::run` equals the per-instruction reference loop under
    /// every personality, run after run on one reused platform.
    #[test]
    fn run_matches_per_instruction_reference(
        trace_seed in any::<u64>(),
        len in 1usize..2500,
        seed in any::<u64>(),
    ) {
        let trace = random_trace(trace_seed, len);
        for config in personalities() {
            let mut platform = Platform::new(config.clone());
            for s in [seed, seed.wrapping_add(1)] {
                prop_assert_eq!(platform.run(&trace, s), reference_run(&config, &trace, s));
            }
        }
    }

    /// `Tlb::access` equals a full-scan TLB under every replacement
    /// policy, on page streams that reach 96 pages of a 64-entry TLB.
    #[test]
    fn tlb_matches_full_scan_model(
        pages in prop::collection::vec(0u64..96, 1..600),
        seed in any::<u64>(),
    ) {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Random, ReplacementPolicy::RoundRobin] {
            let mut tlb = Tlb::new(TlbConfig::leon3(policy));
            let mut model = NaiveCache::new(1, 64, policy);
            let (mut rng, mut model_rng) = (Mwc64::new(seed), Mwc64::new(seed));
            for &p in &pages {
                let addr = Addr::new(p * 4096 + (seed % 4096));
                prop_assert_eq!(tlb.access(addr, &mut rng), model.access(0, p, false, &mut model_rng));
            }
        }
    }

    /// `SetAssocCache::access` equals a full-scan cache under every
    /// placement and replacement policy, for loads and stores, across a
    /// reseed without a flush in the middle of the stream.
    #[test]
    fn cache_matches_full_scan_model(
        accesses in prop::collection::vec((0u64..2048, 0u64..8), 1..800),
        seed in any::<u64>(),
    ) {
        for placement in [PlacementPolicy::Modulo, PlacementPolicy::RandomModulo, PlacementPolicy::HashRandom] {
            for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Random, ReplacementPolicy::RoundRobin] {
                let cfg = CacheConfig::leon3_l1(placement, policy);
                let n_sets = cfg.n_sets();
                let mut cache = SetAssocCache::new(cfg);
                let mut model = NaiveCache::new(n_sets as usize, cfg.ways as usize, policy);
                let (mut rng, mut model_rng) = (Mwc64::new(seed), Mwc64::new(seed));
                let mut placement_seed = seed;
                cache.reseed(placement_seed);
                for (i, &(line, op)) in accesses.iter().enumerate() {
                    if i == accesses.len() / 2 {
                        placement_seed = placement_seed.wrapping_add(1);
                        cache.reseed(placement_seed);
                    }
                    let set = placement.set_index(line, n_sets, placement_seed) as usize;
                    let is_write = op == 0;
                    let hit = cache.access(Addr::new(line * 32 + op), is_write, &mut rng).is_hit();
                    prop_assert_eq!(hit, model.access(set, line, is_write, &mut model_rng));
                }
            }
        }
    }
}
