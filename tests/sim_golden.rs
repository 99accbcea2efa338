//! Golden digests of the simulator: every personality, every PRNG kind
//! (`mbpta_compliant` covers the default MWC), the four TVCA paths, seeds
//! `0..50`.
//!
//! Each case folds an FNV-1a digest over the cycles and every `RunStats`
//! field of its 200 runs. The constants were produced by the plain
//! per-instruction simulator loop (an ITLB lookup per instruction, a
//! placement hash per cache access); any later change to the timing
//! model, the RNG draw order or the counters changes a digest. Do not
//! regenerate them to make a simulator change pass.

use proxima::prng::PrngKind;
use proxima::sim::bus::BusModel;
use proxima::sim::{
    CacheConfig, Inst, PlacementPolicy, Platform, PlatformConfig, ReplacementPolicy, RunResult,
    TlbConfig,
};
use proxima::workload::tvca::{ControlMode, Tvca, TvcaConfig};

const SEEDS: u64 = 50;

fn fnv1a(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn fold(h: u64, r: &RunResult) -> u64 {
    let s = &r.stats;
    [
        r.cycles,
        s.instructions,
        s.il1.0,
        s.il1.1,
        s.dl1.0,
        s.dl1.1,
        s.itlb.0,
        s.itlb.1,
        s.dtlb.0,
        s.dtlb.1,
        s.fpu_stall_cycles,
        s.memory_cycles,
    ]
    .into_iter()
    .fold(h, fnv1a)
}

fn traces() -> Vec<Vec<Inst>> {
    let tvca = Tvca::new(TvcaConfig::default());
    ControlMode::all()
        .into_iter()
        .map(|m| tvca.trace(m))
        .collect()
}

fn digest(config: PlatformConfig, traces: &[Vec<Inst>]) -> u64 {
    let mut platform = Platform::new(config);
    let mut h = 0xCBF2_9CE4_8422_2325;
    for trace in traces {
        for seed in 0..SEEDS {
            h = fold(h, &platform.run(trace, seed));
        }
    }
    h
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

fn cases() -> Vec<(&'static str, PlatformConfig, u64)> {
    let with_prng = |prng| PlatformConfig {
        prng,
        ..PlatformConfig::mbpta_compliant()
    };
    vec![
        (
            "mbpta_compliant",
            PlatformConfig::mbpta_compliant(),
            0xe507_2f45_0b57_4436,
        ),
        (
            "mbpta_operation",
            PlatformConfig::mbpta_operation(),
            0xf1a9_189b_7b0a_80c1,
        ),
        (
            "deterministic",
            PlatformConfig::deterministic(),
            0x1f94_4ffc_8a47_e439,
        ),
        (
            "random_modulo+round_robin",
            policies(PlacementPolicy::RandomModulo, ReplacementPolicy::RoundRobin),
            0xda24_ddda_1b81_4ef4,
        ),
        (
            "hash_random+random",
            policies(PlacementPolicy::HashRandom, ReplacementPolicy::Random),
            0x23b0_5419_7999_1dec,
        ),
        (
            "modulo+random",
            policies(PlacementPolicy::Modulo, ReplacementPolicy::Random),
            0xd55d_3073_4cd2_e952,
        ),
        (
            "bus_leon3(3)",
            PlatformConfig {
                bus: BusModel::leon3(3),
                ..PlatformConfig::mbpta_compliant()
            },
            0x6ffc_d930_75f4_0fa7,
        ),
        (
            "prng_xorshift",
            with_prng(PrngKind::XorShift),
            0xa5c1_7366_775e_5317,
        ),
        (
            "prng_splitmix",
            with_prng(PrngKind::SplitMix),
            0x3777_c09a_2c92_6ee5,
        ),
        (
            "prng_weak_lcg",
            with_prng(PrngKind::WeakLcg),
            0xa3e3_d225_3b19_2047,
        ),
    ]
}

#[test]
fn simulator_digests_are_unchanged() {
    let traces = traces();
    let mismatches: Vec<String> = cases()
        .into_iter()
        .filter_map(|(name, config, want)| {
            let got = digest(config, &traces);
            (got != want).then(|| format!("{name}: got {got:#018x}, want {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
