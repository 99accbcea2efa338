//! The assembled platform: caches + TLBs + FPU + bus + DRAM + pipeline,
//! with the DET and RAND personalities and the per-run measurement
//! protocol.

use proxima_prng::{PrngKind, RandomSource, SplitMix64};

use crate::bus::BusModel;
use crate::cache::{CacheConfig, PlacementPolicy, ReplacementPolicy, SetAssocCache};
use crate::fpu::{FpuLatencyMode, FpuModel};
use crate::inst::{Inst, InstKind};
use crate::mem::DramModel;
use crate::pipeline::PipelineTiming;
use crate::tlb::{Tlb, TlbConfig};

/// Complete configuration of the simulated platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Instruction L1 cache.
    pub il1: CacheConfig,
    /// Data L1 cache.
    pub dl1: CacheConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// FPU latency mode.
    pub fpu_mode: FpuLatencyMode,
    /// Shared bus model.
    pub bus: BusModel,
    /// DRAM controller model.
    pub dram: DramModel,
    /// Pipeline fixed timing.
    pub timing: PipelineTiming,
    /// Which PRNG drives the randomized resources.
    pub prng: PrngKind,
}

impl PlatformConfig {
    /// The **RAND** platform of the paper: random-modulo placement and
    /// random replacement on IL1/DL1, random replacement on both TLBs, FPU
    /// forced to worst-case latency, SIL3-style MWC PRNG.
    pub fn mbpta_compliant() -> Self {
        PlatformConfig {
            il1: CacheConfig::leon3_l1(PlacementPolicy::RandomModulo, ReplacementPolicy::Random),
            dl1: CacheConfig::leon3_l1(PlacementPolicy::RandomModulo, ReplacementPolicy::Random),
            itlb: TlbConfig::leon3(ReplacementPolicy::Random),
            dtlb: TlbConfig::leon3(ReplacementPolicy::Random),
            fpu_mode: FpuLatencyMode::ForcedWorst,
            bus: BusModel::leon3(0),
            dram: DramModel::leon3(),
            timing: PipelineTiming::leon3(),
            prng: PrngKind::Mwc,
        }
    }

    /// The RAND hardware as deployed at **operation**: caches and TLBs
    /// randomized (they always are — the randomization is the hardware),
    /// but the FPU in its natural value-dependent mode. The forced-worst
    /// FPU of [`PlatformConfig::mbpta_compliant`] is an analysis-phase
    /// configuration bit; average-performance comparisons against DET
    /// (experiment E4) must use this personality.
    pub fn mbpta_operation() -> Self {
        PlatformConfig {
            fpu_mode: FpuLatencyMode::Variable,
            ..PlatformConfig::mbpta_compliant()
        }
    }

    /// The **DET** baseline: conventional modulo placement, LRU caches and
    /// TLBs, value-dependent FPU latency.
    pub fn deterministic() -> Self {
        PlatformConfig {
            il1: CacheConfig::leon3_l1(PlacementPolicy::Modulo, ReplacementPolicy::Lru),
            dl1: CacheConfig::leon3_l1(PlacementPolicy::Modulo, ReplacementPolicy::Lru),
            itlb: TlbConfig::leon3(ReplacementPolicy::Lru),
            dtlb: TlbConfig::leon3(ReplacementPolicy::Lru),
            fpu_mode: FpuLatencyMode::Variable,
            bus: BusModel::leon3(0),
            dram: DramModel::leon3(),
            timing: PipelineTiming::leon3(),
            prng: PrngKind::Mwc,
        }
    }

    /// `true` if every jitter source is MBPTA-compliant (randomized or
    /// forced to worst case).
    pub fn is_mbpta_compliant(&self) -> bool {
        self.il1.placement.is_randomized()
            && self.il1.replacement.is_randomized()
            && self.dl1.placement.is_randomized()
            && self.dl1.replacement.is_randomized()
            && self.itlb.replacement.is_randomized()
            && self.dtlb.replacement.is_randomized()
            && self.fpu_mode == FpuLatencyMode::ForcedWorst
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig::mbpta_compliant()
    }
}

/// Per-run event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Instructions executed.
    pub instructions: u64,
    /// IL1 hits / misses.
    pub il1: (u64, u64),
    /// DL1 hits / misses (loads and stores).
    pub dl1: (u64, u64),
    /// ITLB hits / misses.
    pub itlb: (u64, u64),
    /// DTLB hits / misses.
    pub dtlb: (u64, u64),
    /// Cycles stalled on the FPU.
    pub fpu_stall_cycles: u64,
    /// Cycles spent in bus + DRAM for L1 misses.
    pub memory_cycles: u64,
}

/// The outcome of one measured run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// End-to-end execution time in cycles.
    pub cycles: u64,
    /// Event counters.
    pub stats: RunStats,
}

/// One observation of a measurement campaign: the seed used and the
/// measured execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignObservation {
    /// The per-run seed (the protocol sets a fresh seed per run).
    pub seed: u64,
    /// Execution time in cycles.
    pub cycles: u64,
}

/// The assembled platform.
///
/// # Examples
///
/// Run the same program twice with the same seed — identical timing — and
/// with different seeds — (typically) different timing on RAND:
///
/// ```
/// use proxima_sim::{Inst, Platform, PlatformConfig};
///
/// let prog: Vec<Inst> = (0..100).map(|i| Inst::load(0x100 + 4 * i, 0x9000 + 32 * i)).collect();
/// let mut p = Platform::new(PlatformConfig::mbpta_compliant());
/// assert_eq!(p.run(&prog, 7).cycles, p.run(&prog, 7).cycles);
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    config: PlatformConfig,
    il1: SetAssocCache,
    dl1: SetAssocCache,
    itlb: Tlb,
    dtlb: Tlb,
    fpu: FpuModel,
}

impl Platform {
    /// Assemble a platform from its configuration.
    pub fn new(config: PlatformConfig) -> Self {
        Platform {
            il1: SetAssocCache::new(config.il1),
            dl1: SetAssocCache::new(config.dl1),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            fpu: FpuModel::new(config.fpu_mode),
            config,
        }
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Execute `trace` once under the paper's measurement protocol:
    /// caches and TLBs are flushed, the PRNG is reseeded from `seed`
    /// (independent per-resource streams are derived from it), and the
    /// program runs to completion.
    ///
    /// Every instruction costs `base_cpi` plus its stalls: an ITLB walk on
    /// an ITLB miss, a bus + DRAM transaction on an IL1 miss (IL1 is looked
    /// up once per fetch line, and again after a taken branch), the
    /// kind's fixed extra or FPU latency, and for loads and stores a DTLB
    /// walk on a DTLB miss plus, for a load that misses DL1, a bus + DRAM
    /// transaction. The loop does state-changing work only where state can
    /// change, with results identical to a lookup per instruction:
    ///
    /// * A run of fetches from the page of the last ITLB access is one ITLB
    ///   access plus a count of hits, credited before the next ITLB access
    ///   and at the end of the run. A hit draws nothing from the RNG and
    ///   only refreshes its entry's stamp, so under LRU, round-robin and
    ///   random replacement alike the ITLB ends in the same state.
    /// * Line and page numbers are shifts fixed when the platform is built.
    /// * The caches memoize each window's random-modulo rotation per run,
    ///   and the caches and TLBs look a line or page up at a remembered slot
    ///   first, trusting it only if the slot holds that line or page.
    ///
    /// RNG draws (victims on misses in full sets, bus arbitration on L1
    /// misses) happen in the same order as in a per-instruction loop.
    pub fn run(&mut self, trace: &[Inst], seed: u64) -> RunResult {
        // Protocol: "We flush caches, reset the FPGA and reload the
        // executable across executions … We also set a new seed for each
        // experiment."
        self.il1.flush();
        self.dl1.flush();
        self.itlb.flush();
        self.dtlb.flush();

        let mut seeder = SplitMix64::new(seed);
        self.il1.reseed(seeder.next_u64());
        self.dl1.reseed(seeder.next_u64());
        let mut rng = self.config.prng.build(seeder.next_u64());

        let t = self.config.timing;
        let mem_latency_base = self.config.dram.access_latency();

        let mut cycles: u64 = 0;
        let mut stats = RunStats::default();
        let mut fetch_line_hot: Option<u64> = None;
        // The page of the last ITLB access, and the fetches from it since.
        let mut itlb_page: Option<u64> = None;
        let mut itlb_hits: u64 = 0;

        for inst in trace {
            cycles += t.base_cpi;

            // --- Fetch: ITLB, then IL1 (once per line for sequential code).
            let page = self.itlb.page_of(inst.pc);
            if itlb_page == Some(page) {
                itlb_hits += 1;
            } else {
                self.itlb.credit_hits(itlb_hits);
                itlb_hits = 0;
                itlb_page = Some(page);
                if !self.itlb.access_page(page, &mut rng) {
                    cycles += t.tlb_walk_cycles;
                }
            }
            let fetch_line = self.il1.line_of(inst.pc);
            if fetch_line_hot != Some(fetch_line) {
                fetch_line_hot = Some(fetch_line);
                if !self.il1.access_line(fetch_line, false, &mut rng).is_hit() {
                    let mem = self.config.bus.transaction_cycles(&mut rng) + mem_latency_base;
                    cycles += mem;
                    stats.memory_cycles += mem;
                }
            }

            // --- Execute / memory.
            match inst.kind {
                InstKind::IntAlu | InstKind::Nop => {}
                InstKind::IntMul => cycles += t.int_mul_extra,
                InstKind::IntDiv => cycles += t.int_div_extra,
                InstKind::Branch { taken } => {
                    // A taken branch redirects the fetch stream.
                    if taken {
                        cycles += t.taken_branch_extra;
                        fetch_line_hot = None;
                    }
                }
                InstKind::FpAdd => {
                    let s = self.fpu.add_latency() - 1;
                    cycles += s;
                    stats.fpu_stall_cycles += s;
                }
                InstKind::FpMul => {
                    let s = self.fpu.mul_latency() - 1;
                    cycles += s;
                    stats.fpu_stall_cycles += s;
                }
                InstKind::FpDiv(class) => {
                    let s = self.fpu.div_latency(class) - 1;
                    cycles += s;
                    stats.fpu_stall_cycles += s;
                }
                InstKind::FpSqrt(class) => {
                    let s = self.fpu.sqrt_latency(class) - 1;
                    cycles += s;
                    stats.fpu_stall_cycles += s;
                }
                InstKind::Load(addr) => {
                    if !self.dtlb.access(addr, &mut rng) {
                        cycles += t.tlb_walk_cycles;
                    }
                    if !self.dl1.access(addr, false, &mut rng).is_hit() {
                        let mem = self.config.bus.transaction_cycles(&mut rng) + mem_latency_base;
                        cycles += mem;
                        stats.memory_cycles += mem;
                    }
                }
                InstKind::Store(addr) => {
                    if !self.dtlb.access(addr, &mut rng) {
                        cycles += t.tlb_walk_cycles;
                    }
                    // Write-through, no-write-allocate: the store posts to
                    // the write buffer; the cache is updated only on hit.
                    let _ = self.dl1.access(addr, true, &mut rng);
                    cycles += t.store_extra;
                }
            }
        }
        self.itlb.credit_hits(itlb_hits);

        stats.instructions = trace.len() as u64;
        stats.il1 = {
            let s = self.il1.stats();
            (s.hits, s.misses)
        };
        stats.dl1 = {
            let s = self.dl1.stats();
            (s.hits, s.misses)
        };
        stats.itlb = self.itlb.stats();
        stats.dtlb = self.dtlb.stats();

        RunResult { cycles, stats }
    }

    /// Run a full measurement campaign: `runs` executions of `trace`, with
    /// per-run seeds `base_seed, base_seed+1, …` (each expanded through the
    /// platform seeder), returning one observation per run.
    pub fn campaign(
        &mut self,
        trace: &[Inst],
        runs: usize,
        base_seed: u64,
    ) -> Vec<CampaignObservation> {
        (0..runs as u64)
            .map(|i| {
                let seed = base_seed.wrapping_add(i);
                CampaignObservation {
                    seed,
                    cycles: self.run(trace, seed).cycles,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpu::ValueClass;

    fn loads(n: u64, stride: u64) -> Vec<Inst> {
        (0..n)
            .map(|i| Inst::load(0x100 + 4 * i, 0x10_0000 + stride * i))
            .collect()
    }

    #[test]
    fn same_seed_same_cycles() {
        let prog = loads(500, 32);
        let mut p = Platform::new(PlatformConfig::mbpta_compliant());
        let a = p.run(&prog, 42);
        let b = p.run(&prog, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn rand_platform_cycles_vary_with_seed() {
        // A working set above DL1 capacity (600 lines > 512): how the lines
        // collide, and hence the execution time, is seed-dependent.
        let prog: Vec<Inst> = (0..3000)
            .map(|i| Inst::load(0x100 + 4 * (i % 64), 0x10_0000 + 4096 * (i % 600)))
            .collect();
        let mut p = Platform::new(PlatformConfig::mbpta_compliant());
        let times: std::collections::HashSet<u64> =
            (0..20).map(|s| p.run(&prog, s).cycles).collect();
        assert!(times.len() > 1, "randomized platform should show jitter");
    }

    #[test]
    fn det_platform_is_seed_insensitive() {
        let prog = loads(2000, 64);
        let mut p = Platform::new(PlatformConfig::deterministic());
        let t0 = p.run(&prog, 0).cycles;
        for s in 1..10 {
            assert_eq!(
                p.run(&prog, s).cycles,
                t0,
                "DET must not depend on the seed"
            );
        }
    }

    #[test]
    fn compliance_flags() {
        assert!(PlatformConfig::mbpta_compliant().is_mbpta_compliant());
        assert!(!PlatformConfig::deterministic().is_mbpta_compliant());
        let mut half = PlatformConfig::mbpta_compliant();
        half.fpu_mode = FpuLatencyMode::Variable;
        assert!(!half.is_mbpta_compliant());
    }

    #[test]
    fn operation_mode_keeps_randomized_caches_but_variable_fpu() {
        let op = PlatformConfig::mbpta_operation();
        assert!(op.il1.placement.is_randomized());
        assert!(op.dl1.replacement.is_randomized());
        assert_eq!(op.fpu_mode, FpuLatencyMode::Variable);
        // Not analysis-compliant (the FPU bit is off) by design.
        assert!(!op.is_mbpta_compliant());
    }

    #[test]
    fn fpu_worst_mode_dominates_variable_mode() {
        let prog: Vec<Inst> = (0..200)
            .map(|i| Inst::new(0x100 + 4 * i, InstKind::FpDiv(ValueClass::Fast)))
            .collect();
        let mut worst = Platform::new(PlatformConfig::mbpta_compliant());
        let mut var_cfg = PlatformConfig::mbpta_compliant();
        var_cfg.fpu_mode = FpuLatencyMode::Variable;
        let mut variable = Platform::new(var_cfg);
        assert!(
            worst.run(&prog, 1).cycles > variable.run(&prog, 1).cycles,
            "forced-worst FPU must cost more on fast operands"
        );
    }

    #[test]
    fn cache_misses_cost_cycles() {
        // Same instruction count; one program fits a line, the other
        // strides across pages.
        let hot = loads(1000, 0);
        let cold = loads(1000, 4096);
        let mut p = Platform::new(PlatformConfig::deterministic());
        let t_hot = p.run(&hot, 0).cycles;
        let t_cold = p.run(&cold, 0).cycles;
        assert!(t_cold > t_hot * 2, "hot={t_hot} cold={t_cold}");
    }

    #[test]
    fn stats_are_populated() {
        let prog = loads(100, 64);
        let mut p = Platform::new(PlatformConfig::mbpta_compliant());
        let r = p.run(&prog, 3);
        assert_eq!(r.stats.instructions, 100);
        assert!(r.stats.dl1.0 + r.stats.dl1.1 == 100);
        assert!(r.stats.memory_cycles > 0);
    }

    #[test]
    fn campaign_produces_one_observation_per_run() {
        let prog = loads(50, 32);
        let mut p = Platform::new(PlatformConfig::mbpta_compliant());
        let obs = p.campaign(&prog, 25, 100);
        assert_eq!(obs.len(), 25);
        assert_eq!(obs[0].seed, 100);
        assert_eq!(obs[24].seed, 124);
        assert!(obs.iter().all(|o| o.cycles > 0));
    }

    #[test]
    fn taken_branch_costs_more_than_not_taken() {
        let taken: Vec<Inst> = (0..100)
            .map(|i| Inst::branch(0x100 + 4 * i, true))
            .collect();
        let not_taken: Vec<Inst> = (0..100)
            .map(|i| Inst::branch(0x100 + 4 * i, false))
            .collect();
        let mut p = Platform::new(PlatformConfig::deterministic());
        assert!(p.run(&taken, 0).cycles > p.run(&not_taken, 0).cycles);
    }

    #[test]
    fn store_miss_does_not_pollute_cache() {
        // Stores to a cold region must not evict: program of stores then
        // loads to a *different* region should cost the same as loads alone.
        let mut prog: Vec<Inst> = (0..128)
            .map(|i| Inst::store(0x100, 0x50_0000 + 32 * i))
            .collect();
        let loads_only: Vec<Inst> = (0..128)
            .map(|i| Inst::load(0x100, 0x20_0000 + 32 * i))
            .collect();
        prog.extend(loads_only.iter().copied());
        let mut p = Platform::new(PlatformConfig::deterministic());
        let full = p.run(&prog, 0);
        // The loads in the combined program missed exactly as often as alone.
        let alone = p.run(&loads_only, 0);
        assert_eq!(full.stats.dl1.1, alone.stats.dl1.1 + 128); // 128 store misses
    }
}
