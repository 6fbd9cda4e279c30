//! Per-core front end: closed-loop trace replay through a private LLC.

use fpb_cache::{CoreCaches, HitLevel, SetAssocCache};
use fpb_trace::{CoreTraceGenerator, DataProfile, TraceOp, WorkloadProfile};
use fpb_types::{CacheHierarchyConfig, ConfigError, CoreId, Cycles, SimRng};

/// Result of pushing one trace operation into the core's cache front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlcOutcome {
    /// For reads: true if a cache level had the line.
    pub hit: bool,
    /// Deepest level that serviced the access.
    pub level: HitLevel,
    /// A demand fill the core must block on (PCM line index).
    pub fill: Option<u64>,
    /// Dirty victims that must be written to PCM (line indices).
    pub writebacks: Vec<u64>,
}

/// The cache stack in front of one core.
///
/// The default (`LlcOnly`) front end models trace operations as
/// L2-miss-level traffic hitting the private DRAM LLC directly — fast and
/// faithful for the paper's workload models, whose intensities are
/// post-L2 rates. `Full` runs the complete L1/L2/L3 stack of Table 1 for
/// full-fidelity studies (enable with
/// [`crate::SimOptions::full_hierarchy`]).
#[derive(Debug, Clone)]
pub enum CacheFrontEnd {
    /// Private DRAM LLC only.
    LlcOnly(SetAssocCache),
    /// Full private L1 → L2 → DRAM L3 stack.
    Full(CoreCaches),
}

impl CacheFrontEnd {
    /// Accesses the cache stack without building an [`LlcOutcome`]
    /// (warm-up has no PCM traffic to report).
    fn touch(&mut self, addr: u64, is_write: bool) {
        match self {
            CacheFrontEnd::LlcOnly(llc) => {
                llc.access(addr, is_write);
            }
            CacheFrontEnd::Full(stack) => {
                stack.access(addr, is_write);
            }
        }
    }
}

/// One core of the CMP: its trace generator, private LLC, and replay
/// state.
///
/// The front end models the paper's 8-core in-order CMP at the LLC access
/// level: trace operations arrive with instruction gaps (1 instr/cycle);
/// loads that miss the LLC block the core until the PCM read returns;
/// stores are L2 write-backs arriving at the LLC — they allocate without a
/// fill and never block the core directly (back-pressure comes from the
/// controller's write-burst mode, which blocks reads). L1/L2 hit time is
/// folded into the instruction gaps — a documented simplification; the
/// full [`fpb_cache::CoreCaches`] hierarchy is available for full-fidelity
/// runs.
///
/// # Examples
///
/// ```
/// use fpb_sim::frontend::CoreState;
/// use fpb_trace::catalog;
/// use fpb_types::{CacheHierarchyConfig, CoreId, SimRng};
///
/// let profile = catalog::program("S.copy").unwrap();
/// let mut rng = SimRng::seed_from(1);
/// let mut core = CoreState::new(
///     profile,
///     CoreId::new(0),
///     &CacheHierarchyConfig::default(),
///     &mut rng,
/// ).unwrap();
/// let op = core.take_op().unwrap();
/// let out = core.llc_access(op.addr, op.is_write);
/// assert!(!out.hit); // cold cache
/// ```
#[derive(Debug, Clone)]
pub struct CoreState {
    gen: CoreTraceGenerator,
    front: CacheFrontEnd,
    line_bytes: u64,
    llc_lines: u64,
    /// When the pending operation arrives at the LLC.
    pub ready_at: Cycles,
    /// The operation arriving at `ready_at`.
    pub next_op: Option<TraceOp>,
    /// True while blocked on an outstanding PCM read.
    pub blocked: bool,
    /// Instructions retired so far.
    pub instructions: u64,
    /// True once the instruction budget is met.
    pub done: bool,
    /// Cycle at which the budget was met.
    pub done_at: Cycles,
}

impl CoreState {
    /// Builds the core and schedules its first operation.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the LLC geometry is invalid.
    pub fn new(
        profile: WorkloadProfile,
        core: CoreId,
        cache: &CacheHierarchyConfig,
        rng: &mut SimRng,
    ) -> Result<Self, ConfigError> {
        Self::with_mode(profile, core, cache, rng, false)
    }

    /// Builds the core with an explicit front-end mode: `full_hierarchy`
    /// runs the complete L1/L2/L3 stack instead of the LLC alone.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any cache geometry is invalid.
    pub fn with_mode(
        profile: WorkloadProfile,
        core: CoreId,
        cache: &CacheHierarchyConfig,
        rng: &mut SimRng,
        full_hierarchy: bool,
    ) -> Result<Self, ConfigError> {
        let front = if full_hierarchy {
            CacheFrontEnd::Full(CoreCaches::new(cache)?)
        } else {
            CacheFrontEnd::LlcOnly(SetAssocCache::new(
                cache.l3_mib_per_core as u64 * 1024 * 1024,
                cache.l3_line_bytes as u64,
                cache.l3_ways as usize,
            )?)
        };
        let mut gen = CoreTraceGenerator::for_core(profile, core, rng);
        let first = gen.next_op();
        let llc_lines = cache.l3_mib_per_core as u64 * 1024 * 1024 / cache.l3_line_bytes as u64;
        Ok(CoreState {
            front,
            line_bytes: cache.l3_line_bytes as u64,
            llc_lines,
            ready_at: Cycles::new(first.gap_instructions),
            next_op: Some(first),
            gen,
            blocked: false,
            instructions: 0,
            done: false,
            done_at: Cycles::ZERO,
        })
    }

    /// The data-change profile of the program this core runs.
    pub fn data_profile(&self) -> &DataProfile {
        &self.gen.profile().data
    }

    /// Takes the pending operation, if any (the engine calls this at
    /// `ready_at`; `None` means nothing is scheduled — a blocked or done
    /// core).
    pub fn take_op(&mut self) -> Option<TraceOp> {
        self.next_op.take()
    }

    /// Pushes one operation through the cache front end.
    pub fn llc_access(&mut self, addr: u64, is_write: bool) -> LlcOutcome {
        match &mut self.front {
            CacheFrontEnd::LlcOnly(llc) => {
                let r = llc.access(addr, is_write);
                let mut out = LlcOutcome {
                    hit: r.hit,
                    level: if r.hit {
                        HitLevel::L3
                    } else {
                        HitLevel::Memory
                    },
                    fill: None,
                    writebacks: Vec::new(),
                };
                if !r.hit && !is_write {
                    // Demand load miss: blocking PCM fill. (Store misses
                    // are L2 write-backs and allocate without a fill.)
                    out.fill = Some(addr / self.line_bytes);
                }
                if let Some(v) = r.victim {
                    if v.dirty {
                        out.writebacks.push(v.addr / self.line_bytes);
                    }
                }
                out
            }
            CacheFrontEnd::Full(stack) => {
                let h = stack.access(addr, is_write);
                LlcOutcome {
                    hit: h.level != HitLevel::Memory,
                    level: h.level,
                    fill: h.pcm_fills.first().copied(),
                    writebacks: h.pcm_writebacks,
                }
            }
        }
    }

    /// Schedules the next operation `base` cycles into the future plus its
    /// instruction gap, and retires the gap's instructions. Marks the core
    /// done once `target` instructions have retired.
    pub fn schedule_next(&mut self, finish_time: Cycles, target: u64) {
        debug_assert!(self.next_op.is_none(), "operation already pending");
        if self.done {
            return;
        }
        if self.instructions >= target {
            self.done = true;
            self.done_at = finish_time;
            return;
        }
        let op = self.gen.next_op();
        self.instructions += op.gap_instructions;
        self.ready_at = finish_time + Cycles::new(op.gap_instructions);
        self.next_op = Some(op);
    }

    /// LLC statistics (the L3's, in full-hierarchy mode).
    pub fn llc_stats(&self) -> &fpb_cache::CacheStats {
        match &self.front {
            CacheFrontEnd::LlcOnly(llc) => llc.stats(),
            CacheFrontEnd::Full(stack) => stack.l3_stats(),
        }
    }

    /// Warms the LLC before measurement so dirty evictions flow from
    /// cycle 0, as they do in the paper's SimPoint-selected phases.
    ///
    /// Three stages:
    ///
    /// 1. Fill every set to capacity with a diffuse sample of the core's
    ///    region (stride 17 lines, coprime to the power-of-two set count),
    ///    dirtying lines with the profile's store fraction — a 32 MB cache
    ///    never fills from a short trace alone.
    /// 2. Walk each tier whose footprint fits the LLC once, smallest last,
    ///    so the steady-state resident (hot) sets are in place.
    /// 3. Stream `ops` generator operations to mix recency realistically.
    pub fn warm_up(&mut self, ops: u64, rng: &mut SimRng) {
        let lines = self.llc_lines;
        let llc_bytes = lines * self.line_bytes;
        let base = self.gen.base_addr();
        let dirty_frac = self.gen.write_fraction();
        let region = fpb_trace::generator::CORE_REGION_BYTES;
        for i in 0..lines {
            let addr = base + (i * self.line_bytes * 17) % region;
            self.front.touch(addr, rng.bernoulli(dirty_frac));
        }
        let mut regions = self.gen.tier_regions();
        regions.retain(|r| r.bytes <= llc_bytes);
        regions.sort_by_key(|r| std::cmp::Reverse(r.bytes)); // smallest (hottest) last
        for r in regions {
            let mut off = 0;
            while off < r.bytes {
                let addr = r.start - base + off;
                self.front
                    .touch(base + addr % region, rng.bernoulli(r.write_fraction));
                off += self.line_bytes;
            }
        }
        for _ in 0..ops {
            let op = self.gen.next_op();
            self.front.touch(op.addr, op.is_write);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use fpb_trace::catalog;

    fn core(seed: u64) -> CoreState {
        let mut rng = SimRng::seed_from(seed);
        CoreState::new(
            catalog::program("C.mcf").unwrap(),
            CoreId::new(0),
            &CacheHierarchyConfig::default(),
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn first_op_scheduled_at_its_gap() {
        let c = core(1);
        let op = c.next_op.unwrap();
        assert_eq!(c.ready_at, Cycles::new(op.gap_instructions));
        assert!(!c.blocked && !c.done);
    }

    #[test]
    fn read_miss_requests_fill_write_miss_does_not() {
        let mut c = core(2);
        let out = c.llc_access(0x1234_0000, false);
        assert!(!out.hit);
        assert_eq!(out.fill, Some(0x1234_0000 / 256));
        let out = c.llc_access(0x4321_0000, true);
        assert!(out.fill.is_none());
    }

    #[test]
    fn hot_line_hits_after_fill() {
        let mut c = core(3);
        c.llc_access(0x100, false);
        let out = c.llc_access(0x100, false);
        assert!(out.hit);
        assert!(out.fill.is_none());
    }

    #[test]
    fn dirty_evictions_surface_as_writebacks() {
        let mut c = core(4);
        // Dirty one line, then evict it by filling its set (32 MiB, 8-way,
        // 256 B lines -> 16384 sets; same set every 16384 lines).
        c.llc_access(0, true);
        let stride = 16384u64 * 256;
        let mut wbs = Vec::new();
        for i in 1..=9u64 {
            wbs.extend(c.llc_access(i * stride, false).writebacks);
        }
        assert!(wbs.contains(&0), "writebacks: {wbs:?}");
    }

    #[test]
    fn retires_instructions_until_done() {
        let mut c = core(5);
        let target = 10_000;
        let mut t = c.ready_at;
        let mut guard = 0;
        while !c.done {
            assert!(c.take_op().is_some());
            c.schedule_next(t, target);
            t = c.ready_at.max(t + Cycles::new(1));
            guard += 1;
            assert!(guard < 100_000, "runaway");
        }
        assert!(c.instructions >= target);
        assert!(c.done_at >= Cycles::ZERO);
        // Once done, no more ops are produced.
        c.schedule_next(t, target);
        assert!(c.next_op.is_none());
    }
}
