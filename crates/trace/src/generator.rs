//! Per-core access-stream generation.

use crate::access::TraceOp;
use crate::profile::WorkloadProfile;
use fpb_types::{CoreId, SimRng};

/// Access granularity of the generated stream (one L1/L2 line).
pub const ACCESS_BYTES: u64 = 64;
/// Streaming tiers advance one memory line per access (a streaming kernel
/// touches each 64 B chunk, but only the first touch of a 256 B memory
/// line reaches PCM — the generator emits at that granularity so the
/// tier's PKI is its PCM-level intensity).
pub const STREAM_STRIDE_UNITS: u64 = 4;
/// Private address-space stride per core (512 MiB carves a 4 GiB memory
/// into 8 disjoint per-core regions).
pub const CORE_REGION_BYTES: u64 = 512 << 20;

/// Generates the memory-operation stream of one core running one
/// benchmark profile.
///
/// Each call to [`CoreTraceGenerator::next_op`] yields the next operation
/// with an instruction gap drawn from an exponential distribution whose
/// mean matches the profile's total access intensity, a tier chosen
/// proportionally to tier intensity, and an address drawn from the tier's
/// footprint (sequentially for streaming tiers, uniformly otherwise).
///
/// # Examples
///
/// ```
/// use fpb_trace::{CoreTraceGenerator, DataClass, DataProfile, TrafficTier, WorkloadProfile};
/// use fpb_types::SimRng;
///
/// let profile = WorkloadProfile::new(
///     "toy",
///     vec![TrafficTier::new(5.0, 5.0, 1.0, true)],
///     DataProfile::new(DataClass::Streaming, 0.8),
/// );
/// let mut rng = SimRng::seed_from(1);
/// let mut g = CoreTraceGenerator::new(profile, &mut rng);
/// let a = g.next_op();
/// let b = g.next_op();
/// // The streaming tier walks sequentially in 64 B steps.
/// assert!(a.addr != b.addr);
/// ```
#[derive(Debug, Clone)]
pub struct CoreTraceGenerator {
    profile: WorkloadProfile,
    rng: SimRng,
    base_addr: u64,
    /// Per-tier state: (base offset within the core region, stream cursor,
    /// footprint in access units).
    tiers: Vec<TierState>,
    /// Cumulative tier intensities for roulette selection.
    cum_pki: Vec<f64>,
    total_pki: f64,
    mean_gap: f64,
}

/// One tier's address region, as reported by
/// [`CoreTraceGenerator::tier_regions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierRegion {
    /// First byte of the region (absolute; within the core's private
    /// region, wrapping modulo [`CORE_REGION_BYTES`]).
    pub start: u64,
    /// Footprint in bytes.
    pub bytes: u64,
    /// Fraction of the tier's accesses that are stores.
    pub write_fraction: f64,
}

#[derive(Debug, Clone)]
struct TierState {
    offset: u64,
    cursor: u64,
    units: u64,
    streaming: bool,
    read_fraction: f64,
}

impl CoreTraceGenerator {
    /// Creates a generator for core 0. Forks its RNG from `rng`.
    pub fn new(profile: WorkloadProfile, rng: &mut SimRng) -> Self {
        Self::for_core(profile, CoreId::new(0), rng)
    }

    /// Creates a generator whose addresses live in `core`'s private region.
    pub fn for_core(profile: WorkloadProfile, core: CoreId, rng: &mut SimRng) -> Self {
        let mut offset = 0u64;
        let mut tiers = Vec::with_capacity(profile.tiers.len());
        let mut cum = Vec::with_capacity(profile.tiers.len());
        let mut total = 0.0;
        for t in &profile.tiers {
            let bytes = (t.footprint_mib * (1 << 20) as f64) as u64;
            let units = (bytes / ACCESS_BYTES).max(1);
            let pki = t.total_pki();
            tiers.push(TierState {
                offset,
                cursor: 0,
                units,
                streaming: t.streaming,
                read_fraction: if pki > 0.0 { t.reads_pki / pki } else { 0.0 },
            });
            // Tiers pack consecutively; wrap within the core region so even
            // oversized footprints stay private to the core.
            offset = (offset + units * ACCESS_BYTES) % CORE_REGION_BYTES;
            total += pki;
            cum.push(total);
        }
        // Distinct fork stream per core so sibling generators are
        // independent even when built from the same parent RNG.
        let forked = rng.fork(0x7ACE_0000 + core.index() as u64);
        CoreTraceGenerator {
            base_addr: core.index() as u64 * CORE_REGION_BYTES,
            mean_gap: 1000.0 / total,
            profile,
            rng: forked,
            tiers,
            cum_pki: cum,
            total_pki: total,
        }
    }

    /// The profile this generator models.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// First byte of this core's private address region.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Fraction of this profile's accesses that are stores.
    pub fn write_fraction(&self) -> f64 {
        let writes: f64 = self.profile.tiers.iter().map(|t| t.writes_pki).sum();
        writes / self.total_pki
    }

    /// The absolute address regions of this generator's tiers (for cache
    /// warm-up): start address, footprint in bytes, and the tier's store
    /// fraction. Regions may wrap within the core's private region.
    pub fn tier_regions(&self) -> Vec<TierRegion> {
        self.tiers
            .iter()
            .map(|t| TierRegion {
                start: self.base_addr + t.offset,
                bytes: t.units * ACCESS_BYTES,
                write_fraction: 1.0 - t.read_fraction,
            })
            .collect()
    }

    /// Produces the next memory operation.
    pub fn next_op(&mut self) -> TraceOp {
        // Exponential inter-access gap with mean 1000 / PKI instructions.
        let u = self.rng.f64();
        let gap = (-self.mean_gap * (1.0 - u).ln()).ceil().max(1.0) as u64;

        // Roulette-select the tier.
        let x = self.rng.f64() * self.total_pki;
        let idx = self
            .cum_pki
            .iter()
            .position(|&c| x < c)
            .unwrap_or(self.cum_pki.len() - 1);
        let tier = &mut self.tiers[idx];

        let unit = if tier.streaming {
            let u = tier.cursor;
            tier.cursor = (tier.cursor + STREAM_STRIDE_UNITS) % tier.units;
            u
        } else {
            self.rng.u64_below(tier.units)
        };
        let addr = self.base_addr + (tier.offset + unit * ACCESS_BYTES) % CORE_REGION_BYTES;
        let is_write = !self.rng.bernoulli(tier.read_fraction);
        TraceOp {
            gap_instructions: gap,
            addr,
            is_write,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_model::{DataClass, DataProfile};
    use crate::profile::TrafficTier;

    fn profile(tiers: Vec<TrafficTier>) -> WorkloadProfile {
        WorkloadProfile::new("t", tiers, DataProfile::new(DataClass::Integer, 0.4))
    }

    #[test]
    fn gap_mean_matches_intensity() {
        // 10 accesses per kilo-instruction -> mean gap 100 instructions.
        let p = profile(vec![TrafficTier::new(5.0, 5.0, 64.0, false)]);
        let mut rng = SimRng::seed_from(1);
        let mut g = CoreTraceGenerator::new(p, &mut rng);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| g.next_op().gap_instructions).sum();
        let mean = total as f64 / n as f64;
        assert!((95.0..106.0).contains(&mean), "mean gap = {mean}");
    }

    #[test]
    fn read_write_mix_matches_profile() {
        let p = profile(vec![TrafficTier::new(3.0, 1.0, 64.0, false)]);
        let mut rng = SimRng::seed_from(2);
        let mut g = CoreTraceGenerator::new(p, &mut rng);
        let n = 40_000;
        let writes = (0..n).filter(|_| g.next_op().is_write).count();
        let frac = writes as f64 / n as f64;
        assert!((0.23..0.27).contains(&frac), "write fraction = {frac}");
    }

    #[test]
    fn streaming_tier_walks_sequentially() {
        let p = profile(vec![TrafficTier::new(1.0, 0.0, 1.0, true)]);
        let mut rng = SimRng::seed_from(3);
        let mut g = CoreTraceGenerator::new(p, &mut rng);
        let a = g.next_op().addr;
        let b = g.next_op().addr;
        let c = g.next_op().addr;
        assert_eq!(b - a, ACCESS_BYTES * STREAM_STRIDE_UNITS);
        assert_eq!(c - b, ACCESS_BYTES * STREAM_STRIDE_UNITS);
    }

    #[test]
    fn streaming_wraps_at_footprint() {
        let p = profile(vec![TrafficTier::new(1.0, 0.0, 1.0, true)]);
        let mut rng = SimRng::seed_from(4);
        let mut g = CoreTraceGenerator::new(p, &mut rng);
        let steps = (1u64 << 20) / (ACCESS_BYTES * STREAM_STRIDE_UNITS);
        let first = g.next_op().addr;
        for _ in 0..steps - 1 {
            g.next_op();
        }
        assert_eq!(g.next_op().addr, first);
    }

    #[test]
    fn random_tier_stays_in_footprint() {
        let p = profile(vec![TrafficTier::new(1.0, 1.0, 2.0, false)]);
        let mut rng = SimRng::seed_from(5);
        let mut g = CoreTraceGenerator::new(p, &mut rng);
        for _ in 0..10_000 {
            let op = g.next_op();
            assert!(op.addr < 2 << 20, "addr {:#x} outside footprint", op.addr);
        }
    }

    #[test]
    fn cores_get_disjoint_regions() {
        let p = profile(vec![TrafficTier::new(1.0, 1.0, 64.0, false)]);
        let mut rng = SimRng::seed_from(6);
        let mut g0 = CoreTraceGenerator::for_core(p.clone(), CoreId::new(0), &mut rng);
        let mut g3 = CoreTraceGenerator::for_core(p, CoreId::new(3), &mut rng);
        for _ in 0..1000 {
            assert!(g0.next_op().addr < CORE_REGION_BYTES);
            let a = g3.next_op().addr;
            assert!((3 * CORE_REGION_BYTES..4 * CORE_REGION_BYTES).contains(&a));
        }
    }

    #[test]
    fn tier_selection_proportional_to_intensity() {
        // Hot tier 9 PKI in 1 MiB, cold tier 1 PKI in 256 MiB: ~90 % of
        // accesses must land in the first MiB.
        let p = profile(vec![
            TrafficTier::new(4.5, 4.5, 1.0, false),
            TrafficTier::new(0.5, 0.5, 256.0, false),
        ]);
        let mut rng = SimRng::seed_from(7);
        let mut g = CoreTraceGenerator::new(p, &mut rng);
        let n = 20_000;
        let hot = (0..n).filter(|_| g.next_op().addr < (1 << 20)).count();
        let frac = hot as f64 / n as f64;
        assert!((0.87..0.93).contains(&frac), "hot fraction = {frac}");
    }

    #[test]
    fn deterministic_given_seed() {
        let p = profile(vec![TrafficTier::new(2.0, 1.0, 16.0, false)]);
        let mut ra = SimRng::seed_from(8);
        let mut rb = SimRng::seed_from(8);
        let mut a = CoreTraceGenerator::new(p.clone(), &mut ra);
        let mut b = CoreTraceGenerator::new(p, &mut rb);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }
}
