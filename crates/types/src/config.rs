//! System configuration: the paper's Table 1 baseline plus every knob the
//! design-space exploration (§6.4) turns.

use crate::error::ConfigError;
use crate::power::Tokens;

/// Complete configuration of the simulated system.
///
/// [`SystemConfig::default`] reproduces Table 1 of the paper: an 8-core
/// 4 GHz in-order CMP with private L1/L2, a 32 MB/core DRAM L3 with 256 B
/// lines, a 4 GB MLC PCM DIMM with 8 banks striped over 8 chips, 24-entry
/// read/write queues, and a 560-token DIMM power budget.
///
/// # Examples
///
/// ```
/// use fpb_types::SystemConfig;
///
/// let cfg = SystemConfig::default();
/// cfg.validate().expect("baseline must be valid");
/// assert_eq!(cfg.cores, 8);
/// assert_eq!(cfg.pcm.line_bytes, 256);
/// assert_eq!(cfg.pcm.cells_per_line(), 1024); // 256 B × 8 bit ÷ 2 bit/cell
/// assert_eq!(cfg.power.pt_dimm, 560);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of CPU cores (each in-order, single-issue, 1 instr/cycle).
    pub cores: u8,
    /// Master RNG seed; every stochastic component forks from it.
    pub seed: u64,
    /// Cache hierarchy parameters.
    pub cache: CacheHierarchyConfig,
    /// Memory-controller queue parameters.
    pub queues: QueueConfig,
    /// PCM device parameters.
    pub pcm: PcmConfig,
    /// Power-budget parameters.
    pub power: PowerConfig,
    /// Fault-injection and recovery parameters (all injection knobs zero in
    /// the baseline, so the fault paths are completely inert by default).
    pub faults: FaultConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cores: 8,
            seed: 0xF9B_2012,
            cache: CacheHierarchyConfig::default(),
            queues: QueueConfig::default(),
            pcm: PcmConfig::default(),
            power: PowerConfig::default(),
            faults: FaultConfig::default(),
        }
    }
}

impl SystemConfig {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field. Notable
    /// constraints: nonzero structural counts, power-of-two line sizes
    /// (cache lines of at least 4 bytes), each cache level's capacity a
    /// multiple of its line size times its ways, the PCM line size must
    /// equal the L3 line size (the L3 is the write-back client of PCM),
    /// and cells per line must be divisible by the chip count so lines
    /// stripe evenly.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("cores", "must be nonzero"));
        }
        self.cache.validate()?;
        self.queues.validate()?;
        self.pcm.validate()?;
        self.power.validate()?;
        self.faults.validate()?;
        if self.pcm.line_bytes != self.cache.l3_line_bytes {
            return Err(ConfigError::new(
                "pcm.line_bytes",
                format!(
                    "must equal L3 line size ({} != {})",
                    self.pcm.line_bytes, self.cache.l3_line_bytes
                ),
            ));
        }
        if !self
            .pcm
            .cells_per_line()
            .is_multiple_of(u32::from(self.pcm.chips))
        {
            return Err(ConfigError::new(
                "pcm.chips",
                "cells per line must divide evenly across chips",
            ));
        }
        Ok(())
    }

    /// Returns a copy with a different PCM/L3 line size (Fig. 19 sweep).
    #[must_use]
    pub fn with_line_bytes(mut self, bytes: u32) -> Self {
        self.pcm.line_bytes = bytes;
        self.cache.l3_line_bytes = bytes;
        self
    }

    /// Returns a copy with a different per-core LLC capacity (Fig. 20 sweep).
    #[must_use]
    pub fn with_llc_mib(mut self, mib: u32) -> Self {
        self.cache.l3_mib_per_core = mib;
        self
    }

    /// Returns a copy with a different write-queue depth (Fig. 21 sweep).
    #[must_use]
    pub fn with_write_queue(mut self, entries: usize) -> Self {
        self.queues.write_entries = entries;
        self
    }

    /// Returns a copy with a different DIMM token budget (Fig. 22 sweep).
    #[must_use]
    pub fn with_pt_dimm(mut self, tokens: u64) -> Self {
        self.power.pt_dimm = tokens;
        self
    }

    /// Returns a copy with a different GCP efficiency (Figs. 11–15 sweeps).
    #[must_use]
    pub fn with_gcp_efficiency(mut self, eff: f64) -> Self {
        self.power.e_gcp = eff;
        self
    }

    /// Returns a copy with a different RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the given fault-injection parameters.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }
}

/// Cache hierarchy parameters (Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheHierarchyConfig {
    /// Private L1 data cache size in KiB (per core).
    pub l1_kib: u32,
    /// L1 associativity.
    pub l1_ways: u32,
    /// L1/L2 line size in bytes.
    pub l12_line_bytes: u32,
    /// L1 hit latency in cycles.
    pub l1_hit_cycles: u64,
    /// Private L2 size in KiB (per core).
    pub l2_kib: u32,
    /// L2 associativity.
    pub l2_ways: u32,
    /// L2 hit latency in cycles (tag + data, as seen from the core).
    pub l2_hit_cycles: u64,
    /// Private off-chip DRAM L3 size in MiB per core.
    pub l3_mib_per_core: u32,
    /// L3 associativity.
    pub l3_ways: u32,
    /// L3 line size in bytes (also the PCM line size).
    pub l3_line_bytes: u32,
    /// L3 hit latency in cycles (50 ns at 4 GHz).
    pub l3_hit_cycles: u64,
    /// CPU-to-L3 interconnect latency in cycles.
    pub cpu_to_l3_cycles: u64,
}

impl Default for CacheHierarchyConfig {
    fn default() -> Self {
        CacheHierarchyConfig {
            l1_kib: 32,
            l1_ways: 4,
            l12_line_bytes: 64,
            l1_hit_cycles: 2,
            l2_kib: 2048,
            l2_ways: 4,
            l2_hit_cycles: 21, // 5-cycle data hit + 16-cycle CPU-to-L2
            l3_mib_per_core: 32,
            l3_ways: 8,
            l3_line_bytes: 256,
            l3_hit_cycles: 200,
            cpu_to_l3_cycles: 64,
        }
    }
}

impl CacheHierarchyConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        for (field, v) in [
            ("cache.l1_kib", self.l1_kib),
            ("cache.l1_ways", self.l1_ways),
            ("cache.l2_kib", self.l2_kib),
            ("cache.l2_ways", self.l2_ways),
            ("cache.l3_mib_per_core", self.l3_mib_per_core),
            ("cache.l3_ways", self.l3_ways),
        ] {
            if v == 0 {
                return Err(ConfigError::new(field, "must be nonzero"));
            }
        }
        // `fpb_cache::SetAssocCache` packs a line number and two flag bits
        // into one u64 per way, so a line must span at least 4 bytes.
        for (field, v) in [
            ("cache.l12_line_bytes", self.l12_line_bytes),
            ("cache.l3_line_bytes", self.l3_line_bytes),
        ] {
            if v < 4 || !v.is_power_of_two() {
                return Err(ConfigError::new(field, "must be a power of two >= 4"));
            }
        }
        if self.l3_line_bytes < self.l12_line_bytes {
            return Err(ConfigError::new(
                "cache.l3_line_bytes",
                "must be >= the L1/L2 line size",
            ));
        }
        // Each level's capacity must divide into whole sets.
        for (field, capacity, line, ways) in [
            (
                "cache.l1_kib",
                u64::from(self.l1_kib) << 10,
                self.l12_line_bytes,
                self.l1_ways,
            ),
            (
                "cache.l2_kib",
                u64::from(self.l2_kib) << 10,
                self.l12_line_bytes,
                self.l2_ways,
            ),
            (
                "cache.l3_mib_per_core",
                u64::from(self.l3_mib_per_core) << 20,
                self.l3_line_bytes,
                self.l3_ways,
            ),
        ] {
            let set_bytes = u64::from(line) * u64::from(ways);
            if !capacity.is_multiple_of(set_bytes) {
                return Err(ConfigError::new(
                    field,
                    format!("must be a multiple of line bytes x ways ({set_bytes} B)"),
                ));
            }
        }
        Ok(())
    }
}

/// Memory-controller queue parameters (Table 1: 24-entry R/W queues).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueConfig {
    /// Read-queue capacity.
    pub read_entries: usize,
    /// Write-queue capacity; when full, a write burst is issued (§5.2).
    pub write_entries: usize,
    /// Memory-controller-to-bank latency in cycles.
    pub mc_to_bank_cycles: u64,
    /// Bus occupancy per line transfer in cycles (models the shared channel
    /// between the controller and the DIMM's bridge chip).
    pub bus_cycles_per_line: u64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            read_entries: 24,
            write_entries: 24,
            mc_to_bank_cycles: 64,
            bus_cycles_per_line: 16,
        }
    }
}

impl QueueConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        if self.read_entries == 0 {
            return Err(ConfigError::new("queues.read_entries", "must be nonzero"));
        }
        if self.write_entries == 0 {
            return Err(ConfigError::new("queues.write_entries", "must be nonzero"));
        }
        Ok(())
    }
}

/// MLC PCM device parameters (Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct PcmConfig {
    /// Total capacity in GiB.
    pub capacity_gib: u32,
    /// Logical banks per DIMM (1–64).
    pub banks: u8,
    /// PCM chips per DIMM (a bank stripes across all of them).
    pub chips: u8,
    /// Line size in bytes (equals the L3 line size).
    pub line_bytes: u32,
    /// Bits stored per cell (2 for the baseline MLC; 1 models SLC).
    pub bits_per_cell: u8,
    /// Array read latency in cycles (250 ns at 4 GHz).
    pub read_cycles: u64,
    /// RESET pulse width in cycles (125 ns).
    pub reset_cycles: u64,
    /// SET pulse width (including verify) in cycles (250 ns).
    pub set_cycles: u64,
    /// Latency of the bridge chip's read-before-write comparison (§3.1).
    /// The row is already activated for the incoming write, so this is a
    /// row-hit read, cheaper than a full array read.
    pub compare_read_cycles: u64,
    /// Iteration-count model for each 2-bit target level.
    pub write_model: MlcWriteModel,
}

impl Default for PcmConfig {
    fn default() -> Self {
        PcmConfig {
            capacity_gib: 4,
            banks: 8,
            chips: 8,
            line_bytes: 256,
            bits_per_cell: 2,
            read_cycles: 1000,
            reset_cycles: 500,
            set_cycles: 1000,
            compare_read_cycles: 500,
            write_model: MlcWriteModel::default(),
        }
    }
}

impl PcmConfig {
    /// Number of MLC cells in one memory line.
    ///
    /// ```
    /// use fpb_types::PcmConfig;
    /// assert_eq!(PcmConfig::default().cells_per_line(), 1024);
    /// ```
    pub fn cells_per_line(&self) -> u32 {
        self.line_bytes * 8 / self.bits_per_cell as u32
    }

    /// Number of cells of one line held by each chip.
    pub fn cells_per_chip_per_line(&self) -> u32 {
        self.cells_per_line() / u32::from(self.chips)
    }

    /// Total number of lines in main memory.
    pub fn total_lines(&self) -> u64 {
        self.capacity_gib as u64 * (1 << 30) / self.line_bytes as u64
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.banks == 0 {
            return Err(ConfigError::new("pcm.banks", "must be nonzero"));
        }
        if self.banks > 64 {
            // A step snapshot records bank occupancy as a 64-bit mask.
            return Err(ConfigError::new("pcm.banks", "must be at most 64"));
        }
        if self.chips == 0 {
            return Err(ConfigError::new("pcm.chips", "must be nonzero"));
        }
        if self.capacity_gib == 0 {
            return Err(ConfigError::new("pcm.capacity_gib", "must be nonzero"));
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::new("pcm.line_bytes", "must be a power of two"));
        }
        if !matches!(self.bits_per_cell, 1 | 2) {
            return Err(ConfigError::new("pcm.bits_per_cell", "must be 1 or 2"));
        }
        self.write_model.validate()?;
        Ok(())
    }
}

/// Iteration-count models for the four 2-bit MLC target levels (Table 1).
///
/// Writing a cell to `00` (full RESET, amorphous) finishes in the RESET
/// iteration itself; `11` (full SET, crystalline) needs one SET pulse; the
/// intermediate levels `01` and `10` are programmed with program-and-verify
/// and take a non-deterministic number of SET iterations (8 and 6 on
/// average in the paper's model).
#[derive(Debug, Clone, PartialEq)]
pub struct MlcWriteModel {
    /// Model for target level `00`.
    pub l00: MlcLevelModel,
    /// Model for target level `01`.
    pub l01: MlcLevelModel,
    /// Model for target level `10`.
    pub l10: MlcLevelModel,
    /// Model for target level `11`.
    pub l11: MlcLevelModel,
}

impl Default for MlcWriteModel {
    fn default() -> Self {
        MlcWriteModel {
            l00: MlcLevelModel::Fixed(1),
            // Two-population substitution for the paper's i/F1/F2 model,
            // calibrated to the stated means (8 and 6 iterations).
            l01: MlcLevelModel::TwoPhase {
                fast_fraction: 0.375,
                fast_mean: 4.0,
                fast_std: 1.0,
                slow_mean: 10.4,
                slow_std: 2.0,
                min: 2,
                max: 16,
            },
            l10: MlcLevelModel::TwoPhase {
                fast_fraction: 0.425,
                fast_mean: 3.0,
                fast_std: 1.0,
                slow_mean: 8.2,
                slow_std: 1.5,
                min: 2,
                max: 12,
            },
            l11: MlcLevelModel::Fixed(2),
        }
    }
}

impl MlcWriteModel {
    fn validate(&self) -> Result<(), ConfigError> {
        for (field, m) in [
            ("pcm.write_model.l00", &self.l00),
            ("pcm.write_model.l01", &self.l01),
            ("pcm.write_model.l10", &self.l10),
            ("pcm.write_model.l11", &self.l11),
        ] {
            m.validate(field)?;
        }
        Ok(())
    }
}

/// Iteration-count model for a single MLC target level.
#[derive(Debug, Clone, PartialEq)]
pub enum MlcLevelModel {
    /// Always exactly this many iterations (iteration 1 is the RESET pulse).
    Fixed(u32),
    /// Two-population model: with probability `fast_fraction` the cell
    /// converges in a Gaussian number of iterations around `fast_mean`,
    /// otherwise around `slow_mean`; results are rounded and clamped to
    /// `[min, max]`.
    TwoPhase {
        /// Probability of the fast-converging population.
        fast_fraction: f64,
        /// Mean iterations for the fast population.
        fast_mean: f64,
        /// Std deviation for the fast population.
        fast_std: f64,
        /// Mean iterations for the slow population.
        slow_mean: f64,
        /// Std deviation for the slow population.
        slow_std: f64,
        /// Minimum total iterations (RESET counts as iteration 1).
        min: u32,
        /// Maximum total iterations (worst-case P&V bound).
        max: u32,
    },
}

impl MlcLevelModel {
    /// Expected number of iterations under this model (for reporting and
    /// calibration checks; the clamp's effect on the mean is ignored).
    pub fn mean_iterations(&self) -> f64 {
        match *self {
            MlcLevelModel::Fixed(n) => n as f64,
            MlcLevelModel::TwoPhase {
                fast_fraction,
                fast_mean,
                slow_mean,
                ..
            } => fast_fraction * fast_mean + (1.0 - fast_fraction) * slow_mean,
        }
    }

    fn validate(&self, field: &'static str) -> Result<(), ConfigError> {
        match *self {
            MlcLevelModel::Fixed(n) => {
                if n == 0 {
                    return Err(ConfigError::new(field, "fixed iterations must be >= 1"));
                }
            }
            MlcLevelModel::TwoPhase {
                fast_fraction,
                min,
                max,
                ..
            } => {
                if !(0.0..=1.0).contains(&fast_fraction) {
                    return Err(ConfigError::new(field, "fast_fraction must be in [0, 1]"));
                }
                if min == 0 || max < min {
                    return Err(ConfigError::new(field, "need 1 <= min <= max"));
                }
            }
        }
        Ok(())
    }
}

/// Power-budget parameters (§2.1.2–§2.1.4, §5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// DIMM-level budget in whole tokens (560 in the baseline: the DDR3-1066
    /// power envelope expressed as simultaneous cell RESETs).
    pub pt_dimm: u64,
    /// Local charge-pump power efficiency (0.95 in the paper).
    pub e_lcp: f64,
    /// Global charge-pump effective power efficiency (0.70 typical).
    pub e_gcp: f64,
    /// RESET-to-SET power ratio `C` (`SET power = RESET power / C`; 2 in the
    /// paper's running example).
    pub reset_set_power_ratio: u64,
    /// Maximum GCP output, as a multiple of one LCP's usable capacity (§4.1:
    /// "the maximum power that the GCP can provide is set to the same power
    /// as one LCP", i.e. 1.0).
    pub gcp_capacity_lcps: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            pt_dimm: 560,
            e_lcp: 0.95,
            e_gcp: 0.70,
            reset_set_power_ratio: 2,
            gcp_capacity_lcps: 1.0,
        }
    }
}

impl PowerConfig {
    /// Usable per-chip token budget `PT_LCP = PT_DIMM × E_LCP / chips`
    /// (Eq. 4), in millitokens for exactness.
    pub fn pt_lcp_millis(&self, chips: u8) -> u64 {
        Tokens::pt_lcp(self.pt_dimm, self.e_lcp, 1.0, chips).millis()
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.pt_dimm == 0 {
            return Err(ConfigError::new("power.pt_dimm", "must be nonzero"));
        }
        if !(self.e_lcp > 0.0 && self.e_lcp <= 1.0) {
            return Err(ConfigError::new("power.e_lcp", "must be in (0, 1]"));
        }
        if !(self.e_gcp > 0.0 && self.e_gcp <= 1.0) {
            return Err(ConfigError::new("power.e_gcp", "must be in (0, 1]"));
        }
        if self.reset_set_power_ratio == 0 {
            return Err(ConfigError::new(
                "power.reset_set_power_ratio",
                "must be nonzero",
            ));
        }
        if self.gcp_capacity_lcps <= 0.0 {
            return Err(ConfigError::new("power.gcp_capacity_lcps", "must be > 0"));
        }
        Ok(())
    }
}

/// Fault-injection and graceful-degradation parameters.
///
/// Models the reliability hazards the paper's device physics imply
/// (§2.1.1: program-and-verify is non-deterministic; §2.1.2–2.1.3: charge
/// pumps are the fragile shared resource):
///
/// * **Verify failures** — a completed program-and-verify round reports
///   unconverged cells with probability [`verify_fail_prob`] and must be
///   re-issued by the controller.
/// * **Stuck-at faults** — once a line's wear region has absorbed
///   [`stuck_wear_threshold`] cell-writes, each further write sticks the
///   line with probability [`stuck_cell_prob`]; stuck lines fail every
///   verify until the controller remaps them to a spare.
/// * **Charge-pump brownout** — every [`brownout_period`] cycles the
///   DIMM's power delivery sags for [`brownout_duration`] cycles, leaving
///   only [`brownout_budget_scale`] of every token budget usable.
///
/// The remaining fields tune the controller's recovery behavior (bounded
/// retry-with-backoff, watchdog termination, degraded mode). With every
/// injection knob at zero — the default — no fault code runs and no RNG
/// stream is consumed, so baseline results are bit-identical to a build
/// without the subsystem.
///
/// [`verify_fail_prob`]: FaultConfig::verify_fail_prob
/// [`stuck_cell_prob`]: FaultConfig::stuck_cell_prob
/// [`stuck_wear_threshold`]: FaultConfig::stuck_wear_threshold
/// [`brownout_period`]: FaultConfig::brownout_period
/// [`brownout_duration`]: FaultConfig::brownout_duration
/// [`brownout_budget_scale`]: FaultConfig::brownout_budget_scale
///
/// # Examples
///
/// ```
/// use fpb_types::FaultConfig;
///
/// let f = FaultConfig::default();
/// assert!(!f.any_injection_enabled());
///
/// let f = FaultConfig {
///     verify_fail_prob: 0.01,
///     ..FaultConfig::default()
/// };
/// assert!(f.any_injection_enabled());
/// f.validate().expect("valid");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that a completed write round fails its final verify and
    /// must be re-issued (0 disables verify-failure injection).
    pub verify_fail_prob: f64,
    /// Probability that a write to a worn line leaves it stuck
    /// (0 disables stuck-at injection).
    pub stuck_cell_prob: f64,
    /// Wear-region cell-write count after which stuck-at faults can
    /// trigger. Lines in younger regions never stick.
    pub stuck_wear_threshold: u64,
    /// Cycles between the starts of successive brownout windows
    /// (0 disables brownouts).
    pub brownout_period: u64,
    /// Length of each brownout window in cycles (0 disables brownouts;
    /// must be shorter than the period).
    pub brownout_duration: u64,
    /// Fraction of every token budget that stays usable during a brownout.
    pub brownout_budget_scale: f64,
    /// Maximum controller retries of a failed round before the line is
    /// remapped and the write degrades to SLC.
    pub max_retries: u8,
    /// Base backoff before the first retry, in cycles; doubles on each
    /// further retry of the same round.
    pub retry_backoff_cycles: u64,
    /// Watchdog limit on total write iterations (original + retried) a
    /// single line write may consume before it is forcibly terminated
    /// (0 disables the watchdog).
    pub watchdog_iterations: u32,
    /// Consecutive browned-out cycles after which the controller enters
    /// `DegradedMode` and commits writes in SLC form (0 = never degrade).
    pub degraded_after_cycles: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            verify_fail_prob: 0.0,
            stuck_cell_prob: 0.0,
            stuck_wear_threshold: 0,
            brownout_period: 0,
            brownout_duration: 0,
            brownout_budget_scale: 0.5,
            max_retries: 3,
            retry_backoff_cycles: 1000,
            watchdog_iterations: 256,
            degraded_after_cycles: 0,
        }
    }
}

impl FaultConfig {
    /// True when any fault *injection* is configured. Recovery knobs alone
    /// (retries, watchdog) do not count: with nothing injected they are
    /// unreachable.
    pub fn any_injection_enabled(&self) -> bool {
        self.verify_fail_prob > 0.0 || self.stuck_cell_prob > 0.0 || self.brownouts_enabled()
    }

    /// True when periodic brownout windows are configured.
    pub fn brownouts_enabled(&self) -> bool {
        self.brownout_period > 0 && self.brownout_duration > 0
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, p) in [
            ("faults.verify_fail_prob", self.verify_fail_prob),
            ("faults.stuck_cell_prob", self.stuck_cell_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::new(field, "must be a probability in [0, 1]"));
            }
        }
        if !(0.0..=1.0).contains(&self.brownout_budget_scale) {
            return Err(ConfigError::new(
                "faults.brownout_budget_scale",
                "must be in [0, 1]",
            ));
        }
        if self.brownout_duration > 0 && self.brownout_period == 0 {
            return Err(ConfigError::new(
                "faults.brownout_period",
                "must be nonzero when a brownout duration is set",
            ));
        }
        if self.brownout_period > 0 && self.brownout_duration >= self.brownout_period {
            return Err(ConfigError::new(
                "faults.brownout_duration",
                "must be shorter than the brownout period",
            ));
        }
        if self.stuck_cell_prob > 0.0 && self.stuck_wear_threshold == 0 {
            return Err(ConfigError::new(
                "faults.stuck_wear_threshold",
                "must be nonzero when stuck-at injection is enabled",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let cfg = SystemConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.cache.l1_kib, 32);
        assert_eq!(cfg.cache.l2_kib, 2048);
        assert_eq!(cfg.cache.l3_mib_per_core, 32);
        assert_eq!(cfg.cache.l3_line_bytes, 256);
        assert_eq!(cfg.queues.read_entries, 24);
        assert_eq!(cfg.queues.write_entries, 24);
        assert_eq!(cfg.pcm.capacity_gib, 4);
        assert_eq!(cfg.pcm.banks, 8);
        assert_eq!(cfg.pcm.chips, 8);
        assert_eq!(cfg.pcm.read_cycles, 1000);
        assert_eq!(cfg.pcm.reset_cycles, 500);
        assert_eq!(cfg.pcm.set_cycles, 1000);
        assert_eq!(cfg.pcm.compare_read_cycles, 500);
        assert_eq!(cfg.power.pt_dimm, 560);
        assert_eq!(cfg.power.e_lcp, 0.95);
    }

    #[test]
    fn write_model_means_match_paper() {
        let m = MlcWriteModel::default();
        assert_eq!(m.l00.mean_iterations(), 1.0);
        assert_eq!(m.l11.mean_iterations(), 2.0);
        assert!((m.l01.mean_iterations() - 8.0).abs() < 0.05);
        assert!((m.l10.mean_iterations() - 6.0).abs() < 0.05);
    }

    #[test]
    fn pt_lcp_matches_eq4() {
        let p = PowerConfig::default();
        // PT_LCP = 560 * 0.95 / 8 = 66.5 tokens.
        assert_eq!(p.pt_lcp_millis(8), 66_500);
    }

    #[test]
    fn sweep_helpers() {
        let cfg = SystemConfig::default()
            .with_line_bytes(128)
            .with_llc_mib(16)
            .with_write_queue(48)
            .with_pt_dimm(466)
            .with_gcp_efficiency(0.5)
            .with_seed(7);
        cfg.validate().unwrap();
        assert_eq!(cfg.pcm.line_bytes, 128);
        assert_eq!(cfg.cache.l3_line_bytes, 128);
        assert_eq!(cfg.cache.l3_mib_per_core, 16);
        assert_eq!(cfg.queues.write_entries, 48);
        assert_eq!(cfg.power.pt_dimm, 466);
        assert_eq!(cfg.power.e_gcp, 0.5);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn derived_geometry() {
        let pcm = PcmConfig::default();
        assert_eq!(pcm.cells_per_line(), 1024);
        assert_eq!(pcm.cells_per_chip_per_line(), 128);
        assert_eq!(pcm.total_lines(), 4 * (1 << 30) / 256);
        let slc = PcmConfig {
            bits_per_cell: 1,
            ..PcmConfig::default()
        };
        assert_eq!(slc.cells_per_line(), 2048);
    }

    #[test]
    fn rejects_bad_configs() {
        let mut c = SystemConfig::default();
        c.pcm.banks = 0;
        assert_eq!(c.validate().unwrap_err().field(), "pcm.banks");

        let mut c = SystemConfig::default();
        c.pcm.banks = 65;
        assert_eq!(c.validate().unwrap_err().field(), "pcm.banks");
        c.pcm.banks = 64;
        assert!(c.validate().is_ok(), "64 banks fit the snapshot mask");

        let mut c = SystemConfig::default();
        c.pcm.line_bytes = 100;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::default();
        c.power.e_gcp = 1.5;
        assert_eq!(c.validate().unwrap_err().field(), "power.e_gcp");

        let mut c = SystemConfig::default();
        c.pcm.line_bytes = 128; // now != l3 line size
        assert_eq!(c.validate().unwrap_err().field(), "pcm.line_bytes");

        let mut c = SystemConfig::default();
        c.pcm.bits_per_cell = 3;
        assert!(c.validate().is_err());

        let c = SystemConfig {
            cores: 0,
            ..SystemConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().field(), "cores");
    }

    #[test]
    fn rejects_cache_geometry_the_caches_cannot_build() {
        let mut c = SystemConfig::default();
        c.cache.l1_kib = 1;
        c.cache.l1_ways = 32; // 64 B x 32 ways = 2 KiB > 1 KiB
        assert_eq!(c.validate().unwrap_err().field(), "cache.l1_kib");

        let mut c = SystemConfig::default();
        c.cache.l2_ways = 3; // 2048 KiB is not a multiple of 192 B
        assert_eq!(c.validate().unwrap_err().field(), "cache.l2_kib");

        let c = SystemConfig::default()
            .with_llc_mib(1)
            .with_line_bytes(262_144);
        assert_eq!(c.validate().unwrap_err().field(), "cache.l3_mib_per_core");
        let c = SystemConfig::default().with_llc_mib(3);
        assert!(c.validate().is_ok(), "set counts need not be powers of two");

        let mut c = SystemConfig::default();
        c.cache.l12_line_bytes = 2;
        assert_eq!(c.validate().unwrap_err().field(), "cache.l12_line_bytes");
        c.cache.l12_line_bytes = 4;
        assert!(c.validate().is_ok());
        let c = SystemConfig::default().with_line_bytes(2);
        assert_eq!(c.validate().unwrap_err().field(), "cache.l3_line_bytes");
    }

    #[test]
    fn fault_config_validation() {
        let mut c = SystemConfig::default();
        assert!(!c.faults.any_injection_enabled());
        c.validate().unwrap();

        c.faults.verify_fail_prob = 1.5;
        assert_eq!(c.validate().unwrap_err().field(), "faults.verify_fail_prob");

        let mut c = SystemConfig::default();
        c.faults.brownout_period = 100;
        c.faults.brownout_duration = 100;
        assert_eq!(
            c.validate().unwrap_err().field(),
            "faults.brownout_duration"
        );
        c.faults.brownout_duration = 40;
        c.validate().unwrap();
        assert!(c.faults.brownouts_enabled());
        assert!(c.faults.any_injection_enabled());

        let mut c = SystemConfig::default();
        c.faults.stuck_cell_prob = 0.2;
        assert_eq!(
            c.validate().unwrap_err().field(),
            "faults.stuck_wear_threshold"
        );
        c.faults.stuck_wear_threshold = 10_000;
        c.validate().unwrap();
    }

    #[test]
    fn rejects_bad_level_model() {
        let mut c = SystemConfig::default();
        c.pcm.write_model.l01 = MlcLevelModel::Fixed(0);
        assert!(c.validate().is_err());
        c.pcm.write_model.l01 = MlcLevelModel::TwoPhase {
            fast_fraction: 1.5,
            fast_mean: 1.0,
            fast_std: 0.0,
            slow_mean: 1.0,
            slow_std: 0.0,
            min: 1,
            max: 2,
        };
        assert!(c.validate().is_err());
    }
}
