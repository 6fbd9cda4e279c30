//! What the benchmark measures: its workloads, its end-to-end metrics,
//! its per-layer metrics, and which end-to-end metric each layer metric
//! should move on which workload. `BENCHMARK.json` at the repository root
//! repeats the names, units and directions (the schema test holds the two
//! in step) and adds the regression bounds.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, work done).
    Lower,
    /// Larger is better (throughputs, useful-outcome ratios).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and direction. `README.md` defines each.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// `BENCHMARK.json` name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

/// A per-layer metric plus the `(end-to-end metric, workload)` pairs a
/// change to it should move. An empty list means it moves nothing today.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// The metric itself (named `<layer>.<metric>`).
    pub metric: MetricDef,
    /// End-to-end metric and workload it should move.
    pub moves: &'static [(&'static str, &'static str)],
}

/// The four workloads, in run order, with why each exists.
pub static WORKLOADS: [(&str, &str); 4] = [
    (
        "figure_matrix",
        "13 Table-2 traces x DIMM+chip/FPB at 120k instr/core: LLC warm-up dominates, so set-up work shows",
    ),
    (
        "power_bound",
        "mum_m, the highest-WPKI trace, at 10M instr/core: change sampling, line-write builds and token admission carry it",
    ),
    (
        "compute_bound",
        "xal_m at 0.07 WPKI and 100M instr/core: stepper and trace front end busy, write path and ledger idle",
    ),
    (
        "sweep_grid",
        "36-point line x PT_DIMM x E_GCP grid on mcf_m, supervised with dedup, journal and result cache, cold then warm",
    ),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
) -> LayerDef {
    LayerDef {
        metric: m(name, unit, better),
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: host time, throughput and memory of the simulator,
/// plus the simulated results a user reads off a run.
#[rustfmt::skip]
pub static END_TO_END: [MetricDef; 8] = [
    m("wall_s", "s", Lower),
    m("setup_s", "s", Lower),
    m("sim_instr_per_s", "instr/s", Higher),
    m("points_per_s", "points/s", Higher),
    m("peak_rss_mib", "MiB", Lower),
    m("sim_cycles", "cycles", Lower),
    m("fpb_speedup", "x", Higher),
    m("fpb_write_throughput", "x", Higher),
];

const WALL_COMPUTE: &[(&str, &str)] = &[("wall_s", "compute_bound")];
const WALL_POWER: &[(&str, &str)] = &[("wall_s", "power_bound")];
const WALL_SWEEP: &[(&str, &str)] = &[("wall_s", "sweep_grid")];
const SETUP_MATRIX: &[(&str, &str)] = &[("setup_s", "figure_matrix")];
const POINTS_SWEEP: &[(&str, &str)] = &[("points_per_s", "sweep_grid")];

/// Per-layer metrics from the traced pass. Counts come from a counting
/// event sink; host times per call come from replaying the layer's public
/// functions on the workload's own inputs. Idle layers report 0.
#[rustfmt::skip]
pub static PER_LAYER: [LayerDef; 44] = [
    l("trace.ops", "count", Lower, WALL_COMPUTE),
    l("trace.gen_ns_per_op", "ns", Lower, WALL_COMPUTE),
    l("trace.lines_sampled", "count", Lower, WALL_POWER),
    l("trace.sample_ns_per_line", "ns", Lower, WALL_POWER),
    l("cache.warm_s", "s", Lower, SETUP_MATRIX),
    l("cache.warm_accesses", "count", Lower, SETUP_MATRIX),
    l("cache.access_ns", "ns", Lower, WALL_COMPUTE),
    l("cache.llc_hit_ratio", "ratio", Higher, WALL_COMPUTE),
    l("pcm.builds", "count", Lower, WALL_POWER),
    l("pcm.build_ns", "ns", Lower, WALL_POWER),
    l("pcm.cells_per_build", "cells", Lower, WALL_POWER),
    l("core.admit_attempts", "count", Lower, WALL_POWER),
    l("core.admit_success_ratio", "ratio", Higher, WALL_POWER),
    l("core.advance_attempts", "count", Lower, WALL_POWER),
    l("core.advance_stalls", "count", Lower, WALL_POWER),
    l("core.releases", "count", Lower, WALL_POWER),
    l("core.gcp_grants", "count", Lower, WALL_POWER),
    l("core.admit_fail_ns", "ns", Lower, WALL_POWER),
    l("core.admit_ok_ns", "ns", Lower, WALL_POWER),
    l("engine.steps", "count", Lower, WALL_COMPUTE),
    l("engine.ns_per_step", "ns", Lower, WALL_COMPUTE),
    l("engine.events", "count", Lower, WALL_COMPUTE),
    l("engine.construct_s", "s", Lower, SETUP_MATRIX),
    l("engine.self_s", "s", Lower, WALL_COMPUTE),
    l("inspect.sink_overhead_ratio", "ratio", Lower, &[]),
    l("inspect.encode_ns_per_event", "ns", Lower, &[]),
    l("inspect.decode_ns_per_event", "ns", Lower, &[]),
    l("inspect.bytes_per_event", "B", Lower, &[]),
    l("sweep.runs_total", "count", Lower, POINTS_SWEEP),
    l("sweep.runs_unique", "count", Lower, POINTS_SWEEP),
    l("sweep.dedup_ratio", "ratio", Higher, POINTS_SWEEP),
    l("sweep.warm_sets", "count", Lower, POINTS_SWEEP),
    l("sweep.sim_s", "s", Lower, POINTS_SWEEP),
    l("sweep.self_s", "s", Lower, POINTS_SWEEP),
    l("journal.records", "count", Lower, WALL_SWEEP),
    l("journal.bytes", "B", Lower, WALL_SWEEP),
    l("journal.append_ms_per_record", "ms", Lower, WALL_SWEEP),
    l("resultcache.entries", "count", Lower, WALL_SWEEP),
    l("resultcache.bytes", "B", Lower, WALL_SWEEP),
    l("resultcache.load_s", "s", Lower, WALL_SWEEP),
    l("resultcache.save_s", "s", Lower, WALL_SWEEP),
    l("resultcache.warm_hits", "count", Higher, WALL_SWEEP),
    l("resultcache.warm_simulated", "count", Lower, WALL_SWEEP),
    l("resultcache.warm_wall_s", "s", Lower, WALL_SWEEP),
];

/// FNV-1a-64 digests of every run's `Metrics::to_json` (the sweep's
/// `SweepRun::to_json` for `sweep_grid`) at the default seed and scale 1.
/// A change that alters simulated results must update these; run
/// `fpb-perf run <workload> --passes 1` to print the new value.
pub const PINNED_DIGESTS: [(&str, &str); 4] = [
    ("figure_matrix", "c5eeb1a55388495b"),
    ("power_bound", "6df078151d3e0cd3"),
    ("compute_bound", "362be57edc4a4ea4"),
    ("sweep_grid", "efa23ec5ac7b42be"),
];

/// The end-to-end metric named `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|d| d.name == name)
}

/// The metric (end-to-end or per-layer) named `name`.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    end_to_end(name).or_else(|| PER_LAYER.iter().map(|d| &d.metric).find(|d| d.name == name))
}
