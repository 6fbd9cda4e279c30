//! The traced pass: per-layer work counts from a counting event sink, and
//! host time per call from replaying each layer's public functions on the
//! workload's own inputs.

use std::collections::VecDeque;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use fpb_core::{PowerManager, WriteId};
use fpb_pcm::{ChangeSet, DimmGeometry, IterationSampler, LineWrite, WriteBufferPool};
use fpb_sim::engine::warm_cores;
use fpb_sim::frontend::CoreState;
use fpb_sim::inspect::{read_event_log, EventLogWriter};
use fpb_sim::journal::{read_journal, JournalWriter};
use fpb_sim::{LifecycleEvent, Metrics, ResultCache, Scheme, SchemeSetup, System};
use fpb_types::{Cycles, SimRng, SystemConfig};

use crate::pass::{cache_file, cold_journal, digest_runs, run_pass, secs, step_all, PassResult};
use crate::plan::{Kind, Plan};
use crate::sink::CountingSink;

/// Most change sets (and line writes, and admissions) replayed per run.
const REPLAY_CAP: u64 = 20_000;
/// Fewest replayed per run, so idle layers still get a per-call time.
const REPLAY_MIN: u64 = 256;
/// Events kept per run for the codec replays.
const EVENT_SAMPLE: usize = 20_000;

/// One traced pass's per-layer values, in `PER_LAYER` order, plus the
/// checks it made.
#[derive(Debug, Clone, Default)]
pub struct TracedPass {
    /// `(metric name, value)` for every per-layer metric.
    pub values: Vec<(&'static str, f64)>,
    /// Simulations attempted.
    pub attempted: u64,
    /// Failed simulations and failed cross-checks.
    pub failures: Vec<String>,
    /// Digest of the untraced results, in run order (matrix workloads).
    pub digest: u64,
}

/// Host time and work of replaying the front end over a warm set.
#[derive(Debug, Default, Clone, Copy)]
struct Frontend {
    ops: u64,
    gen_s: f64,
    access_s: f64,
    hits: u64,
}

impl Frontend {
    fn add(&mut self, o: &Frontend) {
        self.ops += o.ops;
        self.gen_s += o.gen_s;
        self.access_s += o.access_s;
        self.hits += o.hits;
    }
}

/// Replays each warmed core's exact operation stream for its budget:
/// once generating only, once generating and accessing the LLC. The
/// engine drives cores through the same three calls, and a core's stream
/// does not depend on timing, so the counts are the run's own.
fn replay_frontend(cores: &[CoreState], target: u64) -> Frontend {
    let mut f = Frontend::default();
    for core in cores {
        let mut c = core.clone();
        let t = Instant::now();
        while let Some(op) = c.take_op() {
            black_box(op);
            f.ops += 1;
            c.schedule_next(Cycles::ZERO, target);
        }
        let gen = secs(t);
        let mut c = core.clone();
        let hits_before = c.llc_stats().hits();
        let t = Instant::now();
        while let Some(op) = c.take_op() {
            black_box(c.llc_access(op.addr, op.is_write));
            c.schedule_next(Cycles::ZERO, target);
        }
        let full = secs(t);
        f.gen_s += gen;
        f.access_s += full - gen;
        f.hits += c.llc_stats().hits() - hits_before;
    }
    f
}

/// Host time and call counts of the write-path replays for one run.
#[derive(Debug, Default, Clone, Copy)]
struct WritePath {
    samples: u64,
    sample_s: f64,
    builds: u64,
    build_s: f64,
    ok: u64,
    ok_s: f64,
    refused: u64,
    refused_s: f64,
}

/// Median cost of an empty `Instant` measurement, subtracted from the
/// per-call admission timings.
fn timer_floor() -> f64 {
    let mut xs: Vec<Duration> = (0..1001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed()
        })
        .collect();
    xs.sort();
    xs[xs.len() / 2].as_secs_f64()
}

/// Replays the write path of one run `n` times: change sampling with the
/// cores' data profiles, pooled line-write builds, and token admission
/// against a fresh power manager holding at most one write per bank.
fn replay_write_path(
    cores: &[CoreState],
    cfg: &SystemConfig,
    setup: &SchemeSetup,
    n: u64,
) -> WritePath {
    let mut wp = WritePath::default();
    let geom = DimmGeometry::new(cfg.pcm.chips, cfg.pcm.cells_per_line());
    let sampler = IterationSampler::new(setup.iteration_model(&cfg.pcm.write_model));
    let mapping = setup.map_line();
    let mut rng = SimRng::seed_from(cfg.seed).fork(0xBE7C);
    let n = n as usize;
    let mut sets = vec![ChangeSet::empty(); n];
    let profile = |k: usize| cores[k % cores.len()].data_profile();
    // The engine samples into pooled, already-grown sets: grow them first.
    for (k, cs) in sets.iter_mut().enumerate() {
        profile(k).sample_change_set_into(cfg.pcm.line_bytes, &mut rng, cs);
    }
    let t = Instant::now();
    for (k, cs) in sets.iter_mut().enumerate() {
        profile(k).sample_change_set_into(cfg.pcm.line_bytes, &mut rng, cs);
    }
    wp.sample_s = secs(t);
    wp.samples = n as u64;

    let mut pool = WriteBufferPool::new();
    let build = |pool: &mut WriteBufferPool, rng: &mut SimRng, k: usize| -> LineWrite {
        pool.build(sets[k % n].cells(), &geom, mapping, &sampler, rng, 1)
    };
    for k in 0..n.min(64) {
        let w = build(&mut pool, &mut rng, k);
        pool.recycle(w);
    }
    let t = Instant::now();
    for k in 0..n {
        let w = build(&mut pool, &mut rng, k);
        pool.recycle(black_box(w));
    }
    wp.build_s = secs(t);
    wp.builds = n as u64;

    let floor = timer_floor();
    let mut pm = PowerManager::new(setup.policy().clone(), &geom);
    let mut held: VecDeque<WriteId> = VecDeque::new();
    let mut pending: Option<(WriteId, LineWrite)> = None;
    let mut refusals_in_row = 0;
    for k in 0..n {
        let (id, mut w) = match pending.take() {
            Some(p) => p,
            None => (WriteId::new(k as u64 + 1), build(&mut pool, &mut rng, k)),
        };
        let t = Instant::now();
        let ok = pm.try_admit(id, &mut w);
        let dt = (secs(t) - floor).max(0.0);
        if ok {
            wp.ok += 1;
            wp.ok_s += dt;
            held.push_back(id);
            pool.recycle(w);
            if held.len() >= usize::from(cfg.pcm.banks) {
                if let Some(old) = held.pop_front() {
                    pm.release(old);
                }
            }
        } else {
            // Retry the same write a few times, as a queue head is
            // retried, before a bank finishes and frees its tokens.
            wp.refused += 1;
            wp.refused_s += dt;
            refusals_in_row += 1;
            if refusals_in_row >= 4 {
                refusals_in_row = 0;
                if let Some(old) = held.pop_front() {
                    pm.release(old);
                }
            }
            pending = Some((id, w));
        }
    }
    wp
}

/// Host time of encoding and decoding `events`; `false` if any event
/// fails to round-trip.
fn replay_codec(events: &[LifecycleEvent]) -> (f64, f64, bool) {
    let t = Instant::now();
    let lines: Vec<String> = events.iter().map(LifecycleEvent::encode).collect();
    let encode_s = secs(t);
    let t = Instant::now();
    let decoded: Vec<Option<LifecycleEvent>> =
        lines.iter().map(|l| LifecycleEvent::decode(l)).collect();
    let decode_s = secs(t);
    let exact = decoded
        .iter()
        .zip(events)
        .all(|(d, e)| d.as_ref() == Some(e));
    (encode_s, decode_s, exact)
}

/// Writes `events` through an `EventLogWriter`, reads them back with
/// `read_event_log`, and returns the file's bytes per event.
fn log_bytes_per_event(events: &[LifecycleEvent], path: &Path) -> Result<f64, String> {
    let mut w = EventLogWriter::create(path, "fpb-perf sample").map_err(|e| e.to_string())?;
    for ev in events {
        w.append(ev).map_err(|e| e.to_string())?;
    }
    w.finish().map_err(|e| e.to_string())?;
    let bytes = fs::metadata(path).map_err(|e| e.to_string())?.len();
    let log = read_event_log(path).map_err(|e| e.to_string())?;
    if !log.complete || log.events != events {
        return Err("event log did not read back what was written".to_string());
    }
    Ok(bytes as f64 / events.len().max(1) as f64)
}

/// Running sums over the runs of a traced pass.
#[derive(Debug, Default)]
struct Totals {
    /// Trace operations the runs consume (each run replays its warm
    /// set's stream).
    trace_ops: u64,
    /// Front-end replays, once per warm set.
    fe: Frontend,
    warm_s: f64,
    warm_accesses: u64,
    construct_s: f64,
    step_s: f64,
    traced_step_s: f64,
    estimate_s: f64,
    sink: CountingSink,
    wp: WritePath,
    encode_s: f64,
    decode_s: f64,
    coded_events: u64,
    bytes_per_event: f64,
}

impl Totals {
    fn add_sink(&mut self, s: &CountingSink) {
        let t = &mut self.sink;
        t.events += s.events;
        t.steps += s.steps;
        t.writes_created += s.writes_created;
        t.rounds_built += s.rounds_built;
        t.admit_ok += s.admit_ok;
        t.admit_refused += s.admit_refused;
        t.advance_attempts += s.advance_attempts;
        t.advance_stalls += s.advance_stalls;
        t.releases += s.releases;
        t.rounds_closed += s.rounds_closed;
        t.writes_closed += s.writes_closed;
        t.cells_closed += s.cells_closed;
        t.gcp_grants += s.gcp_grants;
    }

    fn add_write_path(&mut self, w: &WritePath) {
        let t = &mut self.wp;
        t.samples += w.samples;
        t.sample_s += w.sample_s;
        t.builds += w.builds;
        t.build_s += w.build_s;
        t.ok += w.ok;
        t.ok_s += w.ok_s;
        t.refused += w.refused;
        t.refused_s += w.refused_s;
    }
}

/// `num / den`, or 0 when nothing was counted.
fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Runs every simulation of `plan` untraced and then traced, cross-checks
/// the traced counts against `Metrics`, and replays each layer.
fn traced_runs(plan: &Plan, dir: &Path, tp: &mut TracedPass) -> (Totals, Vec<Option<Metrics>>) {
    let mut tot = Totals::default();
    let mut results: Vec<Option<Metrics>> = vec![None; plan.runs.len()];
    for (w, set) in plan.warm_sets.iter().enumerate() {
        let t = Instant::now();
        let cores = warm_cores(&set.trace, &set.cfg, &plan.opts);
        tot.warm_s += secs(t);
        tot.warm_accesses += cores.iter().map(|c| c.llc_stats().accesses()).sum::<u64>();
        let fe = replay_frontend(&cores, plan.opts.instructions_per_core);
        tot.fe.add(&fe);
        let (gen_ns, access_ns) = (per(fe.gen_s, fe.ops), per(fe.access_s, fe.ops));
        for r in plan.runs_of(w) {
            let run = &plan.runs[r];
            let label = format!("{} {}", set.trace.name, run.setup.label);
            tp.attempted += 1;
            tot.trace_ops += fe.ops;
            let t = Instant::now();
            let mut sys =
                System::with_cores(&set.trace, &run.cfg, &run.setup, &plan.opts, cores.clone());
            tot.construct_s += secs(t);
            let t = Instant::now();
            let stepped = step_all(&mut sys);
            let step_s = secs(t);
            let plain = match stepped {
                Ok(()) => sys.finish(),
                Err(e) => {
                    tp.failures.push(format!("{label}: {e}"));
                    continue;
                }
            };
            let sink = CountingSink::new(EVENT_SAMPLE);
            let mut sys = System::with_cores_and_sink(
                &set.trace,
                &run.cfg,
                &run.setup,
                &plan.opts,
                cores.clone(),
                sink,
            );
            let t = Instant::now();
            let stepped = step_all(&mut sys);
            tot.traced_step_s += secs(t);
            if let Err(e) = stepped {
                tp.failures.push(format!("{label} (traced): {e}"));
                continue;
            }
            let (traced, sink) = sys.finish_with_sink();
            if traced != plain {
                tp.failures
                    .push(format!("{label}: the counting sink changed the results"));
            }
            if let Err(e) = sink.cross_check(&plain) {
                tp.failures.push(format!("{label}: {e}"));
            }
            let wp = replay_write_path(
                &cores,
                &run.cfg,
                &run.setup,
                sink.writes_created.clamp(REPLAY_MIN, REPLAY_CAP),
            );
            let (encode_s, decode_s, exact) = replay_codec(&sink.sample);
            if !exact {
                tp.failures
                    .push(format!("{label}: an event failed to round-trip its codec"));
            }
            if tot.coded_events == 0 {
                match log_bytes_per_event(&sink.sample, &dir.join("sample.fpbi")) {
                    Ok(b) => tot.bytes_per_event = b,
                    Err(e) => tp.failures.push(format!("{label}: event log: {e}")),
                }
            }
            tot.encode_s += encode_s;
            tot.decode_s += decode_s;
            tot.coded_events += sink.sample.len() as u64;
            tot.step_s += step_s;
            tot.estimate_s += fe.ops as f64 * (gen_ns + access_ns)
                + sink.writes_created as f64 * per(wp.sample_s, wp.samples)
                + sink.rounds_built as f64 * per(wp.build_s, wp.builds)
                + sink.admit_ok as f64 * per(wp.ok_s, wp.ok)
                + sink.admit_refused as f64 * per(wp.refused_s, wp.refused);
            tot.add_sink(&sink);
            tot.add_write_path(&wp);
            results[r] = Some(plain);
        }
    }
    (tot, results)
}

/// Sweep-layer values of a traced `sweep_grid` pass.
#[derive(Debug, Default)]
struct SweepLayers {
    runs_total: f64,
    runs_unique: f64,
    dedup_ratio: f64,
    warm_sets: f64,
    sim_s: f64,
    self_s: f64,
    records: f64,
    journal_bytes: f64,
    append_ms: f64,
    entries: f64,
    cache_bytes: f64,
    load_s: f64,
    save_s: f64,
    warm_hits: f64,
    warm_simulated: f64,
    warm_wall_s: f64,
}

fn sweep_layers(
    plan: &Plan,
    dir: &Path,
    pass: &PassResult,
    tot: &Totals,
    standalone: &[Option<Metrics>],
    tp: &mut TracedPass,
) -> Result<SweepLayers, String> {
    let (cold, warm) = pass.reuse.ok_or("the sweep did not finish")?;
    // The standalone units must reproduce every grid point exactly.
    for (gi, (&(b, s), (base, scheme))) in plan.grid_points.iter().zip(&pass.pairs).enumerate() {
        if standalone[b].as_ref() != Some(base) || standalone[s].as_ref() != Some(scheme) {
            tp.failures.push(format!(
                "grid point {gi}: standalone run differs from the sweep's"
            ));
        }
    }
    let journal = read_journal(&cold_journal(dir)).map_err(|e| e.to_string())?;
    let replay_path = dir.join("replay.fpbj");
    let mut writer =
        JournalWriter::create(&replay_path, &journal.header).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for rec in &journal.records {
        writer
            .append_record(rec.index, &rec.payload)
            .map_err(|e| e.to_string())?;
    }
    let append_s = secs(t);
    let records = journal.records.len() as u64;

    let cache_path = cache_file(dir);
    let t = Instant::now();
    let cache = ResultCache::load(&cache_path);
    let load_s = secs(t);
    let mut replay = ResultCache::empty(&dir.join("replay.v1"));
    for (run, m) in plan.runs.iter().zip(standalone) {
        if let Some(m) = m {
            replay.insert(run.desc.clone(), m.clone());
        }
    }
    let t = Instant::now();
    replay.save().map_err(|e| e.to_string())?;
    let save_s = secs(t);

    let sim_s = tot.warm_s + tot.construct_s + tot.step_s;
    Ok(SweepLayers {
        runs_total: cold.runs_total as f64,
        runs_unique: cold.runs_unique as f64,
        dedup_ratio: cold.dedup_ratio(),
        warm_sets: plan.warm_sets.len() as f64,
        sim_s,
        self_s: pass.wall_s - sim_s / plan.jobs as f64 - append_s - save_s,
        records: records as f64,
        journal_bytes: journal.valid_bytes as f64,
        append_ms: per(append_s * 1e3, records),
        entries: cache.len() as f64,
        cache_bytes: fs::metadata(&cache_path).map_err(|e| e.to_string())?.len() as f64,
        load_s,
        save_s,
        warm_hits: warm.cache_hits as f64,
        warm_simulated: warm.simulated as f64,
        warm_wall_s: pass.warm_wall_s,
    })
}

/// Runs one traced pass of `plan` in the fresh scratch directory `dir`.
pub fn traced_pass(plan: &Plan, dir: &Path) -> TracedPass {
    let mut tp = TracedPass::default();
    let sweep_pass = (plan.kind == Kind::SweepGrid).then(|| run_pass(plan, dir));
    if let Some(p) = &sweep_pass {
        tp.attempted += p.attempted;
        tp.failures.extend(p.failures.iter().cloned());
    }
    let (tot, results) = traced_runs(plan, dir, &mut tp);
    tp.digest = digest_runs(&results);
    let sw = match &sweep_pass {
        Some(p) => sweep_layers(plan, dir, p, &tot, &results, &mut tp).unwrap_or_else(|e| {
            tp.failures.push(format!("sweep layers: {e}"));
            SweepLayers::default()
        }),
        None => SweepLayers::default(),
    };
    let s = &tot.sink;
    let fe = &tot.fe;
    let wp = &tot.wp;
    let admits = s.admit_ok + s.admit_refused;
    tp.values = vec![
        ("trace.ops", tot.trace_ops as f64),
        ("trace.gen_ns_per_op", per(fe.gen_s * 1e9, fe.ops)),
        ("trace.lines_sampled", s.writes_created as f64),
        (
            "trace.sample_ns_per_line",
            per(wp.sample_s * 1e9, wp.samples),
        ),
        ("cache.warm_s", tot.warm_s),
        ("cache.warm_accesses", tot.warm_accesses as f64),
        ("cache.access_ns", per(fe.access_s * 1e9, fe.ops)),
        ("cache.llc_hit_ratio", per(fe.hits as f64, fe.ops)),
        ("pcm.builds", s.rounds_built as f64),
        ("pcm.build_ns", per(wp.build_s * 1e9, wp.builds)),
        (
            "pcm.cells_per_build",
            per(s.cells_closed as f64, s.rounds_closed),
        ),
        ("core.admit_attempts", admits as f64),
        ("core.admit_success_ratio", per(s.admit_ok as f64, admits)),
        ("core.advance_attempts", s.advance_attempts as f64),
        ("core.advance_stalls", s.advance_stalls as f64),
        ("core.releases", s.releases as f64),
        ("core.gcp_grants", s.gcp_grants as f64),
        ("core.admit_fail_ns", per(wp.refused_s * 1e9, wp.refused)),
        ("core.admit_ok_ns", per(wp.ok_s * 1e9, wp.ok)),
        ("engine.steps", s.steps as f64),
        ("engine.ns_per_step", per(tot.step_s * 1e9, s.steps)),
        ("engine.events", s.events as f64),
        ("engine.construct_s", tot.construct_s),
        ("engine.self_s", tot.step_s - tot.estimate_s),
        (
            "inspect.sink_overhead_ratio",
            if tot.step_s > 0.0 {
                tot.traced_step_s / tot.step_s
            } else {
                0.0
            },
        ),
        (
            "inspect.encode_ns_per_event",
            per(tot.encode_s * 1e9, tot.coded_events),
        ),
        (
            "inspect.decode_ns_per_event",
            per(tot.decode_s * 1e9, tot.coded_events),
        ),
        ("inspect.bytes_per_event", tot.bytes_per_event),
        ("sweep.runs_total", sw.runs_total),
        ("sweep.runs_unique", sw.runs_unique),
        ("sweep.dedup_ratio", sw.dedup_ratio),
        ("sweep.warm_sets", sw.warm_sets),
        ("sweep.sim_s", sw.sim_s),
        ("sweep.self_s", sw.self_s),
        ("journal.records", sw.records),
        ("journal.bytes", sw.journal_bytes),
        ("journal.append_ms_per_record", sw.append_ms),
        ("resultcache.entries", sw.entries),
        ("resultcache.bytes", sw.cache_bytes),
        ("resultcache.load_s", sw.load_s),
        ("resultcache.save_s", sw.save_s),
        ("resultcache.warm_hits", sw.warm_hits),
        ("resultcache.warm_simulated", sw.warm_simulated),
        ("resultcache.warm_wall_s", sw.warm_wall_s),
    ];
    tp
}
