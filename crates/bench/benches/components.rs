//! Criterion microbenchmarks of the simulator's hot paths: cache lookups,
//! MLC line-write construction/advancement, token-ledger grants, and
//! trace generation. These guard the simulator's own performance — a run
//! regenerating all figures makes hundreds of millions of these calls.

// Bench-only target: unwrap on known-good fixtures is the clearest failure mode.
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fpb_cache::SetAssocCache;
use fpb_core::{Ledger, PowerManager, PowerPolicyConfig, WriteId};
use fpb_pcm::{
    CellMapping, ChangeSet, DimmGeometry, IterationSampler, LineWrite, MlcLevel, WriteBufferPool,
};
use fpb_trace::{catalog, CoreTraceGenerator};
use fpb_types::{MlcWriteModel, PowerConfig, SimRng, Tokens};

fn bench_cache(c: &mut Criterion) {
    let mut cache = SetAssocCache::new(32 << 20, 256, 8).expect("cache");
    let mut addr: u64 = 0;
    c.bench_function("cache/access_streaming", |b| {
        b.iter(|| {
            addr = addr.wrapping_add(256) & ((1 << 30) - 1);
            black_box(cache.access(black_box(addr), addr.is_multiple_of(3)))
        })
    });
}

fn bench_line_write(c: &mut Criterion) {
    let geom = DimmGeometry::new(8, 1024);
    let sampler = IterationSampler::new(MlcWriteModel::default());
    let changes: ChangeSet = (0..256u32).map(|i| (i * 4, MlcLevel::L01)).collect();
    let mut rng = SimRng::seed_from(42);
    c.bench_function("pcm/line_write_construct", |b| {
        b.iter(|| {
            black_box(LineWrite::new(
                black_box(&changes),
                &geom,
                CellMapping::Bim,
                &sampler,
                &mut rng,
                1,
            ))
        })
    });
    c.bench_function("pcm/line_write_drive", |b| {
        b.iter(|| {
            let mut w = LineWrite::new(&changes, &geom, CellMapping::Bim, &sampler, &mut rng, 1);
            while let Some(d) = w.next_demand() {
                black_box(d.active_cells);
                w.advance();
            }
        })
    });
}

fn bench_ledger(c: &mut Criterion) {
    let mut ledger = Ledger::with_chips(560, 8, 66_500, 0.95, Some((0.7, 66_500)));
    let demand: Vec<Tokens> = (0..8).map(|i| Tokens::from_cells(4 + i)).collect();
    c.bench_function("core/ledger_grant_release", |b| {
        b.iter(|| {
            let g = ledger.try_grant_chips(black_box(&demand)).expect("fits");
            ledger.release(&g).unwrap();
        })
    });

    // Same ledger shape, but chip 0 is pinned near empty so its demand
    // must route through the GCP — this drives phase 2's headroom
    // ordering, the one grant path that allocated per call before the
    // ledger grew reusable scratch buffers.
    let mut ledger = Ledger::with_chips(560, 8, 66_500, 0.95, Some((0.7, 66_500)));
    let mut pin = vec![Tokens::ZERO; 8];
    pin[0] = Tokens::from_cells(60); // chip budget is 66.5 cells
    let _hold = ledger.try_grant_chips(&pin).expect("pin fits");
    let mut demand: Vec<Tokens> = (0..8).map(|i| Tokens::from_cells(2 + i)).collect();
    demand[0] = Tokens::from_cells(16); // exceeds chip 0's remaining headroom
    c.bench_function("core/ledger_grant_gcp_borrow", |b| {
        b.iter(|| {
            let g = ledger.try_grant_chips(black_box(&demand)).expect("fits via GCP");
            ledger.release(&g).unwrap();
        })
    });

    let geom = DimmGeometry::new(8, 1024);
    let sampler = IterationSampler::new(MlcWriteModel::default());
    let changes: ChangeSet = (0..128u32).map(|i| (i * 8 % 1024, MlcLevel::L10)).collect();
    let mut rng = SimRng::seed_from(3);
    c.bench_function("core/power_manager_write_lifecycle", |b| {
        let cfg = PowerPolicyConfig::fpb(&PowerConfig::default(), 8);
        let mut pm = PowerManager::new(cfg, &geom);
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let id = WriteId::new(n);
            let mut w =
                LineWrite::new(&changes, &geom, CellMapping::Bim, &sampler, &mut rng, 1);
            assert!(pm.try_admit(id, &mut w));
            while {
                w.advance();
                !w.is_complete()
            } {
                assert!(pm.try_advance(id, &w));
            }
            pm.release(id);
        })
    });
}

fn bench_trace(c: &mut Criterion) {
    let profile = catalog::program("C.mcf").expect("profile");
    let mut rng = SimRng::seed_from(7);
    let mut gen = CoreTraceGenerator::new(profile.clone(), &mut rng);
    c.bench_function("trace/next_op", |b| b.iter(|| black_box(gen.next_op())));

    let data = profile.data;
    let mut rng = SimRng::seed_from(8);
    c.bench_function("trace/sample_change_set_256B", |b| {
        b.iter(|| black_box(data.sample_change_set(256, &mut rng)))
    });
}

/// Word-level change sampling vs the retained per-bit reference.
fn bench_change_sampling(c: &mut Criterion) {
    let data = catalog::program("C.mcf").expect("profile").data;

    let mut rng = SimRng::seed_from(0xDA7A);
    let mut out = ChangeSet::empty();
    c.bench_function("trace/change_sampling_words", |b| {
        b.iter(|| {
            data.sample_change_set_into(256, &mut rng, &mut out);
            black_box(out.len())
        })
    });

    let mut rng = SimRng::seed_from(0xDA7A);
    c.bench_function("trace/change_sampling_perbit_reference", |b| {
        b.iter(|| black_box(data.sample_change_set_reference(256, &mut rng)))
    });
}

/// Pooled `LineWrite` construction vs fresh allocation per write.
fn bench_line_write_pooled(c: &mut Criterion) {
    let geom = DimmGeometry::new(8, 1024);
    let sampler = IterationSampler::new(MlcWriteModel::default());
    let cells: Vec<(u32, MlcLevel)> = (0..256u32).map(|i| (i * 4, MlcLevel::L01)).collect();

    let mut pool = WriteBufferPool::new();
    let mut rng = SimRng::seed_from(0x9C3);
    c.bench_function("pcm/line_write_pooled", |b| {
        b.iter(|| {
            let w = pool.build(&cells, &geom, CellMapping::Bim, &sampler, &mut rng, 1);
            let iters = w.total_iterations();
            pool.recycle(w);
            black_box(iters)
        })
    });

    let mut rng = SimRng::seed_from(0x9C3);
    c.bench_function("pcm/line_write_fresh", |b| {
        b.iter(|| {
            black_box(LineWrite::from_cells(
                &cells,
                &geom,
                CellMapping::Bim,
                &sampler,
                &mut rng,
                1,
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_cache,
    bench_line_write,
    bench_line_write_pooled,
    bench_ledger,
    bench_trace,
    bench_change_sampling
);
criterion_main!(benches);
