//! Token-conservation tests: drive many concurrent writes through the
//! power manager (as the simulator does) and prove budgets are never
//! exceeded and always fully restored.

use fpb::pcm::{CellMapping, ChangeSet, DimmGeometry, IterationSampler, LineWrite, MlcLevel};
use fpb::power::{PowerManager, PowerPolicyConfig, WriteId};
use fpb::trace::{DataClass, DataProfile};
use fpb::types::{MlcWriteModel, PowerConfig, SimRng, Tokens};

fn geom() -> DimmGeometry {
    DimmGeometry::new(8, 1024)
}

fn sampler() -> IterationSampler {
    IterationSampler::new(MlcWriteModel::default())
}

/// A toy concurrent scheduler: writes progress round-robin one iteration
/// at a time, exactly like banks would, stalling when the manager says so.
fn drive_concurrent(
    pm: &mut PowerManager,
    mut writes: Vec<LineWrite>,
    check: &mut impl FnMut(&PowerManager),
) {
    #[derive(PartialEq)]
    enum Phase {
        Pending,
        Running,
        Stalled,
    }
    let mut state: Vec<(WriteId, Option<LineWrite>, Phase)> = writes
        .drain(..)
        .enumerate()
        .map(|(i, w)| (WriteId::new(i as u64), Some(w), Phase::Pending))
        .collect();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (id, slot, phase) in state.iter_mut() {
            let Some(w) = slot.as_mut() else { continue };
            match phase {
                Phase::Pending => {
                    if pm.try_admit(*id, w) {
                        *phase = Phase::Running;
                        progressed = true;
                    }
                }
                Phase::Stalled => {
                    // A stalled write holds nothing and may not pulse; it
                    // must reacquire tokens before advancing.
                    assert!(!pm.holds_tokens(*id), "stalled write must hold nothing");
                    if pm.try_advance(*id, w) {
                        *phase = Phase::Running;
                        progressed = true;
                    }
                }
                Phase::Running => {
                    w.advance();
                    progressed = true;
                    if w.is_complete() {
                        pm.release(*id);
                        *slot = None;
                    } else if !pm.try_advance(*id, w) {
                        *phase = Phase::Stalled;
                    }
                }
            }
            check(pm);
        }
    }
    assert!(
        state.iter().all(|(_, s, _)| s.is_none()),
        "all writes must eventually complete"
    );
}

fn random_writes(n: usize, seed: u64, max_cells: u32) -> Vec<LineWrite> {
    let g = geom();
    let s = sampler();
    let mut rng = SimRng::seed_from(seed);
    let data = DataProfile::new(DataClass::Integer, 0.5);
    (0..n)
        .map(|_| {
            let mut cs = data.sample_change_set(256, &mut rng);
            if cs.len() as u32 > max_cells {
                cs = cs.iter().take(max_cells as usize).cloned().collect();
            }
            LineWrite::new(&cs, &g, CellMapping::Bim, &s, &mut rng, 1)
        })
        .collect()
}

#[test]
fn dimm_budget_never_exceeded_under_ipm() {
    let power = PowerConfig::default();
    let cfg = PowerPolicyConfig {
        ipm: true,
        ..PowerPolicyConfig::dimm_only(&power, 8)
    };
    let mut pm = PowerManager::new(cfg, &geom());
    let cap = Tokens::from_cells(560);
    drive_concurrent(&mut pm, random_writes(40, 11, 500), &mut |pm| {
        let avail = pm.ledger().dimm_available().expect("budgeted");
        assert!(avail <= cap, "ledger over capacity: {avail}");
    });
    assert_eq!(pm.ledger().dimm_available(), Some(cap), "budget restored");
}

#[test]
fn chip_budgets_never_exceeded_under_full_fpb() {
    let cfg = PowerPolicyConfig::fpb(&PowerConfig::default(), 8);
    let mut pm = PowerManager::new(cfg, &geom());
    let chip_cap = Tokens::from_millis(66_500);
    drive_concurrent(&mut pm, random_writes(60, 13, 500), &mut |pm| {
        for i in 0..8 {
            assert!(
                pm.ledger().chip_available(i) <= chip_cap,
                "chip {i} over capacity"
            );
        }
        if let Some(g) = pm.ledger().gcp_available() {
            assert!(g <= chip_cap, "GCP over capacity");
        }
    });
    for i in 0..8 {
        assert_eq!(pm.ledger().chip_available(i), chip_cap, "chip {i} restored");
    }
    assert_eq!(pm.ledger().gcp_available(), Some(chip_cap), "GCP restored");
}

#[test]
fn multi_reset_splits_are_bounded_and_complete() {
    // A tight budget forces Multi-RESET; the writes must still finish and
    // restore the ledger.
    let power = PowerConfig {
        pt_dimm: 120,
        ..PowerConfig::default()
    };
    let cfg = PowerPolicyConfig {
        ipm: true,
        multi_reset_splits: 3,
        ..PowerPolicyConfig::dimm_only(&power, 8)
    };
    let mut pm = PowerManager::new(cfg, &geom());
    drive_concurrent(&mut pm, random_writes(20, 17, 110), &mut |_| {});
    assert!(
        pm.stats().multi_reset_splits() > 0,
        "the tight budget must trigger Multi-RESET"
    );
    assert_eq!(pm.ledger().dimm_available(), Some(Tokens::from_cells(120)));
}

#[test]
fn gcp_accounting_balances_borrowed_power() {
    // Saturate one chip, push traffic through the GCP, and verify the
    // stats ledger agrees with the token ledger at every step.
    let cfg = PowerPolicyConfig::gcp_only(&PowerConfig::default(), 8);
    let mut pm = PowerManager::new(cfg, &geom());
    let g = geom();
    let s = sampler();
    let mut rng = SimRng::seed_from(23);

    // All cells on chip 0 under VIM (cell % 8 == 0).
    let hot: ChangeSet = (0..60u32).map(|i| (i * 8, MlcLevel::L10)).collect();
    let mut w1 = LineWrite::new(&hot, &g, CellMapping::Vim, &s, &mut rng, 1);
    let mut w2 = LineWrite::new(&hot, &g, CellMapping::Vim, &s, &mut rng, 1);
    assert!(pm.try_admit(WriteId::new(1), &mut w1));
    assert!(pm.try_admit(WriteId::new(2), &mut w2), "GCP must rescue");
    assert_eq!(pm.stats().gcp_grants(), 1);
    assert_eq!(pm.stats().gcp_usable_total(), Tokens::from_cells(60));
    // Waste = raw - usable = 60/0.7 - 60 ≈ 25.72 tokens.
    let waste = pm.stats().gcp_waste_total();
    assert!(
        waste > Tokens::from_cells(25) && waste < Tokens::from_cells(27),
        "waste = {waste}"
    );
    pm.release(WriteId::new(1));
    pm.release(WriteId::new(2));
    assert_eq!(
        pm.ledger().gcp_available(),
        Some(Tokens::from_millis(66_500))
    );
}

#[test]
fn write_cancellation_path_releases_tokens() {
    let cfg = PowerPolicyConfig::fpb(&PowerConfig::default(), 8);
    let mut pm = PowerManager::new(cfg, &geom());
    let mut writes = random_writes(5, 29, 300);
    for (i, w) in writes.iter_mut().enumerate() {
        let id = WriteId::new(i as u64);
        assert!(pm.try_admit(id, w));
        w.advance();
        // Cancel mid-flight (what WC does): release + restart.
        pm.release(id);
        w.restart();
        assert!(!pm.holds_tokens(id));
        assert_eq!(w.iterations_done(), 0);
    }
    assert_eq!(pm.ledger().dimm_available(), Some(Tokens::from_cells(560)));
}
