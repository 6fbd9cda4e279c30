//! Property-based tests (proptest) on the core data structures and
//! cross-crate invariants.

// Test-only crate: unwrap on known-good values is the clearest failure mode.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use fpb::pcm::{CellMapping, ChangeSet, DimmGeometry, IterationSampler, LineWrite, MlcLevel};
use fpb::power::{AdmitMemo, Ledger, PowerManager, PowerPolicyConfig, WriteId};
use fpb::sim::request::split_rounds;
use fpb::types::{MlcWriteModel, PowerConfig, SimRng, Tokens};

fn arb_level() -> impl Strategy<Value = MlcLevel> {
    prop_oneof![
        Just(MlcLevel::L00),
        Just(MlcLevel::L01),
        Just(MlcLevel::L10),
        Just(MlcLevel::L11),
    ]
}

fn arb_changes(max: usize) -> impl Strategy<Value = ChangeSet> {
    prop::collection::btree_set(0u32..1024, 0..max).prop_flat_map(|cells| {
        let n = cells.len();
        (Just(cells), prop::collection::vec(arb_level(), n..=n))
            .prop_map(|(cells, levels)| cells.into_iter().zip(levels).collect::<ChangeSet>())
    })
}

fn arb_mapping() -> impl Strategy<Value = CellMapping> {
    prop_oneof![
        Just(CellMapping::Naive),
        Just(CellMapping::Vim),
        Just(CellMapping::Bim),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every write's iteration schedule is internally consistent: per-chip
    /// rows sum to the totals, demand never increases within the SET
    /// phase, and the write finishes in exactly `total_iterations` steps.
    #[test]
    fn line_write_schedule_consistent(
        changes in arb_changes(400),
        mapping in arb_mapping(),
        seed in 0u64..1000,
        groups in 1u8..4,
    ) {
        let geom = DimmGeometry::new(8, 1024);
        let sampler = IterationSampler::new(MlcWriteModel::default());
        let mut rng = SimRng::seed_from(seed);
        let mut w = LineWrite::new(&changes, &geom, mapping, &sampler, &mut rng, groups);
        prop_assert_eq!(w.total_changed() as usize, changes.len());
        let planned = w.total_iterations();
        let mut steps = 0;
        let mut last_set = u32::MAX;
        while let Some(d) = w.next_demand() {
            prop_assert_eq!(d.per_chip.iter().sum::<u32>(), d.active_cells);
            if !d.kind.is_reset() {
                prop_assert!(d.active_cells <= last_set);
                last_set = d.active_cells;
            }
            w.advance();
            steps += 1;
            prop_assert!(steps <= planned);
        }
        prop_assert_eq!(steps, planned);
        prop_assert!(w.is_complete());
    }

    /// Rounds partition the change set and each round fits its caps.
    #[test]
    fn split_rounds_partitions(
        changes in arb_changes(1024),
        cap_total in 32u64..600,
        cap_chip in 16u64..80,
        mapping in arb_mapping(),
    ) {
        let rounds = split_rounds(&changes, Some(cap_total), Some(cap_chip), mapping, 8);
        let total: usize = rounds.iter().map(ChangeSet::len).sum();
        prop_assert_eq!(total, changes.len());
        for r in &rounds {
            prop_assert!(r.len() as u64 <= cap_total);
            let rc = mapping.distribute(r.iter().map(|&(c, _)| c), 8);
            prop_assert!(
                rc.iter().all(|&c| (c as u64) <= cap_chip),
                "round chip demand {:?} over cap {}", rc, cap_chip
            );
        }
        // All cells preserved (as a multiset of indices).
        let mut orig: Vec<u32> = changes.iter().map(|&(c, _)| c).collect();
        let mut got: Vec<u32> = rounds.iter().flat_map(|r| r.iter().map(|&(c, _)| c)).collect();
        orig.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(orig, got);
    }

    /// Flat ledger: any sequence of grants and releases conserves tokens.
    #[test]
    fn flat_ledger_conserves(
        requests in prop::collection::vec(1u64..200, 1..40),
        budget in 100u64..800,
    ) {
        let mut ledger = Ledger::flat(budget);
        let mut held = Vec::new();
        for r in requests {
            if let Some(g) = ledger.try_grant_flat(Tokens::from_cells(r)) {
                held.push(g);
            }
            let outstanding: Tokens = held.iter().map(|g| g.flat).sum();
            let avail = ledger.dimm_available().expect("flat has a budget");
            prop_assert_eq!(avail + outstanding, Tokens::from_cells(budget));
        }
        for g in &held {
            ledger.release(g).unwrap();
        }
        prop_assert_eq!(ledger.dimm_available(), Some(Tokens::from_cells(budget)));
    }

    /// Brownout windows conserve tokens under any grant/release
    /// interleaving: budgets never underflow while shrunk, pre-window
    /// grants release cleanly mid-window, and ending the window restores
    /// the exact pre-window state.
    #[test]
    fn brownout_withhold_restores_exactly(
        pre_demands in prop::collection::vec(0u64..40, 8..=8),
        in_demands in prop::collection::vec(0u64..40, 8..=8),
        keep in 0.0f64..1.0,
    ) {
        let mut ledger = Ledger::with_chips(560, 8, 66_500, 0.95, Some((0.8, 66_500)));
        let full: Vec<Tokens> = (0..8).map(|i| ledger.chip_available(i)).collect();
        let full_dimm = ledger.dimm_available();
        let full_gcp = ledger.gcp_available();
        let to_demand = |ds: &[u64]| ds.iter().map(|&d| Tokens::from_cells(d)).collect::<Vec<_>>();

        // Grant before the window; this power is in flight and cannot be
        // clawed back by the brownout.
        let pre = ledger.try_grant_chips(&to_demand(&pre_demands));

        ledger.begin_brownout(keep);
        prop_assert!(ledger.in_brownout());
        let withheld = ledger.brownout_hold().expect("active window").total_millis();

        // Conservation with the hold counted as a third bucket.
        fn count(
            g: &fpb::power::Grant,
            dimm: &mut Tokens,
            chips: &mut [Tokens],
            gcp: &mut Tokens,
        ) {
            *dimm += g.dimm_raw;
            *gcp += g.gcp_total;
            for (chip, (&l, &b)) in chips.iter_mut().zip(g.lcp.iter().zip(g.borrowed.iter())) {
                *chip += l + b;
            }
        }
        let (mut out_dimm, mut out_chips, mut out_gcp) =
            (Tokens::default(), vec![Tokens::default(); 8], Tokens::default());
        if let Some(g) = &pre {
            count(g, &mut out_dimm, &mut out_chips, &mut out_gcp);
        }
        ledger.audit(out_dimm, &out_chips, out_gcp).unwrap();

        // Grants inside the window see only the shrunk budget and must not
        // underflow it (Tokens arithmetic would panic on underflow).
        let inside = ledger.try_grant_chips(&to_demand(&in_demands));
        if let Some(g) = &inside {
            count(g, &mut out_dimm, &mut out_chips, &mut out_gcp);
        }
        ledger.audit(out_dimm, &out_chips, out_gcp).unwrap();

        // A pre-window grant released mid-window must not be flagged.
        if let Some(g) = &pre {
            ledger.release(g).unwrap();
        }

        ledger.end_brownout();
        prop_assert!(!ledger.in_brownout());
        if let Some(g) = &inside {
            ledger.release(g).unwrap();
        }
        prop_assert!(withheld <= 560_000 + 8 * 66_500 + 66_500);
        for (i, &f) in full.iter().enumerate() {
            prop_assert_eq!(ledger.chip_available(i), f);
        }
        prop_assert_eq!(ledger.dimm_available(), full_dimm);
        prop_assert_eq!(ledger.gcp_available(), full_gcp);
    }

    /// Chip ledger with GCP: failed grants change nothing; successful
    /// grant/release round-trips restore the exact state.
    #[test]
    fn chip_ledger_grant_release_roundtrip(
        demands in prop::collection::vec(0u64..80, 8..=8),
        e_gcp in 0.3f64..0.95,
    ) {
        let mut ledger = Ledger::with_chips(560, 8, 66_500, 0.95, Some((e_gcp, 66_500)));
        let before: Vec<Tokens> = (0..8).map(|i| ledger.chip_available(i)).collect();
        let before_dimm = ledger.dimm_available();
        let before_gcp = ledger.gcp_available();
        let demand: Vec<Tokens> = demands.iter().map(|&d| Tokens::from_cells(d)).collect();
        if let Some(g) = ledger.try_grant_chips(&demand) {
            ledger.release(&g).unwrap();
        }
        for (i, &b) in before.iter().enumerate() {
            prop_assert_eq!(ledger.chip_available(i), b);
        }
        prop_assert_eq!(ledger.dimm_available(), before_dimm);
        prop_assert_eq!(ledger.gcp_available(), before_gcp);
    }

    /// The power manager completes any admissible write and restores the
    /// full budget, for every scheme.
    #[test]
    fn manager_roundtrip_for_all_schemes(
        changes in arb_changes(300),
        seed in 0u64..500,
        scheme_idx in 0usize..5,
    ) {
        let power = PowerConfig::default();
        let cfg = match scheme_idx {
            0 => PowerPolicyConfig::ideal(&power, 8),
            1 => PowerPolicyConfig::dimm_only(&power, 8),
            2 => PowerPolicyConfig::dimm_chip(&power, 8),
            3 => PowerPolicyConfig::gcp_ipm(&power, 8),
            _ => PowerPolicyConfig::fpb(&power, 8),
        };
        let geom = DimmGeometry::new(8, 1024);
        let sampler = IterationSampler::new(MlcWriteModel::default());
        let mut rng = SimRng::seed_from(seed);
        // Keep the write within every scheme's worst-case caps.
        let bounded: ChangeSet = changes.iter().take(250).cloned().collect();
        let per_chip_ok = CellMapping::Bim
            .distribute(bounded.iter().map(|&(c, _)| c), 8)
            .into_iter()
            .all(|c| c <= 66);
        prop_assume!(per_chip_ok);
        let mut w = LineWrite::new(&bounded, &geom, CellMapping::Bim, &sampler, &mut rng, 1);
        let mut pm = PowerManager::new(cfg, &geom);
        let id = WriteId::new(1);
        prop_assert!(pm.try_admit(id, &mut w), "solo admissible write refused");
        loop {
            w.advance();
            if w.is_complete() {
                pm.release(id);
                break;
            }
            prop_assert!(pm.try_advance(id, &w), "solo write stalled");
        }
        if let Some(avail) = pm.ledger().dimm_available() {
            prop_assert_eq!(avail, Tokens::from_cells(560));
        }
    }

    /// The refusal memo is sound outside the engine: across random
    /// interleavings of admissions, iteration advances, releases and
    /// brownout edges, every memoized admission agrees with a plain
    /// `try_admit` on a clone — same verdict, same Multi-RESET resplit,
    /// same stats — whether or not it consulted the ledger.
    #[test]
    fn memoized_admission_matches_plain_admission(
        pool in prop::collection::vec(arb_changes(300), 4..8),
        ops in prop::collection::vec((0u8..8, 0usize..6, 0.2f64..0.9), 1..120),
        scheme_idx in 0usize..3,
        seed in 0u64..500,
    ) {
        let power = PowerConfig::default();
        let cfg = match scheme_idx {
            0 => PowerPolicyConfig::dimm_chip(&power, 8),
            1 => PowerPolicyConfig::gcp_only(&power, 8),
            _ => PowerPolicyConfig::fpb(&power, 8),
        };
        let geom = DimmGeometry::new(8, 1024);
        let sampler = IterationSampler::new(MlcWriteModel::default());
        let mut rng = SimRng::seed_from(seed);
        let mut pm = PowerManager::new(cfg, &geom);
        let mut next = 0usize;
        let mut fresh = |rng: &mut SimRng| {
            next += 1;
            let changes = &pool[next % pool.len()];
            let w = LineWrite::new(changes, &geom, CellMapping::Bim, &sampler, rng, 1);
            (WriteId::new(next as u64), w, AdmitMemo::default(), false)
        };
        // Six write slots: (id, write, memo, admitted). A finished or
        // released write is replaced by a fresh queued one.
        let mut slots: Vec<_> = (0..6).map(|_| fresh(&mut rng)).collect();
        for (kind, slot, keep) in ops {
            let (id, w, memo, admitted) = &mut slots[slot];
            match kind {
                0..=2 if !*admitted => {
                    let mut plain_pm = pm.clone();
                    let mut plain_w = w.clone();
                    let plain = plain_pm.try_admit(*id, &mut plain_w);
                    let memoized = pm.try_admit_memoized(*id, w, memo);
                    prop_assert_eq!(memoized, plain, "{} verdicts differ", id);
                    prop_assert_eq!(&*w, &plain_w);
                    prop_assert_eq!(pm.stats(), plain_pm.stats());
                    *admitted = memoized;
                }
                3..=5 if *admitted => {
                    // A write holding tokens finishes its iteration; a
                    // stalled one (IPM, holding nothing) re-polls its
                    // advance.
                    if pm.holds_tokens(*id) {
                        w.advance();
                    }
                    if w.is_complete() {
                        pm.release(*id);
                        slots[slot] = fresh(&mut rng);
                    } else {
                        pm.try_advance(*id, w);
                    }
                }
                6 if *admitted => {
                    pm.release(*id);
                    slots[slot] = fresh(&mut rng);
                }
                7 if pm.in_brownout() => pm.end_brownout(),
                7 => pm.begin_brownout(keep),
                _ => {}
            }
        }
    }

    /// Tokens arithmetic: efficiency conversions are conservative in both
    /// directions (no free energy).
    #[test]
    fn token_efficiency_is_lossy_not_creative(
        cells in 1u64..2000,
        eff in 0.05f64..1.0,
    ) {
        let t = Tokens::from_cells(cells);
        let raw = t.scale_up(eff);
        prop_assert!(raw >= t);
        let usable = raw.scale_down(eff);
        prop_assert!(usable >= t.saturating_sub(Tokens::from_millis(1)));
        prop_assert!(usable <= raw);
    }
}
