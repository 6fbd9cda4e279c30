//! Anatomy of a single MLC line write: watch the program-and-verify
//! iterations, per-chip power demand under each cell mapping, and the
//! token ledger reacting iteration by iteration.
//!
//! ```sh
//! cargo run --release --example device_anatomy
//! ```

use fpb::pcm::{CellMapping, ChangeSet, DimmGeometry, IterationSampler, LineWrite};
use fpb::power::{PowerManager, PowerPolicyConfig, WriteId};
use fpb::trace::{DataClass, DataProfile};
use fpb::types::{MlcWriteModel, PowerConfig, SimRng, Tokens};

fn main() {
    let geom = DimmGeometry::new(8, 1024);
    let sampler = IterationSampler::new(MlcWriteModel::default());
    let mut rng = SimRng::seed_from(2012);

    // Sample a realistic integer-data change set for a 256 B line.
    let data = DataProfile::new(DataClass::Integer, 0.5);
    let changes: ChangeSet = data.sample_change_set(256, &mut rng);
    println!("changed cells: {} of 1024", changes.len());

    // Per-chip demand of the RESET under each mapping.
    println!("\nper-chip RESET demand (cells):");
    println!(
        "{:<6} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
        "map", "c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"
    );
    for mapping in CellMapping::ALL {
        let counts = mapping.distribute(changes.iter().map(|&(c, _)| c), 8);
        print!("{:<6}", mapping.label());
        for c in counts {
            print!(" {c:>5}");
        }
        println!();
    }

    // Drive the write through the FPB power manager, printing each
    // iteration's demand and the DIMM ledger's free tokens.
    let cfg = PowerPolicyConfig::fpb(&PowerConfig::default(), 8);
    let mut pm = PowerManager::new(cfg, &geom);
    let mut write = LineWrite::new(&changes, &geom, CellMapping::Bim, &sampler, &mut rng, 1);
    let id = WriteId::new(1);
    assert!(pm.try_admit(id, &mut write), "empty ledger must admit");

    println!("\niteration-by-iteration (BIM mapping, FPB-IPM budgeting):");
    println!(
        "{:<6} {:>8} {:>12} {:>14}",
        "iter", "kind", "active cells", "free chip0 tok"
    );
    let mut i = 1;
    loop {
        let demand = write.next_demand().expect("incomplete");
        let kind = if demand.kind.is_reset() {
            "RESET"
        } else {
            "SET"
        };
        println!(
            "{:<6} {:>8} {:>12} {:>14}",
            i,
            kind,
            demand.active_cells,
            format!("{}", pm.ledger().chip_available(0))
        );
        write.advance();
        if write.is_complete() {
            pm.release(id);
            break;
        }
        assert!(pm.try_advance(id, &write), "solo write never stalls");
        i += 1;
    }
    println!("\nwrite finished in {i} iterations (slowest cell's P&V bound)");
    assert_eq!(
        pm.ledger().chip_available(0),
        Tokens::from_millis(66_500),
        "ledger fully restored"
    );
    println!("ledger fully restored: chip 0 back to 66.5 tokens");

    // Show the nondeterminism: the same data written again takes a
    // different number of iterations.
    let again = LineWrite::new(&changes, &geom, CellMapping::Bim, &sampler, &mut rng, 1);
    println!(
        "rewriting the same data: {} iterations this time (P&V is nondeterministic)",
        again.total_iterations()
    );
}
