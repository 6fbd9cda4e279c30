//! Visualize what the DIMM is doing: an ASCII Gantt of per-bank write
//! occupancy and burst mode, baseline vs FPB, on the same workload.
//!
//! ```sh
//! cargo run --release --example bank_timeline
//! ```

use fpb::sim::inspect::MemorySink;
use fpb::sim::timeline::Timeline;
use fpb::sim::{run_workload_recorded, SchemeSetup, SimOptions};
use fpb::trace::catalog;
use fpb::types::SystemConfig;

fn main() {
    let cfg = SystemConfig::default();
    let wl = catalog::workload("lbm_m").expect("catalog workload");
    let opts = SimOptions::with_instructions(60_000);

    for setup in [SchemeSetup::dimm_chip(&cfg), SchemeSetup::fpb(&cfg)] {
        let (_, sink) = run_workload_recorded(&wl, &cfg, &setup, &opts, MemorySink::new())
            .expect("recorded run");
        let tl = Timeline::from_events(sink.events());
        println!("=== {} on {} ===", setup.label, wl.name);
        println!("('#' = bank holds a write, 'B' = write burst blocking reads)\n");
        print!("{}", tl.render(100).expect("recorded timeline renders"));
        let m = tl.metrics();
        println!(
            "\nCPI {:.2}, burst {:.0}%, {} writes over {} cycles\n",
            m.cpi(),
            m.burst_fraction() * 100.0,
            m.pcm_writes,
            m.cycles
        );
    }
    println!("Under DIMM+chip the budget serializes writes: long burst stretches");
    println!("('B') with few banks writing at once. FPB packs several '#' columns");
    println!("concurrently and the burst row thins out.");
}
