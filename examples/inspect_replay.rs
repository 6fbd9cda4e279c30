//! Time-travel debugging end to end: record a fault-injected run as a
//! lifecycle event stream, break on the first write that degrades to
//! SLC mode under brownout pressure, walk its lineage, attribute the
//! stall time, and replay the stream into the run's metrics and
//! timeline — the same fold the engine computes its metrics with.
//!
//! ```sh
//! cargo run --release --example inspect_replay
//! ```
//!
//! The same flow from the shell:
//!
//! ```sh
//! fpb inspect --break degraded --workload mcf_m --scheme fpb \
//!     --fault-brownout-period 20000 --fault-brownout-duration 12000 \
//!     --fault-degraded-after 5000 --instructions 40000
//! ```

use fpb::sim::inspect::{Breakpoint, Lineage, MemorySink, StallReport};
use fpb::sim::{run_workload_recorded, SchemeSetup, SimOptions, Timeline};
use fpb::trace::catalog;
use fpb::types::{FaultConfig, SystemConfig};

fn main() {
    // Brownouts long enough that the power manager pushes writes into
    // degraded single-level (SLC) mode — the event we want to catch.
    let cfg = SystemConfig::default().with_faults(FaultConfig {
        brownout_period: 20_000,
        brownout_duration: 12_000,
        degraded_after_cycles: 5_000,
        ..FaultConfig::default()
    });
    let wl = catalog::workload("mcf_m").expect("catalog workload");
    let setup = SchemeSetup::fpb(&cfg);
    let opts = SimOptions::with_instructions(40_000);

    // Record: the sink observes every stage transition, power decision,
    // scheme hook, and fault without perturbing the run.
    let (metrics, sink) =
        run_workload_recorded(&wl, &cfg, &setup, &opts, MemorySink::new()).expect("recorded run");
    println!(
        "recorded {} event(s) over {} cycles ({} brownout window(s))\n",
        sink.events().len(),
        metrics.cycles,
        metrics.faults.brownout_windows
    );

    // Break: scan the stream for the first degraded write.
    let events = sink.events();
    let hit = Breakpoint::parse("degraded")
        .expect("breakpoint grammar")
        .first_hit(events)
        .expect("a write degrades under this fault mix");
    println!("{hit}\n");

    // Lineage: that write's complete story, from creation to Done.
    let id = hit
        .event
        .write_id()
        .expect("degraded hits carry a write id");
    let lineage = Lineage::of(events, id);
    println!("{lineage}");
    for (idx, ev) in lineage.events.iter().take(6) {
        println!("  [{idx}] {ev}");
    }
    if lineage.events.len() > 6 {
        println!("  ... {} more event(s)", lineage.events.len() - 6);
    }

    // Stalls: where all writes spent their waiting cycles.
    println!("\n{}", StallReport::analyze(events).render(3));

    // Replay: the stream alone reconstructs the run, byte for byte.
    let replayed = Timeline::from_events(events);
    assert_eq!(
        replayed.metrics(),
        &metrics,
        "replay must fold to the run's metrics"
    );
    println!(
        "replay check: {} events -> the run's metrics and {} timeline samples",
        events.len(),
        replayed.samples().len()
    );
}
