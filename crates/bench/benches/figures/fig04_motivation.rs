//! Figure 4 — performance under power restrictions, normalized to Ideal.
//!
//! Schemes: Ideal, DIMM-only, DIMM+chip, PWL (intra-line wear leveling),
//! 1.5×/2× local charge pumps, and out-of-order write scheduling with
//! 24/48/96-entry write queues (Sche-X).
//!
//! Expected shape (§2.2): DIMM-only loses ~33 % and DIMM+chip ~51 % vs
//! Ideal; PWL and Sche-X barely help; 2×local nearly recovers DIMM-only.

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let cfg = SystemConfig::default();
    let wls = all_workloads();
    let schemes = [
        ("ideal", "Ideal"),
        ("dimm-only", "DIMM-only"),
        ("dimm-chip", "DIMM+chip"),
        ("pwl", "PWL"),
        ("1.5xlocal", "1.5xlocal"),
        ("2xlocal", "2xlocal"),
    ];
    let (specs, mut columns): (Vec<&str>, Vec<&str>) = schemes.iter().copied().unzip();
    let mut matrix = run_matrix(&cfg, &wls, &setups(&cfg, &specs), opts);

    // Sche-X: DIMM+chip with out-of-order write scheduling over an X-entry
    // queue (the engine always scans the whole queue, so Sche-X is the
    // queue-size variant, matching the paper's observation that it barely
    // moves performance).
    for (entries, column) in [(24, "sche24"), (48, "sche48"), (96, "sche96")] {
        let sched_cfg = cfg.clone().with_write_queue(entries);
        let sched = run_matrix(&sched_cfg, &wls, &setups(&sched_cfg, &["dimm-chip"]), opts);
        for (ms, mut m) in matrix.iter_mut().zip(sched) {
            ms.append(&mut m);
        }
        columns.push(column);
    }

    let rows = speedup_rows(&wls, &matrix, 0); // normalize to Ideal
    print_table("Figure 4: speedup normalized to Ideal", &columns, &rows);

    let g = &rows.last().expect("gmean row").values;
    println!("\npaper:   DIMM-only 0.67, DIMM+chip 0.49 of Ideal");
    println!(
        "measured: DIMM-only {:.2}, DIMM+chip {:.2} of Ideal",
        g[1], g[2]
    );
    claims(&[
        ("DIMM-only must lose performance", g[1] < 0.95),
        ("chip budget must cost more", g[2] < g[1] + 0.03),
        ("2xlocal must recover chip-budget loss", g[5] >= g[2]),
    ])
}
