//! Figure 2 — average cell changes per line write under different line
//! sizes, for 2-bit MLC and SLC interpretations of the same data.
//!
//! Expected shape (§2.1.2): MLC changes fewer cells than SLC for every
//! configuration, and larger lines change more cells.

use fpb_bench::*;
use fpb_trace::catalog::{self, FIG2_WORKLOADS};
use fpb_types::SimRng;

const SAMPLES: usize = 400;

pub fn run(_: &SimOptions) -> Vec<Claim> {
    let mut rows = Vec::new();
    for name in FIG2_WORKLOADS {
        let wl = catalog::workload(name).expect("fig2 workload");
        let data = &wl.per_core[0].data;
        let mut rng = SimRng::seed_from(0xF162);
        let mut values = Vec::new();
        for bytes in [256u32, 128, 64] {
            let (mut mlc, mut slc) = (0u64, 0u64);
            for _ in 0..SAMPLES {
                let (m, s) = data.count_changes(bytes, &mut rng);
                mlc += m as u64;
                slc += s as u64;
            }
            values.extend([mlc, slc].map(|n| n as f64 / SAMPLES as f64));
        }
        rows.push(Row::new(name, values));
    }
    let rows = with_gmean(rows);

    print_table(
        "Figure 2: average cell changes per line write",
        &[
            "256B-mlc", "256B-slc", "128B-mlc", "128B-slc", "64B-mlc", "64B-slc",
        ],
        &rows,
    );

    // Shape checks from the paper's discussion of Fig. 2.
    let mut claims = Vec::new();
    for Row { label, values: v } in &rows {
        for (col, size) in [(0, "256B"), (2, "128B"), (4, "64B")] {
            let holds = v[col] < v[col + 1];
            let statement = format!("{label}: MLC must change fewer cells than SLC at {size}");
            claims.push(Claim { statement, holds });
        }
        let holds = v[4] < v[2] && v[2] < v[0];
        let statement = format!("{label}: larger lines must change more cells");
        claims.push(Claim { statement, holds });
    }
    claims
}
