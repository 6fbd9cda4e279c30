//! Figure 2 — average cell changes per line write under different line
//! sizes, for 2-bit MLC and SLC interpretations of the same data.
//!
//! Expected shape (§2.1.2): MLC changes fewer cells than SLC for every
//! configuration, and larger lines change more cells.

use fpb_bench::{geometric_mean, print_table, Row};
use fpb_trace::catalog::{self, FIG2_WORKLOADS};
use fpb_types::SimRng;

const SAMPLES: usize = 400;

fn main() {
    let line_sizes = [256u32, 128, 64];
    let mut rows = Vec::new();
    let mut per_col: Vec<Vec<f64>> = vec![Vec::new(); 6];

    for name in FIG2_WORKLOADS {
        let wl = catalog::workload(name).expect("fig2 workload");
        let data = wl.per_core[0].data.clone();
        let mut rng = SimRng::seed_from(0xF162);
        let mut values = Vec::new();
        for &bytes in &line_sizes {
            let (mut mlc, mut slc) = (0u64, 0u64);
            for _ in 0..SAMPLES {
                let (m, s) = data.count_changes(bytes, &mut rng);
                mlc += m as u64;
                slc += s as u64;
            }
            values.push(mlc as f64 / SAMPLES as f64);
            values.push(slc as f64 / SAMPLES as f64);
        }
        for (col, v) in values.iter().enumerate() {
            per_col[col].push(*v);
        }
        rows.push(Row {
            label: name.to_string(),
            values,
        });
    }
    rows.push(Row {
        label: "gmean".to_string(),
        values: per_col.iter().map(|c| geometric_mean(c)).collect(),
    });

    print_table(
        "Figure 2: average cell changes per line write",
        &[
            "256B-mlc", "256B-slc", "128B-mlc", "128B-slc", "64B-mlc", "64B-slc",
        ],
        &rows,
    );

    // Shape checks from the paper's discussion of Fig. 2.
    for r in &rows {
        assert!(
            r.values[0] < r.values[1],
            "{}: MLC must change fewer cells than SLC",
            r.label
        );
        assert!(r.values[2] < r.values[3], "{}", r.label);
        assert!(r.values[4] < r.values[5], "{}", r.label);
        assert!(
            r.values[4] < r.values[2] && r.values[2] < r.values[0],
            "{}: larger lines must change more cells",
            r.label
        );
    }
    println!("\nshape checks passed: MLC < SLC, and changes grow with line size");
}
