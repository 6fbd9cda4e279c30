//! Figure 14 — average usable tokens requested from the GCP per line
//! write, and the energy-waste reduction of the interleaved mappings.
//!
//! Expected shape (§6.1.5): VIM and BIM request far fewer GCP tokens than
//! the naïve mapping, cutting the (inefficient) GCP's conversion waste.

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let cfg = SystemConfig::default();
    let wls = all_workloads();
    let schemes = [
        ("gcp:ne:0.7", "NE-0.7"),
        ("gcp:ne:0.5", "NE-0.5"),
        ("gcp:vim:0.7", "VIM-0.7"),
        ("gcp:vim:0.5", "VIM-0.5"),
        ("gcp:bim:0.7", "BIM-0.7"),
        ("gcp:bim:0.5", "BIM-0.5"),
    ];
    let (specs, columns): (Vec<&str>, Vec<&str>) = schemes.iter().copied().unzip();
    let matrix = run_matrix(&cfg, &wls, &setups(&cfg, &specs), opts);
    let tokens = |ms: &[Metrics]| ms.iter().map(Metrics::avg_gcp_tokens_per_write).collect();
    let mut rows = workload_rows(&wls, &matrix, tokens);
    // Column sums over the workloads, in workload order.
    let sum = |f: fn(&Metrics) -> f64| -> Vec<f64> {
        let column = |c: usize| matrix.iter().map(|ms| f(&ms[c])).sum();
        (0..specs.len()).map(column).collect()
    };
    let n = wls.len() as f64;
    let avg: Vec<f64> = sum(Metrics::avg_gcp_tokens_per_write)
        .iter()
        .map(|s| s / n)
        .collect();
    rows.push(Row::new("avg", avg.clone()));
    print_table(
        "Figure 14: average usable GCP tokens requested per line write",
        &columns,
        &rows,
    );

    let waste = sum(|m| m.power.gcp_waste_total().as_f64());
    let red_vim = 100.0 * (1.0 - waste[2] / waste[0].max(1e-9));
    let red_bim = 100.0 * (1.0 - waste[4] / waste[0].max(1e-9));
    println!("\npaper: at 0.7 efficiency VIM cuts GCP energy waste 78.5 %, BIM 64.4 % vs NE");
    println!("measured: VIM {red_vim:.1} %, BIM {red_bim:.1} % waste reduction");
    let fewer = |c: usize| avg[c] <= avg[0];
    claims(&[
        ("VIM must request fewer GCP tokens than NE", fewer(2)),
        ("BIM must request fewer GCP tokens than NE", fewer(4)),
    ])
}
