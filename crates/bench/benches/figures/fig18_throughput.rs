//! Figure 18 — write-throughput improvement, normalized to DIMM+chip.
//!
//! Expected shape (§6.3): GCP alone buys a moderate gain; GCP+IPM and
//! GCP+IPM+MR multiply write throughput severalfold (3.4× in the paper),
//! still short of Ideal.

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let cfg = SystemConfig::default();
    let wls = all_workloads();
    let specs = ["dimm-chip", "gcp:bim:0.7", "gcp-ipm", "fpb", "ideal"];
    let matrix = run_matrix(&cfg, &wls, &setups(&cfg, &specs), opts);
    // A run with no completed writes has zero throughput; floor the ratio
    // so the gmean stays defined (the table prints it as 0.000 either way).
    let ratios = |ms: &[Metrics]| {
        let base = ms[0].write_throughput().max(1e-12);
        ms.iter()
            .map(|m| (m.write_throughput() / base).max(1e-9))
            .collect()
    };
    let mut rows = with_gmean(workload_rows(&wls, &matrix, ratios));
    print_table(
        "Figure 18: normalized write throughput",
        &["DIMM+chip", "GCP", "GCP+IPM", "GCP+IPM+MR", "Ideal"],
        &rows,
    );

    let g = rows.pop().expect("gmean").values;
    println!("\npaper: GCP +58.8 %, GCP+IPM+MR 3.4x, Ideal ~4.4x over DIMM+chip");
    println!(
        "measured gmeans: GCP {:.2}x, GCP+IPM {:.2}x, GCP+IPM+MR {:.2}x, Ideal {:.2}x",
        g[1], g[2], g[3], g[4]
    );
    claims(&[
        ("IPM+MR must beat GCP alone", g[3] > g[1]),
        ("full FPB must substantially lift throughput", g[3] > 1.3),
        ("Ideal bounds everything", g[4] >= g[3] - 0.05),
    ])
}
