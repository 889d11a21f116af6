//! Figure 4 (motivation): what region verification costs *without*
//! WCDL-aware warp scheduling — the naive design stalls the scheduler for
//! WCDL cycles at every boundary.

use flame_bench::{paper_default, print_table, run_series, series_geomean, BenchEnv, Series};
use flame_core::scheme::Scheme;

fn main() {
    let jobs = BenchEnv::from_process().jobs;
    let cfg = paper_default();
    let suite = flame_workloads::all();
    println!("Figure 4 ablation — naive verification vs. WCDL-aware scheduling\n");
    let series = run_series(
        &suite,
        &[
            Series::named("naive stall", Scheme::NaiveSensorRenaming, &cfg),
            Series::named("Flame (WCDL-aware)", Scheme::SensorRenaming, &cfg),
        ],
        jobs,
    );
    print_table(&["naive stall", "Flame (WCDL-aware)"], &series);
    println!(
        "\ngeomean: naive {:+.1}% vs Flame {:+.2}% — the verification delay Flame hides",
        (series_geomean(&series[0]) - 1.0) * 100.0,
        (series_geomean(&series[1]) - 1.0) * 100.0,
    );
}
