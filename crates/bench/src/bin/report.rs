//! Prints every table and figure of the paper in one run, each speedup in
//! the timing model's simulated cycles.
fn main() {
    println!("# DARM reproduction — measured results\n");
    println!("Produced by `cargo run --release -p darm-bench --bin report`.\n");
    println!("{}", darm_bench::render_capability_matrix());
    let fig8 = darm_bench::run_cases(&darm_bench::fig8_cases(), 0);
    println!(
        "{}",
        darm_bench::render_speedups("Figure 8 — synthetic benchmark speedups", &fig8)
    );
    let fig9 = darm_bench::run_cases(&darm_bench::fig9_cases(), 0);
    println!(
        "{}",
        darm_bench::render_speedups("Figure 9 — real-world benchmark speedups", &fig9)
    );
    let counters = darm_bench::run_cases(&darm_bench::counter_cases(), 0);
    println!("{}", darm_bench::render_alu_utilization(&counters));
    println!("{}", darm_bench::render_memory_counters(&counters));
    println!(
        "{}",
        darm_bench::render_threshold_sweep(&darm_bench::FIG12_THRESHOLDS)
    );
    print!("{}", darm_bench::render_compile_times());
}
