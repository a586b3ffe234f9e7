//! Regenerates Fig. 9: real-world benchmark speedups across block sizes.
//! All kernels are melded in one module batch on all cores.

use darm_bench::{fig9_cases, render_speedups, run_cases};

fn main() {
    let rows = run_cases(&fig9_cases(), 0);
    print!(
        "{}",
        render_speedups("Figure 9 — real-world benchmark speedups", &rows)
    );
}
