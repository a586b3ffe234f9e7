//! Regenerates Fig. 8: synthetic benchmark speedups (SB1–SB4 and -R
//! variants across block sizes), DARM and BF over the baseline. All
//! kernels are melded in one module batch on all cores.

use darm_bench::{fig8_cases, render_speedups, run_cases};

fn main() {
    let rows = run_cases(&fig8_cases(), 0);
    print!(
        "{}",
        render_speedups("Figure 8 — synthetic benchmark speedups", &rows)
    );
}
