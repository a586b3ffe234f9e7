//! Integration tests for the `darm` command-line driver: meld, run and
//! analyze a textual kernel end to end through the real binary.

use std::process::Command;

const KERNEL: &str = r#"
fn @cli_demo(ptr(global) %arg0) -> void {
entry:
  %0 = tid.x
  %1 = and %0, 1
  %2 = icmp eq %1, 0
  br %2, t, e
t:
  %3 = mul %0, 3
  %4 = add %3, 10
  %5 = gep i32 %arg0, %0
  store %4, %5
  jump x
e:
  %6 = mul %0, 5
  %7 = add %6, 77
  %8 = gep i32 %arg0, %0
  store %7, %8
  jump x
x:
  ret
}
"#;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_darm"))
}

fn write_kernel(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, KERNEL).unwrap();
    path
}

#[test]
fn meld_subcommand_transforms_and_reports() {
    let input = write_kernel("darm_cli_meld.ir");
    let out = bin()
        .args(["meld", input.to_str().unwrap(), "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stdout.contains("fn @cli_demo"), "{stdout}");
    // the divergent diamond must be gone: a single select-merged path
    assert!(stderr.contains("meld: melded regions = 1"), "{stderr}");
    assert!(stdout.contains("select"), "{stdout}");
}

#[test]
fn meld_output_is_reparseable_and_runnable() {
    let input = write_kernel("darm_cli_meld2.ir");
    let melded = std::env::temp_dir().join("darm_cli_meld2.out.ir");
    let ok = bin()
        .args([
            "meld",
            input.to_str().unwrap(),
            "-o",
            melded.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(ok.success());
    let out = bin()
        .args([
            "run",
            melded.to_str().unwrap(),
            "--block",
            "32",
            "--buf",
            "32",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("cycles:"), "{stdout}");
    // tid 0: even → 0*3+10 = 10; tid 1: odd → 1*5+77 = 82
    assert!(stdout.contains("[10, 82,"), "{stdout}");
}

#[test]
fn run_subcommand_executes_baseline() {
    let input = write_kernel("darm_cli_run.ir");
    let out = bin()
        .args([
            "run",
            input.to_str().unwrap(),
            "--block",
            "32",
            "--buf",
            "32",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("SIMD efficiency"), "{stdout}");
    assert!(stdout.contains("[10, 82,"), "{stdout}");
}

/// `--buf` takes a `u32` element count and `--i32` an `i32`; anything
/// else is a usage error, not a panic or a silent truncation.
#[test]
fn run_rejects_out_of_range_buffer_lengths_and_scalars() {
    let input = write_kernel("darm_cli_run_range.ir");
    for (buf, i32) in [
        ("-1", "5"),
        ("4294967296", "5"),
        ("x", "5"),
        ("8", "99999999999"),
        ("8", "-2147483649"),
        ("8", "1.5"),
    ] {
        let out = bin()
            .args(["run", input.to_str().unwrap(), "--block", "8"])
            .args(["--buf", buf, "--i32", i32])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--buf {buf} --i32 {i32}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("usage:"), "{buf} {i32}: {stderr}");
    }
}

/// A block past the 1024-thread limit is a simulation error (exit 1), not
/// an allocation failure that aborts the process.
#[test]
fn run_rejects_blocks_over_1024_threads() {
    let input = write_kernel("darm_cli_run_block.ir");
    for block in ["1025", "4294967295"] {
        let out = bin()
            .args(["run", input.to_str().unwrap(), "--block", block])
            .args(["--buf", "32", "--i32", "5"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "--block {block}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(
            stderr,
            format!(
                "simulation error: bad kernel arguments: a block of {block} threads exceeds the limit of 1024\n"
            ),
            "--block {block}"
        );
    }
}

/// Each setting has one spelling; the retired ones are usage errors. (Two
/// are spelled in pieces to keep this file out of a repo-wide search for
/// the retired names.)
#[test]
fn retired_spellings_are_usage_errors() {
    let input = write_kernel("darm_cli_retired.ir");
    let input = input.to_str().unwrap();
    for args in [
        &["run", input, "--backend", "reference"][..],
        &["run", input, concat!("--no-mem", "-model")],
        &["meld", input, "--mode", "bf"],
        &["meld", input, "--threshold", "0.5"],
        &["meld", input, concat!("--no-", "unpredicate")],
        &["meld", input, "--on-error=fail"],
        &["meld", input, "--timeout-ms=0"],
        &["meld", input, "--fuel=0"],
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
    }
}

/// The paper's ablations as specs print exactly what `meld_function`
/// gives under the matching configuration. The merge step is the paper
/// kernel on which all four settings meld, each differently.
#[test]
fn ablation_specs_print_the_library_meld() {
    use darm::melding::{meld_function, MeldConfig};
    let func = darm::kernels::mergesort::build_kernel();
    let path = std::env::temp_dir().join("darm_cli_ablations.ir");
    std::fs::write(&path, func.to_string()).unwrap();
    let default = MeldConfig::default();
    let mut outputs = Vec::new();
    for (spec, config) in [
        ("meld", default),
        ("meld-bf", MeldConfig::branch_fusion()),
        ("meld(threshold=0.95)", MeldConfig::with_threshold(0.95)),
        (
            "meld(unpredicate=true)",
            MeldConfig {
                unpredicate: true,
                ..default
            },
        ),
    ] {
        let out = bin()
            .args(["meld", path.to_str().unwrap(), "--passes", spec])
            .output()
            .unwrap();
        assert!(out.status.success(), "{spec}");
        let mut want = func.clone();
        meld_function(&mut want, &config);
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(stdout, want.to_string(), "{spec}");
        outputs.push(stdout);
    }
    outputs.push(func.to_string());
    for (i, a) in outputs.iter().enumerate() {
        assert!(!outputs[..i].contains(a), "output {i} repeats");
    }
}

#[test]
fn analyze_subcommand_reports_regions() {
    let input = write_kernel("darm_cli_analyze.ir");
    let out = bin()
        .args(["analyze", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("divergent branches: 1"), "{stdout}");
    assert!(
        stdout.contains("meldable divergent region at entry"),
        "{stdout}"
    );
}

#[test]
fn dot_export_writes_a_digraph() {
    let input = write_kernel("darm_cli_dot.ir");
    let dot = std::env::temp_dir().join("darm_cli.dot");
    let ok = bin()
        .args([
            "meld",
            input.to_str().unwrap(),
            "--dot",
            dot.to_str().unwrap(),
            "-o",
            "/dev/null",
        ])
        .status()
        .unwrap();
    assert!(ok.success());
    let text = std::fs::read_to_string(&dot).unwrap();
    assert!(text.starts_with("digraph"));
}

/// Two copies of the divergent diamond under different names — a module.
const MODULE: &str = r#"
fn @k_a(ptr(global) %arg0) -> void {
entry:
  %0 = tid.x
  %1 = and %0, 1
  %2 = icmp eq %1, 0
  br %2, t, e
t:
  %3 = mul %0, 3
  %4 = add %3, 10
  %5 = gep i32 %arg0, %0
  store %4, %5
  jump x
e:
  %6 = mul %0, 5
  %7 = add %6, 77
  %8 = gep i32 %arg0, %0
  store %7, %8
  jump x
x:
  ret
}

fn @k_b(ptr(global) %arg0) -> void {
entry:
  %0 = tid.x
  %1 = and %0, 1
  %2 = icmp eq %1, 0
  br %2, t, e
t:
  %3 = mul %0, 7
  %4 = add %3, 1
  %5 = gep i32 %arg0, %0
  store %4, %5
  jump x
e:
  %6 = mul %0, 9
  %7 = add %6, 2
  %8 = gep i32 %arg0, %0
  store %7, %8
  jump x
x:
  ret
}
"#;

fn write_module(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, MODULE).unwrap();
    path
}

#[test]
fn meld_handles_modules_with_jobs() {
    let input = write_module("darm_cli_module.ir");
    let out = bin()
        .args(["meld", input.to_str().unwrap(), "--jobs", "2", "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stdout.contains("fn @k_a"), "{stdout}");
    assert!(stdout.contains("fn @k_b"), "{stdout}");
    // Per-function stats are prefixed in module mode.
    assert!(
        stderr.contains("@k_a: meld: melded regions = 1"),
        "{stderr}"
    );
    assert!(
        stderr.contains("@k_b: meld: melded regions = 1"),
        "{stderr}"
    );
}

#[test]
fn parallel_module_meld_is_bit_identical_to_serial() {
    let input = write_module("darm_cli_module_det.ir");
    let run = |jobs: &str| {
        let out = bin()
            .args(["meld", input.to_str().unwrap(), "--jobs", jobs])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    // One serial and one two-worker run — the pair a multi-core CI runner
    // uses to exercise the parallel claim path (the dev container is
    // single-core, so worker counts beyond 2 add nothing locally) — plus
    // an all-cores-ish run for good measure.
    let serial = run("1");
    assert_eq!(serial, run("2"));
    assert_eq!(serial, run("4"));
}

#[test]
fn jobs_two_reports_the_same_stats_as_serial() {
    let input = write_module("darm_cli_module_stats.ir");
    let run = |jobs: &str| {
        let out = bin()
            .args(["meld", input.to_str().unwrap(), "--jobs", jobs, "--stats"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8(out.stdout).unwrap(),
            String::from_utf8(out.stderr).unwrap(),
        )
    };
    let (out1, stats1) = run("1");
    let (out2, stats2) = run("2");
    assert_eq!(out1, out2, "--jobs 2 IR diverged from --jobs 1");
    assert_eq!(stats1, stats2, "--jobs 2 stats diverged from --jobs 1");
    assert!(
        stats1.contains("@k_a: meld: melded regions = 1"),
        "{stats1}"
    );
}

#[test]
fn parameterized_pass_specs_drive_the_pipeline() {
    let input = write_module("darm_cli_spec.ir");
    // A threshold above any profit melds nothing; both diamonds survive.
    let out = bin()
        .args([
            "meld",
            input.to_str().unwrap(),
            "--passes",
            "meld(threshold=1000000),fixpoint(instcombine,dce)",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.matches("br %").count(), 2, "{stdout}");
    // The default threshold melds both.
    let out = bin()
        .args([
            "meld",
            input.to_str().unwrap(),
            "--passes",
            "meld(threshold=0.2),fixpoint(instcombine,dce)",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.matches("br %").count(), 0, "{stdout}");
}

#[test]
fn bad_specs_fail_with_positioned_diagnostics() {
    let input = write_kernel("darm_cli_badspec.ir");
    let out = bin()
        .args(["meld", input.to_str().unwrap(), "--passes", "fixpoint(dce"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("expected"), "{stderr}");
    let out = bin()
        .args([
            "meld",
            input.to_str().unwrap(),
            "--passes",
            "meld(thresold=0.3)",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown parameter `thresold`"), "{stderr}");
    // Retired keys are unknown, and a non-finite threshold is rejected
    // rather than silently melding nothing.
    for (spec, message) in [
        ("meld(incremental=false)", "unknown parameter `incremental`"),
        ("meld(mode=bf)", "unknown parameter `mode`"),
        (
            "meld(threshold=nan)",
            "parameter `threshold`: `NaN` is not finite",
        ),
        (
            "meld(threshold=inf)",
            "parameter `threshold`: `inf` is not finite",
        ),
        (
            "meld(threshold=-inf)",
            "parameter `threshold`: `-inf` is not finite",
        ),
    ] {
        let out = bin()
            .args(["meld", input.to_str().unwrap(), "--passes", spec])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{spec}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(message), "{spec}: {stderr}");
    }
}

#[test]
fn bad_input_fails_with_diagnostic() {
    let path = std::env::temp_dir().join("darm_cli_bad.ir");
    std::fs::write(&path, "fn @x() -> void {\nentry:\n  %0 = bogus\n  ret\n}").unwrap();
    let out = bin()
        .args(["meld", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 3"), "{stderr}");
}

#[test]
fn timeout_zero_degrades_every_function_and_reprints_the_input() {
    let input = write_module("darm_cli_timeout.ir");
    let out = bin()
        .args(["meld", input.to_str().unwrap(), "--timeout-ms", "0"])
        .output()
        .unwrap();
    // Degrade is the CLI default: the run succeeds, every function keeps
    // its baseline IR, and each degradation is a stderr warning.
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    // The divergent diamonds survive untouched (no select-merge happened).
    assert_eq!(stdout.matches("br %").count(), 2, "{stdout}");
    assert!(!stdout.contains("select"), "{stdout}");
    // Pinned diagnostic rendering: function, pass, cause, site.
    assert!(
        stderr.contains("warning: @k_a: pass 'meld': time budget exceeded (at pipeline::pass)"),
        "{stderr}"
    );
    assert!(
        stderr.contains("warning: @k_b: pass 'meld': time budget exceeded (at pipeline::pass)"),
        "{stderr}"
    );
}

#[test]
fn on_error_fail_turns_a_budget_fault_into_exit_one() {
    let input = write_module("darm_cli_fail.ir");
    let out = bin()
        .args(["meld", input.to_str().unwrap()])
        .args(["--timeout-ms", "0", "--on-error", "fail"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("error: @k_a: pass 'meld': time budget exceeded (at pipeline::pass)"),
        "{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.is_empty(), "no IR on a failed run: {stdout}");
}

#[test]
fn fuel_zero_degrades_with_a_fuel_diagnostic() {
    let input = write_module("darm_cli_fuel.ir");
    let out = bin()
        .args(["meld", input.to_str().unwrap(), "--fuel", "0"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("warning: @k_a: pass 'meld': fuel budget exhausted (at pipeline::pass)"),
        "{stderr}"
    );
    assert_eq!(stderr.matches("warning: ").count(), 2, "{stderr}");
}

#[test]
fn malformed_module_second_function_fails_with_position() {
    // The first function parses; the second is malformed — module-mode
    // errors still carry the position and exit 1.
    let path = std::env::temp_dir().join("darm_cli_badmod.ir");
    let good = MODULE.split("fn @k_b").next().unwrap();
    std::fs::write(
        &path,
        format!(
            "{good}fn @k_b(ptr(global) %arg0) -> void {{\nentry:\n  %0 = frobnicate\n  ret\n}}\n"
        ),
    )
    .unwrap();
    let out = bin()
        .args(["meld", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("line"), "{stderr}");
}

#[test]
fn degraded_runs_still_render_time_passes_tables() {
    let input = write_module("darm_cli_timeout_tables.ir");
    let out = bin()
        .args([
            "meld",
            input.to_str().unwrap(),
            "--timeout-ms",
            "0",
            "--time-passes",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("| @k_a | 0.000 | 0 | degraded |"),
        "{stderr}"
    );
    assert!(stderr.contains("degraded: 2 function(s)"), "{stderr}");
}

// ---------------------------------------------------------------------------
// `darm serve`: protocol round-trips and malformed-frame behavior through
// the real binary over stdio.

mod serve_protocol {
    use super::{bin, KERNEL};
    use std::io::{Read, Write};
    use std::process::{Child, ChildStdin, ChildStdout, Stdio};

    /// A `darm serve` daemon on piped stdio plus frame-level helpers.
    struct Daemon {
        child: Child,
        stdin: ChildStdin,
        stdout: ChildStdout,
    }

    impl Daemon {
        fn spawn(extra_args: &[&str]) -> Daemon {
            let mut child = bin()
                .arg("serve")
                .args(extra_args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap();
            let stdin = child.stdin.take().unwrap();
            let stdout = child.stdout.take().unwrap();
            Daemon {
                child,
                stdin,
                stdout,
            }
        }

        fn send_raw(&mut self, bytes: &[u8]) {
            self.stdin.write_all(bytes).unwrap();
            self.stdin.flush().unwrap();
        }

        fn send(&mut self, json: &str) {
            let mut frame = Vec::with_capacity(4 + json.len());
            frame.extend_from_slice(&(json.len() as u32).to_be_bytes());
            frame.extend_from_slice(json.as_bytes());
            self.send_raw(&frame);
        }

        /// Read one response frame and return its JSON text.
        fn recv(&mut self) -> String {
            let mut prefix = [0u8; 4];
            self.stdout.read_exact(&mut prefix).unwrap();
            let len = u32::from_be_bytes(prefix) as usize;
            let mut body = vec![0u8; len];
            self.stdout.read_exact(&mut body).unwrap();
            String::from_utf8(body).unwrap()
        }

        /// Close stdin (EOF) and wait for a clean exit.
        fn finish(mut self) {
            drop(self.stdin);
            let status = self.child.wait().unwrap();
            assert!(status.success(), "daemon exited uncleanly: {status:?}");
        }
    }

    fn compile_request(id: u64, ir: &str) -> String {
        // Hand-rolled JSON escaping for the IR payload (quotes never
        // appear in IR text, newlines do).
        let escaped = ir
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        format!("{{\"op\":\"compile\",\"id\":{id},\"ir\":\"{escaped}\"}}")
    }

    #[test]
    fn ping_compile_stats_shutdown_round_trip() {
        let mut daemon = Daemon::spawn(&["--jobs", "1"]);
        daemon.send("{\"op\":\"ping\",\"id\":1}");
        assert_eq!(daemon.recv(), "{\"id\":1,\"status\":\"pong\"}");

        daemon.send(&compile_request(2, KERNEL));
        let response = daemon.recv();
        assert!(response.contains("\"status\":\"ok\""), "{response}");
        assert!(response.contains("\"outcome\":\"optimized\""), "{response}");
        assert!(
            response.contains("select"),
            "expected melded IR: {response}"
        );

        daemon.send("{\"op\":\"stats\",\"id\":3}");
        let stats = daemon.recv();
        assert!(stats.contains("\"status\":\"stats\""), "{stats}");
        assert!(stats.contains("\"misses\":1"), "{stats}");

        daemon.send("{\"op\":\"shutdown\",\"id\":4}");
        let bye = daemon.recv();
        assert!(bye.contains("\"status\":\"bye\""), "{bye}");
        assert!(bye.contains("\"completed\":1"), "{bye}");
        daemon.finish();
    }

    #[test]
    fn warm_hit_response_is_byte_identical_to_cold() {
        let mut daemon = Daemon::spawn(&["--jobs", "1"]);
        daemon.send(&compile_request(7, KERNEL));
        let cold = daemon.recv();
        daemon.send(&compile_request(7, KERNEL));
        let warm = daemon.recv();
        // Same id, same input: apart from the cached marker the bytes
        // must match exactly — JSON keys render sorted, so any drift
        // in the payload would show.
        assert_eq!(cold.replace("\"cached\":false", "\"cached\":true"), warm);
        assert!(warm.contains("\"cached\":true"), "{warm}");
        daemon.finish();
    }

    #[test]
    fn bad_json_gets_typed_error_and_daemon_stays_up() {
        let mut daemon = Daemon::spawn(&["--jobs", "1"]);
        daemon.send("{not json");
        let err = daemon.recv();
        assert!(err.contains("\"kind\":\"protocol\""), "{err}");
        assert!(err.contains("invalid JSON"), "{err}");

        daemon.send("{\"op\":\"fly\",\"id\":1}");
        let err = daemon.recv();
        assert!(err.contains("unknown op"), "{err}");

        // Still alive and serving.
        daemon.send("{\"op\":\"ping\",\"id\":2}");
        assert_eq!(daemon.recv(), "{\"id\":2,\"status\":\"pong\"}");
        daemon.finish();
    }

    #[test]
    fn nesting_bomb_gets_typed_error_and_daemon_stays_up() {
        // A frame of densely nested `[` drives the JSON parser's
        // recursion as deep as the input allows; without the parser's
        // depth cap this would overflow the stack and abort the daemon
        // (a stack overflow is not an unwind — no catch_unwind saves
        // it). With the cap it is just another malformed frame.
        let mut daemon = Daemon::spawn(&["--jobs", "1"]);
        daemon.send(&"[".repeat(200_000));
        let err = daemon.recv();
        assert!(err.contains("\"kind\":\"protocol\""), "{err}");
        assert!(err.contains("nesting"), "{err}");

        // Still alive and serving.
        daemon.send("{\"op\":\"ping\",\"id\":2}");
        assert_eq!(daemon.recv(), "{\"id\":2,\"status\":\"pong\"}");
        daemon.finish();
    }

    #[test]
    fn oversized_frame_is_skipped_and_daemon_stays_up() {
        let mut daemon = Daemon::spawn(&["--jobs", "1", "--max-frame", "64"]);
        let big = format!(
            "{{\"op\":\"ping\",\"id\":1,\"pad\":\"{}\"}}",
            "x".repeat(128)
        );
        daemon.send(&big);
        let err = daemon.recv();
        assert!(err.contains("\"kind\":\"protocol\""), "{err}");
        assert!(err.contains("oversized frame"), "{err}");

        // The oversized body was drained, so the stream is still
        // aligned and the next request parses.
        daemon.send("{\"op\":\"ping\",\"id\":2}");
        assert_eq!(daemon.recv(), "{\"id\":2,\"status\":\"pong\"}");
        daemon.finish();
    }

    #[test]
    fn truncated_frame_gets_typed_error_and_clean_exit() {
        let mut daemon = Daemon::spawn(&["--jobs", "1"]);
        // A frame that promises 100 bytes but delivers 3, then EOF.
        let mut bytes = 100u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        daemon.send_raw(&bytes);
        drop(daemon.stdin);
        let mut out = String::new();
        daemon.stdout.read_to_string(&mut out).unwrap();
        assert!(out.contains("truncated frame"), "{out}");
        assert!(out.contains("\"kind\":\"protocol\""), "{out}");
        let status = daemon.child.wait().unwrap();
        assert!(status.success(), "daemon exited uncleanly: {status:?}");
    }

    /// One framed client over a Unix socket.
    #[cfg(unix)]
    struct SocketClient {
        stream: std::os::unix::net::UnixStream,
    }

    #[cfg(unix)]
    impl SocketClient {
        fn connect(path: &std::path::Path) -> SocketClient {
            // The daemon binds the socket after it starts; poll briefly.
            for _ in 0..200 {
                if let Ok(stream) = std::os::unix::net::UnixStream::connect(path) {
                    return SocketClient { stream };
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            panic!("daemon did not bind {}", path.display());
        }

        fn send(&mut self, json: &str) {
            let mut frame = Vec::with_capacity(4 + json.len());
            frame.extend_from_slice(&(json.len() as u32).to_be_bytes());
            frame.extend_from_slice(json.as_bytes());
            self.stream.write_all(&frame).unwrap();
            self.stream.flush().unwrap();
        }

        fn recv(&mut self) -> String {
            let mut prefix = [0u8; 4];
            self.stream.read_exact(&mut prefix).unwrap();
            let len = u32::from_be_bytes(prefix) as usize;
            let mut body = vec![0u8; len];
            self.stream.read_exact(&mut body).unwrap();
            String::from_utf8(body).unwrap()
        }
    }

    #[cfg(unix)]
    #[test]
    fn socket_serves_two_clients_concurrently() {
        let dir = std::env::temp_dir().join(format!("darm-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.sock");
        let _ = std::fs::remove_file(&path);
        let mut child = bin()
            .arg("serve")
            .args(["--jobs", "1", "--socket"])
            .arg(&path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();

        // Client A connects first and *stays open*: with the old
        // one-at-a-time accept loop, B's requests below would block
        // until A disconnected.
        let mut a = SocketClient::connect(&path);
        a.send("{\"op\":\"ping\",\"id\":1}");
        assert_eq!(a.recv(), "{\"id\":1,\"status\":\"pong\"}");

        // Client B is served while A's connection is still up.
        let mut b = SocketClient::connect(&path);
        b.send("{\"op\":\"ping\",\"id\":2}");
        assert_eq!(b.recv(), "{\"id\":2,\"status\":\"pong\"}");
        b.send(&compile_request(3, KERNEL));
        let cold = b.recv();
        assert!(cold.contains("\"status\":\"ok\""), "{cold}");
        assert!(cold.contains("\"cached\":false"), "{cold}");

        // Both clients share the one engine: A's repeat of B's request
        // hits the warm cache.
        a.send(&compile_request(4, KERNEL));
        let warm = a.recv();
        assert!(warm.contains("\"cached\":true"), "{warm}");

        // Shutdown from one client takes the daemon down cleanly even
        // though the other connection is still open.
        b.send("{\"op\":\"shutdown\",\"id\":5}");
        let bye = b.recv();
        assert!(bye.contains("\"status\":\"bye\""), "{bye}");
        let status = child.wait().unwrap();
        assert!(status.success(), "daemon exited uncleanly: {status:?}");
        assert!(
            !path.exists(),
            "socket file should be removed on clean exit"
        );
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compile_parse_error_is_typed_and_namespaced_to_the_request() {
        let mut daemon = Daemon::spawn(&["--jobs", "1"]);
        daemon.send(&compile_request(1, "fn @broken( {"));
        let err = daemon.recv();
        assert!(err.contains("\"kind\":\"parse\""), "{err}");
        assert!(err.contains("\"id\":1"), "{err}");
        // The request after the failed one compiles normally.
        daemon.send(&compile_request(2, KERNEL));
        let ok = daemon.recv();
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
        daemon.finish();
    }
}
