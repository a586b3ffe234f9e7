//! One thin pass through every crate behind the `darm` facade, so the
//! tier-1 command at the repository root (`cargo test -q`) is not blind to
//! the workspace members: kernel text → `ir` parse + verify → `pipeline`
//! module driver running `melding` (with `align`, `analysis`,
//! `transforms` underneath) → `simt` launch on the oracle and on the
//! bytecode engine → one `serve` compile, byte-equal to the direct one.

use darm::ir::parser::parse_and_verify_module;
use darm::melding::MeldConfig;
use darm::pipeline::{ModuleOptions, ModulePassManager, PipelineOptions};
use darm::serve::proto::CompileRequest;
use darm::serve::{Engine, Response, ServeConfig};
use darm::simt::{Gpu, GpuConfig, KernelArg, LaunchConfig};

/// `out[tid] = tid even ? tid*3+10 : tid*5+77` — one meldable diamond.
const KERNEL: &str = r#"
fn @smoke(ptr(global) %arg0) -> void {
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

#[test]
fn text_to_meld_to_both_backends_to_serve() {
    // Compile: text → verified module → `meld` through the module driver.
    let mut module = parse_and_verify_module(KERNEL).expect("kernel parses and verifies");
    let registry = darm::melding::registry(&MeldConfig::default());
    let report = ModulePassManager::compile(
        &registry,
        "meld",
        ModuleOptions::serial(PipelineOptions::default()),
        &mut module,
    )
    .expect("meld spec compiles");
    assert_eq!(report.degraded_count(), 0);
    let melded = &module.functions()[0];
    assert!(
        melded.to_string().contains("select"),
        "the diamond must meld:\n{melded}"
    );

    // Simulate: oracle and engine agree on buffers and full KernelStats.
    let launch = LaunchConfig::linear(1, 64);
    let mut gpu = Gpu::new(GpuConfig::default());
    let ref_buf = gpu.alloc_i32(&[0; 64]);
    let ref_stats = gpu
        .launch_reference(melded, &launch, &[KernelArg::Buffer(ref_buf)])
        .unwrap_or_else(|e| panic!("reference: {e}"));
    let bc_buf = gpu.alloc_i32(&[0; 64]);
    let bc_stats = gpu
        .launch(melded, &launch, &[KernelArg::Buffer(bc_buf)])
        .unwrap_or_else(|e| panic!("bytecode: {e}"));
    let (ref_out, bc_out) = (gpu.read_i32(ref_buf), gpu.read_i32(bc_buf));
    assert_eq!(bc_out, ref_out);
    assert_eq!(bc_stats, ref_stats);
    let want: Vec<i32> = (0..64)
        .map(|t| if t % 2 == 0 { t * 3 + 10 } else { t * 5 + 77 })
        .collect();
    assert_eq!(bc_out, want);

    // Serve: one compile request, answered with the direct compile's text.
    let engine = Engine::new(ServeConfig::default());
    let (tx, rx) = std::sync::mpsc::channel();
    engine.submit(
        CompileRequest {
            id: 1,
            ir: KERNEL.to_string(),
            spec: None,
            timeout_ms: None,
            fuel: None,
        },
        Box::new(move |resp| tx.send(resp).unwrap()),
    );
    match rx.recv().expect("engine answered") {
        Response::Ok { ir, functions, .. } => {
            assert_eq!(ir, module.to_string());
            assert!(functions[0].optimized);
        }
        other => panic!("expected an ok response, got {other:?}"),
    }
    engine.shutdown();
}
