//! What serving one request costs in heap traffic, gated on bytes.
//!
//! A request brings its memory image, the kernel runs against it in place
//! and the response hands the same allocation back: nothing on the serving
//! path may copy it. The per-request snapshot this replaced allocated a
//! full image per request under the default configuration — 64 KiB here —
//! so the gate is on the bytes the whole process allocates per request,
//! worker threads included.
//!
//! This binary holds one test on purpose: the counters are process-wide, and
//! nothing else may allocate beside the load.

mod common;

use common::{process_allocated, CountingAlloc};
use splitc::splitc_minic::compile_source;
use splitc_jit::JitOptions;
use splitc_runtime::serve::{Request, ServeModule, Server, ServerConfig};
use splitc_targets::{MachineValue, TargetDesc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Size of every request's memory image.
const IMAGE_BYTES: usize = 64 << 10;
/// Requests in flight at once; also the number of image buffers that exist.
const WINDOW: usize = 16;
/// Requests served while counting.
const REQUESTS: usize = 256;
/// Ceiling on the bytes the process allocates per served request: the
/// request's own small fields (kernel name, arguments, target description),
/// its response channel and the queue's bookkeeping — 1.0 KiB in 6 allocations
/// when the gate was set, against more than `IMAGE_BYTES` with a snapshot per request.
const BYTES_PER_REQUEST_BUDGET: u64 = 4 << 10;

#[test]
fn serving_a_request_allocates_no_copy_of_its_memory() {
    let module = ServeModule::new(
        compile_source(
            "fn scale(n: i32, x: *i32) {
                 for (let i: i32 = 0; i < n; i = i + 1) { x[i] = 3 * x[i] + i; }
             }",
            "k",
        )
        .unwrap(),
    );
    let target = TargetDesc::x86_sse();
    // The configuration every user gets.
    let server = Server::start(ServerConfig::default().with_workers(1));
    let mut buffers: Vec<Vec<u8>> = (0..WINDOW).map(|_| vec![1u8; IMAGE_BYTES]).collect();
    // Serve one window: every buffer goes out in a request and comes back in
    // its response (as the `e2e/` benchmark recycles them), so the images
    // are allocated once, above.
    let mut serve_window = |tag: &mut u64| {
        let handles: Vec<_> = buffers
            .drain(..)
            .map(|mem| {
                *tag += 1;
                server
                    .submit(Request {
                        module: module.clone(),
                        kernel: "scale".into(),
                        target: target.clone(),
                        options: JitOptions::split(),
                        args: vec![MachineValue::Int(1024), MachineValue::Int(4096)],
                        mem,
                        deadline: None,
                        tag: *tag,
                    })
                    .expect("server is accepting")
            })
            .collect();
        for handle in handles {
            let response = handle.wait().expect("answered");
            response.outcome.expect("served clean");
            assert_eq!(response.mem.len(), IMAGE_BYTES);
            buffers.push(response.mem);
        }
    };
    let mut tag = 0;
    // Warm-up: the online compile, the queue's and the histograms' growth.
    serve_window(&mut tag);
    let (allocations_before, bytes_before) = process_allocated();
    for _ in 0..REQUESTS / WINDOW {
        serve_window(&mut tag);
    }
    let (allocations_after, bytes_after) = process_allocated();
    let stats = server.shutdown();
    assert_eq!(stats.completed, (REQUESTS + WINDOW) as u64);
    assert_eq!(stats.retried, 0);

    let allocations = (allocations_after - allocations_before) as f64 / REQUESTS as f64;
    let bytes = (bytes_after - bytes_before) / REQUESTS as u64;
    println!(
        "serving, per request ({IMAGE_BYTES}-byte images, default ServerConfig, 1 worker): \
         {allocations:.1} allocations, {bytes} bytes (ceiling {BYTES_PER_REQUEST_BUDGET})"
    );
    assert!(
        bytes < BYTES_PER_REQUEST_BUDGET,
        "{bytes} bytes allocated per request: something on the serving path copies the image"
    );
}
