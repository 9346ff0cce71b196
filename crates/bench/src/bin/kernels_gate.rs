//! CI gate for the streaming-kernel budgets: steady-state traversal
//! allocations must be zero and the stream-vs-fast-path overhead must
//! stay inside the committed bound. Exits nonzero (failing the CI step)
//! on any violation, and prints the full measurement either way.
//! Bitwise parallel equality and zero warm ranged-arena allocations are
//! tier-1 tests in `tests/parallel_stream.rs`.

#[global_allocator]
static ALLOC: sparseflex_bench::allocs::CountingAllocator =
    sparseflex_bench::allocs::CountingAllocator;

fn main() {
    assert!(
        sparseflex_bench::allocs::probe_installed(),
        "counting allocator must be installed for the gate to bind"
    );
    let m = sparseflex_bench::kernels::measure();
    sparseflex_bench::emit(&sparseflex_bench::kernels::rows_from(&m));
    println!();
    sparseflex_bench::emit(&sparseflex_bench::kernels::measured_rows_from(&m));
    let violations = sparseflex_bench::kernels::enforce(&m);
    if violations.is_empty() {
        eprintln!("kernels_gate: all budgets hold");
        return;
    }
    for v in &violations {
        eprintln!("kernels_gate VIOLATION: {}", v.0);
    }
    std::process::exit(1);
}
