//! Regenerates the paper's fig10 series: the modeled rows, then the
//! host-timed software conversion rows. Prints CSV to stdout.
fn main() {
    sparseflex_bench::emit(&sparseflex_bench::fig10::rows());
    println!();
    sparseflex_bench::emit(&sparseflex_bench::fig10::measured_rows());
}
