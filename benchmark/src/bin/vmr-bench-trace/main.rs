//! Traced binary: the same workloads plus the per-layer legs.

mod legs;

fn main() -> std::process::ExitCode {
    vmr_benchmark::driver::run(Some(legs::run))
}
