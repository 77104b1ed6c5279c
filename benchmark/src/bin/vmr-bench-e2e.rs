//! End-to-end binary: the workloads and nothing else. A traced run from
//! here reports the counts and leaves the leg timings at 0.

fn main() -> std::process::ExitCode {
    vmr_benchmark::driver::run(None)
}
