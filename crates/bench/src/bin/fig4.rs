//! Regenerates the paper's **Fig. 4**: per-node map makespan for the
//! 15-node / 15-map-WU scenario (30 map results), exposing the
//! exponential-backoff straggler — "one node did not report the
//! completion of its tasks due to the backoff interval, and
//! consequently delayed the beginning of the reduce step."
//!
//! Usage: `cargo run -p vmr-bench --release --bin fig4`

fn main() {
    print!("{}", vmr_bench::or_exit(vmr_bench::paper::fig4_text()));
}
