//! Monte-Carlo π — classic volunteer-computing work expressed as
//! MapReduce.
//!
//! §II argues BOINC historically supports only embarrassingly parallel
//! jobs; MapReduce *subsumes* them: a pure Monte-Carlo estimation is
//! just a map over seed ranges with a trivial sum-reduce. Input chunks
//! are lines `seed n_samples`; map counts dart hits inside the unit
//! quarter-circle; reduce sums hits and totals, from which the driver
//! computes π ≈ 4·hits/total.

use crate::api::{InputFormat, MapReduceApp};
use crate::record::lines;

/// Counts quarter-circle hits over seeded sample blocks.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonteCarloPi;

/// Generates the job input: `blocks` lines of `seed n_samples`.
pub fn pi_input(blocks: usize, samples_per_block: u64, seed0: u64) -> Vec<u8> {
    let mut out = String::new();
    for b in 0..blocks {
        out.push_str(&format!("{} {}\n", seed0 + b as u64, samples_per_block));
    }
    out.into_bytes()
}

/// Extracts the π estimate from the job's merged output.
pub fn pi_estimate(output: &std::collections::BTreeMap<String, u64>) -> Option<f64> {
    let hits = *output.get("hits")?;
    let total = *output.get("total")?;
    (total > 0).then(|| 4.0 * hits as f64 / total as f64)
}

impl MapReduceApp for MonteCarloPi {
    type K = String;
    type V = u64;

    fn name(&self) -> &str {
        "montecarlo-pi"
    }

    fn input_format(&self) -> InputFormat {
        InputFormat::Lines
    }

    fn map(&self, chunk: &[u8], emit: &mut dyn FnMut(String, u64)) {
        for line in lines(chunk) {
            let Ok(s) = std::str::from_utf8(line) else {
                continue;
            };
            let Some((seed, n)) = s.split_once(' ') else {
                continue;
            };
            let (Ok(seed), Ok(n)) = (seed.trim().parse::<u64>(), n.trim().parse::<u64>()) else {
                continue;
            };
            // Deterministic per-seed xorshift* stream: every replica of
            // this block produces identical counts, so quorum validation
            // works exactly as for word count.
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move || {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
                state
            };
            let mut hits = 0u64;
            for _ in 0..n {
                let x = (next() >> 11) as f64 / (1u64 << 53) as f64;
                let y = (next() >> 11) as f64 / (1u64 << 53) as f64;
                if x * x + y * y <= 1.0 {
                    hits += 1;
                }
            }
            emit("hits".to_string(), hits);
            emit("total".to_string(), n);
        }
    }

    fn reduce(&self, _key: &String, values: &[u64]) -> u64 {
        values.iter().sum()
    }

    fn combine(&self, _key: &String, values: &[u64]) -> Vec<u64> {
        vec![values.iter().sum()]
    }

    fn encode(&self, key: &String, value: &u64, out: &mut String) {
        out.push_str(key);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }

    fn decode(&self, line: &str) -> Option<(String, u64)> {
        let (k, v) = line.rsplit_once(' ')?;
        Some((k.to_string(), v.trim().parse().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::JobSpec;
    use crate::local::{run_pipeline, run_sequential};

    #[test]
    fn estimates_pi_reasonably() {
        let input = pi_input(20, 50_000, 7);
        let job = JobSpec::new("pi", 5, 1);
        let out = run_pipeline(&MonteCarloPi, &input, &job);
        let pi = pi_estimate(&out).unwrap();
        assert!(
            (pi - std::f64::consts::PI).abs() < 0.01,
            "π estimate {pi} too far off"
        );
        assert_eq!(out["total"], 20 * 50_000);
    }

    #[test]
    fn replicas_agree_bit_for_bit() {
        // The quorum-validation prerequisite: identical inputs produce
        // identical outputs on any worker.
        let input = pi_input(4, 10_000, 99);
        let a = run_sequential(&MonteCarloPi, &[&input[..]]);
        let b = run_sequential(&MonteCarloPi, &[&input[..]]);
        assert_eq!(a, b);
    }

    #[test]
    fn partitioned_equals_sequential() {
        let input = pi_input(12, 5_000, 3);
        let job = JobSpec::new("pi", 4, 2);
        assert_eq!(
            run_pipeline(&MonteCarloPi, &input, &job),
            run_sequential(&MonteCarloPi, &[&input[..]])
        );
    }

    #[test]
    fn malformed_lines_skipped() {
        let mut n = 0;
        MonteCarloPi.map(b"not numbers\n5 abc\n7 100\n", &mut |_, _| n += 1);
        assert_eq!(n, 2, "only the valid line emits (hits + total)");
    }

    #[test]
    fn codec_roundtrip() {
        let app = MonteCarloPi;
        let mut s = String::new();
        app.encode(&"hits".into(), &42, &mut s);
        assert_eq!(app.decode(s.trim_end()), Some(("hits".into(), 42)));
    }

    #[test]
    fn more_samples_tighter_estimate() {
        let run = |blocks: usize, per: u64| {
            let input = pi_input(blocks, per, 11);
            let out = run_sequential(&MonteCarloPi, &[&input[..]]);
            (pi_estimate(&out).unwrap() - std::f64::consts::PI).abs()
        };
        let coarse = run(2, 1_000);
        let fine = run(50, 50_000);
        assert!(fine < coarse + 0.01, "fine {fine} vs coarse {coarse}");
        assert!(fine < 0.005);
    }
}
