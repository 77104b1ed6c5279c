//! Synthetic text corpus generation.
//!
//! The paper's experiments use a 1 GB text file for word count. We
//! cannot ship such a file, so we generate one deterministically: a
//! Zipf-distributed stream over a synthetic vocabulary (natural-language
//! word frequencies are famously Zipfian, which is what makes word count
//! outputs small relative to inputs).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic corpus.
#[derive(Clone, Debug)]
pub struct CorpusSpec {
    /// Vocabulary size (distinct words).
    pub vocabulary: usize,
    /// Zipf exponent (1.0 ≈ natural text).
    pub exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            vocabulary: 50_000,
            exponent: 1.0,
            seed: 0x5eed,
        }
    }
}

/// Buckets of the guide table that narrows each draw's CDF search.
/// A power of two, so `u * GUIDE` is exact for every `u` in `[0, 1)`.
const GUIDE: usize = 4096;

/// A deterministic word stream with Zipfian frequencies.
pub struct CorpusGen {
    words: Vec<String>,
    cumulative: Vec<f64>,
    /// `guide[j]` is the first rank whose cumulative weight reaches
    /// `j / GUIDE`, for `j` in `0..=GUIDE`.
    guide: Vec<usize>,
    rng: SmallRng,
}

impl CorpusGen {
    /// Builds the generator (materializes the vocabulary and CDF).
    pub fn new(spec: &CorpusSpec) -> Self {
        assert!(spec.vocabulary > 0);
        let words = (0..spec.vocabulary).map(synth_word).collect();
        let mut cumulative = Vec::with_capacity(spec.vocabulary);
        let mut acc = 0.0;
        for rank in 1..=spec.vocabulary {
            acc += 1.0 / (rank as f64).powf(spec.exponent);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        let guide = (0..=GUIDE)
            .map(|j| cumulative.partition_point(|&c| c < j as f64 / GUIDE as f64))
            .collect();
        CorpusGen {
            words,
            cumulative,
            guide,
            rng: SmallRng::seed_from_u64(spec.seed),
        }
    }

    /// Draws the next word.
    pub fn next_word(&mut self) -> &str {
        let u: f64 = self.rng.random();
        &self.words[self.rank_of(u)]
    }

    /// The rank `u` picks: the first whose cumulative weight reaches
    /// `u`. With `j = ⌊u · GUIDE⌋`, `j / GUIDE <= u < (j + 1) / GUIDE`
    /// holds exactly, so that rank lies in `guide[j]..=guide[j + 1]`
    /// and only that stretch of the CDF is searched.
    fn rank_of(&self, u: f64) -> usize {
        let j = (u * GUIDE as f64) as usize;
        let (lo, hi) = (self.guide[j], self.guide[j + 1]);
        let idx = lo + self.cumulative[lo..hi].partition_point(|&c| c < u);
        idx.min(self.words.len() - 1)
    }

    /// Generates approximately `bytes` of space-separated text (stops at
    /// the first word boundary past the target).
    pub fn generate(&mut self, bytes: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(bytes + 16);
        while out.len() < bytes {
            out.extend_from_slice(self.next_word().as_bytes());
            // Newlines every ~12 words keep lines bounded.
            if out.len() % 97 < 8 {
                out.push(b'\n');
            } else {
                out.push(b' ');
            }
        }
        out
    }
}

/// Deterministic pronounceable pseudo-word for vocabulary rank `i`.
fn synth_word(i: usize) -> String {
    const ONSETS: [&str; 16] = [
        "b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch", "st",
    ];
    const NUCLEI: [&str; 8] = ["a", "e", "i", "o", "u", "ai", "ou", "ea"];
    let mut s = String::new();
    let mut x = i + 1;
    while x > 0 {
        s.push_str(ONSETS[x % ONSETS.len()]);
        s.push_str(NUCLEI[(x / ONSETS.len()) % NUCLEI.len()]);
        x /= ONSETS.len() * NUCLEI.len();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn vocabulary_words_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            assert!(seen.insert(synth_word(i)), "duplicate word at rank {i}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = CorpusSpec::default();
        let a = CorpusGen::new(&spec).generate(10_000);
        let b = CorpusGen::new(&spec).generate(10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn generated_size_close_to_target() {
        let mut g = CorpusGen::new(&CorpusSpec::default());
        let data = g.generate(100_000);
        assert!(data.len() >= 100_000);
        assert!(data.len() < 100_100, "overshoot bounded by one word");
    }

    #[test]
    fn distribution_is_zipf_like() {
        let mut g = CorpusGen::new(&CorpusSpec {
            vocabulary: 1000,
            exponent: 1.0,
            seed: 7,
        });
        let mut counts: HashMap<String, usize> = HashMap::new();
        for _ in 0..200_000 {
            *counts.entry(g.next_word().to_string()).or_insert(0) += 1;
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // Rank-1 word should appear roughly 2× rank-2 and 10× rank-10.
        let r1 = freqs[0] as f64;
        let r2 = freqs[1] as f64;
        let r10 = freqs[9] as f64;
        assert!((r1 / r2 - 2.0).abs() < 0.5, "r1/r2 = {}", r1 / r2);
        assert!((r1 / r10 - 10.0).abs() < 3.0, "r1/r10 = {}", r1 / r10);
    }

    /// The guided draw picks the rank a search of the whole CDF picks,
    /// at every draw where a guide bucket begins or ends and one ulp
    /// either side of it.
    #[test]
    fn guided_draw_equals_full_search() {
        let mut us = vec![0.0, 1.0f64.next_down()];
        for j in 1..GUIDE {
            let edge = j as f64 / GUIDE as f64;
            us.extend([edge.next_down(), edge, edge.next_up()]);
        }
        for vocabulary in [1, 2, 17, 4_096, 50_000] {
            for exponent in [0.0, 0.5, 1.0, 2.0] {
                let g = CorpusGen::new(&CorpusSpec {
                    vocabulary,
                    exponent,
                    seed: 0,
                });
                for &u in &us {
                    let full = g.cumulative.partition_point(|&c| c < u).min(vocabulary - 1);
                    assert_eq!(
                        g.rank_of(u),
                        full,
                        "u = {u:e}, {vocabulary} words, s = {exponent}"
                    );
                }
            }
        }
    }

    /// SHA-256 of `generate(200_000)` for every vocabulary × exponent
    /// × seed, in that loop order: any change to how a word is drawn or
    /// laid out moves a digest.
    const GENERATE_DIGESTS: [&str; 18] = [
        "a0f20c17769b669818c897ecec2077580cec6211fc56588c5eccb42cc5185af0", // 10, 0.5, 0x5eed
        "d8f58d3aba18aa44ccea38efd00f155350cbdf99d106cc8a6d84d2890b969e6e", // 10, 0.5, 0x7
        "a16a8dc38470f106838ff49f6f89947d87f2fc0e89b9babd2120a3a1b8a76582", // 10, 1.0, 0x5eed
        "f014acfe3830f91b6a7fe2bc2a4a8c2537f66b8cf22f8f7cec3145f7f518a3c1", // 10, 1.0, 0x7
        "45742043730ccddde5bcf405a0535d1a7a521c564fe68c73058331946d77bb80", // 10, 1.3, 0x5eed
        "1c1d5e7b7ea7db6c9784970f1ad5b80fe13c48c56c624c6336ebb9f4c89eec10", // 10, 1.3, 0x7
        "6c790a1cce118ef85efc5107278cbe415d1af6002d0b88e7fbe3d5de00b8a297", // 1000, 0.5, 0x5eed
        "a4207fe5657f9b5ece236d998baf897c8d461221f07bfff304a0c3492d76f077", // 1000, 0.5, 0x7
        "5df47258208a9e228466d8b708aa8718d620e6951cb27834b8a1d16d09cd3b34", // 1000, 1.0, 0x5eed
        "ff2b708cb6141a5a2162d029255f407387b1aba3096d76009ad8184404cb42d2", // 1000, 1.0, 0x7
        "1ebd460d14977a487b396df5a12b16c814b74f728a49c047d1e548f84d2028ba", // 1000, 1.3, 0x5eed
        "675a0ef33d4c5cf5d5c9f1403ae2544310dcf72f139c05e29f8ad97bc7f4c394", // 1000, 1.3, 0x7
        "76bf40027914797fe410ad12582172c05a426f23ecb4c8938fa4463f6c56f54f", // 50000, 0.5, 0x5eed
        "0c129e3c6b4154166c35532bc30ab7b5132e4a16e236f81a16d2f6c7070cece4", // 50000, 0.5, 0x7
        "d57af320e82a7e85b2c29a4625d1248b3dba554c6bb18f921d3fb5306c8cbfb9", // 50000, 1.0, 0x5eed
        "dc24931f29f4394ffdc890ddf6a84ae0c96681537728c6c987d43d6ef36ce875", // 50000, 1.0, 0x7
        "4bda08948147338f0de8f868eb73925f25332b51f51aec89aea342df18080fb1", // 50000, 1.3, 0x5eed
        "09f51262830020cb53c087e94c183b035c303d179dda03d04a4da0efb650ad4c", // 50000, 1.3, 0x7
    ];

    #[test]
    fn generate_bytes_are_pinned() {
        use crate::hashes::{sha256, to_hex};
        let mut want = GENERATE_DIGESTS.iter();
        for vocabulary in [10, 1_000, 50_000] {
            for exponent in [0.5, 1.0, 1.3] {
                for seed in [0x5eed, 7] {
                    let spec = CorpusSpec {
                        vocabulary,
                        exponent,
                        seed,
                    };
                    let text = CorpusGen::new(&spec).generate(200_000);
                    assert_eq!(
                        Some(&to_hex(&sha256(&text)).as_str()),
                        want.next(),
                        "{spec:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn corpus_tokens_roundtrip_with_record_reader() {
        let mut g = CorpusGen::new(&CorpusSpec::default());
        let data = g.generate(50_000);
        let n_tokens = crate::record::tokens(&data).count();
        assert!(n_tokens > 5_000, "got {n_tokens} tokens");
    }
}
