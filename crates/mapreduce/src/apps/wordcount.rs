//! Word count — the paper's proof-of-concept application (§III.C).
//!
//! "The map function reads an input file word by word and outputs one
//! line per word, with the format `word 1` … The reduce application
//! reads one line at a time, and increments the count for each unique
//! word."

use crate::api::MapReduceApp;
use crate::record::tokens;
use std::fmt::Write;

/// The canonical word-count application.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordCount;

impl MapReduceApp for WordCount {
    type K = String;
    type V = u64;

    fn name(&self) -> &str {
        "wordcount"
    }

    fn map(&self, chunk: &[u8], emit: &mut dyn FnMut(String, u64)) {
        for tok in tokens(chunk) {
            if let Ok(s) = std::str::from_utf8(tok) {
                emit(s.to_string(), 1);
            }
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
        let _ = writeln!(out, "{value}");
    }

    fn decode(&self, line: &str) -> Option<(String, u64)> {
        let (w, n) = line.rsplit_once(' ')?;
        Some((w.to_string(), n.trim().parse().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_emits_one_per_token() {
        let wc = WordCount;
        let mut out = Vec::new();
        wc.map(b"the cat and the hat", &mut |k, v| out.push((k, v)));
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], ("the".to_string(), 1));
        assert_eq!(out[3], ("the".to_string(), 1));
    }

    #[test]
    fn reduce_sums() {
        let wc = WordCount;
        assert_eq!(wc.reduce(&"x".into(), &[1, 2, 3]), 6);
    }

    #[test]
    fn combine_prefolds() {
        let wc = WordCount;
        assert_eq!(wc.combine(&"x".into(), &[1, 1, 1]), vec![3]);
    }

    #[test]
    fn codec_roundtrip_matches_paper_format() {
        let wc = WordCount;
        let mut line = String::new();
        wc.encode(&"test".into(), &1, &mut line);
        assert_eq!(line, "test 1\n", "the paper's exact example line");
        let (k, v) = wc.decode(line.trim_end()).unwrap();
        assert_eq!((k.as_str(), v), ("test", 1));
    }

    #[test]
    fn decode_rejects_garbage() {
        let wc = WordCount;
        assert_eq!(wc.decode("no-separator"), None);
        assert_eq!(wc.decode("word notanumber"), None);
    }

    #[test]
    fn non_utf8_tokens_are_skipped() {
        let wc = WordCount;
        let mut out = Vec::new();
        wc.map(b"ok \xff\xfe bad ok", &mut |k, _| out.push(k));
        assert_eq!(out, vec!["ok", "bad", "ok"]);
    }
}
