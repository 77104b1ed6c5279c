//! Key partitioning: which reducer owns a key.
//!
//! §III.C: "Each map output's key (a word in our example) is hashed and
//! the output file to write to is decided based on the number of reduce
//! tasks – modulo the number of reducers."

use crate::hashes::fnv1a;

/// Assigns keys to reduce partitions by FNV-1a hash modulo `n_reduces`.
#[derive(Clone, Copy, Debug)]
pub struct HashPartitioner {
    n_reduces: usize,
}

impl HashPartitioner {
    /// A partitioner over `n_reduces` partitions.
    ///
    /// # Panics
    /// If `n_reduces == 0`.
    pub fn new(n_reduces: usize) -> Self {
        assert!(n_reduces > 0, "need at least one reducer");
        HashPartitioner { n_reduces }
    }

    /// Number of partitions.
    pub fn n_reduces(&self) -> usize {
        self.n_reduces
    }

    /// Partition of a raw key encoding.
    pub fn partition_bytes(&self, key: &[u8]) -> usize {
        (fnv1a(key) % self.n_reduces as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_in_range() {
        let p = HashPartitioner::new(5);
        for i in 0..1000 {
            let k = format!("key{i}");
            assert!(p.partition_bytes(k.as_bytes()) < 5);
        }
    }

    #[test]
    fn deterministic() {
        let p = HashPartitioner::new(7);
        assert_eq!(
            p.partition_bytes("hello".as_bytes()),
            p.partition_bytes("hello".as_bytes())
        );
    }

    #[test]
    fn single_partition_takes_all() {
        let p = HashPartitioner::new(1);
        assert_eq!(p.partition_bytes("anything".as_bytes()), 0);
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let p = HashPartitioner::new(4);
        let mut counts = [0usize; 4];
        for i in 0..40_000 {
            counts[p.partition_bytes(format!("word-{i}").as_bytes())] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "partition skew too large: {counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one reducer")]
    fn zero_reducers_rejected() {
        HashPartitioner::new(0);
    }
}
