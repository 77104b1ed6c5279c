//! The database's unsent-result index: a word bitset over the dense
//! result ids.
//!
//! Result ids are handed out densely and in ascending order, so one bit
//! per result ever created is enough. The set keeps its member count
//! and a cursor to its lowest non-empty word, so `len` is O(1) and an
//! ascending walk (the feeder's "first `slots` unsent in id order")
//! starts at the first live word instead of scanning the sent prefix.

use crate::types::ResultId;

/// A set of [`ResultId`]s, iterated in ascending order.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdSet {
    /// Bit `id % 64` of word `id / 64` is set when `id` is a member.
    words: Vec<u64>,
    /// Members.
    len: usize,
    /// Index of the lowest non-zero word; every word below it is zero.
    /// `words.len()` while the set is empty.
    first: usize,
}

impl IdSet {
    /// Adds `id`; returns whether it was absent.
    pub fn insert(&mut self, id: ResultId) -> bool {
        let (w, bit) = split(id);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        if self.len == 0 || w < self.first {
            self.first = w;
        }
        self.len += 1;
        true
    }

    /// Removes `id`; returns whether it was a member.
    pub fn remove(&mut self, id: ResultId) -> bool {
        let (w, bit) = split(id);
        match self.words.get_mut(w) {
            Some(word) if *word & bit != 0 => *word &= !bit,
            _ => return false,
        }
        self.len -= 1;
        if self.len == 0 {
            self.first = self.words.len();
        } else if w == self.first {
            while self.words[self.first] == 0 {
                self.first += 1;
            }
        }
        true
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ResultId> + '_ {
        let start = self.first;
        self.words[start..]
            .iter()
            .enumerate()
            .flat_map(move |(i, &word)| Bits {
                word,
                base: ((start + i) * 64) as u32,
            })
    }

    /// The cursor invariant: the words below `first` are zero, and
    /// `first`'s word is not (or the set is empty and `first` is past
    /// the end).
    #[cfg(test)]
    fn cursor_is_tight(&self) -> bool {
        self.words[..self.first].iter().all(|&w| w == 0)
            && self
                .words
                .get(self.first)
                .map_or(self.len == 0, |&w| w != 0)
    }
}

/// Word index and bit mask of `id`.
fn split(id: ResultId) -> (usize, u64) {
    ((id.0 / 64) as usize, 1 << (id.0 % 64))
}

/// The set bits of one word, lowest first.
struct Bits {
    word: u64,
    base: u32,
}

impl Iterator for Bits {
    type Item = ResultId;

    fn next(&mut self) -> Option<ResultId> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(ResultId(self.base + bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// One step against the set and its `BTreeSet` model.
    #[derive(Clone, Debug)]
    enum Op {
        /// Insert the next id, skipping `gap` ids first (ascending
        /// appends, as `Db::create_result` makes them).
        Append { gap: u32 },
        /// Remove the member at this rank (mod the member count); rank
        /// 0 is the lowest member.
        RemoveRank(usize),
        /// Remove every member of the lowest live word.
        RemoveLowestWord,
        /// Remove an id that may or may not be a member.
        RemoveAny(u32),
        /// Rebuild from the members in ascending order, as the snapshot
        /// decode does.
        Rebuild,
    }

    /// Appends dominate (most with no gap, some skipping whole words),
    /// then removals of the lowest member or of any rank.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..20, 0u32..800).prop_map(|(kind, n)| match kind {
            0..=5 => Op::Append { gap: 0 },
            6..=7 => Op::Append { gap: n / 4 },
            8..=9 => Op::RemoveRank(0),
            10..=13 => Op::RemoveRank(n as usize),
            14..=15 => Op::RemoveLowestWord,
            16..=17 => Op::RemoveAny(n),
            _ => Op::Rebuild,
        })
    }

    fn check(set: &IdSet, model: &BTreeSet<ResultId>, k: usize) -> Result<(), TestCaseError> {
        prop_assert!(set.cursor_is_tight(), "cursor not tight: {:?}", set);
        prop_assert_eq!(set.len(), model.len());
        let all: Vec<ResultId> = set.iter().collect();
        let want: Vec<ResultId> = model.iter().copied().collect();
        prop_assert_eq!(&all, &want);
        let head: Vec<ResultId> = set.iter().take(k).collect();
        prop_assert_eq!(&head[..], &want[..k.min(want.len())]);
        Ok(())
    }

    proptest! {
        /// The bitset against a `BTreeSet<ResultId>` model: after every
        /// append, removal (lowest member, a whole word, absent ids)
        /// and snapshot-style rebuild, the two agree on `len`, on full
        /// ascending iteration and on every `take(k)` prefix, and the
        /// cursor sits on the lowest live word.
        #[test]
        fn matches_btreeset_model(
            ops in proptest::collection::vec((op(), 0usize..80), 1..200),
        ) {
            let mut set = IdSet::default();
            let mut model = BTreeSet::new();
            let mut next = 0u32;
            for (op, k) in ops {
                match op {
                    Op::Append { gap } => {
                        next += gap;
                        prop_assert!(set.insert(ResultId(next)));
                        model.insert(ResultId(next));
                        next += 1;
                    }
                    Op::RemoveRank(rank) => {
                        if let Some(&id) = model.iter().nth(rank % model.len().max(1)) {
                            prop_assert!(set.remove(id));
                            model.remove(&id);
                        }
                    }
                    Op::RemoveLowestWord => {
                        if let Some(&low) = model.iter().next() {
                            let word: Vec<ResultId> =
                                model.range(low..).take_while(|r| r.0 / 64 == low.0 / 64).copied().collect();
                            for id in word {
                                prop_assert!(set.remove(id));
                                model.remove(&id);
                            }
                        }
                    }
                    Op::RemoveAny(id) => {
                        let id = ResultId(id);
                        prop_assert_eq!(set.remove(id), model.remove(&id));
                    }
                    Op::Rebuild => {
                        set = IdSet::default();
                        for &id in &model {
                            prop_assert!(set.insert(id));
                        }
                    }
                }
                check(&set, &model, k)?;
            }
        }
    }

    #[test]
    fn empty_set_iterates_nothing() {
        let mut set = IdSet::default();
        assert_eq!(set.iter().count(), 0);
        assert!(set.insert(ResultId(130)));
        assert!(!set.insert(ResultId(130)));
        assert!(set.remove(ResultId(130)));
        assert!(!set.remove(ResultId(130)));
        assert!(!set.remove(ResultId(9_999)));
        assert_eq!((set.len(), set.iter().count()), (0, 0));
        assert!(set.insert(ResultId(3)));
        assert_eq!(set.iter().collect::<Vec<_>>(), [ResultId(3)]);
    }
}
