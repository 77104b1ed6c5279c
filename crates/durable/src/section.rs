//! The canonical state-section vocabulary of snapshots.
//!
//! Server state is partitioned into five named sections — the project
//! database, the credit ledger, the assimilator, the MapReduce
//! JobTracker and the host trust ledger. Snapshot frames carry them by
//! name ([`crate::Sections`]).
//!
//! The list is append-only and its order is canonical: the engine
//! snapshots its sections in this order and recovery re-encodes them in
//! the same one, so two equal server states reached through different
//! paths (live run, full log, compacted mirror) compare byte-identical.

/// Index of the project-database section.
pub const DB: usize = 0;
/// Index of the credit-ledger section.
pub const CREDIT: usize = 1;
/// Index of the assimilator section.
pub const ASSIM: usize = 2;
/// Index of the JobTracker section.
pub const TRACKER: usize = 3;
/// Index of the host trust-ledger section.
pub const TRUST: usize = 4;

/// Canonical section names, in canonical order.
pub const NAMES: [&str; 5] = ["db", "credit", "assim", "tracker", "trust"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_indices_agree() {
        assert_eq!(NAMES[DB], "db");
        assert_eq!(NAMES[CREDIT], "credit");
        assert_eq!(NAMES[ASSIM], "assim");
        assert_eq!(NAMES[TRACKER], "tracker");
        assert_eq!(NAMES[TRUST], "trust");
    }
}
