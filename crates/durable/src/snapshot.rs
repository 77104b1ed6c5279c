//! Full-state snapshots: an ordered list of named, opaque sections.
//!
//! Each owning crate encodes its own state (`vcore` the project
//! database / credit ledger / assimilator, `core` the JobTracker) into
//! one section; `vmr-durable` only frames them. Section order is
//! chosen by the writer and preserved, so an encoded snapshot is
//! canonical: two equal server states produce byte-identical section
//! dumps, which is what the recovery audit compares.
//!
//! The wire form (`count:u32 (name:str blob)*`) is written in one place,
//! [`SectionWriter`]: the journal hands one to the engine so each owner
//! encodes its section straight into the snapshot frame, and
//! [`Sections::encode`] feeds it sections that already exist as bytes.

use crate::wire::{Dec, Enc, WireError};

/// An ordered list of `(name, bytes)` state sections.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sections {
    /// The sections, in writer-chosen (and preserved) order.
    pub entries: Vec<(String, Vec<u8>)>,
}

impl Sections {
    /// An empty snapshot.
    pub fn new() -> Self {
        Sections::default()
    }

    /// Appends a named section.
    pub fn push(&mut self, name: &str, bytes: Vec<u8>) {
        self.entries.push((name.to_string(), bytes));
    }

    /// The bytes of section `name`, if present.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Append the wire form to `e`.
    pub fn encode(&self, e: &mut Enc) {
        self.write(&mut SectionWriter::new(e));
    }

    /// Appends every section to `w`, in order.
    pub fn write(&self, w: &mut SectionWriter<'_>) {
        for (name, bytes) in &self.entries {
            w.section(name, |e| e.raw(bytes));
        }
    }

    /// The sections `write` produces, as owned byte vectors — how the
    /// audits and tests look at what a snapshot frame would hold.
    pub fn collect(write: impl FnOnce(&mut SectionWriter<'_>)) -> Self {
        let mut e = Enc::new();
        write(&mut SectionWriter::new(&mut e));
        let mut d = Dec::new(e.as_slice());
        Sections::decode(&mut d).expect("a section writer's output decodes")
    }

    /// The wire form as a standalone byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e =
            Enc::with_capacity(64 + self.entries.iter().map(|(_, b)| b.len()).sum::<usize>());
        self.encode(&mut e);
        e.into_vec()
    }

    /// Decode from the cursor.
    pub fn decode(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let n = d.u32()? as usize;
        let mut entries = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let name = d.str()?;
            let bytes = d.bytes()?;
            entries.push((name, bytes));
        }
        Ok(Sections { entries })
    }
}

/// Writes the wire form of [`Sections`] one section at a time, each
/// body encoded in place behind its name.
#[derive(Debug)]
pub struct SectionWriter<'a> {
    e: &'a mut Enc,
    /// Offset of the section count, patched as sections arrive.
    count_at: usize,
    count: u32,
}

impl<'a> SectionWriter<'a> {
    /// Starts an (as yet empty) section list at the end of `e`.
    pub fn new(e: &'a mut Enc) -> Self {
        let count_at = e.len();
        e.u32(0);
        SectionWriter {
            e,
            count_at,
            count: 0,
        }
    }

    /// Appends section `name`, whose bytes `body` encodes. Order is the
    /// caller's and is preserved.
    pub fn section(&mut self, name: &str, body: impl FnOnce(&mut Enc)) {
        self.e.str(name);
        self.e.nested(body);
        self.count += 1;
        self.e.patch_u32(self.count_at, self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_order_and_bytes() {
        let mut s = Sections::new();
        s.push("db", vec![1, 2, 3]);
        s.push("credit", vec![]);
        s.push("tracker", vec![9]);
        let v = s.to_bytes();
        let mut d = Dec::new(&v);
        let back = Sections::decode(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, s);
        assert_eq!(back.get("credit"), Some(&[][..]));
        assert_eq!(back.get("missing"), None);
    }

    #[test]
    fn collected_writer_output_is_the_sections_it_wrote() {
        let got = Sections::collect(|w| {
            w.section("db", |e| e.u16(0x0102));
            w.section("credit", |_| ());
        });
        let mut want = Sections::new();
        want.push("db", vec![1, 2]);
        want.push("credit", vec![]);
        assert_eq!(got, want);
        assert_eq!(Sections::collect(|_| ()), Sections::new());
    }

    #[test]
    fn equal_states_encode_identically() {
        let mut a = Sections::new();
        a.push("db", vec![5, 6]);
        let mut b = Sections::new();
        b.push("db", vec![5, 6]);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }
}
