//! Shared identifiers and small enums for the middleware model.

use std::fmt;

/// A work unit (the unit of replication) in the project database.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WuId(pub u32);

/// One replica instance of a work unit, sent to a single client.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResultId(pub u32);

/// A volunteer client (one per simulated machine).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl fmt::Debug for WuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wu{}", self.0)
    }
}
impl fmt::Display for WuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wu{}", self.0)
    }
}
impl fmt::Debug for ResultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}
impl fmt::Display for ResultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}
impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}
impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A fingerprint of an output file set — what validators compare.
///
/// In the real system this is a cryptographic hash of the output files
/// (the paper proposes reporting hashes instead of whole files); in the
/// timing model it is a deterministic function of the work unit plus any
/// byzantine corruption.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OutputFingerprint(pub u64);

/// Where an input file can be fetched from.
#[derive(Clone, Debug, PartialEq)]
pub enum FileSource {
    /// The project's data server (plain BOINC path).
    DataServer,
    /// Peer volunteers holding the file (BOINC-MR inter-client path).
    /// Ordered preference list; the client walks it with retries and
    /// falls back to the data server after `PEER_RETRY_LIMIT` failures.
    Peers(Vec<ClientId>),
}

/// An input or output file attached to a work unit.
#[derive(Clone, Debug, PartialEq)]
pub struct FileRef {
    /// Logical file name (unique within the project).
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Where to fetch it from (inputs only; outputs go to the server).
    pub source: FileSource,
}

impl FileRef {
    /// Convenience constructor for a server-hosted file.
    pub fn on_server(name: impl Into<String>, bytes: u64) -> Self {
        FileRef {
            name: name.into(),
            bytes,
            source: FileSource::DataServer,
        }
    }

    /// Append the WAL wire form to `e`.
    pub fn encode(&self, e: &mut vmr_durable::Enc) {
        e.str(&self.name);
        e.u64(self.bytes);
        match &self.source {
            FileSource::DataServer => e.u8(0),
            FileSource::Peers(peers) => {
                e.u8(1);
                e.u32(peers.len() as u32);
                for p in peers {
                    e.u32(p.0);
                }
            }
        }
    }

    /// Decode the WAL wire form.
    pub fn decode(d: &mut vmr_durable::Dec<'_>) -> Result<Self, vmr_durable::WireError> {
        let name = d.str()?;
        let bytes = d.u64()?;
        let source = match d.u8()? {
            0 => FileSource::DataServer,
            1 => {
                let n = d.u32()? as usize;
                let mut peers = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    peers.push(ClientId(d.u32()?));
                }
                FileSource::Peers(peers)
            }
            t => return Err(vmr_durable::WireError::BadTag(t)),
        };
        Ok(FileRef {
            name,
            bytes,
            source,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(WuId(3).to_string(), "wu3");
        assert_eq!(ResultId(4).to_string(), "r4");
        assert_eq!(ClientId(5).to_string(), "c5");
    }

    #[test]
    fn server_file_helper() {
        let f = FileRef::on_server("in_0", 123);
        assert_eq!(f.source, FileSource::DataServer);
        assert_eq!(f.bytes, 123);
    }
}
