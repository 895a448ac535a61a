//! Typed failures of the store container and its codecs.

use std::fmt;

/// Everything that can go wrong reading (or writing) a store file.
///
/// The variants are deliberately fine-grained: CI and operators need to
/// tell a truncated upload (`Truncated`) from bit rot
/// (`ChecksumMismatch`) from an artifact produced by a newer build
/// (`UnsupportedVersion`) — the remediation differs for each.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure (not a format problem).
    Io(std::io::Error),
    /// The file does not open with the `ANNS` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file's format version is not one this build reads.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The stream ended before the declared structure was complete.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A section's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// The section's tag, as ASCII where printable.
        tag: [u8; 4],
        /// Checksum recorded in the file.
        stored: u32,
        /// Checksum of the bytes actually read.
        computed: u32,
    },
    /// A scheme record carries a kind tag this build cannot decode.
    UnknownSchemeKind(u8),
    /// A scheme cannot be persisted (no stored representation).
    Unsupported(String),
    /// A section verified its checksum but its contents are inconsistent.
    Malformed(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::BadMagic { found } => {
                write!(
                    f,
                    "not an anns store: magic {found:?} != {:?}",
                    crate::MAGIC
                )
            }
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "store format version {found} unsupported (this build reads {supported})"
            ),
            StoreError::Truncated { context } => {
                write!(f, "store truncated while reading {context}")
            }
            StoreError::ChecksumMismatch {
                tag,
                stored,
                computed,
            } => write!(
                f,
                "section {} checksum mismatch: stored {stored:#010x}, computed {computed:#010x}",
                String::from_utf8_lossy(tag)
            ),
            StoreError::UnknownSchemeKind(kind) => {
                write!(f, "unknown scheme kind {kind}")
            }
            StoreError::Unsupported(what) => {
                write!(f, "scheme has no stored representation: {what}")
            }
            StoreError::Malformed(what) => write!(f, "malformed store section: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A deferred-verification failure, latched at first touch of a lazily
/// mapped payload and replayed to every subsequent accessor.
///
/// Unlike [`StoreError`] (which carries a non-clonable `io::Error`),
/// this type is `Clone + PartialEq + Eq` so it can live in a
/// verified-once latch and travel inside engine-level error enums — the
/// typed value a probe receives when an mmap-backed section fails its
/// first-touch checksum, instead of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PayloadFault {
    /// The mapped bytes do not match the checksum recorded in the file.
    Checksum {
        /// The section's tag, as ASCII where printable.
        tag: [u8; 4],
        /// Checksum recorded in the file.
        stored: u32,
        /// Checksum of the mapped bytes.
        computed: u32,
    },
    /// The bytes verified (or were heap-owned) but failed to decode.
    Decode(String),
    /// The bytes could not be read back from the file: it ends before
    /// the payload does (it was truncated under the mount), or the read
    /// failed.
    Read {
        /// The I/O error's kind: `UnexpectedEof` for a short file.
        kind: std::io::ErrorKind,
        /// What was being read, and the error.
        what: String,
    },
}

impl fmt::Display for PayloadFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadFault::Checksum {
                tag,
                stored,
                computed,
            } => write!(
                f,
                "lazy verification of section {} failed: stored {stored:#010x}, computed {computed:#010x}",
                String::from_utf8_lossy(tag)
            ),
            PayloadFault::Decode(what) => write!(f, "lazy decode failed: {what}"),
            PayloadFault::Read { what, .. } => write!(f, "lazy read failed: {what}"),
        }
    }
}

impl std::error::Error for PayloadFault {}

impl From<PayloadFault> for StoreError {
    fn from(fault: PayloadFault) -> Self {
        match fault {
            PayloadFault::Checksum {
                tag,
                stored,
                computed,
            } => StoreError::ChecksumMismatch {
                tag,
                stored,
                computed,
            },
            PayloadFault::Decode(what) => StoreError::Malformed(what),
            PayloadFault::Read { kind, what } => StoreError::Io(std::io::Error::new(kind, what)),
        }
    }
}

impl From<&StoreError> for PayloadFault {
    fn from(err: &StoreError) -> Self {
        match err {
            StoreError::ChecksumMismatch {
                tag,
                stored,
                computed,
            } => PayloadFault::Checksum {
                tag: *tag,
                stored: *stored,
                computed: *computed,
            },
            StoreError::Io(e) => PayloadFault::Read {
                kind: e.kind(),
                what: e.to_string(),
            },
            other => PayloadFault::Decode(other.to_string()),
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        // An interrupted read manifests as UnexpectedEof from read_exact;
        // map that to the typed truncation error so callers need not
        // pattern-match on io::ErrorKind.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated { context: "stream" }
        } else {
            StoreError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<(StoreError, &str)> = vec![
            (
                StoreError::BadMagic { found: *b"JSON" },
                "not an anns store",
            ),
            (
                StoreError::UnsupportedVersion {
                    found: 9,
                    supported: 1,
                },
                "version 9",
            ),
            (
                StoreError::Truncated { context: "header" },
                "truncated while reading header",
            ),
            (
                StoreError::ChecksumMismatch {
                    tag: *b"IDXP",
                    stored: 1,
                    computed: 2,
                },
                "IDXP checksum mismatch",
            ),
            (StoreError::UnknownSchemeKind(77), "scheme kind 77"),
            (
                StoreError::Unsupported("custom".into()),
                "no stored representation",
            ),
            (StoreError::Malformed("bad".into()), "malformed"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err} missing {needle:?}");
        }
    }

    #[test]
    fn eof_maps_to_truncated() {
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(
            StoreError::from(eof),
            StoreError::Truncated { .. }
        ));
        let other = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "no");
        assert!(matches!(StoreError::from(other), StoreError::Io(_)));
    }

    #[test]
    fn read_faults_survive_the_store_error_round_trip() {
        let fault = PayloadFault::Read {
            kind: std::io::ErrorKind::UnexpectedEof,
            what: "reading 64 bytes at file offset 128: failed to fill whole buffer".into(),
        };
        let err = StoreError::from(fault.clone());
        assert!(matches!(&err, StoreError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof));
        assert_eq!(PayloadFault::from(&err), fault);
        assert!(fault.to_string().contains("at file offset 128"));
    }
}
