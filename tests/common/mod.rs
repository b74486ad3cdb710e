//! Helpers shared by the root integration tests.

use grafite_core::persist::{blob_checksum, words_of_bytes, Header};

/// The leading blob of `bytes` (trailing bytes ignored) re-stamped as
/// format version 1 with a recomputed, valid checksum, so that only its
/// version is wrong.
pub fn restamp_as_v1(bytes: &[u8]) -> Vec<u8> {
    let (mut header, payload) = Header::parse(bytes).expect("a current-format blob");
    header.version = 1;
    header.checksum = blob_checksum(
        header.spec_version_word(),
        header.n_keys,
        header.payload_words,
        words_of_bytes(payload),
    );
    let mut out = Vec::new();
    header.write(&mut out).unwrap();
    out.extend_from_slice(payload);
    out
}
