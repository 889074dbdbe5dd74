//! Golden canonical keys: the content hash and a digest of the canonical
//! bytes of four designs, pinned so any change to canonicalization that
//! would orphan existing cache entries or journals shows up as a failure.
//!
//! The designs live in `tests/data/` in the text format, rendered with
//! `to_text` from the generators in `rsched-designs`:
//!
//! - `fig10.rsg`: `paper::fig10()`, the paper's worked example;
//! - `frisc_g2.rsg`: graph `frisc::g2` of the Table III `frisc` design,
//!   as lowered by `rsched_sgraph::schedule_design`;
//! - `random250.rsg`: `random::random_constraint_graph(250, ..)` with
//!   250 operations and otherwise default settings;
//! - `cascade200.rsg`: `cascade::build_cascade` with 200 operations,
//!   190 links, salt 0 and the natural labeling.
//!
//! A key depends on the graph's structure only, so it is the same
//! whether computed on the generated graph or on its parsed rendering.

use rsched_graph::{CanonicalKey, ConstraintGraph};

/// A word-wise digest of the canonical bytes, independent of the FNV-1a
/// content hash the key carries.
fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x243f_6a88_85a3_08d3;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(23);
    }
    h
}

fn key(text: &str) -> CanonicalKey {
    ConstraintGraph::from_text(text)
        .expect("golden design parses")
        .canonical_key()
}

fn assert_golden(text: &str, hash: u64, len: usize, bytes_digest: u64) {
    let key = key(text);
    assert_eq!(key.hash, hash, "content hash moved");
    assert_eq!(key.bytes.len(), len, "canonical bytes changed length");
    assert_eq!(digest(&key.bytes), bytes_digest, "canonical bytes changed");
}

#[test]
fn fig10_key_is_pinned() {
    assert_golden(
        include_str!("data/fig10.rsg"),
        0xcfb8_8cd5_f8cb_d89c,
        352,
        0x254a_f9d5_d2cf_cb05,
    );
}

#[test]
fn table3_frisc_key_is_pinned() {
    assert_golden(
        include_str!("data/frisc_g2.rsg"),
        0x2cdd_9216_1052_da8a,
        535,
        0x679e_b832_7478_ab4e,
    );
}

#[test]
fn random_250_op_key_is_pinned() {
    assert_golden(
        include_str!("data/random250.rsg"),
        0x11e7_eb17_9e5d_1b8d,
        11277,
        0x9fdd_c751_d8dc_9f01,
    );
}

#[test]
fn cascade_key_is_pinned() {
    assert_golden(
        include_str!("data/cascade200.rsg"),
        0xb555_4be7_c8e9_df75,
        8498,
        0x49df_4006_21c2_eccd,
    );
}
