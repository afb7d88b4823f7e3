//! Corrupt-input hardening for the `.rspp` policy format: truncated,
//! garbage, and bit-flipped inputs must surface as [`WeightIoError`]s —
//! never panics, never silent half-loaded policies, never a policy that
//! cannot decode.

use respect_core::model_io::{read_policy, write_policy};
use respect_core::{embed, DecodeMode, PolicyConfig, PtrNetPolicy};
use respect_graph::{SyntheticConfig, SyntheticSampler};
use respect_nn::serialize::WeightIoError;

fn valid_bytes() -> Vec<u8> {
    let policy = PtrNetPolicy::new(PolicyConfig::small(6));
    let mut buf = Vec::new();
    write_policy(&mut buf, &policy).expect("serialize fixture policy");
    buf
}

#[test]
fn every_truncation_is_an_error() {
    let bytes = valid_bytes();
    // every strict prefix of a valid file is truncated somewhere: the
    // reader must fail cleanly at all of them
    for len in 0..bytes.len() {
        let err = read_policy(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("truncation at {len}/{} accepted", bytes.len()));
        assert!(
            matches!(err, WeightIoError::Io(_) | WeightIoError::Format(_)),
            "unexpected error kind at {len}: {err}"
        );
    }
}

#[test]
fn garbage_bytes_are_an_error() {
    let garbage: Vec<u8> = (0..4096u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9).wrapping_add(i >> 3) % 251) as u8)
        .collect();
    assert!(read_policy(garbage.as_slice()).is_err());
    assert!(read_policy(&b""[..]).is_err());
    assert!(read_policy(&b"RSP"[..]).is_err(), "partial magic");
    assert!(read_policy(&b"RSPPonly-a-header-no-weights"[..]).is_err());
}

#[test]
fn single_bit_flips_never_panic() {
    // A flipped bit may still parse (weights are arbitrary f32s), but the
    // reader must either error or return a policy that decodes — never
    // panic, hang or hand back weights the header does not describe. Flip
    // every bit of the file and decode a fixture graph with every policy
    // that loads.
    let bytes = valid_bytes();
    let dag = SyntheticSampler::new(
        SyntheticConfig {
            num_nodes: 12,
            ..SyntheticConfig::paper(3)
        },
        5,
    )
    .sample();
    let mut loaded = 0;
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 1 << bit;
            let Ok(policy) = read_policy(corrupted.as_slice()) else {
                continue;
            };
            loaded += 1;
            let feats = embed(&dag, &policy.config().embedding);
            let seq = policy.decode(&dag, &feats, &mut DecodeMode::Greedy);
            let mut ids: Vec<usize> = seq.iter().map(|v| v.index()).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..dag.len()).collect::<Vec<_>>(), "flip {pos}.{bit}");
        }
    }
    // the weight data is most of the file, and any finite value loads
    assert!(
        loaded > bytes.len() * 8 / 2,
        "{loaded} of {} flips loaded",
        bytes.len() * 8
    );
}

#[test]
fn oversized_declared_counts_are_rejected_not_allocated() {
    // magic + plausible header, then a weight block claiming 2^32-ish
    // entries: must be rejected by the sanity caps, not trusted
    let mut buf = Vec::new();
    buf.extend_from_slice(b"RSPP");
    buf.extend_from_slice(&8u32.to_le_bytes()); // hidden
    buf.extend_from_slice(&2u32.to_le_bytes()); // max_parents
    buf.push(1); // dependency_masking
    buf.extend_from_slice(&0u64.to_le_bytes()); // seed
    buf.extend_from_slice(b"RSPW");
    buf.extend_from_slice(&1u32.to_le_bytes()); // version
    buf.extend_from_slice(&1u32.to_le_bytes()); // count
    buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd name length
    let err = read_policy(buf.as_slice()).expect_err("absurd name length accepted");
    assert!(matches!(err, WeightIoError::Format(_)), "{err}");
}

#[test]
fn load_policy_missing_file_is_io_error() {
    let err = respect_core::model_io::load_policy("/nonexistent/respect/policy.rspp")
        .expect_err("missing file must not load");
    assert!(matches!(err, WeightIoError::Io(_)), "{err}");
}
