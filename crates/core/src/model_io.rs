//! Persistence for trained policies: configuration header + weights.
//!
//! Layout: magic `"RSPP"`, a fixed-width little-endian header with the
//! [`PolicyConfig`] fields, then the [`respect_nn::serialize`] weight
//! block.

use std::io::{Read, Write};
use std::path::Path;

use respect_nn::serialize::{read_params, write_params, WeightIoError};

use crate::embedding::EmbeddingConfig;
use crate::policy::{PolicyConfig, PtrNetPolicy};

const MAGIC: &[u8; 4] = b"RSPP";

/// Writes a policy (config + weights) to any writer.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_policy<W: Write>(mut w: W, policy: &PtrNetPolicy) -> Result<(), WeightIoError> {
    let c = policy.config();
    w.write_all(MAGIC)?;
    w.write_all(&(c.hidden as u32).to_le_bytes())?;
    w.write_all(&(c.embedding.max_parents as u32).to_le_bytes())?;
    w.write_all(&[c.dependency_masking as u8])?;
    w.write_all(&c.seed.to_le_bytes())?;
    write_params(w, policy.params())
}

/// Reads a policy back from any reader. A policy it returns can decode:
/// its weights are exactly those [`PtrNetPolicy::new`] registers for the
/// header's configuration, with the same shapes, and all finite.
///
/// # Errors
///
/// Returns [`WeightIoError::Format`] on bad magic, truncation, a header
/// that disagrees with the weights, or a non-finite weight, and propagates
/// reader failures.
pub fn read_policy<R: Read>(mut r: R) -> Result<PtrNetPolicy, WeightIoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(WeightIoError::Format("bad policy magic".into()));
    }
    let mut u32buf = [0u8; 4];
    r.read_exact(&mut u32buf)?;
    let hidden = u32::from_le_bytes(u32buf);
    r.read_exact(&mut u32buf)?;
    let max_parents = u32::from_le_bytes(u32buf);
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let mut seedbuf = [0u8; 8];
    r.read_exact(&mut seedbuf)?;
    let dependency_masking = match flag[0] {
        0 => false,
        1 => true,
        b => return Err(WeightIoError::Format(format!("bad masking flag {b}"))),
    };
    let params = read_params(r)?;
    let expected = weight_shapes(hidden, max_parents);
    if params.len() != expected.len() {
        return Err(WeightIoError::Format(format!(
            "{} weights, expected {}",
            params.len(),
            expected.len()
        )));
    }
    for (name, shape) in expected {
        let m = params
            .get(name)
            .ok_or_else(|| WeightIoError::Format(format!("missing weight {name:?}")))?;
        if (m.rows() as u64, m.cols() as u64) != shape {
            return Err(WeightIoError::Format(format!(
                "weight {name:?} is {:?}, header says {shape:?}",
                m.shape()
            )));
        }
        if !m.as_slice().iter().all(|x| x.is_finite()) {
            return Err(WeightIoError::Format(format!("non-finite {name:?}")));
        }
    }
    let config = PolicyConfig {
        hidden: hidden as usize,
        embedding: EmbeddingConfig {
            max_parents: max_parents as usize,
        },
        dependency_masking,
        seed: u64::from_le_bytes(seedbuf),
    };
    Ok(PtrNetPolicy::from_parts(config, params))
}

/// The `(name, (rows, cols))` of every weight [`PtrNetPolicy::new`]
/// registers for `hidden` cells and `max_parents` parent slots, in order.
/// Computed in `u64` from the header's `u32` fields, so a corrupt header
/// neither overflows nor allocates.
fn weight_shapes(hidden: u32, max_parents: u32) -> [(&'static str, (u64, u64)); 14] {
    let h = u64::from(hidden);
    [
        ("proj.w", (h, 3 + 2 * u64::from(max_parents))), // feature_dim()
        ("enc.w", (4 * h, 2 * h)),
        ("enc.b", (4 * h, 1)),
        ("dec.w", (4 * h, 2 * h)),
        ("dec.b", (4 * h, 1)),
        ("glimpse.w_ref", (h, h)),
        ("glimpse.w_q", (h, h)),
        ("glimpse.v", (h, 1)),
        ("glimpse.b", (h, 1)),
        ("pointer.w_ref", (h, h)),
        ("pointer.w_q", (h, h)),
        ("pointer.v", (h, 1)),
        ("pointer.b", (h, 1)),
        ("dec0", (h, 1)),
    ]
}

/// Saves a policy to a file.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save_policy(path: impl AsRef<Path>, policy: &PtrNetPolicy) -> Result<(), WeightIoError> {
    let f = std::fs::File::create(path)?;
    write_policy(std::io::BufWriter::new(f), policy)
}

/// Loads a policy from a file.
///
/// # Errors
///
/// Propagates file-open/read errors and format violations.
pub fn load_policy(path: impl AsRef<Path>) -> Result<PtrNetPolicy, WeightIoError> {
    let f = std::fs::File::open(path)?;
    read_policy(std::io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DecodeMode;
    use respect_graph::{SyntheticConfig, SyntheticSampler};

    #[test]
    fn roundtrip_preserves_config_and_behaviour() {
        let policy = PtrNetPolicy::new(PolicyConfig::small(10));
        let mut buf = Vec::new();
        write_policy(&mut buf, &policy).unwrap();
        let restored = read_policy(buf.as_slice()).unwrap();
        assert_eq!(policy.config(), restored.config());
        assert_eq!(policy.params(), restored.params());
        // behavioural equality: identical greedy decodes
        let dag = SyntheticSampler::new(SyntheticConfig::paper(3), 6).sample();
        let feats = crate::embedding::embed(&dag, &policy.config().embedding);
        assert_eq!(
            policy.decode(&dag, &feats, &mut DecodeMode::Greedy),
            restored.decode(&dag, &feats, &mut DecodeMode::Greedy)
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("respect_core_model_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policy.rspp");
        let policy = PtrNetPolicy::new(PolicyConfig::small(6));
        save_policy(&path, &policy).unwrap();
        let restored = load_policy(&path).unwrap();
        assert_eq!(policy.params(), restored.params());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn weight_shapes_are_what_new_registers() {
        for (hidden, max_parents) in [(1, 0), (6, 2), (10, 4)] {
            let config = PolicyConfig {
                hidden: hidden as usize,
                embedding: EmbeddingConfig {
                    max_parents: max_parents as usize,
                },
                ..PolicyConfig::paper()
            };
            let registered: Vec<_> = PtrNetPolicy::new(config)
                .params()
                .iter()
                .map(|(name, m)| (name.to_string(), (m.rows() as u64, m.cols() as u64)))
                .collect();
            let computed: Vec<_> = weight_shapes(hidden, max_parents)
                .iter()
                .map(|&(name, shape)| (name.to_string(), shape))
                .collect();
            assert_eq!(
                registered, computed,
                "hidden {hidden}, max_parents {max_parents}"
            );
        }
    }

    #[test]
    fn rejects_header_that_disagrees_with_weights() {
        let policy = PtrNetPolicy::new(PolicyConfig::small(6));
        let mut buf = Vec::new();
        write_policy(&mut buf, &policy).unwrap();
        for (at, value) in [(4, 7u32), (4, 6 << 20), (8, 3)] {
            let mut bad = buf.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            let err = read_policy(bad.as_slice()).unwrap_err();
            assert!(matches!(err, WeightIoError::Format(_)), "{err}");
        }
    }

    #[test]
    fn rejects_non_finite_weights() {
        let mut policy = PtrNetPolicy::new(PolicyConfig::small(6));
        policy
            .params_mut()
            .get_mut("dec0")
            .unwrap()
            .set(2, 0, f32::NAN);
        let mut buf = Vec::new();
        write_policy(&mut buf, &policy).unwrap();
        let err = read_policy(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn rejects_foreign_files() {
        let err = read_policy(&b"WRONGDATA..."[..]).unwrap_err();
        assert!(matches!(err, WeightIoError::Format(_)));
    }
}
