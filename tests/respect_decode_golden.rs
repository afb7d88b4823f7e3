//! RESPECT decode golden regression: the sequences an untrained
//! `PolicyConfig::small(32)` policy decodes for every Table I model are
//! pinned to a checked-in golden file, as one FNV-1a hash per sequence.
//!
//! Each model has two rows' worth of bits: the greedy sequence and a
//! `sample_seeded` sequence. Sampling draws one uniform number per step,
//! also on steps with a single candidate, so the sampled hash pins the
//! draw count as well as the pointer logits. The Table I golden pins
//! the other schedulers; this file pins the policy's decode at the
//! scale the `schedule` benchmark runs it.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! RESPECT_REGEN_GOLDEN=1 cargo test --test respect_decode_golden
//! git diff tests/golden/respect_decode.tsv   # review the drift!
//! ```

use std::fmt::Write as _;
use std::path::Path;

use respect::core::{embed, DecodeMode, PolicyConfig, PtrNetPolicy};
use respect::graph::{models, topo, NodeId};

const GOLDEN_PATH: &str = "tests/golden/respect_decode.tsv";
const SAMPLE_SEED: u64 = 0x5eed;

/// 64-bit FNV-1a over the little-endian node ids.
fn fnv1a(sequence: &[NodeId]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in sequence {
        for b in v.0.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn render() -> String {
    let policy = PtrNetPolicy::new(PolicyConfig::small(32));
    let mut out = String::from(
        "# model\tnodes\tgreedy_fnv\tsampled_fnv\n\
         # Regenerate with RESPECT_REGEN_GOLDEN=1 cargo test --test respect_decode_golden\n",
    );
    for (name, dag) in models::table1() {
        let feats = embed(&dag, &policy.config().embedding);
        let greedy = policy.decode(&dag, &feats, &mut DecodeMode::Greedy);
        let sampled = policy.decode(&dag, &feats, &mut DecodeMode::sample_seeded(SAMPLE_SEED));
        for seq in [&greedy, &sampled] {
            assert!(topo::is_topological_order(&dag, seq), "{name}");
        }
        writeln!(
            out,
            "{name}\t{}\t{:016x}\t{:016x}",
            dag.len(),
            fnv1a(&greedy),
            fnv1a(&sampled)
        )
        .unwrap();
    }
    out
}

#[test]
fn decoded_sequences_match_golden_file() {
    let rendered = render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("RESPECT_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden file");
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{GOLDEN_PATH} unreadable ({e}); regenerate it"));
    let drifted: Vec<String> = golden
        .lines()
        .zip(rendered.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("pinned  {want}\ndecoded {got}"))
        .collect();
    assert_eq!(
        golden.lines().count(),
        rendered.lines().count(),
        "golden file and decode differ in row count"
    );
    assert!(
        drifted.is_empty(),
        "decode drift against {GOLDEN_PATH} — review and regenerate if intentional:\n{}",
        drifted.join("\n")
    );
}
