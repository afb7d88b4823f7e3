//! Teacher-label golden regression: the exact solver's labels for the
//! `train` benchmark's teacher set, `DatasetConfig::paper_scaled(160, 4)`
//! under `CostModel::coral()`, are pinned to a checked-in golden file.
//!
//! Each example gets one row: the FNV-1a hash of `teacher.stage_of()`, the
//! FNV-1a hash of the teacher sequence `γ`, and the bits of the teacher's
//! objective. The policy learns by imitating these labels, so a search
//! change that returns a different tied optimum changes every trained
//! policy even when every objective stays the same; the schedule hash
//! catches that.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! RESPECT_REGEN_GOLDEN=1 cargo test --test teacher_labels_golden
//! git diff tests/golden/teacher_labels.tsv   # review the drift!
//! ```

use std::fmt::Write as _;
use std::path::Path;

use respect::core::dataset::{DatasetConfig, TeacherDataset};
use respect::sched::CostModel;

const GOLDEN_PATH: &str = "tests/golden/teacher_labels.tsv";

/// 64-bit FNV-1a over a sequence of little-endian words.
fn fnv1a<const N: usize>(words: impl IntoIterator<Item = [u8; N]>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in words.into_iter().flatten() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn render() -> String {
    let model = CostModel::coral();
    let config = DatasetConfig::paper_scaled(160, 4);
    let dataset = TeacherDataset::generate(&config, &model).expect("teacher set generates");
    let mut out = String::from(
        "# example\tmax_in_degree\tstage_fnv\tgamma_fnv\tobjective_bits\tobjective_s\n\
         # Regenerate with RESPECT_REGEN_GOLDEN=1 cargo test --test teacher_labels_golden\n",
    );
    for (i, ex) in dataset.examples.iter().enumerate() {
        assert!(ex.teacher.is_valid(&ex.dag), "example {i}");
        let stages = ex
            .teacher
            .stage_of()
            .iter()
            .map(|&s| (s as u64).to_le_bytes());
        let gamma = ex.gamma.iter().map(|v| v.0.to_le_bytes());
        let objective = model.objective(&ex.dag, &ex.teacher);
        writeln!(
            out,
            "{i}\t{}\t{:016x}\t{:016x}\t{:016x}\t{objective:.17e}",
            ex.dag.max_in_degree(),
            fnv1a(stages),
            fnv1a(gamma),
            objective.to_bits(),
        )
        .unwrap();
    }
    out
}

#[test]
fn teacher_labels_match_golden_file() {
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
        .map(|(want, got)| format!("pinned   {want}\nlabelled {got}"))
        .collect();
    assert_eq!(
        golden.lines().count(),
        rendered.lines().count(),
        "golden file and teacher set differ in row count"
    );
    assert!(
        drifted.is_empty(),
        "teacher-label drift against {GOLDEN_PATH} — review and regenerate if intentional:\n{}",
        drifted.join("\n")
    );
}
