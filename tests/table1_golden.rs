//! Table I golden regression: the abstract objective of every
//! (model, scheduler, stage-count) cell is pinned to a checked-in golden
//! file, so any drift in the cost model, the model zoo, or a scheduler's
//! output fails loudly instead of silently shifting the paper numbers.
//!
//! The objective is pure IEEE-754 arithmetic (mul/add/max) over a
//! discrete schedule, so the pinned values are compared **bitwise**.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! RESPECT_REGEN_GOLDEN=1 cargo test --test table1_golden
//! git diff tests/golden/table1_objectives.tsv   # review the drift!
//! ```

use std::fmt::Write as _;
use std::path::Path;

use respect::graph::models;
use respect::sched::registry::{self, BuildOptions};
use respect::sched::{
    balanced::ParamBalanced, exact::ExactScheduler, greedy::GreedyCost, Scheduler,
};
use respect::tpu::DeviceSpec;

const GOLDEN_PATH: &str = "tests/golden/table1_objectives.tsv";
const STAGE_COUNTS: [usize; 3] = [4, 5, 6];

fn schedulers() -> Vec<(&'static str, Box<dyn Scheduler>)> {
    let model = DeviceSpec::coral().cost_model();
    let mut schedulers: Vec<(&'static str, Box<dyn Scheduler>)> = vec![
        ("balanced", Box::new(ParamBalanced::new())),
        ("greedy", Box::new(GreedyCost::new(model))),
        // un-budgeted exact: provably optimal, hence deterministic
        ("exact", Box::new(ExactScheduler::new(model))),
    ];
    // the schedulers that pack with ρ, so their rows pin its bits
    let options = BuildOptions::default().with_cost_model(model);
    for name in ["hu", "force", "anneal"] {
        let scheduler = registry::build(name, &options).expect("builtin scheduler");
        schedulers.push((name, scheduler));
    }
    schedulers
}

fn compute_rows() -> Vec<(String, f64)> {
    let model = DeviceSpec::coral().cost_model();
    let mut rows = Vec::new();
    for (name, dag) in models::table1() {
        for (sched_name, scheduler) in schedulers() {
            for stages in STAGE_COUNTS {
                let s = scheduler
                    .schedule(&dag, stages)
                    .unwrap_or_else(|e| panic!("{sched_name} on {name}@{stages}: {e}"));
                let obj = model.objective(&dag, &s);
                rows.push((format!("{name}\t{sched_name}\t{stages}"), obj));
            }
        }
    }
    rows
}

fn render(rows: &[(String, f64)]) -> String {
    let mut out = String::from(
        "# model\tscheduler\tstages\tobjective_bits\tobjective_s\n\
         # Regenerate with RESPECT_REGEN_GOLDEN=1 cargo test --test table1_golden\n",
    );
    for (key, obj) in rows {
        writeln!(out, "{key}\t{:016x}\t{obj:.17e}", obj.to_bits()).unwrap();
    }
    out
}

#[test]
fn objectives_match_golden_file() {
    let rows = compute_rows();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("RESPECT_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, render(&rows)).expect("write golden file");
        eprintln!("regenerated {GOLDEN_PATH} with {} rows", rows.len());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{GOLDEN_PATH} unreadable ({e}); regenerate it"));
    let mut pinned = std::collections::BTreeMap::new();
    for line in golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let mut parts = line.rsplitn(3, '\t');
        let _decimal = parts.next().expect("decimal column");
        let bits = parts.next().expect("bits column");
        let key = parts.next().expect("key columns").to_string();
        let bits = u64::from_str_radix(bits, 16).expect("hex objective bits");
        pinned.insert(key, f64::from_bits(bits));
    }
    assert_eq!(
        pinned.len(),
        rows.len(),
        "golden file has {} rows, run produced {}",
        pinned.len(),
        rows.len()
    );
    let mut drifted = Vec::new();
    for (key, obj) in &rows {
        match pinned.get(key) {
            None => drifted.push(format!("{key}: missing from golden file")),
            Some(want) if want.to_bits() != obj.to_bits() => drifted.push(format!(
                "{key}: pinned {want:.17e} but computed {obj:.17e} (rel diff {:.2e})",
                (obj - want).abs() / want.abs().max(f64::MIN_POSITIVE)
            )),
            Some(_) => {}
        }
    }
    assert!(
        drifted.is_empty(),
        "objective drift against {GOLDEN_PATH} — review and regenerate if intentional:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn golden_sanity_exact_dominates_heuristics() {
    // independent of the pinned values: exact must be the best column of
    // every (model, stages) pair it appears in
    let rows = compute_rows();
    let lookup = |model: &str, sched: &str, stages: usize| {
        rows.iter()
            .find(|(k, _)| k == &format!("{model}\t{sched}\t{stages}"))
            .map(|&(_, v)| v)
            .unwrap()
    };
    for (name, _) in models::table1() {
        for stages in STAGE_COUNTS {
            let exact = lookup(name, "exact", stages);
            for sched in ["balanced", "greedy", "hu", "force", "anneal"] {
                let h = lookup(name, sched, stages);
                assert!(
                    exact <= h + 1e-15,
                    "{name}@{stages}: exact {exact} worse than {sched} {h}"
                );
            }
        }
    }
}
