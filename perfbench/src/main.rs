//! End-to-end and per-layer wall-clock benchmark of the RESPECT stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|schedule|sim|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed` (set-up, repeated and
//! timed), then repeats one fixed pass over its work until `--seconds`
//! are used, timing each call into the layer crates from outside. Outputs
//! are checked after every pass. With `--trace 1` the passes are then
//! repeated with every layer call wrapped in an in-memory span; the spans
//! are written under `perfbench/out/`. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics untraced, the per-layer metrics traced). Lines before it carry
//! the run metadata, fingerprints and every measured quantity with its
//! unit; stderr carries each pass's wall time.

mod fleet;
mod schedule;
mod sim;
mod trace;
mod train;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

use trace::Tracer;
use util::{first_quartile, json_str, median, timed, Checks, RunMeta};

/// Set-ups per run: until together they have taken [`SETUP_BUDGET_S`],
/// at least [`MIN_SETUP_REPS`] and at most [`MAX_SETUP_REPS`]. They are
/// spread over the run, between the timed passes: machine speed drifts
/// on a scale of seconds, so set-ups run back to back read whatever state
/// the machine was in at that moment. `setup_s` is their first quartile,
/// for the reason given at [`summarize`].
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 100_000;
const SETUP_BUDGET_S: f64 = 1.0;

/// Passes per run, however long they take, so that no median rests on
/// one or two passes, nor on how many happened to fit in `--seconds`.
const MIN_PASSES: usize = 3;

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("wall_s", "s")];

/// Per-layer metrics `(name, unit)`, reported by every traced run; a
/// layer the workload never calls reads 0. The first block holds the
/// workload-level quantities, measured untraced within the traced run.
const PER_LAYER: [(&str, &str); 45] = [
    ("train_s", "s"),
    ("train_reward", "cosine"),
    ("respect_solve_s", "s"),
    ("exact_solve_s", "s"),
    ("respect_gap_pct", "%"),
    ("respect_speedup_vs_compiler", "x"),
    ("des_events_per_s", "events/s"),
    ("sim_mean_latency_ms", "sim-ms"),
    ("fleet_p99_ms", "sim-ms"),
    ("fleet_shed_pct", "%"),
    ("core.teacher_s", "s"),
    ("core.teacher_graphs_per_s", "graphs/s"),
    ("core.sgd_s", "s"),
    ("core.train_steps", "count"),
    ("core.rollout_s", "s"),
    ("nn.backward_s", "s"),
    ("core.decode_batch_s", "s"),
    ("core.embed_s", "s"),
    ("core.decode_s", "s"),
    ("core.decode_nodes_per_s", "nodes/s"),
    ("sched.pack_s", "s"),
    ("sched.repair_s", "s"),
    ("sched.exact_s", "s"),
    ("sched.exact_states", "count"),
    ("sched.exact_states_per_s", "states/s"),
    ("tpu.sim_run_s", "s"),
    ("tpu.events", "count"),
    ("tpu.events_per_request", "events"),
    ("tpu.resource_acquires", "count"),
    ("tpu.bus_busy_frac", "ratio"),
    ("serve.fleet_run_s", "s"),
    ("serve.events", "count"),
    ("serve.events_per_request", "events"),
    ("serve.router_decisions", "count"),
    ("serve.mean_batch_requests", "requests"),
    ("serve.repartition_passes", "count"),
    ("serve.repartition_accept_ratio", "ratio"),
    ("serve.shed_slo_delay", "count"),
    ("serve.scale_ups", "count"),
    ("serve.scale_downs", "count"),
    ("serve.device_busy_frac", "ratio"),
    ("obs.untraced_wall_s", "s"),
    ("obs.traced_wall_s", "s"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans", "count"),
];

/// What one pass over a workload measured.
pub struct Outcome {
    /// Wall times of the pass's parts, in the same order on every pass:
    /// its calls into the layer crates (untraced), or the same calls
    /// wrapped in spans (traced). The pass's wall time is their sum. A
    /// pass of a second or less is one part.
    pub parts_s: Vec<f64>,
    /// Workload quantities and per-layer metrics, by [`PER_LAYER`] name.
    pub metrics: Vec<(&'static str, f64)>,
}

/// One benchmark workload: inputs built by `setup`, a fixed pass over its
/// work in `run`, the same pass with spans in `run_traced`.
pub trait Workload: Sized {
    /// Builds the inputs from the seed.
    fn setup(seed: u64) -> Self;
    /// One untraced pass; its outputs are checked after the timed window.
    fn run(&mut self, checks: &mut Checks) -> Outcome;
    /// One pass with every layer call inside a span. `parts_s` covers the
    /// same work as [`Workload::run`]; diagnostics outside that window
    /// may add spans of their own.
    fn run_traced(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Outcome;
    /// `(name, hex)` determinism fingerprints of the last pass.
    fn fingerprints(&self) -> Vec<(&'static str, String)>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return Err(bad(&"expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Repeats `pass` until the passes' summed time would overrun `seconds`,
/// at least [`MIN_PASSES`] times, returning every outcome. After each
/// pass, `between` gets the share of `seconds` the passes have used.
fn repeat(
    seconds: f64,
    mut pass: impl FnMut() -> Outcome,
    mut between: impl FnMut(f64),
) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = Vec::new();
    let mut used_s: Vec<f64> = Vec::new();
    loop {
        let (o, s) = timed(&mut pass);
        eprintln!(
            "pass {} wall_s {}",
            out.len() + 1,
            o.parts_s.iter().sum::<f64>()
        );
        out.push(o);
        used_s.push(s);
        let total: f64 = used_s.iter().sum();
        between(total / seconds);
        if out.len() >= MIN_PASSES && total + median(&used_s) > seconds {
            return out;
        }
    }
}

/// Per-name medians over the passes, plus the pass wall time: the sum
/// over parts of each part's first quartile across the passes. The
/// machine is shared: other work slows it for stretches of seconds,
/// which moved the median pass time of a 16 s run by up to a quarter
/// from run to run. The faster passes of a run are the ones the
/// stretches missed, so their quartile repeats. A pass of several
/// seconds is timed in parts, each of which a stretch covers or misses.
fn summarize(outcomes: &[Outcome]) -> (f64, BTreeMap<&'static str, f64>) {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for o in outcomes {
        for &(name, v) in &o.metrics {
            by_name.entry(name).or_default().push(v);
        }
    }
    let wall = (0..outcomes[0].parts_s.len())
        .map(|i| first_quartile(&outcomes.iter().map(|o| o.parts_s[i]).collect::<Vec<_>>()))
        .sum();
    (
        wall,
        by_name.into_iter().map(|(k, v)| (k, median(&v))).collect(),
    )
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .chain(END_TO_END.iter())
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, u)| u)
}

fn metrics_json(values: &[(&str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(name),
                json_str(unit_of(name))
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn drive<W: Workload>(args: &Args, meta: &RunMeta) -> ExitCode {
    let (mut w, first_s) = timed(|| W::setup(args.seed));
    let mut setup_s = vec![first_s];
    // when the passes have used a share of the window, set up again until
    // that share of the budget and of the minimum count is reached; each
    // set-up is dropped, `w` serves the passes
    let mut set_up_to = |share: f64| {
        while setup_s.len() < MAX_SETUP_REPS
            && (setup_s.iter().sum::<f64>() < share * SETUP_BUDGET_S
                || (setup_s.len() as f64) < share * MIN_SETUP_REPS as f64)
        {
            setup_s.push(timed(|| W::setup(args.seed)).1);
        }
    };
    let mut checks = Checks::default();
    let untraced = repeat(args.seconds, || w.run(&mut checks), &mut set_up_to);
    set_up_to(1.0);
    eprintln!("setup reps {}", setup_s.len());
    let setup_s = first_quartile(&setup_s);
    let (wall_s, quantities) = summarize(&untraced);

    // every quantity measured; the result line takes the listed ones
    let mut values: BTreeMap<&str, f64> = quantities;
    if args.trace {
        let mut tracer = Tracer::new();
        let traced = repeat(
            args.seconds,
            || {
                tracer = Tracer::new();
                w.run_traced(&mut tracer, &mut checks)
            },
            |_| {},
        );
        let (traced_wall_s, layers) = summarize(&traced);
        let spans = tracer.self_by_name();
        println!("spans {}", write_spans(args, meta, &tracer));
        for (name, (calls, self_s)) in &spans {
            println!("span {name} calls {calls} self_s {self_s}");
        }
        for &(name, _) in &PER_LAYER {
            values.entry(name).or_insert(0.0);
        }
        values.extend(layers);
        values.insert("obs.untraced_wall_s", wall_s);
        values.insert("obs.traced_wall_s", traced_wall_s);
        values.insert(
            "obs.trace_overhead_pct",
            (traced_wall_s / wall_s - 1.0) * 100.0,
        );
        values.insert(
            "obs.spans",
            spans.values().map(|&(calls, _)| calls as f64).sum(),
        );
    } else {
        values.insert("setup_s", setup_s);
        values.insert("peak_rss_mb", util::peak_rss_mb());
        values.insert("wall_s", wall_s);
    }

    println!(
        "meta {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"run\":{},\"passes\":{}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        meta.to_json(),
        untraced.len(),
    );
    for (name, hex) in w.fingerprints() {
        println!("fingerprint {name} {hex}");
    }
    for (name, v) in &values {
        println!("metric {name} {v} {}", unit_of(name));
    }
    for (name, v) in &values {
        checks.check(v.is_finite(), || {
            format!("metric {name} is not finite: {v}")
        });
    }
    println!(
        "checks failed/attempted {}/{}",
        checks.failed, checks.attempted
    );
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let ordered: Vec<(&str, f64)> = listed.iter().map(|&(n, _)| (n, values[n])).collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics_json(&ordered)
    );
    ExitCode::SUCCESS
}

/// Writes the last traced pass's spans as Chrome trace JSON; returns the
/// path (or why it could not be written).
fn write_spans(args: &Args, meta: &RunMeta, tracer: &Tracer) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{}-seed{}.trace.json", args.workload, args.seed);
    let meta = format!(
        "{{\"workload\":{},\"seed\":{},\"run\":{}}}",
        json_str(&args.workload),
        args.seed,
        meta.to_json()
    );
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.to_chrome_json(&meta)))
    {
        Ok(()) => path,
        Err(e) => format!("(not written: {e})"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <train|schedule|sim|fleet> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let meta = RunMeta::collect();
    match args.workload.as_str() {
        "train" => drive::<train::Train>(&args, &meta),
        "schedule" => drive::<schedule::ScheduleWorkload>(&args, &meta),
        "sim" => drive::<sim::Sim>(&args, &meta),
        "fleet" => drive::<fleet::Fleet>(&args, &meta),
        other => {
            eprintln!("error: unknown workload {other:?} (train, schedule, sim, fleet)");
            ExitCode::from(2)
        }
    }
}
