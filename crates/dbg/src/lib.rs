//! # respect_dbg — an interactive trace debugger over the DES engines
//!
//! Deterministic, steppable debugging sessions over any sim / serve /
//! fleet run, driven from `.scn` scenario files. The debugger is
//! nothing but a [`Probe`](respect_tpu::probe::Probe): the engine under
//! test is the *production* engine, bit-for-bit — a session that runs
//! to completion returns a report identical to the undebugged run
//! (pinned by this crate's tests).
//!
//! Three layers:
//!
//! * [`pred`] — the breakpoint predicate language: event kinds
//!   (`shed`, `drift`, `scale_up`, ...), field comparisons
//!   (`tenant == 1`, `t >= 10ms`, `queue > 4`, `backlog >= 8`),
//!   `and` / `or` / `not`, and `nth N <pred>` occurrence counters,
//!   tokenized by the `.scn` lexer and compiled by a recursive-descent
//!   parser, with the `.scn` language's `line:col` diagnostics
//!   ([`ScnError`](respect_scn::ScnError)).
//! * [`session`] — [`DebugSession`]: implements `Probe` with
//!   `INSPECT = true`, so the engine suspends itself at the next safe
//!   point after a breakpoint fires and hands the session an
//!   [`EngineSnapshot`](respect_tpu::probe::EngineSnapshot) to render.
//!   Commands (`step`, `next`, `continue`, `break`, `watch`,
//!   `inspect`, `trace`, `metrics`, `dump`, ...) come from a
//!   [`CommandSource`]: a script for byte-deterministic transcripts,
//!   or stdin for a live REPL (the `respect-dbg` binary in
//!   `respect_bench`).
//! * [`cmd`] — the command-line parser shared by both frontends.
//!
//! # Example: scripted session over a scenario
//!
//! ```
//! use respect_dbg::session::{DebugSession, ScriptSource};
//!
//! let scn = "scenario demo\nmodel resnet50\ntenant\nrequests 4\nrun serve\n";
//! let scenario = respect_scn::parse(scn).unwrap();
//! let script = ScriptSource::new("break completion\ncontinue\ninspect\ncontinue\n");
//! let out = DebugSession::new(script).run(&scenario).unwrap();
//! assert!(out.transcript.contains("breakpoint #1 hit"));
//! // debugging is free: the report equals the undebugged run
//! assert_eq!(out.run, scenario.execute().unwrap());
//! ```

pub mod cmd;
pub mod pred;
pub mod session;

pub use cmd::Command;
pub use pred::{CompiledPred, EvalCx};
pub use session::{CommandSource, DebugOutcome, DebugSession, ScriptSource, StdinSource};
