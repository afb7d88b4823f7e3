//! The debugger command language, shared by the scripted and
//! interactive frontends.
//!
//! One command per line; blank lines and `#` comments are skipped.
//! Errors carry the 1-based `line:col` of the offense within the
//! command stream ([`ScnError`]).

use respect_scn::ScnError;

use crate::pred::{kind_mask, parse_pred, CompiledPred};

/// One parsed debugger command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `step [n]` — dispatch `n` more events (default 1), then stop.
    Step(u64),
    /// `next <kind>` — run until the next event of `kind`.
    Next {
        /// Kind bitmask (see [`kind_mask`]).
        mask: u32,
        /// The kind as written, for echoing.
        name: String,
    },
    /// `continue` / `c` — run until the next breakpoint (or the end).
    Continue,
    /// `break <pred>` — set a breakpoint.
    Break(CompiledPred),
    /// `watch <pred>` — report matching events without stopping.
    Watch(CompiledPred),
    /// `delete <id>` — remove breakpoint/watch `#id`.
    Delete(u32),
    /// `list` — list breakpoints and watches with hit counts.
    List,
    /// `inspect` — render the engine snapshot at this safe point.
    Inspect,
    /// `trace [n]` — show the last `n` events (default 16).
    Trace(u64),
    /// `metrics` — show the metrics snapshot so far.
    Metrics,
    /// `dump <path>` — write the event tail and metrics to a file.
    Dump(String),
    /// `help` — list commands.
    Help,
    /// `quit` — finish the run without further stops or reports.
    Quit,
}

/// The `help` command's output (one string, embedded newlines).
pub const HELP: &str = "\
commands:
  step [n]        dispatch n more events (default 1), then stop
  next <kind>     run until the next event of <kind>
  continue | c    run until the next breakpoint (or the end)
  break <pred>    stop when <pred> matches an event
  watch <pred>    report matching events without stopping
  delete <id>     remove breakpoint/watch #<id>
  list            list breakpoints and watches
  inspect         show engine state at this safe point
  trace [n]       show the last n events (default 16)
  metrics         show counters and gauges so far
  dump <path>     write the event tail and metrics to <path>
  help            this text
  quit            finish the run silently
predicates:
  kinds:   arrival admit shed batch_open batch_close acquire release
           completion drift repartition_* scale_up scale_down route
           (aliases: repartition, scale, any; `bus` = a bus hold)
  fields:  t tenant chain request stage device queue backlog size
           latency divergence   e.g. `shed and tenant == 1`
  combine: and, or, not, nth N <pred>, parentheses; time units s/ms/us/ns";

/// Splits `line` at its first word: `(word, rest, rest_col)` with
/// `rest_col` the 1-based column where `rest` begins.
fn split_word(line: &str) -> (&str, &str, usize) {
    let trimmed_start = line.len() - line.trim_start().len();
    let body = &line[trimmed_start..];
    let end = body.find([' ', '\t']).unwrap_or(body.len());
    let word = &body[..end];
    let after = &body[end..];
    let pad = after.len() - after.trim_start().len();
    let rest = after[pad..].trim_end();
    (word, rest, trimmed_start + end + pad + 1)
}

/// Parses one command line. Returns `Ok(None)` for blank lines and
/// `#` comments.
///
/// # Errors
///
/// [`ScnError`] at the offending `line_no:col` for unknown commands,
/// malformed arguments, and predicate errors.
pub fn parse_command(line_no: usize, line: &str) -> Result<Option<Command>, ScnError> {
    let stripped = line.trim();
    if stripped.is_empty() || stripped.starts_with('#') {
        return Ok(None);
    }
    let (word, rest, rest_col) = split_word(line);
    let word_col = line.len() - line.trim_start().len() + 1;
    let no_args = |cmd: Command| -> Result<Option<Command>, ScnError> {
        if rest.is_empty() {
            Ok(Some(cmd))
        } else {
            Err(ScnError::at(
                line_no,
                rest_col,
                format!("`{word}` takes no arguments"),
            ))
        }
    };
    match word {
        "step" | "s" => {
            if rest.is_empty() {
                return Ok(Some(Command::Step(1)));
            }
            let n: u64 = rest.parse().map_err(|_| {
                ScnError::at(line_no, rest_col, "`step` takes a positive event count")
            })?;
            if n == 0 {
                return Err(ScnError::at(
                    line_no,
                    rest_col,
                    "`step` takes a positive event count",
                ));
            }
            Ok(Some(Command::Step(n)))
        }
        "next" | "n" => match kind_mask(rest) {
            Some(mask) if !rest.is_empty() => Ok(Some(Command::Next {
                mask,
                name: rest.to_string(),
            })),
            _ => Err(ScnError::at(
                line_no,
                rest_col,
                format!("`next` needs an event kind, got `{rest}`"),
            )),
        },
        "continue" | "c" => no_args(Command::Continue),
        "break" | "b" => {
            if rest.is_empty() {
                return Err(ScnError::at(line_no, rest_col, "`break` needs a predicate"));
            }
            Ok(Some(Command::Break(parse_pred(rest, line_no, rest_col)?)))
        }
        "watch" | "w" => {
            if rest.is_empty() {
                return Err(ScnError::at(line_no, rest_col, "`watch` needs a predicate"));
            }
            Ok(Some(Command::Watch(parse_pred(rest, line_no, rest_col)?)))
        }
        "delete" | "d" => {
            let id_text = rest.strip_prefix('#').unwrap_or(rest);
            let id: u32 = id_text
                .parse()
                .map_err(|_| ScnError::at(line_no, rest_col, "`delete` takes a breakpoint id"))?;
            Ok(Some(Command::Delete(id)))
        }
        "list" | "l" => no_args(Command::List),
        "inspect" | "i" => no_args(Command::Inspect),
        "trace" | "t" => {
            if rest.is_empty() {
                return Ok(Some(Command::Trace(16)));
            }
            let n: u64 = rest.parse().map_err(|_| {
                ScnError::at(line_no, rest_col, "`trace` takes a positive event count")
            })?;
            if n == 0 {
                return Err(ScnError::at(
                    line_no,
                    rest_col,
                    "`trace` takes a positive event count",
                ));
            }
            Ok(Some(Command::Trace(n)))
        }
        "metrics" | "m" => no_args(Command::Metrics),
        "dump" => {
            if rest.is_empty() {
                return Err(ScnError::at(line_no, rest_col, "`dump` needs a file path"));
            }
            Ok(Some(Command::Dump(rest.to_string())))
        }
        "help" | "h" | "?" => no_args(Command::Help),
        "quit" | "q" => no_args(Command::Quit),
        other => Err(ScnError::at(
            line_no,
            word_col,
            format!("unknown command `{other}` (try `help`)"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::FIELDS;
    use respect_obs::render::KINDS;

    /// The `help` text is hand-written; it must name every predicate
    /// field (by its canonical spelling) and every event kind, directly
    /// or through its `g_*` group.
    #[test]
    fn help_names_every_field_and_kind() {
        let words: Vec<&str> = HELP
            .split(|c: char| c.is_whitespace() || c == ',' || c == '`')
            .collect();
        for (_, field) in FIELDS {
            assert!(
                words.contains(&field.name()),
                "HELP omits field `{}`",
                field.name()
            );
        }
        for kind in KINDS {
            let group = kind
                .char_indices()
                .filter(|&(_, c)| c == '_')
                .any(|(i, _)| words.contains(&format!("{}_*", &kind[..i]).as_str()));
            assert!(words.contains(&kind) || group, "HELP omits kind `{kind}`");
        }
    }
}
