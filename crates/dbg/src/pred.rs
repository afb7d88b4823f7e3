//! The breakpoint predicate language.
//!
//! A predicate matches individual [`ProbeEvent`]s as they stream out of
//! a running engine. Grammar (hand-rolled lexer + recursive-descent
//! parser, `line:col` diagnostics like the `.scn` parser):
//!
//! ```text
//! pred    := or
//! or      := and ( "or" and )*
//! and     := unary ( "and" unary )*
//! unary   := "not" unary | "nth" INT unary | primary
//! primary := "(" pred ")" | FIELD cmp NUM | KIND | "bus"
//! cmp     := "==" | "=" | "!=" | "<" | "<=" | ">" | ">="
//! ```
//!
//! * `KIND` is an event kind in the canonical snake_case vocabulary of
//!   [`respect_obs::render::KINDS`] (`arrival`, `admit`, `shed`,
//!   `batch_open`, `batch_close`, `acquire`, `release`, `completion`,
//!   `drift`, `repartition_pass`, `repartition_proposal`,
//!   `repartition_accept`, `repartition_reject`, `scale_up`,
//!   `scale_down`, `route`), plus the group aliases `repartition`
//!   (all four repartition kinds), `scale` (up or down), and `any`.
//! * `FIELD` is one of `t`/`time`, `tenant`, `chain`, `request`,
//!   `stage`, `device`, `queue`, `backlog`, `size`, `latency`,
//!   `divergence`. A comparison on a field the event does not carry is
//!   simply false (so `tenant == 1` never matches `scale_up`).
//! * `queue` is the open-batch occupancy of the event's
//!   (chain, tenant) and `backlog` the chain's in-system count
//!   (arrived − shed − completed) — both reconstructed from the event
//!   stream itself, valued *after* the event applies.
//! * Numbers accept `.scn`-style time suffixes: `10ms` = `0.01`,
//!   `5us` = `5e-6`, `2s` = `2`.
//! * `nth N <pred>` fires exactly once: on the N-th event matching
//!   `<pred>` (occurrences are counted per breakpoint, per run).
//!
//! ```
//! use respect_dbg::pred::{parse_pred, EvalCx};
//! use respect_tpu::probe::ProbeEvent;
//!
//! let p = parse_pred("shed and tenant == 1", 1, 1).unwrap();
//! let ev = ProbeEvent::Shed {
//!     chain: 0,
//!     tenant: 1,
//!     request: 7,
//!     reason: respect_tpu::probe::ShedReason::QueueBound,
//! };
//! let mut counters = vec![0u64; p.counters()];
//! assert!(p.eval(&EvalCx::new(0.5, &ev), &mut counters));
//! ```

use std::fmt;

use respect_obs::render::{kind_index, KINDS};
use respect_tpu::probe::ProbeEvent;
use respect_tpu::sim::ResourceId;

use crate::DbgError;

/// The bitmask a kind name (or group alias) selects, if any: bit `i`
/// is [`KINDS`]`[i]`, and a group `g` selects every kind named `g_*`.
#[must_use]
pub fn kind_mask(name: &str) -> Option<u32> {
    let selects = |kind: &str| match name {
        "any" => true,
        "repartition" | "scale" => kind
            .strip_prefix(name)
            .is_some_and(|rest| rest.starts_with('_')),
        _ => kind == name,
    };
    let mask = (0..KINDS.len())
        .filter(|&i| selects(KINDS[i]))
        .fold(0, |mask, i| mask | 1 << i);
    (mask != 0).then_some(mask)
}

/// The kind bit of one event.
#[must_use]
pub fn event_bit(ev: &ProbeEvent) -> u32 {
    // future kinds (ProbeEvent is #[non_exhaustive]) match nothing
    kind_index(ev).map_or(0, |i| 1 << i)
}

/// A comparable event field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// Simulated time of the event, seconds (`t` / `time`).
    Time,
    /// Tenant (workload) index.
    Tenant,
    /// Chain index.
    Chain,
    /// Request id.
    Request,
    /// Pipeline stage (acquire/release only).
    Stage,
    /// Device index (acquire/release of a device only).
    Device,
    /// Open-batch occupancy of the event's (chain, tenant), post-event.
    Queue,
    /// Chain in-system backlog (arrived − shed − completed), post-event.
    Backlog,
    /// Closed batch size (`batch_close` only).
    Size,
    /// Completion sojourn time, seconds (`completion` only).
    Latency,
    /// Drift divergence (`drift` only).
    Divergence,
}

impl Field {
    fn from_name(name: &str) -> Option<Field> {
        Some(match name {
            "t" | "time" => Field::Time,
            "tenant" => Field::Tenant,
            "chain" => Field::Chain,
            "request" => Field::Request,
            "stage" => Field::Stage,
            "device" => Field::Device,
            "queue" => Field::Queue,
            "backlog" => Field::Backlog,
            "size" => Field::Size,
            "latency" => Field::Latency,
            "divergence" => Field::Divergence,
            _ => return None,
        })
    }

    /// The field's canonical spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Field::Time => "t",
            Field::Tenant => "tenant",
            Field::Chain => "chain",
            Field::Request => "request",
            Field::Stage => "stage",
            Field::Device => "device",
            Field::Queue => "queue",
            Field::Backlog => "backlog",
            Field::Size => "size",
            Field::Latency => "latency",
            Field::Divergence => "divergence",
        }
    }
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==` (also spelled `=`)
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn eval(self, l: f64, r: f64) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A parsed predicate node.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// One or more event kinds, by bitmask; `name` is the spelling as
    /// written (a kind or a group alias), kept for canonical rendering.
    Kinds {
        mask: u32,
        name: String,
    },
    /// `bus`: an acquire/release of the shared bus.
    Bus,
    /// `field op value`.
    Cmp {
        field: Field,
        op: CmpOp,
        value: f64,
    },
    /// `nth N inner`: true exactly on the N-th match of `inner`.
    Nth {
        n: u64,
        slot: usize,
        inner: Box<Node>,
    },
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
}

/// Everything a predicate can see about one event.
#[derive(Debug, Clone, Copy)]
pub struct EvalCx<'a> {
    /// Simulated time of the event, seconds.
    pub t: f64,
    /// The event.
    pub ev: &'a ProbeEvent,
    /// Open-batch occupancy of the event's (chain, tenant), post-event
    /// (`None` when unknown or the event carries no tenant).
    pub queue: Option<f64>,
    /// Chain in-system backlog (arrived − shed − completed),
    /// post-event (`None` when unknown or the event carries no chain).
    pub backlog: Option<f64>,
}

impl<'a> EvalCx<'a> {
    /// A context with no stream-derived state (`queue` / `backlog`
    /// comparisons are false).
    #[must_use]
    pub fn new(t: f64, ev: &'a ProbeEvent) -> Self {
        EvalCx {
            t,
            ev,
            queue: None,
            backlog: None,
        }
    }
}

/// The event's tenant, when it carries one.
#[must_use]
pub fn ev_tenant(ev: &ProbeEvent) -> Option<u32> {
    match *ev {
        ProbeEvent::Arrival { tenant, .. }
        | ProbeEvent::Admit { tenant, .. }
        | ProbeEvent::Shed { tenant, .. }
        | ProbeEvent::BatchOpen { tenant, .. }
        | ProbeEvent::BatchClose { tenant, .. }
        | ProbeEvent::Acquire { tenant, .. }
        | ProbeEvent::Release { tenant, .. }
        | ProbeEvent::Completion { tenant, .. }
        | ProbeEvent::DriftTrigger { tenant, .. }
        | ProbeEvent::RepartitionPass { tenant, .. }
        | ProbeEvent::RepartitionProposal { tenant, .. }
        | ProbeEvent::RepartitionAccept { tenant, .. }
        | ProbeEvent::RepartitionReject { tenant, .. }
        | ProbeEvent::RouterDecision { tenant, .. } => Some(tenant),
        _ => None,
    }
}

/// The event's chain, when it carries one.
#[must_use]
pub fn ev_chain(ev: &ProbeEvent) -> Option<u16> {
    match *ev {
        ProbeEvent::Arrival { chain, .. }
        | ProbeEvent::Admit { chain, .. }
        | ProbeEvent::Shed { chain, .. }
        | ProbeEvent::BatchOpen { chain, .. }
        | ProbeEvent::BatchClose { chain, .. }
        | ProbeEvent::Acquire { chain, .. }
        | ProbeEvent::Release { chain, .. }
        | ProbeEvent::Completion { chain, .. }
        | ProbeEvent::DriftTrigger { chain, .. }
        | ProbeEvent::RepartitionPass { chain, .. }
        | ProbeEvent::RepartitionProposal { chain, .. }
        | ProbeEvent::RepartitionAccept { chain, .. }
        | ProbeEvent::RepartitionReject { chain, .. }
        | ProbeEvent::RouterDecision { chain, .. } => Some(chain),
        _ => None,
    }
}

fn ev_request(ev: &ProbeEvent) -> Option<u32> {
    match *ev {
        ProbeEvent::Arrival { request, .. }
        | ProbeEvent::Admit { request, .. }
        | ProbeEvent::Shed { request, .. }
        | ProbeEvent::Acquire { request, .. }
        | ProbeEvent::Release { request, .. }
        | ProbeEvent::Completion { request, .. }
        | ProbeEvent::RouterDecision { request, .. } => Some(request),
        _ => None,
    }
}

fn field_value(field: Field, cx: &EvalCx<'_>) -> Option<f64> {
    match field {
        Field::Time => Some(cx.t),
        Field::Tenant => ev_tenant(cx.ev).map(f64::from),
        Field::Chain => ev_chain(cx.ev).map(f64::from),
        Field::Request => ev_request(cx.ev).map(f64::from),
        Field::Stage => match *cx.ev {
            ProbeEvent::Acquire { stage, .. } | ProbeEvent::Release { stage, .. } => {
                Some(f64::from(stage))
            }
            _ => None,
        },
        Field::Device => match *cx.ev {
            ProbeEvent::Acquire {
                resource: ResourceId::Device(k),
                ..
            }
            | ProbeEvent::Release {
                resource: ResourceId::Device(k),
                ..
            } => Some(k as f64),
            _ => None,
        },
        Field::Queue => cx.queue,
        Field::Backlog => cx.backlog,
        Field::Size => match *cx.ev {
            ProbeEvent::BatchClose { size, .. } => Some(f64::from(size)),
            _ => None,
        },
        Field::Latency => match *cx.ev {
            ProbeEvent::Completion { latency_s, .. } => Some(latency_s),
            _ => None,
        },
        Field::Divergence => match *cx.ev {
            ProbeEvent::DriftTrigger { divergence, .. } => Some(divergence),
            _ => None,
        },
    }
}

fn eval_node(node: &Node, cx: &EvalCx<'_>, counters: &mut [u64]) -> bool {
    match node {
        Node::Kinds { mask, .. } => event_bit(cx.ev) & mask != 0,
        Node::Bus => matches!(
            *cx.ev,
            ProbeEvent::Acquire {
                resource: ResourceId::Bus,
                ..
            } | ProbeEvent::Release {
                resource: ResourceId::Bus,
                ..
            }
        ),
        Node::Cmp { field, op, value } => match field_value(*field, cx) {
            Some(l) => op.eval(l, *value),
            None => false,
        },
        Node::Nth { n, slot, inner } => {
            if eval_node(inner, cx, counters) {
                counters[*slot] += 1;
                counters[*slot] == *n
            } else {
                false
            }
        }
        Node::And(a, b) => {
            // no short-circuit: `nth` counters inside must advance
            // deterministically regardless of the sibling's value
            let l = eval_node(a, cx, counters);
            let r = eval_node(b, cx, counters);
            l && r
        }
        Node::Or(a, b) => {
            let l = eval_node(a, cx, counters);
            let r = eval_node(b, cx, counters);
            l || r
        }
        Node::Not(a) => !eval_node(a, cx, counters),
    }
}

/// Precedence for canonical rendering (higher binds tighter).
fn prec(node: &Node) -> u8 {
    match node {
        Node::Or(..) => 1,
        Node::And(..) => 2,
        Node::Not(..) | Node::Nth { .. } => 3,
        _ => 4,
    }
}

fn render(node: &Node, out: &mut String, parent: u8) {
    let me = prec(node);
    let parens = me < parent;
    if parens {
        out.push('(');
    }
    match node {
        Node::Kinds { name, .. } => out.push_str(name),
        Node::Bus => out.push_str("bus"),
        Node::Cmp { field, op, value } => {
            out.push_str(field.name());
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            if value.fract() == 0.0 && value.abs() < 1e15 {
                out.push_str(&format!("{}", *value as i64));
            } else {
                out.push_str(&format!("{value}"));
            }
        }
        Node::Nth { n, inner, .. } => {
            out.push_str(&format!("nth {n} "));
            render(inner, out, me + 1);
        }
        Node::And(a, b) => {
            render(a, out, me);
            out.push_str(" and ");
            render(b, out, me + 1);
        }
        Node::Or(a, b) => {
            render(a, out, me);
            out.push_str(" or ");
            render(b, out, me + 1);
        }
        Node::Not(a) => {
            out.push_str("not ");
            render(a, out, me + 1);
        }
    }
    if parens {
        out.push(')');
    }
}

/// A compiled predicate plus the number of `nth` counter slots it
/// needs. Counters live with the breakpoint (one `Vec<u64>` per
/// breakpoint), not with the predicate, so a predicate is immutable
/// and cheaply shareable.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPred {
    root: Node,
    counters: usize,
}

impl CompiledPred {
    /// Number of `nth` counter slots; size the counter vec with this.
    #[must_use]
    pub fn counters(&self) -> usize {
        self.counters
    }

    /// Evaluates against one event. `counters` must have
    /// [`CompiledPred::counters`] slots and persist across events.
    ///
    /// # Panics
    ///
    /// When `counters` is shorter than [`CompiledPred::counters`].
    #[must_use]
    pub fn eval(&self, cx: &EvalCx<'_>, counters: &mut [u64]) -> bool {
        assert!(counters.len() >= self.counters, "counter vec too short");
        eval_node(&self.root, cx, counters)
    }
}

impl fmt::Display for CompiledPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        render(&self.root, &mut s, 0);
        f.write_str(&s)
    }
}

// ---------------------------------------------------------------- lexer

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    Op(CmpOp),
    LParen,
    RParen,
}

#[derive(Debug, Clone)]
struct Sp {
    tok: Tok,
    col: usize,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col0: usize,
}

impl<'a> Lexer<'a> {
    /// 1-based column of byte offset `pos` in the original line.
    fn col(&self, pos: usize) -> usize {
        self.col0 + pos
    }

    fn err(&self, pos: usize, msg: impl Into<String>) -> DbgError {
        DbgError::at(self.line, self.col(pos), msg)
    }

    fn lex(mut self) -> Result<Vec<Sp>, DbgError> {
        let mut out = Vec::new();
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            let start = self.pos;
            match c {
                b' ' | b'\t' => {
                    self.pos += 1;
                }
                b'(' => {
                    self.pos += 1;
                    out.push(Sp {
                        tok: Tok::LParen,
                        col: self.col(start),
                    });
                }
                b')' => {
                    self.pos += 1;
                    out.push(Sp {
                        tok: Tok::RParen,
                        col: self.col(start),
                    });
                }
                b'=' | b'!' | b'<' | b'>' => {
                    let two = self.src.get(self.pos + 1) == Some(&b'=');
                    let op = match (c, two) {
                        (b'=', _) => CmpOp::Eq,
                        (b'!', true) => CmpOp::Ne,
                        (b'!', false) => {
                            return Err(self.err(start, "expected `!=`"));
                        }
                        (b'<', true) => CmpOp::Le,
                        (b'<', false) => CmpOp::Lt,
                        (b'>', true) => CmpOp::Ge,
                        _ => CmpOp::Gt,
                    };
                    self.pos += if two { 2 } else { 1 };
                    out.push(Sp {
                        tok: Tok::Op(op),
                        col: self.col(start),
                    });
                }
                b'0'..=b'9' | b'.' => {
                    while self.pos < self.src.len()
                        && matches!(self.src[self.pos], b'0'..=b'9' | b'.')
                    {
                        self.pos += 1;
                    }
                    let digits = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                    let base: f64 = digits
                        .parse()
                        .map_err(|_| self.err(start, format!("bad number `{digits}`")))?;
                    let sufs = self.pos;
                    while self.pos < self.src.len() && self.src[self.pos].is_ascii_alphabetic() {
                        self.pos += 1;
                    }
                    let suffix = std::str::from_utf8(&self.src[sufs..self.pos]).unwrap();
                    let scale = match suffix {
                        "" | "s" => 1.0,
                        "ms" => 1e-3,
                        "us" => 1e-6,
                        other => {
                            return Err(self.err(
                                sufs,
                                format!("unknown unit `{other}` (expected s, ms, or us)"),
                            ));
                        }
                    };
                    out.push(Sp {
                        tok: Tok::Num(base * scale),
                        col: self.col(start),
                    });
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    while self.pos < self.src.len()
                        && matches!(self.src[self.pos], b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
                    {
                        self.pos += 1;
                    }
                    let word = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                    out.push(Sp {
                        tok: Tok::Ident(word.to_string()),
                        col: self.col(start),
                    });
                }
                other => {
                    return Err(
                        self.err(start, format!("unexpected character `{}`", other as char))
                    );
                }
            }
        }
        Ok(out)
    }
}

// --------------------------------------------------------------- parser

struct Parser {
    toks: Vec<Sp>,
    idx: usize,
    line: usize,
    end_col: usize,
    counters: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Sp> {
        self.toks.get(self.idx)
    }

    fn next(&mut self) -> Option<Sp> {
        let t = self.toks.get(self.idx).cloned();
        if t.is_some() {
            self.idx += 1;
        }
        t
    }

    fn err_here(&self, msg: impl Into<String>) -> DbgError {
        let col = self.peek().map_or(self.end_col, |s| s.col);
        DbgError::at(self.line, col, msg)
    }

    fn expect_rparen(&mut self, open_col: usize) -> Result<(), DbgError> {
        match self.next() {
            Some(Sp {
                tok: Tok::RParen, ..
            }) => Ok(()),
            Some(s) => Err(DbgError::at(self.line, s.col, "expected `)`")),
            None => Err(DbgError::at(
                self.line,
                self.end_col,
                format!("unclosed `(` opened at column {open_col}"),
            )),
        }
    }

    fn pred(&mut self) -> Result<Node, DbgError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), Some(Sp { tok: Tok::Ident(w), .. }) if w == "or") {
            self.next();
            let rhs = self.and_expr()?;
            lhs = Node::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Node, DbgError> {
        let mut lhs = self.unary()?;
        while matches!(self.peek(), Some(Sp { tok: Tok::Ident(w), .. }) if w == "and") {
            self.next();
            let rhs = self.unary()?;
            lhs = Node::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Node, DbgError> {
        if let Some(Sp {
            tok: Tok::Ident(w), ..
        }) = self.peek()
        {
            if w == "not" {
                self.next();
                let inner = self.unary()?;
                return Ok(Node::Not(Box::new(inner)));
            }
            if w == "nth" {
                self.next();
                let n = match self.next() {
                    Some(Sp {
                        tok: Tok::Num(v), ..
                    }) if v.fract() == 0.0 && v >= 1.0 => v as u64,
                    Some(s) => {
                        return Err(DbgError::at(
                            self.line,
                            s.col,
                            "`nth` needs a positive integer count",
                        ));
                    }
                    None => {
                        return Err(self.err_here("`nth` needs a positive integer count"));
                    }
                };
                let slot = self.counters;
                self.counters += 1;
                let inner = self.unary()?;
                return Ok(Node::Nth {
                    n,
                    slot,
                    inner: Box::new(inner),
                });
            }
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Node, DbgError> {
        match self.next() {
            Some(Sp {
                tok: Tok::LParen,
                col,
            }) => {
                let inner = self.pred()?;
                self.expect_rparen(col)?;
                Ok(inner)
            }
            Some(Sp {
                tok: Tok::Ident(w),
                col,
            }) => {
                // a field comparison?
                if let Some(field) = Field::from_name(&w) {
                    if let Some(Sp {
                        tok: Tok::Op(_), ..
                    }) = self.peek()
                    {
                        let Some(Sp {
                            tok: Tok::Op(op), ..
                        }) = self.next()
                        else {
                            unreachable!("peeked an op");
                        };
                        let value = match self.next() {
                            Some(Sp {
                                tok: Tok::Num(v), ..
                            }) => v,
                            Some(s) => {
                                return Err(DbgError::at(self.line, s.col, "expected a number"));
                            }
                            None => return Err(self.err_here("expected a number")),
                        };
                        return Ok(Node::Cmp { field, op, value });
                    }
                    // a bare field that is not also a kind is an error
                    if kind_mask(&w).is_none() && w != "bus" {
                        return Err(DbgError::at(
                            self.line,
                            col,
                            format!("field `{w}` needs a comparison (e.g. `{w} == 1`)"),
                        ));
                    }
                }
                if w == "bus" {
                    return Ok(Node::Bus);
                }
                if let Some(mask) = kind_mask(&w) {
                    return Ok(Node::Kinds { mask, name: w });
                }
                Err(DbgError::at(
                    self.line,
                    col,
                    format!("unknown kind or field `{w}`"),
                ))
            }
            Some(s) => Err(DbgError::at(
                self.line,
                s.col,
                "expected a kind, a field comparison, `not`, `nth`, or `(`",
            )),
            None => Err(DbgError::at(
                self.line,
                self.end_col,
                "expected a predicate",
            )),
        }
    }
}

/// Parses a predicate from `src`, reporting errors at positions offset
/// by `line` and `col0` (the 1-based position of `src`'s first byte in
/// the command line it was embedded in).
///
/// # Errors
///
/// [`DbgError`] at the offending `line:col` for lexical errors, unknown
/// kinds or fields, bare fields without a comparison, and malformed
/// structure.
pub fn parse_pred(src: &str, line: usize, col0: usize) -> Result<CompiledPred, DbgError> {
    let lexer = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line,
        col0,
    };
    let toks = lexer.lex()?;
    let end_col = col0 + src.len();
    let mut p = Parser {
        toks,
        idx: 0,
        line,
        end_col,
        counters: 0,
    };
    let root = p.pred()?;
    if let Some(s) = p.peek() {
        return Err(DbgError::at(
            line,
            s.col,
            "trailing input after the predicate",
        ));
    }
    Ok(CompiledPred {
        root,
        counters: p.counters,
    })
}
