//! Breakpoint predicate language: parse errors pinned at `line:col`,
//! combinator semantics, and `nth` occurrence counters.

use respect_dbg::pred::{event_bit, kind_mask, parse_pred, EvalCx};
use respect_scn::ScnError;
use respect_tpu::probe::{ProbeEvent, ShedReason};
use respect_tpu::sim::ResourceId;

fn shed(tenant: u32, request: u32) -> ProbeEvent {
    ProbeEvent::Shed {
        chain: 0,
        tenant,
        request,
        reason: ShedReason::QueueBound,
    }
}

fn completion(tenant: u32, latency_s: f64) -> ProbeEvent {
    ProbeEvent::Completion {
        chain: 0,
        tenant,
        request: 0,
        latency_s,
    }
}

/// Evaluates a one-off predicate against a single event.
fn matches(src: &str, t: f64, ev: &ProbeEvent) -> bool {
    let p = parse_pred(src, 1, 1).expect("predicate parses");
    let mut counters = vec![0u64; p.counters()];
    p.eval(&EvalCx::new(t, ev), &mut counters)
}

fn parse_err(src: &str) -> ScnError {
    parse_pred(src, 1, 1).expect_err("predicate must not parse")
}

#[test]
fn kinds_and_aliases_match_their_events() {
    assert!(matches("shed", 0.0, &shed(0, 1)));
    assert!(!matches("admit", 0.0, &shed(0, 1)));
    assert!(matches("any", 0.0, &shed(0, 1)));
    let up = ProbeEvent::ScaleUp { from: 1, to: 2 };
    assert!(matches("scale", 0.0, &up));
    assert!(matches("scale_up", 0.0, &up));
    assert!(!matches("scale_down", 0.0, &up));
    let acc = ProbeEvent::RepartitionAccept {
        chain: 0,
        tenant: 0,
    };
    assert!(matches("repartition", 0.0, &acc));
    assert!(matches("repartition_accept", 0.0, &acc));
    assert!(!matches("repartition_reject", 0.0, &acc));
    // bit i is the renderer's KINDS[i]; a group is its name's `_` kinds
    assert_eq!(kind_mask("arrival"), Some(1));
    assert_eq!(kind_mask("route"), Some(1 << 15));
    assert_eq!(kind_mask("repartition"), Some(0b1111 << 9));
    assert_eq!(kind_mask("scale"), Some(0b11 << 13));
    assert_eq!(kind_mask("any"), Some((1 << 16) - 1));
    for unknown in ["batch", "repartition_", "scale_sideways", ""] {
        assert_eq!(kind_mask(unknown), None, "{unknown:?} is no kind");
    }
    assert_eq!(Some(event_bit(&up)), kind_mask("scale_up"));
    assert_eq!(Some(event_bit(&acc)), kind_mask("repartition_accept"));
}

#[test]
fn bus_matches_only_bus_holds() {
    let bus = ProbeEvent::Acquire {
        chain: 0,
        resource: ResourceId::Bus,
        tenant: 0,
        request: 1,
        stage: 0,
    };
    let dev = ProbeEvent::Acquire {
        chain: 0,
        resource: ResourceId::Device(2),
        tenant: 0,
        request: 1,
        stage: 2,
    };
    assert!(matches("bus", 0.0, &bus));
    assert!(!matches("bus", 0.0, &dev));
    assert!(matches("device == 2", 0.0, &dev));
    assert!(!matches("device == 2", 0.0, &bus));
}

#[test]
fn field_comparisons_and_time_units() {
    assert!(matches("tenant == 3", 0.0, &shed(3, 9)));
    assert!(matches("tenant = 3", 0.0, &shed(3, 9)));
    assert!(!matches("tenant != 3", 0.0, &shed(3, 9)));
    assert!(matches("request >= 9", 0.0, &shed(3, 9)));
    assert!(matches("t >= 10ms", 0.011, &shed(0, 0)));
    assert!(!matches("t >= 10ms", 0.009, &shed(0, 0)));
    assert!(matches("latency < 5ms", 0.0, &completion(0, 0.004)));
    assert!(matches("latency > 500us", 0.0, &completion(0, 0.004)));
}

#[test]
fn scn_literals_nanoseconds_exponents_and_comments() {
    // the `.scn` lexer's forms: `ns`, exponents, `#` comments
    assert!(matches("t >= 500ns", 501e-9, &shed(0, 0)));
    assert!(!matches("t >= 500ns", 499e-9, &shed(0, 0)));
    assert!(matches("t >= 5e-3", 0.005, &shed(0, 0)));
    assert!(!matches("t >= 5e-3", 0.0049, &shed(0, 0)));
    assert!(matches("shed # the first one", 0.0, &shed(0, 0)));
    // a leading `.` is no number: the comparison finds a `.` instead
    let e = parse_err("t >= .5");
    assert_eq!((e.line, e.col), (1, 6));
    assert_eq!(e.msg, "expected a number");
}

#[test]
fn missing_fields_never_match() {
    // scale events carry no tenant: the comparison is false either way
    let up = ProbeEvent::ScaleUp { from: 1, to: 2 };
    assert!(!matches("tenant == 1", 0.0, &up));
    assert!(!matches("tenant != 1", 0.0, &up));
    // a shed has no latency
    assert!(!matches("latency >= 0", 0.0, &shed(0, 0)));
}

#[test]
fn combinators_follow_precedence() {
    // `and` binds tighter than `or`
    let p = "admit or shed and tenant == 1";
    assert!(matches(p, 0.0, &shed(1, 0)));
    assert!(!matches(p, 0.0, &shed(2, 0)));
    let admit = ProbeEvent::Admit {
        chain: 0,
        tenant: 9,
        request: 0,
    };
    assert!(matches(p, 0.0, &admit));
    // parens override
    let q = "(admit or shed) and tenant == 1";
    assert!(!matches(q, 0.0, &admit));
    assert!(matches(q, 0.0, &shed(1, 0)));
    // not
    assert!(matches("not admit", 0.0, &shed(0, 0)));
    assert!(!matches("not shed", 0.0, &shed(0, 0)));
}

#[test]
fn nth_counters_fire_exactly_once() {
    let p = parse_pred("nth 3 (shed and tenant == 0)", 1, 1).unwrap();
    assert_eq!(p.counters(), 1);
    let mut counters = vec![0u64; 1];
    let mut fired = Vec::new();
    for req in 0..6 {
        // interleave a non-matching tenant: it must not advance the count
        let miss = shed(1, 100 + req);
        assert!(!p.eval(&EvalCx::new(0.0, &miss), &mut counters));
        let hit = shed(0, req);
        if p.eval(&EvalCx::new(0.0, &hit), &mut counters) {
            fired.push(req);
        }
    }
    assert_eq!(fired, vec![2], "fires exactly on the 3rd match, once");
}

#[test]
fn nth_counters_advance_even_under_not_and_or() {
    // `or` must not short-circuit away the counter
    let p = parse_pred("admit or nth 2 shed", 1, 1).unwrap();
    let mut counters = vec![0u64; 1];
    assert!(!p.eval(&EvalCx::new(0.0, &shed(0, 0)), &mut counters));
    assert!(p.eval(&EvalCx::new(0.0, &shed(0, 1)), &mut counters));
    assert!(!p.eval(&EvalCx::new(0.0, &shed(0, 2)), &mut counters));
}

#[test]
fn canonical_rendering_round_trips() {
    for src in [
        "shed",
        "shed and tenant == 1",
        "(admit or shed) and tenant == 1",
        "not admit",
        "nth 3 (shed and tenant == 0)",
        "t >= 0.01",
        "queue > 4 or backlog >= 8",
    ] {
        let p = parse_pred(src, 1, 1).unwrap();
        let rendered = p.to_string();
        let reparsed = parse_pred(&rendered, 1, 1).unwrap();
        assert_eq!(
            rendered,
            reparsed.to_string(),
            "canonical form is a fixed point for `{src}`"
        );
    }
    // time suffixes normalize to seconds
    let p = parse_pred("t >= 10ms", 1, 1).unwrap();
    assert_eq!(p.to_string(), "t >= 0.01");
}

#[test]
fn parse_errors_are_pinned_at_line_col() {
    // unknown identifier, at its own column
    let e = parse_err("shed and bogus");
    assert_eq!((e.line, e.col), (1, 10));
    assert!(e.msg.contains("unknown kind or field `bogus`"), "{e}");

    // bare field without a comparison
    let e = parse_err("tenant");
    assert_eq!((e.line, e.col), (1, 1));
    assert!(e.msg.contains("needs a comparison"), "{e}");

    // comparison without a number
    let e = parse_err("tenant == shed");
    assert_eq!((e.line, e.col), (1, 11));
    assert!(e.msg.contains("expected a number"), "{e}");

    // unclosed paren reports the opening column
    let e = parse_err("(shed and admit");
    assert_eq!((e.line, e.col), (1, 16));
    assert!(e.msg.contains("unclosed `(` opened at column 1"), "{e}");

    // bad unit suffix
    let e = parse_err("t >= 10min");
    assert_eq!((e.line, e.col), (1, 8));
    assert_eq!(e.msg, "unknown time unit `min` (expected s, ms, us, or ns)");

    // a literal that overflows f64, at the literal (it would render as
    // `inf`, which does not parse back)
    let e = parse_err("t >= 1e400");
    assert_eq!((e.line, e.col), (1, 6));
    assert_eq!(e.msg, "number `1e400` is out of range");

    // nth needs a positive integer
    let e = parse_err("nth 0 shed");
    assert_eq!((e.line, e.col), (1, 5));
    assert!(e.msg.contains("positive integer"), "{e}");

    // trailing input
    let e = parse_err("shed admit");
    assert_eq!((e.line, e.col), (1, 6));
    assert!(e.msg.contains("trailing input"), "{e}");

    // line/col offsets shift with the embedding command line
    let e = parse_pred("bogus", 7, 30).expect_err("unknown kind");
    assert_eq!((e.line, e.col), (7, 30));
}

#[test]
fn lone_bang_is_rejected() {
    let e = parse_err("tenant ! 1");
    assert_eq!((e.line, e.col), (1, 8));
    assert_eq!(e.msg, "unexpected character `!`");
}
