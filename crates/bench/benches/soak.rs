//! Budgeted soak smoke: one serial and one parallel engine pass at
//! smoke scale.
//!
//! The real soak is `cargo run --release -p respect_bench --bin
//! reproduce -- soak`, which runs the full multi-million-event grid and
//! writes `BENCH_soak.json`. This bench target keeps a budget-bounded
//! version inside `cargo bench` so CI exercises the full path (grid
//! build, both passes, the serial-vs-parallel bitwise check) on every
//! change.
//!
//! Run with `RESPECT_BENCH_BUDGET_MS=20` for a CI smoke pass.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use respect_bench::soak::{soak, SoakConfig};

fn bench_soak(c: &mut Criterion) {
    let mut group = c.benchmark_group("soak");
    group.sample_size(10);
    group.bench_function("quick-grid", |b| {
        b.iter(|| {
            let r = soak(&SoakConfig::quick());
            black_box(r.total_events)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_soak);
criterion_main!(benches);
