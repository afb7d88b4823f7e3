//! Fig. 5 criterion bench: RESPECT's peak parameter memory, and its
//! signed gap to the exact schedule's, on a representative model.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use respect_bench::experiments::Fig5Row;
use respect_bench::{peak_param_mb, timed_schedule, Competitors, PolicyScale};
use respect_graph::models;
use respect_tpu::device::DeviceSpec;

fn bench_gap(c: &mut Criterion) {
    let comp = Competitors::new(PolicyScale::Quick, Duration::from_secs(2));
    let model = DeviceSpec::coral().cost_model();
    let dag = models::xception();
    let mut group = c.benchmark_group("fig5_gap");
    group.sample_size(10);
    for stages in [4usize, 5, 6] {
        group.bench_with_input(
            BenchmarkId::new("respect_peak_mb/Xception", stages),
            &stages,
            |b, &k| {
                b.iter(|| {
                    let (s, _) = timed_schedule(&comp.respect, &dag, k);
                    peak_param_mb(&dag, &s, &model)
                })
            },
        );
    }
    // report the actual gap once
    for stages in [4usize, 5, 6] {
        let (s_e, _) = timed_schedule(&comp.exact, &dag, stages);
        let (s_r, _) = timed_schedule(&comp.respect, &dag, stages);
        let row = Fig5Row {
            name: "Xception",
            stages,
            exact_mb: peak_param_mb(&dag, &s_e, &model),
            respect_mb: peak_param_mb(&dag, &s_r, &model),
        };
        eprintln!(
            "Xception {stages}-stage: exact {:.2} MB, RESPECT {:.2} MB, gap {:.2}%",
            row.exact_mb,
            row.respect_mb,
            row.gap_pct()
        );
    }
    group.finish();
}

criterion_group!(benches, bench_gap);
criterion_main!(benches);
