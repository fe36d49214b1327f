//! PERF — sampler and noise-preparation microbenchmarks (criterion).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use antalloc_noise::NoiseModel;
use antalloc_rng::{uniform_index, AntRng, Bernoulli, StreamSeeder};

fn rng_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.throughput(Throughput::Elements(1));
    group.bench_function("next_u64", |b| {
        let mut rng = AntRng::seed_from_u64(1);
        b.iter(|| black_box(rng.next_u64()));
    });
    group.bench_function("bernoulli_sample", |b| {
        let mut rng = AntRng::seed_from_u64(2);
        let bern = Bernoulli::new(0.15625);
        b.iter(|| black_box(bern.sample(&mut rng)));
    });
    group.bench_function("uniform_index_7", |b| {
        let mut rng = AntRng::seed_from_u64(3);
        b.iter(|| black_box(uniform_index(&mut rng, 7)));
    });
    group.bench_function("stream_derivation", |b| {
        let seeder = StreamSeeder::new(4);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(seeder.stream(i))
        });
    });
    group.bench_function("keyed_ant_stream", |b| {
        let key = StreamSeeder::new(5).round_key(1);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(AntRng::keyed(key, i).next_u64())
        });
    });
    group.finish();
}

fn noise_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise");
    let k = 16usize;
    let deficits: Vec<i64> = (0..k as i64).map(|j| j * 3 - 20).collect();
    let demands: Vec<u64> = vec![500; k];

    group.throughput(Throughput::Elements(k as u64));
    group.bench_function("prepare_sigmoid_16_tasks", |b| {
        let model = NoiseModel::Sigmoid { lambda: 2.0 };
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            black_box(model.prepare(round, &deficits, &demands))
        });
    });
    group.bench_function("prepare_adversarial_16_tasks", |b| {
        let model = NoiseModel::Adversarial {
            gamma_ad: 0.05,
            policy: antalloc_noise::GreyZonePolicy::AlternateByRound,
        };
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            black_box(model.prepare(round, &deficits, &demands))
        });
    });

    group.throughput(Throughput::Elements(1));
    group.bench_function("sample_one_signal", |b| {
        let model = NoiseModel::Sigmoid { lambda: 2.0 };
        let prep = model.prepare(1, &deficits, &demands);
        let mut rng = AntRng::seed_from_u64(5);
        let mut j = 0usize;
        b.iter(|| {
            j = (j + 1) % k;
            black_box(prep.sample(j, &mut rng))
        });
    });
    group.finish();
}

criterion_group!(benches, rng_core, noise_paths);
criterion_main!(benches);
