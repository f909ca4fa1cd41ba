//! Criterion micro-benchmarks of the per-block kernels — the pieces whose
//! simulated cycle costs the cost model charges.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use ceresz_core::fixed_length::{apply_signs, bit_shuffle, bit_unshuffle, signs_and_magnitudes};
use ceresz_core::lorenzo::{forward_1d, inverse_1d};
use ceresz_core::quantize::{dequantize, quantize};

const N: usize = 1 << 16;

fn bench_quantize(c: &mut Criterion) {
    let data: Vec<f32> = (0..N).map(|i| (i as f32 * 0.001).sin() * 100.0).collect();
    let mut out = vec![0i64; N];
    let mut group = c.benchmark_group("quantize");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("quantize", |b| {
        b.iter(|| quantize(&data, 1e-3, &mut out).unwrap());
    });
    let mut rec = vec![0f32; N];
    group.bench_function("dequantize", |b| {
        b.iter(|| dequantize(&out, 1e-3, &mut rec));
    });
    group.finish();
}

fn bench_lorenzo(c: &mut Criterion) {
    let q: Vec<i64> = (0..N as i64).map(|i| (i * 37) % 1000).collect();
    let mut d = vec![0i64; N];
    let mut group = c.benchmark_group("lorenzo");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("forward", |b| b.iter(|| forward_1d(&q, &mut d)));
    let mut back = vec![0i64; N];
    group.bench_function("inverse", |b| b.iter(|| inverse_1d(&d, &mut back)));
    group.finish();
}

/// Residuals of 32-element blocks whose magnitudes need exactly `f` bits.
fn residuals(f: u32) -> Vec<i64> {
    (0..BLOCKS * 32)
        .map(|i| {
            let m = ((i as i64 * 2_654_435_761) & ((1i64 << f) - 1)) | (1i64 << (f - 1));
            if i % 3 == 0 {
                -m
            } else {
                m
            }
        })
        .collect()
}

/// Blocks per iteration of the fixed-length benches.
const BLOCKS: usize = 256;

fn bench_fixed_length(c: &mut Criterion) {
    let n = BLOCKS * 32;
    let mut group = c.benchmark_group("fixed-length(32-blocks)");
    group.throughput(Throughput::Elements(n as u64));
    // One, three and four byte lanes of effective bits.
    for f in [8u32, 17, 31] {
        let deltas = residuals(f);
        let mut signs = vec![0u8; n / 8];
        let mut mags = vec![0u32; n];
        group.bench_function(format!("signs_and_magnitudes/f={f}"), |b| {
            b.iter(|| {
                for ((d, s), m) in deltas
                    .chunks(32)
                    .zip(signs.chunks_mut(4))
                    .zip(mags.chunks_mut(32))
                {
                    signs_and_magnitudes(d, s, m);
                }
            });
        });
        let pb = 4 * f as usize;
        let mut planes = vec![0u8; BLOCKS * pb];
        group.bench_function(format!("shuffle/f={f}"), |b| {
            b.iter(|| {
                for (m, p) in mags.chunks(32).zip(planes.chunks_mut(pb)) {
                    bit_shuffle(m, f, p);
                }
            });
        });
        let mut back = vec![0u32; n];
        group.bench_function(format!("unshuffle/f={f}"), |b| {
            b.iter(|| {
                for (m, p) in back.chunks_mut(32).zip(planes.chunks(pb)) {
                    bit_unshuffle(p, f, m);
                }
            });
        });
        let mut out = vec![0i64; n];
        group.bench_function(format!("apply_signs/f={f}"), |b| {
            b.iter(|| {
                for ((o, s), m) in out.chunks_mut(32).zip(signs.chunks(4)).zip(back.chunks(32)) {
                    apply_signs(s, m, o);
                }
            });
        });
        assert_eq!(out, deltas, "fixed-length kernels must round-trip");
    }
    group.finish();
}

criterion_group!(benches, bench_quantize, bench_lorenzo, bench_fixed_length);
criterion_main!(benches);
