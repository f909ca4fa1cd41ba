//! Criterion micro-benchmarks of the Huffman substrate used by the SZ/cuSZ
//! baselines and the recipe `huffman` stage. Encode and decode are timed
//! separately on three alphabets:
//!
//! - `skewed`: a synthetic 56-symbol alphabet, 70% zeros;
//! - `fixed_bytes`: the bytes of a canonical CereSZ stream of a QMCPack field
//!   (the fixed-length stage's output), as the `huffman` stage sees them;
//! - `sparse_u32`: symbols above 2^16 spread over the `u32` range, which
//!   takes the hash-map path of the encoder.

use ceresz_core::{CereszConfig, Codec, ErrorBound};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use datasets::{generate_field, DatasetId};

fn skewed_symbols(n: usize) -> Vec<u32> {
    (0..n)
        .map(|i| {
            let r = (i as u64).wrapping_mul(2654435761) % 100;
            match r {
                0..=69 => 0,
                70..=89 => 1 + (r % 5) as u32,
                _ => 6 + (r % 50) as u32,
            }
        })
        .collect()
}

fn fixed_stage_bytes() -> Vec<u32> {
    let field = generate_field(DatasetId::QmcPack, 0, 2024);
    let stream = Codec::new(CereszConfig::new(ErrorBound::Rel(1e-3)))
        .compress(&field.data)
        .unwrap()
        .data;
    stream.iter().map(|&b| u32::from(b)).collect()
}

/// A skewed alphabet of up to 3584 symbols above 2^16, spread over the
/// `u32` range by a multiplicative hash.
fn sparse_u32_symbols(n: usize) -> Vec<u32> {
    skewed_symbols(n)
        .into_iter()
        .zip(0u32..)
        .map(|(s, i)| {
            let k = s * 64 + i % 64;
            (1 << 16) | k.wrapping_mul(0x9E37_79B9)
        })
        .collect()
}

fn bench_huffman(c: &mut Criterion) {
    let cases = [
        ("skewed", skewed_symbols(1 << 18)),
        ("fixed_bytes", fixed_stage_bytes()),
        ("sparse_u32", sparse_u32_symbols(1 << 18)),
    ];
    for (name, symbols) in cases {
        let mut group = c.benchmark_group(format!("huffman/{name}"));
        group.throughput(Throughput::Elements(symbols.len() as u64));
        group.sample_size(20);
        group.bench_function("encode", |b| {
            b.iter(|| huffman::codec::encode(&symbols).unwrap());
        });
        let encoded = huffman::codec::encode(&symbols).unwrap();
        group.bench_function("decode", |b| {
            b.iter(|| huffman::codec::decode(&encoded).unwrap());
        });
        group.finish();
    }
}

criterion_group!(benches, bench_huffman);
criterion_main!(benches);
