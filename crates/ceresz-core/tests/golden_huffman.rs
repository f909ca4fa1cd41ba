//! Golden fixtures for the Huffman wire format.
//!
//! Two v2 streams (recipes ending in the `huffman` stage) and one raw
//! `huffman::codec::encode` output over a sparse `u32` alphabet above 2^16
//! were written by the bit-at-a-time Huffman coder and are committed. The
//! table-driven coder must reproduce their bytes exactly and decode them
//! bit-identically. They are never regenerated.

use ceresz_core::codec::{Codec, Parallelism};
use ceresz_core::{CereszConfig, ErrorBound, Recipe};

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("sized")))
        .collect()
}

fn compress(recipe: &str, bound: ErrorBound) -> Vec<u8> {
    let input = f32s(&fixture("input_a.f32"));
    let cfg = CereszConfig::new(bound).with_recipe(Recipe::parse(recipe).unwrap());
    Codec::new(cfg).compress(&input).unwrap().data
}

fn fixed_huffman_stream() -> Vec<u8> {
    compress("quantize,lorenzo1,fixed,huffman", ErrorBound::Rel(1e-3))
}

fn mantissa_huffman_stream() -> Vec<u8> {
    compress("mantissa,huffman", ErrorBound::Abs(1e-3))
}

/// A sparse alphabet: 16 symbols above 2^16 with Fibonacci frequencies mixed
/// with 1500 draws from 600 symbols spread over the upper `u32` range,
/// shuffled. The longest codes are 12 bits, one past the decode table.
fn sparse_u32_symbols() -> Vec<u32> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut symbols = Vec::new();
    let (mut a, mut b) = (1usize, 1usize);
    for j in 0..16u32 {
        symbols.extend(std::iter::repeat_n((1 << 16) + j * 4099, a));
        (a, b) = (b, a + b);
    }
    let pool: Vec<u32> = (0..600).map(|_| (next() >> 32) as u32 | 1 << 16).collect();
    for _ in 0..1500 {
        symbols.push(pool[(next() % 600) as usize]);
    }
    for i in (1..symbols.len()).rev() {
        symbols.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    symbols
}

fn assert_bits_eq(got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len());
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "elem {i} drifted");
    }
}

#[test]
fn fixed_huffman_stream_bytes_are_pinned() {
    let golden = fixture("golden_v2_fixed_huffman.csz");
    assert_eq!(fixed_huffman_stream(), golden, "writer drifted");
    let expected = f32s(&fixture("golden_v2_fixed_huffman.out.f32"));
    for p in [Parallelism::Serial, Parallelism::Rayon] {
        assert_bits_eq(
            &Codec::decompressor(p).decompress(&golden).unwrap(),
            &expected,
        );
    }
}

#[test]
fn mantissa_huffman_stream_bytes_are_pinned() {
    let golden = fixture("golden_v2_mantissa_huffman.csz");
    assert_eq!(mantissa_huffman_stream(), golden, "writer drifted");
    // The byte-plane split is lossless: the stream decodes to the input.
    let input = f32s(&fixture("input_a.f32"));
    let restored = Codec::decompressor(Parallelism::Serial)
        .decompress(&golden)
        .unwrap();
    assert_bits_eq(&restored, &input);
}

#[test]
fn sparse_u32_alphabet_bytes_are_pinned() {
    let golden = fixture("golden_huffman_u32.bin");
    let symbols = sparse_u32_symbols();
    assert!(symbols.iter().all(|&s| s >= 1 << 16));
    let encoded = huffman::codec::encode(&symbols).unwrap();
    assert_eq!(encoded.bytes, golden, "writer drifted");
    assert_eq!(huffman::codec::decode_bytes(&golden).unwrap(), symbols);
}
