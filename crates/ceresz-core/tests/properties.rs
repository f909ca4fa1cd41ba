//! Property-based tests of the core compression invariants.

use ceresz_core::{verify_error_bound, CereszConfig, Codec, ErrorBound, HeaderWidth, Parallelism};
use proptest::prelude::*;

fn serial(cfg: CereszConfig) -> Codec {
    Codec::new(cfg.with_parallelism(Parallelism::Serial))
}

/// Finite f32 values in a range where REL bounds never overflow quantization.
fn field_values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1e6f32..1e6f32, 1..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fundamental guarantee: for any finite data and any REL bound in a
    /// sane range, every reconstructed point is within ε of the original.
    #[test]
    fn error_bound_always_honored(
        data in field_values(2048),
        lambda_exp in 1..6i32,
        block_pow in 3u32..8,
    ) {
        let lambda = 10f64.powi(-lambda_exp);
        let cfg = CereszConfig::new(ErrorBound::Rel(lambda))
            .with_block_size(1usize << block_pow);
        let codec = serial(cfg);
        let c = codec.compress(&data).unwrap();
        let r = codec.decompress(&c.data).unwrap();
        prop_assert_eq!(r.len(), data.len());
        prop_assert!(verify_error_bound(&data, &r, c.stats.eps));
    }

    /// Round-trip through the 1-byte-header variant as well.
    #[test]
    fn error_bound_honored_w1_headers(data in field_values(512)) {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3)).with_header(HeaderWidth::W1);
        let codec = serial(cfg);
        let c = codec.compress(&data).unwrap();
        let r = codec.decompress(&c.data).unwrap();
        prop_assert!(verify_error_bound(&data, &r, c.stats.eps));
    }

    /// Compression is deterministic and the parallel path is bit-identical.
    #[test]
    fn parallel_equals_serial(data in field_values(4096)) {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let a = serial(cfg).compress(&data).unwrap();
        let b = Codec::new(cfg.with_parallelism(Parallelism::Rayon)).compress(&data).unwrap();
        prop_assert_eq!(&a.data, &b.data);
        let ra = Codec::decompressor(Parallelism::Serial).decompress(&a.data).unwrap();
        let rb = Codec::decompressor(Parallelism::Rayon).decompress(&b.data).unwrap();
        prop_assert_eq!(ra, rb);
    }

    /// Compressing the reconstruction again is idempotent on the quantized
    /// lattice: a second round-trip reproduces the first reconstruction
    /// within one reconstruction ulp (the lattice points are fixed points of
    /// quantization up to f32 rounding).
    #[test]
    fn second_roundtrip_is_stable(data in field_values(512)) {
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-2));
        let codec = serial(cfg);
        let c1 = codec.compress(&data).unwrap();
        let r1 = codec.decompress(&c1.data).unwrap();
        let c2 = codec.compress(&r1).unwrap();
        let r2 = codec.decompress(&c2.data).unwrap();
        for (a, b) in r1.iter().zip(&r2) {
            let ulp = f64::from(f32::EPSILON) * (1.0 + f64::from(a.abs()));
            // A lattice point p·2ε re-quantizes to p or a neighbor only if it
            // sat exactly on a rounding boundary; either way stays within 2ε.
            prop_assert!((f64::from(*a) - f64::from(*b)).abs() <= 2.0 * 1e-2 + ulp);
        }
    }

    /// The stream self-describes: decompress needs nothing but the bytes.
    #[test]
    fn stream_is_self_describing(data in field_values(1024)) {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let c = serial(cfg).compress(&data).unwrap();
        let r = Codec::decompressor(Parallelism::Serial).decompress(&c.data).unwrap();
        prop_assert_eq!(r.len(), data.len());
    }

    /// Truncating the stream anywhere must yield an error, never a panic or
    /// a silently wrong result of full length.
    #[test]
    fn truncation_fails_cleanly(data in field_values(256), cut in 0usize..200) {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let c = serial(cfg).compress(&data).unwrap();
        let cut = cut.min(c.data.len().saturating_sub(1));
        let r = Codec::decompressor(Parallelism::Serial).decompress(&c.data[..cut]);
        prop_assert!(r.is_err());
    }

    /// Lorenzo forward/inverse are exact inverses for arbitrary i64 values in
    /// the supported quantization range.
    #[test]
    fn lorenzo_roundtrip(values in prop::collection::vec(-(1i64<<30)..(1i64<<30), 0..200)) {
        let mut deltas = vec![0i64; values.len()];
        ceresz_core::lorenzo::forward_1d(&values, &mut deltas);
        let mut back = vec![0i64; values.len()];
        ceresz_core::lorenzo::inverse_1d(&deltas, &mut back);
        prop_assert_eq!(back, values);
    }

    /// Bit-shuffle/unshuffle round-trips for any magnitudes and the minimal
    /// sufficient plane count.
    #[test]
    fn bitshuffle_roundtrip(mags in prop::collection::vec(any::<u32>(), 8..64)) {
        use ceresz_core::fixed_length::*;
        // Pad to a multiple of 8 as the codec requires.
        let mut mags = mags;
        while mags.len() % 8 != 0 { mags.push(0); }
        let f = effective_bits(max_magnitude(&mags)).max(1);
        let pb = mags.len().div_ceil(8);
        let mut planes = vec![0u8; f as usize * pb];
        bit_shuffle(&mags, f, &mut planes);
        let mut back = vec![0u32; mags.len()];
        bit_unshuffle(&planes, f, &mut back);
        prop_assert_eq!(back, mags);
    }

    /// Algorithm 1 invariants for arbitrary stage costs: every stage assigned
    /// exactly once, contiguously and in order.
    #[test]
    fn distribute_partitions_stages(
        cycles in prop::collection::vec(1.0f64..10_000.0, 1..40),
        m in 1usize..12,
    ) {
        let g = ceresz_core::plan::distribute_stages(&cycles, m);
        prop_assert_eq!(g.len(), m);
        let mut next = 0usize;
        for i in 0..g.len() {
            let r = g.group(i);
            prop_assert_eq!(r.start, next);
            next = r.end;
        }
        prop_assert_eq!(next, cycles.len());
        let total: f64 = cycles.iter().sum();
        let per_group: f64 = g.group_cycles(&cycles).iter().sum();
        prop_assert!((total - per_group).abs() < 1e-6);
    }

    /// The compressed size accounting in stats always matches reality.
    #[test]
    fn stats_account_for_all_bytes(data in field_values(2048)) {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let c = serial(cfg).compress(&data).unwrap();
        prop_assert_eq!(c.stats.compressed_bytes, c.data.len());
        prop_assert_eq!(c.stats.n_blocks, data.len().div_ceil(cfg.block_size));
    }
}

/// Differential tests of the word-level fixed-length and quantize kernels
/// against the bit-at-a-time loops they replaced, kept here as references.
mod reference_kernels {
    use ceresz_core::fixed_length::{
        apply_signs, bit_shuffle, bit_shuffle_one_plane, bit_unshuffle, bit_unshuffle_one_plane,
        signs_and_magnitudes,
    };
    use ceresz_core::quantize::{quantize, QuantizeError};
    use ceresz_core::QUANT_MAX;

    fn ref_signs_and_magnitudes(residuals: &[i64], signs: &mut [u8], magnitudes: &mut [u32]) {
        signs.fill(0);
        for (i, (&r, m)) in residuals.iter().zip(magnitudes.iter_mut()).enumerate() {
            if r < 0 {
                signs[i / 8] |= 1 << (i % 8);
            }
            *m = r.unsigned_abs() as u32;
        }
    }

    fn ref_bit_shuffle(magnitudes: &[u32], f: u32, planes: &mut [u8]) {
        let pb = magnitudes.len().div_ceil(8);
        planes.fill(0);
        for k in 0..f {
            let plane = &mut planes[k as usize * pb..(k as usize + 1) * pb];
            for (i, &m) in magnitudes.iter().enumerate() {
                plane[i / 8] |= (((m >> k) & 1) as u8) << (i % 8);
            }
        }
    }

    fn ref_bit_unshuffle(planes: &[u8], f: u32, magnitudes: &mut [u32]) {
        let pb = magnitudes.len().div_ceil(8);
        magnitudes.fill(0);
        for k in 0..f {
            let plane = &planes[k as usize * pb..(k as usize + 1) * pb];
            for (i, m) in magnitudes.iter_mut().enumerate() {
                let bit = (plane[i / 8] >> (i % 8)) & 1;
                *m |= u32::from(bit) << k;
            }
        }
    }

    fn ref_apply_signs(signs: &[u8], magnitudes: &[u32], out: &mut [i64]) {
        for (i, (o, &m)) in out.iter_mut().zip(magnitudes).enumerate() {
            let neg = (signs[i / 8] >> (i % 8)) & 1 == 1;
            let v = i64::from(m);
            *o = if neg { -v } else { v };
        }
    }

    fn ref_quantize(input: &[f32], eps: f64, out: &mut [i64]) -> Result<(), QuantizeError> {
        let recip = 1.0 / (2.0 * eps);
        for (i, (o, &v)) in out.iter_mut().zip(input).enumerate() {
            if !v.is_finite() {
                return Err(QuantizeError::NonFinite { index: i });
            }
            let p = (f64::from(v) * recip + 0.5).floor() as i64;
            if p.unsigned_abs() > QUANT_MAX as u64 {
                return Err(QuantizeError::Overflow { index: i });
            }
            *o = p;
        }
        Ok(())
    }

    /// Deterministic xorshift64*.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// A value of random width, so every effective length occurs.
        fn u32_any_width(&mut self) -> u32 {
            let r = self.next();
            let width = (r % 33) as u32;
            if width == 0 {
                0
            } else {
                (r >> 32) as u32 >> (32 - width)
            }
        }

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }
    }

    /// Lengths 1..=257, which cover every tail length many times, and 1024.
    fn lengths() -> impl Iterator<Item = usize> {
        (1..=257).chain([1024])
    }

    const GARBAGE: u8 = 0xA5;

    #[test]
    fn shuffle_matches_reference_for_every_length_and_width() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for len in lengths() {
            // Full-width magnitudes: bits at or above `f` must be ignored.
            let mags: Vec<u32> = (0..len).map(|_| rng.next() as u32).collect();
            let pb = len.div_ceil(8);
            for f in 0..=32u32 {
                let mut want = vec![0u8; f as usize * pb];
                ref_bit_shuffle(&mags, f, &mut want);
                let mut got = vec![GARBAGE; f as usize * pb];
                bit_shuffle(&mags, f, &mut got);
                assert_eq!(got, want, "len {len} f {f}");
            }
        }
    }

    #[test]
    fn unshuffle_matches_reference_for_every_length_and_width() {
        let mut rng = Rng(0xDEAD_BEEF_CAFE_F00D);
        for len in lengths() {
            let pb = len.div_ceil(8);
            for f in 0..=32u32 {
                // Random plane bytes carry nonzero padding bits whenever
                // `len` is not a multiple of 8.
                let planes = rng.bytes(f as usize * pb);
                let mut want = vec![0u32; len];
                ref_bit_unshuffle(&planes, f, &mut want);
                let mut got = vec![0xDEAD_BEEF; len];
                bit_unshuffle(&planes, f, &mut got);
                assert_eq!(got, want, "len {len} f {f}");
            }
        }
    }

    #[test]
    fn one_plane_kernels_match_reference() {
        let mut rng = Rng(0x7777_1111_2222_3333);
        for len in lengths() {
            let pb = len.div_ceil(8);
            let mags: Vec<u32> = (0..len).map(|_| rng.next() as u32).collect();
            let mut full = vec![0u8; 32 * pb];
            ref_bit_shuffle(&mags, 32, &mut full);
            let mut back = vec![0u32; len];
            for (k, want) in full.chunks(pb).enumerate() {
                let mut got = vec![GARBAGE; pb];
                bit_shuffle_one_plane(&mags, k as u32, &mut got);
                assert_eq!(got, want, "len {len} plane {k}");
                // Padding bits of the plane must not leak into the result.
                let mut dirty = got.clone();
                dirty[pb - 1] |= !((1u16 << (len - 8 * (pb - 1))) - 1) as u8;
                bit_unshuffle_one_plane(&dirty, k as u32, &mut back);
            }
            assert_eq!(back, mags, "len {len}");
        }
    }

    #[test]
    fn signs_and_apply_signs_match_reference() {
        let mut rng = Rng(0xABCD_EF01_2345_6789);
        for len in lengths() {
            let pb = len.div_ceil(8);
            let residuals: Vec<i64> = (0..len)
                .map(|i| match i % 7 {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2 => 0,
                    _ => {
                        let m = i64::from(rng.u32_any_width() >> 1);
                        if rng.next() & 1 == 1 {
                            -m
                        } else {
                            m
                        }
                    }
                })
                .collect();
            let (mut want_s, mut want_m) = (vec![0u8; pb], vec![0u32; len]);
            ref_signs_and_magnitudes(&residuals, &mut want_s, &mut want_m);
            let (mut got_s, mut got_m) = (vec![GARBAGE; pb], vec![0xDEAD_BEEF; len]);
            signs_and_magnitudes(&residuals, &mut got_s, &mut got_m);
            assert_eq!(got_s, want_s, "signs, len {len}");
            assert_eq!(got_m, want_m, "magnitudes, len {len}");

            // Random sign bytes carry nonzero padding bits.
            let signs = rng.bytes(pb);
            let mags: Vec<u32> = (0..len).map(|_| rng.next() as u32).collect();
            let mut want = vec![0i64; len];
            ref_apply_signs(&signs, &mags, &mut want);
            let mut got = vec![i64::MIN; len];
            apply_signs(&signs, &mags, &mut got);
            assert_eq!(got, want, "apply_signs, len {len}");
        }
    }

    /// A mix of ordinary values, exact `.5` ties and the values quantize
    /// must reject: NaN, ±∞, values beyond `QUANT_MAX` and values beyond the
    /// `i64` range, which the conversion saturates.
    fn hostile_value(rng: &mut Rng, eps: f64) -> f32 {
        let r = rng.next();
        let tie = ((r >> 8) % 4096) as f32 - 2048.0 + 0.5;
        match r % 40 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => ((QUANT_MAX as f64 + 1.0) * 2.0 * eps) as f32,
            4 => (-(QUANT_MAX as f64 + 1.5) * 2.0 * eps) as f32,
            5 => f32::MAX,
            6 => -f32::MAX,
            7..=14 => (f64::from(tie) * 2.0 * eps) as f32,
            _ => (((r >> 16) as u32) as f32 / u32::MAX as f32 - 0.5) * 1e4,
        }
    }

    fn assert_quantize_matches(input: &[f32], eps: f64) {
        let mut want = vec![0i64; input.len()];
        let want_r = ref_quantize(input, eps, &mut want);
        let mut got = vec![i64::MIN; input.len()];
        let got_r = quantize(input, eps, &mut got);
        assert_eq!(got_r, want_r, "eps {eps} len {}", input.len());
        if want_r.is_ok() {
            assert_eq!(got, want, "eps {eps} len {}", input.len());
        }
    }

    #[test]
    fn quantize_matches_reference_on_hostile_mixes() {
        let mut rng = Rng(0x1357_9BDF_2468_ACE0);
        for eps in [0.5, 1e-3, 1e-6, 1e-20] {
            for len in lengths() {
                // Rare bad values: the first failure lands anywhere.
                let mut data: Vec<f32> = (0..len)
                    .map(|_| (((rng.next() >> 40) as f32) / 16_777_216.0 - 0.5) * 100.0)
                    .collect();
                for _ in 0..rng.next() % 3 {
                    let at = (rng.next() as usize) % len;
                    data[at] = hostile_value(&mut rng, eps);
                }
                assert_quantize_matches(&data, eps);
                // Dense mixes: several failures of different kinds.
                let data: Vec<f32> = (0..len).map(|_| hostile_value(&mut rng, eps)).collect();
                assert_quantize_matches(&data, eps);
            }
        }
    }

    #[test]
    fn quantize_matches_reference_on_exact_ties() {
        // With 2ε = 1 the scaled value is the input itself, so n + 0.5 and
        // -(n + 0.5) are exact ties that round half up.
        let ties: Vec<f32> = (-4096..4096).map(|n| n as f32 + 0.5).collect();
        assert_quantize_matches(&ties, 0.5);
        let mut out = vec![0i64; 4];
        quantize(&[-2.5, -0.5, 0.5, 2.5], 0.5, &mut out).unwrap();
        assert_eq!(out, [-2, 0, 1, 3]);
        // Ties one ulp either side stay on their side.
        let near: Vec<f32> = ties
            .iter()
            .flat_map(|&t| [t.next_down(), t.next_up()])
            .collect();
        assert_quantize_matches(&near, 0.5);
    }
}
