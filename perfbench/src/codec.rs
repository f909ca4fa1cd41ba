//! The two host-codec workloads.
//!
//! Both compress the 25 synthetic fields of the six Table 4 datasets at
//! REL 1e-4 (resolved per field), one field per operation, serially:
//!
//! - `codec-fields` calls `Codec::compress` on the canonical recipe, which
//!   runs the fused kernels and never the stage interpreter;
//! - `codec-tuned` calls `tune::compress_auto` (2-D dims for CESM), which
//!   scores the candidate recipes on a sample and compresses through the
//!   stage interpreter, usually ending in the Huffman stage.
//!
//! Each operation then decompresses with `Codec::decompressor(Serial)`.
//! The traced variants call the same public kernels and stages one at a
//! time, with a span around each, and must produce the same bytes.

use ceresz_core::fixed_length::{
    apply_signs, bit_shuffle, bit_unshuffle, effective_bits, max_magnitude, signs_and_magnitudes,
};
use ceresz_core::lorenzo::{forward_1d_in_place, inverse_1d_in_place};
use ceresz_core::quantize::{dequantize, quantize};
use ceresz_core::stream::{scan_block_offsets, StreamHeader};
use ceresz_core::{
    tune, verify_error_bound, CereszConfig, Codec, CompressError, CompressionStats, ErrorBound,
    HeaderWidth, Parallelism, Plane, Recipe, StageCtx, StageSpec,
};
use datasets::{generate_field, ALL_DATASETS};

use crate::calib::CpuInstant;
use crate::trace::Tracer;
use crate::{Counts, Op, Workload};

/// The error bound of both codec workloads.
pub const REL: f64 = 1e-4;

/// One generated field.
struct Field {
    data: Vec<f32>,
    /// `(rows, cols)` for 2-D fields, which the tuner may predict in 2-D.
    dims2d: Option<(usize, usize)>,
}

/// A codec workload: its inputs and the outputs of its warm-up pass.
pub struct CodecWorkload {
    tuned: bool,
    cfg: CereszConfig,
    fields: Vec<Field>,
    /// Compressed bytes of each field from the warm-up pass.
    refs: Vec<Vec<u8>>,
    /// Statistics of each field from the warm-up pass.
    stats: Vec<CompressionStats>,
    warm_ok: bool,
}

impl CodecWorkload {
    /// Generate the fields from `seed` and run the warm-up pass. Returns
    /// the workload and the seconds spent generating inputs.
    pub fn new(seed: u64, tuned: bool) -> (Self, f64) {
        let t = CpuInstant::now();
        let fields: Vec<Field> = ALL_DATASETS
            .iter()
            .flat_map(|&ds| (0..ds.n_fields()).map(move |i| generate_field(ds, i, seed)))
            .map(|f| Field {
                dims2d: (f.dims.len() == 2).then(|| (f.dims[0], f.dims[1])),
                data: f.data,
            })
            .collect();
        let gen_s = t.elapsed_s();
        let cfg = CereszConfig::new(ErrorBound::Rel(REL)).with_parallelism(Parallelism::Serial);
        let mut w = Self {
            tuned,
            cfg,
            fields,
            refs: Vec::new(),
            stats: Vec::new(),
            warm_ok: true,
        };
        for i in 0..w.fields.len() {
            match w.compress(i) {
                Ok((bytes, stats)) => {
                    let decoded = decompressor().decompress(&bytes);
                    w.warm_ok &= within_bound(&w.fields[i].data, &decoded, stats.eps);
                    w.refs.push(bytes);
                    w.stats.push(stats);
                }
                Err(_) => {
                    w.warm_ok = false;
                    w.refs.push(Vec::new());
                    w.stats.push(CompressionStats::default());
                }
            }
        }
        (w, gen_s)
    }

    /// The workload's compression entry point on field `i`.
    fn compress(&self, i: usize) -> Result<(Vec<u8>, CompressionStats), CompressError> {
        let f = &self.fields[i];
        let c = if self.tuned {
            tune::compress_auto(&f.data, f.dims2d, &self.cfg)?.0
        } else {
            Codec::new(self.cfg).compress(&f.data)?
        };
        Ok((c.data, c.stats))
    }

    /// The output checks of field `i`: the same bytes as the warm-up pass
    /// (so ratio is identical across passes), and a decode within ε.
    fn check(&self, i: usize, bytes: &[u8], decoded: &Result<Vec<f32>, CompressError>) -> bool {
        bytes == self.refs[i].as_slice()
            && within_bound(&self.fields[i].data, decoded, self.stats[i].eps)
    }
}

/// The host decoder every workload checks and times with.
pub fn decompressor() -> Codec {
    Codec::decompressor(Parallelism::Serial)
}

/// True when `decoded` is a full-length reconstruction of `data` within ε.
pub fn within_bound(data: &[f32], decoded: &Result<Vec<f32>, CompressError>, eps: f64) -> bool {
    decoded
        .as_ref()
        .is_ok_and(|d| d.len() == data.len() && verify_error_bound(data, d, eps))
}

impl Workload for CodecWorkload {
    fn ops_per_pass(&self) -> usize {
        self.fields.len()
    }

    fn run(&mut self, i: usize) -> Op {
        let t = CpuInstant::now();
        let compressed = self.compress(i);
        let compress_s = t.elapsed_s();
        let bytes = compressed.map(|(b, _)| b).unwrap_or_default();
        let t = CpuInstant::now();
        let decoded = decompressor().decompress(&bytes);
        let decompress_s = t.elapsed_s();
        Op {
            bytes: self.fields[i].data.len() * 4,
            compress_s,
            decompress_s,
            ok: self.check(i, &bytes, &decoded),
        }
    }

    fn run_traced(&mut self, i: usize, tr: &mut Tracer) -> Op {
        let f = &self.fields[i];
        let n = f.data.len() as u64;
        let root = tr.enter("bench.compress", n);
        let bytes = if self.tuned {
            traced_auto_compress(&f.data, f.dims2d, &self.cfg, tr)
        } else {
            traced_canonical_compress(&f.data, &self.cfg, tr)
        };
        let compress_s = tr.exit(root);
        let bytes = bytes.unwrap_or_default();
        let root = tr.enter("bench.decompress", n);
        let decoded = traced_decompress(&bytes, tr);
        let decompress_s = tr.exit(root);
        Op {
            bytes: f.data.len() * 4,
            compress_s,
            decompress_s,
            ok: self.check(i, &bytes, &decoded),
        }
    }

    fn corrupted_output_is_caught(&mut self) -> bool {
        let mut bytes = self.refs[0].clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let decoded = decompressor().decompress(&bytes);
        !self.check(0, &bytes, &decoded)
    }

    fn warm_ok(&self) -> bool {
        self.warm_ok
    }

    fn counts(&self) -> Counts {
        let sum = |f: fn(&CompressionStats) -> f64| self.stats.iter().map(f).sum::<f64>();
        let blocks = sum(|s| s.n_blocks as f64);
        Counts {
            ratio: sum(|s| s.original_bytes as f64) / sum(|s| s.compressed_bytes as f64),
            mean_bits: sum(|s| s.total_fixed_length as f64) / blocks,
            zero_block_frac: sum(|s| s.zero_blocks as f64) / blocks,
            ..Counts::default()
        }
    }

    fn params(&self) -> String {
        let elems: usize = self.fields.iter().map(|f| f.data.len()).sum();
        let recipes: Vec<String> = self
            .stats
            .iter()
            .map(|s| format!("\"{}\"", s.recipe))
            .collect();
        format!(
            "{{\"entry\": \"{}\", \"bound\": \"REL {REL:e}\", \"fields\": {}, \"elements\": {elems}, \
             \"bytes\": {}, \"block_size\": {}, \"recipes\": [{}]}}",
            if self.tuned {
                "tune::compress_auto + Codec::decompressor(Serial)"
            } else {
                "Codec::compress + Codec::decompressor(Serial)"
            },
            self.fields.len(),
            elems * 4,
            self.cfg.block_size,
            recipes.join(", ")
        )
    }
}

/// Span name of a stage's encode or decode.
fn stage_span(spec: StageSpec, encode: bool) -> &'static str {
    match (spec, encode) {
        (StageSpec::PreQuantize, true) => "ceresz-core.stage.quantize.encode",
        (StageSpec::PreQuantize, false) => "ceresz-core.stage.quantize.decode",
        (StageSpec::Lorenzo1d, true) => "ceresz-core.stage.lorenzo1.encode",
        (StageSpec::Lorenzo1d, false) => "ceresz-core.stage.lorenzo1.decode",
        (StageSpec::Lorenzo2d { .. }, true) => "ceresz-core.stage.lorenzo2.encode",
        (StageSpec::Lorenzo2d { .. }, false) => "ceresz-core.stage.lorenzo2.decode",
        (StageSpec::FixedLength, true) => "ceresz-core.stage.fixed.encode",
        (StageSpec::FixedLength, false) => "ceresz-core.stage.fixed.decode",
        (StageSpec::MantissaSplit, true) => "ceresz-core.stage.mantissa.encode",
        (StageSpec::MantissaSplit, false) => "ceresz-core.stage.mantissa.decode",
        (StageSpec::Bf16, true) => "ceresz-core.stage.bf16.encode",
        (StageSpec::Bf16, false) => "ceresz-core.stage.bf16.decode",
        (StageSpec::Huffman, true) => "ceresz-core.stage.huffman.encode",
        (StageSpec::Huffman, false) => "ceresz-core.stage.huffman.decode",
    }
}

/// Every stage id the interpreter knows, for the per-stage metrics.
pub const STAGE_IDS: [&str; 7] = [
    "quantize", "lorenzo1", "lorenzo2", "fixed", "mantissa", "bf16", "huffman",
];

/// The fused canonical compression, one kernel at a time over the whole
/// field: quantize, Lorenzo, sign/max, then bit-shuffle into the stream.
fn traced_canonical_compress(
    data: &[f32],
    cfg: &CereszConfig,
    tr: &mut Tracer,
) -> Result<Vec<u8>, CompressError> {
    let n = data.len() as u64;
    let eps = tr.leaf("ceresz-core.resolve_eps", n, || cfg.resolve_eps(data))?;
    let bs = cfg.block_size;
    let pb = bs.div_ceil(8);
    let n_blocks = data.len().div_ceil(bs);
    let mut q = vec![0i64; n_blocks * bs];
    tr.leaf("ceresz-core.quantize", n, || {
        data.chunks(bs)
            .zip(q.chunks_mut(bs))
            .try_for_each(|(x, qb)| quantize(x, eps, &mut qb[..x.len()]))
    })?;
    tr.leaf("ceresz-core.lorenzo_fwd", n, || {
        q.chunks_mut(bs).for_each(forward_1d_in_place);
    });
    let mut signs = vec![0u8; n_blocks * pb];
    let mut mags = vec![0u32; n_blocks * bs];
    let mut lens = vec![0u32; n_blocks];
    tr.leaf("ceresz-core.sign_max", n, || {
        for (b, len) in lens.iter_mut().enumerate() {
            let d = &q[b * bs..(b + 1) * bs];
            let limit = u64::from(i32::MAX.unsigned_abs());
            if let Some(index) = d.iter().position(|v| v.unsigned_abs() > limit) {
                return Err(CompressError::DeltaOverflow { index });
            }
            let m = &mut mags[b * bs..(b + 1) * bs];
            signs_and_magnitudes(d, &mut signs[b * pb..(b + 1) * pb], m);
            *len = effective_bits(max_magnitude(m));
        }
        Ok(())
    })?;
    let header = StreamHeader {
        header_width: cfg.header,
        block_size: bs,
        count: data.len(),
        eps,
        recipe: Recipe::canonical(),
    };
    let mut out = Vec::with_capacity(header.written_len() + data.len());
    tr.leaf("ceresz-core.bit_shuffle", n, || {
        header.write(&mut out);
        for (b, &f) in lens.iter().enumerate() {
            match cfg.header {
                HeaderWidth::W1 => out.push(f as u8),
                HeaderWidth::W4 => out.extend_from_slice(&f.to_le_bytes()),
            }
            if f > 0 {
                out.extend_from_slice(&signs[b * pb..(b + 1) * pb]);
                let off = out.len();
                out.resize(off + f as usize * pb, 0);
                bit_shuffle(&mags[b * bs..(b + 1) * bs], f, &mut out[off..]);
            }
        }
    });
    Ok(out)
}

/// `tune::compress_auto` with a span around the tuner and around each
/// stage of the chosen recipe.
fn traced_auto_compress(
    data: &[f32],
    dims: Option<(usize, usize)>,
    cfg: &CereszConfig,
    tr: &mut Tracer,
) -> Result<Vec<u8>, CompressError> {
    let report = tr.leaf("ceresz-core.tune", (data.len() * 4) as u64, || {
        tune::tune(data, dims, cfg)
    })?;
    match traced_compress_with(data, &report.chosen, tr) {
        Err(_) if report.chosen.recipe != cfg.recipe => traced_compress_with(data, cfg, tr),
        r => r,
    }
}

/// `Codec::compress` under `cfg`: the fused path for the canonical recipe,
/// otherwise the stage interpreter, one span per stage.
fn traced_compress_with(
    data: &[f32],
    cfg: &CereszConfig,
    tr: &mut Tracer,
) -> Result<Vec<u8>, CompressError> {
    let n = data.len() as u64;
    if cfg.recipe.is_canonical() {
        return tr.leaf("ceresz-core.fused.encode", n, || {
            Codec::new(*cfg).compress(data).map(|c| c.data)
        });
    }
    let eps = tr.leaf("ceresz-core.resolve_eps", n, || cfg.resolve_eps(data))?;
    let ctx = StageCtx {
        eps,
        block_size: cfg.block_size,
        header: cfg.header,
        count: data.len(),
    };
    let mut stats = CompressionStats {
        original_bytes: std::mem::size_of_val(data),
        eps,
        recipe: cfg.recipe,
        ..CompressionStats::default()
    };
    let mut plane = tr.leaf("ceresz-core.stream", n, || Plane::F32(data.to_vec()));
    for &spec in cfg.recipe.stages() {
        let span = tr.enter(stage_span(spec, true), n);
        plane = if spec == StageSpec::Huffman {
            huffman_encode(plane, n, tr)
        } else {
            spec.build().encode(plane, &ctx, &mut stats)
        }?;
        tr.exit(span);
    }
    let payload = plane.into_bytes()?;
    let header = StreamHeader {
        header_width: cfg.header,
        block_size: cfg.block_size,
        count: data.len(),
        eps,
        recipe: cfg.recipe,
    };
    let out = tr.leaf("ceresz-core.stream", n, || {
        let mut out = Vec::with_capacity(header.written_len() + payload.len());
        header.write(&mut out);
        out.extend_from_slice(&payload);
        out
    });
    if !cfg.recipe.guarantees_bound() {
        let ok = tr.leaf("ceresz-core.verify_bound", n, || {
            within_bound(data, &decompressor().decompress(&out), eps)
        });
        if !ok {
            return Err(CompressError::BoundExceeded);
        }
    }
    Ok(out)
}

/// The Huffman stage's encode, with the `huffman` crate's call as a child
/// span.
fn huffman_encode(plane: Plane, n: u64, tr: &mut Tracer) -> Result<Plane, CompressError> {
    let bytes = plane.into_bytes()?;
    if bytes.is_empty() {
        return Ok(Plane::Bytes(Vec::new()));
    }
    let symbols: Vec<u32> = bytes.iter().map(|&b| u32::from(b)).collect();
    let encoded = tr
        .leaf("huffman.encode", n, || huffman::codec::encode(&symbols))
        .map_err(|_| CompressError::CorruptEntropy("huffman encode failed"))?;
    Ok(Plane::Bytes(encoded.bytes))
}

/// The Huffman stage's decode, with the `huffman` crate's call as a child
/// span.
fn huffman_decode(plane: Plane, n: u64, tr: &mut Tracer) -> Result<Plane, CompressError> {
    let bytes = plane.into_bytes()?;
    if bytes.is_empty() {
        return Ok(Plane::Bytes(Vec::new()));
    }
    let symbols = tr
        .leaf("huffman.decode", n, || huffman::codec::decode_bytes(&bytes))
        .map_err(|_| CompressError::CorruptEntropy("corrupt huffman stream"))?;
    symbols
        .into_iter()
        .map(|s| u8::try_from(s).map_err(|_| CompressError::CorruptEntropy("symbol > 255")))
        .collect::<Result<Vec<u8>, _>>()
        .map(Plane::Bytes)
}

/// `Codec::decompress`, one kernel at a time for canonical streams and one
/// stage at a time for the others.
fn traced_decompress(bytes: &[u8], tr: &mut Tracer) -> Result<Vec<f32>, CompressError> {
    let (header, consumed) = StreamHeader::read_prefix(bytes)?;
    let payload = &bytes[consumed..];
    let n = header.count as u64;
    if header.recipe.is_canonical() {
        return traced_canonical_decompress(&header, payload, tr);
    }
    let ctx = StageCtx {
        eps: header.eps,
        block_size: header.block_size,
        header: header.header_width,
        count: header.count,
    };
    let mut plane = tr.leaf("ceresz-core.stream", n, || Plane::Bytes(payload.to_vec()));
    for &spec in header.recipe.stages().iter().rev() {
        let span = tr.enter(stage_span(spec, false), n);
        plane = if spec == StageSpec::Huffman {
            huffman_decode(plane, n, tr)
        } else {
            spec.build().decode(plane, &ctx)
        }?;
        tr.exit(span);
    }
    match plane {
        Plane::F32(out) if out.len() == header.count => Ok(out),
        Plane::F32(_) => Err(CompressError::Truncated),
        _ => Err(CompressError::InvalidRecipe("pipeline did not end on f32")),
    }
}

/// The fused canonical decompression, one kernel at a time over the whole
/// field: unshuffle, signs, inverse Lorenzo, dequantize.
fn traced_canonical_decompress(
    header: &StreamHeader,
    payload: &[u8],
    tr: &mut Tracer,
) -> Result<Vec<f32>, CompressError> {
    let n = header.count as u64;
    let bs = header.block_size;
    let pb = bs.div_ceil(8);
    let hb = header.header_width.bytes();
    let blocks = tr.leaf("ceresz-core.scan_blocks", n, || {
        header.check_payload(payload.len())?;
        let offsets = scan_block_offsets(header, payload)?;
        // The scan has checked every header, so each block lies in bounds.
        Ok::<_, CompressError>(
            offsets
                .into_iter()
                .map(|off| {
                    let f = match header.header_width {
                        HeaderWidth::W1 => u32::from(payload[off]),
                        HeaderWidth::W4 => u32::from_le_bytes(
                            payload[off..off + 4].try_into().expect("four bytes"),
                        ),
                    };
                    (off + hb, f as usize)
                })
                .collect::<Vec<_>>(),
        )
    })?;
    let mut mags = vec![0u32; blocks.len() * bs];
    tr.leaf("ceresz-core.bit_unshuffle", n, || {
        for (&(body, f), m) in blocks.iter().zip(mags.chunks_mut(bs)) {
            if f > 0 {
                bit_unshuffle(&payload[body + pb..body + pb + f * pb], f as u32, m);
            }
        }
    });
    let mut q = vec![0i64; blocks.len() * bs];
    tr.leaf("ceresz-core.apply_signs", n, || {
        for ((&(body, f), m), qb) in blocks.iter().zip(mags.chunks(bs)).zip(q.chunks_mut(bs)) {
            if f > 0 {
                apply_signs(&payload[body..body + pb], m, qb);
            }
        }
    });
    tr.leaf("ceresz-core.lorenzo_inv", n, || {
        q.chunks_mut(bs).for_each(inverse_1d_in_place);
    });
    let mut out = vec![0f32; header.count];
    tr.leaf("ceresz-core.dequantize", n, || {
        dequantize(&q[..header.count], header.eps, &mut out);
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.013).sin() * 40.0 + (i as f32 * 0.002).cos() * 7.0)
            .collect()
    }

    fn cfg() -> CereszConfig {
        CereszConfig::new(ErrorBound::Rel(REL)).with_parallelism(Parallelism::Serial)
    }

    #[test]
    fn traced_canonical_path_matches_the_codec_bytes() {
        let data = wavy(10_007);
        let mut tr = Tracer::new();
        let traced = traced_canonical_compress(&data, &cfg(), &mut tr).unwrap();
        assert_eq!(traced, Codec::new(cfg()).compress(&data).unwrap().data);
        let decoded = traced_decompress(&traced, &mut tr).unwrap();
        assert_eq!(decoded, decompressor().decompress(&traced).unwrap());
    }

    #[test]
    fn traced_auto_path_matches_compress_auto_bytes() {
        // Mostly zero, so the tuner picks a Huffman-terminated recipe.
        let data: Vec<f32> = wavy(70_000)
            .into_iter()
            .enumerate()
            .map(|(i, v)| if i % 11 == 0 { v } else { 0.0 })
            .collect();
        let (c, report) = tune::compress_auto(&data, None, &cfg()).unwrap();
        assert!(report.chosen.recipe.stages().contains(&StageSpec::Huffman));
        let mut tr = Tracer::new();
        let traced = traced_auto_compress(&data, None, &cfg(), &mut tr).unwrap();
        assert_eq!(traced, c.data);
        let decoded = traced_decompress(&traced, &mut tr).unwrap();
        assert_eq!(decoded, decompressor().decompress(&traced).unwrap());
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        assert!(names.contains(&"huffman.encode") && names.contains(&"huffman.decode"));
    }
}
