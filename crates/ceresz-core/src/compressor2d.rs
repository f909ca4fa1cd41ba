//! The 2-D Lorenzo variant of CereSZ — the extension §3 of the paper
//! mentions but deliberately does not ship ("beyond the first-order
//! difference ... there are higher dimensional Lorenzo prediction methods
//! ... which can lead to a higher compression ratio. Although CereSZ can
//! support such prediction methods, in this work we prioritize high
//! throughput").
//!
//! This module implements it so the trade-off can be measured (see the
//! `ablation_predictor` bench): the field is tiled into `T×T` tiles, each
//! tile is quantized, 2-D-Lorenzo-predicted *within the tile* (tiles stay
//! independently decodable, like 1-D blocks), and the residuals go through
//! the same fixed-length encoder.
//!
//! Why the paper is right to skip it on the wafer: a PE compressing a tile
//! must gather `T` strided rows of the field, so the west-edge streaming
//! order no longer matches memory order — either the host reorders
//! (off-wafer cost) or each PE buffers `T` full field rows, which busts the
//! 48 KB SRAM for any realistic field width. The ablation quantifies both
//! sides.

use crate::block::{BlockCodec, BlockScratch, HeaderWidth};
use crate::bound::ErrorBound;
use crate::compressor::{CompressError, CompressionStats};
use crate::lorenzo::{forward_2d, inverse_2d};
use crate::quantize::{dequantize, quantize};

/// Magic bytes of the 2-D stream format.
pub const MAGIC_2D: [u8; 4] = *b"CSZ2";
/// Fixed header size of the 2-D format.
pub const HEADER_2D_BYTES: usize = 4 + 1 + 4 + 8 + 8 + 8;

/// Configuration of the 2-D variant.
#[derive(Debug, Clone, Copy)]
pub struct Ceresz2dConfig {
    /// The error bound.
    pub bound: ErrorBound,
    /// Tile side length (tile = `tile × tile` elements). Must make the tile
    /// element count a multiple of 8; 8 is the default (64-element tiles).
    pub tile: usize,
}

impl Ceresz2dConfig {
    /// Default configuration: 8×8 tiles.
    #[must_use]
    pub fn new(bound: ErrorBound) -> Self {
        Self { bound, tile: 8 }
    }

    /// Override the tile side.
    #[must_use]
    pub fn with_tile(mut self, tile: usize) -> Self {
        self.tile = tile;
        self
    }
}

/// A compressed 2-D stream plus statistics.
#[derive(Debug, Clone)]
pub struct Compressed2d {
    /// The stream bytes.
    pub data: Vec<u8>,
    /// Run statistics (per-tile fixed lengths etc.).
    pub stats: CompressionStats,
}

impl Compressed2d {
    /// Compression ratio.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.stats.ratio()
    }
}

/// Compress a row-major `rows × cols` field with 2-D Lorenzo tiles.
pub fn compress_2d(
    data: &[f32],
    rows: usize,
    cols: usize,
    cfg: &Ceresz2dConfig,
) -> Result<Compressed2d, CompressError> {
    if data.len() != rows * cols {
        return Err(CompressError::BadBlockSize(data.len()));
    }
    if !cfg.bound.is_valid() {
        return Err(CompressError::InvalidBound);
    }
    let t = cfg.tile;
    if t == 0 || !(t * t).is_multiple_of(8) {
        return Err(CompressError::BadBlockSize(t));
    }
    let eps = cfg.bound.resolve(data);
    if !(eps.is_finite() && eps > 0.0) {
        return Err(CompressError::InvalidBound);
    }
    let codec = BlockCodec::new(t * t, HeaderWidth::W4);

    let mut out = Vec::with_capacity(HEADER_2D_BYTES + data.len());
    out.extend_from_slice(&MAGIC_2D);
    out.push(1); // version
    out.extend_from_slice(&(t as u32).to_le_bytes());
    out.extend_from_slice(&(rows as u64).to_le_bytes());
    out.extend_from_slice(&(cols as u64).to_le_bytes());
    out.extend_from_slice(&eps.to_le_bytes());

    let mut stats = CompressionStats {
        original_bytes: data.len() * 4,
        eps,
        recipe: crate::recipe::Recipe::new(&[
            crate::recipe::StageSpec::PreQuantize,
            crate::recipe::StageSpec::Lorenzo2d {
                rows: rows as u32,
                cols: cols as u32,
                tile: t as u16,
            },
            crate::recipe::StageSpec::FixedLength,
        ])?,
        ..CompressionStats::default()
    };
    let tiles_r = rows.div_ceil(t);
    let tiles_c = cols.div_ceil(t);
    let mut raw = vec![0f32; t * t];
    let mut q = vec![0i64; t * t];
    let mut deltas = vec![0i64; t * t];
    let mut scratch = BlockScratch::default();
    for tr in 0..tiles_r {
        for tc in 0..tiles_c {
            // Gather the tile, zero-padding past the field edge.
            raw.fill(0.0);
            for i in 0..t.min(rows - tr * t) {
                let row = tr * t + i;
                let c0 = tc * t;
                let w = t.min(cols - c0);
                raw[i * t..i * t + w].copy_from_slice(&data[row * cols + c0..row * cols + c0 + w]);
            }
            quantize(&raw, eps, &mut q)?;
            forward_2d(&q, t, t, &mut deltas);
            let info = codec.encode_deltas_with(&deltas, &mut scratch, &mut out)?;
            stats.n_blocks += 1;
            if info.is_zero {
                stats.zero_blocks += 1;
            }
            stats.max_fixed_length = stats.max_fixed_length.max(info.fixed_length);
            stats.total_fixed_length += u64::from(info.fixed_length);
        }
    }
    stats.compressed_bytes = out.len();
    Ok(Compressed2d { data: out, stats })
}

/// Decompress a stream produced by [`compress_2d`].
pub fn decompress_2d(bytes: &[u8]) -> Result<(Vec<f32>, usize, usize), CompressError> {
    if bytes.len() < HEADER_2D_BYTES {
        return Err(CompressError::Truncated);
    }
    if bytes[0..4] != MAGIC_2D {
        return Err(CompressError::BadMagic);
    }
    if bytes[4] != 1 {
        return Err(CompressError::UnsupportedVersion(bytes[4]));
    }
    let t = u32::from_le_bytes(bytes[5..9].try_into().expect("sized")) as usize;
    if t == 0 || !(t * t).is_multiple_of(8) {
        return Err(CompressError::BadBlockSize(t));
    }
    let rows = u64::from_le_bytes(bytes[9..17].try_into().expect("sized")) as usize;
    let cols = u64::from_le_bytes(bytes[17..25].try_into().expect("sized")) as usize;
    let eps = f64::from_le_bytes(bytes[25..33].try_into().expect("sized"));
    if !(eps.is_finite() && eps > 0.0) {
        return Err(CompressError::InvalidBound);
    }
    let codec = BlockCodec::new(t * t, HeaderWidth::W4);
    let payload = &bytes[HEADER_2D_BYTES..];

    let mut out = vec![0f32; rows * cols];
    let mut q = vec![0i64; t * t];
    let mut rec_q = vec![0i64; t * t];
    let mut rec = vec![0f32; t * t];
    let mut scratch = BlockScratch::default();
    let mut pos = 0usize;
    for tr in 0..rows.div_ceil(t) {
        for tc in 0..cols.div_ceil(t) {
            pos += codec.decode_block_deltas_with(&payload[pos..], &mut scratch, &mut q)?;
            inverse_2d(&q, t, t, &mut rec_q);
            dequantize(&rec_q, eps, &mut rec);
            for i in 0..t.min(rows - tr * t) {
                let row = tr * t + i;
                let c0 = tc * t;
                let w = t.min(cols - c0);
                out[row * cols + c0..row * cols + c0 + w].copy_from_slice(&rec[i * t..i * t + w]);
            }
        }
    }
    Ok((out, rows, cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_error_bound;

    fn smooth(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| {
                let r = (i / cols) as f32;
                let c = (i % cols) as f32;
                (r * 0.05).sin() * 40.0 + (c * 0.04).cos() * 25.0
            })
            .collect()
    }

    #[test]
    fn roundtrip_within_bound() {
        let (rows, cols) = (100, 132);
        let data = smooth(rows, cols);
        let cfg = Ceresz2dConfig::new(ErrorBound::Rel(1e-3));
        let c = compress_2d(&data, rows, cols, &cfg).unwrap();
        let (r, rr, rc) = decompress_2d(&c.data).unwrap();
        assert_eq!((rr, rc), (rows, cols));
        assert!(verify_error_bound(&data, &r, c.stats.eps));
    }

    #[test]
    fn non_tile_aligned_dims_roundtrip() {
        let (rows, cols) = (37, 53); // neither divisible by 8
        let data = smooth(rows, cols);
        let cfg = Ceresz2dConfig::new(ErrorBound::Rel(1e-4));
        let c = compress_2d(&data, rows, cols, &cfg).unwrap();
        let (r, ..) = decompress_2d(&c.data).unwrap();
        assert!(verify_error_bound(&data, &r, c.stats.eps));
    }

    #[test]
    fn two_d_beats_one_d_on_smooth_2d_fields() {
        // The whole point: 2-D prediction shrinks residuals on fields with
        // 2-D structure, beating the 1-D block compressor's ratio.
        let (rows, cols) = (256, 256);
        let data = smooth(rows, cols);
        let bound = ErrorBound::Rel(1e-3);
        let two_d = compress_2d(&data, rows, cols, &Ceresz2dConfig::new(bound)).unwrap();
        let one_d = crate::codec::Codec::new(crate::CereszConfig::new(bound))
            .compress(&data)
            .unwrap();
        assert!(
            two_d.ratio() > one_d.ratio(),
            "2-D {} !> 1-D {}",
            two_d.ratio(),
            one_d.ratio()
        );
        // (Per-block fixed lengths are not directly comparable: a 64-element
        // tile takes its max over twice as many residuals as a 32-element
        // 1-D block; the ratio is the normalized comparison.)
    }

    #[test]
    fn bad_inputs_rejected() {
        let data = smooth(16, 16);
        assert!(matches!(
            compress_2d(&data, 16, 17, &Ceresz2dConfig::new(ErrorBound::Rel(1e-3))),
            Err(CompressError::BadBlockSize(_))
        ));
        assert!(matches!(
            compress_2d(&data, 16, 16, &Ceresz2dConfig::new(ErrorBound::Abs(0.0))),
            Err(CompressError::InvalidBound)
        ));
        assert!(decompress_2d(b"junk").is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = smooth(32, 32);
        let c = compress_2d(&data, 32, 32, &Ceresz2dConfig::new(ErrorBound::Rel(1e-3))).unwrap();
        assert!(decompress_2d(&c.data[..c.data.len() - 3]).is_err());
    }

    #[test]
    fn larger_tiles_trade_header_overhead_for_locality() {
        let (rows, cols) = (128, 128);
        let data = smooth(rows, cols);
        let bound = ErrorBound::Rel(1e-3);
        let t8 = compress_2d(&data, rows, cols, &Ceresz2dConfig::new(bound)).unwrap();
        let t16 =
            compress_2d(&data, rows, cols, &Ceresz2dConfig::new(bound).with_tile(16)).unwrap();
        // Both roundtrip; ratio relationship is data-dependent, just sanity.
        assert!(t8.ratio() > 1.0 && t16.ratio() > 1.0);
    }
}
