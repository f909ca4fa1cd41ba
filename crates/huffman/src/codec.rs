//! Self-contained encode/decode of `u32` symbol streams: the canonical code
//! table travels with the payload.
//!
//! Layout:
//!
//! ```text
//! [count u64][table_len u32][(symbol u32, length u8) × table_len][payload]
//! ```
//!
//! Both directions are table-driven. The encoder counts symbols into a dense
//! array indexed by symbol when the alphabet is small (a hash map
//! otherwise), looks each codeword up the same way, and appends it to a
//! `u64` accumulator that flushes 32 bits at a time. The decoder resolves
//! the next `k ≤ 11` bits through a `2^k`-entry table and falls back to the
//! canonical per-length walk for longer codes.

use std::collections::HashMap;

use crate::canonical::CanonicalCode;
use crate::tree::code_lengths;
use crate::{histogram, HuffmanError};

/// Largest alphabet span (`max symbol + 1`) the encoder counts and looks up
/// through dense tables indexed by symbol. Wider alphabets, such as SZ3's
/// run symbol at 2^16 + 1, use hash maps. The span is also capped at a
/// sixteenth of the input length, floored at a byte alphabet, so that the
/// dense tables (48 bytes per entry) are no larger than the input.
const DENSE_SPAN: usize = 1 << 16;

/// An encoded stream plus size accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoded {
    /// The serialized stream (header + table + payload).
    pub bytes: Vec<u8>,
    /// Payload bits (for entropy accounting, excludes table).
    pub payload_bits: usize,
    /// Symbols encoded.
    pub count: usize,
}

/// Huffman-encode a symbol stream. Empty input yields a valid empty stream.
pub fn encode(symbols: &[u32]) -> Result<Encoded, HuffmanError> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(symbols.len() as u64).to_le_bytes());
    let Some(&max) = symbols.iter().max() else {
        bytes.extend_from_slice(&0u32.to_le_bytes());
        return Ok(Encoded {
            bytes,
            payload_bits: 0,
            count: 0,
        });
    };
    let span = max as usize + 1;
    let dense = span <= DENSE_SPAN.min((symbols.len() / 16).max(256));
    let freqs = if dense {
        dense_histogram(symbols, span)
    } else {
        let mut freqs: Vec<(u32, u64)> = histogram(symbols).into_iter().collect();
        freqs.sort_unstable();
        freqs
    };
    let lengths = code_lengths(&freqs)?;
    let code = CanonicalCode::from_pairs(
        lengths
            .iter()
            .zip(&freqs)
            .map(|(&l, &(s, _))| (l, s))
            .collect(),
    )?;
    let table = code.table();
    let payload_bits: usize = freqs
        .iter()
        .zip(&lengths)
        .map(|(&(_, f), &l)| f as usize * usize::from(l))
        .sum();
    bytes.reserve(4 + table.len() * 5 + payload_bits / 32 * 4 + 4);
    bytes.extend_from_slice(&(table.len() as u32).to_le_bytes());
    for &(sym, len) in &table {
        bytes.extend_from_slice(&sym.to_le_bytes());
        bytes.push(len);
    }
    if dense {
        let mut codes = vec![(0u64, 0u8); span];
        for (s, cw, l) in code.codewords() {
            codes[s as usize] = (cw, l);
        }
        write_payload(&mut bytes, payload_bits, symbols, |s| codes[s as usize]);
    } else {
        let codes: HashMap<u32, (u64, u8)> =
            code.codewords().map(|(s, cw, l)| (s, (cw, l))).collect();
        write_payload(&mut bytes, payload_bits, symbols, |s| codes[&s]);
    }
    Ok(Encoded {
        bytes,
        payload_bits,
        count: symbols.len(),
    })
}

/// `(symbol, count)` of every symbol present, in symbol order, counted into
/// dense arrays of `span` entries.
fn dense_histogram(symbols: &[u32], span: usize) -> Vec<(u32, u64)> {
    // Four interleaved counters per symbol, so that a run of one symbol
    // does not chain every increment through the same memory word.
    let mut lanes = vec![[0u64; 4]; span];
    let (quads, rest) = symbols.as_chunks::<4>();
    for q in quads {
        lanes[q[0] as usize][0] += 1;
        lanes[q[1] as usize][1] += 1;
        lanes[q[2] as usize][2] += 1;
        lanes[q[3] as usize][3] += 1;
    }
    for &s in rest {
        lanes[s as usize][0] += 1;
    }
    (0u32..)
        .zip(lanes)
        .map(|(s, l)| (s, l.iter().sum()))
        .filter(|&(_, c)| c > 0)
        .collect()
}

/// Append the codeword of every symbol to `out`, MSB first, zero-padded to
/// a whole byte. `payload_bits` is their exact total length.
///
/// Codewords shift into a `u64` accumulator; codes longer than 32 bits go in
/// two parts. See [`put`] for the store.
fn write_payload(
    out: &mut Vec<u8>,
    payload_bits: usize,
    symbols: &[u32],
    code_of: impl Fn(u32) -> (u64, u8),
) {
    let start = out.len();
    out.resize(start + payload_bits / 32 * 4 + 4, 0);
    let buf = &mut out[start..];
    let (mut at, mut acc, mut pending) = (0usize, 0u64, 0u32);
    for &s in symbols {
        let (cw, len) = code_of(s);
        let len = u32::from(len);
        if len > 32 {
            let low = cw & u64::from(u32::MAX);
            put(buf, &mut at, &mut acc, &mut pending, cw >> 32, len - 32);
            put(buf, &mut at, &mut acc, &mut pending, low, 32);
        } else {
            put(buf, &mut at, &mut acc, &mut pending, cw, len);
        }
    }
    let tail = ((acc << (32 - pending)) as u32).to_be_bytes();
    let tail_len = pending.div_ceil(8) as usize;
    buf[at..at + tail_len].copy_from_slice(&tail[..tail_len]);
    debug_assert_eq!(at * 8 + pending as usize, payload_bits);
    out.truncate(start + at + tail_len);
}

/// Append the low `len ≤ 32` bits of `bits` (`bits < 2^len`) to the
/// accumulator, whose low `pending < 32` bits are not yet in `buf[at..]`
/// (higher bits are stale).
///
/// Once 32 bits are pending they are stored as one big-endian word and
/// `at` moves past it. The store happens every time, with no branch on the
/// data: short of 32 bits it writes a partial word that a later store
/// overwrites.
#[inline(always)]
fn put(buf: &mut [u8], at: &mut usize, acc: &mut u64, pending: &mut u32, bits: u64, len: u32) {
    *acc = *acc << len | bits;
    *pending += len;
    let full = *pending / 32;
    *pending %= 32;
    buf[*at..*at + 4].copy_from_slice(&((*acc >> *pending) as u32).to_be_bytes());
    *at += 4 * full as usize;
}

/// Decode a stream produced by [`encode`].
pub fn decode(encoded: &Encoded) -> Result<Vec<u32>, HuffmanError> {
    decode_bytes(&encoded.bytes)
}

/// Decode from raw bytes.
pub fn decode_bytes(bytes: &[u8]) -> Result<Vec<u32>, HuffmanError> {
    if bytes.len() < 12 {
        return Err(HuffmanError::Truncated);
    }
    let count = u64::from_le_bytes(bytes[0..8].try_into().expect("sized")) as usize;
    let table_len = u32::from_le_bytes(bytes[8..12].try_into().expect("sized")) as usize;
    if count == 0 {
        return Ok(Vec::new());
    }
    let table_bytes = table_len.checked_mul(5).ok_or(HuffmanError::CorruptTable)?;
    let payload_off = 12 + table_bytes;
    if bytes.len() < payload_off {
        return Err(HuffmanError::Truncated);
    }
    let mut entries: Vec<(u32, u8)> = bytes[12..payload_off]
        .chunks_exact(5)
        .map(|e| (u32::from_le_bytes(e[..4].try_into().expect("sized")), e[4]))
        .collect();
    entries.sort_unstable_by_key(|&(s, _)| s);
    if entries.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err(HuffmanError::CorruptTable);
    }
    let code = CanonicalCode::from_pairs(entries.into_iter().map(|(s, l)| (l, s)).collect())?;
    let payload = &bytes[payload_off..];
    // Every symbol consumes at least one payload bit, so a `count` claiming
    // more symbols than the payload could possibly encode is a forgery —
    // reject it *before* sizing the output allocation from it.
    if count > payload.len().saturating_mul(8) {
        return Err(HuffmanError::Truncated);
    }
    let k = u32::from(code.table_bits());
    let table = code.decode_table();
    let mut out = vec![0u32; count];
    let mut done = 0;
    // Bit offset of the next codeword. Past the payload the window reads
    // zeros; a codeword that ends beyond `payload.len() * 8` bits leaves
    // `pos` there, and the stream is then truncated.
    let mut pos = 0usize;
    while done < count {
        // Table lookups while the window still holds `k` unread bits.
        let mut window = window_at(payload, pos);
        let mut used = 0;
        for slot in &mut out[done..count.min(done + 64)] {
            if used + k > 64 {
                break;
            }
            done += 1;
            let entry = table[(window >> (64 - k)) as usize];
            if entry == 0 {
                // No code of at most `k` bits matches: a longer one, or none.
                let (sym, len) = code
                    .decode_window(window_at(payload, pos + used as usize), k as u8 + 1)
                    .ok_or(HuffmanError::Truncated)?;
                *slot = sym;
                used += u32::from(len);
                break;
            }
            let len = (entry & 0xFF) as u32;
            *slot = (entry >> 8) as u32;
            window <<= len;
            used += len;
        }
        pos += used as usize;
    }
    if pos > payload.len() * 8 {
        return Err(HuffmanError::Truncated);
    }
    Ok(out)
}

/// The 64 bits of `payload` starting at bit `pos`, MSB first, with zeros
/// past its end.
#[inline]
fn window_at(payload: &[u8], pos: usize) -> u64 {
    let (byte, shift) = (pos / 8, pos % 8);
    let mut buf = [0u8; 9];
    let bytes = match payload.get(byte..byte + 9) {
        Some(b) => b,
        None => {
            let tail = payload.get(byte..).unwrap_or_default();
            buf[..tail.len()].copy_from_slice(tail);
            &buf
        }
    };
    let hi = u64::from_be_bytes(bytes[..8].try_into().expect("sized"));
    hi << shift | u64::from(bytes[8]) << shift >> 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_skewed_stream() {
        let mut data = vec![0u32; 5000];
        data.extend((0..200).map(|i| i % 31 + 1));
        let enc = encode(&data).unwrap();
        assert_eq!(decode(&enc).unwrap(), data);
        // Heavily skewed: way under 4 bytes/symbol.
        assert!(enc.bytes.len() < data.len());
    }

    #[test]
    fn roundtrip_single_symbol() {
        let data = vec![42u32; 100];
        let enc = encode(&data).unwrap();
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn roundtrip_empty() {
        let enc = encode(&[]).unwrap();
        assert_eq!(decode(&enc).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn roundtrip_all_distinct() {
        let data: Vec<u32> = (0..1024).collect();
        let enc = encode(&data).unwrap();
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn truncated_payload_is_error() {
        let data: Vec<u32> = (0..100).map(|i| i % 7).collect();
        let enc = encode(&data).unwrap();
        let cut = &enc.bytes[..enc.bytes.len() - 2];
        assert_eq!(decode_bytes(cut), Err(HuffmanError::Truncated));
    }

    #[test]
    fn truncated_header_is_error() {
        assert_eq!(decode_bytes(&[1, 2, 3]), Err(HuffmanError::Truncated));
    }

    #[test]
    fn duplicate_table_entry_is_error() {
        let data = vec![1u32, 2, 2];
        let mut enc = encode(&data).unwrap();
        // Overwrite the second table symbol with the first (duplicate).
        let first = enc.bytes[12..16].to_vec();
        enc.bytes[17..21].copy_from_slice(&first);
        assert!(matches!(
            decode(&enc),
            Err(HuffmanError::CorruptTable) | Err(HuffmanError::Truncated)
        ));
    }

    #[test]
    fn payload_writer_splits_long_codes() {
        // Codes of every length 1..=64, in an order that leaves every
        // pending count in front of a long one; checked against one bit
        // at a time, and read back through `window_at`.
        let codes: Vec<(u64, u8)> = (1..=64u8)
            .map(|l| (0xA5C3_96F0_0F69_3C5Au64 >> (64 - l), l))
            .collect();
        let symbols: Vec<u32> = (0..640u32).map(|i| (i * 37) % 64).collect();
        let mut expected = Vec::new();
        let mut bits = 0usize;
        for &s in &symbols {
            let (cw, len) = codes[s as usize];
            for i in (0..len).rev() {
                if bits.is_multiple_of(8) {
                    expected.push(0u8);
                }
                *expected.last_mut().unwrap() |= (((cw >> i) & 1) as u8) << (7 - bits % 8);
                bits += 1;
            }
        }
        let mut out = vec![0xEE; 3];
        write_payload(&mut out, bits, &symbols, |s| codes[s as usize]);
        assert_eq!(out[..3], [0xEE; 3]);
        assert_eq!(out[3..], expected);
        let mut pos = 0;
        for &s in &symbols {
            let (cw, len) = codes[s as usize];
            assert_eq!(window_at(&expected, pos) >> (64 - len), cw);
            pos += usize::from(len);
        }
        assert_eq!(window_at(&expected, bits), 0, "zero padding");
        assert_eq!(window_at(&expected, bits + 1000), 0, "zeros past the end");
    }

    #[test]
    fn forged_count_is_rejected_before_allocating() {
        let data: Vec<u32> = (0..100).map(|i| i % 7).collect();
        let mut enc = encode(&data).unwrap();
        // Claim u64::MAX symbols: must be a typed error, not a huge
        // allocation sized by the forged field.
        enc.bytes[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_bytes(&enc.bytes), Err(HuffmanError::Truncated));
    }

    #[test]
    fn compression_approaches_entropy() {
        // Geometric-ish distribution: entropy ≈ 2 bits/symbol.
        let mut data = Vec::new();
        for (sym, count) in [(0u32, 8000), (1, 4000), (2, 2000), (3, 1000), (4, 1000)] {
            data.extend(std::iter::repeat_n(sym, count));
        }
        let enc = encode(&data).unwrap();
        let bits_per_symbol = enc.payload_bits as f64 / data.len() as f64;
        assert!(bits_per_symbol < 2.2, "bits/symbol = {bits_per_symbol}");
        assert_eq!(decode(&enc).unwrap(), data);
    }
}
