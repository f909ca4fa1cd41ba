//! Differential test of the table-driven codec against the bit-at-a-time
//! coder it replaced, which is kept below as the reference.
//!
//! Every encoded stream must match the reference byte for byte, and every
//! decode — of valid streams, of streams with flipped bits or cut short,
//! and of forged tables with codes up to 64 bits long — must return the same
//! `Result`, error kind included.

use std::collections::HashMap;

use huffman::codec::{decode_bytes, encode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The coder before the lookup tables: a `HashMap` per symbol, one bit per
/// write and read, and the canonical walk one bit at a time.
mod reference {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    use huffman::HuffmanError;

    pub fn histogram(symbols: &[u32]) -> HashMap<u32, u64> {
        let mut h = HashMap::new();
        for &s in symbols {
            *h.entry(s).or_insert(0) += 1;
        }
        h
    }

    pub fn build_code_lengths(freqs: &HashMap<u32, u64>) -> Result<HashMap<u32, u8>, HuffmanError> {
        if freqs.is_empty() {
            return Err(HuffmanError::EmptyInput);
        }
        if freqs.len() == 1 {
            let &sym = freqs.keys().next().expect("len 1");
            return Ok(HashMap::from([(sym, 1u8)]));
        }
        struct Node {
            left: Option<usize>,
            right: Option<usize>,
            symbol: Option<u32>,
        }
        let mut arena: Vec<Node> = Vec::with_capacity(freqs.len() * 2);
        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut symbols: Vec<(u32, u64)> = freqs.iter().map(|(&s, &f)| (s, f)).collect();
        symbols.sort_unstable();
        for (s, f) in symbols {
            let idx = arena.len();
            arena.push(Node {
                left: None,
                right: None,
                symbol: Some(s),
            });
            heap.push(Reverse((f, u64::from(s), idx)));
        }
        let mut internal_seq = u64::from(u32::MAX) + 1;
        while heap.len() > 1 {
            let Reverse((f1, _, n1)) = heap.pop().expect("len > 1");
            let Reverse((f2, _, n2)) = heap.pop().expect("len > 1");
            let idx = arena.len();
            arena.push(Node {
                left: Some(n1),
                right: Some(n2),
                symbol: None,
            });
            heap.push(Reverse((f1 + f2, internal_seq, idx)));
            internal_seq += 1;
        }
        let root = heap.pop().expect("one node left").0 .2;
        let mut lengths = HashMap::with_capacity(freqs.len());
        let mut stack = vec![(root, 0u8)];
        while let Some((idx, depth)) = stack.pop() {
            let node = &arena[idx];
            if let Some(sym) = node.symbol {
                lengths.insert(sym, depth.max(1));
            } else {
                let d = depth.checked_add(1).ok_or(HuffmanError::CorruptTable)?;
                if let Some(l) = node.left {
                    stack.push((l, d));
                }
                if let Some(r) = node.right {
                    stack.push((r, d));
                }
            }
        }
        Ok(lengths)
    }

    pub struct CanonicalCode {
        codes: HashMap<u32, (u64, u8)>,
        max_len: u8,
        first_code: Vec<u64>,
        first_index: Vec<usize>,
        sorted_symbols: Vec<u32>,
        count_per_len: Vec<usize>,
    }

    impl CanonicalCode {
        pub fn from_lengths(lengths: &HashMap<u32, u8>) -> Result<Self, HuffmanError> {
            if lengths.is_empty() {
                return Err(HuffmanError::EmptyInput);
            }
            let max_len = *lengths.values().max().expect("non-empty");
            if max_len == 0 || max_len > 64 {
                return Err(HuffmanError::CorruptTable);
            }
            let mut sorted: Vec<(u8, u32)> = lengths.iter().map(|(&s, &l)| (l, s)).collect();
            sorted.sort_unstable();
            let mut kraft: u128 = 0;
            for &(l, _) in &sorted {
                if l == 0 {
                    return Err(HuffmanError::CorruptTable);
                }
                kraft += 1u128 << (max_len - l);
            }
            if kraft > 1u128 << max_len {
                return Err(HuffmanError::CorruptTable);
            }
            let ml = usize::from(max_len);
            let mut count_per_len = vec![0usize; ml + 1];
            for &(l, _) in &sorted {
                count_per_len[usize::from(l)] += 1;
            }
            let mut first_code = vec![0u64; ml + 2];
            let mut first_index = vec![0usize; ml + 2];
            let mut code = 0u64;
            let mut index = 0usize;
            for l in 1..=ml {
                first_code[l] = code;
                first_index[l] = index;
                code = (code + count_per_len[l] as u64) << 1;
                index += count_per_len[l];
            }
            let mut codes = HashMap::with_capacity(sorted.len());
            let mut next = vec![0u64; ml + 1];
            next[1..=ml].copy_from_slice(&first_code[1..=ml]);
            let sorted_symbols: Vec<u32> = sorted.iter().map(|&(_, s)| s).collect();
            for &(l, s) in &sorted {
                codes.insert(s, (next[usize::from(l)], l));
                next[usize::from(l)] += 1;
            }
            Ok(Self {
                codes,
                max_len,
                first_code,
                first_index,
                sorted_symbols,
                count_per_len,
            })
        }

        pub fn code(&self, symbol: u32) -> Option<(u64, u8)> {
            self.codes.get(&symbol).copied()
        }

        pub fn table(&self) -> Vec<(u32, u8)> {
            self.sorted_symbols
                .iter()
                .map(|&s| (s, self.codes[&s].1))
                .collect()
        }

        pub fn decode_symbol<F: FnMut() -> Option<u8>>(&self, mut next_bit: F) -> Option<u32> {
            let mut code = 0u64;
            for l in 1..=usize::from(self.max_len) {
                code = (code << 1) | u64::from(next_bit()?);
                let count = self.count_per_len[l];
                if count > 0 {
                    let first = self.first_code[l];
                    if code < first + count as u64 && code >= first {
                        let idx = self.first_index[l] + (code - first) as usize;
                        return Some(self.sorted_symbols[idx]);
                    }
                }
            }
            None
        }
    }

    #[derive(Default)]
    pub struct BitWriter {
        bytes: Vec<u8>,
        bit_pos: u8,
    }

    impl BitWriter {
        pub fn write_bits(&mut self, value: u64, n: u8) {
            for i in (0..n).rev() {
                let bit = ((value >> i) & 1) as u8;
                if self.bit_pos == 0 {
                    self.bytes.push(0);
                }
                let last = self.bytes.last_mut().expect("pushed above");
                *last |= bit << (7 - self.bit_pos);
                self.bit_pos = (self.bit_pos + 1) % 8;
            }
        }

        pub fn bit_len(&self) -> usize {
            if self.bit_pos == 0 {
                self.bytes.len() * 8
            } else {
                (self.bytes.len() - 1) * 8 + usize::from(self.bit_pos)
            }
        }

        pub fn finish(self) -> Vec<u8> {
            self.bytes
        }
    }

    struct BitReader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl BitReader<'_> {
        fn read_bit(&mut self) -> Option<u8> {
            let byte = self.bytes.get(self.pos / 8)?;
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            self.pos += 1;
            Some(bit)
        }
    }

    /// `(bytes, payload_bits)`.
    pub fn encode(symbols: &[u32]) -> Result<(Vec<u8>, usize), HuffmanError> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(symbols.len() as u64).to_le_bytes());
        if symbols.is_empty() {
            bytes.extend_from_slice(&0u32.to_le_bytes());
            return Ok((bytes, 0));
        }
        let lengths = build_code_lengths(&histogram(symbols))?;
        let code = CanonicalCode::from_lengths(&lengths)?;
        let table = code.table();
        bytes.extend_from_slice(&(table.len() as u32).to_le_bytes());
        for &(sym, len) in &table {
            bytes.extend_from_slice(&sym.to_le_bytes());
            bytes.push(len);
        }
        let mut writer = BitWriter::default();
        for &s in symbols {
            let (cw, len) = code.code(s).expect("symbol came from the histogram");
            writer.write_bits(cw, len);
        }
        let payload_bits = writer.bit_len();
        bytes.extend_from_slice(&writer.finish());
        Ok((bytes, payload_bits))
    }

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
        let mut lengths = HashMap::with_capacity(table_len);
        for i in 0..table_len {
            let off = 12 + i * 5;
            let sym = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("sized"));
            let len = bytes[off + 4];
            if lengths.insert(sym, len).is_some() {
                return Err(HuffmanError::CorruptTable);
            }
        }
        let code = CanonicalCode::from_lengths(&lengths)?;
        let payload = &bytes[payload_off..];
        if count > payload.len().saturating_mul(8) {
            return Err(HuffmanError::Truncated);
        }
        let mut reader = BitReader {
            bytes: payload,
            pos: 0,
        };
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let sym = code
                .decode_symbol(|| reader.read_bit())
                .ok_or(HuffmanError::Truncated)?;
            out.push(sym);
        }
        Ok(out)
    }
}

/// The alphabets of the random cases.
#[derive(Debug, Clone, Copy)]
enum Alphabet {
    /// Bytes with a random skew, as the recipe's `huffman` stage sees them.
    Byte,
    /// A geometric distribution around a random offset below 2^16 (cuSZ bins).
    Geometric,
    /// Three symbols scattered over the whole `u32` range.
    Sparse3,
    /// Uniform 24-bit symbols: a wide alphabet of mostly singletons.
    Wide24,
    /// Fibonacci frequencies: code lengths well past the 11-bit table.
    LongCode,
}

fn random_symbols(rng: &mut SmallRng, alphabet: Alphabet) -> Vec<u32> {
    let n = rng.gen_range(0..2000usize);
    match alphabet {
        Alphabet::Byte => {
            let span = rng.gen_range(1..=256u32);
            let skew = rng.gen_range(0..8u32);
            (0..n)
                .map(|_| {
                    let mut s = rng.gen_range(0..span);
                    for _ in 0..skew {
                        s = s.min(rng.gen_range(0..span));
                    }
                    s
                })
                .collect()
        }
        Alphabet::Geometric => {
            let base = rng.gen_range(0..1u32 << 16);
            let p = rng.gen_range(0.05..0.9f64);
            (0..n)
                .map(|_| {
                    let mut k = 0u32;
                    while k < 200 && rng.gen::<f64>() > p {
                        k += 1;
                    }
                    base + k
                })
                .collect()
        }
        Alphabet::Sparse3 => {
            let syms = [rng.gen::<u32>(), rng.gen::<u32>(), u32::MAX];
            (0..n).map(|_| syms[rng.gen_range(0..3usize)]).collect()
        }
        Alphabet::Wide24 => (0..n).map(|_| rng.gen_range(0..1u32 << 24)).collect(),
        Alphabet::LongCode => {
            let depth = rng.gen_range(2..=20usize);
            let offset = rng.gen_range(0..1u32 << 20);
            let (mut a, mut b) = (1usize, 1usize);
            let mut v = Vec::new();
            for j in 0..depth as u32 {
                v.extend(std::iter::repeat_n(offset + j, a));
                (a, b) = (b, a + b);
            }
            for i in (1..v.len()).rev() {
                v.swap(i, rng.gen_range(0..=i));
            }
            v
        }
    }
}

/// Decode `bytes` with both coders and compare the full `Result`.
fn assert_same_decode(bytes: &[u8], what: &str) {
    assert_eq!(
        decode_bytes(bytes),
        reference::decode_bytes(bytes),
        "{what}: decode diverged on {} bytes",
        bytes.len()
    );
}

/// Random corruptions of a valid stream: bit flips anywhere (header, table
/// or payload) and truncations.
fn assert_same_on_corruptions(rng: &mut SmallRng, bytes: &[u8]) {
    for _ in 0..4 {
        let mut flipped = bytes.to_vec();
        for _ in 0..rng.gen_range(1..=3usize) {
            let bit = rng.gen_range(0..flipped.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        assert_same_decode(&flipped, "bit flip");
        let cut = rng.gen_range(0..bytes.len());
        assert_same_decode(&bytes[..cut], "truncation");
    }
    // Flips confined to the payload keep the table valid and reach the
    // decode loop itself.
    let table_len = u32::from_le_bytes(bytes[8..12].try_into().expect("sized")) as usize;
    let payload_off = 12 + 5 * table_len;
    if bytes.len() > payload_off {
        let mut flipped = bytes.to_vec();
        let bit = rng.gen_range(payload_off * 8..bytes.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert_same_decode(&flipped, "payload bit flip");
        for drop in 1..=2usize.min(bytes.len() - payload_off) {
            assert_same_decode(&bytes[..bytes.len() - drop], "payload truncation");
        }
    }
}

#[test]
fn encode_and_decode_match_the_reference_on_random_alphabets() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_4AFF);
    let alphabets = [
        Alphabet::Byte,
        Alphabet::Geometric,
        Alphabet::Sparse3,
        Alphabet::Wide24,
        Alphabet::LongCode,
    ];
    for case in 0..3000 {
        let alphabet = alphabets[case % alphabets.len()];
        let symbols = random_symbols(&mut rng, alphabet);
        let enc = encode(&symbols).unwrap();
        let (ref_bytes, ref_bits) = reference::encode(&symbols).unwrap();
        assert_eq!(enc.bytes, ref_bytes, "case {case} ({alphabet:?}): bytes");
        assert_eq!(
            enc.payload_bits, ref_bits,
            "case {case} ({alphabet:?}): bits"
        );
        assert_eq!(enc.count, symbols.len());
        assert_eq!(decode_bytes(&enc.bytes).unwrap(), symbols, "case {case}");
        if !symbols.is_empty() {
            assert_same_on_corruptions(&mut rng, &enc.bytes);
        }
    }
}

/// Random code lengths of at most 64 bits, from splitting leaves of a
/// complete code (mostly the deepest, so that codes get long), then
/// dropping some leaves so that many codes are incomplete (Kraft < 1).
fn random_lengths(rng: &mut SmallRng) -> Vec<u8> {
    let mut leaves = vec![0u8];
    for _ in 0..rng.gen_range(1..48usize) {
        let i = if rng.gen_bool(0.7) {
            (0..leaves.len())
                .max_by_key(|&i| leaves[i])
                .expect("non-empty")
        } else {
            rng.gen_range(0..leaves.len())
        };
        if leaves[i] == 64 {
            continue;
        }
        leaves[i] += 1;
        leaves.push(leaves[i]);
    }
    if rng.gen_bool(0.5) || leaves.contains(&64) {
        // A complete code reaching 64 bits overflows the reference's
        // canonical numbering, so those are always made incomplete.
        while leaves.len() > 1 && (rng.gen_bool(0.5) || leaves.contains(&64)) {
            let i = rng.gen_range(0..leaves.len());
            leaves.swap_remove(i);
        }
    }
    leaves
}

/// A stream with a hand-made table: `(symbol, length)` entries, a symbol
/// count and a payload.
fn forged_stream(count: u64, table: &[(u32, u8)], payload: &[u8]) -> Vec<u8> {
    let mut bytes = count.to_le_bytes().to_vec();
    bytes.extend_from_slice(&(table.len() as u32).to_le_bytes());
    for &(s, l) in table {
        bytes.extend_from_slice(&s.to_le_bytes());
        bytes.push(l);
    }
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn forged_tables_with_long_codes_decode_like_the_reference() {
    let mut rng = SmallRng::seed_from_u64(0xF0_46ED);
    let mut long_ok = 0;
    for case in 0..1500 {
        let lengths = random_lengths(&mut rng);
        let mut table: Vec<(u32, u8)> = lengths.iter().map(|&l| (rng.gen::<u32>(), l)).collect();
        match rng.gen_range(0..20u32) {
            // A repeated symbol, a zero length, a length past 64.
            0 if table.len() > 1 => table[1].0 = table[0].0,
            1 => table[0].1 = 0,
            2 => table[0].1 = rng.gen_range(65..=255u8),
            _ => {}
        }
        let lengths: HashMap<u32, u8> = table.iter().copied().collect();
        let distinct = lengths.len() == table.len();
        if let (true, Ok(code)) = (distinct, reference::CanonicalCode::from_lengths(&lengths)) {
            // A valid payload: random symbols of the table, then maybe a
            // random tail.
            let n = rng.gen_range(1..64usize);
            let symbols: Vec<u32> = (0..n)
                .map(|_| table[rng.gen_range(0..table.len())].0)
                .collect();
            let mut w = reference::BitWriter::default();
            for &s in &symbols {
                let (cw, l) = code.code(s).expect("in table");
                w.write_bits(cw, l);
            }
            let mut payload = w.finish();
            let bytes = forged_stream(n as u64, &table, &payload);
            assert_eq!(decode_bytes(&bytes), Ok(symbols.clone()), "case {case}");
            assert_same_decode(&bytes, "forged valid");
            if symbols
                .iter()
                .any(|s| code.code(*s).expect("in table").1 > 11)
            {
                long_ok += 1;
            }
            assert_same_on_corruptions(&mut rng, &bytes);
            for _ in 0..rng.gen_range(0..4usize) {
                payload.push(rng.gen());
            }
            let count = rng.gen_range(1..=payload.len() as u64 * 8 + 2);
            assert_same_decode(&forged_stream(count, &table, &payload), "forged count");
        }
        // Random payload bytes under the same table.
        let payload: Vec<u8> = (0..rng.gen_range(0..24usize)).map(|_| rng.gen()).collect();
        let count = rng.gen_range(1..=payload.len() as u64 * 8 + 2);
        assert_same_decode(&forged_stream(count, &table, &payload), "forged random");
    }
    assert!(
        long_ok > 500,
        "only {long_ok} valid streams with codes past 11 bits"
    );
}

#[test]
fn complete_sixty_four_bit_code_decodes() {
    // Lengths 1, 2, …, 64, 64 saturate Kraft at the 64-bit level, where the
    // reference's canonical numbering overflows: its `code + count` reaches
    // 2^64. The two 64-bit codewords are 1…10 and 1…11.
    let mut table: Vec<(u32, u8)> = (1..=64u8).map(|l| (u32::from(l), l)).collect();
    table.push((1000, 64));
    let code =
        huffman::canonical::CanonicalCode::from_lengths(&table.iter().copied().collect()).unwrap();
    let longest: Vec<(u32, u64, u8)> = code.codewords().filter(|&(_, _, l)| l == 64).collect();
    assert_eq!(longest, vec![(64, u64::MAX - 1, 64), (1000, u64::MAX, 64)]);
    let symbols = [1000, 1, 64, 63, 1000];
    let mut w = reference::BitWriter::default();
    for s in symbols {
        let (_, cw, l) = code.codewords().find(|&(t, _, _)| t == s).unwrap();
        w.write_bits(cw, l);
    }
    let bytes = forged_stream(symbols.len() as u64, &table, &w.finish());
    assert_eq!(decode_bytes(&bytes), Ok(symbols.to_vec()));
    // One byte short: the last codeword runs past the payload.
    assert_eq!(
        decode_bytes(&bytes[..bytes.len() - 1]),
        Err(huffman::HuffmanError::Truncated)
    );
}
