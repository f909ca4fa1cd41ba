//! Canonical Huffman codes: a deterministic assignment of codewords given
//! only the per-symbol code lengths, so the table serializes as
//! `(symbol, length)` pairs.
//!
//! Codewords are numbered in canonical order — by `(length, symbol)` — and
//! each length's codes form one contiguous range starting at
//! `first_code[l]`. Decoding a codeword of length `l` is therefore a range
//! check and an index into the sorted symbols. The decoder precomputes that
//! for every `k`-bit prefix in a lookup table and walks the lengths only for
//! codes longer than `k`.

use std::collections::HashMap;

use crate::HuffmanError;

/// Longest prefix the decode lookup table resolves directly. `2^11` entries
/// of 8 bytes stay within L1; longer codes fall back to the per-length walk.
pub(crate) const MAX_TABLE_BITS: u8 = 11;

/// A canonical code: the sorted symbols plus the per-length ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalCode {
    /// Longest code length.
    max_len: u8,
    /// `first_code[l]`: the canonical value of the first code of length `l`.
    first_code: Vec<u64>,
    /// `first_index[l]`: index into `sorted` of that first code.
    first_index: Vec<usize>,
    /// `(length, symbol)` in canonical order.
    sorted: Vec<(u8, u32)>,
    /// Count of codes per length.
    count_per_len: Vec<usize>,
}

impl CanonicalCode {
    /// Build the canonical code from per-symbol lengths.
    pub fn from_lengths(lengths: &HashMap<u32, u8>) -> Result<Self, HuffmanError> {
        Self::from_pairs(lengths.iter().map(|(&s, &l)| (l, s)).collect())
    }

    /// Build the canonical code from `(length, symbol)` pairs with distinct
    /// symbols, in any order.
    pub(crate) fn from_pairs(mut sorted: Vec<(u8, u32)>) -> Result<Self, HuffmanError> {
        let max_len = sorted
            .iter()
            .map(|&(l, _)| l)
            .max()
            .ok_or(HuffmanError::EmptyInput)?;
        if max_len == 0 || max_len > 64 {
            return Err(HuffmanError::CorruptTable);
        }
        sorted.sort_unstable();
        // Kraft check: Σ 2^(max-len) must not exceed 2^max (prefix-free).
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
            // Kraft keeps `code + count ≤ 2^l`; only a complete 64-bit
            // level reaches 2^64, and that next value is never used.
            code = code.wrapping_add(count_per_len[l] as u64) << 1;
            index += count_per_len[l];
        }
        Ok(Self {
            max_len,
            first_code,
            first_index,
            sorted,
            count_per_len,
        })
    }

    /// `(symbol, codeword, length)` in canonical order; the codeword is
    /// MSB-first in the low `length` bits.
    pub fn codewords(&self) -> impl Iterator<Item = (u32, u64, u8)> + '_ {
        let mut next = self.first_code.clone();
        self.sorted.iter().map(move |&(l, s)| {
            let slot = &mut next[usize::from(l)];
            let cw = *slot;
            *slot = slot.wrapping_add(1);
            (s, cw, l)
        })
    }

    /// Number of symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the code has no symbols (never, post-construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Longest code length.
    #[must_use]
    pub fn max_len(&self) -> u8 {
        self.max_len
    }

    /// The `(symbol, length)` table in canonical order, for serialization.
    #[must_use]
    pub fn table(&self) -> Vec<(u32, u8)> {
        self.sorted.iter().map(|&(l, s)| (s, l)).collect()
    }

    /// Bits the decode lookup table resolves: `min(max_len, MAX_TABLE_BITS)`.
    pub(crate) fn table_bits(&self) -> u8 {
        self.max_len.min(MAX_TABLE_BITS)
    }

    /// The `2^k`-entry decode table for `k = table_bits()`: entry `p` is
    /// `symbol << 8 | length` for the code of length `≤ k` that prefixes the
    /// `k`-bit value `p`, or 0 when no such code exists (a longer code, or
    /// none at all in an incomplete code).
    pub(crate) fn decode_table(&self) -> Vec<u64> {
        let k = self.table_bits();
        let mut table = vec![0u64; 1 << k];
        for (s, cw, l) in self.codewords().take_while(|&(_, _, l)| l <= k) {
            let shift = k - l;
            let start = (cw as usize) << shift;
            table[start..start + (1 << shift)].fill(u64::from(s) << 8 | u64::from(l));
        }
        table
    }

    /// Decode the codeword at the top of `window` (bit 63 first) by the
    /// canonical per-length walk over lengths `min_len..=max_len`:
    /// `Some((symbol, length))`, or `None` if no such code prefixes it.
    pub(crate) fn decode_window(&self, window: u64, min_len: u8) -> Option<(u32, u8)> {
        for l in min_len..=self.max_len {
            let li = usize::from(l);
            let code = window >> (64 - u32::from(l));
            // Below `first_code` the offset wraps past every count.
            let offset = code.wrapping_sub(self.first_code[li]);
            if offset < self.count_per_len[li] as u64 {
                return Some((self.sorted[self.first_index[li] + offset as usize].1, l));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram;
    use crate::tree::build_code_lengths;

    fn code_for(data: &[u32]) -> CanonicalCode {
        CanonicalCode::from_lengths(&build_code_lengths(&histogram(data)).unwrap()).unwrap()
    }

    #[test]
    fn codes_are_prefix_free() {
        let data: Vec<u32> = (0..500).map(|i| (i * 7) % 23).collect();
        let code = code_for(&data);
        let entries: Vec<(u64, u8)> = code.codewords().map(|(_, cw, l)| (cw, l)).collect();
        for (i, &(ca, la)) in entries.iter().enumerate() {
            for &(cb, lb) in &entries[i + 1..] {
                let l = la.min(lb);
                assert_ne!(ca >> (la - l), cb >> (lb - l), "prefix collision");
            }
        }
    }

    #[test]
    fn decode_inverts_encode_per_symbol() {
        let data: Vec<u32> = (0..100).map(|i| i % 11).collect();
        let code = code_for(&data);
        let table = code.decode_table();
        let k = code.table_bits();
        for (s, cw, len) in code.codewords() {
            // Any bits may follow the codeword.
            for tail in [0u64, u64::MAX] {
                let window = cw << (64 - len) | tail >> len;
                assert_eq!(code.decode_window(window, 1), Some((s, len)));
                let entry = table[(window >> (64 - k)) as usize];
                assert_eq!((entry >> 8, entry as u8), (u64::from(s), len));
            }
        }
    }

    #[test]
    fn sixty_four_bit_complete_code_decodes() {
        // Lengths 1, 2, …, 63, 64, 64: Kraft sum exactly 1, so the last
        // level's range ends at 2^64.
        let mut lengths: HashMap<u32, u8> = (1..=64u8).map(|l| (u32::from(l), l)).collect();
        lengths.insert(0, 64);
        let code = CanonicalCode::from_lengths(&lengths).unwrap();
        assert_eq!(code.decode_window(u64::MAX, 1), Some((64, 64)));
        assert_eq!(code.decode_window(u64::MAX - 1, 12), Some((0, 64)));
        assert_eq!(code.decode_window(0, 1), Some((1, 1)));
        let table = code.decode_table();
        assert_eq!(table.len(), 1 << MAX_TABLE_BITS);
        assert_eq!(
            table[table.len() - 1],
            0,
            "the 64-bit codes are not in the table"
        );
    }

    #[test]
    fn incomplete_code_leaves_gaps() {
        // One code of length 2: "00"; every other prefix is invalid.
        let code = CanonicalCode::from_lengths(&HashMap::from([(9u32, 2u8)])).unwrap();
        assert_eq!(code.decode_table(), vec![9 << 8 | 2, 0, 0, 0]);
        assert_eq!(code.decode_window(1 << 62, 1), None);
    }

    #[test]
    fn table_rebuild_is_identical() {
        let data: Vec<u32> = (0..1000).map(|i| (i * i) % 97).collect();
        let code = code_for(&data);
        let lengths: HashMap<u32, u8> = code.table().into_iter().collect();
        let rebuilt = CanonicalCode::from_lengths(&lengths).unwrap();
        assert_eq!(code, rebuilt);
    }

    #[test]
    fn over_subscribed_lengths_rejected() {
        // Three length-1 codes violate Kraft.
        let lengths = HashMap::from([(1u32, 1u8), (2, 1), (3, 1)]);
        assert_eq!(
            CanonicalCode::from_lengths(&lengths),
            Err(HuffmanError::CorruptTable)
        );
    }

    #[test]
    fn zero_length_rejected() {
        let lengths = HashMap::from([(1u32, 0u8)]);
        assert!(CanonicalCode::from_lengths(&lengths).is_err());
    }

    #[test]
    fn empty_lengths_rejected() {
        assert_eq!(
            CanonicalCode::from_lengths(&HashMap::new()),
            Err(HuffmanError::EmptyInput)
        );
    }
}
