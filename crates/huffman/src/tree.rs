//! Huffman tree construction: optimal code lengths from symbol frequencies.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;

use crate::HuffmanError;

/// Compute optimal Huffman code lengths for each symbol.
///
/// Uses the classic two-queue heap construction. A degenerate single-symbol
/// alphabet gets length 1. Ties are broken deterministically by smallest
/// symbol so encoder and decoder agree across runs and platforms.
pub fn build_code_lengths(freqs: &HashMap<u32, u64>) -> Result<HashMap<u32, u8>, HuffmanError> {
    let mut sorted: Vec<(u32, u64)> = freqs.iter().map(|(&s, &f)| (s, f)).collect();
    sorted.sort_unstable();
    let lengths = code_lengths(&sorted)?;
    Ok(sorted.iter().map(|&(s, _)| s).zip(lengths).collect())
}

/// [`build_code_lengths`] over `(symbol, frequency)` pairs sorted by symbol
/// with no repeats: `lengths[i]` is the code length of `sorted[i].0`.
pub(crate) fn code_lengths(sorted: &[(u32, u64)]) -> Result<Vec<u8>, HuffmanError> {
    debug_assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0));
    match sorted.len() {
        0 => return Err(HuffmanError::EmptyInput),
        1 => return Ok(vec![1]),
        _ => {}
    }

    // Node arena: the leaves `0..n` in symbol order, then internal nodes.
    let n = sorted.len();
    let mut children: Vec<(usize, usize)> = Vec::with_capacity(n - 1);
    // Heap of (freq, tiebreak, node index). The tiebreak makes construction
    // deterministic: smaller symbol / earlier internal node wins.
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = sorted
        .iter()
        .enumerate()
        .map(|(idx, &(s, f))| Reverse((f, u64::from(s), idx)))
        .collect();
    let mut internal_seq = u64::from(u32::MAX) + 1;
    while heap.len() > 1 {
        let Reverse((f1, _, n1)) = heap.pop().expect("len > 1");
        let Reverse((f2, _, n2)) = heap.pop().expect("len > 1");
        heap.push(Reverse((f1 + f2, internal_seq, n + children.len())));
        children.push((n1, n2));
        internal_seq += 1;
    }
    let root = heap.pop().expect("one node left").0 .2;

    // Depth-first traversal to record leaf depths (iterative: trees can be
    // deep for skewed frequencies).
    let mut lengths = vec![0u8; n];
    let mut stack = vec![(root, 0u8)];
    while let Some((idx, depth)) = stack.pop() {
        if idx < n {
            lengths[idx] = depth.max(1);
        } else {
            let d = depth.checked_add(1).ok_or(HuffmanError::CorruptTable)?;
            let (l, r) = children[idx - n];
            stack.push((l, d));
            stack.push((r, d));
        }
    }
    Ok(lengths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram;

    #[test]
    fn empty_is_error() {
        assert_eq!(
            build_code_lengths(&HashMap::new()),
            Err(HuffmanError::EmptyInput)
        );
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let lengths = build_code_lengths(&histogram(&[5, 5, 5])).unwrap();
        assert_eq!(lengths[&5], 1);
        assert_eq!(lengths.len(), 1);
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let mut data = vec![0u32; 1000];
        data.extend(vec![1u32; 100]);
        data.extend(vec![2u32; 10]);
        data.extend(vec![3u32; 1]);
        let lengths = build_code_lengths(&histogram(&data)).unwrap();
        assert!(lengths[&0] <= lengths[&1]);
        assert!(lengths[&1] <= lengths[&2]);
        assert!(lengths[&2] <= lengths[&3]);
    }

    #[test]
    fn kraft_inequality_holds_with_equality() {
        // An optimal prefix code saturates Kraft: Σ 2^-len == 1.
        let data: Vec<u32> = (0..100).map(|i| i % 13).collect();
        let lengths = build_code_lengths(&histogram(&data)).unwrap();
        let kraft: f64 = lengths.values().map(|&l| 2f64.powi(-i32::from(l))).sum();
        assert!((kraft - 1.0).abs() < 1e-12, "kraft = {kraft}");
    }

    #[test]
    fn uniform_frequencies_give_balanced_code() {
        let data: Vec<u32> = (0..8).collect();
        let lengths = build_code_lengths(&histogram(&data)).unwrap();
        assert!(lengths.values().all(|&l| l == 3));
    }

    #[test]
    fn deterministic_across_runs() {
        let data: Vec<u32> = (0..1000).map(|i| (i * i) % 37).collect();
        let a = build_code_lengths(&histogram(&data)).unwrap();
        let b = build_code_lengths(&histogram(&data)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn expected_length_beats_fixed_width_for_skewed_data() {
        let mut data = vec![7u32; 10_000];
        data.extend(0..16u32);
        let h = histogram(&data);
        let lengths = build_code_lengths(&h).unwrap();
        let total_bits: u64 = h.iter().map(|(s, f)| f * u64::from(lengths[s])).sum();
        // 17 symbols need 5 fixed bits; the skew should get well under 2/sym.
        assert!(total_bits < 2 * data.len() as u64);
    }
}
