//! # huffman
//!
//! A canonical Huffman codec over `u32` symbols, built from scratch as the
//! entropy-coding substrate for the SZ3-like and cuSZ-like baseline
//! compressors (the CereSZ paper compares against both; cuSZ is
//! "prediction and Huffman encoding", §5.1.3).
//!
//! Pipeline: symbol counts → [`tree::build_code_lengths`] (heap
//! construction) → [`canonical::CanonicalCode`] → [`codec::encode`] /
//! [`codec::decode`]. Both codec directions are table-driven; see
//! [`codec`] for the dense/sparse split and the lookup-table decoder.
//!
//! ```
//! use huffman::codec;
//! let symbols: Vec<u32> = (0..1000).map(|i| i % 7).collect();
//! let encoded = codec::encode(&symbols).unwrap();
//! assert_eq!(codec::decode(&encoded).unwrap(), symbols);
//! assert!(encoded.bytes.len() < symbols.len() * 4 / 2);
//! ```

#![forbid(unsafe_code)]
pub mod canonical;
pub mod codec;
pub mod tree;

use std::collections::HashMap;

/// Errors of the Huffman codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// The input alphabet was empty.
    EmptyInput,
    /// The encoded stream ended mid-codeword or mid-header.
    Truncated,
    /// The stream declared an invalid code table.
    CorruptTable,
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::EmptyInput => write!(f, "cannot build a code for empty input"),
            HuffmanError::Truncated => write!(f, "encoded stream is truncated"),
            HuffmanError::CorruptTable => write!(f, "corrupt Huffman code table"),
        }
    }
}

impl std::error::Error for HuffmanError {}

/// Symbol frequency histogram.
#[must_use]
pub fn histogram(symbols: &[u32]) -> HashMap<u32, u64> {
    let mut h = HashMap::new();
    for &s in symbols {
        *h.entry(s).or_insert(0) += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts() {
        let h = histogram(&[1, 2, 2, 3, 3, 3]);
        assert_eq!(h[&1], 1);
        assert_eq!(h[&2], 2);
        assert_eq!(h[&3], 3);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn histogram_empty() {
        assert!(histogram(&[]).is_empty());
    }
}
