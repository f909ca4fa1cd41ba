//! Fixed-length encoding (stage ③ of the paper, §3 and §4.2).
//!
//! The Lorenzo residuals of a block are stored in sign–magnitude form using
//! exactly as many bit-planes as the widest magnitude in the block requires.
//! The paper decomposes this step into four sub-stages, mirrored here as
//! separate functions so the pipeline mapper can place them on different PEs:
//!
//! * [`signs_and_magnitudes`] — *Sign*: extract sign bits, take absolute values;
//! * [`max_magnitude`] — *Max*: per-block maximum of the magnitudes;
//! * [`effective_bits`] — *GetLength*: number of effective bits of the max;
//! * [`bit_shuffle`] — *Bit-shuffle*: transpose the k-th bit of every
//!   magnitude into plane k (Fig. 8).
//!
//! Plane layout: plane `k` (LSB first, `k ∈ 0..f`) holds bit `k` of each of
//! the `L` magnitudes, packed LSB-first within each byte, element `i` at byte
//! `i / 8`, bit `i % 8`. The sign plane uses the same packing.

/// Sub-stage *Sign*: split residuals into packed sign bits and magnitudes.
///
/// `signs` must hold `ceil(len / 8)` bytes and is fully overwritten
/// (including padding bits, which are cleared). Bit `i % 8` of byte `i / 8`
/// is 1 when `residuals[i]` is negative.
pub fn signs_and_magnitudes(residuals: &[i64], signs: &mut [u8], magnitudes: &mut [u32]) {
    signs_magnitudes_or(residuals, signs, magnitudes);
}

/// Sub-stages *Sign* and *Max* in one pass: [`signs_and_magnitudes`], and
/// the OR of every `|residual|` as a `u64`. The OR has the same highest set
/// bit as the maximum, so its [`effective_bits`] are the block's `f`, and it
/// exceeds `i32::MAX` exactly when some magnitude does.
pub(crate) fn signs_magnitudes_or(
    residuals: &[i64],
    signs: &mut [u8],
    magnitudes: &mut [u32],
) -> u64 {
    assert_eq!(magnitudes.len(), residuals.len());
    assert_eq!(signs.len(), residuals.len().div_ceil(8));
    let (r8, r_tail) = residuals.as_chunks::<8>();
    let (m8, m_tail) = magnitudes.as_chunks_mut::<8>();
    let mut acc = 0u64;
    for ((r, m), s) in r8.iter().zip(m8).zip(signs.iter_mut()) {
        *s = sign_group(r, m, &mut acc);
    }
    if !r_tail.is_empty() {
        let mut m = [0; 8];
        signs[r8.len()] = sign_group(&padded(r_tail), &mut m, &mut acc);
        m_tail.copy_from_slice(&m[..m_tail.len()]);
    }
    acc
}

/// The sign byte and magnitudes of 8 residuals; ORs each `|residual|` into
/// `acc`.
#[inline(always)]
fn sign_group(r: &[i64; 8], m: &mut [u32; 8], acc: &mut u64) -> u8 {
    let mut byte = 0;
    for j in 0..8 {
        byte |= ((r[j] as u64 >> 63) as u8) << j;
        let a = r[j].unsigned_abs();
        *acc |= a;
        m[j] = a as u32;
    }
    byte
}

/// Sub-stage *Max*: maximum magnitude of the block (0 for an empty block).
#[inline]
#[must_use]
pub fn max_magnitude(magnitudes: &[u32]) -> u32 {
    magnitudes.iter().copied().max().unwrap_or(0)
}

/// Sub-stage *GetLength*: number of effective bits of `max` (0 for 0).
///
/// This is the per-block "fixed length" `f`: every magnitude in the block
/// fits in `f` bits.
#[inline]
#[must_use]
pub fn effective_bits(max: u32) -> u32 {
    32 - max.leading_zeros()
}

/// The first elements of an 8-element group, zero-padded.
#[inline(always)]
fn padded<T: Copy + Default>(tail: &[T]) -> [T; 8] {
    let mut group = [T::default(); 8];
    group[..tail.len()].copy_from_slice(tail);
    group
}

/// Transpose, in place, the four 8×8 bit matrices held in the byte lanes of
/// 8 rows: bit `i` of byte `l` of row `j` trades places with bit `j` of byte
/// `l` of row `i`. This is Hacker's Delight `transpose8` (three rounds of
/// mask-and-shift swaps of ever smaller off-diagonal blocks), run on all four
/// lanes at once.
#[inline(always)]
fn transpose_lanes(rows: &mut [u32; 8]) {
    swap_blocks::<4>(rows, 0x0F0F_0F0F);
    swap_blocks::<2>(rows, 0x3333_3333);
    swap_blocks::<1>(rows, 0x5555_5555);
}

/// One `transpose8` round: swap the off-diagonal `J`×`J` blocks of every
/// `2J`×`2J` block. For each row `r` with `r & J == 0`, the bits of row `r`
/// whose position has bit `J` set trade places with the bits `J` positions
/// lower in row `r + J`.
#[inline(always)]
fn swap_blocks<const J: usize>(rows: &mut [u32; 8], mask: u32) {
    for r in 0..8 {
        if r & J == 0 {
            let t = ((rows[r] >> J) ^ rows[r + J]) & mask;
            rows[r + J] ^= t;
            rows[r] ^= t << J;
        }
    }
}

/// Sub-stage *Bit-shuffle* (Fig. 8): transpose magnitudes into `f` bit-planes.
///
/// `planes` must hold `f * ceil(L / 8)` bytes, where `L = magnitudes.len()`;
/// plane `k` occupies bytes `k * ceil(L/8) .. (k+1) * ceil(L/8)`. All bytes
/// are overwritten. Each plane's shuffle is independent of the others, which
/// is what lets the mapper split this sub-stage per bit (§4.2).
///
/// Byte `g` of plane `k` packs bit `k` of elements `8g .. 8g+8`, so after
/// an 8×8 bit transpose of each byte lane of those 8 magnitudes (Hacker's
/// Delight `transpose8`, all four lanes at once), byte `k / 8` of row `k % 8`
/// is that plane byte: one transpose per 8 elements, then `f` stores.
pub fn bit_shuffle(magnitudes: &[u32], f: u32, planes: &mut [u8]) {
    let pb = magnitudes.len().div_ceil(8);
    assert!(f <= 32, "fixed length {f} exceeds 32 bits");
    assert_eq!(planes.len(), f as usize * pb);
    let (m8, tail) = magnitudes.as_chunks::<8>();
    for (g, group) in m8.iter().enumerate() {
        store_plane_bytes(*group, f, pb, g, planes);
    }
    if !tail.is_empty() {
        store_plane_bytes(padded(tail), f, pb, m8.len(), planes);
    }
}

/// Transpose one group of 8 magnitudes and write byte `g` of planes `0..f`.
#[inline(always)]
fn store_plane_bytes(mut rows: [u32; 8], f: u32, pb: usize, g: usize, planes: &mut [u8]) {
    transpose_lanes(&mut rows);
    let mut at = g;
    let mut lane = 0;
    while lane < f {
        let bytes: [u8; 8] = std::array::from_fn(|i| (rows[i] >> lane) as u8);
        for &b in &bytes[..(f - lane).min(8) as usize] {
            planes[at] = b;
            at += pb;
        }
        lane += 8;
    }
}

/// Shuffle a single bit-plane `k`. Exposed separately because the WSE mapping
/// assigns individual planes ("1-bit Shuffle") to PEs.
pub fn bit_shuffle_one_plane(magnitudes: &[u32], k: u32, plane: &mut [u8]) {
    debug_assert_eq!(plane.len(), magnitudes.len().div_ceil(8));
    let (m8, tail) = magnitudes.as_chunks::<8>();
    for (byte, group) in plane.iter_mut().zip(m8) {
        *byte = plane_byte(group, k);
    }
    if !tail.is_empty() {
        plane[m8.len()] = plane_byte(&padded(tail), k);
    }
}

/// Bit `k` of 8 magnitudes, element `j` at bit `j`.
#[inline(always)]
fn plane_byte(group: &[u32; 8], k: u32) -> u8 {
    group
        .iter()
        .rev()
        .fold(0, |byte, &m| (byte << 1) | ((m >> k) & 1) as u8)
}

/// Inverse of [`bit_shuffle`]: reassemble magnitudes from `f` bit-planes.
///
/// `magnitudes` is fully overwritten; padding bits in the last byte of each
/// plane are ignored. The transpose is its own inverse, so this gathers
/// byte `g` of every plane into rows and runs the transpose again.
pub fn bit_unshuffle(planes: &[u8], f: u32, magnitudes: &mut [u32]) {
    let pb = magnitudes.len().div_ceil(8);
    assert!(f <= 32, "fixed length {f} exceeds 32 bits");
    assert_eq!(planes.len(), f as usize * pb);
    let (m8, tail) = magnitudes.as_chunks_mut::<8>();
    for (g, group) in m8.iter_mut().enumerate() {
        *group = load_plane_bytes(planes, f, pb, g);
    }
    if !tail.is_empty() {
        let group = load_plane_bytes(planes, f, pb, m8.len());
        tail.copy_from_slice(&group[..tail.len()]);
    }
}

/// Read byte `g` of planes `0..f` and transpose it back into 8 magnitudes.
#[inline(always)]
fn load_plane_bytes(planes: &[u8], f: u32, pb: usize, g: usize) -> [u32; 8] {
    let mut rows = [0u32; 8];
    let mut at = g;
    let mut lane = 0;
    while lane < f {
        let mut bytes = [0u8; 8];
        for b in &mut bytes[..(f - lane).min(8) as usize] {
            *b = planes[at];
            at += pb;
        }
        for i in 0..8 {
            rows[i] |= u32::from(bytes[i]) << lane;
        }
        lane += 8;
    }
    transpose_lanes(&mut rows);
    rows
}

/// Inverse of [`bit_shuffle_one_plane`]: OR bit `k` of every element from
/// `plane` into `magnitudes`, whose bit `k` must be clear.
pub fn bit_unshuffle_one_plane(plane: &[u8], k: u32, magnitudes: &mut [u32]) {
    debug_assert_eq!(plane.len(), magnitudes.len().div_ceil(8));
    for (group, &byte) in magnitudes.chunks_mut(8).zip(plane) {
        for (j, m) in group.iter_mut().enumerate() {
            *m |= u32::from((byte >> j) & 1) << k;
        }
    }
}

/// Recombine packed signs and magnitudes into signed residuals
/// (inverse of [`signs_and_magnitudes`]).
pub fn apply_signs(signs: &[u8], magnitudes: &[u32], out: &mut [i64]) {
    debug_assert_eq!(out.len(), magnitudes.len());
    debug_assert_eq!(signs.len(), magnitudes.len().div_ceil(8));
    let (o8, o_tail) = out.as_chunks_mut::<8>();
    let (m8, m_tail) = magnitudes.as_chunks::<8>();
    for ((o, m), &s) in o8.iter_mut().zip(m8).zip(signs) {
        apply_group(s, m, o);
    }
    if !o_tail.is_empty() {
        let mut o = [0; 8];
        apply_group(signs[o8.len()], &padded(m_tail), &mut o);
        o_tail.copy_from_slice(&o[..o_tail.len()]);
    }
}

/// Negate each of 8 magnitudes whose bit is set in `signs`, without a branch.
#[inline(always)]
fn apply_group(signs: u8, m: &[u32; 8], out: &mut [i64; 8]) {
    for j in 0..8 {
        // 0 for a positive element, -1 (all ones) for a negative one.
        let neg = 0i64.wrapping_sub(i64::from((signs >> j) & 1));
        out[j] = (i64::from(m[j]) ^ neg).wrapping_sub(neg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_fixed_length() {
        // Fig. 5(b): residuals [4, 2, -3, -8, 7, -1, 0, -1]; max |.| = 8 → 4 bits.
        let residuals = [4i64, 2, -3, -8, 7, -1, 0, -1];
        let mut signs = [0u8; 1];
        let mut mags = [0u32; 8];
        signs_and_magnitudes(&residuals, &mut signs, &mut mags);
        assert_eq!(mags, [4, 2, 3, 8, 7, 1, 0, 1]);
        // negatives at indices 2, 3, 5, 7 → bits 2,3,5,7.
        assert_eq!(signs[0], 0b1010_1100);
        let max = max_magnitude(&mags);
        assert_eq!(max, 8);
        assert_eq!(effective_bits(max), 4);
    }

    #[test]
    fn effective_bits_edges() {
        assert_eq!(effective_bits(0), 0);
        assert_eq!(effective_bits(1), 1);
        assert_eq!(effective_bits(2), 2);
        assert_eq!(effective_bits(255), 8);
        assert_eq!(effective_bits(256), 9);
        assert_eq!(effective_bits(u32::MAX), 32);
    }

    #[test]
    fn shuffle_unshuffle_roundtrip() {
        let mags: Vec<u32> = (0..32).map(|i| (i * 2654435761u64 % 1000) as u32).collect();
        let f = effective_bits(max_magnitude(&mags));
        let mut planes = vec![0u8; f as usize * 4];
        bit_shuffle(&mags, f, &mut planes);
        let mut back = vec![0u32; 32];
        bit_unshuffle(&planes, f, &mut back);
        assert_eq!(back, mags);
    }

    #[test]
    fn shuffle_plane_contents() {
        // Magnitudes 0b01, 0b10, 0b11, 0b00: plane 0 = LSBs = 0b0101,
        // plane 1 = next bits = 0b0110 (element i at bit i, LSB-first).
        let mags = [1u32, 2, 3, 0, 0, 0, 0, 0];
        let mut planes = vec![0u8; 2];
        bit_shuffle(&mags, 2, &mut planes);
        assert_eq!(planes[0], 0b0000_0101);
        assert_eq!(planes[1], 0b0000_0110);
    }

    #[test]
    fn signs_roundtrip_with_apply() {
        let residuals: Vec<i64> = (-20..20).map(|i| i * 3).collect();
        let mut signs = vec![0u8; residuals.len().div_ceil(8)];
        let mut mags = vec![0u32; residuals.len()];
        signs_and_magnitudes(&residuals, &mut signs, &mut mags);
        let mut back = vec![0i64; residuals.len()];
        apply_signs(&signs, &mags, &mut back);
        assert_eq!(back, residuals);
    }

    #[test]
    fn non_multiple_of_eight_lengths() {
        let residuals = [5i64, -7, 9, -2, 0];
        let mut signs = vec![0u8; 1];
        let mut mags = vec![0u32; 5];
        signs_and_magnitudes(&residuals, &mut signs, &mut mags);
        let f = effective_bits(max_magnitude(&mags));
        let mut planes = vec![0u8; f as usize];
        bit_shuffle(&mags, f, &mut planes);
        let mut mback = vec![0u32; 5];
        bit_unshuffle(&planes, f, &mut mback);
        let mut back = vec![0i64; 5];
        apply_signs(&signs, &mback, &mut back);
        assert_eq!(back, residuals);
    }

    #[test]
    fn zero_block_has_zero_length() {
        let residuals = [0i64; 32];
        let mut signs = [0u8; 4];
        let mut mags = [0u32; 32];
        signs_and_magnitudes(&residuals, &mut signs, &mut mags);
        assert_eq!(effective_bits(max_magnitude(&mags)), 0);
        assert_eq!(signs, [0u8; 4]);
    }

    #[test]
    fn one_plane_matches_full_shuffle() {
        let mags: Vec<u32> = (0..32).map(|i| i * 37 % 512).collect();
        let f = effective_bits(max_magnitude(&mags));
        let mut full = vec![0u8; f as usize * 4];
        bit_shuffle(&mags, f, &mut full);
        for k in 0..f {
            let mut one = vec![0u8; 4];
            bit_shuffle_one_plane(&mags, k, &mut one);
            assert_eq!(one, full[k as usize * 4..(k as usize + 1) * 4]);
        }
    }
}
