//! The delta-varint row encoding: how a packed row block of
//! [`crate::CsrGraph`] stores its neighbor ids (see
//! [`crate::CsrGraph::compress`]).
//!
//! Each vertex's (sorted, deduplicated) neighbor list is encoded as one
//! byte run:
//!
//! - the **first** neighbor is stored as the zigzag-coded signed delta
//!   from the vertex's own id — after a locality-improving reorder
//!   (GoGraph, Rabbit, Gorder) neighbors sit near their vertex, so this
//!   delta is small and the varint short: the paper's cache-locality
//!   argument made measurable in bytes;
//! - every **subsequent** neighbor is stored as the gap to its
//!   predecessor (`>= 1`, lists are strictly ascending), LEB128
//!   varint-coded;
//! - a gap token of `0` is an **RLE escape**: the next varint `r` means
//!   "`r` consecutive ids follow the predecessor" (`prev+1 ..= prev+r`),
//!   which collapses the long runs contiguous communities produce after
//!   reordering.
//!
//! A row ends where its bytes end: the block that holds it keeps one
//! byte offset per row, so no degree is stored beside the run.

use crate::types::VertexId;

/// Minimum run length at which the encoder prefers the 2-byte RLE
/// escape over per-gap bytes (below this, gap-1 bytes are no larger).
const MIN_RUN: u64 = 3;

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as a LEB128 varint.
#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 varint at `bytes[*i]`, advancing `*i`. The unchecked
/// hot-path reader: construction and io-load validation guarantee the
/// stream is well-formed, so slice bounds are the only safety net.
#[inline(always)]
fn get_varint(bytes: &[u8], i: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*i];
        *i += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Checked varint reader for untrusted bytes: `None` on truncation or a
/// varint wider than 64 bits.
#[inline]
fn try_get_varint(bytes: &[u8], i: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*i)?;
        *i += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return None;
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b < 0x80 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Encodes one strictly-ascending neighbor list for vertex `v`,
/// appending to `out`. The empty list encodes to zero bytes.
pub fn encode_row(v: VertexId, neighbors: &[VertexId], out: &mut Vec<u8>) {
    let Some((&first, rest)) = neighbors.split_first() else {
        return;
    };
    put_varint(out, zigzag(first as i64 - v as i64));
    let mut prev = first as u64;
    let mut k = 0;
    while k < rest.len() {
        let gap = rest[k] as u64 - prev;
        if gap == 1 {
            // Extend the run of consecutive ids as far as it goes.
            let mut run = 1u64;
            while k + (run as usize) < rest.len() && rest[k + run as usize] as u64 == prev + run + 1
            {
                run += 1;
            }
            if run >= MIN_RUN {
                put_varint(out, 0);
                put_varint(out, run);
                prev += run;
                k += run as usize;
                continue;
            }
        }
        put_varint(out, gap);
        prev += gap;
        k += 1;
    }
}

/// Decodes the row encoded by [`encode_row`] for vertex `v`, calling
/// `f` for each neighbor in ascending order; `bytes` is exactly the
/// row's run.
#[inline(always)]
pub fn decode_row_with<F: FnMut(VertexId)>(v: VertexId, bytes: &[u8], mut f: F) {
    if bytes.is_empty() {
        return;
    }
    let mut i = 0usize;
    let mut prev = (v as i64 + unzigzag(get_varint(bytes, &mut i))) as u64;
    f(prev as VertexId);
    while i < bytes.len() {
        let token = get_varint(bytes, &mut i);
        if token == 0 {
            let run = get_varint(bytes, &mut i);
            for _ in 0..run {
                prev += 1;
                f(prev as VertexId);
            }
        } else {
            prev += token;
            f(prev as VertexId);
        }
    }
}

/// Checks untrusted `bytes` as the run of vertex `v`'s row with an
/// untrusting reader: the run must decode to exactly `degree` strictly
/// ascending ids below `num_vertices`, consume every byte, and hold no
/// zero-length run. The io loader runs this on every row before it
/// trusts [`decode_row_with`] with it.
pub fn validate_row(
    v: VertexId,
    degree: u32,
    bytes: &[u8],
    num_vertices: usize,
) -> Result<(), String> {
    let degree = u64::from(degree);
    let n = num_vertices as i64;
    let mut i = 0usize;
    let mut emitted = 0u64;
    if degree > 0 {
        let d = try_get_varint(bytes, &mut i)
            .ok_or_else(|| format!("row {v}: truncated first delta"))?;
        let mut prev = (v as i64)
            .checked_add(unzigzag(d))
            .filter(|p| (0..n).contains(p))
            .ok_or_else(|| format!("row {v}: first neighbor out of range"))?;
        emitted = 1;
        while emitted < degree {
            let token = try_get_varint(bytes, &mut i)
                .ok_or_else(|| format!("row {v}: truncated gap token"))?;
            let (step, count) = if token == 0 {
                let r = try_get_varint(bytes, &mut i)
                    .ok_or_else(|| format!("row {v}: truncated run length"))?;
                if r == 0 {
                    return Err(format!("row {v}: zero-length run"));
                }
                (r, r)
            } else {
                (token, 1)
            };
            prev = i64::try_from(step)
                .ok()
                .and_then(|s| prev.checked_add(s))
                .filter(|&p| p < n)
                .ok_or_else(|| format!("row {v}: neighbor out of range"))?;
            emitted += count;
        }
    }
    if emitted != degree {
        return Err(format!("row {v}: decoded {emitted} of {degree} neighbors"));
    }
    if i != bytes.len() {
        return Err(format!(
            "row {v}: {} trailing bytes after decode",
            bytes.len() - i
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: VertexId, row: &[VertexId]) {
        let mut bytes = Vec::new();
        encode_row(v, row, &mut bytes);
        let mut out = Vec::new();
        decode_row_with(v, &bytes, |w| out.push(w));
        assert_eq!(out, row, "row of {v}");
    }

    #[test]
    fn encode_decode_roundtrips() {
        roundtrip(5, &[]);
        roundtrip(5, &[5]); // self loop: zero delta
        roundtrip(5, &[0, 9, 4000]);
        roundtrip(0, &[1, 2, 3, 4, 5, 6, 7]); // pure run
        roundtrip(1000, &[0, 1, 2, 3, 900, 901, 902, 903, 904, 2000]);
        roundtrip(0, &[u32::MAX - 1]); // large forward delta
        roundtrip(u32::MAX - 1, &[0, u32::MAX - 1]); // large backward delta
    }

    #[test]
    fn runs_compress_below_one_byte_per_id() {
        let row: Vec<VertexId> = (100..1100).collect();
        let mut bytes = Vec::new();
        encode_row(90, &row, &mut bytes);
        assert!(
            bytes.len() < row.len() / 10,
            "1000-id run took {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 127, 128, 16383, 16384, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut i = 0;
            assert_eq!(get_varint(&out, &mut i), v);
            assert_eq!(i, out.len());
            let mut j = 0;
            assert_eq!(try_get_varint(&out, &mut j), Some(v));
        }
        assert_eq!(try_get_varint(&[0x80], &mut 0), None, "truncated varint");
    }

    #[test]
    fn zigzag_roundtrips() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::from(i32::MAX),
            -i64::from(i32::MAX),
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn validate_rejects_corruption() {
        let row = [0u32, 1, 2, 3, 900, 901, 902, 903, 904, 2000];
        let mut bytes = Vec::new();
        encode_row(1000, &row, &mut bytes);
        assert_eq!(validate_row(1000, row.len() as u32, &bytes, 2001), Ok(()));
        assert_eq!(validate_row(7, 0, &[], 10), Ok(()));
        // A lying degree, an id past the vertex count, a truncated run,
        // trailing bytes and a zero-length run are all refused.
        assert!(validate_row(1000, row.len() as u32 - 1, &bytes, 2001).is_err());
        assert!(validate_row(1000, row.len() as u32, &bytes, 2000).is_err());
        assert!(validate_row(1000, row.len() as u32, &bytes[..bytes.len() - 1], 2001).is_err());
        let mut longer = bytes.clone();
        longer.push(1);
        assert!(validate_row(1000, row.len() as u32, &longer, 2001).is_err());
        assert!(validate_row(0, 2, &[2, 0, 0], 10).is_err());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            if validate_row(1000, row.len() as u32, &bad, 2001).is_ok() {
                let mut out = Vec::new();
                decode_row_with(1000, &bad, |w| out.push(w));
                assert_eq!(out.len(), row.len(), "flip at {i}");
                assert!(out.windows(2).all(|p| p[0] < p[1]), "flip at {i}");
            }
        }
    }
}
