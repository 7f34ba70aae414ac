//! Delta-varint compressed adjacency: the byte-coded neighbor storage
//! behind [`crate::CsrGraph`]'s compressed backend.
//!
//! Each vertex's (sorted, deduplicated) neighbor list is encoded as one
//! self-delimiting byte run:
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
//! Rows are grouped into **shards** of contiguous vertex ranges (the
//! unit [`crate::io`] serializes independently and a future NUMA policy
//! places); within a shard, per-vertex `u32` byte offsets index the
//! shard's byte buffer, so a row lookup is one binary search over the
//! (small) shard table plus two offset loads.

use crate::types::VertexId;
use std::sync::Arc;

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

/// Decodes the row encoded by [`encode_row`], calling `f` for each
/// neighbor in ascending order. `degree` is the list length (stored
/// out-of-band in the degree array); `bytes` must start at the row.
#[inline(always)]
pub fn decode_row_with<F: FnMut(VertexId)>(v: VertexId, degree: u32, bytes: &[u8], mut f: F) {
    if degree == 0 {
        return;
    }
    let mut i = 0usize;
    let mut prev = (v as i64 + unzigzag(get_varint(bytes, &mut i))) as u64;
    f(prev as VertexId);
    let mut remaining = degree as u64 - 1;
    while remaining > 0 {
        let token = get_varint(bytes, &mut i);
        if token == 0 {
            let run = get_varint(bytes, &mut i);
            for _ in 0..run {
                prev += 1;
                f(prev as VertexId);
            }
            remaining -= run;
        } else {
            prev += token;
            f(prev as VertexId);
            remaining -= 1;
        }
    }
}

/// One shard: the rows of a contiguous vertex range, with per-vertex
/// byte offsets (`offsets.len() == range_len + 1`) into `bytes`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdjacencyShard {
    pub(crate) offsets: Vec<u32>,
    pub(crate) bytes: Vec<u8>,
}

impl AdjacencyShard {
    /// The shard's encoded payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The shard's raw encoded bytes (for serialization / checksums).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The shard's per-vertex byte offsets (for serialization).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Reassembles a shard from deserialized parts, checking the offset
    /// table's internal consistency (deep row validation happens later
    /// via [`CompressedAdjacency::validate`]).
    pub fn from_parts(offsets: Vec<u32>, bytes: Vec<u8>) -> Result<Self, String> {
        if offsets.first() != Some(&0) {
            return Err("shard offsets must start at 0".into());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("shard offsets must be non-decreasing".into());
        }
        if offsets.last().map(|&o| o as usize) != Some(bytes.len()) {
            return Err("shard offsets must end at the payload length".into());
        }
        Ok(AdjacencyShard { offsets, bytes })
    }
}

/// One adjacency direction of a compressed graph: delta-varint rows in
/// contiguous vertex-range shards plus the out-of-band degree array
/// that delimits each row's decode.
#[derive(Debug, Clone)]
pub struct CompressedAdjacency {
    num_vertices: usize,
    num_targets: usize,
    degrees: Arc<Vec<u32>>,
    /// Ascending shard start ids; `shard_starts[0] == 0`,
    /// `shard_starts[num_shards] == num_vertices`.
    shard_starts: Arc<Vec<VertexId>>,
    shards: Arc<Vec<AdjacencyShard>>,
}

impl PartialEq for CompressedAdjacency {
    fn eq(&self, other: &Self) -> bool {
        self.num_vertices == other.num_vertices
            && self.degrees == other.degrees
            && self.shard_starts == other.shard_starts
            && self.shards == other.shards
    }
}

impl CompressedAdjacency {
    /// Compresses one adjacency direction, given as `row(v)` = the
    /// neighbor list of `v` for every `v < num_vertices`, into shards
    /// split at `shard_starts` (ascending interior cut points; `0` and
    /// `n` are implied and deduplicated).
    ///
    /// # Panics
    /// Panics if a neighbor list is not strictly ascending, an id is out
    /// of range, or one shard's encoding exceeds `u32::MAX` bytes.
    pub fn from_rows<'a>(
        num_vertices: usize,
        row: impl Fn(usize) -> &'a [VertexId],
        shard_starts: &[VertexId],
    ) -> Self {
        let mut starts: Vec<VertexId> = Vec::with_capacity(shard_starts.len() + 2);
        starts.push(0);
        for &s in shard_starts {
            let s = (s as usize).min(num_vertices) as VertexId;
            if s as usize > 0 && Some(&s) != starts.last() {
                assert!(Some(&s) > starts.last(), "shard starts must be ascending");
                starts.push(s);
            }
        }
        if *starts.last().unwrap() as usize != num_vertices {
            starts.push(num_vertices as VertexId);
        }

        let mut degrees: Vec<u32> = Vec::with_capacity(num_vertices);
        let mut shards = Vec::with_capacity(starts.len() - 1);
        for w in starts.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            let mut shard_offsets = Vec::with_capacity(hi - lo + 1);
            let mut bytes = Vec::new();
            shard_offsets.push(0u32);
            for v in lo..hi {
                let row = row(v);
                degrees.push(u32::try_from(row.len()).expect("degree exceeds u32"));
                debug_assert!(
                    row.windows(2).all(|p| p[0] < p[1]),
                    "neighbor list of {v} not strictly ascending"
                );
                encode_row(v as VertexId, row, &mut bytes);
                let off = u32::try_from(bytes.len())
                    .expect("shard encoding exceeds u32 offsets; use more shards");
                shard_offsets.push(off);
            }
            // Trim the encoder's geometric growth slack so
            // `memory_bytes` reports the true footprint.
            bytes.shrink_to_fit();
            shards.push(AdjacencyShard {
                offsets: shard_offsets,
                bytes,
            });
        }
        CompressedAdjacency {
            num_vertices,
            num_targets: degrees.iter().map(|&d| d as usize).sum(),
            degrees: Arc::new(degrees),
            shard_starts: Arc::new(starts),
            shards: Arc::new(shards),
        }
    }

    /// Reassembles an adjacency from deserialized parts, without
    /// validating row contents — callers (the io loader) must run
    /// [`CompressedAdjacency::validate`] before trusting decode paths.
    pub fn from_raw_parts(
        num_vertices: usize,
        num_targets: usize,
        degrees: Vec<u32>,
        shard_starts: Vec<VertexId>,
        shards: Vec<AdjacencyShard>,
    ) -> Result<Self, String> {
        if degrees.len() != num_vertices {
            return Err("degree array length mismatch".into());
        }
        if shard_starts.first() != Some(&0)
            || shard_starts.last().map(|&s| s as usize) != Some(num_vertices)
            || shard_starts.windows(2).any(|w| w[0] >= w[1])
            || shard_starts.len() != shards.len() + 1
        {
            return Err("malformed shard boundaries".into());
        }
        for (i, (s, w)) in shards.iter().zip(shard_starts.windows(2)).enumerate() {
            if s.offsets.len() != (w[1] - w[0]) as usize + 1 {
                return Err(format!("shard {i}: offset table length mismatch"));
            }
            if s.offsets.first() != Some(&0)
                || s.offsets.windows(2).any(|p| p[0] > p[1])
                || s.offsets.last().map(|&o| o as usize) != Some(s.bytes.len())
            {
                return Err(format!("shard {i}: malformed offset table"));
            }
        }
        Ok(CompressedAdjacency {
            num_vertices,
            num_targets,
            degrees: Arc::new(degrees),
            shard_starts: Arc::new(shard_starts),
            shards: Arc::new(shards),
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Total number of encoded neighbor ids (the edge count).
    #[inline]
    pub fn num_targets(&self) -> usize {
        self.num_targets
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The ascending shard start ids (`num_shards + 1` entries).
    #[inline]
    pub fn shard_starts(&self) -> &[VertexId] {
        &self.shard_starts
    }

    /// The shards themselves (serialization order).
    #[inline]
    pub fn shards(&self) -> &[AdjacencyShard] {
        &self.shards
    }

    /// Per-vertex list lengths.
    #[inline]
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Shared handle to the degree array, so a [`crate::CsrGraph`] can
    /// serve `out_degree` from the same allocation that delimits decode.
    #[inline]
    pub fn degrees_arc(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.degrees)
    }

    /// List length of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.degrees[v as usize] as usize
    }

    /// The shard index holding vertex `v`.
    #[inline]
    pub fn shard_of(&self, v: VertexId) -> usize {
        // partition_point over a handful of starts: the row lookup cost
        // the shard indirection adds to every decode.
        self.shard_starts.partition_point(|&s| s <= v) - 1
    }

    /// The encoded byte run of `v`'s row.
    #[inline]
    pub fn row_bytes(&self, v: VertexId) -> &[u8] {
        let si = self.shard_of(v);
        let shard = &self.shards[si];
        let local = (v - self.shard_starts[si]) as usize;
        &shard.bytes[shard.offsets[local] as usize..shard.offsets[local + 1] as usize]
    }

    /// Decodes `v`'s neighbors in ascending order into `f` — the hot
    /// path consumed by the engines' gather/scatter loops.
    #[inline(always)]
    pub fn for_each<F: FnMut(VertexId)>(&self, v: VertexId, f: F) {
        decode_row_with(v, self.degrees[v as usize], self.row_bytes(v), f);
    }

    /// Decodes `v`'s row into a fresh vector (non-hot-path callers).
    pub fn decode_row(&self, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.degree(v));
        self.for_each(v, |w| out.push(w));
        out
    }

    /// Total encoded payload bytes across shards.
    pub fn payload_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.bytes.len()).sum()
    }

    /// Heap bytes of the whole structure (payload + offset tables +
    /// degrees + shard directory).
    pub fn memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.bytes.capacity() + s.offsets.capacity() * std::mem::size_of::<u32>())
            .sum::<usize>()
            + self.degrees.capacity() * std::mem::size_of::<u32>()
            + self.shard_starts.capacity() * std::mem::size_of::<VertexId>()
    }

    /// True when `self` and `other` share the same backing allocations.
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.shards, &other.shards) && Arc::ptr_eq(&self.degrees, &other.degrees)
    }

    /// Fully decodes every row with an untrusting reader, checking that
    /// each row consumes exactly its offset span, yields exactly
    /// `degree` strictly-ascending in-range ids, and that degrees sum to
    /// the declared target count. The io loader runs this so corrupt or
    /// truncated sections surface as `Err`, never as a decode panic.
    pub fn validate(&self) -> Result<(), String> {
        let mut total = 0u64;
        for v in 0..self.num_vertices as VertexId {
            let degree = self.degrees[v as usize] as u64;
            total += degree;
            let bytes = self.row_bytes(v);
            let mut i = 0usize;
            let mut emitted = 0u64;
            if degree > 0 {
                let d = try_get_varint(bytes, &mut i)
                    .ok_or_else(|| format!("row {v}: truncated first delta"))?;
                let first = v as i64 + unzigzag(d);
                if first < 0 || first >= self.num_vertices as i64 {
                    return Err(format!("row {v}: first neighbor {first} out of range"));
                }
                let mut prev = first;
                emitted = 1;
                while emitted < degree {
                    let token = try_get_varint(bytes, &mut i)
                        .ok_or_else(|| format!("row {v}: truncated gap token"))?;
                    let run = if token == 0 {
                        let r = try_get_varint(bytes, &mut i)
                            .ok_or_else(|| format!("row {v}: truncated run length"))?;
                        if r == 0 {
                            return Err(format!("row {v}: zero-length run"));
                        }
                        r
                    } else {
                        prev = prev
                            .checked_add(token as i64)
                            .ok_or_else(|| format!("row {v}: gap overflow"))?;
                        emitted += 1;
                        if prev >= self.num_vertices as i64 {
                            return Err(format!("row {v}: neighbor {prev} out of range"));
                        }
                        continue;
                    };
                    let end = prev
                        .checked_add(run as i64)
                        .ok_or_else(|| format!("row {v}: run overflow"))?;
                    if end >= self.num_vertices as i64 {
                        return Err(format!("row {v}: run end {end} out of range"));
                    }
                    prev = end;
                    emitted = emitted
                        .checked_add(run)
                        .ok_or_else(|| format!("row {v}: run count overflow"))?;
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
        }
        if total != self.num_targets as u64 {
            return Err(format!(
                "degree sum {total} != declared edge count {}",
                self.num_targets
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: VertexId, row: &[VertexId]) {
        let mut bytes = Vec::new();
        encode_row(v, row, &mut bytes);
        let mut out = Vec::new();
        decode_row_with(v, row.len() as u32, &bytes, |w| out.push(w));
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

    fn sample_adjacency(shard_starts: &[VertexId]) -> CompressedAdjacency {
        // 6 vertices: 0->{1,2,3}, 1->{}, 2->{0,5}, 3->{3}, 4->{0,1,2,3,4,5}, 5->{4}
        let offsets = [0usize, 3, 3, 5, 6, 12, 13];
        let targets = [1u32, 2, 3, 0, 5, 3, 0, 1, 2, 3, 4, 5, 4];
        CompressedAdjacency::from_rows(6, |v| &targets[offsets[v]..offsets[v + 1]], shard_starts)
    }

    #[test]
    fn sharded_rows_decode_and_validate() {
        for starts in [&[][..], &[2][..], &[1, 3, 5][..], &[2, 2, 4][..]] {
            let adj = sample_adjacency(starts);
            assert_eq!(adj.num_targets(), 13);
            assert_eq!(adj.decode_row(0), vec![1, 2, 3]);
            assert_eq!(adj.decode_row(1), Vec::<u32>::new());
            assert_eq!(adj.decode_row(2), vec![0, 5]);
            assert_eq!(adj.decode_row(3), vec![3]);
            assert_eq!(adj.decode_row(4), vec![0, 1, 2, 3, 4, 5]);
            assert_eq!(adj.decode_row(5), vec![4]);
            adj.validate().expect("valid adjacency");
        }
        assert_eq!(sample_adjacency(&[2]).num_shards(), 2);
        assert_eq!(sample_adjacency(&[]).num_shards(), 1);
    }

    #[test]
    fn validate_rejects_corruption() {
        let adj = sample_adjacency(&[3]);
        // Flip a payload byte in each shard: decode must fail, not panic.
        for si in 0..adj.num_shards() {
            let mut shards: Vec<AdjacencyShard> = adj.shards().to_vec();
            if shards[si].bytes.is_empty() {
                continue;
            }
            let last = shards[si].bytes.len() - 1;
            shards[si].bytes[last] ^= 0xFF;
            let bad = CompressedAdjacency::from_raw_parts(
                6,
                13,
                adj.degrees().to_vec(),
                adj.shard_starts().to_vec(),
                shards,
            );
            if let Ok(bad) = bad {
                assert!(bad.validate().is_err(), "shard {si} corruption undetected");
            }
        }
        // Truncated payload.
        let mut shards: Vec<AdjacencyShard> = adj.shards().to_vec();
        shards[0].bytes.pop();
        assert!(
            CompressedAdjacency::from_raw_parts(
                6,
                13,
                adj.degrees().to_vec(),
                adj.shard_starts().to_vec(),
                shards,
            )
            .is_err(),
            "offset/byte mismatch must be rejected structurally"
        );
        // Degree lying about a row length.
        let mut degrees = adj.degrees().to_vec();
        degrees[0] = 2;
        let bad = CompressedAdjacency::from_raw_parts(
            6,
            12,
            degrees,
            adj.shard_starts().to_vec(),
            adj.shards().to_vec(),
        )
        .unwrap();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn from_raw_parts_rejects_malformed_structure() {
        let adj = sample_adjacency(&[3]);
        assert!(CompressedAdjacency::from_raw_parts(
            6,
            13,
            vec![0; 5], // wrong degree length
            adj.shard_starts().to_vec(),
            adj.shards().to_vec(),
        )
        .is_err());
        assert!(CompressedAdjacency::from_raw_parts(
            6,
            13,
            adj.degrees().to_vec(),
            vec![0, 6], // one range but two shards
            adj.shards().to_vec(),
        )
        .is_err());
        assert!(CompressedAdjacency::from_raw_parts(
            6,
            13,
            adj.degrees().to_vec(),
            vec![3, 6], // does not start at 0
            adj.shards()[1..].to_vec(),
        )
        .is_err());
    }
}
