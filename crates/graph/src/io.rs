//! Graph serialization: whitespace-separated edge-list text (the format of
//! SNAP / network-repository dumps the paper's datasets ship in) and a
//! compact little-endian binary format for the benchmark dataset cache.

use crate::builder::GraphBuilder;
use crate::compressed::{AdjacencyShard, CompressedAdjacency};
use crate::csr::CsrGraph;
use crate::types::VertexId;
use bytes::{Buf, BufMut, BytesMut};
// Re-exported so callers of the `*_to_binary`/`*_from_binary` pairs can
// name the buffer type without a direct `bytes` dependency.
pub use bytes::Bytes;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic prefix of the binary format.
const MAGIC: &[u8; 8] = b"GOGRAPH1";

/// Largest vertex count any on-disk graph may declare: ids are
/// [`VertexId`] (u32), so anything above `u32::MAX + 1` is malformed
/// and rejected before any allocation is sized from it. (An in-range
/// but absurd count still costs its offset arrays — like any format
/// that trusts its header counts — but is bounded at u32 scale; the
/// edge count, by contrast, is fully validated against the payload.)
const MAX_VERTICES: u64 = VertexId::MAX as u64 + 1;

/// Parses an edge-list from a reader. Lines starting with `#` or `%` are
/// comments; each data line is `src dst [weight]`. Vertex ids must fit in
/// u32; missing weights default to 1.0.
pub fn read_edge_list<R: Read>(reader: R) -> io::Result<CsrGraph> {
    let reader = BufReader::new(reader);
    let mut b = GraphBuilder::new();
    let mut line = String::new();
    let mut reader = reader;
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            // The writer records the vertex count in a directive comment so
            // trailing isolated vertices round-trip.
            if let Some(rest) = t.strip_prefix("# vertices ") {
                if let Ok(n) = rest.trim().parse::<u64>() {
                    if n > MAX_VERTICES {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("line {lineno}: vertex count {n} exceeds the u32 id space"),
                        ));
                    }
                    b.reserve_vertices(n as usize);
                }
            }
            continue;
        }
        let mut it = t.split_whitespace();
        let src: VertexId = parse_field(it.next(), lineno, "src")?;
        let dst: VertexId = parse_field(it.next(), lineno, "dst")?;
        let weight: f64 = match it.next() {
            Some(w) => w.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {lineno}: bad weight {w:?}"),
                )
            })?,
            None => 1.0,
        };
        b.add_edge(src, dst, weight);
    }
    Ok(b.build())
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    lineno: usize,
    name: &str,
) -> io::Result<T> {
    let s = field.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line {lineno}: missing {name}"),
        )
    })?;
    s.parse().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line {lineno}: bad {name} {s:?}"),
        )
    })
}

/// Writes the graph as an edge-list (`src dst weight` per line, weight
/// omitted when it is exactly 1.0).
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# vertices {}", g.num_vertices())?;
    writeln!(w, "# edges {}", g.num_edges())?;
    for e in g.edges() {
        if e.weight == 1.0 {
            writeln!(w, "{} {}", e.src, e.dst)?;
        } else {
            writeln!(w, "{} {} {}", e.src, e.dst, e.weight)?;
        }
    }
    w.flush()
}

/// Reads an edge-list file from disk.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes an edge-list file to disk.
pub fn write_edge_list_file<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    write_edge_list(g, std::fs::File::create(path)?)
}

/// Serializes the graph into the compact binary format.
pub fn to_binary(g: &CsrGraph) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + g.num_edges() * 16);
    buf.put_slice(MAGIC);
    buf.put_u64_le(g.num_vertices() as u64);
    buf.put_u64_le(g.num_edges() as u64);
    for e in g.edges() {
        buf.put_u32_le(e.src);
        buf.put_u32_le(e.dst);
        buf.put_f64_le(e.weight);
    }
    buf.freeze()
}

/// Deserializes a graph from the binary format. The input must hold
/// exactly one graph: bytes after the last declared edge are an error.
pub fn from_binary(mut data: Bytes) -> io::Result<CsrGraph> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if data.remaining() < 24 {
        return Err(bad("truncated header"));
    }
    let mut magic = [0u8; 8];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(bad("bad magic"));
    }
    let n = data.get_u64_le();
    let m = data.get_u64_le();
    // Validate the header before trusting it: out-of-id-space vertex
    // counts and payload-exceeding (or size-overflowing) edge counts
    // come back as errors instead of panics or aborts.
    if n > MAX_VERTICES {
        return Err(bad("vertex count exceeds the u32 id space"));
    }
    let edge_bytes = m
        .checked_mul(16)
        .ok_or_else(|| bad("edge count overflows the payload size"))?;
    if (data.remaining() as u64) < edge_bytes {
        return Err(bad("truncated edge section"));
    }
    let (n, m) = (n as usize, m as usize);
    let mut b = GraphBuilder::with_capacity(n, m);
    b.reserve_vertices(n);
    for _ in 0..m {
        let src = data.get_u32_le();
        let dst = data.get_u32_le();
        let w = data.get_f64_le();
        if src as usize >= n || dst as usize >= n {
            return Err(bad("edge endpoint out of declared vertex range"));
        }
        b.add_edge(src, dst, w);
    }
    if data.has_remaining() {
        return Err(bad("trailing bytes after edge section"));
    }
    Ok(b.build())
}

/// Writes the binary format to disk.
pub fn write_binary_file<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    std::fs::write(path, to_binary(g))
}

/// Reads the binary format from disk.
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    from_binary(Bytes::from(std::fs::read(path)?))
}

/// Magic prefix of the compressed-graph binary format (version baked
/// into the magic, plus an explicit version field for minor revisions).
const COMPRESSED_MAGIC: &[u8; 8] = b"GOGRPHC1";

/// Current compressed-section format version.
const COMPRESSED_VERSION: u32 = 1;

/// Header flag bit: the graph is weighted and carries flat weight
/// streams after the adjacency sections.
const FLAG_WEIGHTED: u8 = 1;

/// Serializes a graph in the sharded compressed binary format. A graph
/// still on the flat backend is compressed first (default shard split);
/// an already-compressed graph keeps its shard boundaries.
///
/// Layout (all little-endian):
///
/// ```text
/// magic "GOGRPHC1" | u32 version | u8 flags | u64 n | u64 m | u64 k
/// shard_starts: (k+1) × u32
/// out_degrees: n × u32 | in_degrees: n × u32
/// k out-shard sections, then k in-shard sections, each:
///     offsets (shard_len+1) × u32 | u64 byte_len | bytes | u32 crc
/// [flags & WEIGHTED] out_weights m × f64 | in_weights m × f64
/// ```
///
/// Each shard section is independently framed and CRC-32'd, so shards
/// can be streamed/placed independently and corruption is localized.
pub fn compressed_to_binary(g: &CsrGraph) -> Bytes {
    let compressed;
    let g = if g.is_compressed() {
        g
    } else {
        compressed = g.compress();
        &compressed
    };
    let out = g
        .compressed_out_adjacency()
        .expect("compressed storage present");
    let inc = g
        .compressed_in_adjacency()
        .expect("compressed storage present");
    let weighted = g.compressed_out_weight_streams().is_some();

    let mut buf = BytesMut::with_capacity(
        64 + 8 * g.num_vertices() + out.payload_bytes() + inc.payload_bytes(),
    );
    buf.put_slice(COMPRESSED_MAGIC);
    buf.put_u32_le(COMPRESSED_VERSION);
    buf.put_u8(if weighted { FLAG_WEIGHTED } else { 0 });
    buf.put_u64_le(g.num_vertices() as u64);
    buf.put_u64_le(g.num_edges() as u64);
    buf.put_u64_le(out.num_shards() as u64);
    for &s in out.shard_starts() {
        buf.put_u32_le(s);
    }
    for &d in out.degrees() {
        buf.put_u32_le(d);
    }
    for &d in inc.degrees() {
        buf.put_u32_le(d);
    }
    for adj in [out, inc] {
        for shard in adj.shards() {
            let section_start = buf.len();
            for &o in shard.offsets() {
                buf.put_u32_le(o);
            }
            buf.put_u64_le(shard.byte_len() as u64);
            buf.put_slice(shard.bytes());
            let crc = crc32(&buf[section_start..]);
            buf.put_u32_le(crc);
        }
    }
    if weighted {
        let (_, ow) = g.compressed_out_weight_streams().expect("weighted");
        let (_, iw) = g.compressed_in_weight_streams().expect("weighted");
        for &w in ow {
            buf.put_f64_le(w);
        }
        for &w in iw {
            buf.put_f64_le(w);
        }
    }
    buf.freeze()
}

/// Deserializes a graph written by [`compressed_to_binary`], onto the
/// compressed backend.
///
/// Every row of both adjacency directions is fully decode-checked
/// (strictly ascending, in range, exact degree and byte consumption)
/// and every shard section's CRC verified, so corrupt or truncated
/// input surfaces as `Err` — never a panic or a silently wrong graph.
pub fn compressed_from_binary(mut data: Bytes) -> io::Result<CsrGraph> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if data.remaining() < 8 + 4 + 1 + 24 {
        return Err(bad("truncated compressed-graph header".into()));
    }
    let mut magic = [0u8; 8];
    data.copy_to_slice(&mut magic);
    if &magic != COMPRESSED_MAGIC {
        return Err(bad("bad compressed-graph magic".into()));
    }
    let version = data.get_u32_le();
    if version != COMPRESSED_VERSION {
        return Err(bad(format!(
            "unsupported compressed-graph version {version}"
        )));
    }
    let flags = data.get_u8();
    if flags & !FLAG_WEIGHTED != 0 {
        return Err(bad(format!("unknown compressed-graph flags {flags:#x}")));
    }
    let n = data.get_u64_le();
    let m = data.get_u64_le();
    let k = data.get_u64_le();
    if n > MAX_VERTICES {
        return Err(bad("vertex count exceeds the u32 id space".into()));
    }
    if k > n.max(1) {
        return Err(bad("more shards than vertices".into()));
    }
    // Fixed-size tables: (k+1) starts + 2n degrees, 4 bytes each.
    let table_bytes = (k + 1 + 2 * n)
        .checked_mul(4)
        .ok_or_else(|| bad("header counts overflow".into()))?;
    if (data.remaining() as u64) < table_bytes {
        return Err(bad("truncated shard/degree tables".into()));
    }
    let (n, m, k) = (n as usize, m as usize, k as usize);
    let shard_starts: Vec<VertexId> = (0..=k).map(|_| data.get_u32_le()).collect();
    let out_degrees: Vec<u32> = (0..n).map(|_| data.get_u32_le()).collect();
    let in_degrees: Vec<u32> = (0..n).map(|_| data.get_u32_le()).collect();
    if shard_starts.first() != Some(&0)
        || shard_starts.last().map(|&s| s as usize) != Some(n)
        || shard_starts.windows(2).any(|w| w[0] >= w[1]) && k > 0
    {
        return Err(bad("malformed shard boundaries".into()));
    }

    let mut read_shards = |direction: &str| -> io::Result<Vec<AdjacencyShard>> {
        let mut shards = Vec::with_capacity(k);
        for (si, w) in shard_starts.windows(2).enumerate() {
            let shard_len = (w[1] - w[0]) as usize;
            let offsets_bytes = ((shard_len + 1) * 4 + 8) as u64;
            if (data.remaining() as u64) < offsets_bytes {
                return Err(bad(format!("truncated {direction} shard {si} offsets")));
            }
            // CRC is over the section as written: offsets, length, bytes.
            let mut crc_acc = BytesMut::with_capacity(offsets_bytes as usize);
            let offsets: Vec<u32> = (0..=shard_len)
                .map(|_| {
                    let o = data.get_u32_le();
                    crc_acc.put_u32_le(o);
                    o
                })
                .collect();
            let byte_len = data.get_u64_le();
            crc_acc.put_u64_le(byte_len);
            if (data.remaining() as u64) < byte_len.saturating_add(4) {
                return Err(bad(format!("truncated {direction} shard {si} payload")));
            }
            let mut bytes = vec![0u8; byte_len as usize];
            data.copy_to_slice(&mut bytes);
            let stored_crc = data.get_u32_le();
            crc_acc.put_slice(&bytes);
            if crc32(&crc_acc) != stored_crc {
                return Err(bad(format!("{direction} shard {si} CRC mismatch")));
            }
            shards.push(
                AdjacencyShard::from_parts(offsets, bytes)
                    .map_err(|why| bad(format!("{direction} shard {si} malformed: {why}")))?,
            );
        }
        Ok(shards)
    };
    let out_shards = read_shards("out")?;
    let in_shards = read_shards("in")?;

    let build = |degrees: Vec<u32>, shards: Vec<AdjacencyShard>, direction: &str| {
        let adj = CompressedAdjacency::from_raw_parts(n, m, degrees, shard_starts.clone(), shards)
            .map_err(|why| bad(format!("{direction} adjacency malformed: {why}")))?;
        adj.validate()
            .map_err(|why| bad(format!("{direction} adjacency corrupt: {why}")))?;
        Ok::<_, io::Error>(adj)
    };
    let out_adj = build(out_degrees, out_shards, "out")?;
    let in_adj = build(in_degrees, in_shards, "in")?;

    let weights = if flags & FLAG_WEIGHTED != 0 {
        let weight_bytes = (m as u64)
            .checked_mul(16)
            .ok_or_else(|| bad("weight section size overflows".into()))?;
        if (data.remaining() as u64) < weight_bytes {
            return Err(bad("truncated weight streams".into()));
        }
        let ow: Vec<f64> = (0..m).map(|_| data.get_f64_le()).collect();
        let iw: Vec<f64> = (0..m).map(|_| data.get_f64_le()).collect();
        Some((ow, iw))
    } else {
        None
    };

    CsrGraph::from_compressed_adjacency(out_adj, in_adj, weights)
        .map_err(|why| bad(format!("inconsistent compressed graph: {why}")))
}

/// Writes the compressed binary format to disk (compressing a flat
/// graph on the way, see [`compressed_to_binary`]).
pub fn write_compressed_file<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    std::fs::write(path, compressed_to_binary(g))
}

/// Reads a compressed binary graph from disk onto the compressed
/// backend.
pub fn read_compressed_file<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    compressed_from_binary(Bytes::from(std::fs::read(path)?))
}

/// Magic prefix of the binary permutation format.
const PERM_MAGIC: &[u8; 8] = b"GGPERM1\0";

/// CRC-32 (IEEE 802.3, the polynomial used by zip/png/ethernet) over
/// `data`. Table-driven; the durability layer frames WAL records and
/// checkpoint files with it so torn or bit-rotted tails are detected
/// rather than replayed.
pub fn crc32(data: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    const TABLE: [u32; 256] = table();
    let mut c = !0u32;
    for &b in data {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Serializes a permutation into a compact binary form: magic, u64
/// length, then the order array as little-endian u32s. The companion of
/// [`to_binary`] for durability snapshots that must round-trip a
/// maintained processing order exactly.
pub fn permutation_to_binary(p: &crate::permutation::Permutation) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + p.len() * 4);
    buf.put_slice(PERM_MAGIC);
    buf.put_u64_le(p.len() as u64);
    for &v in p.order() {
        buf.put_u32_le(v);
    }
    buf.freeze()
}

/// Deserializes a permutation written by [`permutation_to_binary`],
/// validating the header against the payload and the content as a
/// bijection.
pub fn permutation_from_binary(mut data: Bytes) -> io::Result<crate::permutation::Permutation> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if data.remaining() < 16 {
        return Err(bad("truncated permutation header"));
    }
    let mut magic = [0u8; 8];
    data.copy_to_slice(&mut magic);
    if &magic != PERM_MAGIC {
        return Err(bad("bad permutation magic"));
    }
    let n = data.get_u64_le();
    if n > MAX_VERTICES {
        return Err(bad("permutation length exceeds the u32 id space"));
    }
    let payload = n
        .checked_mul(4)
        .ok_or_else(|| bad("permutation length overflows the payload size"))?;
    if (data.remaining() as u64) < payload {
        return Err(bad("truncated permutation body"));
    }
    let order: Vec<VertexId> = (0..n).map(|_| data.get_u32_le()).collect();
    crate::permutation::Permutation::try_from_order(order).map_err(|why| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("not a permutation: {why}"),
        )
    })
}

/// Writes a processing order as text: one vertex id per line, in
/// processing-order position (line `k` holds the vertex processed at
/// position `k`). Interoperable with the formats reordering tools like
/// Gorder/Rabbit publish orders in.
pub fn write_permutation<W: Write>(
    p: &crate::permutation::Permutation,
    writer: W,
) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# permutation {}", p.len())?;
    for &v in p.order() {
        writeln!(w, "{v}")?;
    }
    w.flush()
}

/// Reads a processing order written by [`write_permutation`].
/// Validates that the content is a bijection.
pub fn read_permutation<R: Read>(reader: R) -> io::Result<crate::permutation::Permutation> {
    let reader = BufReader::new(reader);
    let mut order = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let v: VertexId = t.parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: bad vertex id {t:?}", lineno + 1),
            )
        })?;
        order.push(v);
    }
    crate::permutation::Permutation::try_from_order(order).map_err(|why| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("not a permutation: {why}"),
        )
    })
}

/// Writes a permutation to a file.
pub fn write_permutation_file<P: AsRef<Path>>(
    p: &crate::permutation::Permutation,
    path: P,
) -> io::Result<()> {
    write_permutation(p, std::fs::File::create(path)?)
}

/// Reads a permutation from a file.
pub fn read_permutation_file<P: AsRef<Path>>(
    path: P,
) -> io::Result<crate::permutation::Permutation> {
    read_permutation(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(
            4,
            [(0u32, 1u32, 1.0), (1, 2, 2.5), (2, 3, 1.0), (3, 0, 0.25)],
        )
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_parses_comments_and_defaults() {
        let text = "# comment\n% other comment\n\n0 1\n1 2 3.5\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 2), Some(3.5));
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes()).is_err());
        assert!(read_edge_list("0\n".as_bytes()).is_err());
        assert!(read_edge_list("0 1 notafloat\n".as_bytes()).is_err());
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let bytes = to_binary(&g);
        let g2 = from_binary(bytes).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = sample();
        let bytes = to_binary(&g);
        assert!(from_binary(bytes.slice(0..10)).is_err());
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(from_binary(Bytes::from(bad)).is_err());
        // truncated edges
        assert!(from_binary(bytes.slice(0..bytes.len() - 4)).is_err());
    }

    #[test]
    fn binary_rejects_trailing_bytes() {
        let mut junk = to_binary(&sample()).to_vec();
        junk.push(0);
        let err = from_binary(Bytes::from(junk)).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let g = sample();
        let dir = std::env::temp_dir();
        let p1 = dir.join("gograph_io_test.txt");
        let p2 = dir.join("gograph_io_test.bin");
        write_edge_list_file(&g, &p1).unwrap();
        write_binary_file(&g, &p2).unwrap();
        assert_eq!(read_edge_list_file(&p1).unwrap(), g);
        assert_eq!(read_binary_file(&p2).unwrap(), g);
        let _ = std::fs::remove_file(p1);
        let _ = std::fs::remove_file(p2);
    }

    #[test]
    fn permutation_roundtrip() {
        let p = crate::permutation::Permutation::from_order(vec![2, 0, 3, 1]);
        let mut buf = Vec::new();
        write_permutation(&p, &mut buf).unwrap();
        let p2 = read_permutation(&buf[..]).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn permutation_rejects_duplicates_and_garbage() {
        assert!(read_permutation("0\n0\n1\n".as_bytes()).is_err());
        assert!(read_permutation("0\nx\n".as_bytes()).is_err());
        assert!(read_permutation("5\n".as_bytes()).is_err()); // out of range
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_ne!(crc32(b"abc"), crc32(b"abd"), "single-bit sensitivity");
    }

    #[test]
    fn binary_permutation_roundtrip() {
        let p = crate::permutation::Permutation::from_order(vec![2, 0, 3, 1]);
        let bytes = permutation_to_binary(&p);
        assert_eq!(permutation_from_binary(bytes.clone()).unwrap(), p);
        let empty = crate::permutation::Permutation::identity(0);
        assert_eq!(
            permutation_from_binary(permutation_to_binary(&empty)).unwrap(),
            empty
        );
    }

    #[test]
    fn binary_permutation_rejects_corruption() {
        let p = crate::permutation::Permutation::from_order(vec![1, 0, 2]);
        let bytes = permutation_to_binary(&p);
        // Truncated header, truncated body, bad magic, broken bijection.
        assert!(permutation_from_binary(bytes.slice(0..8)).is_err());
        assert!(permutation_from_binary(bytes.slice(0..bytes.len() - 2)).is_err());
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(permutation_from_binary(Bytes::from(bad)).is_err());
        let mut dup = bytes.to_vec();
        let body = dup.len() - 4;
        dup[body..].copy_from_slice(&1u32.to_le_bytes());
        assert!(permutation_from_binary(Bytes::from(dup)).is_err());
    }

    #[test]
    fn preserves_isolated_vertices_in_binary() {
        let mut b = GraphBuilder::new();
        b.reserve_vertices(10);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let g2 = from_binary(to_binary(&g)).unwrap();
        assert_eq!(g2.num_vertices(), 10);
    }

    fn sample_weighted_graph() -> CsrGraph {
        CsrGraph::from_edges(
            8,
            [
                (0u32, 1u32, 1.5f64),
                (0, 2, 2.0),
                (0, 3, 0.5),
                (1, 2, 3.0),
                (2, 0, 4.0),
                (3, 4, 1.0),
                (4, 5, 2.5),
                (5, 6, 0.25),
                (6, 7, 8.0),
                (7, 0, 1.0),
                (2, 7, 6.0),
            ],
        )
    }

    fn assert_same_graph(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        let key = |g: &CsrGraph| {
            let mut es: Vec<_> = g.edges().map(|e| (e.src, e.dst, e.weight)).collect();
            es.sort_by(|x, y| x.partial_cmp(y).unwrap());
            es
        };
        assert_eq!(key(a), key(b));
    }

    #[test]
    fn compressed_binary_roundtrips_weighted_graph() {
        let g = sample_weighted_graph();
        for cuts in [vec![], vec![4], vec![2, 4, 6]] {
            let c = g.compress_with_shards(&cuts);
            let back = compressed_from_binary(compressed_to_binary(&c)).unwrap();
            assert!(back.is_compressed());
            assert_eq!(back.num_shards(), c.num_shards());
            assert_same_graph(&g, &back);
            // In-direction weights survive too.
            for v in 0..g.num_vertices() as u32 {
                let mut want: Vec<_> = g.in_edges(v).collect();
                let mut got: Vec<_> = back.in_edges(v).collect();
                want.sort_by(|x, y| x.partial_cmp(y).unwrap());
                got.sort_by(|x, y| x.partial_cmp(y).unwrap());
                assert_eq!(want, got);
            }
        }
    }

    #[test]
    fn compressed_binary_roundtrips_unit_weight_graph() {
        let g = CsrGraph::from_edges(
            5,
            [
                (0u32, 1u32, 1.0f64),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 0, 1.0),
            ],
        );
        let c = g.compress();
        assert!(c.compressed_out_weight_streams().is_none());
        let bytes = compressed_to_binary(&c);
        let back = compressed_from_binary(bytes).unwrap();
        // The unit-weight optimization survives the roundtrip: no
        // weight payload written, none materialized on load.
        assert!(back.compressed_out_weight_streams().is_none());
        assert_same_graph(&g, &back);
    }

    #[test]
    fn compressed_binary_compresses_flat_input() {
        let g = sample_weighted_graph();
        let back = compressed_from_binary(compressed_to_binary(&g)).unwrap();
        assert!(back.is_compressed());
        assert_same_graph(&g, &back);
    }

    #[test]
    fn compressed_binary_roundtrips_empty_graph() {
        let g = CsrGraph::from_edges(0, std::iter::empty::<(u32, u32, f64)>());
        let back = compressed_from_binary(compressed_to_binary(&g.compress())).unwrap();
        assert_eq!(back.num_vertices(), 0);
        assert_eq!(back.num_edges(), 0);
    }

    #[test]
    fn compressed_binary_rejects_corruption() {
        let g = sample_weighted_graph().compress_with_shards(&[4]);
        let bytes = compressed_to_binary(&g);

        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(compressed_from_binary(Bytes::from(bad)).is_err());

        // Unsupported version.
        let mut bad = bytes.to_vec();
        bad[8] = 9;
        assert!(compressed_from_binary(Bytes::from(bad)).is_err());

        // Unknown flag bits.
        let mut bad = bytes.to_vec();
        bad[12] |= 0x80;
        assert!(compressed_from_binary(Bytes::from(bad)).is_err());

        // Truncation at every prefix length must be an error, never a
        // panic or a silently short graph.
        for len in 0..bytes.len() {
            assert!(
                compressed_from_binary(bytes.slice(0..len)).is_err(),
                "truncation at {len} accepted"
            );
        }

        // A flipped byte anywhere in the shard sections trips either the
        // CRC or the row validator. (Weight payloads are raw f64 streams
        // and carry no checksum; flip strictly before them.)
        let weightless = {
            let ew: Vec<(u32, u32, f64)> = sample_weighted_graph()
                .edges()
                .map(|e| (e.src, e.dst, 1.0))
                .collect();
            CsrGraph::from_edges(8, ew).compress_with_shards(&[4])
        };
        let ubytes = compressed_to_binary(&weightless);
        let header = 8 + 4 + 1 + 24;
        for i in header..ubytes.len() {
            let mut bad = ubytes.to_vec();
            bad[i] ^= 0xFF;
            assert!(
                compressed_from_binary(Bytes::from(bad)).is_err(),
                "byte flip at {i} accepted"
            );
        }
    }

    #[test]
    fn compressed_binary_rejects_lying_degree() {
        let g = sample_weighted_graph().compress();
        let bytes = compressed_to_binary(&g).to_vec();
        // out_degrees start after magic+version+flags+counts+starts.
        let starts = g.num_shards() + 1;
        let deg0 = 8 + 4 + 1 + 24 + starts * 4;
        let mut bad = bytes.clone();
        bad[deg0..deg0 + 4].copy_from_slice(&100u32.to_le_bytes());
        assert!(compressed_from_binary(Bytes::from(bad)).is_err());
        // Degree sum mismatch vs m is also caught.
        let mut bad = bytes;
        bad[deg0..deg0 + 4].copy_from_slice(&2u32.to_le_bytes());
        assert!(compressed_from_binary(Bytes::from(bad)).is_err());
    }

    #[test]
    fn compressed_file_roundtrip() {
        let dir = std::env::temp_dir().join("gograph_io_compressed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.cbin");
        let g = sample_weighted_graph().compress_with_shards(&[3, 6]);
        write_compressed_file(&g, &path).unwrap();
        let back = read_compressed_file(&path).unwrap();
        assert_same_graph(&sample_weighted_graph(), &back);
        assert_eq!(back.num_shards(), g.num_shards());
        std::fs::remove_file(&path).ok();
    }
}
