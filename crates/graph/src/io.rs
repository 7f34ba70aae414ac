//! Graph serialization: whitespace-separated edge-list text (the format of
//! SNAP / network-repository dumps the paper's datasets ship in) and a
//! compact little-endian binary format for the benchmark dataset cache.

use crate::builder::GraphBuilder;
use crate::codec::{le_f64, le_u32, DecodeError, Reader, Writer};
use crate::compressed::validate_row;
use crate::csr::{CsrGraph, PackedRows, BLOCK_ROWS};
use crate::types::{Edge, VertexId};
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
pub fn to_binary(g: &CsrGraph) -> Vec<u8> {
    let mut w = Writer::with_capacity(binary_len(g));
    write_binary(&mut w, g);
    w.into_vec()
}

/// Bytes of `g` in the binary format.
pub fn binary_len(g: &CsrGraph) -> usize {
    24 + g.num_edges() * 16
}

/// Appends `g` in the binary format to `w`: the bytes [`to_binary`]
/// returns, for a caller that embeds them in a larger buffer without a
/// copy of its own.
pub fn write_binary(w: &mut Writer, g: &CsrGraph) {
    w.bytes(MAGIC);
    w.u64(g.num_vertices() as u64);
    w.u64(g.num_edges() as u64);
    for e in g.edges() {
        w.u32(e.src);
        w.u32(e.dst);
        w.f64(e.weight);
    }
}

/// Deserializes a graph from the binary format. The input must hold
/// exactly one graph, written the way [`to_binary`] writes it: edge
/// records strictly ascending in `(src, dst)` — so no pair twice — and
/// nothing after the last one. Any other input is an error naming the
/// offending record, so one graph has exactly one encoding.
pub fn from_binary(data: &[u8]) -> io::Result<CsrGraph> {
    let mut r = Reader::new("GOGRAPH1 graph", data);
    r.magic(MAGIC)?;
    let n = r.u64("vertex count")?;
    if n > MAX_VERTICES {
        return Err(r.invalid("vertex count", "exceeds the u32 id space").into());
    }
    let m = r.u64("edge count")? as usize;
    let start = r.offset();
    let edges = r.elements(m, 16, "edges")?;
    r.finish()?;
    let records = edges.chunks_exact(16).map(|e| Edge {
        src: le_u32(e),
        dst: le_u32(&e[4..]),
        weight: le_f64(&e[8..]),
    });
    let mut last = None;
    for (i, e) in records.clone().enumerate() {
        let problem = if u64::from(e.src.max(e.dst)) >= n {
            format!("edge {i} leaves the vertex range")
        } else if last >= Some((e.src, e.dst)) {
            format!(
                "edge {i} does not follow edge {} in (src, dst) order",
                i - 1
            )
        } else {
            last = Some((e.src, e.dst));
            continue;
        };
        return Err(r.error_at(start + 16 * i, "edges", problem).into());
    }
    Ok(CsrGraph::from_sorted_edges(n as usize, records))
}

/// Writes the binary format to disk.
pub fn write_binary_file<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    std::fs::write(path, to_binary(g))
}

/// Reads the binary format from disk.
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    from_binary(&std::fs::read(path)?)
}

/// Magic prefix of the compressed-graph binary format (version baked
/// into the magic, plus an explicit version field for minor revisions).
const COMPRESSED_MAGIC: &[u8; 8] = b"GOGRPHC1";

/// Current compressed-section format version.
const COMPRESSED_VERSION: u32 = 1;

/// Header flag bit: the graph is weighted and carries flat weight
/// streams after the adjacency sections.
const FLAG_WEIGHTED: u8 = 1;

/// Serializes a graph in the compressed binary format, one shard
/// section per row block. A flat graph is compressed first.
///
/// Layout (all little-endian):
///
/// ```text
/// magic "GOGRPHC1" | u32 version | u8 flags | u64 n | u64 m | u64 k
/// shard cuts: (k+1) × u32 (ascending, 0 first, n last)
/// out_degrees: n × u32 | in_degrees: n × u32
/// k out-shard sections, then k in-shard sections, each:
///     offsets (shard_len+1) × u32 | u64 byte_len | bytes | u32 crc
/// [flags & WEIGHTED] out_weights m × f64 | in_weights m × f64
/// ```
///
/// A shard is a contiguous vertex range; the writer cuts at the row
/// blocks (`k = ⌈n / BLOCK_ROWS⌉`), and [`compressed_from_binary`]
/// accepts any ascending cut. Each shard section is independently
/// framed and CRC-32'd, so corruption is localized. The weights are
/// written when any edge weight is not `1.0`.
pub fn compressed_to_binary(g: &CsrGraph) -> Vec<u8> {
    let compressed;
    let g = if g.is_compressed() {
        g
    } else {
        compressed = g.compress();
        &compressed
    };
    let n = g.num_vertices();
    let directions = [g.out_rows(), g.in_rows()];
    let weighted = g.weight_bytes() > 0;
    let mut w = Writer::with_capacity(64 + 12 * n + g.adjacency_bytes());
    w.bytes(COMPRESSED_MAGIC);
    w.u32(COMPRESSED_VERSION);
    w.u8(if weighted { FLAG_WEIGHTED } else { 0 });
    w.u64(n as u64);
    w.u64(g.num_edges() as u64);
    w.u64(n.div_ceil(BLOCK_ROWS) as u64);
    for start in (0..n).step_by(BLOCK_ROWS).chain([n]) {
        w.u32(start as u32);
    }
    for rows in directions {
        for v in g.vertices() {
            w.u32(rows.degree(v) as u32);
        }
    }
    for rows in directions {
        for (offsets, bytes) in rows.packed_blocks() {
            let section_start = w.len();
            w.u32s(offsets);
            w.u64(bytes.len() as u64);
            w.bytes(bytes);
            let crc = crc32(&w[section_start..]);
            w.u32(crc);
        }
    }
    if weighted {
        for rows in directions {
            for v in g.vertices() {
                rows.for_each_edge(v, true, |_, weight| w.f64(weight));
            }
        }
    }
    w.into_vec()
}

/// Deserializes a graph written by [`compressed_to_binary`] (at any
/// shard cut), onto compressed storage.
///
/// Every row of both adjacency directions is fully decode-checked
/// (strictly ascending, in range, exact degree and byte consumption),
/// every shard section's CRC verified and bytes after the last section
/// refused, so corrupt or truncated input surfaces as `Err` — never a
/// panic or a silently wrong graph.
pub fn compressed_from_binary(data: &[u8]) -> io::Result<CsrGraph> {
    let mut r = Reader::new("GOGRPHC1 compressed graph", data);
    r.magic(COMPRESSED_MAGIC)?;
    let version = r.u32("version")?;
    if version != COMPRESSED_VERSION {
        return Err(r
            .invalid("version", format!("unsupported version {version}"))
            .into());
    }
    let flags = r.u8_as("flags", |f| (f & !FLAG_WEIGHTED == 0).then_some(f))?;
    let n = r.u64("vertex count")?;
    if n > MAX_VERTICES {
        return Err(r.invalid("vertex count", "exceeds the u32 id space").into());
    }
    let m = r.u64("edge count")? as usize;
    let k = r.u64("shard count")?;
    if k > n.max(1) {
        return Err(r.invalid("shard count", "more shards than vertices").into());
    }
    let (n, k) = (n as usize, k as usize);
    let cuts: Vec<VertexId> = r.u32s(k + 1, "shard starts")?;
    if cuts.first() != Some(&0)
        || cuts.last().map(|&s| s as usize) != Some(n)
        || cuts.windows(2).any(|w| w[0] >= w[1]) && k > 0
    {
        return Err(r
            .invalid("shard starts", "malformed shard boundaries")
            .into());
    }
    let degrees_at = r.offset();
    let out_degrees = r.u32s(n, "out-degrees")?;
    let in_degrees = r.u32s(n, "in-degrees")?;

    // Each direction's row runs, sliced out of its shard sections.
    let mut read_runs = |direction: &str| -> Result<Vec<&[u8]>, DecodeError> {
        let mut runs = Vec::with_capacity(n);
        for (si, w) in cuts.windows(2).enumerate() {
            // The CRC covers the section as written: offsets, length, bytes.
            let section_start = r.offset();
            let offsets = r.u32s((w[1] - w[0]) as usize + 1, "shard offsets")?;
            let byte_len = r.u64("shard byte length")?;
            let bytes = r.slice(byte_len as usize, "shard bytes")?;
            let section = &data[section_start..r.offset()];
            let stored_crc = r.u32("shard crc")?;
            let bad = |why: &str| {
                r.error_at(
                    section_start,
                    "shard",
                    format!("{direction} shard {si} {why}"),
                )
            };
            if crc32(section) != stored_crc {
                return Err(bad("CRC mismatch"));
            }
            if offsets[0] != 0
                || offsets.windows(2).any(|p| p[0] > p[1])
                || offsets[offsets.len() - 1] as usize != bytes.len()
            {
                return Err(bad(
                    "malformed: offsets must run from 0 up to the payload length",
                ));
            }
            runs.extend(
                offsets
                    .windows(2)
                    .map(|p| &bytes[p[0] as usize..p[1] as usize]),
            );
        }
        Ok(runs)
    };
    let out_runs = read_runs("out")?;
    let in_runs = read_runs("in")?;
    for (direction, degrees, runs) in [
        ("out", &out_degrees, &out_runs),
        ("in", &in_degrees, &in_runs),
    ] {
        let total: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
        (0..n as VertexId)
            .try_for_each(|v| validate_row(v, degrees[v as usize], runs[v as usize], n))
            .and_then(|()| {
                (total == m as u64)
                    .then_some(())
                    .ok_or_else(|| format!("degree sum {total} != declared edge count {m}"))
            })
            .map_err(|why| {
                r.error_at(
                    degrees_at,
                    "degrees",
                    format!("{direction} adjacency: {why}"),
                )
            })?;
    }

    let weights = if flags & FLAG_WEIGHTED != 0 {
        Some((r.f64s(m, "out-weights")?, r.f64s(m, "in-weights")?))
    } else {
        None
    };
    r.finish()?;
    let (out_weights, in_weights) = weights.as_ref().map(|(o, i)| (&o[..], &i[..])).unzip();
    CsrGraph::from_packed_rows(
        m,
        PackedRows {
            degrees: &out_degrees,
            runs: out_runs,
            weights: out_weights,
        },
        PackedRows {
            degrees: &in_degrees,
            runs: in_runs,
            weights: in_weights,
        },
    )
    .map_err(|why| r.error_at(degrees_at, "degrees", why).into())
}

/// Writes the compressed binary format to disk (compressing a flat
/// graph on the way, see [`compressed_to_binary`]).
pub fn write_compressed_file<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    std::fs::write(path, compressed_to_binary(g))
}

/// Reads a compressed binary graph from disk onto compressed storage.
pub fn read_compressed_file<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    compressed_from_binary(&std::fs::read(path)?)
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
pub fn permutation_to_binary(p: &crate::permutation::Permutation) -> Vec<u8> {
    let mut w = Writer::with_capacity(16 + p.len() * 4);
    w.bytes(PERM_MAGIC);
    w.u64(p.len() as u64);
    w.u32s(p.order());
    w.into_vec()
}

/// Deserializes a permutation written by [`permutation_to_binary`],
/// validating the header against the payload and the content as a
/// bijection. Bytes after the order are an error.
pub fn permutation_from_binary(data: &[u8]) -> io::Result<crate::permutation::Permutation> {
    let mut r = Reader::new("GGPERM1 permutation", data);
    r.magic(PERM_MAGIC)?;
    let n = r.u64("length")?;
    if n > MAX_VERTICES {
        return Err(r.invalid("length", "exceeds the u32 id space").into());
    }
    let order = r.u32s(n as usize, "order")?;
    r.finish()?;
    crate::permutation::Permutation::try_from_order(order).map_err(|why| {
        r.invalid("order", format!("not a permutation: {why}"))
            .into()
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
        let g2 = from_binary(&bytes).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = sample();
        let bytes = to_binary(&g);
        assert!(from_binary(&bytes[..10]).is_err());
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(from_binary(&bad).is_err());
        // truncated edges
        assert!(from_binary(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn binary_rejects_trailing_bytes() {
        let mut junk = to_binary(&sample()).to_vec();
        junk.push(0);
        let err = from_binary(&junk).unwrap_err();
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
        assert_eq!(permutation_from_binary(&bytes).unwrap(), p);
        let empty = crate::permutation::Permutation::identity(0);
        assert_eq!(
            permutation_from_binary(&permutation_to_binary(&empty)).unwrap(),
            empty
        );
    }

    #[test]
    fn binary_permutation_rejects_corruption() {
        let p = crate::permutation::Permutation::from_order(vec![1, 0, 2]);
        let bytes = permutation_to_binary(&p);
        // Truncated header, truncated body, bad magic, broken bijection.
        assert!(permutation_from_binary(&bytes[..8]).is_err());
        assert!(permutation_from_binary(&bytes[..bytes.len() - 2]).is_err());
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(permutation_from_binary(&bad).is_err());
        let mut dup = bytes.to_vec();
        let body = dup.len() - 4;
        dup[body..].copy_from_slice(&1u32.to_le_bytes());
        assert!(permutation_from_binary(&dup).is_err());
    }

    #[test]
    fn preserves_isolated_vertices_in_binary() {
        let mut b = GraphBuilder::new();
        b.reserve_vertices(10);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let g2 = from_binary(&to_binary(&g)).unwrap();
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
            let back = compressed_from_binary(&compressed_to_binary(&c)).unwrap();
            assert_eq!(back, c, "a round trip restores the very blocks");
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
        assert_eq!(c.weight_bytes(), 0);
        let bytes = compressed_to_binary(&c);
        let back = compressed_from_binary(&bytes).unwrap();
        // The unit-weight optimization survives the roundtrip: no
        // weight payload written, none materialized on load.
        assert_eq!(bytes[12], 0, "no weight flag");
        assert_eq!(back.weight_bytes(), 0);
        assert_same_graph(&g, &back);
    }

    #[test]
    fn compressed_binary_compresses_flat_input() {
        let g = sample_weighted_graph();
        let back = compressed_from_binary(&compressed_to_binary(&g)).unwrap();
        assert!(back.is_compressed());
        assert_same_graph(&g, &back);
    }

    #[test]
    fn compressed_binary_roundtrips_empty_graph() {
        let g = CsrGraph::from_edges(0, std::iter::empty::<(u32, u32, f64)>());
        let back = compressed_from_binary(&compressed_to_binary(&g.compress())).unwrap();
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
        assert!(compressed_from_binary(&bad).is_err());

        // Unsupported version.
        let mut bad = bytes.to_vec();
        bad[8] = 9;
        assert!(compressed_from_binary(&bad).is_err());

        // Unknown flag bits.
        let mut bad = bytes.to_vec();
        bad[12] |= 0x80;
        assert!(compressed_from_binary(&bad).is_err());

        // Truncation at every prefix length must be an error, never a
        // panic or a silently short graph.
        for len in 0..bytes.len() {
            assert!(
                compressed_from_binary(&bytes[..len]).is_err(),
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
                compressed_from_binary(&bad).is_err(),
                "byte flip at {i} accepted"
            );
        }
    }

    #[test]
    fn compressed_binary_rejects_lying_degree() {
        let g = sample_weighted_graph().compress();
        let bytes = compressed_to_binary(&g).to_vec();
        // out_degrees start after magic+version+flags+counts+starts.
        let starts = g.num_vertices().div_ceil(BLOCK_ROWS) + 1;
        let deg0 = 8 + 4 + 1 + 24 + starts * 4;
        let mut bad = bytes.clone();
        bad[deg0..deg0 + 4].copy_from_slice(&100u32.to_le_bytes());
        assert!(compressed_from_binary(&bad).is_err());
        // Degree sum mismatch vs m is also caught.
        let mut bad = bytes;
        bad[deg0..deg0 + 4].copy_from_slice(&2u32.to_le_bytes());
        assert!(compressed_from_binary(&bad).is_err());
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
        assert_eq!(back, g);
        std::fs::remove_file(&path).ok();
    }
}
