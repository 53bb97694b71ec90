//! BDRM v4: the snapshot format, a flat layout that *is* the query
//! index.
//!
//! The file serializes the derived structures a [`QueryIndex`] build
//! produces — arenas and sorted side-tables — directly as fixed-width,
//! little-endian records, so loading is read + verify + validate and a
//! [`V3View`] answers queries straight from the file bytes, with
//! nothing parsed or rebuilt. ([`V3View`] and [`encode_v3`] are named
//! for v3, the version that introduced the flat layout.)
//!
//! Layout (after the `"BDRM"` magic + big-endian `u16` version
//! preamble, the body is entirely little-endian; every section is
//! followed by the little-endian CRC32C of its body, and the file
//! closes with a footer CRC32C over the preamble and those stored
//! CRCs, so sealing or verifying a file hashes each byte once):
//!
//! ```text
//! header         := u64 packets | u64 elapsed_ms | u32 n_routers |
//!                   u32 n_links | u32 n_addrs | u32 n_neighbors |
//!                   u32 n_border | u32 n_hosts | u32 reserved(0)
//! routers        := router * n_routers
//! addrs          := u32 * n_addrs            (shared interface arena)
//! links          := link * n_links
//! link_arena     := u32 * n_links            (link ids grouped by AS)
//! neighbor_index := (u32 asn | u32 start | u32 end) * n_neighbors
//! border_index   := (u32 addr | u32 link) * n_border
//! host_index     := (u32 addr | u32 router) * n_hosts
//! footer         := u32 crc32c(preamble | the header's and every
//!                                section's stored crc, in file order)
//!
//! router := u32 owner_asn(0 if none) | u8 flags(bit0 has_owner) |
//!           u8 heuristic(255 = none) | u8 min_hop | u8 pad(0) |
//!           u32 addr_start | u32 n_addrs | u32 n_other
//! link   := u32 near | u32 far(0 if none) | u32 far_as |
//!           u32 near_addr(0 if none) | u32 far_addr(0 if none) |
//!           u8 flags(bit0 far, bit1 near_addr, bit2 far_addr) |
//!           u8 heuristic | u16 pad(0)
//! ```
//!
//! Section offsets are fully determined by the header counts (every
//! record is fixed width), so the encoding is canonical: a given
//! [`BorderMap`] has exactly one v4 byte string, and
//! `encode_v3(decode(bytes)) == bytes` holds for every file
//! [`encode_v3`] wrote. It does not hold for every *accepted* file: a
//! file whose checksums verify is trusted as written, because a writer
//! able to seal CRCs could have encoded any map, and the structural
//! pass checks what the read path relies on, not that the tables are
//! the ones the builder would derive. (A re-sealed host entry can name
//! a different owned router than the router table lists for that
//! address, or a border entry a higher link id than the lowest.) What
//! holds for every accepted file is that no query panics.
//!
//! The host index holds one entry per interface `/32` of an owned
//! router, sorted by address; where several routers list an address,
//! the lowest router id (the first to claim it) keeps it. The serving
//! layer's configured prefix-owner overlay stays out of the file and is
//! rebuilt as a small side trie at view-open; a host entry outranks any
//! overlay prefix, exactly as a router `/32` does in a merged heap
//! build.
//!
//! Integrity and structure are validated once, at open, in two stages:
//! [`verify_integrity`] checks magic, version, exact length, and every
//! checksum; [`validate_structure`] then runs the structural pass —
//! arena ranges tile exactly, index tables are strictly ascending, and
//! every host entry names an in-range router with an owner — so
//! per-query access trusts nothing beyond plain slice indexing.

use crate::output::{BorderMap, Heuristic, InferredLink, InferredRouter};
use crate::query::{BorderAnswer, LinkRec, OwnerAnswer, QueryRead, RouterRec, TrieEntry};
use crate::snapshot::SnapshotError;
use crate::QueryIndex;
use bdrmap_types::integrity::{crc32c, Crc32c};
use bdrmap_types::{addr, addr_bits, Addr, Asn, Prefix, PrefixTrie};

/// Snapshot format version this module implements.
pub const VERSION: u16 = 4;
/// Heuristic byte meaning "no heuristic recorded".
const NO_HEURISTIC: u8 = 255;

/// Bytes of magic + big-endian version preamble.
const PREAMBLE: usize = 6;
/// Fixed header section body size.
const HEADER_BYTES: usize = 8 + 8 + 4 * 7;
const ROUTER_BYTES: usize = 20;
const LINK_BYTES: usize = 24;
const NEIGHBOR_BYTES: usize = 12;
const BORDER_BYTES: usize = 8;
const HOST_BYTES: usize = 8;
/// Per-section trailing CRC32C.
const CRC_BYTES: usize = 4;

/// Section counts and byte offsets of a v4 file, derived from the
/// header. Offsets point at section *bodies*; each body is followed by
/// its 4-byte CRC32C.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// Router record count.
    pub n_routers: usize,
    /// Link record count (also the link-arena length).
    pub n_links: usize,
    /// Shared address-arena length.
    pub n_addrs: usize,
    /// Neighbor-index entry count.
    pub n_neighbors: usize,
    /// Border-index entry count.
    pub n_border: usize,
    /// Host-index entry count: one per owned router interface address.
    pub n_hosts: usize,
    /// Byte offset of the router section body.
    pub routers: usize,
    /// Byte offset of the address arena.
    pub addrs: usize,
    /// Byte offset of the link section body.
    pub links: usize,
    /// Byte offset of the link arena.
    pub link_arena: usize,
    /// Byte offset of the neighbor index.
    pub neighbor_index: usize,
    /// Byte offset of the border index.
    pub border_index: usize,
    /// Byte offset of the host index.
    pub host_index: usize,
    /// Total file size, footer included.
    pub total: usize,
}

impl Layout {
    fn from_counts(counts: [usize; 6]) -> Option<Layout> {
        let [n_routers, n_links, n_addrs, n_neighbors, n_border, n_hosts] = counts;
        let mut off = PREAMBLE + HEADER_BYTES + CRC_BYTES;
        let mut section = |n: usize, width: usize| -> Option<usize> {
            let here = off;
            off = off
                .checked_add(n.checked_mul(width)?)?
                .checked_add(CRC_BYTES)?;
            Some(here)
        };
        let routers = section(n_routers, ROUTER_BYTES)?;
        let addrs = section(n_addrs, 4)?;
        let links = section(n_links, LINK_BYTES)?;
        let link_arena = section(n_links, 4)?;
        let neighbor_index = section(n_neighbors, NEIGHBOR_BYTES)?;
        let border_index = section(n_border, BORDER_BYTES)?;
        let host_index = section(n_hosts, HOST_BYTES)?;
        Some(Layout {
            n_routers,
            n_links,
            n_addrs,
            n_neighbors,
            n_border,
            n_hosts,
            routers,
            addrs,
            links,
            link_arena,
            neighbor_index,
            border_index,
            host_index,
            total: off.checked_add(CRC_BYTES)?,
        })
    }

    /// `(name, body_start, body_len)` for every checksummed section,
    /// the header first, in file order.
    fn sections(&self) -> [(&'static str, usize, usize); 8] {
        [
            ("header", PREAMBLE, HEADER_BYTES),
            ("routers", self.routers, self.n_routers * ROUTER_BYTES),
            ("addrs", self.addrs, self.n_addrs * 4),
            ("links", self.links, self.n_links * LINK_BYTES),
            ("link_arena", self.link_arena, self.n_links * 4),
            (
                "neighbor_index",
                self.neighbor_index,
                self.n_neighbors * NEIGHBOR_BYTES,
            ),
            (
                "border_index",
                self.border_index,
                self.n_border * BORDER_BYTES,
            ),
            ("host_index", self.host_index, self.n_hosts * HOST_BYTES),
        ]
    }
}

fn u16_be_at(d: &[u8], off: usize) -> u16 {
    u16::from_be_bytes(d[off..off + 2].try_into().unwrap())
}

fn u32_at(d: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(d[off..off + 4].try_into().unwrap())
}

fn u64_at(d: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(d[off..off + 8].try_into().unwrap())
}

fn put32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a section body and room for its CRC, which [`seal`] fills.
fn section(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    body(out);
    out.extend_from_slice(&[0; CRC_BYTES]);
}

/// The footer CRC: the preamble, then every stored section CRC in file
/// order. The section CRCs already cover the bodies, so no body byte is
/// hashed twice.
fn footer_crc(data: &[u8], lay: &Layout) -> u32 {
    let mut h = Crc32c::new();
    h.update(&data[..PREAMBLE]);
    for (_, start, len) in lay.sections() {
        h.update(&data[start + len..start + len + CRC_BYTES]);
    }
    h.finalize()
}

/// Write the checksums of a file laid out as `lay`: each section's
/// CRC32C after its body, then the footer over the preamble and those
/// CRCs. This is the one sealing rule; [`encode_v3`] ends with it and
/// [`verify_integrity`] checks what it wrote.
///
/// # Panics
///
/// If `data` is not exactly `lay.total` bytes long.
pub fn seal(data: &mut [u8], lay: &Layout) {
    assert_eq!(data.len(), lay.total, "sealing against another layout");
    for (_, start, len) in lay.sections() {
        let crc = crc32c(&data[start..start + len]);
        data[start + len..start + len + CRC_BYTES].copy_from_slice(&crc.to_le_bytes());
    }
    let crc = footer_crc(data, lay);
    data[lay.total - CRC_BYTES..].copy_from_slice(&crc.to_le_bytes());
}

/// Serialize a border map to the canonical v4 flat encoding. The
/// derived tables come from the [`QueryIndex`] builder, so a v4 file is
/// byte-for-byte the structure a from-scratch heap build would produce.
pub fn encode_v3(map: &BorderMap) -> Result<Vec<u8>, SnapshotError> {
    let idx = QueryIndex::build(map);
    // The flat table keeps no dead rows: where an interface fronts
    // several links, only the winning (lowest) link id is stored.
    let mut border: Vec<(Addr, u32)> = idx.border_index.clone();
    border.dedup_by_key(|&mut (a, _)| a);
    // A build without a prefix layer holds only router `/32`s, already
    // resolved to the first router claiming each address, and the
    // trie's in-order walk yields them sorted by address.
    let hosts: Vec<(Addr, u32)> = idx
        .trie
        .iter()
        .filter_map(|(p, entry)| match *entry {
            TrieEntry::Router(r) => Some((p.network(), r)),
            TrieEntry::Owner(_) => None,
        })
        .collect();
    let counts = [
        ("routers", map.routers.len()),
        ("links", map.links.len()),
        ("addrs", idx.addr_arena.len()),
        ("neighbors", idx.neighbor_index.len()),
        ("border entries", border.len()),
        ("host entries", hosts.len()),
    ];
    for (what, n) in counts {
        if u32::try_from(n).is_err() {
            return Err(SnapshotError::TooLarge(what));
        }
    }
    let lay = Layout::from_counts(counts.map(|(_, n)| n)).ok_or(SnapshotError::TooLarge("file"))?;

    let mut out = Vec::with_capacity(lay.total);
    out.extend_from_slice(b"BDRM");
    out.extend_from_slice(&VERSION.to_be_bytes());
    section(&mut out, |o| {
        put64(o, map.packets);
        put64(o, map.elapsed_ms);
        for (_, n) in counts {
            put32(o, n as u32);
        }
        put32(o, 0); // reserved
    });
    section(&mut out, |o| {
        for (router, rec) in map.routers.iter().zip(&idx.routers) {
            put32(o, rec.owner.map(|a| a.0).unwrap_or(0));
            o.push(rec.owner.is_some() as u8);
            o.push(rec.heuristic.map(Heuristic::code).unwrap_or(NO_HEURISTIC));
            o.push(rec.min_hop);
            o.push(0);
            put32(o, rec.addr_start);
            put32(o, router.addrs.len() as u32);
            put32(o, router.other_addrs.len() as u32);
        }
    });
    section(&mut out, |o| {
        for &a in &idx.addr_arena {
            put32(o, addr_bits(a));
        }
    });
    section(&mut out, |o| {
        for l in &idx.links {
            put32(o, l.near);
            put32(o, l.far.unwrap_or(0));
            put32(o, l.far_as.0);
            put32(o, l.near_addr.map(addr_bits).unwrap_or(0));
            put32(o, l.far_addr.map(addr_bits).unwrap_or(0));
            o.push(
                l.far.is_some() as u8
                    | (l.near_addr.is_some() as u8) << 1
                    | (l.far_addr.is_some() as u8) << 2,
            );
            o.push(l.heuristic.code());
            o.extend_from_slice(&[0, 0]);
        }
    });
    section(&mut out, |o| {
        for &id in &idx.link_arena {
            put32(o, id);
        }
    });
    section(&mut out, |o| {
        for &(asn, start, end) in &idx.neighbor_index {
            put32(o, asn.0);
            put32(o, start);
            put32(o, end);
        }
    });
    for table in [&border, &hosts] {
        section(&mut out, |o| {
            for &(a, id) in table {
                put32(o, addr_bits(a));
                put32(o, id);
            }
        });
    }
    out.extend_from_slice(&[0; CRC_BYTES]); // footer
    seal(&mut out, &lay);
    Ok(out)
}

/// Stage one of opening a v4 file: magic, version, exact length, and
/// every checksum. Any version but [`VERSION`] — the retired v1–v3
/// encodings included — is [`SnapshotError::BadVersion`]. The header
/// CRC is checked first, since the counts come from it; then the footer
/// over the preamble and the stored CRCs ([`SnapshotError::FooterCrc`]
/// when a stored CRC was damaged); then each section body against its
/// stored CRC. Returns the derived [`Layout`] on success. Structural
/// validation (the index-level trust pass) is stage two,
/// [`validate_structure`].
pub fn verify_integrity(data: &[u8]) -> Result<Layout, SnapshotError> {
    if data.len() < 4 || &data[..4] != b"BDRM" {
        return Err(SnapshotError::BadMagic);
    }
    if data.len() < PREAMBLE {
        return Err(SnapshotError::Malformed);
    }
    let version = u16_be_at(data, 4);
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    if data.len() < PREAMBLE + HEADER_BYTES + CRC_BYTES {
        return Err(SnapshotError::Malformed);
    }
    let header = &data[PREAMBLE..PREAMBLE + HEADER_BYTES];
    if crc32c(header) != u32_at(data, PREAMBLE + HEADER_BYTES) {
        return Err(SnapshotError::SectionCrc("header"));
    }
    let mut counts = [0usize; 6];
    for (i, c) in counts.iter_mut().enumerate() {
        *c = u32_at(data, PREAMBLE + 16 + 4 * i) as usize;
    }
    if u32_at(data, PREAMBLE + 16 + 4 * 6) != 0 {
        return Err(SnapshotError::Malformed);
    }
    let lay = Layout::from_counts(counts).ok_or(SnapshotError::Malformed)?;
    if lay.total != data.len() {
        return Err(SnapshotError::Malformed);
    }
    if footer_crc(data, &lay) != u32_at(data, lay.total - CRC_BYTES) {
        return Err(SnapshotError::FooterCrc);
    }
    for (name, start, len) in lay.sections().into_iter().skip(1) {
        if crc32c(&data[start..start + len]) != u32_at(data, start + len) {
            return Err(SnapshotError::SectionCrc(name));
        }
    }
    Ok(lay)
}

/// A zero-copy query index over verified v4 snapshot bytes.
///
/// Answers byte-identically to a heap [`QueryIndex`] built from the
/// same map (and the same prefix-owner overlay): the file carries the
/// exact tables the builder produces, and the one-time validation pass
/// at open makes every later access plain slice indexing.
pub struct V3View {
    data: Vec<u8>,
    lay: Layout,
    packets: u64,
    elapsed_ms: u64,
    /// Configured prefix-owner overlay, rebuilt per open; host entries
    /// outrank it, exactly as router `/32`s do in a merged heap build.
    side: PrefixTrie<Asn>,
    /// Side `/32` prefixes exactly shadowed by a host entry — one
    /// merged-trie entry, not two, for stats parity with the heap build.
    shadowed: u32,
}

/// Proof token returned by [`validate_structure`]: evidence the
/// structural pass ran, which [`V3View::from_validated`] requires.
#[derive(Clone, Copy, Debug)]
pub struct Validated(());

/// Stage two of loading: the structural validation pass over bytes
/// whose checksums already passed [`verify_integrity`] — one linear
/// scan, no allocation proportional to the map. Together those two
/// stages are everything a reader must check before trusting the
/// bytes, charged to the *load* phase of a reload. What is left for the
/// build phase ([`V3View::from_validated`]) is only overlay assembly.
pub fn validate_structure(data: &[u8], lay: &Layout) -> Result<Validated, SnapshotError> {
    let d = data;
    let bad = Err(SnapshotError::Malformed);
    // Per-section slices: the bounds proof happens once here, so
    // the hot validation loops below compile to straight-line reads
    // of fixed-width records instead of per-field checked indexing.
    let routers_sec = &d[lay.routers..lay.routers + lay.n_routers * ROUTER_BYTES];
    let links_sec = &d[lay.links..lay.links + lay.n_links * LINK_BYTES];
    let arena_sec = &d[lay.link_arena..lay.link_arena + lay.n_links * 4];
    let neigh_sec = &d[lay.neighbor_index..lay.neighbor_index + lay.n_neighbors * NEIGHBOR_BYTES];
    let border_sec = &d[lay.border_index..lay.border_index + lay.n_border * BORDER_BYTES];
    let host_sec = &d[lay.host_index..lay.host_index + lay.n_hosts * HOST_BYTES];

    // Routers: arena ranges tile [0, n_addrs) exactly in record
    // order; flags and pads are canonical; heuristics decode. The
    // ownership bitmap feeds the host pass below: its random lookups
    // hit a few KB instead of the whole router section.
    let mut running = 0u64;
    let mut owned = vec![0u64; lay.n_routers.div_ceil(64)];
    for (i, rec) in routers_sec.chunks_exact(ROUTER_BYTES).enumerate() {
        let flags = rec[4];
        if flags > 1 || rec[7] != 0 {
            return bad;
        }
        if flags == 0 && u32_at(rec, 0) != 0 {
            return bad;
        }
        if flags == 1 {
            owned[i / 64] |= 1 << (i % 64);
        }
        let h = rec[5];
        if h != NO_HEURISTIC && Heuristic::from_code(h).is_none() {
            return bad;
        }
        if u32_at(rec, 8) as u64 != running {
            return bad;
        }
        running += u32_at(rec, 12) as u64 + u32_at(rec, 16) as u64;
        if running > lay.n_addrs as u64 {
            return bad;
        }
    }
    if running != lay.n_addrs as u64 {
        return bad;
    }
    // Links: router references in range, canonical absent fields,
    // known heuristics. The compact per-link side tables let the
    // arena and border passes below resolve their random link
    // references out of ~a quarter of the section's footprint.
    let mut link_flags = Vec::with_capacity(lay.n_links);
    let mut link_far_as = Vec::with_capacity(lay.n_links);
    let mut link_near_addr = Vec::with_capacity(lay.n_links);
    let mut link_far_addr = Vec::with_capacity(lay.n_links);
    for rec in links_sec.chunks_exact(LINK_BYTES) {
        let flags = rec[20];
        if flags > 7 || rec[22] != 0 || rec[23] != 0 {
            return bad;
        }
        if u32_at(rec, 0) as usize >= lay.n_routers {
            return bad;
        }
        let far = u32_at(rec, 4);
        if flags & 1 != 0 {
            if far as usize >= lay.n_routers {
                return bad;
            }
        } else if far != 0 {
            return bad;
        }
        if flags & 2 == 0 && u32_at(rec, 12) != 0 {
            return bad;
        }
        if flags & 4 == 0 && u32_at(rec, 16) != 0 {
            return bad;
        }
        if Heuristic::from_code(rec[21]).is_none() {
            return bad;
        }
        link_flags.push(flags);
        link_far_as.push(u32_at(rec, 8));
        link_near_addr.push(u32_at(rec, 12));
        link_far_addr.push(u32_at(rec, 16));
    }

    // Neighbor index + link arena: strictly ascending ASes, ranges
    // tiling [0, n_links), ascending link ids per range, and every
    // id's far AS matching its group — together a bijection onto
    // the link table.
    let mut prev_asn: Option<u32> = None;
    let mut cursor = 0usize;
    for rec in neigh_sec.chunks_exact(NEIGHBOR_BYTES) {
        let asn = u32_at(rec, 0);
        if prev_asn.is_some_and(|p| p >= asn) {
            return bad;
        }
        prev_asn = Some(asn);
        let (start, end) = (u32_at(rec, 4) as usize, u32_at(rec, 8) as usize);
        if start != cursor || end <= start || end > lay.n_links {
            return bad;
        }
        cursor = end;
        let mut prev_id: Option<u32> = None;
        for slot in arena_sec[start * 4..end * 4].chunks_exact(4) {
            let id = u32_at(slot, 0);
            if id as usize >= lay.n_links || prev_id.is_some_and(|p| p >= id) {
                return bad;
            }
            prev_id = Some(id);
            if link_far_as[id as usize] != asn {
                return bad;
            }
        }
    }
    if cursor != lay.n_links {
        return bad;
    }

    // Border index: strictly ascending addresses (first-per-addr
    // dedup leaves them unique), link ids in range, and each address
    // actually an interface of its link.
    let mut prev_addr: Option<u32> = None;
    for rec in border_sec.chunks_exact(BORDER_BYTES) {
        let a = u32_at(rec, 0);
        if prev_addr.is_some_and(|p| p >= a) {
            return bad;
        }
        prev_addr = Some(a);
        let link = u32_at(rec, 4);
        if link as usize >= lay.n_links {
            return bad;
        }
        let flags = link_flags[link as usize];
        let near = flags & 2 != 0 && link_near_addr[link as usize] == a;
        let far = flags & 4 != 0 && link_far_addr[link as usize] == a;
        if !near && !far {
            return bad;
        }
    }

    // Host index: strictly ascending addresses (the builder keeps one
    // router per address), and every router in range *with an owner*,
    // so `owner_of` never meets an entry it could not answer from.
    let mut prev_addr: Option<u32> = None;
    for rec in host_sec.chunks_exact(HOST_BYTES) {
        let a = u32_at(rec, 0);
        if prev_addr.is_some_and(|p| p >= a) {
            return bad;
        }
        prev_addr = Some(a);
        let r = u32_at(rec, 4) as usize;
        if r >= lay.n_routers || owned[r / 64] & (1 << (r % 64)) == 0 {
            return bad;
        }
    }

    Ok(Validated(()))
}

impl V3View {
    /// Open a v4 snapshot: verify integrity, validate structure, then
    /// assemble the view. `prefixes` is the serving layer's coarse
    /// prefix-owner overlay (may be empty).
    pub fn open(
        data: Vec<u8>,
        prefixes: impl IntoIterator<Item = (Prefix, Asn)>,
    ) -> Result<V3View, SnapshotError> {
        let lay = verify_integrity(&data)?;
        let ok = validate_structure(&data, &lay)?;
        Ok(V3View::from_validated(data, lay, ok, prefixes))
    }

    /// Assemble a view over bytes that already passed both
    /// [`verify_integrity`] and [`validate_structure`]. This is the
    /// whole *build* cost of a reload — insert the configured overlay
    /// prefixes into a small side trie and count the `/32`s the host
    /// index shadows — so it is near-zero and independent of map size,
    /// which is the point of the flat layout.
    pub fn from_validated(
        data: Vec<u8>,
        lay: Layout,
        _proof: Validated,
        prefixes: impl IntoIterator<Item = (Prefix, Asn)>,
    ) -> V3View {
        let packets = u64_at(&data, PREAMBLE);
        let elapsed_ms = u64_at(&data, PREAMBLE + 8);
        let mut side = PrefixTrie::new();
        for (p, asn) in prefixes {
            side.insert(p, asn);
        }
        let mut view = V3View {
            data,
            lay,
            packets,
            elapsed_ms,
            side,
            shadowed: 0,
        };
        view.shadowed = view
            .side
            .iter()
            .filter(|(p, _)| p.len() == 32 && view.host_router(p.network()).is_some())
            .count() as u32;
        view
    }

    /// Byte offset of the record keyed `key` in the `n` records of
    /// `width` bytes at `base`, each led by its `u32` key, ascending.
    fn find(&self, base: usize, n: usize, width: usize, key: u32) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if u32_at(&self.data, base + mid * width) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let at = base + lo * width;
        (lo < n && u32_at(&self.data, at) == key).then_some(at)
    }

    /// The router whose interface `/32` is `a`, from the host index.
    fn host_router(&self, a: Addr) -> Option<u32> {
        let at = self.find(
            self.lay.host_index,
            self.lay.n_hosts,
            HOST_BYTES,
            addr_bits(a),
        )?;
        Some(u32_at(&self.data, at + 4))
    }

    fn router_rec(&self, id: u32) -> Option<RouterRec> {
        if id as usize >= self.lay.n_routers {
            return None;
        }
        let at = self.lay.routers + id as usize * ROUTER_BYTES;
        let d = &self.data;
        let owner = (d[at + 4] != 0).then(|| Asn(u32_at(d, at)));
        let heuristic = match d[at + 5] {
            NO_HEURISTIC => None,
            code => Heuristic::from_code(code),
        };
        let start = u32_at(d, at + 8);
        let end = start + u32_at(d, at + 12) + u32_at(d, at + 16);
        Some(RouterRec {
            owner,
            heuristic,
            min_hop: d[at + 6],
            addr_start: start,
            addr_end: end,
        })
    }

    fn border_answer(&self, link: u32) -> Option<BorderAnswer> {
        let l = self.link_rec(link)?;
        Some(BorderAnswer {
            link,
            near_router: l.near,
            near_owner: self.router_rec(l.near)?.owner,
            far_as: l.far_as,
            near_addr: l.near_addr,
            far_addr: l.far_addr,
            heuristic: l.heuristic,
        })
    }
}

impl QueryRead for V3View {
    fn owner_of(&self, a: Addr) -> Option<OwnerAnswer> {
        // A router's `/32` is the longest match there is, so it outranks
        // every overlay prefix, a `/32` included, exactly as a Router
        // entry replaces an Owner in a merged heap build.
        if let Some(r) = self.host_router(a) {
            return Some(OwnerAnswer {
                asn: self.router_rec(r)?.owner?,
                prefix: Prefix::host(a),
                router: Some(r),
            });
        }
        self.side.lookup(a).map(|(prefix, &asn)| OwnerAnswer {
            asn,
            prefix,
            router: None,
        })
    }

    fn border_of(&self, a: Addr) -> Option<BorderAnswer> {
        let at = self.find(
            self.lay.border_index,
            self.lay.n_border,
            BORDER_BYTES,
            addr_bits(a),
        )?;
        self.border_answer(u32_at(&self.data, at + 4))
    }

    fn neighbor_links(&self, asn: Asn) -> Vec<u32> {
        let Some(at) = self.find(
            self.lay.neighbor_index,
            self.lay.n_neighbors,
            NEIGHBOR_BYTES,
            asn.0,
        ) else {
            return Vec::new();
        };
        let (start, end) = (
            u32_at(&self.data, at + 4) as usize,
            u32_at(&self.data, at + 8) as usize,
        );
        (start..end)
            .map(|slot| u32_at(&self.data, self.lay.link_arena + slot * 4))
            .collect()
    }

    fn link_answer(&self, id: u32) -> Option<BorderAnswer> {
        self.border_answer(id)
    }

    fn link_rec(&self, id: u32) -> Option<LinkRec> {
        if id as usize >= self.lay.n_links {
            return None;
        }
        let at = self.lay.links + id as usize * LINK_BYTES;
        let d = &self.data;
        let flags = d[at + 20];
        Some(LinkRec {
            near: u32_at(d, at),
            far: (flags & 1 != 0).then(|| u32_at(d, at + 4)),
            far_as: Asn(u32_at(d, at + 8)),
            near_addr: (flags & 2 != 0).then(|| addr(u32_at(d, at + 12))),
            far_addr: (flags & 4 != 0).then(|| addr(u32_at(d, at + 16))),
            heuristic: Heuristic::from_code(d[at + 21]).expect("validated at open"),
        })
    }

    fn router_info(&self, id: u32) -> Option<(RouterRec, Vec<Addr>)> {
        let rec = self.router_rec(id)?;
        let addrs = (rec.addr_start..rec.addr_end)
            .map(|i| addr(u32_at(&self.data, self.lay.addrs + i as usize * 4)))
            .collect();
        Some((rec, addrs))
    }

    fn num_routers(&self) -> u32 {
        self.lay.n_routers as u32
    }

    fn num_links(&self) -> u32 {
        self.lay.n_links as u32
    }

    /// Merged trie entries (host `/32`s plus overlay prefixes, counting
    /// a shadowed pair once) — the heap build's figure.
    fn num_prefixes(&self) -> u32 {
        (self.lay.n_hosts + self.side.len()) as u32 - self.shadowed
    }

    fn num_prefix_owners(&self) -> u32 {
        self.side.len() as u32
    }

    fn neighbor_list(&self) -> Vec<Asn> {
        (0..self.lay.n_neighbors)
            .map(|i| {
                Asn(u32_at(
                    &self.data,
                    self.lay.neighbor_index + i * NEIGHBOR_BYTES,
                ))
            })
            .collect()
    }
}

impl V3View {
    /// Probe traffic recorded in the snapshot's meta section.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Collection wall-clock recorded in the snapshot's meta section.
    pub fn elapsed_ms(&self) -> u64 {
        self.elapsed_ms
    }

    /// The snapshot bytes the view answers from.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Reconstruct the [`BorderMap`] the file was encoded from. Lossless
    /// for files [`encode_v3`] wrote: re-encoding the result reproduces
    /// the file byte for byte.
    pub fn to_border_map(&self) -> BorderMap {
        let d = &self.data;
        let routers = (0..self.lay.n_routers)
            .map(|i| {
                let at = self.lay.routers + i * ROUTER_BYTES;
                let start = u32_at(d, at + 8) as usize;
                let n_addrs = u32_at(d, at + 12) as usize;
                let n_other = u32_at(d, at + 16) as usize;
                let arena = |j: usize| addr(u32_at(d, self.lay.addrs + (start + j) * 4));
                InferredRouter {
                    addrs: (0..n_addrs).map(arena).collect(),
                    other_addrs: (n_addrs..n_addrs + n_other).map(arena).collect(),
                    owner: (d[at + 4] != 0).then(|| Asn(u32_at(d, at))),
                    heuristic: match d[at + 5] {
                        NO_HEURISTIC => None,
                        code => Heuristic::from_code(code),
                    },
                    min_hop: d[at + 6],
                }
            })
            .collect();
        let links = (0..self.lay.n_links)
            .map(|i| {
                let l = self.link_rec(i as u32).expect("in range");
                InferredLink {
                    near: l.near as usize,
                    far: l.far.map(|f| f as usize),
                    far_as: l.far_as,
                    near_addr: l.near_addr,
                    far_addr: l.far_addr,
                    heuristic: l.heuristic,
                }
            })
            .collect();
        BorderMap {
            routers,
            links,
            packets: self.packets,
            elapsed_ms: self.elapsed_ms,
        }
    }
}
