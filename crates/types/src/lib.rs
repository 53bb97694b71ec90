//! Core types shared across the bdrmap workspace.
//!
//! This crate deliberately contains no policy or algorithm code: it defines
//! the vocabulary — autonomous system numbers, IPv4 prefixes, address
//! blocks, longest-prefix-match tables, and opaque identifiers for routers,
//! interfaces, and points of presence — that every other crate speaks.
//!
//! Everything here is `Copy` or cheaply clonable, deterministic, and
//! `serde`-serialisable so experiment artefacts can be persisted.

pub mod asn;
pub mod block;
pub mod fsutil;
pub mod ids;
pub mod integrity;
pub mod prefix;
pub mod rir;
pub mod swap;
pub mod sys;
pub mod trie;
pub mod vfs;
pub mod wire;

pub use asn::{Asn, OrgId, Relationship};
pub use block::AddressBlock;
pub use ids::{IfaceId, LinkId, PopId, RouterId, VpId};
pub use prefix::Prefix;
pub use rir::RirRecord;
pub use swap::{SwapCell, SwapReader};
pub use trie::{PrefixSet, PrefixTrie};
pub use vfs::{ChaosFsConfig, ChaosVfs, FaultKind, FsFaultBudget, Vfs, VfsBackend};

/// Convenience alias: the workspace is IPv4-only, like the paper's study.
pub type Addr = std::net::Ipv4Addr;

/// Construct an [`Addr`] from a host-order `u32`.
#[inline]
pub fn addr(bits: u32) -> Addr {
    Addr::from(bits)
}

/// Host-order `u32` view of an [`Addr`].
#[inline]
pub fn addr_bits(a: Addr) -> u32 {
    u32::from(a)
}

/// One splitmix64 step: advance `state` and return its next draw. The
/// workspace's one seeded mixer, behind fault draws, chaos and crash
/// schedules, load generation, fuzzing and alias task ids, so a seed
/// names the same stream in every subsystem.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
