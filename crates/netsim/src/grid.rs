//! The engine's spatial cell grid and the hasher for its maps.
//!
//! Every spatial index in the simulator — the topology's neighbor
//! buckets, the sharded engine's air view, its per-shard ghost replicas
//! and interest sets, and shard placement — buckets positions on one
//! grid whose pitch equals the radio range, so any node within range of
//! a position lies in the 3×3 block of cells around it. [`cell_of`] is
//! that grid's only definition.
//!
//! Carrier sense and every per-receiver judgment look up nine cells, so
//! the maps behind them sit on the simulator's per-event path. Their
//! keys — cells, record sequence numbers, node ids, timer handles — are
//! all minted inside the process, so they need no protection against
//! keys crafted to collide, and std's SipHash buys nothing but cost.
//! [`FxHashMap`] and [`FxHashSet`] use [`FxHasher`] instead: one rotate,
//! xor and multiply per word, with a fixed key. Every map and set in
//! this crate is one of the two; a `clippy.toml` lint keeps std's
//! `RandomState` constructors out. Keys that arrive from outside the
//! process (the `retrid` service, the AFF reassembler) keep SipHash in
//! their own crates.
//!
//! No output depends on map iteration order. Under `RandomState` that
//! order changed from process to process while every run stayed
//! reproducible, so each iteration that reaches output is either sorted
//! or order-free (heap pushes, refcounts, membership tests); a fixed
//! order cannot change what such code produces.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::topology::Position;

/// A spatial cell key: `floor(coordinate / pitch)` per axis. The pitch
/// is the radio range, so in-range pairs are never more than one cell
/// apart on either axis.
pub type Cell = (i64, i64);

/// The cell containing `position` on the grid of the given `pitch`
/// (the radio range).
#[must_use]
pub(crate) fn cell_of(position: Position, pitch: f64) -> Cell {
    (
        (position.x / pitch).floor() as i64,
        (position.y / pitch).floor() as i64,
    )
}

/// A `HashMap` keyed by in-process values, hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` of in-process values, hashed with [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The multiplier of Firefox's and rustc's "Fx" hash: an odd 64-bit
/// constant whose product spreads every input bit into the high bits
/// the table's control bytes read.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fixed-key multiplicative hasher for small in-process keys. Not
/// collision resistant: never use it for keys an outside party chooses.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn cells_floor_toward_negative_infinity() {
        assert_eq!(cell_of(Position::new(0.0, 0.0), 45.0), (0, 0));
        assert_eq!(cell_of(Position::new(44.9, 45.0), 45.0), (0, 1));
        assert_eq!(cell_of(Position::new(-0.1, -45.0), 45.0), (-1, -1));
        assert_eq!(cell_of(Position::new(-45.1, 90.0), 45.0), (-2, 2));
    }

    #[test]
    fn hash_has_a_fixed_key() {
        assert_eq!(hash_of(&42_u64), 42_u64.wrapping_mul(FX_SEED));
    }

    #[test]
    fn neighboring_cells_hash_apart() {
        let mut seen = FxHashSet::default();
        for x in -8_i64..8 {
            for y in -8_i64..8 {
                assert!(seen.insert(hash_of(&(x, y))), "collision at ({x}, {y})");
            }
        }
    }

    #[test]
    fn byte_writes_cover_every_chunk() {
        let mut a = FxHasher::default();
        a.write(b"0123456789");
        let mut b = FxHasher::default();
        b.write(b"0123456788");
        assert_ne!(a.finish(), b.finish());
    }
}
