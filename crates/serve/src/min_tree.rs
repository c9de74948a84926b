//! The one argmin structure of the event core.
//!
//! A [`MinTree`] answers "which slot holds the smallest key?" over a
//! fixed, dense slot space whose keys are updated in place — the
//! question behind both the wake-up calendars (earliest `(tick, id)`)
//! and the fleet routing index (shortest queue, lightest KV load). It
//! is a flat tournament tree: 1-based, root at `[1]`, leaves at
//! `[size ..]` for a power-of-two `size`, every internal node holding
//! the smaller of its two children. The minimum is a root read; a
//! leaf update is one pull-up that stops at the first ancestor whose
//! winner did not change. Callers encode "no entry" as a key that
//! loses to every real one (padding leaves hold it too), and make
//! keys unique by folding the slot index into them, so ties are
//! broken by the key order alone.

/// A flat, power-of-two-padded min-tournament over `K` — see the
/// module docs.
#[derive(Debug)]
pub(crate) struct MinTree<K> {
    /// Leaf span: a power of two, at least 1.
    size: usize,
    /// Nodes `1 .. 2 * size`; `[0]` is unused.
    nodes: Vec<K>,
}

impl<K: Ord + Copy> MinTree<K> {
    /// A tree of at least `n` leaves, every one holding `empty`.
    pub(crate) fn new(n: usize, empty: K) -> Self {
        let size = n.next_power_of_two();
        Self {
            size,
            nodes: vec![empty; 2 * size],
        }
    }

    /// Number of leaves: `n` rounded up to a power of two.
    pub(crate) fn width(&self) -> usize {
        self.size
    }

    /// The key at leaf `i`.
    pub(crate) fn get(&self, i: usize) -> K {
        self.nodes[self.size + i]
    }

    /// The smallest key over every leaf.
    pub(crate) fn min(&self) -> K {
        self.nodes[1]
    }

    /// Sets leaf `i` to `key` and repairs its ancestors, stopping at
    /// the first one whose winner is unchanged. Returns `false` (and
    /// touches nothing) when the leaf already held `key`.
    pub(crate) fn set(&mut self, i: usize, key: K) -> bool {
        let mut node = self.size + i;
        if self.nodes[node] == key {
            return false;
        }
        self.nodes[node] = key;
        while node > 1 {
            node /= 2;
            let m = self.nodes[2 * node].min(self.nodes[2 * node + 1]);
            if self.nodes[node] == m {
                break;
            }
            self.nodes[node] = m;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_tracks_in_place_updates_against_a_scan() {
        for n in [0usize, 1, 2, 3, 5, 8, 13, 64, 100] {
            let mut t = MinTree::new(n, u32::MAX);
            let mut model = vec![u32::MAX; t.width()];
            assert!(t.width() >= n.max(1) && t.width().is_power_of_two());
            let mut state = 0x9E37_79B9_u32 ^ n as u32;
            for _ in 0..500 {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let i = (state >> 8) as usize % model.len();
                let key = if state.is_multiple_of(7) {
                    u32::MAX
                } else {
                    state >> 20
                };
                assert_eq!(t.set(i, key), model[i] != key);
                model[i] = key;
                assert_eq!(t.get(i), key);
                assert_eq!(t.min(), *model.iter().min().unwrap(), "n = {n}");
            }
        }
    }

    #[test]
    fn unchanged_leaf_is_a_no_op() {
        let mut t = MinTree::new(4, (u64::MAX, u32::MAX));
        assert!(t.set(2, (5, 2)));
        assert!(!t.set(2, (5, 2)));
        assert_eq!(t.min(), (5, 2));
        assert!(t.set(2, (u64::MAX, u32::MAX)));
        assert_eq!(t.min(), (u64::MAX, u32::MAX));
    }
}
