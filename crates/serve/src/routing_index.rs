//! Incremental ordered indexes over replica telemetry: `O(log R)`
//! routing lookups for a fleet of `R` replicas.
//!
//! The fleet driver refreshes exactly one replica's telemetry per
//! event, so a full `O(R)` scan per routing decision re-reads `R - 1`
//! entries that cannot have changed. [`FleetRoutingIndex`] turns that
//! scan into an indexed lookup: two [`MinTree`]s hold every *routable*
//! replica keyed exactly as the built-in routers compare them —
//! `(backlog, index)` for [`crate::JoinShortestQueue`] and
//! `(kv-load bits, backlog, index)` for [`crate::LeastKvLoad`] — so the
//! argmin is a root read and a leaf refresh is one `O(log R)` pull-up.
//! The index also owns the fleet's routable mask and its live count:
//! the one copy every [`crate::RoutingView`] of a fleet run borrows.
//!
//! Updates are split in two so runs that never query a tree never pay
//! for it: the driver **marks** a replica dirty in `O(1)` after each
//! event, and the first query **flushes** the accumulated dirty set
//! (each replica at most once) before reading the root. Lifecycle
//! transitions update the mask eagerly — [`crate::RoundRobin`] walks
//! it directly.
//!
//! Key packing preserves the routers' exact comparison order. Backlogs
//! pack as `backlog << 32 | index`, so the unsigned order of the packed
//! word is the lexicographic `(backlog, index)` order. KV load is
//! `ReplicaTelemetry::kv_load()` — a non-negative `f64`, whose IEEE bit
//! pattern orders identically to `f64::total_cmp` — paired with the
//! backlog word for the tie-break. Unroutable replicas and padding
//! leaves hold `u64::MAX` keys and can never win a tournament.
//!
//! The index is *derived* state: it is rebuilt from telemetry on run
//! start and resume and is never serialised, so snapshot wire formats
//! are untouched. Routers reach it through
//! [`crate::RoutingView::min_backlog_replica`] and friends, which fall
//! back to the original scans on a view without an index — custom
//! routers opt in by calling those methods instead of scanning.

use std::cell::RefCell;

use crate::min_tree::MinTree;
use crate::router::ReplicaTelemetry;

/// Sentinel key for unroutable replicas and padding leaves: loses every
/// tournament. A real key only equals this when a replica with index
/// `u32::MAX` carries a backlog of `u32::MAX` — beyond any
/// constructible fleet.
const NO_KEY: u64 = u64::MAX;

/// Packs the join-shortest-queue comparison key: unsigned order of the
/// packed word is the `(backlog, index)` order the router scans by.
fn backlog_key(t: &ReplicaTelemetry, i: usize) -> u64 {
    (u64::from(t.backlog()) << 32) | i as u64
}

/// Packs the least-KV-load comparison key. `kv_load()` is non-negative,
/// so its raw bits order exactly as `f64::total_cmp`; the backlog word
/// carries the router's `(backlog, index)` tie-break.
fn kv_key(t: &ReplicaTelemetry, i: usize) -> (u64, u64) {
    (t.kv_load().to_bits(), backlog_key(t, i))
}

/// The lazily flushed half of the index: the two trees and their
/// pending dirty set.
#[derive(Debug)]
struct Trees {
    /// Min-tournament over packed `(backlog, index)` keys.
    backlog: MinTree<u64>,
    /// Min-tournament over `(kv-load bits, backlog-key)` pairs.
    kv: MinTree<(u64, u64)>,
    /// Replicas whose leaves are stale, each listed at most once.
    dirty: Vec<u32>,
    /// `dirty` membership, indexed by replica.
    dirty_mask: Vec<bool>,
    /// Leaf refreshes applied (each an `O(log R)` pull-up).
    leaf_updates: u64,
    /// Dirty marks observed (one per telemetry delta event).
    marks: u64,
}

impl Trees {
    /// Recomputes leaf `i` of both trees from its telemetry.
    fn refresh_leaf(&mut self, i: usize, t: &ReplicaTelemetry, routable: bool) {
        let (bk, kk) = if routable {
            (backlog_key(t, i), kv_key(t, i))
        } else {
            (NO_KEY, (NO_KEY, NO_KEY))
        };
        // Non-short-circuit `|`: both trees must see the update.
        if self.backlog.set(i, bk) | self.kv.set(i, kk) {
            self.leaf_updates += 1;
        }
    }

    /// Applies every pending dirty mark against the current telemetry.
    fn flush(&mut self, telemetry: &[ReplicaTelemetry], routable: &[bool]) {
        debug_assert_eq!(
            telemetry.len(),
            routable.len(),
            "index and telemetry disagree"
        );
        while let Some(i) = self.dirty.pop() {
            let i = i as usize;
            self.dirty_mask[i] = false;
            self.refresh_leaf(i, &telemetry[i], routable[i]);
        }
    }
}

/// Incrementally maintained routing indexes over one fleet's replica
/// telemetry, plus the fleet's routable mask — see the module docs for
/// the design.
///
/// Owned by [`crate::FleetRun`], which marks one replica dirty per
/// event and flips mask entries on lifecycle transitions; queries come
/// from routers via [`crate::RoutingView`]. Queries take `&self` (lazy
/// flushing uses interior mutability) so a `RoutingView` can carry a
/// shared reference.
pub(crate) struct FleetRoutingIndex {
    /// `true` for replicas that may receive new work.
    routable: Vec<bool>,
    /// Number of `true` entries in `routable`.
    live_count: usize,
    trees: RefCell<Trees>,
}

impl std::fmt::Debug for FleetRoutingIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let trees = self.trees.borrow();
        f.debug_struct("FleetRoutingIndex")
            .field("replicas", &self.routable.len())
            .field("live", &self.live_count)
            .field("dirty", &trees.dirty.len())
            .field("leaf_updates", &trees.leaf_updates)
            .finish()
    }
}

impl FleetRoutingIndex {
    /// Builds the index over a fleet's current telemetry and routable
    /// mask (index-aligned, as in [`crate::RoutingView::new`]).
    ///
    /// # Panics
    ///
    /// Panics when the two disagree on the replica count.
    pub(crate) fn new(telemetry: &[ReplicaTelemetry], routable: Vec<bool>) -> Self {
        assert_eq!(
            telemetry.len(),
            routable.len(),
            "telemetry and routable mask must cover the same replicas"
        );
        let n = telemetry.len();
        let mut trees = Trees {
            backlog: MinTree::new(n, NO_KEY),
            kv: MinTree::new(n, (NO_KEY, NO_KEY)),
            dirty: Vec::with_capacity(n),
            dirty_mask: vec![false; n],
            leaf_updates: 0,
            marks: 0,
        };
        for (i, t) in telemetry.iter().enumerate() {
            trees.refresh_leaf(i, t, routable[i]);
        }
        trees.leaf_updates = 0;
        Self {
            live_count: routable.iter().filter(|&&r| r).count(),
            routable,
            trees: RefCell::new(trees),
        }
    }

    /// Records that replica `i`'s telemetry may have changed: `O(1)`,
    /// deduplicated. The stale leaf is recomputed lazily on the next
    /// tree query.
    pub(crate) fn mark_dirty(&mut self, i: usize) {
        let trees = self.trees.get_mut();
        trees.marks += 1;
        if !trees.dirty_mask[i] {
            trees.dirty_mask[i] = true;
            trees.dirty.push(i as u32);
        }
    }

    /// Sets replica `i`'s routable flag (eagerly — the mask must be
    /// fresh for every query) and marks its tree leaves dirty.
    pub(crate) fn set_routable(&mut self, i: usize, routable: bool) {
        if self.routable[i] != routable {
            self.routable[i] = routable;
            if routable {
                self.live_count += 1;
            } else {
                self.live_count -= 1;
            }
        }
        self.mark_dirty(i);
    }

    /// The routable mask, index-aligned with the telemetry.
    pub(crate) fn routable(&self) -> &[bool] {
        &self.routable
    }

    /// How many replicas are currently routable.
    pub(crate) fn live_count(&self) -> usize {
        self.live_count
    }

    /// The routable replica minimising `(backlog, index)` — the
    /// argmin [`crate::JoinShortestQueue`] scans for — or `None` when
    /// nothing is routable. Flushes pending dirty marks against
    /// `telemetry`, which must be the same per-replica slice the marks
    /// were issued for.
    pub(crate) fn min_backlog_replica(&self, telemetry: &[ReplicaTelemetry]) -> Option<usize> {
        let mut trees = self.trees.borrow_mut();
        trees.flush(telemetry, &self.routable);
        let key = trees.backlog.min();
        (key != NO_KEY).then_some((key & u64::from(u32::MAX)) as usize)
    }

    /// The routable replica minimising `(kv_load, backlog, index)`
    /// under `f64::total_cmp` — [`crate::LeastKvLoad`]'s exact order —
    /// or `None` when nothing is routable.
    pub(crate) fn min_kv_load_replica(&self, telemetry: &[ReplicaTelemetry]) -> Option<usize> {
        let mut trees = self.trees.borrow_mut();
        trees.flush(telemetry, &self.routable);
        let (load, key) = trees.kv.min();
        (load != NO_KEY).then_some((key & u64::from(u32::MAX)) as usize)
    }

    /// `(leaf updates applied, dirty marks observed)` since
    /// construction — the index-maintenance counters behind the
    /// driver's `--counters` report.
    pub(crate) fn update_counts(&self) -> (u64, u64) {
        let trees = self.trees.borrow();
        (trees.leaf_updates, trees.marks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ServeRng;
    use crate::router::RoutingView;
    use proptest::prelude::*;

    fn tel(queue: u32, active: u32, reserved: u64, cap: u64) -> ReplicaTelemetry {
        ReplicaTelemetry {
            queue_depth: queue,
            active_requests: active,
            reserved_tokens: reserved,
            queued_tokens: 0,
            kv_capacity_tokens: cap,
            in_flight_tokens: 0,
        }
    }

    /// Reference scans with the routers' exact comparison order.
    fn scan_backlog(telemetry: &[ReplicaTelemetry], routable: &[bool]) -> Option<usize> {
        (0..telemetry.len())
            .filter(|&i| routable[i])
            .min_by_key(|&i| (telemetry[i].backlog(), i))
    }

    fn scan_kv(telemetry: &[ReplicaTelemetry], routable: &[bool]) -> Option<usize> {
        (0..telemetry.len())
            .filter(|&i| routable[i])
            .min_by(|&a, &b| {
                telemetry[a]
                    .kv_load()
                    .total_cmp(&telemetry[b].kv_load())
                    .then(telemetry[a].backlog().cmp(&telemetry[b].backlog()))
                    .then(a.cmp(&b))
            })
    }

    #[test]
    fn argmins_match_scans_after_incremental_updates() {
        let mut telemetry: Vec<ReplicaTelemetry> = (0..13)
            .map(|i| tel(i % 3, 0, u64::from(i) * 100, 4096))
            .collect();
        let routable = vec![true; 13];
        let mut idx = FleetRoutingIndex::new(&telemetry, routable.clone());
        assert_eq!(
            idx.min_backlog_replica(&telemetry),
            scan_backlog(&telemetry, &routable)
        );
        assert_eq!(
            idx.min_kv_load_replica(&telemetry),
            scan_kv(&telemetry, &routable)
        );
        // A deterministic little churn: bump one replica at a time.
        for step in 0..200usize {
            let i = (step * 7) % 13;
            telemetry[i].queue_depth = (step % 5) as u32;
            telemetry[i].reserved_tokens = (step as u64 * 37) % 5000;
            idx.mark_dirty(i);
            assert_eq!(
                idx.min_backlog_replica(&telemetry),
                scan_backlog(&telemetry, &routable),
                "backlog argmin diverged at step {step}"
            );
            assert_eq!(
                idx.min_kv_load_replica(&telemetry),
                scan_kv(&telemetry, &routable),
                "kv argmin diverged at step {step}"
            );
        }
    }

    #[test]
    fn unroutable_replicas_never_win() {
        let telemetry: Vec<ReplicaTelemetry> = (0..5).map(|i| tel(i, 0, 0, 4096)).collect();
        let mut routable = vec![true; 5];
        let mut idx = FleetRoutingIndex::new(&telemetry, routable.clone());
        assert_eq!(idx.min_backlog_replica(&telemetry), Some(0));
        idx.set_routable(0, false);
        routable[0] = false;
        assert_eq!(idx.min_backlog_replica(&telemetry), Some(1));
        assert_eq!(
            idx.min_kv_load_replica(&telemetry),
            scan_kv(&telemetry, &routable)
        );
        idx.set_routable(0, true);
        assert_eq!(idx.min_backlog_replica(&telemetry), Some(0));
    }

    #[test]
    fn empty_and_all_down_fleets_answer_none() {
        let idx = FleetRoutingIndex::new(&[], Vec::new());
        assert_eq!(idx.min_backlog_replica(&[]), None);
        assert_eq!(idx.live_count(), 0);
        let telemetry = vec![tel(0, 0, 0, 1024); 3];
        let idx = FleetRoutingIndex::new(&telemetry, vec![false; 3]);
        assert_eq!(idx.min_backlog_replica(&telemetry), None);
        assert_eq!(idx.min_kv_load_replica(&telemetry), None);
        assert_eq!(idx.live_count(), 0);
    }

    #[test]
    fn next_routable_wraps_like_the_round_robin_probe() {
        // A sparse pattern over 130 slots, walked through a view of the
        // index's own mask: every start finds the first routable slot
        // in wrapping order, and flips land in the mask the view reads.
        let n = 130;
        let telemetry = vec![tel(0, 0, 0, 1024); n];
        let mut routable = vec![false; n];
        for &i in &[3usize, 64, 65, 127, 129] {
            routable[i] = true;
        }
        let mut idx = FleetRoutingIndex::new(&telemetry, routable.clone());
        idx.set_routable(3, false);
        idx.set_routable(0, true);
        routable[3] = false;
        routable[0] = true;
        let view = RoutingView::new(&telemetry, idx.routable(), 0.0).with_index(&idx);
        let reference = |start: usize| (0..n).map(|k| (start + k) % n).find(|&i| routable[i]);
        for start in 0..n {
            assert_eq!(
                view.next_routable_from(start),
                reference(start),
                "start {start}"
            );
        }
    }

    #[test]
    fn dirty_marks_deduplicate_and_flush_once() {
        let mut telemetry = vec![tel(1, 0, 0, 1024); 4];
        let mut idx = FleetRoutingIndex::new(&telemetry, vec![true; 4]);
        telemetry[2].queue_depth = 0;
        for _ in 0..10 {
            idx.mark_dirty(2);
        }
        assert_eq!(idx.min_backlog_replica(&telemetry), Some(2));
        let (updates, marks) = idx.update_counts();
        assert_eq!(marks, 10);
        assert_eq!(
            updates, 1,
            "dedup must collapse repeated marks into one refresh"
        );
        // An unchanged leaf costs no pull-up on the next flush.
        idx.mark_dirty(2);
        let _ = idx.min_backlog_replica(&telemetry);
        assert_eq!(idx.update_counts().0, 1);
    }

    /// Random telemetry with small ranges on purpose: ties on backlog
    /// and on the KV fraction must be common, or the tie-break order
    /// goes untested.
    fn random_tel(rng: &mut ServeRng) -> ReplicaTelemetry {
        ReplicaTelemetry {
            queue_depth: (rng.next_u64() % 5) as u32,
            active_requests: (rng.next_u64() % 4) as u32,
            reserved_tokens: rng.next_u64() % 4096,
            queued_tokens: rng.next_u64() % 2048,
            kv_capacity_tokens: 1 + (rng.next_u64() % 4) * 2048,
            in_flight_tokens: rng.next_u64() % 10_000,
        }
    }

    fn scan_next_routable(routable: &[bool], start: usize) -> Option<usize> {
        let n = routable.len();
        (0..n).map(|k| (start + k) % n).find(|&i| routable[i])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings of telemetry deltas, lifecycle flips and
        /// queries: every indexed answer equals the full rescan, at every
        /// step, across fleet widths spanning tree padding — the
        /// round-robin probe over the index's own mask included.
        #[test]
        fn index_tracks_full_rescans_through_delta_storms(
            seed in 0u64..1 << 48,
            n in 1usize..170,
            ops in 1usize..300,
        ) {
            let mut rng = ServeRng::new(seed);
            let mut telemetry: Vec<ReplicaTelemetry> =
                (0..n).map(|_| random_tel(&mut rng)).collect();
            let mut routable: Vec<bool> =
                (0..n).map(|_| !rng.next_u64().is_multiple_of(4)).collect();
            let mut idx = FleetRoutingIndex::new(&telemetry, routable.clone());
            for step in 0..ops {
                let i = (rng.next_u64() % n as u64) as usize;
                match rng.next_u64() % 6 {
                    // The driver's per-event path: one replica's telemetry
                    // moves, one O(1) dirty mark.
                    0 | 1 => {
                        telemetry[i] = random_tel(&mut rng);
                        idx.mark_dirty(i);
                    }
                    // Lifecycle storm: drain/fail/join at random.
                    2 => {
                        routable[i] = !routable[i];
                        idx.set_routable(i, routable[i]);
                    }
                    3 => {
                        prop_assert_eq!(
                            idx.min_backlog_replica(&telemetry),
                            scan_backlog(&telemetry, &routable),
                            "backlog argmin diverged at step {}", step
                        );
                    }
                    4 => {
                        prop_assert_eq!(
                            idx.min_kv_load_replica(&telemetry),
                            scan_kv(&telemetry, &routable),
                            "kv argmin diverged at step {}", step
                        );
                    }
                    _ => {
                        let view = RoutingView::new(&telemetry, idx.routable(), 0.0).with_index(&idx);
                        prop_assert_eq!(
                            view.next_routable_from(i),
                            scan_next_routable(&routable, i),
                            "next-routable diverged at step {}", step
                        );
                    }
                }
                prop_assert_eq!(
                    idx.live_count(),
                    routable.iter().filter(|&&r| r).count(),
                    "live count drifted at step {}", step
                );
            }
            // Closing sweep: all three lookups, every wrap start.
            prop_assert_eq!(idx.min_backlog_replica(&telemetry), scan_backlog(&telemetry, &routable));
            prop_assert_eq!(idx.min_kv_load_replica(&telemetry), scan_kv(&telemetry, &routable));
            prop_assert_eq!(idx.routable(), &routable[..]);
            let view = RoutingView::new(&telemetry, idx.routable(), 0.0).with_index(&idx);
            for start in 0..n {
                prop_assert_eq!(view.next_routable_from(start), scan_next_routable(&routable, start));
            }
        }
    }
}
