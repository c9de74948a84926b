//! The wake-up calendars of the discrete-event serving core.
//!
//! A [`CalendarQueue`] holds at most one pending wake-up per component
//! (a fleet replica, a prefilling slot), keyed `(next_tick, id)`: the
//! component that wants to run earliest pops first, ties broken by the
//! lowest id — exactly the order the pre-calendar drivers recovered by
//! scanning every component per event.
//!
//! It is a [`MinTree`] with one leaf per id. A wake-up is its id's leaf
//! key: scheduling overwrites the leaf, cancelling and popping empty
//! it, and the head is the root. Ticks become keys through the
//! standard sign-fold of the IEEE-754 bit pattern, under which
//! `f64::total_cmp` order is unsigned integer order, so comparisons
//! are plain integer compares. A NaN tick panics; a non-finite one
//! cancels (a component idle "until infinity" has no wake-up).
//!
//! The tie order is visible in any fleet run's command log: three
//! requests arriving at once on three idle replicas wake all three at
//! the same tick, and the replicas step in id order.
//!
//! ```
//! use rpu_serve::{
//!     AnalyticCostModel, ArrivalProcess, Command, Fifo, FleetBuilder, RoundRobin, ServeConfig,
//!     Workload,
//! };
//!
//! let wl = Workload {
//!     arrivals: ArrivalProcess::Trace { arrivals_s: vec![0.0; 3] },
//!     ..Workload::poisson(1.0, 64, 4, 3)
//! };
//! let mut fleet = FleetBuilder::new()
//!     .group(
//!         3,
//!         &ServeConfig::default(),
//!         || Box::new(AnalyticCostModel::small()),
//!         || Box::new(Fifo),
//!     )
//!     .build();
//! let mut router = RoundRobin::new();
//! let mut run = fleet.start(&wl);
//! for _ in 0..6 {
//!     assert!(run.step(&mut fleet, &mut router));
//! }
//! let (enqueue, step) = (
//!     |replica| Command::Enqueue { replica },
//!     |replica| Command::Step { replica },
//! );
//! assert_eq!(
//!     run.log().commands(),
//!     [enqueue(0), enqueue(1), enqueue(2), step(0), step(1), step(2)]
//! );
//! ```

use crate::min_tree::MinTree;

/// The key of an id with no pending wake-up. It loses to every real
/// key: the fold of any finite tick lies below `u64::MAX`.
const EMPTY: (u64, u32) = (u64::MAX, u32::MAX);

/// Monotone map from an `f64` to an unsigned key:
/// `a.total_cmp(&b) == total_order_key(a).cmp(&total_order_key(b))`
/// for every pair, signed zeros and NaNs included. Invertible via
/// [`tick_of`], so leaves store only the key. The fleet report merge
/// sorts completion records by it too.
#[inline]
pub(crate) fn total_order_key(tick: f64) -> u64 {
    let bits = tick.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Inverse of [`total_order_key`].
#[inline]
fn tick_of(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key & !(1 << 63))
    } else {
        f64::from_bits(!key)
    }
}

/// A min-queue of component wake-ups keyed `(tick, id)` over dense
/// `u32` ids — see the module docs. Ids past the current width grow
/// the tree by doubling.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    tree: MinTree<(u64, u32)>,
    /// Ids with a pending wake-up.
    live: usize,
    /// Finite schedules since construction.
    ops: u64,
}

impl CalendarQueue {
    /// An empty queue with leaves for ids `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            tree: MinTree::new(n, EMPTY),
            live: 0,
            ops: 0,
        }
    }

    /// Number of pending wake-ups.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Total finite [`CalendarQueue::schedule`] calls since
    /// construction — the wheel-ops counter behind the driver's
    /// `--counters` report.
    pub(crate) fn scheduled_ops(&self) -> u64 {
        self.ops
    }

    /// Schedules (or reschedules) `id`'s wake-up at `tick`, replacing
    /// any pending one. A non-finite tick cancels instead.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is NaN.
    pub(crate) fn schedule(&mut self, id: u32, tick: f64) {
        assert!(!tick.is_nan(), "wake-up ticks must be comparable");
        if !tick.is_finite() {
            self.cancel(id);
            return;
        }
        self.ops += 1;
        let i = id as usize;
        if i >= self.tree.width() {
            let mut grown = MinTree::new((i + 1).max(2 * self.tree.width()), EMPTY);
            for j in 0..self.tree.width() {
                grown.set(j, self.tree.get(j));
            }
            self.tree = grown;
        }
        if self.tree.get(i) == EMPTY {
            self.live += 1;
        }
        self.tree.set(i, (total_order_key(tick), id));
    }

    /// Cancels `id`'s pending wake-up, if any.
    pub(crate) fn cancel(&mut self, id: u32) {
        let i = id as usize;
        if i < self.tree.width() && self.tree.set(i, EMPTY) {
            self.live -= 1;
        }
    }

    /// The earliest wake-up `(tick, id)` without consuming it.
    pub(crate) fn peek(&self) -> Option<(f64, u32)> {
        let (key, id) = self.tree.min();
        (key != EMPTY.0).then(|| (tick_of(key), id))
    }

    /// Consumes and returns the earliest wake-up `(tick, id)`.
    pub(crate) fn pop(&mut self) -> Option<(f64, u32)> {
        let head = self.peek()?;
        self.cancel(head.1);
        Some(head)
    }

    /// The tick `id` is currently scheduled at, if any.
    #[cfg(test)]
    fn scheduled_at(&self, id: u32) -> Option<f64> {
        let (key, _) = self.tree.get(id as usize);
        (key != EMPTY.0).then(|| tick_of(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ServeRng;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn pops_in_tick_then_id_order() {
        let mut q = CalendarQueue::new(4);
        q.schedule(3, 2.0);
        q.schedule(1, 1.0);
        q.schedule(2, 1.0);
        q.schedule(0, 3.0);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((1.0, 2)));
        assert_eq!(q.pop(), Some((2.0, 3)));
        assert_eq!(q.pop(), Some((3.0, 0)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn reschedule_supersedes_and_cancel_removes() {
        let mut q = CalendarQueue::new(2);
        q.schedule(0, 5.0);
        q.schedule(1, 6.0);
        q.schedule(0, 7.0); // supersede
        q.cancel(1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek(), Some((7.0, 0)));
        assert_eq!(q.pop(), Some((7.0, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn infinite_tick_means_never() {
        let mut q = CalendarQueue::new(1);
        q.schedule(0, f64::INFINITY);
        assert_eq!(q.len(), 0);
        q.schedule(0, 1.0);
        q.schedule(0, f64::INFINITY); // cancel via reschedule
        assert_eq!(q.pop(), None);
        assert_eq!(q.scheduled_ops(), 1, "only finite schedules count");
    }

    #[test]
    #[should_panic(expected = "comparable")]
    fn nan_tick_is_rejected() {
        CalendarQueue::new(1).schedule(0, f64::NAN);
    }

    #[test]
    fn idempotent_reschedule_does_not_grow_the_heap() {
        let mut q = CalendarQueue::new(1);
        q.schedule(0, 1.0);
        for _ in 0..1000 {
            q.schedule(0, 1.0);
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.tree.width(), 1);
        assert_eq!(q.scheduled_at(0), Some(1.0));
        assert_eq!(q.scheduled_ops(), 1001);
    }

    #[test]
    fn scheduled_at_tracks_the_live_entry() {
        let mut q = CalendarQueue::new(8);
        assert_eq!(q.scheduled_at(5), None);
        q.schedule(5, 2.5);
        assert_eq!(q.scheduled_at(5), Some(2.5));
        q.schedule(5, 9.0);
        assert_eq!(q.scheduled_at(5), Some(9.0));
        q.cancel(5);
        assert_eq!(q.scheduled_at(5), None);
    }

    #[test]
    fn peek_discards_stale_prefix_without_losing_live_entries() {
        let mut q = CalendarQueue::new(2);
        q.schedule(0, 1.0);
        q.schedule(1, 2.0);
        q.schedule(0, 3.0); // 1.0 entry superseded
        assert_eq!(q.peek(), Some((2.0, 1)));
        assert_eq!(q.pop(), Some((2.0, 1)));
        assert_eq!(q.pop(), Some((3.0, 0)));
    }

    #[test]
    fn ids_beyond_preallocation_grow_on_demand() {
        let mut q = CalendarQueue::new(2);
        q.schedule(1, 2.0);
        q.schedule(100, 1.0);
        assert!(q.tree.width() > 100);
        assert_eq!(q.pop(), Some((1.0, 100)));
        assert_eq!(q.pop(), Some((2.0, 1)), "growth keeps pending wake-ups");
    }

    #[test]
    fn schedule_before_the_anchor_still_pops_first() {
        // Pop past t=5, then schedule earlier wake-ups: they pop in
        // true (tick, id) order, ahead of the later one.
        let mut q = CalendarQueue::new(64);
        q.schedule(0, 5.0);
        assert_eq!(q.pop(), Some((5.0, 0)));
        q.schedule(1, 1.0);
        q.schedule(2, 0.5);
        q.schedule(3, 7.0);
        assert_eq!(q.pop(), Some((0.5, 2)));
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((7.0, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn negative_zero_and_negative_ticks_order_like_total_cmp() {
        for width in [1, 64] {
            let mut q = CalendarQueue::new(width);
            q.schedule(0, 0.0);
            q.schedule(1, -0.0);
            q.schedule(2, -1.5);
            assert_eq!(q.pop(), Some((-1.5, 2)));
            assert_eq!(q.pop(), Some((-0.0, 1)));
            assert_eq!(q.pop(), Some((0.0, 0)));
        }
    }

    #[test]
    fn interleaved_pop_schedule_stays_sorted_against_a_model() {
        // Deterministic pseudo-random tape vs a sort-based model.
        let mut q = CalendarQueue::new(0);
        let mut model: Vec<(f64, u32)> = Vec::new();
        let mut state = 0x1234_5678_u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for _ in 0..5_000 {
            let r = rng();
            let id = (r % 64) as u32;
            match r % 5 {
                0..=2 => {
                    let tick = (rng() % 10_000) as f64 / 16.0;
                    model.retain(|&(_, mid)| mid != id);
                    model.push((tick, id));
                    q.schedule(id, tick);
                }
                3 => {
                    model.retain(|&(_, mid)| mid != id);
                    q.cancel(id);
                }
                _ => {
                    model.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    let want = if model.is_empty() {
                        None
                    } else {
                        Some(model.remove(0))
                    };
                    assert_eq!(q.pop(), want);
                }
            }
        }
        model.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for want in model {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }

    /// The naive calendar: id → live tick. The minimum of `(tick, id)`
    /// over its entries is what a correct queue must pop next.
    fn model_min(model: &BTreeMap<u32, f64>) -> Option<(f64, u32)> {
        model
            .iter()
            .map(|(&id, &tick)| (tick, id))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    /// Drives random interleavings of schedule / cancel / pop / peek over
    /// ids `0..id_space` against the naive model, checking every step,
    /// then drains: every surviving wake-up must surface exactly once, in
    /// nondecreasing `(tick, id)` order — none lost, none duplicated.
    fn check_against_model(
        seed: u64,
        width: usize,
        id_space: u64,
        n_ops: usize,
        draw_tick: impl Fn(&mut ServeRng) -> f64,
    ) -> TestCaseResult {
        let mut rng = ServeRng::new(seed);
        let mut q = CalendarQueue::new(width);
        let mut model: BTreeMap<u32, f64> = BTreeMap::new();
        for _ in 0..n_ops {
            let id = (rng.next_u64() % id_space) as u32;
            match rng.next_u64() % 5 {
                // Schedule / reschedule (occasionally to infinity).
                0 | 1 => {
                    let tick = draw_tick(&mut rng);
                    q.schedule(id, tick);
                    if tick.is_finite() {
                        model.insert(id, tick);
                    } else {
                        model.remove(&id);
                    }
                }
                2 => {
                    q.cancel(id);
                    model.remove(&id);
                }
                3 => {
                    let got = q.pop();
                    let want = model_min(&model);
                    prop_assert_eq!(got, want, "pop disagrees with model");
                    if let Some((_, id)) = want {
                        model.remove(&id);
                    }
                }
                _ => {
                    prop_assert_eq!(q.peek(), model_min(&model), "peek disagrees");
                }
            }
            prop_assert_eq!(q.len(), model.len(), "live count drifted");
            for (&id, &tick) in &model {
                prop_assert_eq!(q.scheduled_at(id), Some(tick));
            }
        }
        let mut drained = Vec::new();
        while let Some(e) = q.pop() {
            drained.push(e);
        }
        let mut expected: Vec<(f64, u32)> = model.iter().map(|(&id, &tick)| (tick, id)).collect();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        prop_assert_eq!(drained, expected);
        prop_assert_eq!(q.len(), 0);
        prop_assert_eq!(q.pop(), None);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings over a few ids and a narrow tick range
        /// agree with the naive model. Ids outrun the initial width, so
        /// the tree grows mid-stream.
        #[test]
        fn calendar_agrees_with_the_naive_model(
            seed in 0u64..1 << 48,
            width in 0usize..16,
            n_ops in 1usize..400,
        ) {
            check_against_model(seed, width, 16, n_ops, |rng| {
                if rng.next_u64().is_multiple_of(16) {
                    f64::INFINITY
                } else {
                    (rng.next_u64() % 1000) as f64 / 8.0
                }
            })?;
        }

        /// A wide calendar (96 ids, starting at 64 leaves) under a tick
        /// mix of negative ticks, signed zeros and a 2^40-wide spread
        /// agrees with the same model: the sign-fold key keeps
        /// `f64::total_cmp` order across the whole range.
        #[test]
        fn wide_tick_calendar_agrees_with_the_naive_model(
            seed in 0u64..1 << 48,
            n_ops in 1usize..500,
        ) {
            check_against_model(seed, 64, 96, n_ops, |rng| match rng.next_u64() % 8 {
                0 => f64::INFINITY,
                1 => -((rng.next_u64() % 64) as f64) / 4.0,
                2 => -0.0,
                3 => (rng.next_u64() % (1 << 40)) as f64,
                _ => (rng.next_u64() % 4096) as f64 / 16.0,
            })?;
        }
    }
}
