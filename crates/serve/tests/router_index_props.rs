//! Decision identity for the fleet's routing index: every stock router
//! picks the same replica whether it reads the index (`O(log R)` tree
//! roots) or scans the telemetry linearly.
//!
//! Each property runs a churned fleet under a [`Twin`] router: two
//! lockstep instances of one stock router, the first routing on the
//! view the fleet hands it (which carries the index), the second on a
//! bare copy of that view (which scans). The picks must match on every
//! decision, KV-saturated fallback paths included: the index is a pure
//! accelerator, never a behaviour change. Index-vs-rescan checks of
//! the index itself are unit tests in its module.

use proptest::prelude::*;
use rpu_models::LengthDistribution;
use rpu_serve::{
    churn_tape, AnalyticCostModel, Fifo, FleetBuilder, FleetEvent, JoinShortestQueue, LeastKvLoad,
    Request, RoundRobin, Router, RoutingView, ServeConfig, SessionAffinity, Workload,
};

/// Two instances of one router in lockstep: `indexed` routes on the
/// fleet's view, `plain` on a bare copy of it. Panics on the first
/// disagreement.
struct Twin<R> {
    indexed: R,
    plain: R,
    decisions: u64,
}

impl<R: Router> Twin<R> {
    fn new(make: impl Fn() -> R) -> Self {
        Self {
            indexed: make(),
            plain: make(),
            decisions: 0,
        }
    }
}

/// The mask of `view`, for rebuilding it without the index.
fn mask(view: &RoutingView<'_>) -> Vec<bool> {
    (0..view.len()).map(|i| view.is_routable(i)).collect()
}

impl<R: Router> Router for Twin<R> {
    fn name(&self) -> &'static str {
        self.indexed.name()
    }

    fn route(&mut self, req: &Request, view: &RoutingView<'_>) -> usize {
        let mask = mask(view);
        let bare = RoutingView::new(view.telemetry(), &mask, view.now_s());
        let pick = self.indexed.route(req, view);
        let scanned = self.plain.route(req, &bare);
        assert_eq!(
            pick,
            scanned,
            "{} diverged at decision {}",
            self.name(),
            self.decisions
        );
        self.decisions += 1;
        pick
    }

    fn on_fleet_event(&mut self, event: &FleetEvent, view: &RoutingView<'_>) {
        let mask = mask(view);
        let bare = RoutingView::new(view.telemetry(), &mask, view.now_s());
        self.indexed.on_fleet_event(event, view);
        self.plain.on_fleet_event(event, &bare);
    }
}

/// Runs one churned fleet under `router`; returns the routing index's
/// hit count.
fn run_churned<R: Router>(router: &mut Twin<R>, seed: u64, n: usize, requests: u32) -> u64 {
    // A small KV capacity and prompts up to three quarters of it keep
    // replicas KV-saturated often, so join-shortest-queue's exact
    // fallback scan comes up alongside its indexed fast path.
    let cost = || {
        Box::new(AnalyticCostModel {
            kv_capacity_tokens: 4096,
            ..AnalyticCostModel::small()
        }) as _
    };
    let mut fleet = FleetBuilder::new()
        .migration_delay_s(0.002)
        .group(n, &ServeConfig::default(), cost, || Box::new(Fifo) as _)
        .build();
    let mut wl = Workload::poisson(600.0 * n as f64, 256, 16, requests);
    wl.seed = seed;
    wl.prompt_lens = LengthDistribution::Uniform { lo: 16, hi: 3000 };
    wl.output_lens = LengthDistribution::Uniform { lo: 1, hi: 64 };
    let mut run = fleet.start(&wl);
    let horizon_s = f64::from(requests) / (600.0 * n as f64);
    for ev in churn_tape(n as u32, seed, horizon_s, requests / 8 + 1) {
        run.inject(ev);
    }
    while run.step(&mut fleet, router) {}
    let counters = run.perf_counters();
    let report = run.into_report();
    assert_eq!(
        report.aggregate.records.len() as u32 + report.aggregate.rejected,
        requests
    );
    counters.route_index_hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every stock router picks the same replica on a bare view and on
    /// the fleet's indexed view, decision after decision, through
    /// lifecycle storms and telemetry churn — the decision-identity
    /// proof behind switching the built-ins to `O(log R)` lookups.
    #[test]
    fn stock_routers_decide_identically_with_and_without_the_index(
        seed in 0u64..1 << 48,
        n in 1usize..150,
        requests in 1u32..240,
    ) {
        let mut jsq = Twin::new(|| JoinShortestQueue);
        let hits = run_churned(&mut jsq, seed, n, requests);
        prop_assert!(hits >= jsq.decisions, "jsq bypassed the index");
        let mut kv = Twin::new(|| LeastKvLoad);
        let hits = run_churned(&mut kv, seed, n, requests);
        prop_assert!(hits >= kv.decisions, "least-kv bypassed the index");
        let mut rr = Twin::new(RoundRobin::new);
        let hits = run_churned(&mut rr, seed, n, requests);
        prop_assert!(hits >= rr.decisions, "round-robin bypassed the index");
        let mut affinity = Twin::new(SessionAffinity::new);
        run_churned(&mut affinity, seed, n, requests);
        prop_assert!(affinity.decisions >= u64::from(requests));
    }
}
