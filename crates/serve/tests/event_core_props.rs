//! Snapshot closure over the event core's layout: runs frozen with a
//! non-empty wake-up calendar and a fragmented request slab (free
//! holes below live cells) must thaw, re-freeze to identical bytes and
//! finish bit-identically. The calendar and slab themselves are checked
//! against naive models by the unit tests in their modules.

use rpu_serve::{
    AnalyticCostModel, Fifo, FleetBuilder, FleetRun, PriorityAging, ServeConfig, ServeRun,
    SessionAffinity, Workload,
};

/// Steps a run until its core holds a non-empty wake-up calendar *and* a
/// fragmented slab (free holes below live cells), then freezes it.
/// Panics if the workload never reaches that shape.
fn freeze_fragmented(wl: &Workload, cfg: &ServeConfig) -> (ServeRun, Vec<u8>) {
    let mut run = ServeRun::new(wl, cfg);
    let mut cost = AnalyticCostModel::small();
    loop {
        assert!(
            run.step(&mut cost, &mut PriorityAging::new(0.02)),
            "run finished before reaching a fragmented mid-run state"
        );
        let stats = run.stats();
        let fragmented = run.peak_slab_occupancy() > stats.active && stats.active >= 1;
        if fragmented && run.pending_wakeups() > 0 {
            let bytes = run.snapshot();
            return (run, bytes);
        }
    }
}

/// Mid-run freeze with a non-empty wake-up calendar and a fragmented slab:
/// the thawed run must re-freeze to the same bytes and finish
/// bit-identically to the uninterrupted original.
#[test]
fn fragmented_mid_run_snapshot_resumes_bit_identically() {
    // Long prompts make prefill (~4 ms) span several decode steps
    // (~1.4 ms), so freshly admitted slots hold future wake-ups while
    // earlier ones decode; varied output lengths stagger completions
    // so the slab fragments while a prefill is pending.
    let mut wl = Workload::poisson(2000.0, 2000, 8, 64);
    wl.output_lens = rpu_models::LengthDistribution::Uniform { lo: 2, hi: 16 };
    let cfg = ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    };
    let (mut original, bytes) = freeze_fragmented(&wl, &cfg);
    let mut resumed = ServeRun::resume(&wl, &bytes).expect("snapshot thaws");
    // Closure: freezing the thawed state reproduces the bytes exactly
    // — the slab's raw layout (free chain, peak) and the rebuilt
    // calendar lose nothing in the round trip.
    assert_eq!(resumed.snapshot(), bytes, "re-freeze must be bit-identical");
    let mut cost_a = AnalyticCostModel::small();
    let mut cost_b = AnalyticCostModel::small();
    let mut pol_a = PriorityAging::new(0.02);
    let mut pol_b = PriorityAging::new(0.02);
    while original.step(&mut cost_a, &mut pol_a) {}
    while resumed.step(&mut cost_b, &mut pol_b) {}
    assert_eq!(original.into_report(), resumed.into_report());
}

/// Restoring a run whose slab holds freed-then-reused slots must not
/// resurrect stale telemetry: the thawed core's published counters
/// (in-flight tokens, committed KV) must equal the frozen original's
/// exactly — a freed slot's tokens leaking back in would misroute
/// every subsequent arrival. The continuation runs under debug
/// cross-checks (incremental counters vs recomputation by scan), so
/// drift introduced later in the run is caught too.
#[test]
fn thawed_arena_reuse_does_not_resurrect_stale_telemetry() {
    let mut wl = Workload::poisson(2000.0, 2000, 8, 64);
    wl.output_lens = rpu_models::LengthDistribution::Uniform { lo: 2, hi: 16 };
    let cfg = ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    };
    let (mut original, bytes) = freeze_fragmented(&wl, &cfg);
    let stats = original.stats();
    assert!(
        original.peak_slab_occupancy() > stats.active,
        "freeze point must hold freed-then-reusable slots"
    );
    let mut resumed = ServeRun::resume(&wl, &bytes).expect("snapshot thaws");
    let kv = AnalyticCostModel::small().kv_capacity_tokens;
    assert_eq!(
        resumed.telemetry(kv),
        original.telemetry(kv),
        "thawed telemetry differs at the freeze point"
    );
    let mut cost_a = AnalyticCostModel::small();
    let mut cost_b = AnalyticCostModel::small();
    let mut pol_a = PriorityAging::new(0.02);
    let mut pol_b = PriorityAging::new(0.02);
    loop {
        assert_eq!(
            resumed.telemetry(kv),
            original.telemetry(kv),
            "telemetry drifts after event {}",
            original.events()
        );
        let more = original.step(&mut cost_a, &mut pol_a);
        if !resumed.step(&mut cost_b, &mut pol_b) {
            assert!(!more, "runs finish at different event counts");
            break;
        }
        assert!(more, "runs finish at different event counts");
    }
    assert_eq!(original.into_report(), resumed.into_report());
}

/// The fleet variant: freeze with replicas mid-prefill, thaw into a
/// fresh fleet + router, and demand byte-identical re-freeze plus a
/// bit-identical finish. The fleet's wake calendar is *not*
/// serialized — this is the test that rebuilding it on resume is
/// lossless.
#[test]
fn fleet_mid_run_snapshot_resumes_bit_identically() {
    let wl = Workload::poisson(4000.0, 384, 24, 96);
    let cfg = ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    };
    let mk_fleet = || {
        FleetBuilder::new()
            .group(
                3,
                &cfg,
                || Box::new(AnalyticCostModel::small()) as _,
                || Box::new(Fifo) as _,
            )
            .build()
    };
    let mut fleet_a = mk_fleet();
    let mut router_a = SessionAffinity::new();
    let mut run_a = fleet_a.start(&wl);
    for _ in 0..150 {
        assert!(run_a.step(&mut fleet_a, &mut router_a));
    }
    let bytes = run_a.snapshot(&router_a);
    let fleet_b = mk_fleet();
    let mut router_b = SessionAffinity::new();
    let mut run_b = FleetRun::resume(&wl, &fleet_b, &mut router_b, &bytes).expect("thaws");
    assert_eq!(
        run_b.snapshot(&router_b),
        bytes,
        "fleet re-freeze must be bit-identical"
    );
    let mut fleet_b = fleet_b;
    while run_a.step(&mut fleet_a, &mut router_a) {}
    while run_b.step(&mut fleet_b, &mut router_b) {}
    assert_eq!(run_a.into_report(), run_b.into_report());
}
