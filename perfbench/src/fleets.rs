//! The two fleet workloads: `wide_jsq` and `reasoning_churn`.
//!
//! Both are open-loop Poisson tapes in simulated time, run on the host
//! as one batch job to completion on one thread. A pass builds the
//! machines, materialises the tape, runs the event loop, reports and
//! digests, and checks the outputs; the traced variant of a pass hands
//! the run timing wrappers instead of the bare router, cost models and
//! policies.

use crate::trace::{LayerStats, TracedCost, TracedPolicy, TracedRouter, Tracer};
use crate::{alloc, Checks, Pass};
use rpu_core::experiments::fleet_scale::{scale_config, scale_workload};
use rpu_core::serving::sweep_latency_lut;
use rpu_models::LengthDistribution;
use rpu_serve::{
    churn_tape, digest_fleet_report, AnalyticCostModel, ArrivalProcess, ClassSpec, Command,
    CostModel, DeadlineEdf, Fifo, FleetBuilder, FleetEvent, FleetRun, JoinShortestQueue,
    LatencyLut, LeastKvLoad, PerfCounters, ReportDigest, Router, SchedulingPolicy, ServeConfig,
    Workload,
};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Requests in one `wide_jsq` pass: about 3.8M events, under two
/// seconds of host time, so a run averages over a dozen passes.
pub const WIDE_JSQ_REQUESTS: u32 = 1_000_000;
/// Fleet width of `wide_jsq`: the top rung of the `fleet-scale` sweep.
const WIDE_JSQ_REPLICAS: usize = 1000;

/// Requests in one `reasoning_churn` pass: about 6M events.
pub const REASONING_CHURN_REQUESTS: u32 = 8000;
const CHURN_REPLICAS: usize = 8;
/// Compute units per replica: Llama3-8B at MXFP4 on the paper's
/// 64-CU part.
const CHURN_CUS: u32 = 64;
const CHURN_MAX_BATCH: u32 = 32;
/// Longest context the LUT must price: the longest prompt plus the
/// output cap.
const CHURN_LONGEST_CONTEXT: u32 = 1024 + 8192;
/// Offered load, requests/s: near the saturation point of the replicas
/// the storm leaves live, so EDF queues and preempts, but stable.
const CHURN_RATE_RPS: f64 = 22.0;
/// One lifecycle event per this many requests. A storm of many events
/// keeps the live replica-seconds, and with them the work of a pass,
/// nearly the same from seed to seed; a storm of a few dozen events
/// moves the event count of a pass by half.
const CHURN_REQUESTS_PER_EVENT: u32 = 4;
/// Detection plus KV re-steering time of a failure-displaced request.
const CHURN_MIGRATION_DELAY_S: f64 = 0.05;
/// Freeze→thaw round trips per measured pass, evenly spaced in events.
const CHURN_FREEZES: u32 = 8;

/// The digests of the default seed's report, pinned per workload.
const WIDE_JSQ_PINNED: u64 = 0xcf0f_743c_55a3_b5b9;
const REASONING_CHURN_PINNED: u64 = 0x9582_d68b_2329_3acb;

/// The machine every replica of a workload runs.
#[derive(Clone, Copy)]
enum Machine {
    /// `AnalyticCostModel::small()` under the `fleet-scale` config.
    Analytic,
    /// Llama3-8B priced by a LUT sampled from `rpu-sim` during set-up.
    Lut,
}

/// One fleet workload's generated inputs and machine shape.
pub struct FleetCase {
    pub workload: Workload,
    replicas: usize,
    machine: Machine,
    router: fn() -> Box<dyn Router>,
    policy: fn() -> Box<dyn SchedulingPolicy>,
    churn: Vec<FleetEvent>,
    migration_delay_s: f64,
    freezes: u32,
    replay: bool,
    /// The report digest pinned for this seed, when there is one.
    pinned: Option<ReportDigest>,
}

/// Mixes a benchmark seed into a stream-specific 64-bit seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The production router at full width: 1000 `AnalyticCostModel::small`
/// replicas behind join-shortest-queue, FIFO, batch 8, 280 req/s per
/// replica, 256-token prompts and 16-token outputs.
pub fn wide_jsq(seed: u64, requests: u32) -> FleetCase {
    let workload = Workload {
        seed: mix(seed, 1),
        ..scale_workload(WIDE_JSQ_REPLICAS as u32, requests)
    };
    FleetCase {
        workload,
        replicas: WIDE_JSQ_REPLICAS,
        machine: Machine::Analytic,
        router: || Box::new(JoinShortestQueue),
        policy: || Box::new(Fifo),
        churn: Vec::new(),
        migration_delay_s: 0.0,
        freezes: 0,
        replay: false,
        pinned: (seed == crate::DEFAULT_SEED && requests == WIDE_JSQ_REQUESTS)
            .then_some(ReportDigest(WIDE_JSQ_PINNED)),
    }
}

/// The paper's case: reasoning-length outputs on eight Llama3-8B
/// replicas under preemptive EDF and KV-aware routing, through a
/// failure storm, freeze→thaw round trips and a command-log replay.
pub fn reasoning_churn(seed: u64, requests: u32) -> FleetCase {
    let interactive = ClassSpec {
        share: 0.6,
        prompt_lens: Some(LengthDistribution::Uniform { lo: 128, hi: 1024 }),
        output_lens: Some(LengthDistribution::Exponential {
            mean: 2048.0,
            cap: 8192,
        }),
        ..ClassSpec::interactive()
    };
    let batch = ClassSpec {
        share: 0.4,
        prompt_lens: Some(LengthDistribution::Uniform { lo: 512, hi: 1024 }),
        output_lens: Some(LengthDistribution::Exponential {
            mean: 4096.0,
            cap: 8192,
        }),
        ..ClassSpec::batch()
    };
    let workload = Workload {
        arrivals: ArrivalProcess::Poisson {
            rate_rps: CHURN_RATE_RPS,
        },
        num_requests: requests,
        seed: mix(seed, 2),
        ..Workload::default()
    }
    .with_classes(vec![interactive, batch]);
    let horizon_s = f64::from(requests) / CHURN_RATE_RPS;
    FleetCase {
        workload,
        replicas: CHURN_REPLICAS,
        machine: Machine::Lut,
        router: || Box::new(LeastKvLoad),
        policy: || Box::new(DeadlineEdf),
        churn: churn_tape(
            CHURN_REPLICAS as u32,
            mix(seed, 3),
            horizon_s,
            requests / CHURN_REQUESTS_PER_EVENT,
        ),
        migration_delay_s: CHURN_MIGRATION_DELAY_S,
        freezes: CHURN_FREEZES,
        replay: true,
        pinned: (seed == crate::DEFAULT_SEED && requests == REASONING_CHURN_REQUESTS)
            .then_some(ReportDigest(REASONING_CHURN_PINNED)),
    }
}

/// What a straight (unfrozen, untraced) pass establishes for the passes
/// after it: the digest they must reproduce and the run's event count.
pub struct Reference {
    pub digest: ReportDigest,
    pub events: u64,
}

/// How a pass runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No freezes, no wrappers: establishes the [`Reference`].
    Straight,
    /// With the workload's freeze→thaw round trips, no wrappers.
    Measured,
    /// As `Measured`, with every router, cost and policy call timed.
    Traced,
}

fn add(acc: &mut PerfCounters, c: PerfCounters) {
    acc.route_calls += c.route_calls;
    acc.route_index_hits += c.route_index_hits;
    acc.route_scan_fallbacks += c.route_scan_fallbacks;
    acc.index_leaf_updates += c.index_leaf_updates;
    acc.index_marks += c.index_marks;
    acc.wheel_ops += c.wheel_ops;
}

/// One pass over `case`. `reference` is `None` only for the straight
/// pass that produces it.
pub fn pass(
    case: &FleetCase,
    mode: Mode,
    reference: Option<&Reference>,
    tracer: &mut Tracer,
    checks: &mut Checks,
    empty_ns: f64,
) -> (Pass, Reference) {
    tracer.next_pass();
    let traced = mode == Mode::Traced;
    let router_stats = LayerStats::new();
    let cost_stats = LayerStats::new();
    let policy_stats = LayerStats::new();
    let mut p = Pass::default();
    alloc::take_peak();
    let t0 = Instant::now();

    // Set-up: machines, the fleet, the materialised tape, the storm.
    let (config, lut): (ServeConfig, Option<LatencyLut>) = match case.machine {
        Machine::Analytic => (scale_config(), None),
        Machine::Lut => {
            let t = Instant::now();
            let (config, lut, _) =
                sweep_latency_lut(CHURN_CUS, CHURN_MAX_BATCH, CHURN_LONGEST_CONTEXT);
            p.layer(
                "serving.lut_build_s",
                tracer.span("serving.lut_build", "setup", t),
            );
            p.layer("serving.lut_samples", lut.samples() as f64);
            (config, Some(lut))
        }
    };
    let cost = || -> Box<dyn CostModel> {
        let inner: Box<dyn CostModel> = match &lut {
            Some(l) => Box::new(l.clone()),
            None => Box::new(AnalyticCostModel::small()),
        };
        if traced {
            Box::new(TracedCost {
                inner,
                stats: Rc::clone(&cost_stats),
            })
        } else {
            inner
        }
    };
    let policy = || -> Box<dyn SchedulingPolicy> {
        let inner = (case.policy)();
        if traced {
            Box::new(TracedPolicy {
                inner,
                stats: Rc::clone(&policy_stats),
            })
        } else {
            inner
        }
    };
    let mut fleet = FleetBuilder::new()
        .migration_delay_s(case.migration_delay_s)
        .group(case.replicas, &config, cost, policy)
        .build();
    let mut router: Box<dyn Router> = if traced {
        Box::new(TracedRouter {
            inner: (case.router)(),
            stats: Rc::clone(&router_stats),
        })
    } else {
        (case.router)()
    };
    let t = Instant::now();
    let mut run = fleet.start(&case.workload);
    p.layer(
        "arrivals.start_s",
        tracer.span("arrivals.start", "setup", t),
    );
    for ev in &case.churn {
        run.inject(*ev);
    }
    p.setup_s = tracer.span("setup", "pass", t0);
    p.peak_heap_bytes = alloc::take_peak();

    // The event loop, frozen and thawed at evenly spaced event counts.
    let freeze_at: Vec<u64> = match (mode, reference) {
        (Mode::Straight, _) | (_, None) => Vec::new(),
        (_, Some(r)) => (1..=u64::from(case.freezes))
            .map(|k| r.events * k / (u64::from(case.freezes) + 1))
            .collect(),
    };
    let mut counters = PerfCounters::default();
    let (mut freeze_s, mut thaw_s, mut bytes_max) = (0.0, 0.0, 0usize);
    let allocs0 = alloc::allocs();
    let t1 = Instant::now();
    for &at in &freeze_at {
        while run.events() < at && run.step(&mut fleet, router.as_mut()) {}
        add(&mut counters, run.perf_counters());
        let t = Instant::now();
        let bytes = run.snapshot(router.as_ref());
        drop(run);
        freeze_s += tracer.span("snapshot.freeze", "run", t);
        let t = Instant::now();
        run = FleetRun::resume(&case.workload, &fleet, router.as_mut(), &bytes)
            .expect("a snapshot taken this pass thaws");
        thaw_s += tracer.span("snapshot.thaw", "run", t);
        bytes_max = bytes_max.max(bytes.len());
    }
    while run.step(&mut fleet, router.as_mut()) {}
    add(&mut counters, run.perf_counters());
    p.run_s = tracer.span("run", "pass", t1);
    let loop_allocs = alloc::allocs() - allocs0;
    let peak_loop = alloc::take_peak();
    p.peak_heap_bytes = p.peak_heap_bytes.max(peak_loop);
    let events = run.events();

    // Layer figures are read before the replay, which prices through
    // the same (possibly wrapped) cost models and policies.
    if traced {
        for (name, s) in [
            ("router", &router_stats),
            ("cost", &cost_stats),
            ("policy", &policy_stats),
        ] {
            p.layer(format!("{name}.calls"), s.calls() as f64);
            p.layer(format!("{name}.self_s"), s.self_s(empty_ns));
            if name != "policy" {
                p.layer(format!("{name}.ns_p50"), s.quantile_ns(0.5, empty_ns));
                p.layer(format!("{name}.ns_p99"), s.quantile_ns(0.99, empty_ns));
            }
        }
        p.layer("policy.queue_scanned", policy_stats.scanned() as f64);
        checks.check(
            router_stats.calls() == counters.route_calls,
            "the router wrapper saw every routing decision the fleet counted",
        );
    }
    p.layer("fleet.events", events as f64);
    p.layer("router.index_hits", counters.route_index_hits as f64);
    p.layer(
        "router.scan_fallbacks",
        counters.route_scan_fallbacks as f64,
    );
    p.layer(
        "routing_index.leaf_updates",
        counters.index_leaf_updates as f64,
    );
    p.layer("routing_index.marks", counters.index_marks as f64);
    p.layer("calendar.wheel_ops", counters.wheel_ops as f64);
    p.layer("snapshot.freezes", freeze_at.len() as f64);
    p.layer("snapshot.freeze_s", freeze_s);
    p.layer("snapshot.thaw_s", thaw_s);
    p.layer("snapshot.bytes_max", bytes_max as f64);
    p.layer("heap.peak_loop_bytes", peak_loop as f64);
    p.layer("heap.loop_allocs", loop_allocs as f64);
    p.layer(
        "heap.loop_allocs_per_event",
        loop_allocs as f64 / events as f64,
    );
    let log_entries = run.log().len();
    p.layer("replay.log_entries", log_entries as f64);
    p.layer(
        "replay.log_bytes",
        (log_entries * std::mem::size_of::<Command>()) as f64,
    );

    // The command log replayed against the same fleet.
    let replay_digest = case.replay.then(|| {
        let t = Instant::now();
        let replayed = fleet.replay(&case.workload, run.log());
        let d = digest_fleet_report(&replayed);
        p.layer("replay.replay_s", tracer.span("replay", "pass", t));
        d
    });

    // Report: merge, SLO summary, digest.
    let t2 = Instant::now();
    let stats = run.stats();
    let t = Instant::now();
    let report = run.into_report();
    p.layer(
        "metrics.into_report_s",
        tracer.span("metrics.into_report", "report", t),
    );
    let t = Instant::now();
    black_box(report.multi_class(&case.workload.classes));
    p.layer("metrics.slo_s", tracer.span("metrics.slo", "report", t));
    let t = Instant::now();
    let digest = digest_fleet_report(&report);
    p.layer("digest.s", tracer.span("digest", "report", t));
    p.report_s = tracer.span("report", "pass", t2);
    let peak_report = alloc::take_peak();
    p.layer("heap.peak_report_bytes", peak_report as f64);
    p.peak_heap_bytes = p.peak_heap_bytes.max(peak_report);
    p.layer(
        "scheduler.preemptions",
        f64::from(report.aggregate.preemptions),
    );
    p.layer("lifecycle.fails", f64::from(report.lifecycle.fails));
    p.layer("lifecycle.displaced", f64::from(report.lifecycle.displaced));

    // Output checks.
    checks.check(
        stats.conserved()
            && stats.issued == case.workload.num_requests
            && stats.completed + stats.rejected == stats.issued,
        "every issued request completed or was rejected",
    );
    if let Some(r) = reference {
        checks.check(
            digest == r.digest,
            format!(
                "{} digest {digest} equals the straight run's {}",
                match mode {
                    Mode::Traced => "traced",
                    _ if freeze_at.is_empty() => "repeated",
                    _ => "resumed",
                },
                r.digest
            ),
        );
    }
    if let Some(d) = replay_digest {
        checks.check(
            d == digest,
            format!("replay digest {d} equals the run's {digest}"),
        );
    }
    if let Some(pin) = case.pinned {
        checks.check(
            digest == pin,
            format!("digest {digest} equals the pinned {pin}"),
        );
    }
    p.e2e_s = tracer.span("pass", "", t0);
    p.peak_heap_bytes = p.peak_heap_bytes.max(alloc::take_peak());
    (p, Reference { digest, events })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small instance of each fleet workload under every mode: the
    /// wrappers change no decision (the digest holds) and see every
    /// routing call the fleet counts.
    fn transparent(case: &FleetCase) {
        let mut tracer = Tracer::new();
        let mut checks = Checks::default();
        let (_, reference) = pass(case, Mode::Straight, None, &mut tracer, &mut checks, 0.0);
        for mode in [Mode::Measured, Mode::Traced] {
            let (p, r) = pass(case, mode, Some(&reference), &mut tracer, &mut checks, 0.0);
            assert_eq!(r.digest, reference.digest);
            assert_eq!(r.events, reference.events);
            if mode == Mode::Traced {
                assert!(p.get("router.calls") > 0.0);
            }
        }
        assert!(checks.attempted > 0);
        assert_eq!(checks.failed, 0, "a check failed; see stderr");
    }

    #[test]
    fn wrappers_are_transparent_on_a_small_wide_jsq() {
        transparent(&wide_jsq(7, 20_000));
    }

    #[test]
    fn wrappers_are_transparent_on_a_small_reasoning_churn() {
        let case = reasoning_churn(7, 150);
        assert!(!case.churn.is_empty());
        transparent(&case);
    }
}
