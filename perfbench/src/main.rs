//! The repository's benchmark: one command that runs a workload of the
//! serving simulator or the paper repro at a given seed, checks its
//! outputs, and prints end-to-end metrics (untraced) or per-layer
//! metrics (traced) as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wide_jsq --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root: `paper_repro` reads the goldens
//! under `tests/golden/repro/`.
//!
//! Workloads, and why each is here:
//!
//! - `wide_jsq` — the production router at full width: 1000 replicas
//!   behind join-shortest-queue put most of the work in routing and its
//!   index, the 1000-id calendar, the command log and the report merge
//!   and digest; cost-model and policy work is trivial.
//! - `reasoning_churn` — the paper's own case: batch-32 decode steps
//!   over reasoning-length contexts on eight Llama3-8B replicas, so LUT
//!   lookups, preemptive EDF admission, failure displacement, snapshot
//!   writes and log-replay reads dominate; routing is a few thousand
//!   calls over eight replicas.
//! - `paper_repro` — every registry target, which exercises `rpu-sim`,
//!   `rpu-arch`, `rpu-hbmco`, `rpu-gpu` and `rpu-models`, code the two
//!   fleet workloads barely touch.
//!
//! Each workload first makes one straight pass that sets the reference
//! digest (and warms the caches and the heap), then repeats passes for
//! `--seconds`. Every pass's host times are scaled to a reference host
//! speed by a probe timed around it (see `calib`). It reports the
//! median set-up time and peak heap, and the mean of the other phase
//! times: on a shared host whose speed switches between levels for
//! seconds at a time, the median of a run's passes jumps between those
//! levels from run to run, while the mean moves only in proportion to
//! the time spent at each. With `--trace 1` it alternates
//! untraced and traced passes: per-layer times come from the median
//! traced pass, so they add up to its run time; `trace.overhead_s` is
//! that pass's run time less the untraced median.

mod alloc;
mod calib;
mod fleets;
mod repro;
mod trace;

use std::fmt::Display;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The seed whose report digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// The end-to-end metrics, each with its unit, in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("report_s", "s"),
    ("e2e_s", "s"),
    ("peak_heap_bytes", "bytes"),
];

/// The per-layer metrics every workload prints (zero where the layer
/// does no work), besides one `experiments.<target>_s` per registry
/// target.
const PER_LAYER: [(&str, &str); 44] = [
    ("arrivals.start_s", "s"),
    ("serving.lut_build_s", "s"),
    ("serving.lut_samples", "count"),
    ("fleet.events", "count"),
    ("fleet.ns_per_event", "ns"),
    ("router.calls", "count"),
    ("router.ns_p50", "ns"),
    ("router.ns_p99", "ns"),
    ("router.self_s", "s"),
    ("router.index_hits", "count"),
    ("router.scan_fallbacks", "count"),
    ("routing_index.leaf_updates", "count"),
    ("routing_index.marks", "count"),
    ("calendar.wheel_ops", "count"),
    ("cost.calls", "count"),
    ("cost.ns_p50", "ns"),
    ("cost.ns_p99", "ns"),
    ("cost.self_s", "s"),
    ("policy.calls", "count"),
    ("policy.queue_scanned", "count"),
    ("policy.self_s", "s"),
    ("scheduler.preemptions", "count"),
    ("scheduler.self_ns_per_event", "ns"),
    ("replay.log_entries", "count"),
    ("replay.log_bytes", "bytes"),
    ("replay.replay_s", "s"),
    ("snapshot.freezes", "count"),
    ("snapshot.freeze_s", "s"),
    ("snapshot.thaw_s", "s"),
    ("snapshot.bytes_max", "bytes"),
    ("lifecycle.fails", "count"),
    ("lifecycle.displaced", "count"),
    ("metrics.into_report_s", "s"),
    ("metrics.slo_s", "s"),
    ("digest.s", "s"),
    ("heap.peak_loop_bytes", "bytes"),
    ("heap.peak_report_bytes", "bytes"),
    ("heap.loop_allocs", "count"),
    ("heap.loop_allocs_per_event", "allocs/event"),
    ("experiments.render_s", "s"),
    ("trace.empty_span_ns", "ns"),
    ("trace.overhead_s", "s"),
    ("trace.residual_s", "s"),
    ("host.probe_s", "s"),
];

/// The fleet layers whose self times, with the residual, make up a
/// traced fleet run.
const FLEET_RUN_LAYERS: [&str; 5] = [
    "router.self_s",
    "cost.self_s",
    "policy.self_s",
    "snapshot.freeze_s",
    "snapshot.thaw_s",
];

/// Every per-layer metric name with its unit, in output order.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for e in rpu_core::experiments::registry() {
        out.push((repro::target_metric(e.name()), "s"));
    }
    out
}

/// The output checks of a run: each is one operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// One pass's phase times, peak heap and layer figures.
#[derive(Default)]
pub struct Pass {
    pub setup_s: f64,
    pub run_s: f64,
    pub report_s: f64,
    pub e2e_s: f64,
    pub peak_heap_bytes: u64,
    layers: Vec<(String, f64)>,
}

impl Pass {
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.push((name.into(), value));
    }

    /// Scales every host time of the pass by `factor`.
    fn calibrate(&mut self, factor: f64) {
        for t in [
            &mut self.setup_s,
            &mut self.run_s,
            &mut self.report_s,
            &mut self.e2e_s,
        ] {
            *t *= factor;
        }
        for (name, v) in &mut self.layers {
            let unit = PER_LAYER.iter().find(|(n, _)| n == name).map(|&(_, u)| u);
            if name.starts_with("experiments.") || matches!(unit, Some("s" | "ns")) {
                *v *= factor;
            }
        }
    }

    /// A layer figure, zero when the pass did not record it.
    pub fn get(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&mut passes.iter().map(f).collect::<Vec<_>>())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |e: &dyn Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(&"not a positive duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// Runs `pass` once per `i = 0, 1, …` until `seconds` of passes are
/// done — stopping early when one more typical pass would overrun —
/// and at least `min` times, with a calibration probe before the first
/// pass and after each. Returns the passes and the probe times.
fn repeat(seconds: f64, min: usize, mut pass: impl FnMut(usize) -> Pass) -> (Vec<Pass>, Vec<f64>) {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut probes = vec![calib::probe()];
    let mut took = Vec::new();
    loop {
        let t = Instant::now();
        let mut p = pass(passes.len());
        let before = probes[probes.len() - 1];
        let after = calib::probe();
        p.calibrate(calib::REFERENCE_S / ((before + after) / 2.0));
        eprintln!(
            "pass {}: setup_s {:.6} run_s {:.6} report_s {:.6} e2e_s {:.6} probe_s {after:.6}",
            passes.len(),
            p.setup_s,
            p.run_s,
            p.report_s,
            p.e2e_s
        );
        probes.push(after);
        passes.push(p);
        took.push(t.elapsed().as_secs_f64());
        let typical = median(&mut took.clone());
        if passes.len() >= min && start.elapsed().as_secs_f64() + typical > seconds {
            return (passes, probes);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload wide_jsq|reasoning_churn|paper_repro \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    alloc::pin_malloc_thresholds();
    let empty_ns = trace::empty_span_ns();
    let mut tracer = trace::Tracer::new();
    let mut checks = Checks::default();
    // Alternate untraced and traced passes when tracing.
    let min = if args.trace { 2 } else { 1 };
    let traced = |i: usize| args.trace && i % 2 == 1;

    let ((passes, mut probes), events, run_layers): ((Vec<Pass>, Vec<f64>), u64, Vec<String>) =
        match args.workload.as_str() {
            "wide_jsq" | "reasoning_churn" => {
                let case = if args.workload == "wide_jsq" {
                    fleets::wide_jsq(args.seed, fleets::WIDE_JSQ_REQUESTS)
                } else {
                    fleets::reasoning_churn(args.seed, fleets::REASONING_CHURN_REQUESTS)
                };
                let (_, reference) = fleets::pass(
                    &case,
                    fleets::Mode::Straight,
                    None,
                    &mut tracer,
                    &mut checks,
                    empty_ns,
                );
                let passes = repeat(args.seconds, min, |i| {
                    let mode = if traced(i) {
                        fleets::Mode::Traced
                    } else {
                        fleets::Mode::Measured
                    };
                    fleets::pass(
                        &case,
                        mode,
                        Some(&reference),
                        &mut tracer,
                        &mut checks,
                        empty_ns,
                    )
                    .0
                });
                let layers = FLEET_RUN_LAYERS.iter().map(|s| s.to_string()).collect();
                (passes, reference.events, layers)
            }
            "paper_repro" => {
                let targets = repro::order(args.seed);
                repro::pass(&targets, &mut tracer, &mut checks);
                let passes = repeat(args.seconds, min, |_| {
                    repro::pass(&targets, &mut tracer, &mut checks)
                });
                let layers = targets
                    .iter()
                    .map(|e| repro::target_metric(e.name()))
                    .collect();
                (passes, 0, layers)
            }
            other => {
                eprintln!("perfbench: unknown workload `{other}`");
                return ExitCode::from(2);
            }
        };

    let (untraced, traced_passes): (Vec<_>, Vec<_>) = passes
        .into_iter()
        .enumerate()
        .partition(|&(i, _)| !traced(i));
    let untraced: Vec<Pass> = untraced.into_iter().map(|(_, p)| p).collect();
    let traced_passes: Vec<Pass> = traced_passes.into_iter().map(|(_, p)| p).collect();

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let mut by_run = traced_passes;
        by_run.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
        let mid = by_run.swap_remove((by_run.len() - 1) / 2);
        let untraced_run_s = median_of(&untraced, |p| p.run_s);
        let attributed: f64 = run_layers.iter().map(|n| mid.get(n)).sum();
        let per_event = |s: f64| {
            if events > 0 {
                s * 1e9 / events as f64
            } else {
                0.0
            }
        };
        let derived = [
            ("fleet.ns_per_event", per_event(untraced_run_s)),
            (
                "scheduler.self_ns_per_event",
                per_event(untraced_run_s - attributed),
            ),
            ("trace.empty_span_ns", empty_ns),
            ("trace.overhead_s", mid.run_s - untraced_run_s),
            ("trace.residual_s", mid.run_s - attributed),
            ("host.probe_s", median(&mut probes)),
        ];
        print_layer_table(&mid, &run_layers, untraced_run_s);
        per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let v = derived
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or_else(|| mid.get(&name), |&(_, v)| v);
                (name, v, unit)
            })
            .collect()
    } else {
        let mean_of =
            |f: fn(&Pass) -> f64| untraced.iter().map(f).sum::<f64>() / untraced.len() as f64;
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "setup_s" => median_of(&untraced, |p| p.setup_s),
                    "run_s" => mean_of(|p| p.run_s),
                    "report_s" => mean_of(|p| p.report_s),
                    "e2e_s" => mean_of(|p| p.e2e_s),
                    _ => median_of(&untraced, |p| p.peak_heap_bytes as f64),
                };
                (name.to_string(), v, unit)
            })
            .collect()
    };

    if args.trace {
        if let Err(e) = tracer.write(&mut std::io::stderr().lock()) {
            eprintln!("perfbench: writing spans failed: {e}");
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Prints where the median traced pass spent its run: each layer's self
/// time and the residual (scheduler core, calendar, command-log pushes,
/// telemetry and timer overhead), which add up to its run time.
fn print_layer_table(mid: &Pass, run_layers: &[String], untraced_run_s: f64) {
    let attributed: f64 = run_layers.iter().map(|n| mid.get(n)).sum();
    let share = |s: f64| 100.0 * s / mid.run_s;
    println!(
        "{:<36} {:>12} {:>8}",
        "layer (median traced pass)", "self s", "% run"
    );
    for n in run_layers {
        println!("{n:<36} {:>12.6} {:>7.1}%", mid.get(n), share(mid.get(n)));
    }
    let residual = mid.run_s - attributed;
    println!(
        "{:<36} {residual:>12.6} {:>7.1}%",
        "residual",
        share(residual)
    );
    println!("{:<36} {:>12.6} {:>7.1}%", "traced run_s", mid.run_s, 100.0);
    println!("{:<36} {untraced_run_s:>12.6}", "untraced run_s (median)");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics this program prints, with their units, must be
    /// exactly the ones `BENCHMARK.json` declares, in either mode.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside perfbench");
        let field = |entry: &str, key: &str| -> String {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("value closes")].to_string()
        };
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split('{')
                .skip(1)
                .map(|e| (field(e, "name"), field(e, "unit")))
                .collect()
        };
        let owned = |(n, u): (&str, &str)| (n.to_string(), u.to_string());
        let e2e: Vec<_> = END_TO_END.into_iter().map(owned).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<_> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("per_layer"), layers);
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
