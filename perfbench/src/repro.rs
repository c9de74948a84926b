//! The `paper_repro` workload: every target of the experiment registry
//! run with the sequential engine, rendered as text and compared with
//! its golden under `tests/golden/repro/`.

use crate::trace::Tracer;
use crate::{alloc, Checks, Pass};
use rpu_core::engine::Engine;
use rpu_core::experiments::{registry, render, Experiment, Format};
use std::path::Path;
use std::time::Instant;

/// Where the repro goldens sit, relative to the repository root.
const GOLDEN_DIR: &str = "tests/golden/repro";

/// The registry in the order one seed runs it. Targets are independent,
/// so the order changes no output; a seeded shuffle checks that no
/// target leans on state another one left behind.
pub fn order(seed: u64) -> Vec<&'static dyn Experiment> {
    let mut targets = registry();
    let mut state = seed ^ 0x2545_F491_4F6C_DD1D;
    for i in (1..targets.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        targets.swap(i, (state % (i as u64 + 1)) as usize);
    }
    targets
}

/// The per-target metric name.
pub fn target_metric(name: &str) -> String {
    format!("experiments.{name}_s")
}

/// One pass: load the goldens (set-up), run every target (run), render
/// them (report) and compare.
pub fn pass(targets: &[&'static dyn Experiment], tracer: &mut Tracer, checks: &mut Checks) -> Pass {
    tracer.next_pass();
    let mut p = Pass::default();
    alloc::take_peak();
    let t0 = Instant::now();

    let goldens: Vec<std::io::Result<String>> = targets
        .iter()
        .map(|e| std::fs::read_to_string(Path::new(GOLDEN_DIR).join(format!("{}.txt", e.name()))))
        .collect();
    p.setup_s = tracer.span("setup", "pass", t0);
    p.peak_heap_bytes = alloc::take_peak();

    let engine = Engine::sequential();
    let allocs0 = alloc::allocs();
    let t1 = Instant::now();
    let tables: Vec<_> = targets
        .iter()
        .map(|e| {
            let t = Instant::now();
            let tables = e.run(&engine);
            p.layer(target_metric(e.name()), tracer.span(e.name(), "run", t));
            tables
        })
        .collect();
    p.run_s = tracer.span("run", "pass", t1);
    let peak_loop = alloc::take_peak();
    p.layer("heap.peak_loop_bytes", peak_loop as f64);
    // Approximate: rpu-sim iterates randomly seeded hash maps, so two
    // identical passes can differ by a few allocations.
    p.layer("heap.loop_allocs", (alloc::allocs() - allocs0) as f64);
    p.peak_heap_bytes = p.peak_heap_bytes.max(peak_loop);

    let t2 = Instant::now();
    let texts: Vec<String> = targets
        .iter()
        .zip(&tables)
        .map(|(e, t)| render(*e, t, Format::Text))
        .collect();
    p.report_s = tracer.span("report", "pass", t2);
    p.layer("experiments.render_s", p.report_s);
    let peak_report = alloc::take_peak();
    p.layer("heap.peak_report_bytes", peak_report as f64);
    p.peak_heap_bytes = p.peak_heap_bytes.max(peak_report);

    for ((e, text), golden) in targets.iter().zip(&texts).zip(&goldens) {
        checks.check(
            golden.as_ref().is_ok_and(|g| g == text),
            format!(
                "{} renders its golden {GOLDEN_DIR}/{}.txt",
                e.name(),
                e.name()
            ),
        );
    }
    p.e2e_s = tracer.span("pass", "", t0);
    p.peak_heap_bytes = p.peak_heap_bytes.max(alloc::take_peak());
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_orders_the_whole_registry() {
        let mut names: Vec<_> = registry().iter().map(|e| e.name()).collect();
        names.sort_unstable();
        let mut orders = std::collections::BTreeSet::new();
        for seed in 0..8 {
            let o: Vec<_> = order(seed).iter().map(|e| e.name()).collect();
            assert_eq!(o, order(seed).iter().map(|e| e.name()).collect::<Vec<_>>());
            let mut sorted = o.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, names);
            orders.insert(o);
        }
        assert!(orders.len() > 1, "the seed moves the order");
    }
}
