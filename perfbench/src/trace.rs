//! In-memory tracing from the benchmark's side of the API: per-call
//! timers around the `Router`, `CostModel` and `SchedulingPolicy` trait
//! objects handed to a run, and named spans around the phases.
//!
//! The wrappers delegate every trait method unchanged, so a traced run
//! makes exactly the decisions an untraced one does; only the host time
//! differs. End-to-end figures therefore come from untraced passes.

use rpu_serve::snapshot::{SnapshotReader, SnapshotWriter};
use rpu_serve::{
    ActiveRequest, CostModel, FleetEvent, QueuedRequest, Request, Router, RoutingView,
    SchedulingPolicy, SnapshotError,
};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Sub-buckets per power of two in [`Histogram`]: quantiles read to
/// within about 3%.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of nanosecond durations.
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            counts: vec![0; (64 * SUB) as usize],
            total: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let shift = msb - SUB_BITS;
        ((u64::from(shift + 1) << SUB_BITS) + ((ns >> shift) & (SUB - 1))) as usize
    }

    /// The smallest duration that lands in bucket `b`.
    fn floor(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB {
            return b;
        }
        let shift = (b >> SUB_BITS) - 1;
        (SUB + (b & (SUB - 1))) << shift
    }

    fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// The duration at quantile `q` (0..=1), as the floor of its bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::floor(b);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// One layer's calls: how many, their summed host time and their
/// duration histogram. Shared by every wrapper of the layer in a run.
pub struct LayerStats {
    calls: Cell<u64>,
    ns: Cell<u64>,
    hist: RefCell<Histogram>,
    /// Queue entries the policy layer was shown by `select`.
    scanned: Cell<u64>,
}

impl LayerStats {
    pub fn new() -> Rc<Self> {
        Rc::new(Self {
            calls: Cell::new(0),
            ns: Cell::new(0),
            hist: RefCell::new(Histogram::new()),
            scanned: Cell::new(0),
        })
    }

    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.calls.set(self.calls.get() + 1);
        self.ns.set(self.ns.get() + ns);
        self.hist.borrow_mut().record(ns);
        r
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    pub fn scanned(&self) -> u64 {
        self.scanned.get()
    }

    /// Summed host time, less `empty_ns` (the cost of an empty timer
    /// pair) per call: the layer's self time in seconds.
    pub fn self_s(&self, empty_ns: f64) -> f64 {
        (self.ns.get() as f64 - empty_ns * self.calls.get() as f64).max(0.0) * 1e-9
    }

    /// The per-call duration at quantile `q`, less `empty_ns`.
    pub fn quantile_ns(&self, q: f64, empty_ns: f64) -> f64 {
        (self.hist.borrow().quantile(q) as f64 - empty_ns).max(0.0)
    }
}

/// A [`Router`] that times each `route` call.
pub struct TracedRouter {
    pub inner: Box<dyn Router>,
    pub stats: Rc<LayerStats>,
}

impl Router for TracedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, req: &Request, view: &RoutingView<'_>) -> usize {
        let inner = &mut self.inner;
        self.stats.time(|| inner.route(req, view))
    }

    fn on_fleet_event(&mut self, event: &FleetEvent, view: &RoutingView<'_>) {
        self.inner.on_fleet_event(event, view);
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

/// A [`CostModel`] that times each pricing call.
pub struct TracedCost {
    pub inner: Box<dyn CostModel>,
    pub stats: Rc<LayerStats>,
}

impl CostModel for TracedCost {
    fn decode_step_s(&mut self, batch: u32, max_context: u32) -> f64 {
        let inner = &mut self.inner;
        self.stats.time(|| inner.decode_step_s(batch, max_context))
    }

    fn prefill_s(&mut self, prompt_len: u32) -> f64 {
        let inner = &mut self.inner;
        self.stats.time(|| inner.prefill_s(prompt_len))
    }

    fn fits(&self, context_tokens: u64) -> bool {
        self.stats.time(|| self.inner.fits(context_tokens))
    }

    fn kv_capacity_tokens(&self) -> u64 {
        self.inner.kv_capacity_tokens()
    }
}

/// A [`SchedulingPolicy`] that times each admission and eviction call.
pub struct TracedPolicy {
    pub inner: Box<dyn SchedulingPolicy>,
    pub stats: Rc<LayerStats>,
}

impl SchedulingPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, queue: &[QueuedRequest], clock: f64) -> Option<usize> {
        let s = &self.stats;
        s.scanned.set(s.scanned.get() + queue.len() as u64);
        let inner = &mut self.inner;
        s.time(|| inner.select(queue, clock))
    }

    fn preempt_victim(
        &mut self,
        active: &[ActiveRequest],
        candidate: &QueuedRequest,
        clock: f64,
    ) -> Option<usize> {
        let inner = &mut self.inner;
        self.stats
            .time(|| inner.preempt_victim(active, candidate, clock))
    }

    fn may_preempt(&self) -> bool {
        self.inner.may_preempt()
    }
}

/// The host cost of an empty timer pair, nanoseconds: the median over
/// batches of the mean `Instant::now` → `elapsed` round trip. Each timed
/// call is inflated by about this much.
pub fn empty_span_ns() -> f64 {
    const PAIRS: u32 = 100_000;
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let mut ns = 0u64;
            for _ in 0..PAIRS {
                let t = Instant::now();
                ns += std::hint::black_box(t.elapsed()).as_nanos() as u64;
            }
            ns as f64 / f64::from(PAIRS)
        })
        .collect();
    crate::median(&mut batches)
}

/// A finished span: a named interval of one pass, relative to the
/// tracer's epoch, with the name of the span that encloses it.
struct Span {
    pass: u32,
    name: String,
    parent: &'static str,
    start_ns: u128,
    end_ns: u128,
}

/// Spans of every pass, kept in memory and written out once at exit.
pub struct Tracer {
    epoch: Instant,
    pass: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            pass: 0,
            spans: Vec::new(),
        }
    }

    /// Starts a new pass: later spans carry its number.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Records `name` (inside `parent`) from `start` to now and returns
    /// its duration in seconds.
    pub fn span(&mut self, name: impl Into<String>, parent: &'static str, start: Instant) -> f64 {
        let end = Instant::now();
        self.spans.push(Span {
            pass: self.pass,
            name: name.into(),
            parent,
            start_ns: (start - self.epoch).as_nanos(),
            end_ns: (end - self.epoch).as_nanos(),
        });
        (end - start).as_secs_f64()
    }

    /// Writes every span as one tab-separated line to `out`.
    pub fn write(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "pass\tspan\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.pass, s.name, s.parent, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::Histogram;

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in (0..100_000u64).chain([1 << 40, u64::MAX]) {
            let b = Histogram::bucket(ns);
            assert!(b >= last, "bucket order broke at {ns}");
            last = b;
            let floor = Histogram::floor(b);
            assert!(floor <= ns, "floor {floor} above {ns}");
            assert!(ns - floor <= ns / 32, "bucket of {ns} too wide");
        }
    }

    #[test]
    fn histogram_quantiles_follow_the_recorded_mass() {
        let mut h = Histogram::new();
        for ns in 1..=1000 {
            h.record(ns);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((484..=500).contains(&p50), "p50 {p50}");
        assert!((960..=990).contains(&p99), "p99 {p99}");
    }
}
