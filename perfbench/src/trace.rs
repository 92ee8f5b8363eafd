//! Spans recorded from outside the program, around the calls the
//! benchmark makes into each layer's public API.
//!
//! A span has a name, a start, an end, a parent and a request id. Spans
//! are kept in memory and written out once, when the run ends. The only
//! span source inside an engine is [`TimingMatcher`], a `Matcher` wrapper
//! installed through the public `EngineBuilder::custom_matcher` hook, so
//! `rete` time is charged to `rete` however the engine's own phase
//! histograms attribute it.

use ops5::{ChangeBatch, MatchStats, Matcher, QuiesceReport};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
    /// Work count carried by the span: changes for `rete.submit`,
    /// conflict-set changes for `rete.quiesce`, 0 elsewhere.
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

/// A shared span recorder. Cloning shares the recorder; the matcher
/// wrapper holds a clone, so it must be `Send`.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    state: Arc<Mutex<State>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Arc::default(),
        }
    }
}

impl Tracer {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer mutex poisoned by a panicking span")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the request id stamped on spans begun from now on.
    pub fn set_req(&self, req: u64) {
        self.lock().req = req;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let mut s = self.lock();
        let parent = s.open.last().copied();
        let req = s.req;
        let id = s.spans.len();
        s.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            count: 0,
        });
        s.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&self, id: usize, count: u64) {
        let end_ns = self.now_ns();
        let mut s = self.lock();
        assert_eq!(s.open.pop(), Some(id), "spans must close innermost-first");
        let span = &mut s.spans[id];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id, 0);
        out
    }

    /// Index of the next span to be recorded; pass it to
    /// [`spans_since`](Self::spans_since) to collect one phase's spans.
    pub fn mark(&self) -> usize {
        self.lock().spans.len()
    }

    pub fn spans_since(&self, mark: usize) -> Vec<Span> {
        self.lock().spans[mark..].to_vec()
    }

    /// Every span as tab-separated lines:
    /// `id parent req name start_ns end_ns count` (`-` for no parent).
    pub fn to_tsv(&self) -> String {
        let s = self.lock();
        let mut out = String::from("id\tparent\treq\tname\tstart_ns\tend_ns\tcount\n");
        for (i, sp) in s.spans.iter().enumerate() {
            let parent = sp.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                sp.req, sp.name, sp.start_ns, sp.end_ns, sp.count
            );
        }
        out
    }
}

/// Sum of the durations of spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
}

/// Sum of the `count` field over spans named `name`.
pub fn total_count(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.count)
        .sum()
}

/// Number of spans named `name`.
pub fn n_spans(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).count() as u64
}

/// Total self time of spans named `name`: each span's duration minus the
/// durations of its direct children. Children of one span never overlap,
/// because every span here is opened and closed on one thread.
/// `base` is the tracer index of `spans[0]`.
pub fn self_ns(spans: &[Span], base: usize, name: &str) -> u64 {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            if p < spans.len() {
                child_ns[p] += s.ns();
            }
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(s, c)| s.ns().saturating_sub(*c))
        .sum()
}

/// A transparent `Matcher` wrapper that records a `rete.submit` span per
/// batch (count = changes) and a `rete.quiesce` span per quiesce (count =
/// conflict-set changes). Everything else passes straight through.
pub struct TimingMatcher {
    inner: Box<dyn Matcher>,
    tracer: Tracer,
}

impl TimingMatcher {
    pub fn boxed(inner: Box<dyn Matcher>, tracer: Tracer) -> Box<dyn Matcher> {
        Box::new(TimingMatcher { inner, tracer })
    }
}

impl Matcher for TimingMatcher {
    fn submit(&mut self, batch: &ChangeBatch) {
        let id = self.tracer.begin("rete.submit");
        self.inner.submit(batch);
        self.tracer.end(id, batch.len() as u64);
    }

    fn quiesce(&mut self) -> QuiesceReport {
        let id = self.tracer.begin("rete.quiesce");
        let report = self.inner.quiesce();
        self.tracer.end(id, report.cs_changes.len() as u64);
        report
    }

    fn stats(&self) -> MatchStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn enable_obs(&mut self, registry: &Arc<obs::Registry>) {
        self.inner.enable_obs(registry)
    }

    fn node_profile(&self) -> Option<Arc<obs::NodeProfile>> {
        self.inner.node_profile()
    }
}
