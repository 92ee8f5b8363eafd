//! The batch workloads, `weaver` and `tourney`: construct an engine on the
//! shipped default configuration, run it to halt, validate.
//!
//! Untraced, each repetition times construction (`from_source` until the
//! first cycle), the run to halt, and every recognize-act cycle, driving
//! the engine one `Engine::run(1)` at a time; every repetition is checked
//! against a reference run on another matcher. Traced, construction is split into spans
//! around `ops5::Program::from_source`, `EngineBuilder::build`, the
//! matcher factory inside it and the setup `make_wme` calls, and the run
//! into one `engine.step` span per `Engine::step` with the `rete` spans of
//! [`TimingMatcher`] as children.

use crate::report::Report;
use crate::stats::{self, engine_digest};
use crate::trace::{self, Span, TimingMatcher, Tracer};
use engine::{Engine, EngineBuilder, StopReason};
use ops5::{Program, Result, Value};
use std::time::{Duration, Instant};
use workloads::rng::SplitMix64;
use workloads::{SetupVal, SetupWme, Workload};

/// The batch workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    Weaver,
    Tourney,
}

impl Batch {
    /// The workload's programs and inputs for `seed`: Weaver runs
    /// [`WEAVER_BOARDS`] boards the seed picks, Tourney its one fixed input.
    pub fn workloads(self, seed: u64) -> Vec<Workload> {
        match self {
            Batch::Weaver => {
                let mut rng = SplitMix64::new(seed);
                (0..WEAVER_BOARDS)
                    .map(|_| weaver_board(rng.next_u64()))
                    .collect()
            }
            // The Tourney generator takes no seed.
            Batch::Tourney => vec![bench::tourney_bench()],
        }
    }
}

/// A Weaver board of `bench::weaver_bench()`'s shape (12×12×2 cells, 8
/// nets, 637 rules); `board_seed` picks the blocked cells and the nets.
pub fn weaver_board(board_seed: u64) -> Workload {
    workloads::weaver::workload(workloads::weaver::WeaverConfig {
        width: 12,
        height: 12,
        kinds: 36,
        nets: 8,
        blocked_pct: 8,
        seed: board_seed,
    })
}

/// Boards per Weaver run. Boards differ in length and per-firing cost by
/// ~10%; a run over several boards keeps one unlucky board from moving the
/// run's figures.
pub const WEAVER_BOARDS: usize = 12;

/// Loads a program's startup forms, then its setup WMEs through
/// `Engine::make_wme` (the order `serve::ProgramSpec::build` uses).
pub fn load(eng: &mut Engine, setup: &[SetupWme]) -> Result<()> {
    load_with(eng, setup, || {})
}

/// [`load`], calling `lap` after the startup forms and after each setup
/// WME, so that a caller can time each step.
pub fn load_with(eng: &mut Engine, setup: &[SetupWme], mut lap: impl FnMut()) -> Result<()> {
    eng.load_startup()?;
    lap();
    for wme in setup {
        let sets: Vec<(&str, Value)> = wme
            .sets
            .iter()
            .map(|(a, v)| {
                let val = match v {
                    SetupVal::Sym(s) => eng.sym(s),
                    SetupVal::Int(i) => Value::Int(*i),
                };
                (a.as_str(), val)
            })
            .collect();
        eng.make_wme(&wme.class, &sets)?;
        lap();
    }
    Ok(())
}

/// What one run to halt produced, for the output checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub firings: u64,
    pub digest: u64,
}

/// Validates a finished engine and summarizes its output.
fn outcome(w: &Workload, eng: &Engine) -> std::result::Result<Outcome, String> {
    (w.validate)(eng).map_err(|e| format!("{}: validator: {e}", w.name))?;
    let firings = eng.cycles();
    if eng.fired_log().len() as u64 != firings {
        return Err(format!(
            "{}: fired log holds {} entries for {firings} cycles",
            w.name,
            eng.fired_log().len()
        ));
    }
    Ok(Outcome {
        firings,
        digest: engine_digest(eng),
    })
}

/// The reference outcome: the same program on the `vs1` list-memory
/// matcher, an independent Rete implementation, run in one `Engine::run`.
pub fn reference(w: &Workload) -> std::result::Result<Outcome, String> {
    let mut eng = EngineBuilder::from_source(&w.source)
        .and_then(|b| b.vs1().build())
        .map_err(|e| e.to_string())?;
    load(&mut eng, &w.setup).map_err(|e| e.to_string())?;
    eng.run(w.max_cycles).map_err(|e| e.to_string())?;
    outcome(w, &eng)
}

/// One untraced repetition.
pub struct Rep {
    /// Duration of every set-up step, in ms, in order: construction
    /// (`from_source` and `build`), the startup forms, then each setup WME.
    pub setup_ms: Vec<f64>,
    pub run: Duration,
    /// Latency of every cycle that fired, in ms, in order.
    pub cycle_ms: Vec<f64>,
    pub outcome: std::result::Result<Outcome, String>,
    pub matcher: &'static str,
    pub act: &'static str,
}

/// Constructs, runs to halt one cycle at a time, and validates.
pub fn untraced_rep(w: &Workload) -> Result<Rep> {
    let mut marks = Vec::with_capacity(w.setup.len() + 2);
    let t0 = Instant::now();
    let mut eng = EngineBuilder::from_source(&w.source)?.build()?;
    marks.push(t0.elapsed());
    load_with(&mut eng, &w.setup, || marks.push(t0.elapsed()))?;
    let mut last = Duration::ZERO;
    let setup_ms = marks
        .into_iter()
        .map(|m| (m - std::mem::replace(&mut last, m)).as_secs_f64() * 1e3)
        .collect();
    let mut cycle_ms = Vec::with_capacity(w.max_cycles.min(1 << 16) as usize);
    let t_run = Instant::now();
    let mut reason = StopReason::CycleLimit;
    while eng.cycles() < w.max_cycles {
        let c0 = Instant::now();
        let r = eng.run(1)?;
        let ms = c0.elapsed().as_secs_f64() * 1e3;
        if r.cycles > 0 {
            cycle_ms.push(ms);
        }
        reason = r.reason;
        if reason != StopReason::CycleLimit {
            break;
        }
    }
    let run = t_run.elapsed();
    let outcome = if reason == StopReason::CycleLimit {
        Err(format!(
            "{}: no halt within {} cycles",
            w.name, w.max_cycles
        ))
    } else {
        outcome(w, &eng)
    };
    Ok(Rep {
        setup_ms,
        run,
        cycle_ms,
        outcome,
        matcher: eng.matcher().name(),
        act: eng.act_strategy().name(),
    })
}

/// Builds an engine whose matcher is the default `vs2` wrapped in
/// [`TimingMatcher`], with construction spans.
pub fn traced_engine(tr: &Tracer, source: &str, setup: &[SetupWme]) -> Result<Engine> {
    let prog = tr.span("ops5.parse", || Program::from_source(source))?;
    let tr2 = tr.clone();
    let mut eng = tr.span("engine.build", || {
        EngineBuilder::new(prog)
            .custom_matcher(move |net| {
                let id = tr2.begin("rete.matcher_new");
                let inner = rete::seq::boxed_vs2(net, rete::HashMemConfig::default());
                tr2.end(id, 0);
                TimingMatcher::boxed(inner, tr2)
            })
            .build()
    })?;
    tr.span("engine.load", || load(&mut eng, setup))?;
    Ok(eng)
}

/// Steps an engine to halt (or quiescence) inside `engine.step` spans.
/// Returns the peak conflict-set size seen between steps.
pub fn traced_steps(tr: &Tracer, eng: &mut Engine, max_cycles: u64) -> Result<usize> {
    let mut cs_peak = eng.conflict_set().len();
    while eng.cycles() < max_cycles {
        let id = tr.begin("engine.step");
        let fired = eng.step()?;
        tr.end(id, 0);
        cs_peak = cs_peak.max(eng.conflict_set().len());
        if fired.is_none() {
            break;
        }
    }
    Ok(cs_peak)
}

/// Per-layer numbers of one traced construction + run.
#[derive(Debug, Clone, Default)]
pub struct LayerRep {
    pub parse_ms: f64,
    pub build_ms: f64,
    pub matcher_new_ms: f64,
    pub load_ms: f64,
    pub load_submit_ms: f64,
    pub step_ms: f64,
    pub submit_ms: f64,
    pub quiesce_ms: f64,
    pub control_ms: f64,
    pub changes: u64,
    pub submits: u64,
    pub cs_changes: u64,
    pub cs_peak: usize,
    pub join_activations: u64,
    pub null_activations: u64,
    /// Duration of every `engine.step` span, in order (ms).
    pub step_each_ms: Vec<f64>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Spans named `name` whose parent span is named `parent`.
fn child_spans<'a>(
    spans: &'a [Span],
    base: usize,
    parent: &'a str,
    name: &'a str,
) -> impl Iterator<Item = &'a Span> {
    spans.iter().filter(move |s| {
        s.name == name
            && s.parent
                .and_then(|p| p.checked_sub(base))
                .is_some_and(|p| spans.get(p).is_some_and(|q| q.name == parent))
    })
}

/// One traced repetition: construction spans, step spans, validation.
pub fn traced_rep(
    tr: &Tracer,
    source: &str,
    setup: &[SetupWme],
    max_cycles: u64,
) -> Result<(Engine, LayerRep)> {
    let base = tr.mark();
    let mut eng = traced_engine(tr, source, setup)?;
    let cs_peak = traced_steps(tr, &mut eng, max_cycles)?;
    let spans = tr.spans_since(base);
    let ns_of = |parent: &str, name: &str| -> u64 {
        child_spans(&spans, base, parent, name).map(Span::ns).sum()
    };
    let count_of = |parent: &str, name: &str| -> u64 {
        child_spans(&spans, base, parent, name)
            .map(|s| s.count)
            .sum()
    };
    let n_of = |parent: &str, name: &str| child_spans(&spans, base, parent, name).count() as u64;
    let stats = eng.match_stats();
    let layer = LayerRep {
        parse_ms: ms(trace::total_ns(&spans, "ops5.parse")),
        build_ms: ms(trace::self_ns(&spans, base, "engine.build")),
        matcher_new_ms: ms(trace::total_ns(&spans, "rete.matcher_new")),
        load_ms: ms(trace::self_ns(&spans, base, "engine.load")),
        load_submit_ms: ms(ns_of("engine.load", "rete.submit")),
        step_ms: ms(trace::total_ns(&spans, "engine.step")),
        submit_ms: ms(ns_of("engine.step", "rete.submit")),
        quiesce_ms: ms(ns_of("engine.step", "rete.quiesce")),
        control_ms: ms(trace::self_ns(&spans, base, "engine.step")),
        changes: count_of("engine.step", "rete.submit"),
        submits: n_of("engine.step", "rete.submit"),
        cs_changes: trace::total_count(&spans, "rete.quiesce"),
        cs_peak,
        join_activations: stats.join_activations,
        null_activations: stats.null_activations,
        step_each_ms: spans
            .iter()
            .filter(|s| s.name == "engine.step")
            .map(|s| ms(s.ns()))
            .collect(),
    };
    Ok((eng, layer))
}

/// Median of one field over repetitions.
fn med<T>(reps: &[T], f: impl Fn(&T) -> f64) -> f64 {
    stats::median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Reports the per-layer metrics of traced repetitions (medians).
pub fn report_layers(r: &mut Report, layers: &[LayerRep]) {
    r.metric("ops5.parse_ms", med(layers, |l| l.parse_ms), "ms");
    r.metric("engine.build_ms", med(layers, |l| l.build_ms), "ms");
    r.metric(
        "rete.matcher_new_ms",
        med(layers, |l| l.matcher_new_ms),
        "ms",
    );
    r.metric("engine.load_ms", med(layers, |l| l.load_ms), "ms");
    r.metric(
        "rete.load_submit_ms",
        med(layers, |l| l.load_submit_ms),
        "ms",
    );
    r.metric("rete.submit_ms", med(layers, |l| l.submit_ms), "ms");
    r.metric("rete.quiesce_ms", med(layers, |l| l.quiesce_ms), "ms");
    r.metric(
        "rete.us_per_change",
        med(layers, |l| {
            (l.submit_ms + l.quiesce_ms) * 1e3 / l.changes.max(1) as f64
        }),
        "us",
    );
    r.metric(
        "rete.changes_per_submit",
        med(layers, |l| l.changes as f64 / l.submits.max(1) as f64),
        "count",
    );
    r.metric(
        "rete.cs_changes",
        med(layers, |l| l.cs_changes as f64),
        "count",
    );
    r.metric(
        "rete.join_activations",
        med(layers, |l| l.join_activations as f64),
        "count",
    );
    r.metric(
        "rete.null_share",
        med(layers, |l| {
            l.null_activations as f64 / l.join_activations.max(1) as f64
        }),
        "share",
    );
    r.metric("engine.control_ms", med(layers, |l| l.control_ms), "ms");
    r.metric(
        "engine.match_share",
        med(layers, |l| {
            (l.submit_ms + l.quiesce_ms) / l.step_ms.max(f64::MIN_POSITIVE)
        }),
        "share",
    );
    r.metric("engine.cs_peak", med(layers, |l| l.cs_peak as f64), "count");
    let steps: Vec<f64> = layers
        .iter()
        .flat_map(|l| l.step_each_ms.iter().copied())
        .collect();
    r.metric(
        "engine.step_p99_ms",
        stats::tail(&steps, CYCLE_WINDOW).unwrap_or(0.0),
        "ms",
    );
}

/// Cycles per latency window: the cycles of all repetitions, in order, are
/// cut into windows of this size, so the tail rule always picks p99
/// whatever a board's length.
pub const CYCLE_WINDOW: usize = 1000;

/// Repetitions of every board before a run may stop.
const MIN_REPS_PER_BOARD: usize = 2;

/// Runs repetitions round-robin over the boards until `seconds` have
/// passed and every board ran at least [`MIN_REPS_PER_BOARD`] times.
fn round_robin<T>(
    boards: &[Workload],
    seconds: f64,
    mut rep: impl FnMut(usize, &Workload) -> Result<T>,
) -> Result<Vec<Vec<T>>> {
    let started = Instant::now();
    let mut out: Vec<Vec<T>> = boards.iter().map(|_| Vec::new()).collect();
    let mut i = 0;
    while out.iter().any(|v| v.len() < MIN_REPS_PER_BOARD)
        || started.elapsed().as_secs_f64() < seconds
    {
        let b = i % boards.len();
        out[b].push(rep(b, &boards[b])?);
        i += 1;
    }
    Ok(out)
}

/// The untraced run: repetitions until `seconds` have passed, then the
/// reference check of every board. Reports the end-to-end metrics.
///
/// The host's speed drifts by up to ±20% over seconds, and a batch run is
/// deterministic, so its times are best-of-repetitions: each cycle's
/// latency is that cycle's fastest over the board's repetitions, and a
/// board's run time is the sum of those; likewise each set-up step's
/// time is its fastest, and a board's set-up time is the sum of those.
/// Run and set-up times are summed over the boards.
pub fn run_untraced(kind: Batch, seed: u64, seconds: f64, r: &mut Report) -> Result<()> {
    let boards = kind.workloads(seed);
    let reps = round_robin(&boards, seconds, |_, w| untraced_rep(w))?;
    // Read before the references run on `vs1`, whose memories differ.
    let peak_kb = crate::host::status_kb("self", "VmHWM").unwrap_or(0);
    let mut firings = 0;
    let mut run_ms = 0.0;
    let mut setup_s = 0.0;
    let mut cycles: Vec<f64> = Vec::new();
    for (b, (w, board_reps)) in boards.iter().zip(&reps).enumerate() {
        let reference = reference(w);
        let mut ok = Vec::new();
        for (i, rep) in board_reps.iter().enumerate() {
            let check = check_rep(rep, &reference, i);
            if check.is_ok() {
                ok.push(rep);
            }
            r.check(check);
        }
        if let Ok(o) = &reference {
            r.info(&format!("board{b}.firings"), o.firings);
            r.info(&format!("board{b}.digest"), format!("{:016x}", o.digest));
        }
        let Some(first) = ok.first() else { continue };
        // Checked repetitions of one board fire the same cycles after the
        // same set-up steps.
        let fastest = |steps: fn(&Rep) -> &[f64]| -> Vec<f64> {
            (0..steps(first).len())
                .map(|c| ok.iter().map(|x| steps(x)[c]).fold(f64::INFINITY, f64::min))
                .collect()
        };
        let best = fastest(|x| &x.cycle_ms);
        firings += best.len() as u64;
        run_ms += best.iter().sum::<f64>();
        cycles.extend(best);
        setup_s += fastest(|x| &x.setup_ms).iter().sum::<f64>() / 1e3;
    }
    let (p50, p99, tail_pct, n) = stats::summarize(&stats::windows(&cycles, CYCLE_WINDOW))
        .ok_or_else(|| runtime("fewer checked cycles than one latency window"))?;
    let all: Vec<&Rep> = reps.iter().flatten().collect();
    r.metric("setup_s", setup_s, "s");
    r.metric("firings_per_s", firings as f64 * 1e3 / run_ms, "1/s");
    r.metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    r.metric("p50_ms", p50, "ms");
    r.info("p99_ms", p99);
    r.info("matcher", all[0].matcher);
    r.info("act", all[0].act);
    r.info("workers", 1);
    r.info("boards", boards.len());
    r.info("repetitions", all.len());
    r.info("tail_percentile", tail_pct);
    r.info("cycle_samples", n);
    Ok(())
}

fn runtime(msg: &str) -> ops5::Ops5Error {
    ops5::Ops5Error::Runtime(msg.to_string())
}

fn check_rep(
    rep: &Rep,
    reference: &std::result::Result<Outcome, String>,
    i: usize,
) -> std::result::Result<(), String> {
    let got = rep.outcome.as_ref().map_err(|e| format!("rep {i}: {e}"))?;
    let want = reference.as_ref().map_err(|e| format!("reference: {e}"))?;
    if got != want {
        return Err(format!(
            "rep {i}: {} firings digest {:016x}, reference {} firings digest {:016x}",
            got.firings, got.digest, want.firings, want.digest
        ));
    }
    if rep.cycle_ms.len() as u64 != got.firings {
        return Err(format!(
            "rep {i}: {} timed cycles for {} firings",
            rep.cycle_ms.len(),
            got.firings
        ));
    }
    Ok(())
}

/// The traced run: on every board an untraced and a traced repetition
/// alternate until `seconds` have passed. Every repetition is checked
/// against the board's reference, so the traced and untraced digests are
/// equal. Reports the per-layer metrics and `trace.overhead`.
pub fn run_traced(kind: Batch, seed: u64, seconds: f64, r: &mut Report, tr: &Tracer) -> Result<()> {
    let boards = kind.workloads(seed);
    let refs: Vec<_> = boards.iter().map(reference).collect();
    let pairs = round_robin(&boards, seconds, |b, w| {
        let rep = untraced_rep(w)?;
        tr.set_req(b as u64);
        let (eng, layer) = traced_rep(tr, &w.source, &w.setup, w.max_cycles)?;
        Ok((rep, outcome(w, &eng), layer))
    })?;
    let mut layers = Vec::new();
    let mut overhead = Vec::new();
    let (first, _, _) = &pairs[0][0];
    r.info("matcher", first.matcher);
    r.info("act", first.act);
    r.info("workers", 1);
    for (board_pairs, reference) in pairs.into_iter().zip(&refs) {
        for (i, (rep, traced, layer)) in board_pairs.into_iter().enumerate() {
            r.check(check_rep(&rep, reference, i));
            r.check(match (traced, reference) {
                (Ok(got), Ok(want)) if got == *want => Ok(()),
                (got, want) => Err(format!("traced rep {i}: {got:?}, reference {want:?}")),
            });
            overhead.push(layer.step_ms / 1e3 / rep.run.as_secs_f64());
            layers.push(layer);
        }
    }
    report_layers(r, &layers);
    r.metric("trace.overhead", stats::median(&overhead), "ratio");
    r.info("traced_repetitions", layers.len());
    Ok(())
}
