//! The `serve-mixed` workload: a child `ops5-serve --workers 2` driven by
//! the open-loop `triage` stream and the `rubik` churn of [`crate::driver`].
//!
//! Untraced, the run measures set-up (spawn to first `OK`, several times),
//! then a warm-up and one mixed phase. Traced, it first replays the same
//! commands in process (`serve::ProgramSpec::build`, `Session::new`,
//! `Session::execute`) and traces `rubik`'s construction and run, then
//! drives a server through a stream-only, a churn-only and a mixed phase,
//! so the wire share and the interference can be told apart.

use crate::driver::{self, ChurnRef, Driver, PhaseOut, TicketGen, CHURN_RUN, STREAM_RUN};
use crate::offline;
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use engine::{EngineBuilder, EngineLimits, MatcherKind, StopReason};
use serve::{BatchItem, Client, ClientReply, Command, ProgramSpec, Registry, Session};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command as Process, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stream requests per second: about a fifth of what the stream sustains
/// alone on a 2-core Intel Xeon host (see perfbench/README.md).
pub const STREAM_RATE: f64 = 500.0;
/// A run whose generator sent the 99th-percentile request later than this
/// after its due time measured the load generator, not the server; it is
/// rejected.
pub const LATE_P99_BOUND_MS: f64 = 20.0;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Niceness of the server process relative to the generator.
const SERVER_NICE: &str = "10";
/// Server spawns timed per run for `setup_s`.
const SETUP_SPAWNS: usize = 8;
/// Requests per stream-latency window (fixes the tail percentile at p99).
pub const STREAM_WINDOW: usize = 1000;
/// Stream requests replayed in process by the traced run.
const REPLAY_REQUESTS: usize = 5000;
/// Unmeasured mixed load before the measured phase.
const WARMUP: Duration = Duration::from_secs(1);

fn err(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// A running `ops5-serve` child. Dropping it kills and reaps the process.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Spawns the server on an ephemeral port and waits for its
    /// `listening on` line. The server runs at a lower scheduling priority
    /// than the load generator: on a 2-core host its three busy threads
    /// would otherwise keep the generator off the CPU for milliseconds, and
    /// the run would measure when the generator got to send.
    pub fn spawn(bin: &Path) -> io::Result<ServerProc> {
        let mut cmd = Process::new("nice");
        cmd.args(["-n", SERVER_NICE])
            .arg(bin)
            .args(["--addr", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .args(["--programs", "programs"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for k in crate::host::CONFIG_KNOBS {
            cmd.env_remove(k);
        }
        let mut child = cmd.spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut proc = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: None,
        };
        let mut lines = BufReader::new(stderr);
        let mut line = String::new();
        loop {
            line.clear();
            if lines.read_line(&mut line)? == 0 {
                return Err(err("ops5-serve exited before listening"));
            }
            if let Some(a) = line.trim().strip_prefix("ops5-serve: listening on ") {
                proc.addr = a
                    .parse()
                    .map_err(|e| err(format!("bad address {a}: {e}")))?;
                break;
            }
            eprint!("{line}");
        }
        proc.drain = Some(std::thread::spawn(move || forward(lines)));
        Ok(proc)
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `SHUTDOWN` and waits for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        Client::connect(self.addr)?.shutdown()?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(err("ops5-serve did not exit after SHUTDOWN"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

fn forward(mut lines: BufReader<ChildStderr>) {
    let mut line = String::new();
    while matches!(lines.read_line(&mut line), Ok(n) if n > 0) {
        if !line.contains("shut down") {
            eprint!("{line}");
        }
        line.clear();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// Spawns a server and times it from the spawn to the first `OK` (an
/// `OPEN triage` on a fresh connection, closed again).
fn spawn_timed(bin: &Path) -> io::Result<(ServerProc, Duration)> {
    let t0 = Instant::now();
    let proc = ServerProc::spawn(bin)?;
    let mut c = Client::connect(proc.addr)?;
    let reply = c.open("triage", None)?;
    let elapsed = t0.elapsed();
    if !reply.is_ok() {
        return Err(err(format!("first OPEN triage: {reply:?}")));
    }
    c.close()?;
    Ok((proc, elapsed))
}

/// The in-process references every wire reply is checked against.
struct Refs {
    triage: ProgramSpec,
    rubik: ProgramSpec,
    /// Firings of the first `RUN` of a fresh triage session (its startup
    /// tickets).
    triage_startup: u64,
    churn: ChurnRef,
}

fn reason(r: StopReason) -> &'static str {
    match r {
        StopReason::Halt => "halt",
        StopReason::Quiescent => "quiescent",
        StopReason::CycleLimit => "limit",
        StopReason::Budget => "budget",
    }
}

fn build(spec: &ProgramSpec) -> ops5::Result<engine::Engine> {
    spec.build(MatcherKind::default(), EngineLimits::default(), None)
}

impl Refs {
    fn load() -> io::Result<Refs> {
        let src = std::fs::read_to_string("programs/triage.ops")?;
        let triage = ProgramSpec::from_source(src);
        let rubik = Registry::with_builtins(None)
            .get("rubik")
            .map(|s| ProgramSpec {
                source: s.source.clone(),
                setup: s.setup.clone(),
            })
            .ok_or_else(|| err("no rubik in the registry"))?;
        let e = |x: ops5::Ops5Error| err(x.to_string());
        let triage_startup = build(&triage)
            .map_err(e)?
            .run(STREAM_RUN)
            .map_err(e)?
            .cycles;
        // The direct engine, not the serve layer, is the oracle.
        let mut eng = EngineBuilder::from_source(&rubik.source)
            .and_then(|b| b.build())
            .map_err(e)?;
        offline::load(&mut eng, &rubik.setup).map_err(e)?;
        let res = eng.run(CHURN_RUN).map_err(e)?;
        let fired = eng
            .fired_log()
            .iter()
            .map(|(p, tags)| {
                let tags: Vec<String> = tags.iter().map(|t| t.to_string()).collect();
                format!("{} {}", eng.prog.prod_name(*p), tags.join(" "))
            })
            .collect();
        Ok(Refs {
            triage,
            rubik,
            triage_startup,
            churn: ChurnRef {
                cycles: res.cycles,
                reason: reason(res.reason),
                fired,
            },
        })
    }
}

/// Connects the driver and opens the stream's triage session; returns the
/// matcher the server reported.
fn start_driver(
    proc: &ServerProc,
    seed: u64,
    refs: &Refs,
    r: &mut Report,
) -> io::Result<(Driver, String)> {
    let mut d = Driver::connect(proc.addr, seed, STREAM_RATE, Some(refs.churn.clone()))?;
    let timeout = Duration::from_secs(10);
    let open = d.stream_request("OPEN triage", timeout)?;
    let matcher = match &open {
        ClientReply::Ok(p) => driver::field(p, "matcher").unwrap_or("unknown").to_string(),
        other => return Err(err(format!("stream OPEN triage: {other:?}"))),
    };
    let first = d.stream_request(&format!("RUN {STREAM_RUN}"), timeout)?;
    let want = refs.triage_startup.to_string();
    r.check(match &first {
        ClientReply::Ok(p) if driver::field(p, "cycles") == Some(want.as_str()) => Ok(()),
        other => Err(format!(
            "first triage RUN {other:?}, expected cycles={want}"
        )),
    });
    Ok((d, matcher))
}

/// Runs one phase and counts its operations and failures into the
/// report. A lost connection ends the run.
fn phase(
    d: &mut Driver,
    r: &mut Report,
    dur: Duration,
    stream_on: bool,
    churn_on: bool,
    server_pid: Option<&str>,
) -> io::Result<PhaseOut> {
    let out = d.run_phase(dur, stream_on, churn_on, server_pid);
    r.attempted += out.stream_sent + out.sessions + out.sessions_failed;
    r.failed += out.stream_failed + out.sessions_failed;
    r.failures.extend(out.failures.iter().cloned());
    if out.broken {
        return Err(err(format!("connection lost: {:?}", out.failures.last())));
    }
    Ok(out)
}

fn late_p99(out: &PhaseOut) -> f64 {
    let mut v = out.late_ms.clone();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        stats::percentile(&v, 99.0)
    }
}

/// Rejects a phase whose generator ran late.
fn check_generator(out: &PhaseOut, phase: &str) -> io::Result<f64> {
    let late = late_p99(out);
    if late > LATE_P99_BOUND_MS {
        return Err(err(format!(
            "{phase}: the load generator's p99 send lateness {late:.3} ms exceeds \
             {LATE_P99_BOUND_MS} ms; the run measured the generator, not the server"
        )));
    }
    Ok(late)
}

/// Median p50 and p99 of a phase's stream latency over fixed windows.
fn stream_latency(out: &PhaseOut, phase: &str) -> io::Result<(f64, f64, f64, usize)> {
    stats::summarize(&stats::windows(&out.lat_ms, STREAM_WINDOW)).ok_or_else(|| {
        err(format!(
            "{phase}: fewer than {STREAM_WINDOW} stream requests to summarize"
        ))
    })
}

fn open_latency(out: &PhaseOut) -> (f64, f64) {
    let mut v = out.open_ms.clone();
    if v.is_empty() {
        return (0.0, 0.0);
    }
    v.sort_by(f64::total_cmp);
    let p99 = stats::tail_percentile(v.len()).map_or(f64::NAN, |p| stats::percentile(&v, p));
    (stats::percentile(&v, 50.0), p99)
}

/// Records the configuration that ran.
fn record_config(r: &mut Report, refs: &Refs, matcher: &str) {
    r.info("matcher", matcher);
    r.info(
        "act",
        build(&refs.triage).map_or_else(
            |e| format!("error: {e}"),
            |e| e.act_strategy().name().to_string(),
        ),
    );
    r.info("workers", WORKERS);
    r.info("stream_rate_per_s", STREAM_RATE);
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(bin: &Path, seed: u64, seconds: f64, r: &mut Report) -> io::Result<()> {
    let refs = Refs::load()?;
    let mut setups = Vec::new();
    for _ in 1..SETUP_SPAWNS {
        let (p, t) = spawn_timed(bin)?;
        setups.push(t.as_secs_f64());
        p.shutdown()?;
    }
    let (proc, t) = spawn_timed(bin)?;
    setups.push(t.as_secs_f64());
    let (mut d, matcher) = start_driver(&proc, seed, &refs, r)?;
    phase(&mut d, r, WARMUP, true, true, None)?;
    let dur = Duration::from_secs_f64(seconds);
    let out = phase(&mut d, r, dur, true, true, Some(&proc.pid()))?;
    let peak_kb = crate::host::status_kb(&proc.pid(), "VmHWM").unwrap_or(0);
    drop(d);
    proc.shutdown()?;
    let late = check_generator(&out, "mixed")?;
    let (p50, p99, tail_pct, n) = stream_latency(&out, "mixed")?;
    let (open_p50, open_p99) = open_latency(&out);
    if out.session_ms.is_empty() {
        return Err(err("mixed: no churn session passed its checks"));
    }
    r.metric("setup_s", stats::median(&setups), "s");
    // A churn session's firings over its median duration, OPEN to CLOSE:
    // the stream's firings follow its fixed rate, and the churn's
    // sessions per second follow its think time.
    r.metric(
        "firings_per_s",
        refs.churn.cycles as f64 * 1e3 / stats::median(&out.session_ms),
        "1/s",
    );
    r.metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    r.metric("p50_ms", p50, "ms");
    r.info("p99_ms", p99);
    record_config(r, &refs, &matcher);
    r.info("setup_spawns", setups.len());
    r.info("tail_percentile", tail_pct);
    r.info("stream_samples", n);
    r.info("open_p50_ms", open_p50);
    r.info("open_p99_ms", open_p99);
    r.info("open_samples", out.open_ms.len());
    r.info(
        "sessions_per_s",
        out.sessions as f64 / out.wall.as_secs_f64(),
    );
    r.info("late_p99_ms", late);
    r.info("stream_held", out.stream_held);
    Ok(())
}

/// Executes one stream request in process; returns the reply check.
fn exec_request(s: &mut Session, tickets: &[(i64, i64)], firings: u64) -> Result<(), String> {
    let items = tickets
        .iter()
        .enumerate()
        .map(|(i, &t)| BatchItem::Assert {
            line: i + 1,
            body: driver::ticket_body(t),
        })
        .collect();
    if !s.execute(Command::Batch(items)).is_ok() {
        return Err("in-process BATCH failed".into());
    }
    match s.execute(Command::Run(STREAM_RUN)) {
        serve::Reply::Ok(p) if driver::field(&p, "cycles") == Some(&firings.to_string()) => Ok(()),
        other => Err(format!(
            "in-process RUN {other:?}, expected cycles={firings}"
        )),
    }
}

/// A triage session on `eng` whose first `RUN` has fired the startup
/// tickets.
fn stream_session(eng: engine::Engine, startup: u64, r: &mut Report) -> Session {
    let mut s = Session::new(0, "triage", eng, MatcherKind::default(), 10_000);
    let first = s.execute(Command::Run(STREAM_RUN));
    r.check(match &first {
        serve::Reply::Ok(p) if driver::field(p, "cycles") == Some(&startup.to_string()) => Ok(()),
        other => Err(format!("in-process first RUN {other:?}")),
    });
    s
}

/// Replays `n` stream requests through `Session::execute`, each on a
/// plain and on a traced session in turn (so host drift hits both alike),
/// and returns the per-request times (ms) of each.
fn replay_stream(
    mut plain: Session,
    mut traced: Session,
    seed: u64,
    n: usize,
    tr: &Tracer,
    r: &mut Report,
) -> (Vec<f64>, Vec<f64>) {
    let mut tickets = TicketGen::new(seed);
    let (mut plain_ms, mut traced_ms) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let (t, firings) = tickets.next_request();
        let t0 = Instant::now();
        let res = exec_request(&mut plain, &t, firings);
        plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        r.check(res);
        tr.set_req(i as u64);
        let t0 = Instant::now();
        let res = tr.span("serve.execute", || exec_request(&mut traced, &t, firings));
        traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        r.check(res);
    }
    (plain_ms, traced_ms)
}

/// The traced run: per-layer metrics.
pub fn run_traced(
    bin: &Path,
    seed: u64,
    seconds: f64,
    r: &mut Report,
    tr: &Tracer,
) -> io::Result<()> {
    let refs = Refs::load()?;
    let e = |x: ops5::Ops5Error| err(x.to_string());

    // In process: rubik's construction and run, traced layer by layer,
    // and `ProgramSpec::build` + `Session::execute` as the server calls
    // them.
    let budget = Instant::now() + Duration::from_secs_f64(seconds * 0.1);
    let mut layers = Vec::new();
    let mut construct = Vec::new();
    let mut rubik_run = Vec::new();
    while layers.len() < 5 || Instant::now() < budget {
        tr.set_req(layers.len() as u64);
        let (eng, layer) =
            offline::traced_rep(tr, &refs.rubik.source, &refs.rubik.setup, CHURN_RUN).map_err(e)?;
        r.check(if eng.cycles() == refs.churn.cycles {
            Ok(())
        } else {
            Err(format!("traced rubik fired {} cycles", eng.cycles()))
        });
        layers.push(layer);
        let t0 = Instant::now();
        let eng = build(&refs.rubik).map_err(e)?;
        construct.push(t0.elapsed().as_secs_f64() * 1e3);
        let mut s = Session::new(0, "rubik", eng, MatcherKind::default(), CHURN_RUN);
        let t0 = Instant::now();
        let reply = s.execute(Command::Run(CHURN_RUN));
        rubik_run.push(t0.elapsed().as_secs_f64() * 1e3);
        r.check(match &reply {
            serve::Reply::Ok(p)
                if driver::field(p, "cycles") == Some(&refs.churn.cycles.to_string()) =>
            {
                Ok(())
            }
            other => Err(format!("in-process rubik RUN {other:?}")),
        });
    }
    offline::report_layers(r, &layers);
    let construct_ms = stats::median(&construct);

    // The stream's commands, untraced and traced.
    let plain = stream_session(build(&refs.triage).map_err(e)?, refs.triage_startup, r);
    let traced_eng =
        offline::traced_engine(tr, &refs.triage.source, &refs.triage.setup).map_err(e)?;
    let traced = stream_session(traced_eng, refs.triage_startup, r);
    let (plain, traced) = replay_stream(plain, traced, seed, REPLAY_REQUESTS, tr, r);
    let exec_stream = stats::median(&plain);
    let overhead = traced.iter().sum::<f64>() / plain.iter().sum::<f64>();

    // Over the wire: stream alone, churn alone, then both.
    let (proc, _) = spawn_timed(bin)?;
    let (mut d, matcher) = start_driver(&proc, seed, &refs, r)?;
    record_config(r, &refs, &matcher);
    // Each stream phase carries at least one full latency window.
    let min_stream = 1.1 * STREAM_WINDOW as f64 / STREAM_RATE;
    let secs = |share: f64| Duration::from_secs_f64((seconds * share).max(min_stream));
    let warm = phase(&mut d, r, WARMUP, true, true, None)?;
    let alone = phase(&mut d, r, secs(0.3), true, false, None)?;
    let churn = phase(&mut d, r, secs(0.2), false, true, None)?;
    let mixed = phase(&mut d, r, secs(0.4), true, true, Some(&proc.pid()))?;
    drop(d);
    proc.shutdown()?;
    check_generator(&alone, "stream-alone")?;
    let late = check_generator(&mixed, "mixed")?;
    let (alone_p50, alone_p99, _, _) = stream_latency(&alone, "stream-alone")?;
    let (_, mixed_p99, _, _) = stream_latency(&mixed, "mixed")?;
    let (open_alone_p50, _) = open_latency(&churn);
    let (open_p50, open_p99) = open_latency(&mixed);
    let refused = [&warm, &alone, &churn, &mixed]
        .iter()
        .fold((0, 0, 0), |a, o| {
            (
                a.0 + o.refused.busy,
                a.1 + o.refused.overloaded,
                a.2 + o.refused.err,
            )
        });

    r.metric("serve.construct_ms", construct_ms, "ms");
    r.metric("serve.exec_ms.stream", exec_stream, "ms");
    r.metric("serve.exec_ms.rubik_run", stats::median(&rubik_run), "ms");
    r.metric("serve.wire_ms.stream", alone_p50 - exec_stream, "ms");
    r.metric("serve.wire_ms.open", open_alone_p50 - construct_ms, "ms");
    r.metric("serve.stream_p99_ms", mixed_p99, "ms");
    r.metric("serve.stream_alone_p99_ms", alone_p99, "ms");
    r.metric("serve.interference_p99_ms", mixed_p99 - alone_p99, "ms");
    r.metric("serve.open_p50_ms", open_p50, "ms");
    r.metric("serve.open_p99_ms", open_p99, "ms");
    r.metric(
        "serve.sessions_per_s",
        mixed.sessions as f64 / mixed.wall.as_secs_f64(),
        "1/s",
    );
    r.metric("serve.refused.busy", refused.0 as f64, "count");
    r.metric("serve.refused.overloaded", refused.1 as f64, "count");
    r.metric("serve.refused.err", refused.2 as f64, "count");
    r.metric(
        "serve.rss_kb_per_kreq",
        driver::rss_kb_per_kreq(&mixed.rss),
        "kB",
    );
    r.metric("driver.late_p99_ms", late, "ms");
    r.metric("trace.overhead", overhead, "ratio");
    r.info("stream_alone_p50_ms", alone_p50);
    r.info("open_alone_p50_ms", open_alone_p50);
    r.info("replayed_requests", REPLAY_REQUESTS);
    r.info("stream_held", alone.stream_held + mixed.stream_held);
    r.info("traced_rubik_sessions", layers.len());
    Ok(())
}

/// The `ops5-serve` binary `run.py` built next to the harness.
pub fn default_server_bin() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("ops5-serve")))
        .unwrap_or_else(|| PathBuf::from("ops5-serve"))
}
