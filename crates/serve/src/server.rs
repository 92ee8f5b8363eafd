//! The TCP server: configuration, binding, session construction, and
//! metrics — everything around the connection loop, which is the reactor
//! in [`crate::server_nb`]: one epoll thread owns accept, read, and write
//! for every connection and frames requests with
//! [`crate::protocol::Framer`].
//!
//! Session construction (`OPEN`/`RESTORE`) lives here as
//! [`open_session`]/[`restore_session`].
//!
//! Shutdown: `SHUTDOWN` stops the accept loop, connections wind down after
//! flushing queued replies, and the pool drains every queued command
//! before its workers exit.

use crate::pool::{Pool, PoolStats, Priority, SessionSlot};
use crate::protocol::Reply;
use crate::registry::{matcher_kind, ProgramSpec, Registry};
use crate::session::Session;
use engine::{EngineLimits, MatcherKind};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the metrics responder checks the stop flag, and how long it
/// waits for a scrape's request head.
const READ_TICK: Duration = Duration::from_millis(50);

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads executing session commands.
    pub workers: usize,
    /// Per-session inbox depth; overflow replies `OVERLOADED`.
    pub queue_depth: usize,
    /// Global run-queue capacity; overflow replies `BUSY`.
    pub run_queue_cap: usize,
    /// `RUN n` is clamped to this many cycles per command.
    pub max_cycles_per_run: u64,
    /// Per-session engine limits (working-memory size, lifetime cycles).
    pub limits: EngineLimits,
    /// Matcher used when `OPEN` names none.
    pub matcher: MatcherKind,
    /// Act-phase strategy for every session engine. `None` (the default)
    /// keeps the builder default — serial, unless the process-wide
    /// `OPS5_ACT` knob says otherwise.
    pub act: Option<engine::ActStrategy>,
    /// Corpus directory for [`Registry::with_builtins`].
    pub programs_dir: Option<PathBuf>,
    /// Observability: when enabled every session engine gets a metrics
    /// registry (per-node match profiling, phase histograms), the pool
    /// records per-command latencies, and `METRICS?` answers with the
    /// aggregated Prometheus text exposition.
    pub obs: obs::ObsConfig,
    /// Serve the same exposition over HTTP (`GET /metrics`) on this
    /// loopback port (0 = ephemeral). Implies nothing about `obs`; enable
    /// both for a scrapeable server.
    pub metrics_port: Option<u16>,
    /// Durability: when set, every session journals its changes and
    /// firings to `<dir>/session-<id>.log` (flushed per command) with a
    /// checkpoint snapshot at `<dir>/session-<id>.snap`, so a killed
    /// worker can be recovered via `RESTORE`.
    pub durability_dir: Option<PathBuf>,
    /// Firings between durability checkpoints (snapshot rewrite + log
    /// truncation). Ignored without `durability_dir`.
    pub checkpoint_every: u64,
    /// Per-connection outbound buffer cap in bytes.
    /// A client that stops reading while replies accumulate past this
    /// bound is sent a final `ERR overloaded` and closed. Checked before
    /// each reply is appended, so a single reply larger than the cap
    /// (a big `SNAPSHOT?`) still goes out.
    pub write_buf_cap: usize,
    /// Deadline preemption: a `RUN n` executes in slices of at most this
    /// many cycles, requeueing the session between slices so one long run
    /// cannot monopolize a worker. `0` disables slicing (a `RUN` occupies
    /// its worker until it finishes, as before). The default honors the
    /// `OPS5_RUN_SLICE` environment variable.
    pub run_slice_cycles: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 16,
            run_queue_cap: 1024,
            max_cycles_per_run: 10_000,
            limits: EngineLimits::default(),
            matcher: MatcherKind::default(),
            act: None,
            programs_dir: None,
            obs: obs::ObsConfig::default(),
            metrics_port: None,
            durability_dir: None,
            checkpoint_every: 256,
            write_buf_cap: 256 * 1024,
            run_slice_cycles: std::env::var("OPS5_RUN_SLICE")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        }
    }
}

/// Server-side observability state: the server-level registry (pool
/// command latencies) plus the roster of live sessions whose per-engine
/// registries `METRICS?` aggregates.
pub(crate) struct ServerObs {
    pub(crate) registry: Arc<obs::Registry>,
    pub(crate) sessions: std::sync::Mutex<Vec<std::sync::Weak<SessionSlot>>>,
}

/// Connection-level instrumentation, registered in the server registry so
/// `METRICS?` and `/metrics` expose it. Present only when observability is
/// enabled.
pub(crate) struct ConnCounters {
    /// Currently open client connections (gauge).
    pub(crate) connections_open: Arc<obs::Gauge>,
    /// Connections accepted since start.
    pub(crate) accepts: Arc<obs::Counter>,
    /// Bytes read off client sockets by the reactor.
    pub(crate) read_bytes: Arc<obs::Counter>,
    /// Bytes written to client sockets by the reactor.
    pub(crate) write_bytes: Arc<obs::Counter>,
    /// Reactor poll returns that delivered at least one event.
    pub(crate) wakeups: Arc<obs::Counter>,
    /// Connections closed because the client fell too far behind.
    pub(crate) slow_client_closes: Arc<obs::Counter>,
}

impl ConnCounters {
    fn new(reg: &Arc<obs::Registry>) -> ConnCounters {
        ConnCounters {
            connections_open: reg.gauge("serve_connections_open", Vec::new()),
            accepts: reg.counter("serve_accepts_total", Vec::new()),
            read_bytes: reg.counter("reactor_read_bytes_total", Vec::new()),
            write_bytes: reg.counter("reactor_write_bytes_total", Vec::new()),
            wakeups: reg.counter("reactor_wakeups_total", Vec::new()),
            slow_client_closes: reg.counter("serve_slow_client_closes_total", Vec::new()),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) registry: Registry,
    pub(crate) pool: Pool,
    pub(crate) stop: AtomicBool,
    pub(crate) next_session: AtomicU64,
    pub(crate) addr: SocketAddr,
    pub(crate) obs: Option<ServerObs>,
    pub(crate) counters: Option<ConnCounters>,
    pub(crate) metrics_addr: Option<SocketAddr>,
}

/// A bound server, ready to [`run`](Server::run) or [`spawn`](Server::spawn).
pub struct Server {
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    shared: Arc<Shared>,
}

/// Handle to a spawned server: its address plus the accept-loop thread.
pub struct ServerHandle {
    pub addr: SocketAddr,
    /// Address of the HTTP metrics endpoint, when `metrics_port` was set.
    pub metrics_addr: Option<SocketAddr>,
    join: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// Waits for the server to shut down (a client must send `SHUTDOWN`).
    pub fn join(self) -> io::Result<()> {
        self.join
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

impl Server {
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = Registry::with_builtins(cfg.programs_dir.as_deref());
        let server_obs = if cfg.obs.enabled {
            Some(ServerObs {
                registry: Arc::new(obs::Registry::new()),
                sessions: std::sync::Mutex::new(Vec::new()),
            })
        } else {
            None
        };
        let pool = Pool::new(
            cfg.workers,
            cfg.queue_depth,
            cfg.run_queue_cap,
            server_obs.as_ref().map(|o| &o.registry),
        );
        let metrics_listener = match cfg.metrics_port {
            Some(port) => Some(TcpListener::bind(("127.0.0.1", port))?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let counters = server_obs.as_ref().map(|o| ConnCounters::new(&o.registry));
        Ok(Server {
            listener,
            metrics_listener,
            shared: Arc::new(Shared {
                cfg,
                registry,
                pool,
                stop: AtomicBool::new(false),
                next_session: AtomicU64::new(1),
                addr,
                obs: server_obs,
                counters,
                metrics_addr,
            }),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Address of the HTTP metrics endpoint, when `metrics_port` was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
    }

    /// Serves until a `SHUTDOWN`, then returns once every connection has
    /// wound down and the pool has drained.
    pub fn run(self) -> io::Result<()> {
        let metrics_thread = self.metrics_listener.map(|l| {
            let shared = self.shared.clone();
            std::thread::spawn(move || serve_metrics_http(l, &shared))
        });
        let result = crate::server_nb::run(self.listener, &self.shared);
        // The metrics responder polls the stop flag; an I/O error return
        // has not set it yet.
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = metrics_thread {
            let _ = h.join();
        }
        self.shared.pool.shutdown();
        result
    }

    /// Runs the accept loop on its own thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.shared.addr;
        let metrics_addr = self.shared.metrics_addr;
        let join = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            metrics_addr,
            join,
        }
    }

    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }
}

/// Adds a freshly opened (or restored) session to the observability roster,
/// pruning dead sessions while the lock is held so a long-lived server's
/// roster stays bounded.
fn register_session(shared: &Shared, new_slot: &Arc<SessionSlot>) {
    if let Some(o) = &shared.obs {
        let mut sessions = o.sessions.lock().expect("obs sessions");
        sessions.retain(|w| w.upgrade().is_some());
        sessions.push(Arc::downgrade(new_slot));
    }
}

/// Resolves an optional `OPEN`/`RESTORE` matcher name against the
/// configured default.
fn resolve_matcher(shared: &Shared, matcher: Option<&str>) -> Result<MatcherKind, Reply> {
    Ok(matcher
        .map(matcher_kind)
        .transpose()
        .map_err(Reply::Err)?
        .unwrap_or_else(|| shared.cfg.matcher.clone()))
}

/// Parses a `PRIO=<class>` argument or `PRIO` verb operand.
pub(crate) fn parse_priority(p: &str) -> Result<Priority, String> {
    Priority::from_name(p).ok_or_else(|| format!("unknown priority `{p}` (high|normal|batch)"))
}

/// Builds and registers a session for `OPEN`. `inline_src` carries the
/// body of `OPEN -`; otherwise `program` names a registry entry. The
/// matcher, then the priority, then the program are checked, in that
/// order. Returns the slot plus the `OK` reply, or the error reply.
pub(crate) fn open_session(
    shared: &Shared,
    program: &str,
    matcher: Option<&str>,
    prio: Option<&str>,
    inline_src: Option<String>,
) -> Result<(Arc<SessionSlot>, Reply), Reply> {
    let kind = resolve_matcher(shared, matcher)?;
    let prio = prio.map(parse_priority).transpose().map_err(Reply::Err)?;
    let inline;
    let spec: &ProgramSpec = match inline_src {
        Some(src) => {
            inline = ProgramSpec::from_source(src);
            &inline
        }
        None => registered(shared, program)?,
    };
    let mut engine = spec
        .build(kind.clone(), shared.cfg.limits, shared.cfg.act)
        .map_err(|e| Reply::Err(e.to_string()))?;
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let name = engine.matcher().name().to_string();
    if shared.obs.is_some() {
        engine.enable_obs(obs::ObsConfig::enabled());
    }
    let session = Session::new(id, program, engine, kind, shared.cfg.max_cycles_per_run);
    let (slot, prio_note) = install(shared, session, prio)?;
    Ok((
        slot,
        Reply::Ok(format!(
            "session {id} program={program} matcher={name}{prio_note}"
        )),
    ))
}

/// Rebuilds a session from a `RESTORE` body (snapshot text, then change
/// log; the snapshot's own terminator is lowercase `end`). Checks in the
/// same order as [`open_session`].
pub(crate) fn restore_session(
    shared: &Shared,
    program: &str,
    matcher: Option<&str>,
    prio: Option<&str>,
    body: &[String],
) -> Result<(Arc<SessionSlot>, Reply), Reply> {
    let kind = resolve_matcher(shared, matcher)?;
    let prio = prio.map(parse_priority).transpose().map_err(Reply::Err)?;
    let spec = registered(shared, program)?;
    let split = body
        .iter()
        .position(|l| l.trim() == "end")
        .ok_or_else(|| Reply::Err("RESTORE body has no snapshot terminator `end`".into()))?;
    let snap_text = body[..=split].join("\n");
    let log_text = body[split + 1..].join("\n");
    let mut engine = spec
        .build_empty(kind.clone(), shared.cfg.limits, shared.cfg.act)
        .map_err(|e| Reply::Err(e.to_string()))?;
    if shared.obs.is_some() {
        engine.enable_obs(obs::ObsConfig::enabled());
    }
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let (session, replayed) = Session::restore(
        id,
        program,
        engine,
        kind,
        shared.cfg.max_cycles_per_run,
        &snap_text,
        &log_text,
    )
    .map_err(Reply::Err)?;
    let name = session.engine().matcher().name().to_string();
    let cycles = session.engine().cycles();
    let (slot, prio_note) = install(shared, session, prio)?;
    Ok((
        slot,
        Reply::Ok(format!(
            "session {id} program={program} matcher={name} \
             replayed={replayed} cycles={cycles}{prio_note}"
        )),
    ))
}

fn registered<'a>(shared: &'a Shared, program: &str) -> Result<&'a ProgramSpec, Reply> {
    shared.registry.get(program).ok_or_else(|| {
        Reply::Err(format!(
            "unknown program `{program}` (have: {})",
            shared.registry.names().join(" ")
        ))
    })
}

/// The common tail of `OPEN` and `RESTORE`: slicing, durability, the
/// scheduling class, and the observability roster. Returns the slot and
/// the ` prio=<class>` note the `OK` reply echoes.
fn install(
    shared: &Shared,
    mut session: Session,
    prio: Option<Priority>,
) -> Result<(Arc<SessionSlot>, String), Reply> {
    session.set_run_slice(shared.cfg.run_slice_cycles);
    if let Some(dir) = &shared.cfg.durability_dir {
        session
            .attach_durability(dir, shared.cfg.checkpoint_every)
            .map_err(|e| Reply::Err(format!("durability: {e}")))?;
    }
    let slot = SessionSlot::new(session);
    let prio_note = match prio {
        Some(p) => {
            slot.set_priority(p);
            format!(" prio={}", p.name())
        }
        None => String::new(),
    };
    register_session(shared, &slot);
    Ok((slot, prio_note))
}

/// The `METRICS?` reply — works without an open session.
pub(crate) fn metrics_reply(shared: &Shared) -> Reply {
    match &shared.obs {
        Some(_) => {
            let text = render_metrics(shared);
            let lines: Vec<String> = text.lines().map(str::to_string).collect();
            Reply::Multi {
                head: format!("METRICS {}", lines.len()),
                lines,
            }
        }
        None => Reply::Err("metrics disabled (start with --metrics or obs enabled)".into()),
    }
}

/// Builds the aggregated Prometheus text exposition: the server-level
/// registry (pool command latencies) merged with every live session's
/// engine registry — labeled `session`/`program`/`matcher` so same-named
/// series stay distinguishable — plus synthetic per-join-node counters for
/// each session's ten hottest join nodes, labeled with the join id and the
/// owning production.
pub(crate) fn render_metrics(shared: &Shared) -> String {
    let Some(o) = &shared.obs else {
        return String::new();
    };
    let mut snap = o.registry.snapshot();
    let slots: Vec<Arc<SessionSlot>> = {
        let mut sessions = o.sessions.lock().expect("obs sessions");
        sessions.retain(|w| w.upgrade().is_some());
        sessions.iter().filter_map(|w| w.upgrade()).collect()
    };
    for slot in slots {
        slot.with_session(|s| {
            let sid = s.id.to_string();
            let engine = s.engine();
            let matcher = engine.matcher().name().to_string();
            if let Some(reg) = engine.obs_registry() {
                snap.merge(
                    reg.snapshot()
                        .with_label("session", &sid)
                        .with_label("program", &s.program)
                        .with_label("matcher", &matcher),
                );
            }
            if let Some(profile) = engine.node_profile() {
                let net = engine.network();
                let mut hot = obs::Snapshot::default();
                for node in profile.top_n(10) {
                    let j = &net.joins[node.join];
                    let labels: obs::Labels = vec![
                        ("join".to_string(), node.join.to_string()),
                        ("prod".to_string(), net.prod_names[j.prod.index()].clone()),
                        ("ce".to_string(), j.ce_index.to_string()),
                        ("session".to_string(), sid.clone()),
                        ("matcher".to_string(), matcher.clone()),
                    ];
                    hot.metrics.push(obs::MetricValue {
                        name: "rete_join_activations_total".to_string(),
                        labels: labels.clone(),
                        data: obs::MetricData::Counter(node.activations),
                    });
                    hot.metrics.push(obs::MetricValue {
                        name: "rete_join_scanned_total".to_string(),
                        labels,
                        data: obs::MetricData::Counter(node.scanned),
                    });
                }
                snap.merge(hot);
            }
        });
    }
    let mut out = String::new();
    snap.render_prometheus(&mut out);
    out
}

/// Minimal HTTP/1.0 responder for the metrics endpoint: nonblocking accept
/// polling the stop flag, one short-lived connection per scrape. Every path
/// answers with the exposition, so `GET /metrics` and `GET /` both work.
fn serve_metrics_http(listener: TcpListener, shared: &Arc<Shared>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(READ_TICK));
                // Drain what the client sent of the request head; the body
                // of the reply does not depend on it.
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let body = render_metrics(shared);
                let resp = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = stream.write_all(resp.as_bytes());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(READ_TICK);
            }
            Err(_) => std::thread::sleep(READ_TICK),
        }
    }
}
