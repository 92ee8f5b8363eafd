//! The reactor: one thread owns accept, read, and write for every
//! connection, multiplexed over a single epoll loop (the vendored
//! [`reactor`] crate). Each connection is a small state machine:
//!
//! * [`reactor::LineBuf`] reassembles lines across arbitrary read
//!   boundaries, and a [`Framer`] turns them into complete requests
//!   (`OPEN -` bodies, `BATCH`…`END`, `RESTORE`…`END`), so a command split
//!   anywhere — even mid-body — frames identically.
//! * Replies must arrive in request order under pipelining even though
//!   commands execute on pool workers. Every request reserves a slot in
//!   the connection's `pending` queue *before* it is submitted; direct
//!   replies (and pool rejections) fill their slot immediately, worker
//!   replies come back through the shared [`Completions`] queue tagged
//!   with (connection id, sequence) and a [`reactor::Waker`] kick. Only
//!   the queue's *front* run of filled slots is flushed, which is the
//!   whole ordering argument. Backpressure — the pool's per-session inbox
//!   (`OVERLOADED`) and run queue (`BUSY`) — answers through the same
//!   reserved slot.
//! * A slow client costs memory, not a thread — and the memory is capped:
//!   once the outbound buffer reaches [`ServeConfig::write_buf_cap`]
//!   (checked before each append, so one oversized reply still goes out),
//!   the connection is sent a final `ERR overloaded` and closed — or
//!   force-closed after [`OVERLOAD_GRACE`] if the client never reads even
//!   that, so a stalled peer cannot pin the fd and buffer indefinitely.
//!
//! [`ServeConfig::write_buf_cap`]: crate::server::ServeConfig::write_buf_cap

use crate::pool::{Completions, ReplyTx, SessionSlot, SubmitOutcome};
use crate::protocol::{Frame, Framer, Line, Reply};
use crate::server::{self, Shared};
use crate::session::Command;
use reactor::{Events, Interest, LineBuf, Poll, Token, Waker, WriteBuf};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Connection tokens start here; token = slab index + CONN_BASE.
const CONN_BASE: usize = 2;

/// Poll timeout: how often the loop checks the stop flag and the drain
/// deadline when no I/O is happening.
const TICK: Duration = Duration::from_millis(100);
/// After `SHUTDOWN`, how long connections get to flush queued replies.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// How long an overloaded connection gets to drain its final
/// `ERR overloaded` before being force-closed. Without it, a client that
/// never reads pins the fd and up to `write_buf_cap` bytes forever.
const OVERLOAD_GRACE: Duration = Duration::from_secs(5);
/// How often the loop sweeps for expired overload deadlines.
const OVERLOAD_SCAN: Duration = Duration::from_millis(500);
/// Reads per readable event before yielding back to the loop; leftover
/// data re-fires under level triggering, so this is fairness, not loss.
const READS_PER_EVENT: usize = 8;

/// One reply slot in a connection's ordered queue. Slot *i* (from the
/// front) answers request `first_seq + i`.
enum PendingSlot {
    /// Command in flight on a pool worker.
    Waiting,
    /// Reply ready to flush (direct answers, rejections, completions).
    Filled(Reply),
}

struct Conn {
    /// Process-unique id; completions are tagged with it so replies for a
    /// closed connection are recognizably stale and dropped.
    id: u64,
    stream: TcpStream,
    rd: LineBuf,
    wr: WriteBuf,
    interest: Interest,
    framer: Framer,
    slot: Option<Arc<SessionSlot>>,
    pending: VecDeque<PendingSlot>,
    /// Sequence number of `pending.front()`.
    first_seq: u64,
    /// Sequence number the next request will take.
    next_seq: u64,
    /// No further input is parsed (EOF, `SHUTDOWN`, or server drain);
    /// the connection closes once `pending` and `wr` empty out.
    stop_input: bool,
    /// Hard failure: close without flushing.
    dead: bool,
    /// Slow client: final `ERR overloaded` queued, replies dropped.
    overloaded: bool,
    /// When `overloaded` was set plus [`OVERLOAD_GRACE`]: the connection
    /// is force-closed if the final `ERR` has not flushed by then.
    overload_deadline: Option<Instant>,
}

impl Conn {
    fn new(id: u64, stream: TcpStream) -> Conn {
        Conn {
            id,
            stream,
            rd: LineBuf::new(),
            wr: WriteBuf::new(),
            interest: Interest::READABLE,
            framer: Framer::new(),
            slot: None,
            pending: VecDeque::new(),
            first_seq: 0,
            next_seq: 0,
            stop_input: false,
            dead: false,
            overloaded: false,
            overload_deadline: None,
        }
    }

    /// Queues an immediately-known reply in order.
    fn direct(&mut self, reply: Reply) {
        self.next_seq += 1;
        self.pending.push_back(PendingSlot::Filled(reply));
    }

    /// Fills the slot for request `seq`, if it still exists.
    fn fill(&mut self, seq: u64, reply: Reply) {
        if seq < self.first_seq {
            return;
        }
        if let Some(slot) = self.pending.get_mut((seq - self.first_seq) as usize) {
            *slot = PendingSlot::Filled(reply);
        }
    }

    /// Done: everything flushed (or the connection is beyond saving).
    fn finished(&self) -> bool {
        self.dead
            || (self.overloaded && self.wr.is_empty())
            || (self.stop_input && self.pending.is_empty() && self.wr.is_empty())
    }
}

/// The reactor loop. Returns after `SHUTDOWN` once every connection has
/// drained (or the grace period expires).
pub(crate) fn run(listener: TcpListener, shared: &Arc<Shared>) -> io::Result<()> {
    // Thousands of connections need thousands of fds; best-effort raise.
    let _ = reactor::raise_nofile_limit(65536);
    listener.set_nonblocking(true)?;
    let poll = Poll::new()?;
    poll.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    let completions = Arc::new(Completions::new(Waker::new(&poll, WAKER)?));

    let mut events = Events::with_capacity(1024);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut next_id: u64 = 1;
    let mut draining: Option<Instant> = None;
    let mut next_overload_scan = Instant::now() + OVERLOAD_SCAN;

    loop {
        poll.poll(&mut events, Some(TICK))?;
        if !events.is_empty() {
            if let Some(c) = &shared.counters {
                c.wakeups.inc();
            }
        }
        // Connections whose state changed this iteration; pumped (flush +
        // interest update) below. Duplicates are harmless.
        let mut touched: Vec<usize> = Vec::new();

        for ev in events.iter() {
            match ev.token() {
                LISTENER => {
                    if draining.is_some() {
                        continue;
                    }
                    loop {
                        let (stream, _) = match listener.accept() {
                            Ok(a) => a,
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(_) => break,
                        };
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let idx = free.pop().unwrap_or_else(|| {
                            conns.push(None);
                            conns.len() - 1
                        });
                        if poll
                            .register(
                                stream.as_raw_fd(),
                                Token(idx + CONN_BASE),
                                Interest::READABLE,
                            )
                            .is_err()
                        {
                            free.push(idx);
                            continue;
                        }
                        let id = next_id;
                        next_id += 1;
                        by_id.insert(id, idx);
                        conns[idx] = Some(Conn::new(id, stream));
                        if let Some(c) = &shared.counters {
                            c.accepts.inc();
                            c.connections_open.add(1);
                        }
                    }
                }
                WAKER => completions.drain_waker(),
                Token(t) => {
                    let idx = t - CONN_BASE;
                    let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                        continue;
                    };
                    if ev.is_readable() && !conn.stop_input && !conn.dead {
                        let mut eof = false;
                        for _ in 0..READS_PER_EVENT {
                            match conn.rd.read_from(&mut conn.stream) {
                                Ok(0) => {
                                    eof = true;
                                    break;
                                }
                                Ok(n) => {
                                    if let Some(c) = &shared.counters {
                                        c.read_bytes.add(n as u64);
                                    }
                                    if n < 4096 {
                                        break;
                                    }
                                }
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                                Err(_) => {
                                    conn.dead = true;
                                    break;
                                }
                            }
                        }
                        if !conn.dead {
                            // Complete lines received before EOF still
                            // execute.
                            process(conn, shared, &completions);
                            if eof {
                                conn.stop_input = true;
                            }
                        }
                    }
                    touched.push(idx);
                }
            }
        }

        // Route worker replies into their connections' reply slots.
        for (cid, seq, reply) in completions.drain() {
            if let Some(&idx) = by_id.get(&cid) {
                if let Some(conn) = conns[idx].as_mut() {
                    conn.fill(seq, reply);
                    touched.push(idx);
                }
            }
        }

        // First iteration after SHUTDOWN: stop accepting, stop parsing,
        // give every connection the grace period to flush.
        if draining.is_none() && shared.stop.load(Ordering::SeqCst) {
            draining = Some(Instant::now());
            for (idx, c) in conns.iter_mut().enumerate() {
                if let Some(conn) = c {
                    conn.stop_input = true;
                    touched.push(idx);
                }
            }
        }

        // Sweep overload deadlines: an overloaded connection whose client
        // never drains the final `ERR` must not hold its fd and buffer
        // forever. Rate-limited so the sweep stays off the hot path.
        let now = Instant::now();
        if now >= next_overload_scan {
            next_overload_scan = now + OVERLOAD_SCAN;
            for (idx, c) in conns.iter_mut().enumerate() {
                if let Some(conn) = c {
                    if conn
                        .overload_deadline
                        .is_some_and(|d| now > d && !conn.wr.is_empty())
                    {
                        conn.dead = true;
                        touched.push(idx);
                    }
                }
            }
        }

        for idx in touched {
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            pump(conn, idx, shared, &poll);
            if conn.finished() {
                let _ = poll.deregister(conn.stream.as_raw_fd());
                by_id.remove(&conn.id);
                if let Some(c) = &shared.counters {
                    c.connections_open.add(-1);
                }
                conns[idx] = None;
                // Safe to recycle next iteration: the fd is deregistered,
                // so no later event in a future batch can name this slot.
                free.push(idx);
            }
        }

        if let Some(since) = draining {
            if by_id.is_empty() || since.elapsed() > DRAIN_GRACE {
                break;
            }
        }
    }
    Ok(())
}

/// Consumes every complete line buffered on the connection, feeding the
/// framer and dispatching each request it completes.
fn process(conn: &mut Conn, shared: &Arc<Shared>, completions: &Arc<Completions>) {
    while !conn.stop_input {
        let Some(line) = conn.rd.next_line() else {
            break;
        };
        if let Some(frame) = conn.framer.feed(&line) {
            handle_frame(conn, shared, completions, frame);
        }
    }
}

/// Answers or submits one framed request.
fn handle_frame(
    conn: &mut Conn,
    shared: &Arc<Shared>,
    completions: &Arc<Completions>,
    frame: Frame,
) {
    let opened = match frame {
        Frame::Error(e) => return conn.direct(Reply::Err(e)),
        Frame::Line(Line::Open { .. }) | Frame::OpenSource { .. } | Frame::Restore { .. }
            if conn.slot.is_some() =>
        {
            return conn.direct(Reply::Err("session already open (CLOSE first)".into()));
        }
        Frame::Line(Line::Open {
            program,
            matcher,
            prio,
        }) => server::open_session(shared, &program, matcher.as_deref(), prio.as_deref(), None),
        Frame::OpenSource {
            matcher,
            prio,
            source,
        } => server::open_session(
            shared,
            "-",
            matcher.as_deref(),
            prio.as_deref(),
            Some(source),
        ),
        Frame::Restore {
            program,
            matcher,
            prio,
            body,
        } => server::restore_session(shared, &program, matcher.as_deref(), prio.as_deref(), &body),
        Frame::Batch(items) => {
            return session_cmd(conn, shared, completions, Command::Batch(items))
        }
        Frame::Line(line) => return handle_line(conn, shared, completions, line),
    };
    match opened {
        Ok((slot, ok)) => {
            conn.slot = Some(slot);
            conn.direct(ok);
        }
        Err(e) => conn.direct(e),
    }
}

/// A single-line request other than `OPEN`.
fn handle_line(conn: &mut Conn, shared: &Arc<Shared>, completions: &Arc<Completions>, line: Line) {
    let cmd = match line {
        Line::End => return conn.direct(Reply::Err("END outside BATCH".into())),
        // Server-wide: works without an open session.
        Line::Metrics => return conn.direct(server::metrics_reply(shared)),
        Line::Shutdown => {
            conn.direct(Reply::Ok("shutting down".into()));
            shared.stop.store(true, Ordering::SeqCst);
            // Pipelined commands after SHUTDOWN are discarded.
            conn.stop_input = true;
            return;
        }
        // Scheduling controls: answered inline so they bypass the session's
        // inbox — a CANCEL must work precisely when that inbox is backed up.
        Line::Prio(class) => {
            let reply = conn
                .slot
                .as_ref()
                .map(|s| match server::parse_priority(&class) {
                    Ok(p) => {
                        s.set_priority(p);
                        Reply::Ok(format!("prio={}", p.name()))
                    }
                    Err(e) => Reply::Err(e),
                });
            return conn.direct(reply.unwrap_or_else(no_session));
        }
        Line::Cancel => {
            let reply = (conn.slot.as_ref())
                .map(|s| Reply::Ok(format!("cancelled pending={}", s.cancel())));
            return conn.direct(reply.unwrap_or_else(no_session));
        }
        Line::Assert(body) => Command::Assert(body),
        Line::Retract(tag) => Command::Retract(tag),
        Line::Run(n) => Command::Run(n),
        Line::Cs => Command::Cs,
        Line::Wm(class) => Command::Wm(class),
        Line::Stats => Command::Stats,
        Line::Fired => Command::Fired,
        Line::Snapshot => Command::Snapshot,
        Line::Migrate(m) => Command::Migrate(m),
        Line::Close => Command::Close,
        Line::Open { .. } | Line::Restore { .. } | Line::BatchStart => {
            unreachable!("OPEN is handled by handle_frame; the rest open bodies")
        }
    };
    session_cmd(conn, shared, completions, cmd)
}

fn no_session() -> Reply {
    Reply::Err("no open session".into())
}

/// Submits a command to the connection's session, or answers
/// `no open session`. A `CLOSE` releases the slot only once the pool has
/// the command: a rejected `CLOSE` (`BUSY`) must leave the session open so
/// the client's retry still has something to close.
fn session_cmd(
    conn: &mut Conn,
    shared: &Arc<Shared>,
    completions: &Arc<Completions>,
    cmd: Command,
) {
    let Some(slot) = conn.slot.clone() else {
        return conn.direct(no_session());
    };
    let close = matches!(cmd, Command::Close);
    // Reserve the next reply slot before submitting; a rejection fills it
    // on the spot so ordering holds.
    let seq = conn.next_seq;
    conn.next_seq += 1;
    conn.pending.push_back(PendingSlot::Waiting);
    let tx = ReplyTx::Completion {
        queue: completions.clone(),
        conn: conn.id,
        seq,
    };
    let reject = match shared.pool.submit(&slot, cmd, tx) {
        SubmitOutcome::Accepted => {
            if close {
                conn.slot = None;
            }
            return;
        }
        SubmitOutcome::Busy => Reply::Busy("run queue full; retry".into()),
        SubmitOutcome::Overloaded => Reply::Overloaded("session queue full; drain replies".into()),
        SubmitOutcome::ShuttingDown => Reply::Err("server shutting down".into()),
    };
    conn.fill(seq, reject);
}

/// Moves the front run of filled replies into the write buffer (enforcing
/// the slow-client cap), flushes what the socket accepts, and keeps the
/// epoll interest in sync with what the connection actually waits on.
/// `idx` is the connection's slab index (its token is `idx + CONN_BASE`).
fn pump(conn: &mut Conn, idx: usize, shared: &Arc<Shared>, poll: &Poll) {
    while let Some(PendingSlot::Filled(_)) = conn.pending.front() {
        if conn.overloaded {
            conn.pending.clear();
            break;
        }
        if conn.wr.len() >= shared.cfg.write_buf_cap {
            // The client is not reading. Drop what it has not earned,
            // leave a diagnostic, and close once the buffer drains.
            if let Some(c) = &shared.counters {
                c.slow_client_closes.inc();
            }
            conn.overloaded = true;
            conn.overload_deadline = Some(Instant::now() + OVERLOAD_GRACE);
            conn.stop_input = true;
            conn.pending.clear();
            conn.wr.push(
                Reply::Err("overloaded: outbound buffer full; closing".into())
                    .to_string()
                    .as_bytes(),
            );
            break;
        }
        let Some(PendingSlot::Filled(reply)) = conn.pending.pop_front() else {
            unreachable!("front was Filled");
        };
        conn.first_seq += 1;
        conn.wr.push(reply.to_string().as_bytes());
    }

    if !conn.wr.is_empty() && !conn.dead {
        match conn.wr.write_to(&mut conn.stream) {
            Ok(n) => {
                if let Some(c) = &shared.counters {
                    c.write_bytes.add(n as u64);
                }
            }
            Err(_) => conn.dead = true,
        }
    }

    if conn.dead || conn.finished() {
        return;
    }
    let mut want = Interest::NONE;
    if !conn.stop_input {
        want = want | Interest::READABLE;
    }
    if !conn.wr.is_empty() {
        want = want | Interest::WRITABLE;
    }
    if want != conn.interest
        && poll
            .reregister(conn.stream.as_raw_fd(), Token(idx + CONN_BASE), want)
            .is_ok()
    {
        conn.interest = want;
    }
}
