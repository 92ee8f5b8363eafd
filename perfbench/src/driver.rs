//! The `serve-mixed` load generator: one thread, one epoll loop, at most
//! two connections.
//!
//! * The **stream** connection drives one long-lived `triage` session in
//!   an open loop: requests fall due as a seeded Poisson process at the
//!   fixed mean rate and are written when due, up to [`MAX_IN_FLIGHT`]
//!   outstanding requests. Evenly spaced requests would beat against the
//!   churn's own cycle, and the stream's median would then depend on the
//!   phase between the two loops. Each request
//!   is a `BATCH` of seeded `ticket` ASSERTs plus `RUN 1000`, written in
//!   one write; its latency runs from its due time to its `RUN` reply, so
//!   a stall also counts against every request queued behind it.
//! * The **churn** connection runs a closed loop of `OPEN rubik`,
//!   `RUN 10000`, `CLOSE`, checking each `RUN` reply (and, for a sample of
//!   sessions, `FIRED?`) against a direct-engine reference. Between one
//!   session's `CLOSE` reply and the next `OPEN` the client thinks for a
//!   seeded exponential time (mean [`CHURN_THINK_MS`]), so the reactor
//!   compiles an `OPEN` part of the time rather than back to back.
//!
//! A failed request counts as missing every latency limit: its latency is
//! recorded as `f64::MAX`.

use reactor::{Events, Interest, LineBuf, Poll, Token, WriteBuf};
use serve::ClientReply;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};
use workloads::rng::SplitMix64;

/// Tickets per stream request.
pub const TICKETS_PER_REQUEST: usize = 16;
/// The stream's `RUN` cycle bound: far above what 16 tickets fire.
pub const STREAM_RUN: u64 = 1000;
/// The churn's `RUN` cycle bound (the server's default per-RUN clamp).
pub const CHURN_RUN: u64 = 10_000;
/// Every this many churn sessions also diff `FIRED?`.
pub const FIRED_SAMPLE_EVERY: u64 = 8;
/// Stream requests outstanding at once. The server's default per-session
/// inbox holds 16 commands and a request is two; a client that pipelines
/// past it is answered `OVERLOADED`. A request due while the window is
/// full waits, and its latency still counts from its due time.
pub const MAX_IN_FLIGHT: usize = 7;
/// How long outstanding replies may take after a phase ends.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Below this much time to the next due request the loop stops sleeping
/// in `epoll_wait` (millisecond timeouts) and naps in short steps.
const FINE_NAP: Duration = Duration::from_micros(100);

/// Mean think time of the churn client between sessions (ms). Back to
/// back, `OPEN` compiles kept the reactor busy ~60% of the time, and the
/// stream's tail measured how long its requests queued behind a run of
/// them, which swung with the host's speed; at this mean the reactor
/// compiles ~10% of the time, so a stream request waits behind at most
/// one `OPEN`.
pub const CHURN_THINK_MS: f64 = 20.0;

/// Latency recorded for a failed request.
pub const FAILED_MS: f64 = f64::MAX;

/// Seeded ticket source shared by the wire stream and its in-process
/// replay: the same seed gives the same tickets in the same order.
pub struct TicketGen {
    rng: SplitMix64,
    next_id: i64,
}

impl TicketGen {
    pub fn new(seed: u64) -> TicketGen {
        TicketGen {
            rng: SplitMix64::new(seed),
            // Above the ids of triage.ops's startup tickets.
            next_id: 1000,
        }
    }

    /// The next request's `(id, severity)` tickets and the firings they
    /// cause: severity 0 escalates then routes (2), the others route (1).
    pub fn next_request(&mut self) -> (Vec<(i64, i64)>, u64) {
        let tickets: Vec<(i64, i64)> = (0..TICKETS_PER_REQUEST)
            .map(|_| {
                self.next_id += 1;
                (self.next_id, self.rng.below(4) as i64)
            })
            .collect();
        let firings = tickets
            .iter()
            .map(|&(_, s)| if s == 0 { 2 } else { 1 })
            .sum();
        (tickets, firings)
    }
}

/// The body of one `ticket` ASSERT.
pub fn ticket_body((id, severity): (i64, i64)) -> String {
    format!("ticket ^id {id} ^severity {severity}")
}

/// One stream request as written on the wire.
pub fn stream_request(tickets: &[(i64, i64)]) -> String {
    let mut s = String::from("BATCH\n");
    for &t in tickets {
        let _ = writeln!(s, "ASSERT {}", ticket_body(t));
    }
    let _ = write!(s, "END\nRUN {STREAM_RUN}\n");
    s
}

/// The value of `key=` in a reply payload.
pub fn field<'a>(payload: &'a str, key: &str) -> Option<&'a str> {
    payload
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// What the churn loop expects of a fresh `rubik` session.
#[derive(Debug, Clone)]
pub struct ChurnRef {
    pub cycles: u64,
    pub reason: &'static str,
    pub fired: Vec<String>,
}

/// Counts of refused replies by kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Refused {
    pub busy: u64,
    pub overloaded: u64,
    pub err: u64,
}

impl Refused {
    fn note(&mut self, r: &ClientReply) {
        match r {
            ClientReply::Busy(_) => self.busy += 1,
            ClientReply::Overloaded(_) => self.overloaded += 1,
            ClientReply::Err(_) => self.err += 1,
            _ => {}
        }
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Stream latency from due time, per request in due order (ms).
    pub lat_ms: Vec<f64>,
    /// Due time of each stream request, from the phase start (ms).
    pub due_ms: Vec<f64>,
    /// Generator lateness per stream request (ms): send time minus the
    /// later of its due time and the moment the window had room for it.
    pub late_ms: Vec<f64>,
    /// Stream requests that waited for room in the window.
    pub stream_held: u64,
    /// `OPEN` round trips (ms).
    pub open_ms: Vec<f64>,
    /// Churn sessions that passed their checks, from `OPEN` sent to the
    /// `CLOSE` reply (ms).
    pub session_ms: Vec<f64>,
    pub stream_sent: u64,
    pub stream_failed: u64,
    pub sessions: u64,
    pub sessions_failed: u64,
    pub refused: Refused,
    /// From the phase start to its last reply.
    pub wall: Duration,
    /// `(stream requests completed, server VmRSS kB)` samples.
    pub rss: Vec<(u64, u64)>,
    pub failures: Vec<String>,
    /// A connection was lost; later phases cannot run.
    pub broken: bool,
}

struct Conn {
    sock: TcpStream,
    token: Token,
    rd: LineBuf,
    wr: WriteBuf,
    multi: Option<(String, Vec<String>)>,
    writable_armed: bool,
}

impl Conn {
    fn connect(addr: SocketAddr, poll: &Poll, token: Token) -> io::Result<Conn> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        sock.set_nonblocking(true)?;
        poll.register(sock.as_raw_fd(), token, Interest::READABLE)?;
        Ok(Conn {
            sock,
            token,
            rd: LineBuf::new(),
            wr: WriteBuf::new(),
            multi: None,
            writable_armed: false,
        })
    }

    /// Queues `text` and writes as much as the socket takes.
    fn send(&mut self, poll: &Poll, text: &str) -> io::Result<()> {
        self.wr.push(text.as_bytes());
        self.flush(poll)
    }

    fn flush(&mut self, poll: &Poll) -> io::Result<()> {
        match self.wr.write_to(&mut self.sock) {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
        let want = !self.wr.is_empty();
        if want != self.writable_armed {
            let interest = if want {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            poll.reregister(self.sock.as_raw_fd(), self.token, interest)?;
            self.writable_armed = want;
        }
        Ok(())
    }

    /// Reads what is available and returns the complete replies.
    fn read_replies(&mut self) -> io::Result<Vec<ClientReply>> {
        loop {
            match self.rd.read_from(&mut self.sock) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut out = Vec::new();
        while let Some(line) = self.rd.next_line() {
            if let Some((head, mut lines)) = self.multi.take() {
                if line == "END" {
                    out.push(ClientReply::Multi { head, lines });
                } else {
                    lines.push(line);
                    self.multi = Some((head, lines));
                }
                continue;
            }
            match parse_line(line) {
                Ok(reply) => out.push(reply),
                Err(head) => self.multi = Some((head, Vec::new())),
            }
        }
        Ok(out)
    }
}

/// Parses a reply's first line as `serve::Client::read_reply` does; a
/// line with another tag heads a multi-line reply and comes back as `Err`.
fn parse_line(line: String) -> Result<ClientReply, String> {
    let (tag, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
    let rest = rest.to_string();
    Ok(match tag {
        "OK" => ClientReply::Ok(rest),
        "ERR" => ClientReply::Err(rest),
        "BUSY" => ClientReply::Busy(rest),
        "OVERLOADED" => ClientReply::Overloaded(rest),
        _ => return Err(line),
    })
}

/// An outstanding stream request.
struct Pending {
    due: Instant,
    firings: u64,
    /// `Some(ok)` once the `BATCH` reply arrived.
    batch_ok: Option<bool>,
}

/// The schedule and in-flight state of one phase.
struct PhaseState {
    t0: Instant,
    end: Instant,
    /// Due time of the next stream request; `None` once the phase's
    /// stream is over (or it has none).
    next_due: Option<Instant>,
    stream_on: bool,
    pending: VecDeque<Pending>,
    churn: Churn,
    next_rss: Instant,
    last_reply: Instant,
    /// When a reply last made room in a full window.
    freed_at: Instant,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Churn {
    Idle,
    /// Between sessions, until the next `OPEN` is due.
    Thinking(Instant),
    Opening(Instant),
    Running,
    Firing,
    Closing,
}

/// Decorrelates the arrival stream from the ticket stream of one seed.
const ARRIVAL_SEED: u64 = 0x5eed_a771_7a15_0001;
/// Decorrelates the churn's think times from both.
const THINK_SEED: u64 = 0x5eed_7417_c0de_0002;

const STREAM: Token = Token(0);
const CHURN: Token = Token(1);

/// The load generator.
pub struct Driver {
    poll: Poll,
    events: Events,
    stream: Conn,
    churn: Option<Conn>,
    churn_ref: Option<ChurnRef>,
    tickets: TicketGen,
    rate: f64,
    /// Draws the stream's inter-arrival gaps.
    arrivals: SplitMix64,
    /// Draws the churn's think times.
    think: SplitMix64,
    session_no: u64,
    /// When the current churn session's `OPEN` was sent.
    session_t0: Instant,
    /// The current churn session already failed a check.
    session_bad: bool,
}

impl Driver {
    /// Connects the stream connection, and the churn connection when a
    /// churn reference is given.
    pub fn connect(
        addr: SocketAddr,
        seed: u64,
        rate: f64,
        churn_ref: Option<ChurnRef>,
    ) -> io::Result<Driver> {
        let poll = Poll::new()?;
        let stream = Conn::connect(addr, &poll, STREAM)?;
        let churn = match churn_ref {
            Some(_) => Some(Conn::connect(addr, &poll, CHURN)?),
            None => None,
        };
        Ok(Driver {
            poll,
            events: Events::with_capacity(8),
            stream,
            churn,
            churn_ref,
            tickets: TicketGen::new(seed),
            rate,
            arrivals: SplitMix64::new(seed ^ ARRIVAL_SEED),
            think: SplitMix64::new(seed ^ THINK_SEED),
            session_no: 0,
            session_t0: Instant::now(),
            session_bad: false,
        })
    }

    /// One request/reply on the stream connection, outside any phase (the
    /// session's `OPEN` and first `RUN`).
    pub fn stream_request(&mut self, line: &str, timeout: Duration) -> io::Result<ClientReply> {
        let deadline = Instant::now() + timeout;
        self.stream.send(&self.poll, &format!("{line}\n"))?;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    format!("no reply to {line}"),
                ));
            }
            self.poll.poll(&mut self.events, Some(left))?;
            self.stream.flush(&self.poll)?;
            if let Some(r) = self.stream.read_replies()?.into_iter().next() {
                return Ok(r);
            }
        }
    }

    fn send_churn(&mut self, text: &str) -> io::Result<()> {
        let c = self.churn.as_mut().expect("churn connection");
        c.send(&self.poll, text)
    }

    /// The due time after `prev`: an exponential gap at the mean rate.
    fn next_arrival(&mut self, prev: Instant) -> Instant {
        prev + exponential(&mut self.arrivals, 1.0 / self.rate)
    }

    fn open_session(&mut self) -> io::Result<Churn> {
        self.session_bad = false;
        self.send_churn("OPEN rubik\n")?;
        self.session_t0 = Instant::now();
        Ok(Churn::Opening(self.session_t0))
    }

    /// Runs one phase of `dur`: the stream (if `stream_on`) at the mean
    /// rate, the churn loop (if `churn_on`), sampling the server's VmRSS
    /// when `server_pid` is given. A lost connection fails every
    /// outstanding request and ends the phase with `broken` set.
    pub fn run_phase(
        &mut self,
        dur: Duration,
        stream_on: bool,
        churn_on: bool,
        server_pid: Option<&str>,
    ) -> PhaseOut {
        let t0 = Instant::now();
        let end = t0 + dur;
        let first = self.next_arrival(t0);
        let mut st = PhaseState {
            t0,
            end,
            next_due: Some(first).filter(|&d| stream_on && d < end),
            stream_on,
            pending: VecDeque::new(),
            churn: Churn::Idle,
            next_rss: t0,
            last_reply: t0,
            freed_at: t0,
        };
        let mut out = PhaseOut::default();
        let res = if churn_on {
            self.open_session().map(|c| st.churn = c)
        } else {
            Ok(())
        };
        if let Err(e) = res.and_then(|()| self.phase_loop(&mut st, &mut out, server_pid)) {
            out.failures.push(format!("connection lost: {e}"));
            for _ in st.pending.drain(..) {
                out.stream_failed += 1;
                out.lat_ms.push(FAILED_MS);
            }
            if !matches!(st.churn, Churn::Idle | Churn::Thinking(_)) {
                out.sessions_failed += 1;
            }
            out.broken = true;
        }
        out.wall = st.last_reply.max(st.end) - t0;
        out
    }

    fn phase_loop(
        &mut self,
        st: &mut PhaseState,
        out: &mut PhaseOut,
        server_pid: Option<&str>,
    ) -> io::Result<()> {
        loop {
            let now = Instant::now();
            while let Some(due) = st
                .next_due
                .filter(|&d| d <= now && st.pending.len() < MAX_IN_FLIGHT)
            {
                let (tickets, firings) = self.tickets.next_request();
                self.stream.send(&self.poll, &stream_request(&tickets))?;
                if st.freed_at > due {
                    out.stream_held += 1;
                }
                out.late_ms
                    .push((now - due.max(st.freed_at)).as_secs_f64() * 1e3);
                out.due_ms.push((due - st.t0).as_secs_f64() * 1e3);
                st.pending.push_back(Pending {
                    due,
                    firings,
                    batch_ok: None,
                });
                out.stream_sent += 1;
                st.next_due = Some(self.next_arrival(due)).filter(|&d| d < st.end);
            }
            if let Some(pid) = server_pid.filter(|_| st.stream_on && now >= st.next_rss) {
                if let Some(kb) = crate::host::status_kb(pid, "VmRSS") {
                    out.rss.push((out.lat_ms.len() as u64, kb));
                }
                st.next_rss = now + Duration::from_millis(250);
            }
            if let Churn::Thinking(at) = st.churn {
                if now >= st.end {
                    st.churn = Churn::Idle;
                } else if now >= at {
                    st.churn = self.open_session()?;
                }
            }
            if st.next_due.is_none()
                && st.pending.is_empty()
                && st.churn == Churn::Idle
                && now >= st.end
            {
                return Ok(());
            }
            if now > st.end + DRAIN_LIMIT {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    format!("replies still outstanding {DRAIN_LIMIT:?} after the phase"),
                ));
            }
            let mut wait = match st.next_due {
                Some(d) if st.pending.len() < MAX_IN_FLIGHT => d.saturating_duration_since(now),
                _ => Duration::from_millis(20),
            };
            if let Churn::Thinking(at) = st.churn {
                wait = wait.min(at.min(st.end).saturating_duration_since(now));
            }
            let n = if wait >= Duration::from_millis(1) {
                self.poll.poll(&mut self.events, Some(wait))?
            } else {
                let n = self.poll.poll(&mut self.events, Some(Duration::ZERO))?;
                if n == 0 && !wait.is_zero() {
                    std::thread::sleep(wait.min(FINE_NAP));
                }
                n
            };
            if n == 0 {
                continue;
            }
            let tokens: Vec<Token> = self.events.iter().map(|e| e.token()).collect();
            for token in tokens {
                if token == STREAM {
                    self.stream.flush(&self.poll)?;
                    let replies = self.stream.read_replies()?;
                    let t = Instant::now();
                    let was_full = st.pending.len() >= MAX_IN_FLIGHT;
                    for reply in replies {
                        st.last_reply = t;
                        self.on_stream_reply(reply, t, &mut st.pending, out);
                    }
                    if was_full && st.pending.len() < MAX_IN_FLIGHT {
                        st.freed_at = t;
                    }
                } else if let Some(c) = self.churn.as_mut().filter(|_| token == CHURN) {
                    c.flush(&self.poll)?;
                    let replies = c.read_replies()?;
                    let t = Instant::now();
                    for reply in replies {
                        st.last_reply = t;
                        st.churn = self.on_churn_reply(reply, st.churn, t, t < st.end, out)?;
                    }
                }
            }
        }
    }

    fn on_stream_reply(
        &mut self,
        reply: ClientReply,
        t: Instant,
        pending: &mut VecDeque<Pending>,
        out: &mut PhaseOut,
    ) {
        let Some(head) = pending.front_mut() else {
            out.failures
                .push(format!("unexpected stream reply {reply:?}"));
            return;
        };
        out.refused.note(&reply);
        if head.batch_ok.is_none() {
            let ok = matches!(&reply, ClientReply::Ok(p)
                if p.split_whitespace().next() == Some(&TICKETS_PER_REQUEST.to_string()));
            if !ok && out.failures.len() < 8 {
                out.failures.push(format!("stream BATCH reply {reply:?}"));
            }
            head.batch_ok = Some(ok);
            return;
        }
        let p = pending.pop_front().expect("front checked above");
        let run_ok = match &reply {
            ClientReply::Ok(payload) => field(payload, "cycles") == Some(&p.firings.to_string()),
            _ => false,
        };
        if p.batch_ok == Some(true) && run_ok {
            out.lat_ms.push((t - p.due).as_secs_f64() * 1e3);
        } else {
            if !run_ok && out.failures.len() < 8 {
                out.failures.push(format!(
                    "stream RUN reply {reply:?}, expected cycles={}",
                    p.firings
                ));
            }
            out.lat_ms.push(FAILED_MS);
            out.stream_failed += 1;
        }
    }

    fn on_churn_reply(
        &mut self,
        reply: ClientReply,
        state: Churn,
        t: Instant,
        more: bool,
        out: &mut PhaseOut,
    ) -> io::Result<Churn> {
        out.refused.note(&reply);
        let want = self.churn_ref.clone().expect("churn reference");
        let bad = |out: &mut PhaseOut, what: String| {
            if out.failures.len() < 8 {
                out.failures.push(what);
            }
        };
        Ok(match state {
            Churn::Opening(sent) => match &reply {
                ClientReply::Ok(p) if field(p, "matcher") == Some("vs2") => {
                    out.open_ms.push((t - sent).as_secs_f64() * 1e3);
                    self.send_churn(&format!("RUN {CHURN_RUN}\n"))?;
                    Churn::Running
                }
                _ => {
                    // No session was opened: the attempt failed.
                    bad(out, format!("churn OPEN reply {reply:?}"));
                    out.open_ms.push(FAILED_MS);
                    out.sessions_failed += 1;
                    if !matches!(reply, ClientReply::Ok(_)) && more {
                        self.open_session()?
                    } else if matches!(reply, ClientReply::Ok(_)) {
                        self.send_churn("CLOSE\n")?;
                        self.session_bad = true;
                        Churn::Closing
                    } else {
                        Churn::Idle
                    }
                }
            },
            Churn::Running => {
                let ok = matches!(&reply, ClientReply::Ok(p)
                    if field(p, "cycles") == Some(&want.cycles.to_string())
                        && field(p, "reason") == Some(want.reason));
                if !ok {
                    bad(
                        out,
                        format!(
                            "churn RUN reply {reply:?}, expected cycles={} reason={}",
                            want.cycles, want.reason
                        ),
                    );
                    self.session_bad = true;
                }
                self.session_no += 1;
                if self.session_no.is_multiple_of(FIRED_SAMPLE_EVERY) {
                    self.send_churn("FIRED?\n")?;
                    Churn::Firing
                } else {
                    self.send_churn("CLOSE\n")?;
                    Churn::Closing
                }
            }
            Churn::Firing => {
                if !matches!(&reply, ClientReply::Multi { lines, .. } if *lines == want.fired) {
                    bad(out, "churn FIRED? differs from the direct engine".into());
                    self.session_bad = true;
                }
                self.send_churn("CLOSE\n")?;
                Churn::Closing
            }
            Churn::Closing => {
                if !matches!(reply, ClientReply::Ok(_)) {
                    bad(out, format!("churn CLOSE reply {reply:?}"));
                    self.session_bad = true;
                }
                if self.session_bad {
                    out.sessions_failed += 1;
                } else {
                    out.sessions += 1;
                    out.session_ms
                        .push((t - self.session_t0).as_secs_f64() * 1e3);
                }
                if more {
                    Churn::Thinking(t + exponential(&mut self.think, CHURN_THINK_MS / 1e3))
                } else {
                    Churn::Idle
                }
            }
            Churn::Idle | Churn::Thinking(_) => {
                bad(out, format!("unexpected churn reply {reply:?}"));
                state
            }
        })
    }
}

/// A seeded exponential gap with the given mean (s).
fn exponential(rng: &mut SplitMix64, mean_s: f64) -> Duration {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    Duration::from_secs_f64(-(1.0 - u).ln() * mean_s)
}

/// Server VmRSS growth per thousand completed stream requests, from the
/// first to the last sample.
pub fn rss_kb_per_kreq(samples: &[(u64, u64)]) -> f64 {
    match (samples.first(), samples.last()) {
        (Some(&(r0, k0)), Some(&(r1, k1))) if r1 > r0 => {
            (k1 as f64 - k0 as f64) / ((r1 - r0) as f64 / 1000.0)
        }
        _ => 0.0,
    }
}
