//! The wire protocol: line-oriented text, one request per line.
//!
//! ```text
//! OPEN <program> [matcher] [PRIO=<p>]
//!                            open a session on a registered program,
//!                            optionally in a scheduling class
//!                            (high|normal|batch; default normal)
//! OPEN - [matcher] [PRIO=<p>]  ... on inline source: lines follow, then
//!                            END; the body is always read to its END,
//!                            even when the OPEN is rejected
//! ASSERT <class ^attr v ...> stage one WME               -> OK <timetag>
//! RETRACT <timetag>          stage one retraction        -> OK <timetag>
//! BATCH                      begin a multi-line batch (ASSERT/RETRACT
//! ...                        lines), closed by END       -> OK <n> <tags>
//! RUN <n>                    flush staged changes as one batch, fire up
//!                            to n cycles (0 = match-only settle)
//! CS?                        conflict set                -> CS <n> ... END
//! WM? [class]                working memory              -> WM <n> ... END
//! FIRED?                     firing log                  -> FIRED <n> ... END
//! SNAPSHOT?                  durable state snapshot      -> SNAPSHOT <n> ... END
//! RESTORE <program> [matcher] open a session from a snapshot (+ optional
//!                            change-log tail); body lines follow, then END
//! MIGRATE [matcher]          rebuild the session's engine from a live
//!                            snapshot, optionally on a different matcher
//! PRIO <class>               change the session's scheduling class
//!                            (high|normal|batch)         -> OK prio=<class>
//! CANCEL                     fast-fail every queued command of this
//!                            session (each replies ERR cancelled) and cut
//!                            an in-flight sliced RUN at its next slice
//!                            boundary                    -> OK cancelled pending=<n>
//! STATS?                     session statistics          -> OK k=v ...
//! METRICS?                   server-wide metrics in Prometheus text
//!                            exposition format           -> METRICS <n> ... END
//! CLOSE                      close the session
//! SHUTDOWN                   drain and stop the whole server
//! ```
//!
//! Every request gets exactly one reply, in request order. Single-line
//! replies are `OK ...`, `ERR ...`, or the backpressure pair `BUSY ...`
//! (server-wide run queue saturated — retry later) and `OVERLOADED ...`
//! (this session's command queue is full — drain replies first).
//! Multi-line replies open with `<KIND> <count>` and close with `END`.
//!
//! Framing is sans-I/O and lives here once: [`Framer`] turns request lines
//! into complete requests for the server and the router alike, and
//! [`ReplyReader`] turns reply lines back into [`Reply`]s for the client
//! and the router.

use crate::session::BatchItem;
use std::fmt;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// `OPEN <program> [matcher] [PRIO=<class>]`; a program of `-`
    /// introduces inline source terminated by `END`. `prio` carries the
    /// raw class name — validated where the session is built.
    Open {
        program: String,
        matcher: Option<String>,
        prio: Option<String>,
    },
    Assert(String),
    Retract(u64),
    BatchStart,
    /// Terminates a `BATCH` or an inline `OPEN -` body.
    End,
    Run(u64),
    Cs,
    Wm(Option<String>),
    Stats,
    /// Server-wide metrics snapshot (works with or without an open session).
    Metrics,
    Fired,
    /// Serialize the session's full durable state (`SNAPSHOT?`).
    Snapshot,
    /// `RESTORE <program> [matcher] [PRIO=<class>]`; body lines (snapshot
    /// text, then any change-log tail) follow, terminated by `END`.
    Restore {
        program: String,
        matcher: Option<String>,
        prio: Option<String>,
    },
    /// `MIGRATE [matcher]`: snapshot + rebuild the engine in place.
    Migrate(Option<String>),
    /// `PRIO <class>`: change the session's scheduling class.
    Prio(String),
    /// `CANCEL`: fast-fail queued commands, cut an in-flight sliced `RUN`.
    Cancel,
    Close,
    Shutdown,
}

/// Splits `OPEN`/`RESTORE` trailing arguments into (matcher, prio): one
/// optional bare matcher name plus one optional `PRIO=<class>` token, in
/// either order.
fn matcher_and_prio(verb: &str, rest: &str) -> Result<(Option<String>, Option<String>), String> {
    let mut matcher = None;
    let mut prio = None;
    for tok in rest.split_whitespace() {
        if tok.len() >= 5 && tok[..5].eq_ignore_ascii_case("PRIO=") {
            if prio.replace(tok[5..].to_string()).is_some() {
                return Err(format!("{verb} takes one PRIO= argument"));
            }
        } else if matcher.replace(tok.to_string()).is_some() {
            return Err(format!("{verb} takes at most a matcher and PRIO=<class>"));
        }
    }
    Ok((matcher, prio))
}

/// Parses one request line (already stripped of the newline).
pub fn parse_line(line: &str) -> Result<Line, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let no_arg = |l: Line| {
        if rest.is_empty() {
            Ok(l)
        } else {
            Err(format!("{verb} takes no argument"))
        }
    };
    match verb.to_ascii_uppercase().as_str() {
        "OPEN" => {
            let (program, tail) = match rest.split_once(char::is_whitespace) {
                Some((p, t)) => (p, t),
                None => (rest, ""),
            };
            if program.is_empty() {
                return Err("OPEN needs a program name (or `-`)".into());
            }
            let (matcher, prio) = matcher_and_prio("OPEN", tail)?;
            Ok(Line::Open {
                program: program.to_string(),
                matcher,
                prio,
            })
        }
        "ASSERT" => {
            if rest.is_empty() {
                Err("ASSERT needs a WME body".into())
            } else {
                Ok(Line::Assert(rest.to_string()))
            }
        }
        "RETRACT" => rest
            .parse::<u64>()
            .map(Line::Retract)
            .map_err(|_| format!("RETRACT needs a timetag, got `{rest}`")),
        "BATCH" => no_arg(Line::BatchStart),
        "END" => no_arg(Line::End),
        "RUN" => rest
            .parse::<u64>()
            .map(Line::Run)
            .map_err(|_| format!("RUN needs a cycle count, got `{rest}`")),
        "CS?" => no_arg(Line::Cs),
        "WM?" => Ok(Line::Wm(if rest.is_empty() {
            None
        } else {
            Some(rest.to_string())
        })),
        "STATS?" => no_arg(Line::Stats),
        "METRICS?" => no_arg(Line::Metrics),
        "FIRED?" => no_arg(Line::Fired),
        "SNAPSHOT?" => no_arg(Line::Snapshot),
        "RESTORE" => {
            let (program, tail) = match rest.split_once(char::is_whitespace) {
                Some((p, t)) => (p, t),
                None => (rest, ""),
            };
            if program.is_empty() {
                return Err("RESTORE needs a program name".into());
            }
            let (matcher, prio) = matcher_and_prio("RESTORE", tail)?;
            Ok(Line::Restore {
                program: program.to_string(),
                matcher,
                prio,
            })
        }
        "MIGRATE" => {
            let mut parts = rest.split_whitespace();
            let matcher = parts.next().map(|s| s.to_string());
            if parts.next().is_some() {
                return Err("MIGRATE takes at most one argument".into());
            }
            Ok(Line::Migrate(matcher))
        }
        "PRIO" => {
            let mut parts = rest.split_whitespace();
            let class = parts
                .next()
                .ok_or_else(|| "PRIO needs a class (high|normal|batch)".to_string())?
                .to_string();
            if parts.next().is_some() {
                return Err("PRIO takes one argument".into());
            }
            Ok(Line::Prio(class))
        }
        "CANCEL" => no_arg(Line::Cancel),
        "CLOSE" => no_arg(Line::Close),
        "SHUTDOWN" => no_arg(Line::Shutdown),
        "" => Err("empty request".into()),
        other => Err(format!("unknown request `{other}`")),
    }
}

/// One complete request, framed from the line stream by [`Framer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A single-line request. Never `BATCH`, `RESTORE`, or `OPEN -`:
    /// those open a body and arrive as the frames below.
    Line(Line),
    /// `OPEN - [matcher] [PRIO=<class>]` with its inline program source.
    OpenSource {
        matcher: Option<String>,
        prio: Option<String>,
        source: String,
    },
    /// `RESTORE <program> [matcher] [PRIO=<class>]` with its body lines
    /// (snapshot text, then any change-log tail).
    Restore {
        program: String,
        matcher: Option<String>,
        prio: Option<String>,
        body: Vec<String>,
    },
    /// `BATCH` … `END`.
    Batch(Vec<BatchItem>),
    /// A request that cannot be framed: an unparsable line, or a `BATCH`
    /// body line that aborts the batch. The text is the `ERR` payload.
    Error(String),
}

/// The request framer: a pure state machine, lines in, [`Frame`]s out.
/// Every frame draws exactly one reply, and what a line means depends
/// only on the lines before it — never on session state — so the server
/// and the router, which cannot see that state, frame identically.
///
/// Body terminators: `OPEN -` ends at a case-insensitive `END`; `RESTORE`
/// at an exact-case `END` (the snapshot's own lowercase `end` stays in
/// the body); `BATCH` at a line that parses as `END`. A `BATCH` body line
/// other than `ASSERT`/`RETRACT` aborts the batch at once, and the lines
/// after it frame as top-level requests.
#[derive(Default)]
pub struct Framer {
    /// The multi-line frame being collected, if any.
    open: Option<Frame>,
    /// Lines seen in the open `BATCH` body, blanks included, so errors
    /// point at the line the client actually sent (1-based).
    batch_line: usize,
}

impl Framer {
    pub fn new() -> Framer {
        Framer::default()
    }

    /// True at top level: no multi-line body is open.
    pub fn is_idle(&self) -> bool {
        self.open.is_none()
    }

    /// Feeds one line (without its terminator); returns the frame it
    /// completes, if any. Blank top-level lines complete nothing.
    pub fn feed(&mut self, line: &str) -> Option<Frame> {
        let Some(mut frame) = self.open.take() else {
            return self.start(line);
        };
        let done = match &mut frame {
            Frame::OpenSource { source, .. } => {
                let end = line.trim().eq_ignore_ascii_case("END");
                if !end {
                    source.push_str(line);
                    source.push('\n');
                }
                end
            }
            Frame::Restore { body, .. } => {
                let end = line.trim() == "END";
                if !end {
                    body.push(line.to_string());
                }
                end
            }
            Frame::Batch(items) => {
                self.batch_line += 1;
                let n = self.batch_line;
                match parse_line(line) {
                    _ if line.trim().is_empty() => false,
                    Ok(Line::Assert(body)) => {
                        items.push(BatchItem::Assert { line: n, body });
                        false
                    }
                    Ok(Line::Retract(tag)) => {
                        items.push(BatchItem::Retract { line: n, tag });
                        false
                    }
                    Ok(Line::End) => true,
                    Ok(other) => {
                        return Some(Frame::Error(format!(
                            "BATCH line {n}: only ASSERT/RETRACT allowed, got {other:?}"
                        )))
                    }
                    Err(e) => return Some(Frame::Error(format!("BATCH line {n}: {e}"))),
                }
            }
            Frame::Line(_) | Frame::Error(_) => unreachable!("only body frames stay open"),
        };
        if done {
            Some(frame)
        } else {
            self.open = Some(frame);
            None
        }
    }

    /// A top-level line: a whole request, or the head of a body.
    fn start(&mut self, line: &str) -> Option<Frame> {
        if line.trim().is_empty() {
            return None;
        }
        let body = match parse_line(line) {
            Err(e) => return Some(Frame::Error(e)),
            Ok(Line::Open {
                program,
                matcher,
                prio,
            }) if program == "-" => Frame::OpenSource {
                matcher,
                prio,
                source: String::new(),
            },
            Ok(Line::Restore {
                program,
                matcher,
                prio,
            }) => Frame::Restore {
                program,
                matcher,
                prio,
                body: Vec::new(),
            },
            Ok(Line::BatchStart) => {
                self.batch_line = 0;
                Frame::Batch(Vec::new())
            }
            Ok(other) => return Some(Frame::Line(other)),
        };
        self.open = Some(body);
        None
    }
}

/// One reply, ready to serialize. The `Busy`/`Overloaded` variants are the
/// protocol's backpressure signals and are never folded into `Err`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    Ok(String),
    /// Multi-line reply: `<head>\n` + one line per item + `END\n`.
    Multi {
        head: String,
        lines: Vec<String>,
    },
    Err(String),
    Busy(String),
    Overloaded(String),
}

impl Reply {
    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Ok(_) | Reply::Multi { .. })
    }

    /// True for the two backpressure rejections.
    pub fn is_backpressure(&self) -> bool {
        matches!(self, Reply::Busy(_) | Reply::Overloaded(_))
    }

    /// Unwraps `OK <payload>`, turning anything else into an error string.
    pub fn expect_ok(self) -> Result<String, String> {
        match self {
            Reply::Ok(s) => Ok(s),
            other => Err(format!("expected OK, got {other:?}")),
        }
    }

    /// Unwraps a multi-line reply's body lines.
    pub fn expect_lines(self) -> Result<Vec<String>, String> {
        match self {
            Reply::Multi { lines, .. } => Ok(lines),
            other => Err(format!("expected multi-line reply, got {other:?}")),
        }
    }
}

/// The reply reader, [`Framer`]'s counterpart on the receiving side:
/// reply lines in, complete [`Reply`]s out. A multi-line head declares
/// its body length (`<KIND> <n>`), so the body is counted rather than
/// scanned for `END` — a body line that happens to read `END` cannot
/// desync the stream. A head with no parsable count falls back to the
/// terminator scan.
#[derive(Default)]
pub struct ReplyReader {
    /// The multi-line reply being collected: head, body lines still
    /// owed (`None` = scan for `END`), and the lines so far.
    multi: Option<(String, Option<usize>, Vec<String>)>,
}

impl ReplyReader {
    pub fn new() -> ReplyReader {
        ReplyReader::default()
    }

    /// Feeds one reply line (without its terminator); returns the reply it
    /// completes, if any.
    pub fn feed(&mut self, line: String) -> Option<Reply> {
        let Some((head, remaining, mut lines)) = self.multi.take() else {
            let (tag, rest) = line.split_once(' ').unwrap_or((&line, ""));
            let single: fn(String) -> Reply = match tag {
                "OK" => Reply::Ok,
                "ERR" => Reply::Err,
                "BUSY" => Reply::Busy,
                "OVERLOADED" => Reply::Overloaded,
                _ => {
                    let declared = rest.split_whitespace().next().and_then(|n| n.parse().ok());
                    self.multi = Some((line, declared, Vec::new()));
                    return None;
                }
            };
            return Some(single(rest.to_string()));
        };
        let remaining = match remaining {
            Some(0) => return Some(Reply::Multi { head, lines }),
            None if line == "END" => return Some(Reply::Multi { head, lines }),
            Some(n) => Some(n - 1),
            None => None,
        };
        lines.push(line);
        self.multi = Some((head, remaining, lines));
        None
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reply::Ok(s) => writeln!(f, "OK {s}"),
            Reply::Multi { head, lines } => {
                writeln!(f, "{head}")?;
                for l in lines {
                    writeln!(f, "{l}")?;
                }
                writeln!(f, "END")
            }
            Reply::Err(s) => writeln!(f, "ERR {s}"),
            Reply::Busy(s) => writeln!(f, "BUSY {s}"),
            Reply::Overloaded(s) => writeln!(f, "OVERLOADED {s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_line("OPEN rubik"),
            Ok(Line::Open {
                program: "rubik".into(),
                matcher: None,
                prio: None
            })
        );
        assert_eq!(
            parse_line("open - psm"),
            Ok(Line::Open {
                program: "-".into(),
                matcher: Some("psm".into()),
                prio: None
            })
        );
        assert_eq!(
            parse_line("OPEN rubik PRIO=batch"),
            Ok(Line::Open {
                program: "rubik".into(),
                matcher: None,
                prio: Some("batch".into())
            })
        );
        // PRIO= and matcher compose in either order; case-insensitive key.
        assert_eq!(
            parse_line("OPEN rubik prio=HIGH psm"),
            Ok(Line::Open {
                program: "rubik".into(),
                matcher: Some("psm".into()),
                prio: Some("HIGH".into())
            })
        );
        assert_eq!(parse_line("PRIO high"), Ok(Line::Prio("high".into())));
        assert_eq!(parse_line("prio batch"), Ok(Line::Prio("batch".into())));
        assert_eq!(parse_line("CANCEL"), Ok(Line::Cancel));
        assert_eq!(
            parse_line("ASSERT block ^name a"),
            Ok(Line::Assert("block ^name a".into()))
        );
        assert_eq!(parse_line("RETRACT 17"), Ok(Line::Retract(17)));
        assert_eq!(parse_line("BATCH"), Ok(Line::BatchStart));
        assert_eq!(parse_line("END"), Ok(Line::End));
        assert_eq!(parse_line("RUN 100"), Ok(Line::Run(100)));
        assert_eq!(parse_line("CS?"), Ok(Line::Cs));
        assert_eq!(parse_line("WM?"), Ok(Line::Wm(None)));
        assert_eq!(parse_line("WM? block"), Ok(Line::Wm(Some("block".into()))));
        assert_eq!(parse_line("STATS?"), Ok(Line::Stats));
        assert_eq!(parse_line("METRICS?"), Ok(Line::Metrics));
        assert_eq!(parse_line("metrics?"), Ok(Line::Metrics));
        assert_eq!(parse_line("FIRED?"), Ok(Line::Fired));
        assert_eq!(parse_line("SNAPSHOT?"), Ok(Line::Snapshot));
        assert_eq!(
            parse_line("RESTORE adder"),
            Ok(Line::Restore {
                program: "adder".into(),
                matcher: None,
                prio: None
            })
        );
        assert_eq!(
            parse_line("restore adder psm"),
            Ok(Line::Restore {
                program: "adder".into(),
                matcher: Some("psm".into()),
                prio: None
            })
        );
        assert_eq!(
            parse_line("RESTORE adder PRIO=high"),
            Ok(Line::Restore {
                program: "adder".into(),
                matcher: None,
                prio: Some("high".into())
            })
        );
        assert_eq!(parse_line("MIGRATE"), Ok(Line::Migrate(None)));
        assert_eq!(
            parse_line("MIGRATE vs2"),
            Ok(Line::Migrate(Some("vs2".into())))
        );
        assert_eq!(parse_line("CLOSE"), Ok(Line::Close));
        assert_eq!(parse_line("SHUTDOWN"), Ok(Line::Shutdown));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("").is_err());
        assert!(parse_line("FROB").is_err());
        assert!(parse_line("RUN").is_err());
        assert!(parse_line("RUN x").is_err());
        assert!(parse_line("RETRACT -3").is_err());
        assert!(parse_line("ASSERT").is_err());
        assert!(parse_line("OPEN").is_err());
        assert!(parse_line("CLOSE now").is_err());
        assert!(parse_line("METRICS? all").is_err());
        assert!(parse_line("SNAPSHOT? x").is_err());
        assert!(parse_line("RESTORE").is_err());
        assert!(parse_line("RESTORE a b c").is_err());
        assert!(parse_line("MIGRATE a b").is_err());
        assert!(parse_line("PRIO").is_err());
        assert!(parse_line("PRIO a b").is_err());
        assert!(parse_line("CANCEL now").is_err());
        assert!(parse_line("OPEN r PRIO=a PRIO=b").is_err());
        assert!(parse_line("OPEN r vs2 psm").is_err());
    }

    #[test]
    fn reply_serialization() {
        assert_eq!(Reply::Ok("17".into()).to_string(), "OK 17\n");
        assert_eq!(Reply::Err("nope".into()).to_string(), "ERR nope\n");
        assert_eq!(Reply::Busy("q".into()).to_string(), "BUSY q\n");
        assert_eq!(
            Reply::Overloaded("full".into()).to_string(),
            "OVERLOADED full\n"
        );
        let m = Reply::Multi {
            head: "CS 2".into(),
            lines: vec!["p1 1 2".into(), "p2 3".into()],
        };
        assert_eq!(m.to_string(), "CS 2\np1 1 2\np2 3\nEND\n");
    }

    fn frames(script: &str) -> Vec<Frame> {
        let mut framer = Framer::new();
        script.lines().filter_map(|l| framer.feed(l)).collect()
    }

    #[test]
    fn framer_frames_bodies_and_errors() {
        let script = "OPEN - vs2 PRIO=high\n(p a)\n\n(p b)\nend\n\
                      RESTORE adder\nsnap\nend\nlog\nEND\n\
                      \n\
                      BATCH\nASSERT a ^x 1\n\nRETRACT 7\nEND\n\
                      BATCH\nASSERT a ^x 1\nRUN 1\nEND\n\
                      FROB\n";
        assert_eq!(
            frames(script),
            vec![
                Frame::OpenSource {
                    matcher: Some("vs2".into()),
                    prio: Some("high".into()),
                    source: "(p a)\n\n(p b)\n".into(),
                },
                Frame::Restore {
                    program: "adder".into(),
                    matcher: None,
                    prio: None,
                    body: vec!["snap".into(), "end".into(), "log".into()],
                },
                Frame::Batch(vec![
                    BatchItem::Assert {
                        line: 1,
                        body: "a ^x 1".into()
                    },
                    BatchItem::Retract { line: 3, tag: 7 },
                ]),
                Frame::Error("BATCH line 2: only ASSERT/RETRACT allowed, got Run(1)".into()),
                // The aborted batch's remaining lines frame at top level.
                Frame::Line(Line::End),
                Frame::Error("unknown request `FROB`".into()),
            ]
        );
    }

    /// The body of an `OPEN -` is read to its `END` whatever its arguments:
    /// framing never depends on whether the server will accept the OPEN.
    #[test]
    fn rejected_open_body_is_one_frame() {
        for head in ["OPEN - nosuch", "OPEN - vs2 PRIO=bogus"] {
            let got = frames(&format!("{head}\nRUN 1\nCLOSE\nEND\nSTATS?\n"));
            assert_eq!(got.len(), 2, "{got:?}");
            assert!(
                matches!(&got[0], Frame::OpenSource { source, .. } if source == "RUN 1\nCLOSE\n")
            );
            assert_eq!(got[1], Frame::Line(Line::Stats));
        }
        let mut framer = Framer::new();
        assert_eq!(framer.feed("OPEN - psm"), None);
        assert!(!framer.is_idle());
        assert!(framer.feed("End").is_some());
        assert!(framer.is_idle());
    }

    #[test]
    fn reply_reader_counts_declared_bodies() {
        let mut r = ReplyReader::new();
        let mut feed = |l: &str| r.feed(l.to_string());
        assert_eq!(feed("OK 17"), Some(Reply::Ok("17".into())));
        assert_eq!(feed("OK"), Some(Reply::Ok(String::new())));
        assert_eq!(feed("BUSY q"), Some(Reply::Busy("q".into())));
        // A declared body line that reads `END` is body, not terminator.
        assert_eq!(feed("WM 2"), None);
        assert_eq!(feed("END"), None);
        assert_eq!(feed("x"), None);
        assert_eq!(
            feed("END"),
            Some(Reply::Multi {
                head: "WM 2".into(),
                lines: vec!["END".into(), "x".into()],
            })
        );
        // No parsable count: scan for the terminator.
        assert_eq!(feed("RING ?"), None);
        assert_eq!(feed("a"), None);
        assert_eq!(
            feed("END"),
            Some(Reply::Multi {
                head: "RING ?".into(),
                lines: vec!["a".into()],
            })
        );
    }

    /// Request lines the split-invariance property draws its scripts from:
    /// every body kind, their terminators in both cases, a batch abort,
    /// blanks, and a CRLF line.
    const SCRIPT_LINES: &[&str] = &[
        "OPEN - vs2",
        "OPEN blocks",
        "(p r (x ^v 1) --> (halt))",
        "END",
        "end",
        "BATCH",
        "ASSERT x ^v 1",
        "RETRACT 3",
        "RESTORE adder",
        "RUN 2",
        "STATS?\r",
        "",
        "FROB",
        "CLOSE",
    ];

    fn framed(reads: &[&[u8]]) -> Vec<Frame> {
        let mut buf = reactor::LineBuf::new();
        let mut framer = Framer::new();
        let mut out = Vec::new();
        for read in reads {
            buf.extend(read);
            while let Some(line) = buf.next_line() {
                out.extend(framer.feed(&line));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Any split of a byte stream into reads, fed through `LineBuf`
        /// and the `Framer`, yields the frames of the stream read whole.
        #[test]
        fn framing_is_invariant_under_read_splits(
            picks in proptest::collection::vec(0usize..SCRIPT_LINES.len(), 1..48),
            cuts in proptest::collection::vec(1usize..24, 1..64),
        ) {
            let script: String = picks.iter().map(|&i| format!("{}\n", SCRIPT_LINES[i])).collect();
            let bytes = script.as_bytes();
            let mut reads = Vec::new();
            let mut at = 0;
            for &n in cuts.iter().cycle() {
                if at >= bytes.len() {
                    break;
                }
                let end = (at + n).min(bytes.len());
                reads.push(&bytes[at..end]);
                at = end;
            }
            prop_assert_eq!(framed(&reads), framed(&[bytes]));
        }
    }
}
