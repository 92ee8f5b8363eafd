//! Self-tests of the benchmark harness: the percentile rule, the
//! transparency of the timing matcher wrapper, open-loop latency counted
//! from the due time across a server stall, and the churn loop's think
//! time.

use perfbench::driver::{field, ChurnRef, Driver, CHURN_THINK_MS};
use perfbench::offline::{self, Batch};
use perfbench::stats::{self, engine_digest};
use perfbench::trace::{self, Tracer};
use serve::ClientReply;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::Duration;

#[test]
fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(stats::tail_percentile(19), None);
    assert_eq!(stats::tail_percentile(20), Some(50.0));
    assert_eq!(stats::tail_percentile(99), Some(50.0));
    assert_eq!(stats::tail_percentile(100), Some(90.0));
    assert_eq!(stats::tail_percentile(999), Some(90.0));
    assert_eq!(stats::tail_percentile(1000), Some(99.0));
    assert_eq!(stats::tail_percentile(9999), Some(99.0));
    assert_eq!(stats::tail_percentile(10_000), Some(99.9));
    for n in [20, 100, 1000, 1999, 10_000] {
        let p = stats::tail_percentile(n).unwrap();
        assert!(stats::samples_beyond(n, p) >= 10, "n={n} p={p}");
    }
}

#[test]
fn windows_keep_the_tail_at_p99() {
    let samples: Vec<f64> = (0..2500).map(|i| (i % 1000) as f64).collect();
    let ws = stats::windows(&samples, 1000);
    assert_eq!(ws.len(), 2, "the remainder joins the last window");
    assert_eq!(ws[1].n, 1500);
    assert!(ws.iter().all(|w| w.tail_pct == 99.0));
    // Nearest rank: the 990th of 0..999 is 989.
    assert_eq!(ws[0].tail, 989.0);
    assert_eq!(ws[0].p50, 499.0);
    assert!(stats::windows(&samples[..999], 1000).is_empty());
}

#[test]
fn timing_wrapper_is_transparent_on_a_small_tourney() {
    let w = workloads::tourney::workload(workloads::tourney::TourneyConfig {
        teams: 8,
        variant: workloads::tourney::Variant::Pathological,
    });
    let mut plain = engine::EngineBuilder::from_source(&w.source)
        .unwrap()
        .build()
        .unwrap();
    offline::load(&mut plain, &w.setup).unwrap();
    plain.run(w.max_cycles).unwrap();
    (w.validate)(&plain).unwrap();

    let tr = Tracer::default();
    let (traced, layer) = offline::traced_rep(&tr, &w.source, &w.setup, w.max_cycles).unwrap();
    (w.validate)(&traced).unwrap();
    assert_eq!(engine_digest(&traced), engine_digest(&plain));
    assert_eq!(traced.cycles(), plain.cycles());
    assert_eq!(traced.match_stats(), plain.match_stats());
    assert_eq!(traced.matcher().name(), "vs2");

    let spans = tr.spans_since(0);
    assert_eq!(
        trace::n_spans(&spans, "engine.step"),
        plain.cycles() + 1,
        "one span per firing plus the quiescent or halted last step"
    );
    assert!(layer.submits > 0 && layer.changes >= layer.submits);
    assert_eq!(layer.cs_changes, plain.match_stats().cs_changes);
    assert!(layer.step_ms >= layer.submit_ms + layer.quiesce_ms);
}

#[test]
fn weaver_boards_have_the_bench_shape() {
    let bench = bench::weaver_bench();
    let ours = offline::weaver_board(42);
    assert_eq!(ours.name, bench.name);
    assert_eq!(ours.source, bench.source);
    assert_eq!(format!("{:?}", ours.setup), format!("{:?}", bench.setup));
    assert_eq!(Batch::Weaver.workloads(7).len(), offline::WEAVER_BOARDS);
}

/// A stand-in server for the stream protocol that stalls once: it holds
/// the reply to the `stall_at`-th `RUN` for `stall`.
fn fake_server(
    stall_at: usize,
    stall: Duration,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (sock, _) = listener.accept().unwrap();
        let mut out = sock.try_clone().unwrap();
        let mut firings = 0u64;
        let mut runs = 0usize;
        for line in BufReader::new(sock).lines() {
            let Ok(line) = line else { break };
            let reply = if line.starts_with("OPEN") {
                "OK session 1 program=triage matcher=vs2".to_string()
            } else if let Some(body) = line.strip_prefix("ASSERT ") {
                firings += if body.ends_with("^severity 0") { 2 } else { 1 };
                continue;
            } else if line == "BATCH" {
                continue;
            } else if line == "END" {
                "OK 16 tags".to_string()
            } else if line.starts_with("RUN") {
                runs += 1;
                if runs == stall_at {
                    std::thread::sleep(stall);
                }
                format!(
                    "OK cycles={} reason=quiescent",
                    std::mem::take(&mut firings)
                )
            } else {
                format!("ERR unexpected {line}")
            };
            if out.write_all(format!("{reply}\n").as_bytes()).is_err() {
                break;
            }
        }
    });
    (addr, handle)
}

#[test]
fn open_loop_latency_counts_from_the_due_time_across_a_stall() {
    let rate = 100.0;
    let stall = Duration::from_millis(200);
    // The first RUN is the session's warm-up; phase request k is RUN k+2.
    let stalled = 10;
    let (addr, server) = fake_server(stalled + 2, stall);
    let mut d = Driver::connect(addr, 1, rate, None).unwrap();
    let open = d
        .stream_request("OPEN triage", Duration::from_secs(5))
        .unwrap();
    assert!(matches!(&open, ClientReply::Ok(p) if field(p, "matcher") == Some("vs2")));
    d.stream_request("RUN 1000", Duration::from_secs(5))
        .unwrap();

    let out = d.run_phase(Duration::from_secs(2), true, false, None);
    assert!(!out.broken, "{:?}", out.failures);
    assert_eq!(out.stream_failed, 0, "{:?}", out.failures);
    let n = out.lat_ms.len();
    assert_eq!(n as u64, out.stream_sent);
    assert_eq!(out.due_ms.len(), n);
    assert!((120..=280).contains(&n), "~200 Poisson arrivals, got {n}");
    assert!(out.due_ms.windows(2).all(|w| w[0] <= w[1]));
    // The generator sent on time, holding only what the full window held...
    let mut late = out.late_ms.clone();
    late.sort_by(f64::total_cmp);
    assert!(stats::percentile(&late, 99.0) < 50.0, "late {late:?}");
    // ...and the stalled request and every request due during the stall
    // carry the stall, measured from their due times, not from when they
    // were sent.
    let stall_ms = stall.as_secs_f64() * 1e3;
    let stall_end = out.due_ms[stalled] + stall_ms;
    assert!(out.lat_ms[stalled] >= stall_ms, "{:?}", &out.lat_ms[..20]);
    let during: Vec<usize> = (stalled + 1..n)
        .filter(|&k| out.due_ms[k] < stall_end - 1.0)
        .collect();
    assert!(during.len() > 5, "requests fell due during the stall");
    for &k in &during {
        assert!(
            out.lat_ms[k] >= stall_end - out.due_ms[k] - 1.0,
            "request {k} due {} ms: latency {} ms",
            out.due_ms[k],
            out.lat_ms[k]
        );
    }
    if during.len() >= perfbench::driver::MAX_IN_FLIGHT {
        assert!(out.stream_held > 0, "the stall filled the window");
    }
    // Requests due after the stall cleared are fast again.
    assert!(
        out.lat_ms[n - 1] < stall_ms / 2.0,
        "{:?}",
        &out.lat_ms[n - 10..]
    );
    drop(d);
    server.join().unwrap();
}

/// A stand-in server for the churn protocol: every `RUN` fires three
/// cycles, `FIRED?` lists one firing. Serves each connection on its own
/// thread until the driver hangs up.
fn fake_churn_server() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for sock in listener.incoming() {
            let Ok(sock) = sock else { break };
            std::thread::spawn(move || {
                let mut out = sock.try_clone().unwrap();
                for line in BufReader::new(sock).lines() {
                    let Ok(line) = line else { break };
                    let reply = if line.starts_with("OPEN") {
                        "OK session 1 program=rubik matcher=vs2"
                    } else if line.starts_with("RUN") {
                        "OK cycles=3 reason=quiescent"
                    } else if line == "FIRED?" {
                        "FIRED 1\nr1 1 2\nEND"
                    } else if line == "CLOSE" {
                        "OK closed"
                    } else {
                        "ERR unexpected"
                    };
                    if out.write_all(format!("{reply}\n").as_bytes()).is_err() {
                        break;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn churn_thinks_between_sessions_and_times_each_one() {
    let addr = fake_churn_server();
    let want = ChurnRef {
        cycles: 3,
        reason: "quiescent",
        fired: vec!["r1 1 2".to_string()],
    };
    let mut d = Driver::connect(addr, 1, 100.0, Some(want)).unwrap();
    let secs = 1.0;
    let out = d.run_phase(Duration::from_secs_f64(secs), false, true, None);
    assert!(!out.broken, "{:?}", out.failures);
    assert_eq!(out.sessions_failed, 0, "{:?}", out.failures);
    assert_eq!(out.session_ms.len() as u64, out.sessions);
    // Back to back, a local stand-in completes thousands of sessions a
    // second; with a mean think time of CHURN_THINK_MS, about
    // 1000 / CHURN_THINK_MS.
    let expected = secs * 1e3 / CHURN_THINK_MS;
    let n = out.sessions as f64;
    assert!(
        (0.5 * expected..=1.6 * expected).contains(&n),
        "{n} sessions in {secs} s, expected ~{expected}"
    );
    // A session's time runs from OPEN to the CLOSE reply; the think time
    // after it is not part of it.
    let mut ms = out.session_ms.clone();
    ms.sort_by(f64::total_cmp);
    assert!(
        stats::median(&ms) < CHURN_THINK_MS / 2.0,
        "median session {} ms",
        stats::median(&ms)
    );
}
