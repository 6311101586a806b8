//! The served workload `serve_http_mixed`: the daemon (`Server::start`,
//! in this process, [`WORKERS`] workers, booted from the embedded
//! sources) driven over HTTP, one connection per request, by
//! [`CLIENTS`] client threads in cycles of an open-loop segment at a
//! fixed rate below capacity and a closed-loop one. Zipf `generate` traffic is mixed with
//! 25 % hostile requests, a `POST /reload` every 100 operations, a batch
//! every ~50 and `/statz` snapshots in between.
//!
//! Open-loop latency is timed from each request's due time, so a stall
//! also charges the requests queued behind it.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cognicryptgen::core::GenEngine;
use cognicryptgen::fuzz::input::FuzzInput;
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::load::workload::{catalogue_ids, Op, OpKind, WorkloadSpec};
use cognicryptgen::rules::{self, PackSource};
use cognicryptgen::serve::obs::DEFAULT_RING_CAPACITY;
use cognicryptgen::serve::{Request, ServeConfig, Server, ServerHandle};
use cognicryptgen::statemachine::CacheStats;
use devharness::histogram::Histogram;
use devharness::json::Json;

use crate::boot::{self, BOOTS, PROBES};
use crate::layers::{self, ThreadTimings};
use crate::stats::{self, median_of, millis, ns, BLOCK, FAILED_NS};
use crate::{idle, json};
use crate::{metric, schedule, Ctx, Metric, Report, CLIENTS, FIRST_UC, WORKERS};

/// Socket timeout on the client side: a stuck daemon fails the run
/// instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The timed seconds are cut into cycles of this length, each an
/// open-loop segment followed by a closed-loop one. On the reference
/// machine a run settles into a throughput and tail-latency level that
/// holds for ten seconds or more and differs between runs; interleaving
/// spreads both phases over the whole run, so each samples several
/// such levels instead of one.
const CYCLE_SECONDS: f64 = 6.0;

/// Share of each cycle spent in the open-loop segment: two of its six
/// seconds are left for whole one-second closed-loop blocks.
const OPEN_SHARE: f64 = 2.0 / 3.0;

/// Length of the schedule the closed-loop phase cycles through.
const CLOSED_OPS: u64 = 4096;

/// Open-loop arrival rate (operations per second, all clients
/// together), about a third of the closed-loop capacity on the
/// reference machine.
const RATE: f64 = 300.0;

/// The mixed workload's reload and snapshot spacing. Snapshot slots
/// alternate between a batch and a `/statz` fetch, so a batch comes
/// about every 50 operations.
const RELOAD_EVERY: u64 = 100;
const SNAPSHOT_EVERY: u64 = 25;

/// Worker threads a batch request asks for.
const BATCH_THREADS: usize = 2;

/// Samples per p99 window: ten beyond the p99 of each window.
const P99_WINDOW: usize = 1000;

/// Well-formed operations of the open-loop schedule replayed on a
/// traced engine for the `core` phase split.
const PHASE_RERUN_OPS: usize = 400;

/// Boots the workload's daemon and takes its first verified response.
/// Returns the handle and the seconds that took.
///
/// The first response is taken in process through
/// `ServerState::handle`: a worker polls its listener every few
/// milliseconds, so a first request over the socket would add a wait
/// of zero to one poll interval depending only on timing luck, which
/// would swamp the boot work this figure is for. Transport costs are
/// in the latency metrics.
pub fn boot_daemon(expected_first: &str) -> Result<(ServerHandle, f64), String> {
    let config = ServeConfig {
        http_addr: Some("127.0.0.1:0".to_owned()),
        uds_path: None,
        threads: WORKERS,
        rules_path: None,
        slow_ms: None,
        obs_capacity: DEFAULT_RING_CAPACITY,
    };
    let start = Instant::now();
    let handle = Server::start(&config).map_err(|e| format!("daemon start: {e}"))?;
    let first = handle
        .state()
        .handle(&Request::Generate(FIRST_UC.to_string()));
    let elapsed = start.elapsed().as_secs_f64();
    if first.class != "ok" || first.body != expected_first {
        handle.shutdown();
        return Err(format!(
            "first response ({}) differs from the reference",
            first.class
        ));
    }
    Ok((handle, elapsed))
}

fn address_of(handle: &ServerHandle) -> Result<SocketAddr, String> {
    handle
        .http_addr()
        .ok_or_else(|| "daemon bound no HTTP listener".to_owned())
}

/// Client-side split of one exchange.
#[derive(Debug, Clone, Copy, Default)]
struct Split {
    connect_ns: u64,
    first_byte_ns: u64,
    transfer_ns: u64,
    bytes: u64,
}

/// One HTTP/1.1 exchange on a fresh connection, read to the server's
/// close so the client side never holds the connection in TIME_WAIT.
/// Returns status, body, the split, and when the last body byte arrived.
fn http_exchange(
    addr: SocketAddr,
    request: &[u8],
) -> std::io::Result<(u16, Vec<u8>, Split, Instant)> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(request)?;
    let sent = Instant::now();
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let (mut first, mut done) = (None, None);
    let (mut body_start, mut need) = (0, None);
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let now = Instant::now();
        first.get_or_insert(now);
        buf.extend_from_slice(&chunk[..n]);
        if need.is_none() {
            if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                body_start = head_end + 4;
                need = Some(body_start + content_length(&buf[..head_end])?);
            }
        }
        if need.is_some_and(|need| buf.len() >= need) {
            done.get_or_insert(now);
        }
    }
    let (Some(first), Some(done), Some(need)) = (first, done, need) else {
        return Err(std::io::Error::other("incomplete HTTP response"));
    };
    let status = std::str::from_utf8(&buf[..buf.len().min(16)])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    let split = Split {
        connect_ns: ns(connected - start),
        first_byte_ns: ns(first - sent),
        transfer_ns: ns(done - first),
        bytes: need as u64,
    };
    Ok((status, buf[body_start..need].to_vec(), split, done))
}

fn content_length(head: &[u8]) -> std::io::Result<usize> {
    String::from_utf8_lossy(head)
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| std::io::Error::other("response without Content-Length"))
}

fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Percent-encodes text into one URL path segment.
fn percent_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 3);
    for b in text.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// What an operation was, for per-kind figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Generate,
    Refusal,
    Reload,
    Batch,
    Statz,
}

/// One finished operation.
struct Done {
    kind: Kind,
    error: Option<String>,
    split: Split,
    /// When the response was complete; the check that follows is not
    /// part of the operation's latency.
    received: Instant,
}

/// `GET /generate/<uc>`; returns the body.
fn generate(addr: SocketAddr, uc: u8) -> Result<(String, Split, Instant), String> {
    let request = http_request("GET", &format!("/generate/{uc}"), "");
    let (code, body, split, received) =
        http_exchange(addr, &request).map_err(|e| format!("http generate {uc}: {e}"))?;
    if code != 200 {
        return Err(format!("http generate {uc}: status {code}"));
    }
    String::from_utf8(body)
        .map(|b| (b, split, received))
        .map_err(|_| "http body is not UTF-8".to_owned())
}

/// Fetches a JSON diagnostics document (`/statz?json=1`, `/tracez`).
fn diagnostics(addr: SocketAddr, path: &str) -> Result<Json, String> {
    let (code, body, ..) = http_exchange(addr, &http_request("GET", path, ""))
        .map_err(|e| format!("http {path}: {e}"))?;
    if code != 200 {
        return Err(format!("http {path}: status {code}"));
    }
    let body = String::from_utf8(body).map_err(|_| "http body is not UTF-8".to_owned())?;
    json::parse(&body).map_err(|e| format!("{path} body: {e}"))
}

/// Runs one scheduled operation and judges its response.
fn exec(addr: SocketAddr, op: &Op, ctx: &Ctx) -> Done {
    let (kind, outcome) = match &op.kind {
        OpKind::WellFormed { uc } => (
            Kind::Generate,
            generate(addr, *uc).and_then(|(body, split, received)| {
                if ctx.matches(*uc, &body) {
                    Ok((split, received))
                } else {
                    Err(format!("uc{uc:02}: response differs from the reference"))
                }
            }),
        ),
        kind => http_op(addr, op.index, kind, ctx),
    };
    match outcome {
        Ok((split, received)) => Done {
            kind,
            error: None,
            split,
            received,
        },
        Err(e) => Done {
            kind,
            error: Some(e),
            split: Split::default(),
            received: Instant::now(),
        },
    }
}

/// The HTTP request a non-generate operation maps to, and its check.
fn http_op(
    addr: SocketAddr,
    index: u64,
    kind: &OpKind,
    ctx: &Ctx,
) -> (Kind, Result<(Split, Instant), String>) {
    let (op_kind, request) = match kind {
        OpKind::WellFormed { .. } => unreachable!("generate is judged by the caller"),
        OpKind::HostileSelector { payload } => (
            Kind::Refusal,
            http_request("GET", &format!("/generate/{}", percent_encode(payload)), ""),
        ),
        OpKind::HostileRule { source } => {
            (Kind::Refusal, http_request("POST", "/generate", source))
        }
        OpKind::HostileProtocol { variant } => (
            Kind::Refusal,
            match variant % 4 {
                0 => b"\x01\x02 total garbage\r\n\r\n".to_vec(),
                1 => http_request("DELETE", "/healthz", ""),
                2 => http_request("GET", "/no-such-route", ""),
                _ => http_request("GET", &format!("/{}", "a".repeat(9_000)), ""),
            },
        ),
        OpKind::Reload => (Kind::Reload, http_request("POST", "/reload", "")),
        OpKind::Snapshot if (index / SNAPSHOT_EVERY) % 2 == 1 => (
            Kind::Batch,
            http_request("GET", &format!("/batch/{BATCH_THREADS}"), ""),
        ),
        OpKind::Snapshot => (Kind::Statz, http_request("GET", "/statz?json=1", "")),
    };
    let (code, body, split, received) = match http_exchange(addr, &request) {
        Ok(exchange) => exchange,
        Err(e) => return (op_kind, Err(format!("{}: transport: {e}", kind.class()))),
    };
    let body = String::from_utf8_lossy(&body);
    let doc = json::parse(&body);
    let verdict = match op_kind {
        Kind::Refusal => {
            let class = doc
                .as_ref()
                .ok()
                .and_then(|d| d.get("error"))
                .and_then(Json::as_str);
            if (400..500).contains(&code) && class.is_some() {
                Ok(())
            } else {
                Err(format!(
                    "{} not refused with a typed error (status {code})",
                    kind.class()
                ))
            }
        }
        Kind::Reload => match (&doc, code) {
            (Ok(d), 200) if d.get("rules").is_some() => Ok(()),
            _ => Err(format!("reload answered status {code}")),
        },
        Kind::Statz => match (&doc, code) {
            (Ok(_), 200) => Ok(()),
            _ => Err(format!("statz answered status {code}")),
        },
        Kind::Batch => match (&doc, code) {
            (Ok(Json::Obj(members)), 200) => check_batch(members, ctx),
            _ => Err(format!("batch answered status {code}")),
        },
        Kind::Generate => unreachable!("generate is judged by the caller"),
    };
    (op_kind, verdict.map(|()| (split, received)))
}

/// Every batch member must equal its reference, and every case must be
/// there.
fn check_batch(members: &[(String, Json)], ctx: &Ctx) -> Result<(), String> {
    if members.len() != ctx.refs.len() {
        return Err(format!(
            "batch returned {} of {} cases",
            members.len(),
            ctx.refs.len()
        ));
    }
    for (key, value) in members {
        let id: u8 = key
            .strip_prefix("uc")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("batch member `{key}`"))?;
        if !value.as_str().is_some_and(|s| ctx.matches(id, s)) {
            return Err(format!("batch member {key} differs from the reference"));
        }
    }
    Ok(())
}

/// What one client thread saw in one phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    generated: u64,
    first_error: Option<String>,
    /// Open loop: (op index, how late it was sent).
    late_ns: Vec<(u64, u64)>,
    /// Traced open loop: well-formed split and send-to-done time.
    splits: Vec<(Split, u64)>,
    /// Traced open loop: send-to-done time per other kind.
    kind_ns: Vec<(Kind, u64)>,
}

impl Tally {
    fn record(&mut self, done: &Done) {
        self.attempted += 1;
        match &done.error {
            None if done.kind == Kind::Generate => self.generated += 1,
            None => {}
            Some(e) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| e.clone());
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.generated += other.generated;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.late_ns.extend(other.late_ns);
        self.splits.extend(other.splits);
        self.kind_ns.extend(other.kind_ns);
    }
}

/// Open loop: the `i`-th op of `ops` is due at `start + i / RATE` and
/// goes to client `i % CLIENTS`. Returns the tally and, per well-formed op, its index
/// and its latency from due time.
fn open_loop(addr: SocketAddr, ops: &[Op], ctx: &Ctx, trace: bool) -> (Tally, Vec<(u64, u64)>) {
    let start = Instant::now() + Duration::from_millis(10);
    let base = ops.first().map_or(0, |op| op.index);
    let results: Vec<(Tally, Vec<(u64, u64)>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                s.spawn(move || {
                    let mine: Vec<&Op> = ops.iter().skip(t).step_by(CLIENTS).collect();
                    let mut latency = Vec::with_capacity(mine.len());
                    let mut tally = Tally::default();
                    tally.late_ns.reserve(mine.len());
                    for op in mine {
                        let due = start + Duration::from_secs_f64((op.index - base) as f64 / RATE);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let done = exec(addr, op, ctx);
                        let finished = done.received;
                        tally
                            .late_ns
                            .push((op.index, ns(sent.saturating_duration_since(due))));
                        tally.record(&done);
                        if done.kind == Kind::Generate {
                            latency.push((
                                op.index,
                                if done.error.is_none() {
                                    ns(finished.saturating_duration_since(due))
                                } else {
                                    FAILED_NS
                                },
                            ));
                        }
                        if trace && done.error.is_none() {
                            let took = ns(finished.saturating_duration_since(sent));
                            if done.kind == Kind::Generate {
                                tally.splits.push((done.split, took));
                            } else {
                                tally.kind_ns.push((done.kind, took));
                            }
                        }
                    }
                    (tally, latency)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut latency = Vec::with_capacity(ops.len());
    for (t, samples) in results {
        tally.merge(t);
        latency.extend(samples);
    }
    (tally, latency)
}

/// Closed loop: each client sends its next operation as soon as the
/// previous one is answered, cycling through `ops` from position
/// `next`, for `seconds`. Returns the tally and the verified generates
/// completed in each whole block.
fn closed_loop(
    addr: SocketAddr,
    ops: &[Op],
    next: &AtomicUsize,
    seconds: f64,
    ctx: &Ctx,
) -> (Tally, Vec<u64>) {
    let blocks = stats::blocks_in(seconds);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_thread: Vec<(Tally, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut generated = vec![0u64; blocks];
                    while Instant::now() < deadline {
                        let op = &ops[next.fetch_add(1, Ordering::Relaxed) % ops.len()];
                        let done = exec(addr, op, ctx);
                        tally.record(&done);
                        let block = (done.received - start).as_secs_f64() / BLOCK.as_secs_f64();
                        if done.kind == Kind::Generate && done.error.is_none() {
                            if let Some(count) = generated.get_mut(block as usize) {
                                *count += 1;
                            }
                        }
                    }
                    (tally, generated)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut generated = vec![0u64; blocks];
    for (t, counts) in per_thread {
        tally.merge(t);
        for (sum, c) in generated.iter_mut().zip(counts) {
            *sum += c;
        }
    }
    (tally, generated)
}

/// Lateness of the open-loop generator over its segments, and whether
/// the phase is valid: lateness that rises quarter over quarter through
/// a segment to well past the send interval means the rate is above
/// capacity and the latencies are void.
fn lateness(label: &str, segments: &[Vec<(u64, u64)>]) -> Result<f64, String> {
    let interval_ms = 1e3 * CLIENTS as f64 / RATE;
    let ms = |&(_, ns): &(u64, u64)| ns as f64 / 1e6;
    let mut all = Vec::new();
    let mut worst_rise = 0.0f64;
    for segment in segments {
        let mut ordered = segment.clone();
        ordered.sort_unstable();
        let quarter = ordered.len().div_ceil(4).max(1);
        let medians: Vec<f64> = ordered
            .chunks(quarter)
            .map(|c| median_of(c.iter().map(ms)))
            .collect();
        if medians.windows(2).all(|w| w[1] >= w[0]) {
            let first = medians.first().copied().unwrap_or(0.0);
            worst_rise = worst_rise.max(medians.last().copied().unwrap_or(0.0) - first);
        }
        all.extend(ordered.iter().map(ms));
    }
    let p99 = stats::quantile(&mut all, 0.99).unwrap_or(0.0);
    let valid = worst_rise <= 2.0 * interval_ms;
    println!(
        "{label} open loop at {RATE} ops/s in {} segments: send lateness p99 {p99:.3} ms, \
         largest rise through a segment {worst_rise:.3} ms: {}",
        segments.len(),
        if valid { "valid" } else { "INVALID" }
    );
    if valid {
        Ok(p99)
    } else {
        Err(format!(
            "{label} open-loop phase invalid: send lateness grew by {worst_rise:.1} ms, \
             so {RATE} ops/s is above capacity and its latencies are void"
        ))
    }
}

/// The mixed workload's hostile rule bodies: every `rule` reproducer
/// in the repository's fuzz corpus.
fn corpus() -> Result<Vec<String>, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("corpus {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    let mut sources = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Ok(FuzzInput::Rule(source)) = FuzzInput::decode(&text) {
            sources.push(source);
        }
    }
    Ok(sources)
}

/// One phase pair (open then closed) against a freshly booted daemon.
struct Phases {
    open: Tally,
    /// (op index, latency from due time) per well-formed open-loop op.
    latency: Vec<(u64, u64)>,
    late_p99_ms: f64,
    closed: Tally,
    /// Verified generates per whole block of the closed loop.
    closed_blocks: Vec<u64>,
    /// ORDER-cache counters right before and right after the phases.
    cache: (CacheStats, CacheStats),
}

impl Phases {
    fn attempted(&self) -> u64 {
        self.open.attempted + self.closed.attempted
    }

    fn failed(&self) -> u64 {
        self.open.failed + self.closed.failed
    }

    fn report_errors(&self, label: &str) {
        for e in [&self.open.first_error, &self.closed.first_error]
            .into_iter()
            .flatten()
        {
            eprintln!("{label}: operation failed: {e}");
        }
    }

    /// p50 is the median over one-second blocks of due time of each
    /// block's median. A block holds too few samples for a p99, so p99
    /// is the median over consecutive windows of [`P99_WINDOW`] samples
    /// (the last window takes the remainder) of each window's p99.
    fn metrics(&self, label: &str, out: &mut Vec<Metric>) {
        let mut ordered = self.latency.clone();
        ordered.sort_unstable();
        let mut by_block: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for &(index, ns) in &ordered {
            let block = (index as f64 / RATE / BLOCK.as_secs_f64()) as u64;
            by_block.entry(block).or_default().push(millis(ns));
        }
        let p50 = median_of(by_block.values_mut().map(|ms| stats::median(ms)));
        let n = ordered.len();
        let windows = (n / P99_WINDOW).max(1);
        let window_p99s: Vec<f64> = (0..windows)
            .map(|w| {
                let end = if w + 1 == windows {
                    n
                } else {
                    (w + 1) * P99_WINDOW
                };
                let mut ms: Vec<f64> = ordered[w * P99_WINDOW..end]
                    .iter()
                    .map(|&(_, ns)| millis(ns))
                    .collect();
                stats::quantile(&mut ms, 0.99).unwrap_or(f64::INFINITY)
            })
            .collect();
        let p99 = median_of(window_p99s.iter().copied());
        let rate = median_of(
            self.closed_blocks
                .iter()
                .map(|&c| c as f64 / BLOCK.as_secs_f64()),
        );
        println!(
            "{label} window p99s (ms): {:.3?}; closed-loop generates per block: {:?}",
            window_p99s, self.closed_blocks
        );
        println!(
            "{label} open loop: {n} generate latencies in {} blocks and {windows} p99 windows; \
             closed loop: {} generates of {} ops, median {rate:.1}/s over {} blocks",
            by_block.len(),
            self.closed.generated,
            self.closed.attempted,
            self.closed_blocks.len()
        );
        out.push(metric("latency_p50_ms", p50, "ms"));
        out.push(metric("latency_p99_ms", p99, "ms"));
        out.push(metric("throughput_per_s", rate, "ops/s"));
    }
}

struct Schedules {
    open: Vec<Op>,
    closed: Vec<Op>,
}

fn schedules(ctx: &Ctx, seconds: f64) -> Result<Schedules, String> {
    let corpus = corpus()?;
    let spec = |seed: u64, budget: u64| WorkloadSpec {
        seed,
        budget,
        hostile_per_mille: 250,
        reload_every: RELOAD_EVERY,
        snapshot_every: SNAPSHOT_EVERY,
        zipf_s: 1.0,
        use_case_ids: catalogue_ids(),
        corpus: corpus.clone(),
    };
    let open_ops = (RATE * seconds * OPEN_SHARE).ceil() as u64;
    Ok(Schedules {
        open: schedule("open", &spec(ctx.seed, open_ops)),
        closed: schedule("closed", &spec(ctx.seed.wrapping_add(1), CLOSED_OPS)),
    })
}

/// Boots a daemon, runs both phases with `CLIENTS` clients, and hands
/// the still-running daemon back with what was measured.
fn run_phases(
    ctx: &Ctx,
    plan: &Schedules,
    seconds: f64,
    trace: bool,
    label: &str,
) -> Result<(ServerHandle, Phases), String> {
    let (daemon, boot_s) = boot_daemon(&ctx.refs[&FIRST_UC])?;
    println!("{label}: daemon in this process booted in {boot_s:.6} s");
    let addr = address_of(&daemon)?;
    // Warm-up outside the timed phases: every case once per client.
    // Outputs are checked in the timed phases, where a mismatch counts
    // as a failed operation.
    for _ in 0..CLIENTS {
        for id in ctx.cases.keys() {
            generate(addr, *id)?;
        }
    }
    let cache_before = daemon.state().engine().cache_stats();
    let cycles = ((seconds / CYCLE_SECONDS).floor() as usize).max(1);
    let closed_seconds = seconds / cycles as f64 * (1.0 - OPEN_SHARE);
    let (mut open, mut latency, mut late) = (Tally::default(), Vec::new(), Vec::new());
    let (mut closed, mut closed_blocks) = (Tally::default(), Vec::new());
    let next_closed = AtomicUsize::new(0);
    for segment in plan.open.chunks(plan.open.len().div_ceil(cycles).max(1)) {
        let spinners = idle::Spinners::start()?;
        let (mut tally, samples) = open_loop(addr, segment, ctx, trace);
        drop(spinners);
        late.push(std::mem::take(&mut tally.late_ns));
        open.merge(tally);
        latency.extend(samples);
        let (tally, blocks) = closed_loop(addr, &plan.closed, &next_closed, closed_seconds, ctx);
        closed.merge(tally);
        closed_blocks.extend(blocks);
    }
    let late_p99_ms = lateness(label, &late)?;
    let cache_after = daemon.state().engine().cache_stats();
    Ok((
        daemon,
        Phases {
            open,
            latency,
            late_p99_ms,
            closed,
            closed_blocks,
            cache: (cache_before, cache_after),
        },
    ))
}

/// The served per-layer metrics, printed as 0 on `engine_warm`, which
/// runs no daemon: a traced result line carries every per-layer name
/// on every workload, and per-layer metrics are reported, not gated.
pub fn absent_serve_metrics(out: &mut Vec<Metric>) {
    for (name, unit) in SERVE_METRICS {
        out.push(metric(name, 0.0, unit));
    }
}

const SERVE_METRICS: [(&str, &str); 12] = [
    ("serve.handle_p50_us", "us"),
    ("serve.handle_p99_us", "us"),
    ("serve.coverage_ratio", "ratio"),
    ("serve.connect_us", "us"),
    ("serve.first_byte_us", "us"),
    ("serve.transfer_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.reload_ms", "ms"),
    ("serve.batch_ms", "ms"),
    ("serve.refusal_us", "us"),
    ("serve.alloc_bytes_per_request", "bytes"),
    ("loadgen.late_p99_ms", "ms"),
];

/// The daemon's own view (`/statz?json=1`, `/tracez`) and the client
/// split of the traced phases.
fn serve_metrics(addr: SocketAddr, phases: &Phases, out: &mut Vec<Metric>) -> Result<(), String> {
    let statz = diagnostics(addr, "/statz?json=1")?;
    let tracez = diagnostics(addr, "/tracez")?;
    let Json::Obj(histograms) = &statz else {
        return Err("statz is not an object".to_owned());
    };
    println!("daemon /statz: key count p50_us p99_us");
    let mut handle = None;
    for (key, doc) in histograms {
        let hist = Histogram::from_json(doc).map_err(|e| format!("statz {key}: {e}"))?;
        let (p50, p99) = (
            hist.quantile(0.5) as f64 / 1e3,
            hist.quantile(0.99) as f64 / 1e3,
        );
        println!("  {key} {} {p50:.1} {p99:.1}", hist.count());
        if key == "http.generate.ok" {
            handle = Some((p50, p99));
        }
    }
    let (handle_p50, handle_p99) = handle.ok_or("statz has no generate histogram")?;
    let us = |ns: u64| ns as f64 / 1e3;
    let splits = &phases.open.splits;
    let client_p50_us = median_of(splits.iter().map(|&(_, took)| us(took)));
    let kind = |k: Kind, scale: f64| {
        median_of(
            phases
                .open
                .kind_ns
                .iter()
                .filter(|(kind, _)| *kind == k)
                .map(|&(_, ns)| ns as f64 / scale),
        )
    };
    let allocs = tracez
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("tracez has no records")?
        .iter()
        .filter(|r| {
            r.get("endpoint").and_then(Json::as_str) == Some("generate")
                && r.get("class").and_then(Json::as_str) == Some("ok")
        })
        .filter_map(|r| r.get("alloc_bytes").and_then(Json::as_f64));
    let values = [
        handle_p50,
        handle_p99,
        if client_p50_us > 0.0 {
            handle_p50 / client_p50_us
        } else {
            0.0
        },
        median_of(splits.iter().map(|(s, _)| us(s.connect_ns))),
        median_of(splits.iter().map(|(s, _)| us(s.first_byte_ns))),
        median_of(splits.iter().map(|(s, _)| us(s.transfer_ns))),
        median_of(splits.iter().map(|(s, _)| s.bytes as f64)),
        kind(Kind::Reload, 1e6),
        kind(Kind::Batch, 1e6),
        kind(Kind::Refusal, 1e3),
        median_of(allocs),
        phases.late_p99_ms,
    ];
    for ((name, unit), value) in SERVE_METRICS.iter().zip(values) {
        out.push(metric(name, value, unit));
    }
    println!(
        "client split medians: {} generates, send-to-done {client_p50_us:.1} us",
        splits.len()
    );
    Ok(())
}

/// Replays the open-loop schedule's first well-formed operations on an
/// engine booted like the daemon's, with `PhaseTimings` attached.
fn phase_rerun(
    ctx: &Ctx,
    daemon_engine: &GenEngine,
    ops: &[Op],
) -> Result<Vec<layers::CallTrace>, String> {
    let pack = rules::open(PackSource::Embedded).map_err(|e| format!("phase re-run open: {e}"))?;
    let timings = Arc::new(ThreadTimings::new(1));
    let engine = GenEngine::builder()
        .rules(pack.rules)
        .type_table(jca_type_table())
        .threads(WORKERS)
        .order_cache(daemon_engine.order_cache().clone())
        .observer(timings.clone())
        .build()
        .map_err(|e| format!("phase re-run build: {e}"))?;
    let slot = timings.bind(0);
    let mut traces = Vec::new();
    for op in ops {
        let OpKind::WellFormed { uc } = op.kind else {
            continue;
        };
        let (trace, result) = layers::traced_generate(&engine, slot, ctx.case(uc));
        let generated = result?;
        if !ctx.matches(uc, &generated.java_source) {
            return Err(format!(
                "phase re-run uc{uc:02}: output differs from the reference"
            ));
        }
        traces.push(trace);
        if traces.len() == PHASE_RERUN_OPS {
            break;
        }
    }
    Ok(traces)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plan = schedules(ctx, seconds)?;
    let boots = boot::run_children(ctx, "boot", BOOTS)?;
    let (setup_s, ..) = boot::medians(&boots);
    println!(
        "set-up: median of {} boots {setup_s:.6} s, each in ms: {:?}",
        boots.len(),
        boot::listing(&boots)
    );

    let (daemon, plain) = run_phases(ctx, &plan, seconds, false, "untraced")?;
    daemon.shutdown();
    plain.report_errors("untraced");
    let mut report = Report {
        attempted: plain.attempted(),
        failed: plain.failed(),
        ..Report::default()
    };
    report.e2e.push(metric("setup_s", setup_s, "s"));
    plain.metrics("untraced", &mut report.e2e);
    if !ctx.trace {
        report
            .e2e
            .push(metric("peak_rss_mb", stats::peak_rss_mb()?, "MB"));
        return Ok(report);
    }

    // The traced half, on a second daemon so its /statz and /tracez
    // cover only traced traffic. No observer can be attached to the
    // daemon, whose own telemetry runs in both halves: the traced half
    // differs only in the clients keeping their per-request splits.
    let probes = boot::run_children(ctx, "probe", PROBES)?;
    let (_, open_ms, build_ms, warm_ms) = boot::medians(&probes);
    let (daemon, traced) = run_phases(ctx, &plan, seconds, true, "traced")?;
    traced.report_errors("traced");
    report.attempted += traced.attempted();
    report.failed += traced.failed();
    let mut traced_e2e = Vec::new();
    traced.metrics("traced", &mut traced_e2e);
    for m in &traced_e2e {
        println!("traced {} {} {}", m.name, m.value, m.unit);
    }
    let engine = daemon.state().engine();
    let layers = &mut report.layers;
    layers.push(metric("rules.open_ms", open_ms, "ms"));
    layers.push(metric("core.engine_build_ms", build_ms, "ms"));
    layers.push(metric("core.warm_ms", warm_ms, "ms"));
    let traces = phase_rerun(ctx, &engine, &plan.open)?;
    layers::phase_metrics(&traces, layers);
    let allocs = layers::alloc_pass(&engine, ctx)?;
    layers::alloc_metrics(&allocs, layers);
    layers::javamodel_pass(&engine, ctx, layers)?;
    layers::cache_hit_ratio(traced.cache.0, traced.cache.1, layers);
    let served = address_of(&daemon).and_then(|addr| serve_metrics(addr, &traced, layers));
    drop(engine);
    daemon.shutdown();
    served?;
    // A control here, not tracing overhead: both halves run the same
    // daemon, so the ratio shows the run-to-run noise of the served p50.
    layers.push(metric(
        "tracing.overhead_ratio",
        traced_e2e[0].value / report.e2e[1].value,
        "ratio",
    ));
    report
        .e2e
        .push(metric("peak_rss_mb", stats::peak_rss_mb()?, "MB"));
    Ok(report)
}
