//! The served side: `pathlearn serve --listen` as a child process, and
//! the closed-loop TCP clients that drive it.

use pathlearn_automata::BitSet;
use pathlearn_server::{Client, ErrorCode, QueryRef, Request, Response, WireKind, NO_DEADLINE_MS};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Client read/write timeout: a reply slower than this is a failed request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a server may take to print its listening address.
const START_TIMEOUT: Duration = Duration::from_secs(90);

/// Process ids of live server children, so the watchdog can kill them
/// before it ends the run.
pub static LIVE_CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// A running `pathlearn serve --listen 127.0.0.1:0` child. Dropping it
/// kills the process and reaps it.
pub struct ServerProc {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts the server with its flags at their defaults (plus
    /// `--data-dir` when given) and waits for its listening address.
    pub fn spawn(bin: &Path, graph_file: &Path, data_dir: Option<&Path>) -> io::Result<ServerProc> {
        let mut command = Command::new(bin);
        command
            .arg("serve")
            .arg(graph_file)
            .arg("--listen")
            .arg("127.0.0.1:0");
        if let Some(dir) = data_dir {
            command.arg("--data-dir").arg(dir);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        LIVE_CHILDREN
            .lock()
            .expect("child registry poisoned")
            .push(child.id());
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // Drains stdout for the child's whole life so it can never block
        // on a full pipe; ends at EOF, when the child exits.
        let reader = thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.trim().to_owned());
                }
            }
        });
        let mut proc = ServerProc {
            child,
            stdout: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let addr = rx.recv_timeout(START_TIMEOUT).map_err(|_| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                "server printed no listening address",
            )
        })?;
        proc.addr = addr.parse().map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad address {addr}"))
        })?;
        Ok(proc)
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// CPU seconds the server has used, all threads.
    pub fn cpu_s(&self) -> f64 {
        cpu_s(&format!("/proc/{}/stat", self.child.id()))
    }

    /// `kill -9` and reap.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let pid = self.child.id();
        LIVE_CHILDREN
            .lock()
            .expect("child registry poisoned")
            .retain(|&p| p != pid);
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of a `/proc/<pid>/stat` file (0 if
/// unreadable). The kernel charges time the hypervisor stole from the
/// machine to `steal`, not to the process, so this cost does not move
/// with load from other tenants the way wall-clock time does.
pub fn cpu_s(stat_path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(stat_path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// The machine's (busy, steal) CPU ticks from `/proc/stat`.
pub fn machine_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let get = |i: usize| fields.get(i).copied().unwrap_or(0.0);
    (fields.iter().sum::<f64>() - get(3) - get(4), get(7))
}

/// An order-sensitive 64-bit digest of a result bitset (FNV-1a over its
/// capacity and blocks).
pub fn digest(bits: &BitSet) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(bits.capacity() as u64);
    bits.as_blocks().iter().for_each(|&w| mix(w));
    hash
}

/// What one request asks for.
#[derive(Clone, Debug)]
pub enum Op {
    /// A text query: `query` indexes the run's query texts.
    Read { query: u32, kind: WireKind },
    /// An edge delta: indexes the connection's deltas.
    Delta { delta: u32 },
}

/// How a request ended. Everything but `Ok` is a failed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Shed,
    Deadline,
    Draining,
    Error(ErrorCode),
    Eof,
    Timeout,
    Io,
    /// A reply of the wrong type for the request.
    Unexpected,
}

impl Outcome {
    pub fn name(self) -> String {
        match self {
            Outcome::Error(code) => format!("error:{code:?}"),
            other => format!("{other:?}").to_lowercase(),
        }
    }
}

/// One request as the client saw it. Times are since the phase start.
#[derive(Clone, Debug)]
pub struct Record {
    pub conn: u8,
    pub id: u64,
    pub op: Op,
    pub send: Duration,
    pub recv: Duration,
    pub outcome: Outcome,
    /// Result digest for an `Ok` read.
    pub digest: u64,
}

impl Record {
    pub fn latency(&self) -> Duration {
        self.recv - self.send
    }
}

/// What a connection sends next. `texts` resolves `Op::Read` queries and
/// `deltas` resolves `Op::Delta` batches as wire edges.
pub trait Source: Send {
    fn next(&mut self) -> Op;
    fn text(&self, query: u32) -> &str;
    fn delta(
        &self,
        delta: u32,
    ) -> (
        Vec<pathlearn_server::proto::WireEdge>,
        Vec<pathlearn_server::proto::WireEdge>,
    );
}

/// Request ids: connection in the high byte, sequence below.
fn request_id(conn: usize, seq: u64) -> u64 {
    ((conn as u64) << 56) | seq
}

fn connect(addr: SocketAddr) -> io::Result<Client> {
    let client = Client::connect(addr)?;
    client.set_timeouts(Some(REQUEST_TIMEOUT), Some(REQUEST_TIMEOUT))?;
    Ok(client)
}

fn classify_io(err: &io::Error) -> Outcome {
    match err.kind() {
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => Outcome::Eof,
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Outcome::Timeout,
        _ => Outcome::Io,
    }
}

/// Sends one request and waits for its reply. A request that failed at
/// the transport leaves `client` as `None` (the next request reconnects);
/// it is never retried.
fn exchange(
    client: &mut Option<Client>,
    addr: SocketAddr,
    source: &dyn Source,
    op: &Op,
    id: u64,
) -> (Outcome, u64) {
    let request = match op {
        Op::Read { query, kind } => Request::Query {
            request_id: id,
            kind: *kind,
            deadline_ms: NO_DEADLINE_MS,
            query: QueryRef::Text(source.text(*query).to_owned()),
        },
        Op::Delta { delta } => {
            let (add, remove) = source.delta(*delta);
            Request::Delta {
                request_id: id,
                add,
                remove,
            }
        }
    };
    if client.is_none() {
        match connect(addr) {
            Ok(fresh) => *client = Some(fresh),
            Err(err) => return (classify_io(&err), 0),
        }
    }
    let reply = client.as_mut().expect("connected").roundtrip(&request);
    let outcome = match (&reply, op) {
        (Ok(Response::Result { bits, .. }), Op::Read { .. }) => return (Outcome::Ok, digest(bits)),
        (Ok(Response::DeltaApplied { .. }), Op::Delta { .. }) => Outcome::Ok,
        (Ok(Response::Shed { .. }), _) => Outcome::Shed,
        (Ok(Response::Deadline { .. }), _) => Outcome::Deadline,
        (Ok(Response::Draining { .. }), _) => Outcome::Draining,
        (Ok(Response::Error { code, .. }), _) => Outcome::Error(*code),
        (Ok(_), _) => Outcome::Unexpected,
        (Err(err), _) => classify_io(err),
    };
    if !matches!(
        outcome,
        Outcome::Ok | Outcome::Shed | Outcome::Deadline | Outcome::Draining
    ) {
        // The stream may be mid-frame or closed: start over next time.
        *client = None;
    }
    (outcome, 0)
}

/// Sends `ops` one after another over one connection (warm-up and
/// post-restart checks). Times are since the call.
pub fn run_sequence(addr: SocketAddr, source: &dyn Source, ops: &[Op], conn: usize) -> Vec<Record> {
    let start = Instant::now();
    let mut client = None;
    ops.iter()
        .enumerate()
        .map(|(seq, op)| {
            let id = request_id(conn, seq as u64 + 1);
            let send = start.elapsed();
            let (outcome, digest) = exchange(&mut client, addr, source, op, id);
            Record {
                conn: conn as u8,
                id,
                op: op.clone(),
                send,
                recv: start.elapsed(),
                outcome,
                digest,
            }
        })
        .collect()
}

/// The timed window: one closed-loop thread per source, each with one
/// connection and one outstanding request, sending until `window` has
/// passed. Returns every record (all connections, times since the common
/// start) and the window's real length (until the last reply).
pub fn closed_loop<S: Source + 'static>(
    addr: SocketAddr,
    sources: Vec<S>,
    window: Duration,
) -> (Vec<Record>, Vec<S>, Duration) {
    let conns = sources.len();
    let barrier = Arc::new(Barrier::new(conns + 1));
    let start = Arc::new(Mutex::new(None::<Instant>));
    let handles: Vec<_> = sources
        .into_iter()
        .enumerate()
        .map(|(conn, mut source)| {
            let barrier = barrier.clone();
            let start = start.clone();
            thread::spawn(move || {
                // Connect before the window opens.
                let mut client = connect(addr).ok();
                barrier.wait();
                let t0 = start.lock().expect("start poisoned").expect("start set");
                let mut records = Vec::new();
                let mut seq = 0u64;
                while t0.elapsed() < window {
                    seq += 1;
                    let op = source.next();
                    let id = request_id(conn, seq);
                    let send = t0.elapsed();
                    let (outcome, digest) = exchange(&mut client, addr, &source, &op, id);
                    records.push(Record {
                        conn: conn as u8,
                        id,
                        op,
                        send,
                        recv: t0.elapsed(),
                        outcome,
                        digest,
                    });
                }
                (records, source)
            })
        })
        .collect();
    *start.lock().expect("start poisoned") = Some(Instant::now());
    barrier.wait();
    let mut records = Vec::new();
    let mut sources = Vec::new();
    for handle in handles {
        let (mut r, s) = handle.join().expect("client thread panicked");
        records.append(&mut r);
        sources.push(s);
    }
    let elapsed = records.iter().map(|r| r.recv).max().unwrap_or_default();
    records.sort_by_key(|r| r.send);
    (records, sources, elapsed)
}

/// The server's counters over a fresh connection (outside timed windows).
pub fn stats(addr: SocketAddr) -> io::Result<Vec<(String, u64)>> {
    connect(addr)?.stats()
}

/// Counter `name` in a STATS reply (0 when absent).
pub fn counter(stats: &[(String, u64)], name: &str) -> u64 {
    stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

/// Total bytes of the files directly in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
