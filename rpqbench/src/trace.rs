//! The traced run's per-layer measurements.
//!
//! No tracing lives inside the program: spans are recorded here, around
//! calls into each layer's public functions. For the TCP workloads the
//! window's request stream is replayed in-process, in send order, through
//! the layers in the order the server calls them —
//! `Request::decode` → `Regex::parse` + `CanonicalQuery::new` →
//! `ResultCache::get` → `plan_canonical` → `eval_*_planned` →
//! `ResultCache::insert` → `Response::encode`/`decode`, and for deltas
//! `Persistence::log_batch` (`Wal::append`) → `GraphDb::with_delta` /
//! `compact` → `ResultCache::invalidate_labels` → checkpoint.

use crate::report::{Ctx, Metric, Run};
use crate::server::{Op, Outcome, Record, Source};
use crate::stats::{geomean, Samples};
use crate::tcp::Tcp;
use pathlearn_automata::{BitSet, CanonicalQuery, Regex, Symbol};
use pathlearn_graph::io::parse_graph;
use pathlearn_graph::plan::{
    eval_binary_planned, eval_monadic_planned, plan_canonical, plan_query_forced,
};
use pathlearn_graph::{GraphDb, NodeId, PlanScratch, QueryPlan, Strategy};
use pathlearn_server::wal::SNAPSHOT_FILE;
use pathlearn_server::{
    CacheConfig, CacheKey, Persistence, QueryRef, Request, Response, ResultCache, WireKind,
    WireServed, NO_DEADLINE_MS,
};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One span: a named interval of one request, under an optional parent.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

/// Spans kept in memory and written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished top-level span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: u64,
    ) -> u32 {
        self.push(name, start, end, None, request)
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u64,
    ) -> u32 {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span named `name`, in `scale` units per second.
    pub fn durations(&self, name: &str, scale: f64) -> Samples {
        Samples(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 * scale / 1e9)
                .collect(),
        )
    }

    pub fn durations_ms(&self, name: &str) -> Samples {
        self.durations(name, 1e3)
    }

    /// Writes the spans as tab-separated lines next to the run's report.
    pub fn write(&self, dir: &Path, workload: &str, seed: u64) {
        let path = dir.join(format!("{workload}-seed{seed}-spans.tsv"));
        let write = || -> std::io::Result<()> {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
            for (id, s) in self.spans.iter().enumerate() {
                let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
                writeln!(
                    out,
                    "{id}\t{}\t{}\t{}\t{parent}\t{:#x}",
                    s.name, s.start_ns, s.end_ns, s.request
                )?;
            }
            out.flush()
        };
        if let Err(err) = write() {
            eprintln!("rpqbench: cannot write {}: {err}", path.display());
        }
    }
}

/// Times `f` as a child span of `parent` when tracing.
fn span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: u32,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => {
            let start = Instant::now();
            let out = f();
            t.push(name, start, Instant::now(), Some(parent), request);
            out
        }
        None => f(),
    }
}

/// The server's state, rebuilt in-process: the graph as the server
/// parsed it, a default-budget result cache, and (on `write-mix`) a
/// data dir of its own.
struct Replay {
    graph: GraphDb,
    cache: ResultCache,
    persistence: Option<Persistence>,
    scratch: PlanScratch,
    misses: Vec<CacheKey>,
    reply_bytes: Samples,
}

/// Checkpoint threshold of `serve --data-dir` at its default.
const CHECKPOINT_EVERY: usize = 1024;
/// The traced replay stops after this much replay time.
const REPLAY_BUDGET: Duration = Duration::from_secs(8);
/// Requests replayed untraced and traced to measure tracing overhead.
const OVERHEAD_PREFIX: usize = 2000;
/// Misses sampled for `plan.regret`.
const REGRET_SAMPLES: usize = 64;

impl Replay {
    fn new(graph: GraphDb, data_dir: Option<&Path>) -> Result<Replay, String> {
        let persistence = match data_dir {
            Some(dir) => {
                let _ = std::fs::remove_dir_all(dir);
                let seed = graph.clone();
                Some(
                    Persistence::recover(dir, CHECKPOINT_EVERY, move || Ok(seed))
                        .map_err(|e| format!("replay data dir: {e}"))?
                        .persistence,
                )
            }
            None => None,
        };
        Ok(Replay {
            graph,
            cache: ResultCache::new(CacheConfig::default()),
            persistence,
            scratch: PlanScratch::new(),
            misses: Vec::new(),
            reply_bytes: Samples::default(),
        })
    }

    /// Handles one request as the server would. Returns the root span.
    fn step(
        &mut self,
        mut tracer: Option<&mut Tracer>,
        record: &Record,
        stream: &dyn Source,
    ) -> Option<u32> {
        let request = match &record.op {
            Op::Read { query, kind } => Request::Query {
                request_id: record.id,
                kind: *kind,
                deadline_ms: NO_DEADLINE_MS,
                query: QueryRef::Text(stream.text(*query).to_owned()),
            },
            Op::Delta { delta } => {
                let (add, remove) = stream.delta(*delta);
                Request::Delta {
                    request_id: record.id,
                    add,
                    remove,
                }
            }
        };
        let payload = request.encode();
        let id = record.id;
        let start = Instant::now();
        let root = tracer
            .as_deref_mut()
            .map(|t| t.push("request", start, start, None, id));
        let parent = root.unwrap_or(0);
        let decoded = span(&mut tracer, "proto.request_decode", parent, id, || {
            Request::decode(&payload).expect("replayed frame decodes")
        });
        let reply = match decoded {
            Request::Query {
                kind,
                query: QueryRef::Text(text),
                ..
            } => {
                let graph = &self.graph;
                let canonical = span(&mut tracer, "automata.canonicalize", parent, id, || {
                    let regex =
                        Regex::parse(&text, graph.alphabet()).expect("replayed query parses");
                    CanonicalQuery::new(&regex.to_dfa(graph.alphabet().len()))
                });
                let key = match kind {
                    WireKind::Monadic => CacheKey::monadic(canonical),
                    WireKind::Binary(source) => CacheKey::binary(canonical, source as NodeId),
                };
                let cache = &mut self.cache;
                let hit = span(&mut tracer, "cache.probe", parent, id, || cache.get(&key));
                let (result, served, eval_ns) = match hit {
                    Some(result) => (result, WireServed::Hit, 0),
                    None => {
                        let plan = span(&mut tracer, "plan.plan", parent, id, || {
                            plan_canonical(&key.query, graph)
                        });
                        let scratch = &mut self.scratch;
                        let eval_start = Instant::now();
                        let bits = span(&mut tracer, "eval.eval", parent, id, || match kind {
                            WireKind::Monadic => eval_monadic_planned(scratch, &plan, graph),
                            WireKind::Binary(source) => {
                                eval_binary_planned(scratch, &plan, graph, source)
                            }
                        });
                        let eval_ns = eval_start.elapsed().as_nanos() as u64;
                        let result = Arc::new(bits);
                        span(&mut tracer, "cache.insert", parent, id, || {
                            cache.insert(key.clone(), result.clone(), eval_ns)
                        });
                        self.misses.push(key.clone());
                        (result, WireServed::EvaluatedSequential, eval_ns)
                    }
                };
                let fingerprint = key.query.fingerprint();
                let states = key.query.num_states() as u32;
                span(&mut tracer, "proto.response_encode", parent, id, || {
                    Response::Result {
                        request_id: id,
                        served,
                        fingerprint,
                        canonical_states: states,
                        eval_ns,
                        bits: (*result).clone(),
                    }
                    .encode()
                })
            }
            Request::Delta { add, remove, .. } => {
                let resolve =
                    |edges: &[(String, String, String)]| -> Vec<(NodeId, Symbol, NodeId)> {
                        edges
                            .iter()
                            .map(|(s, l, d)| {
                                (
                                    self.graph.node_id(s).expect("delta source exists"),
                                    self.graph.alphabet().symbol(l).expect("delta label exists"),
                                    self.graph.node_id(d).expect("delta target exists"),
                                )
                            })
                            .collect()
                    };
                let (add, remove) = (resolve(&add), resolve(&remove));
                let persistence = self
                    .persistence
                    .as_mut()
                    .expect("write-mix replay data dir");
                span(&mut tracer, "wal.append", parent, id, || {
                    persistence
                        .log_batch(&add, &remove)
                        .expect("replay WAL append")
                });
                let threshold = (self.graph.num_edges() / 8).max(1024);
                let graph = &self.graph;
                let mut patched = span(&mut tracer, "delta.apply", parent, id, || {
                    graph
                        .with_delta(&add, &remove)
                        .expect("replay delta applies")
                });
                let compacted = patched.delta_edges() > threshold;
                if compacted {
                    patched = span(&mut tracer, "delta.compact", parent, id, || {
                        patched.compact()
                    });
                }
                self.graph = patched;
                let mut touched: Vec<Symbol> =
                    add.iter().chain(&remove).map(|&(_, s, _)| s).collect();
                touched.sort_unstable_by_key(|s| s.index());
                touched.dedup();
                let cache = &mut self.cache;
                let invalidated = span(&mut tracer, "cache.invalidate", parent, id, || {
                    cache.invalidate_labels(&touched)
                });
                if persistence.wal_records() > CHECKPOINT_EVERY {
                    let graph = &self.graph;
                    let image = span(&mut tracer, "delta.compact", parent, id, || graph.compact());
                    span(&mut tracer, "wal.checkpoint", parent, id, || {
                        persistence.checkpoint(&image).expect("replay checkpoint")
                    });
                }
                let delta_edges = self.graph.delta_edges() as u32;
                span(&mut tracer, "proto.response_encode", parent, id, || {
                    Response::DeltaApplied {
                        request_id: id,
                        invalidated: invalidated as u32,
                        compacted,
                        delta_edges,
                    }
                    .encode()
                })
            }
            other => unreachable!("the benchmark sends no {other:?}"),
        };
        span(&mut tracer, "proto.response_decode", parent, id, || {
            Response::decode(&reply).expect("replayed reply decodes")
        });
        if let (Some(t), Some(root)) = (tracer, root) {
            let end = t.ns(Instant::now());
            t.spans[root as usize].end_ns = end;
        }
        self.reply_bytes.push(reply.len() as f64);
        root
    }
}

/// `plan.regret` for one missed key: the planned strategy's evaluation
/// time over the fastest forced strategy's (best of two runs each).
fn regret(graph: &GraphDb, key: &CacheKey) -> f64 {
    let mut scratch = PlanScratch::new();
    let mut time = |plan: &QueryPlan| {
        (0..2)
            .map(|_| {
                let start = Instant::now();
                let bits: BitSet = match key.kind {
                    pathlearn_server::QueryKind::Monadic => {
                        eval_monadic_planned(&mut scratch, plan, graph)
                    }
                    pathlearn_server::QueryKind::Binary(source) => {
                        eval_binary_planned(&mut scratch, plan, graph, source)
                    }
                };
                std::hint::black_box(bits);
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let chosen = time(&plan_canonical(&key.query, graph));
    let best = [
        Strategy::Forward,
        Strategy::Backward,
        Strategy::Bidirectional,
    ]
    .iter()
    .map(|&s| time(&plan_query_forced(key.query.dfa(), graph, s)))
    .fold(chosen, f64::min);
    chosen / best.max(1e-9)
}

/// The traced replay of a TCP workload: `sequence` is every request the
/// server answered, in send order, with the source that resolves it and
/// whether it was in the timed window. Adds the per-layer metrics to
/// `run`; returns the number of requests replayed.
pub fn replay_tcp(
    ctx: &Ctx,
    workload: Tcp,
    graph_file: &Path,
    sequence: &[(&Record, &dyn Source, bool)],
    data_dir: Option<&Path>,
    run: &mut Run,
) -> Result<usize, String> {
    let text = std::fs::read_to_string(graph_file).map_err(|e| format!("read graph file: {e}"))?;
    let served = parse_graph(&text).map_err(|e| format!("parse graph file: {e}"))?;
    drop(text);
    let replayed: Vec<&(&Record, &dyn Source, bool)> = sequence
        .iter()
        .filter(|(r, _, _)| r.outcome == Outcome::Ok)
        .collect();
    let durable = workload == Tcp::WriteMix;

    // Tracing overhead: the same prefix untraced, then traced, each from
    // a fresh server state.
    let prefix = &replayed[..replayed.len().min(OVERHEAD_PREFIX)];
    let plain_dir = ctx.work.join("replay-plain");
    let mut plain = Replay::new(served.clone(), durable.then_some(plain_dir.as_path()))?;
    let start = Instant::now();
    for (r, source, _) in prefix {
        plain.step(None, r, *source);
    }
    let plain_s = start.elapsed().as_secs_f64();
    drop(plain);

    let mut tracer = Tracer::new();
    let traced_dir = ctx.work.join("replay-traced");
    let mut state = Replay::new(served, durable.then_some(traced_dir.as_path()))?;
    let start = Instant::now();
    let mut traced_prefix_s = 0.0;
    let mut roots = Vec::with_capacity(replayed.len());
    let mut count = 0;
    for (i, (r, source, in_window)) in replayed.iter().enumerate() {
        if i == prefix.len() {
            traced_prefix_s = start.elapsed().as_secs_f64();
        }
        if start.elapsed() > REPLAY_BUDGET {
            break;
        }
        let root = state.step(Some(&mut tracer), r, *source);
        count += 1;
        if *in_window {
            roots.push((root, *r));
        }
    }
    if traced_prefix_s == 0.0 {
        traced_prefix_s = start.elapsed().as_secs_f64();
    }

    // Residual: client-observed latency minus the sum of the request's
    // spans, over reads.
    let mut child_sum = vec![0u64; tracer.spans.len()];
    for s in &tracer.spans {
        if let Some(p) = s.parent {
            child_sum[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let residual = Samples(
        roots
            .iter()
            .filter(|(_, r)| matches!(r.op, Op::Read { .. }))
            .filter_map(|(root, r)| {
                root.map(|root| {
                    (r.latency().as_nanos() as f64 - child_sum[root as usize] as f64) / 1e3
                })
            })
            .collect(),
    );
    let us = |name: &str| tracer.durations(name, 1e6);
    let ns = |name: &str| tracer.durations(name, 1e9);
    let ms = |name: &str| tracer.durations(name, 1e3);
    run.layer(Metric::new(
        "net.residual_p50_us",
        residual.pct(50.0),
        "us",
        residual.len(),
    ));
    for (metric, samples, unit) in [
        (
            "proto.request_decode_p50_ns",
            ns("proto.request_decode"),
            "ns",
        ),
        (
            "proto.response_encode_p50_ns",
            ns("proto.response_encode"),
            "ns",
        ),
        (
            "proto.response_decode_p50_ns",
            ns("proto.response_decode"),
            "ns",
        ),
        ("cache.probe_p50_ns", ns("cache.probe"), "ns"),
        ("cache.insert_p50_ns", ns("cache.insert"), "ns"),
        ("plan.plan_p50_us", us("plan.plan"), "us"),
        ("eval.eval_p50_us", us("eval.eval"), "us"),
        ("delta.apply_p50_us", us("delta.apply"), "us"),
        ("delta.compact_p50_ms", ms("delta.compact"), "ms"),
        ("wal.append_p50_us", us("wal.append"), "us"),
        ("wal.checkpoint_p50_ms", ms("wal.checkpoint"), "ms"),
    ] {
        run.layer(Metric::new(metric, samples.pct(50.0), unit, samples.len()));
    }
    let canonical = us("automata.canonicalize");
    run.layer(Metric::new(
        "automata.canonicalize_p50_us",
        canonical.pct(50.0),
        "us",
        canonical.len(),
    ));
    run.layer(Metric::new(
        "automata.canonicalize_p99_us",
        canonical.pct(99.0),
        "us",
        canonical.len(),
    ));
    let eval = us("eval.eval");
    run.layer(Metric::new(
        "eval.eval_p99_us",
        eval.pct(99.0),
        "us",
        eval.len(),
    ));
    run.layer(Metric::new(
        "eval.evaluations",
        eval.len() as f64,
        "count",
        eval.len(),
    ));
    let appends = us("wal.append");
    run.layer(Metric::new(
        "wal.append_p99_us",
        appends.pct(99.0),
        "us",
        appends.len(),
    ));
    let compacts = ms("delta.compact");
    run.layer(Metric::new(
        "delta.compactions",
        compacts.len() as f64,
        "count",
        compacts.len(),
    ));
    let bytes = &state.reply_bytes;
    run.layer(Metric::new(
        "proto.reply_bytes",
        bytes.pct(50.0),
        "B",
        bytes.len(),
    ));
    let stats = state.cache.stats();
    let lookups = stats.hits + stats.misses;
    run.layer(Metric::new(
        "cache.hit_ratio",
        stats.hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    ));
    run.layer(Metric::new(
        "cache.evictions",
        stats.evictions as f64,
        "count",
        1,
    ));
    run.layer(Metric::new(
        "cache.invalidated",
        stats.invalidated as f64,
        "count",
        1,
    ));

    let step = (state.misses.len() / REGRET_SAMPLES).max(1);
    let ratios: Vec<f64> = state
        .misses
        .iter()
        .step_by(step)
        .take(REGRET_SAMPLES)
        .map(|key| regret(&state.graph, key))
        .collect();
    run.layer(Metric::new(
        "plan.regret",
        geomean(&ratios),
        "ratio",
        ratios.len(),
    ));
    run.layer(Metric::new(
        "trace.overhead_pct",
        100.0 * (traced_prefix_s / plain_s.max(1e-9) - 1.0),
        "%",
        prefix.len(),
    ));
    run.layer(Metric::new("trace.spans", tracer.len() as f64, "count", 1));
    drop(state);

    if let Some(dir) = data_dir {
        // Recovery of the server's own data dir, on a copy.
        let copy = ctx.work.join("recover-copy");
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).map_err(|e| format!("copy data dir: {e}"))?;
        for entry in std::fs::read_dir(dir).map_err(|e| format!("read data dir: {e}"))? {
            let entry = entry.map_err(|e| format!("read data dir: {e}"))?;
            std::fs::copy(entry.path(), copy.join(entry.file_name()))
                .map_err(|e| format!("copy data dir: {e}"))?;
        }
        let snapshot = copy.join(SNAPSHOT_FILE);
        let start = Instant::now();
        let loaded =
            GraphDb::load_snapshot(&snapshot).map_err(|e| format!("load snapshot: {e}"))?;
        let load_ms = start.elapsed().as_secs_f64() * 1e3;
        drop(loaded);
        let start = Instant::now();
        let recovered = Persistence::recover(&copy, CHECKPOINT_EVERY, || Err("no snapshot".into()))
            .map_err(|e| format!("recover data dir: {e}"))?;
        let recover_ms = start.elapsed().as_secs_f64() * 1e3;
        run.layer(Metric::new("snapshot.load_ms", load_ms, "ms", 1));
        run.layer(Metric::new(
            "wal.replay_ms",
            (recover_ms - load_ms).max(0.0),
            "ms",
            recovered.report.wal_records_replayed,
        ));
        run.layer(Metric::new(
            "snapshot.bytes",
            std::fs::metadata(&snapshot).map_or(0.0, |m| m.len() as f64),
            "B",
            1,
        ));
    }
    tracer.write(&ctx.out, &ctx.workload, ctx.seed);
    Ok(count)
}
