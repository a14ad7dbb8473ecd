//! Run context, collected metrics, and the printed result.

use std::fmt::Write as _;
use std::path::PathBuf;

/// What one invocation runs, and where.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub server_bin: PathBuf,
    /// Scratch files of this run (graph file, data dirs); emptied first.
    pub work: PathBuf,
    /// Where the report and the spans of this run are written.
    pub out: PathBuf,
}

/// One named number with its unit and sample count.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            n,
        }
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Run {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The gated end-to-end metrics (`BENCHMARK.json`'s `end_to_end`).
    pub e2e: Vec<Metric>,
    /// The workload's own user-facing metrics, printed in the report.
    pub named: Vec<Metric>,
    /// Per-layer metrics of a traced run.
    pub layers: Vec<Metric>,
    pub properties: Vec<(String, String)>,
    pub phases: Vec<(String, u64, u64, u64)>,
}

impl Run {
    pub fn e2e(&mut self, metric: Metric) {
        self.e2e.push(metric);
    }
    pub fn named(&mut self, metric: Metric) {
        self.named.push(metric);
    }
    pub fn layer(&mut self, metric: Metric) {
        self.layers.push(metric);
    }
    pub fn property(&mut self, name: &str, value: String) {
        self.properties.push((name.to_owned(), value));
    }
    pub fn phase(&mut self, name: &str, sent: u64, ok: u64, failed: u64) {
        self.phases.push((name.to_owned(), sent, ok, failed));
    }
}

/// The per-layer metrics of a traced run's result line — `BENCHMARK.json`'s
/// `per_layer`. A layer the workload does not run reports 0 (n = 0 in the
/// report). Layers only the workloads outside `BENCHMARK.json` run —
/// `cold-eval`'s cache evictions, `write-mix`'s `delta`, `wal` and
/// `snapshot` — appear in their reports only.
pub const LAYER_METRICS: [(&str, &str); 26] = [
    ("net.residual_p50_us", "us"),
    ("net.shed", "count"),
    ("proto.request_decode_p50_ns", "ns"),
    ("proto.response_encode_p50_ns", "ns"),
    ("proto.response_decode_p50_ns", "ns"),
    ("proto.reply_bytes", "B"),
    ("automata.canonicalize_p50_us", "us"),
    ("automata.canonicalize_p99_us", "us"),
    ("cache.probe_p50_ns", "ns"),
    ("cache.insert_p50_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("plan.plan_p50_us", "us"),
    ("plan.regret", "ratio"),
    ("eval.eval_p50_us", "us"),
    ("eval.eval_p99_us", "us"),
    ("eval.evaluations", "count"),
    ("strategy.propose_p50_ms", "ms"),
    ("strategy.propose_p99_ms", "ms"),
    ("strategy.k_mean", "k"),
    ("learner.learn_p50_ms", "ms"),
    ("learner.learn_p99_ms", "ms"),
    ("learner.abstain_share", "ratio"),
    ("learner.generalized_states", "states"),
    ("graph.build_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Environment recorded with every result.
pub struct Env {
    pub nproc: usize,
    pub commit: String,
    pub rustc: String,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn metrics_json(metrics: &[Metric], with_n: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let n = if with_n {
                format!(", \"n\": {}", m.n)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

impl Run {
    /// The metrics of the result line: the gated end-to-end set, or for
    /// a traced run every per-layer metric (idle layers as 0, n = 0).
    pub fn result_metrics(&self, trace: bool) -> Vec<Metric> {
        if !trace {
            return self.e2e.clone();
        }
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                self.layers
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| Metric::new(name, 0.0, unit, 0))
            })
            .collect()
    }

    /// Human-readable report lines, then the full JSON report (written to
    /// `ctx.out`), then the one-line result callers parse.
    pub fn print(&self, ctx: &Ctx, env: &Env) {
        let mut lines = Vec::new();
        lines.push(format!(
            "# rpqbench {} seed={} seconds={} trace={} nproc={} commit={} rustc={}",
            ctx.workload,
            ctx.seed,
            ctx.seconds,
            u8::from(ctx.trace),
            env.nproc,
            env.commit,
            env.rustc
        ));
        for (name, value) in &self.properties {
            lines.push(format!("# property {name}: {value}"));
        }
        for (name, sent, ok, failed) in &self.phases {
            lines.push(format!(
                "# phase {name}: sent {sent}, succeeded {ok}, failed {failed}"
            ));
        }
        for (kind, metrics) in [
            ("e2e", &self.e2e),
            ("metric", &self.named),
            ("layer", &self.layers),
        ] {
            for m in metrics.iter() {
                lines.push(format!(
                    "# {kind} {} = {} {} (n={})",
                    m.name,
                    json_num(m.value),
                    m.unit,
                    m.n
                ));
            }
        }
        for line in &lines {
            println!("{line}");
        }
        let metrics = self.result_metrics(ctx.trace);
        let result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&metrics, false)
        );
        let full = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"commit\": {}, \"rustc\": {}, \
             \"properties\": {{{}}}, \"phases\": [{}], \"end_to_end\": {}, \"workload_metrics\": {}, \"per_layer\": {}, \"result\": {}}}\n",
            json_str(&ctx.workload),
            ctx.seed,
            ctx.seconds,
            ctx.trace,
            env.nproc,
            json_str(&env.commit),
            json_str(&env.rustc),
            self.properties
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                .collect::<Vec<_>>()
                .join(", "),
            self.phases
                .iter()
                .map(|(n, s, o, f)| format!(
                    "{{\"phase\": {}, \"sent\": {s}, \"succeeded\": {o}, \"failed\": {f}}}",
                    json_str(n)
                ))
                .collect::<Vec<_>>()
                .join(", "),
            metrics_json(&self.e2e, true),
            metrics_json(&self.named, true),
            metrics_json(&self.layers, true),
            result
        );
        let path = ctx.out.join(format!(
            "{}-seed{}-trace{}.json",
            ctx.workload,
            ctx.seed,
            u8::from(ctx.trace)
        ));
        if let Err(err) = std::fs::write(&path, full) {
            eprintln!("rpqbench: cannot write {}: {err}", path.display());
        }
        println!("{result}");
    }
}
