//! Seeded inputs: the served graph, its text file, and every request.
//!
//! Everything here is a function of `--seed`; the server only ever sees
//! the graph file written by [`write_graph_file`] and the frames built
//! from these requests.

use pathlearn_automata::{Alphabet, CanonicalQuery, Regex, Symbol};
use pathlearn_datagen::scale_free::{scale_free_graph, ScaleFreeConfig};
use pathlearn_datagen::workloads::{bio_workload, syn_workload};
use pathlearn_datagen::zipf::Zipf;
use pathlearn_graph::{GraphDb, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;

/// Nodes of the served paper-synthetic graph (3·|V| edges, 30 Zipf labels).
pub const NODES: usize = 100_000;
/// Distinct query languages of the hot read set.
pub const HOT_LANGUAGES: usize = 150;
/// Text spellings per hot language (label order and concatenation
/// syntax differ; the canonical key does not).
pub const SPELLINGS_PER_LANGUAGE: usize = 2;
/// One request in this many, per connection, is a `DELTA` on `write-mix`.
pub const DELTA_EVERY: usize = 20;
/// Edges added and edges removed by one delta.
pub const DELTA_EDGES: usize = 2;

/// A stream-independent RNG: one per (seed, purpose, connection).
pub fn rng(seed: u64, purpose: u64, conn: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (purpose << 32) ^ conn.wrapping_add(1),
    )
}

/// The served graph.
pub fn graph(seed: u64) -> GraphDb {
    scale_free_graph(&ScaleFreeConfig::paper_synthetic(NODES, seed))
}

/// Writes `graph` in the text format with every node declared first, in
/// id order, so the server's parse assigns the generator's node ids —
/// binary sources and reference answers then agree on ids without a
/// name map.
pub fn write_graph_file(graph: &GraphDb, path: &Path) -> std::io::Result<()> {
    let mut out = String::with_capacity(graph.num_edges() * 16 + graph.num_nodes() * 12);
    for node in graph.nodes() {
        let _ = writeln!(out, "node {}", graph.node_name(node));
    }
    for (src, sym, dst) in graph.edges() {
        let _ = writeln!(
            out,
            "{} {} {}",
            graph.node_name(src),
            graph.alphabet().name(sym),
            graph.node_name(dst)
        );
    }
    std::fs::write(path, out)
}

/// Renders `regex` as query text. `sep` joins concatenated factors
/// (`·` or a space); with `shuffle`, the members of each disjunction
/// are permuted — same language, different spelling.
pub fn render(
    regex: &Regex,
    alphabet: &Alphabet,
    sep: &str,
    shuffle: Option<&mut StdRng>,
) -> String {
    let mut out = String::new();
    let mut shuffle = shuffle;
    write_regex(&mut out, regex, alphabet, sep, &mut shuffle);
    out
}

fn write_regex(
    out: &mut String,
    regex: &Regex,
    alphabet: &Alphabet,
    sep: &str,
    shuffle: &mut Option<&mut StdRng>,
) {
    let needs_parens = |r: &Regex, inside_star: bool| match r {
        Regex::Alt(_) => true,
        Regex::Concat(_) => inside_star,
        _ => false,
    };
    match regex {
        Regex::Empty | Regex::Epsilon => unreachable!("workload queries are ε-free"),
        Regex::Symbol(sym) => out.push_str(alphabet.name(*sym)),
        Regex::Concat(parts) => {
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                let parens = needs_parens(part, false);
                if parens {
                    out.push('(');
                }
                write_regex(out, part, alphabet, sep, shuffle);
                if parens {
                    out.push(')');
                }
            }
        }
        Regex::Alt(parts) => {
            let mut order: Vec<&Regex> = parts.iter().collect();
            if let Some(rng) = shuffle.as_deref_mut() {
                order.shuffle(rng);
            }
            for (i, part) in order.into_iter().enumerate() {
                if i > 0 {
                    out.push('+');
                }
                write_regex(out, part, alphabet, sep, shuffle);
            }
        }
        Regex::Star(inner) => {
            let parens = needs_parens(inner, true);
            if parens {
                out.push('(');
            }
            write_regex(out, inner, alphabet, sep, shuffle);
            if parens {
                out.push(')');
            }
            out.push('*');
        }
    }
}

/// The symbol set of a label class: a disjunction of symbols, or one symbol.
fn class_of(regex: &Regex) -> Option<Vec<Symbol>> {
    match regex {
        Regex::Symbol(sym) => Some(vec![*sym]),
        Regex::Alt(parts) => parts
            .iter()
            .map(|p| match p {
                Regex::Symbol(sym) => Some(*sym),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

fn collect_classes(regex: &Regex, classes: &mut Vec<Vec<Symbol>>) {
    if let Some(mut class) = class_of(regex) {
        class.sort_unstable_by_key(|s| s.index());
        if !classes.contains(&class) {
            classes.push(class);
        }
        return;
    }
    match regex {
        Regex::Concat(parts) | Regex::Alt(parts) => {
            parts.iter().for_each(|p| collect_classes(p, classes))
        }
        Regex::Star(inner) => collect_classes(inner, classes),
        _ => {}
    }
}

/// Replaces every occurrence of class `from` by `to`.
fn replace_class(regex: &Regex, from: &[Symbol], to: &[Symbol]) -> Regex {
    if let Some(mut class) = class_of(regex) {
        class.sort_unstable_by_key(|s| s.index());
        if class == from {
            return Regex::symbol_class(to);
        }
        return regex.clone();
    }
    match regex {
        Regex::Concat(parts) => {
            Regex::concat(parts.iter().map(|p| replace_class(p, from, to)).collect())
        }
        Regex::Alt(parts) => Regex::alt(parts.iter().map(|p| replace_class(p, from, to)).collect()),
        Regex::Star(inner) => Regex::star(replace_class(inner, from, to)),
        other => other.clone(),
    }
}

/// One hot query spelling.
#[derive(Clone, Debug)]
pub struct Spelling {
    pub text: String,
    /// Index of its language in the hot set.
    pub language: usize,
}

/// The hot read set: [`HOT_LANGUAGES`] languages — the calibrated paper
/// mix (bio1–bio6, syn1–syn3) and seeded one- or two-class perturbations
/// of it — in [`SPELLINGS_PER_LANGUAGE`] spellings each. Zipf(1.0) ranks
/// follow that order: both spellings of bio1 are the hottest, then bio2,
/// …, syn3, then the perturbations — so every seed's head is the paper mix.
pub struct HotSet {
    pub spellings: Vec<Spelling>,
    /// The languages' regexes, for reference evaluation.
    pub languages: Vec<Regex>,
    pub zipf: Zipf,
}

impl HotSet {
    pub fn new(graph: &GraphDb, seed: u64) -> HotSet {
        let alphabet = graph.alphabet();
        let sigma = alphabet.len();
        let base: Vec<Regex> = bio_workload(graph)
            .queries
            .into_iter()
            .chain(syn_workload(graph).queries)
            .map(|q| q.regex)
            .collect();
        let mut rng = rng(seed, 1, 0);
        let mut seen = HashSet::new();
        let mut languages = Vec::new();
        let mut attempts = 0usize;
        while languages.len() < HOT_LANGUAGES {
            attempts += 1;
            assert!(
                attempts < HOT_LANGUAGES * 100,
                "cannot draw distinct hot languages"
            );
            let mut regex = base[languages.len() % base.len()].clone();
            if languages.len() >= base.len() {
                for _ in 0..rng.gen_range(1..3usize) {
                    let mut classes = Vec::new();
                    collect_classes(&regex, &mut classes);
                    let from = classes[rng.gen_range(0..classes.len())].clone();
                    let mut to = from.clone();
                    if to.len() > 1 && rng.gen_bool(0.5) {
                        to.remove(rng.gen_range(0..to.len()));
                    } else {
                        let sym = Symbol::from_index(rng.gen_range(0..sigma));
                        if !to.contains(&sym) {
                            to.push(sym);
                        }
                    }
                    regex = replace_class(&regex, &from, &to);
                }
            }
            let key = CanonicalQuery::new(&regex.to_dfa(sigma)).fingerprint();
            if seen.insert(key) {
                languages.push(regex);
            }
        }
        let mut spellings = Vec::new();
        for (language, regex) in languages.iter().enumerate() {
            spellings.push(Spelling {
                text: render(regex, alphabet, "·", None),
                language,
            });
            for _ in 1..SPELLINGS_PER_LANGUAGE {
                spellings.push(Spelling {
                    text: render(regex, alphabet, " ", Some(&mut rng)),
                    language,
                });
            }
        }
        let zipf = Zipf::new(spellings.len(), 1.0);
        HotSet {
            spellings,
            languages,
            zipf,
        }
    }

    /// Draws one spelling index.
    pub fn draw(&self, rng: &mut StdRng) -> usize {
        self.zipf.sample(rng)
    }
}

/// Structural templates of the paper mix (Table 1 and §5.1's syn queries);
/// upper-case letters are label classes, lower-case single labels.
const TEMPLATES: [&str; 7] = [
    "b·A·A*",
    "C·C*·a·A·A*",
    "C·E",
    "I·I·I*",
    "A·A·A*·I·I·I*",
    "A·A·A*",
    "A·B*·C",
];

/// A fresh instance of a random paper template with random label classes
/// (1–3 labels each; single-label slots get one label).
pub fn cold_instance(rng: &mut StdRng, alphabet: &Alphabet) -> String {
    let template = TEMPLATES[rng.gen_range(0..TEMPLATES.len())];
    let sigma = alphabet.len();
    let mut classes: Vec<(char, Regex)> = Vec::new();
    let mut parts = Vec::new();
    for token in template.split('·') {
        let (name, starred) = match token.strip_suffix('*') {
            Some(name) => (name, true),
            None => (token, false),
        };
        let letter = name.chars().next().expect("template token");
        let class = match classes.iter().find(|(l, _)| *l == letter) {
            Some((_, class)) => class.clone(),
            None => {
                let size = if letter.is_lowercase() {
                    1
                } else {
                    rng.gen_range(1..4usize)
                };
                let mut labels: Vec<Symbol> = Vec::new();
                while labels.len() < size {
                    let sym = Symbol::from_index(rng.gen_range(0..sigma));
                    if !labels.contains(&sym) {
                        labels.push(sym);
                    }
                }
                let class = Regex::symbol_class(&labels);
                classes.push((letter, class.clone()));
                class
            }
        };
        parts.push(if starred { Regex::star(class) } else { class });
    }
    render(&Regex::concat(parts), alphabet, "·", None)
}

/// A named edge as sent in a `DELTA` frame, with its ids for the
/// reference graph.
#[derive(Clone, Debug)]
pub struct Edge {
    pub ids: (NodeId, Symbol, NodeId),
    pub names: (String, String, String),
}

impl Edge {
    fn new(graph: &GraphDb, (src, sym, dst): (NodeId, Symbol, NodeId)) -> Edge {
        Edge {
            ids: (src, sym, dst),
            names: (
                graph.node_name(src).to_owned(),
                graph.alphabet().name(sym).to_owned(),
                graph.node_name(dst).to_owned(),
            ),
        }
    }
}

/// One edge delta: `(G ∖ remove) ∪ add`.
#[derive(Clone, Debug)]
pub struct Delta {
    pub add: Vec<Edge>,
    pub remove: Vec<Edge>,
}

/// Per-connection delta source. Connection `c` removes only base edges
/// with index ≡ c (mod connections) and adds only absent edges whose
/// source id ≡ c (mod connections), each at most once, so no two deltas
/// of a run touch the same edge: the graph after any set of acknowledged
/// deltas is the same in every application order.
pub struct DeltaSource {
    conn: usize,
    conns: usize,
    removable: Vec<(NodeId, Symbol, NodeId)>,
    added: HashSet<(NodeId, Symbol, NodeId)>,
    rng: StdRng,
}

impl DeltaSource {
    pub fn new(graph: &GraphDb, seed: u64, conn: usize, conns: usize) -> DeltaSource {
        let mut rng = rng(seed, 3, conn as u64);
        let mut removable: Vec<_> = graph
            .edges()
            .enumerate()
            .filter(|(i, _)| i % conns == conn)
            .map(|(_, e)| e)
            .collect();
        removable.shuffle(&mut rng);
        DeltaSource {
            conn,
            conns,
            removable,
            added: HashSet::new(),
            rng,
        }
    }

    pub fn next(&mut self, graph: &GraphDb) -> Delta {
        let n = graph.num_nodes();
        let sigma = graph.alphabet().len();
        let remove = (0..DELTA_EDGES)
            .map(|_| {
                let edge = self.removable.pop().expect("removable edges left");
                Edge::new(graph, edge)
            })
            .collect();
        let mut add = Vec::with_capacity(DELTA_EDGES);
        while add.len() < DELTA_EDGES {
            let src = (self.rng.gen_range(0..n / self.conns) * self.conns + self.conn) as NodeId;
            let sym = Symbol::from_index(self.rng.gen_range(0..sigma));
            let dst = self.rng.gen_range(0..n) as NodeId;
            let present = graph
                .successors(src, sym)
                .iter()
                .any(|&(_, target)| target == dst);
            if !present && self.added.insert((src, sym, dst)) {
                add.push(Edge::new(graph, (src, sym, dst)));
            }
        }
        Delta { add, remove }
    }
}
