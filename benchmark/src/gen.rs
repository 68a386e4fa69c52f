//! Seeded input generators: the daemon's request stream and the update
//! stream. Everything is a pure function of the seed and the generated
//! KG, so the same `--seed` replays byte-identical traffic.

use kgtosa_datagen::NcTask;
use kgtosa_kg::{DeltaOp, KnowledgeGraph};

/// Adds and removes per update (the issue's 4 + 4 shape).
pub const OPS_PER_KIND: usize = 4;
/// Nodes per `/infer` request.
pub const INFER_NODES: usize = 64;

/// SplitMix64: small, seedable, and good enough to shuffle indices.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One extraction the daemon keeps warm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmKey {
    /// `"task"` (a datagen NC task) or `"target_class"` (every node of a class).
    pub field: &'static str,
    pub target: String,
    pub pattern: &'static str,
    /// Whether an update whose triples all have `Paper` subjects makes the
    /// cached entry stale (PV keys) or leaves it migratable (the others).
    pub paper_scoped: bool,
}

impl WarmKey {
    pub fn body(&self) -> String {
        format!(
            "{{\"{}\":\"{}\",\"pattern\":\"{}\",\"deadline_ms\":30000}}",
            self.field, self.target, self.pattern
        )
    }

    pub fn label(&self) -> String {
        format!("{}/{}", self.target, self.pattern)
    }
}

/// The six warm keys: three patterns of the paper task plus three
/// off-task entries that every `Paper`-scoped update must leave alone.
pub fn warm_keys(task: &NcTask) -> Vec<WarmKey> {
    let key = |field, target: &str, pattern, paper_scoped| WarmKey {
        field,
        target: target.to_string(),
        pattern,
        paper_scoped,
    };
    vec![
        key("task", &task.name, "d1h1", true),
        key("task", &task.name, "d2h1", true),
        key("task", &task.name, "d1h2", true),
        key("target_class", "Author", "d1h1", false),
        key("target_class", "Patent", "d1h1", false),
        key("target_class", "Patent", "d2h1", false),
    ]
}

/// A request as the client sends it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub path: &'static str,
    pub body: String,
    /// Index into the warm keys for `/extract`; `None` for `/infer`.
    pub key: Option<usize>,
}

/// The `i`-th request of closed-loop client `client`: even steps are a
/// warm `/extract` (keys round-robin, offset per client so the two
/// clients do not march in lockstep), odd steps an `/infer` over
/// [`INFER_NODES`] seeded test nodes.
pub fn read_request(
    seed: u64,
    client: usize,
    i: usize,
    keys: &[WarmKey],
    task: &NcTask,
) -> Request {
    if i.is_multiple_of(2) {
        let key = (i / 2 + client * (keys.len() / 2)) % keys.len();
        return Request {
            path: "/extract",
            body: keys[key].body(),
            key: Some(key),
        };
    }
    let mut rng = SplitMix::new(seed ^ ((client as u64) << 32) ^ i as u64);
    let nodes: Vec<String> = (0..INFER_NODES)
        .map(|_| task.test[rng.below(task.test.len())].0.to_string())
        .collect();
    Request {
        path: "/infer",
        body: format!(
            "{{\"checkpoint\":\"RGCN\",\"task\":\"{}\",\"nodes\":[{}],\"deadline_ms\":30000}}",
            task.name,
            nodes.join(",")
        ),
        key: None,
    }
}

/// Seeded update stream over a base KG. Every op has a `Paper` subject:
/// adds mint a new paper citing a base paper, removes retract a distinct
/// base triple leaving a paper — so the paper task's cache entries go
/// stale on every update while the `Author`/`Patent` entries never do,
/// and no op can ever fail (each base triple is retracted at most once).
pub struct DeltaStream {
    seed: u64,
    papers: Vec<String>,
    removable: Vec<[String; 3]>,
    produced: usize,
}

impl DeltaStream {
    pub fn new(kg: &KnowledgeGraph, seed: u64) -> Self {
        let paper = kg.find_class("Paper").expect("MAG has a Paper class");
        let papers = kg.nodes_of_class(paper);
        let mut removable: Vec<[String; 3]> = kg
            .triples()
            .iter()
            .filter(|t| kg.class_of(t.s) == paper)
            .map(|t| {
                [
                    kg.node_term(t.s).to_string(),
                    kg.relation_term(t.p).to_string(),
                    kg.node_term(t.o).to_string(),
                ]
            })
            .collect();
        let mut rng = SplitMix::new(seed);
        for i in (1..removable.len()).rev() {
            removable.swap(i, rng.below(i + 1));
        }
        DeltaStream {
            seed,
            papers: papers
                .iter()
                .map(|&v| kg.node_term(v).to_string())
                .collect(),
            removable,
            produced: 0,
        }
    }

    /// The next update's ops, or `None` once the base KG has no distinct
    /// paper triple left to retract.
    pub fn next_ops(&mut self) -> Option<Vec<DeltaOp>> {
        let n = self.produced;
        let removes = self
            .removable
            .get(n * OPS_PER_KIND..(n + 1) * OPS_PER_KIND)?;
        let mut rng = SplitMix::new(self.seed ^ (n as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut ops = Vec::with_capacity(2 * OPS_PER_KIND);
        for i in 0..OPS_PER_KIND {
            ops.push(DeltaOp::Add {
                s: format!("BenchPaper_{}_{n}_{i}", self.seed),
                s_class: "Paper".into(),
                p: "cites".into(),
                o: self.papers[rng.below(self.papers.len())].clone(),
                o_class: "Paper".into(),
            });
        }
        for [s, p, o] in removes {
            ops.push(DeltaOp::Remove {
                s: s.clone(),
                p: p.clone(),
                o: o.clone(),
            });
        }
        self.produced += 1;
        Some(ops)
    }
}

/// The `POST /admin/update` body for `ops`. Terms are generator-made
/// identifiers (`[A-Za-z0-9_]`), so no JSON escaping is needed.
pub fn update_body(ops: &[DeltaOp]) -> String {
    let items: Vec<String> = ops
        .iter()
        .map(|op| match op {
            DeltaOp::Add { s, s_class, p, o, o_class } => format!(
                "{{\"op\":\"add\",\"s\":\"{s}\",\"s_class\":\"{s_class}\",\"p\":\"{p}\",\"o\":\"{o}\",\"o_class\":\"{o_class}\"}}"
            ),
            DeltaOp::Remove { s, p, o } => {
                format!("{{\"op\":\"remove\",\"s\":\"{s}\",\"p\":\"{p}\",\"o\":\"{o}\"}}")
            }
        })
        .collect();
    format!("{{\"ops\":[{}]}}", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(seed: u64, d: &kgtosa_datagen::Dataset) -> Vec<Request> {
        let keys = warm_keys(&d.nc[0]);
        (0..2)
            .flat_map(|c| (0..40).map(move |i| (c, i)))
            .map(|(c, i)| read_request(seed, c, i, &keys, &d.nc[0]))
            .collect()
    }

    fn updates(seed: u64, d: &kgtosa_datagen::Dataset) -> Vec<String> {
        let mut stream = DeltaStream::new(&d.gen.kg, seed);
        (0..20)
            .map(|_| update_body(&stream.next_ops().expect("stream long enough")))
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let d = kgtosa_datagen::mag(0.05, 7);
        assert_eq!(requests(7, &d), requests(7, &d));
        assert_ne!(requests(7, &d), requests(8, &d));
        assert_eq!(updates(7, &d), updates(7, &d));
        assert_ne!(updates(7, &d), updates(8, &d));
    }

    #[test]
    fn requests_alternate_and_cover_every_key() {
        let d = kgtosa_datagen::mag(0.05, 7);
        let reqs = requests(7, &d);
        assert!(reqs.iter().step_by(2).all(|r| r.path == "/extract"));
        assert!(reqs.iter().skip(1).step_by(2).all(|r| r.path == "/infer"));
        let mut seen: Vec<usize> = reqs.iter().filter_map(|r| r.key).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn update_stream_applies_cleanly_and_is_paper_scoped() {
        let d = kgtosa_datagen::mag(0.05, 7);
        let kg = &d.gen.kg;
        let mut stream = DeltaStream::new(kg, 7);
        let mut ops = Vec::new();
        for _ in 0..30 {
            let next = stream.next_ops().expect("stream long enough");
            assert_eq!(next.len(), 2 * OPS_PER_KIND);
            ops.extend(next);
        }
        let fp = kgtosa_kg::fingerprint(kg);
        let delta = kgtosa_kg::KgDelta {
            base_fingerprint: fp,
            ops,
        };
        let app = kgtosa_kg::apply_delta(kg, fp, kgtosa_kg::MultisetFingerprint::of(kg), &delta)
            .expect("every generated op applies");
        let paper = kg.find_class("Paper").unwrap();
        assert!(app
            .added
            .iter()
            .chain(&app.removed)
            .all(|t| app.kg.class_of(t.s) == paper));
        assert_eq!(app.new_nodes.len(), 30 * OPS_PER_KIND);
    }
}
