//! Influence-based sampling (IBS, Algorithm 2 of the paper).
//!
//! For every target vertex, an approximate PPR computes influence scores
//! over its neighbourhood; the top-`k` influencers per target are kept; the
//! targets are grouped into partitions of `bs` for batch efficiency, and the
//! union of partitions induces `KG'`. Per-target PPR runs are independent
//! and parallelized across worker threads (the paper parallelizes lines 2-4
//! with multi-threading).

use kgtosa_kg::{HeteroGraph, NodeSet, Vid};
use kgtosa_par::Pool;

use crate::ppr::{seed_chunk, select_top_k, PprConfig, PprScratch};

/// Configuration of IBS (the paper's defaults: `bs = 20000`, `k = 16`,
/// `α = 0.25`, `ε = 2e-4`).
#[derive(Debug, Clone, Copy)]
pub struct IbsConfig {
    /// Influencers kept per target (`top-k`).
    pub k: usize,
    /// Targets per partition (`bs`).
    pub batch_size: usize,
    /// PPR parameters.
    pub ppr: PprConfig,
    /// Worker threads for the per-target PPR runs. Defaults to the
    /// process-wide thread count (`--threads` / `KGTOSA_THREADS` /
    /// available parallelism).
    pub threads: usize,
}

impl Default for IbsConfig {
    fn default() -> Self {
        Self {
            k: 16,
            batch_size: 20_000,
            ppr: PprConfig::default(),
            threads: kgtosa_par::current_threads(),
        }
    }
}

/// One partition: a group of targets plus their selected influencers.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Target vertices of this partition.
    pub targets: Vec<Vid>,
    /// All member vertices (targets ∪ top-k influencers).
    pub members: Vec<Vid>,
}

/// Lines 2-3 of Algorithm 2: per-target influence scores → top-k, in
/// parallel over fixed-size target chunks. Returns one `stride`-wide row
/// per target, in target order, holding its influencers and padded with
/// the target itself (a member of every set the rows are unioned into),
/// plus `stride`. Per-target runs are independent and each row is written
/// by exactly one worker, so the rows are identical at any thread count.
fn influencer_rows(g: &HeteroGraph, targets: &[Vid], cfg: &IbsConfig) -> (Vec<Vid>, usize) {
    cfg.ppr.assert_valid();
    let _span = kgtosa_obs::span!("sample.ibs");
    kgtosa_obs::counter("sample.ibs.ppr_runs").add(targets.len() as u64);
    // Live rate/ETA over completed per-target PPR runs.
    let progress = kgtosa_obs::telemetry_active()
        .then(|| kgtosa_obs::progress_task("sample.ibs", Some(targets.len() as u64)));
    let stride = cfg.k.min(g.num_nodes()).max(1);
    let per_chunk = seed_chunk(g);
    let mut rows = vec![Vid(0); targets.len() * stride];
    let pool = Pool::new(cfg.threads);
    pool.par_chunks_mut("sampler.ibs", &mut rows, per_chunk * stride, |chunk, rows| {
        let targets = &targets[chunk * per_chunk..][..rows.len() / stride];
        let mut scratch = PprScratch::new(g, &cfg.ppr);
        let mut top = Vec::new();
        for (&target, row) in targets.iter().zip(rows.chunks_mut(stride)) {
            select_top_k(scratch.run(target), target, cfg.k, &mut top);
            row.fill(target);
            for (slot, &(v, _)) in row.iter_mut().zip(&top) {
                *slot = v;
            }
        }
        // Exact work counts, summed locally and published once per chunk.
        let work = scratch.work();
        kgtosa_obs::counter("sample.ibs.pushes").add(work.pushes);
        kgtosa_obs::counter("sample.ibs.edge_visits").add(work.edge_visits);
        if let Some(progress) = &progress {
            progress.advance(targets.len() as u64);
        }
    });
    (rows, stride)
}

/// Runs Algorithm 2 through partition construction. Returns the partitions
/// (line 4): `bs` targets each, with their selected influencers.
pub fn ibs_partitions(g: &HeteroGraph, targets: &[Vid], cfg: &IbsConfig) -> Vec<Partition> {
    let (rows, stride) = influencer_rows(g, targets, cfg);
    let bs = cfg.batch_size.max(1);
    targets
        .chunks(bs)
        .zip(rows.chunks(bs.saturating_mul(stride)))
        .map(|(targets, rows)| Partition {
            targets: targets.to_vec(),
            members: NodeSet::from_iter(g.num_nodes(), targets.iter().chain(rows).copied())
                .iter()
                .collect(),
        })
        .collect()
}

/// Full IBS sampling: the union of every target and its influencers —
/// what the partitions' members add up to — ready for `extractSubgraph`
/// (Algorithm 2 line 5).
pub fn ibs_sample(g: &HeteroGraph, targets: &[Vid], cfg: &IbsConfig) -> NodeSet {
    let (rows, _) = influencer_rows(g, targets, cfg);
    NodeSet::from_iter(g.num_nodes(), targets.iter().chain(&rows).copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::KnowledgeGraph;

    /// Star around two targets plus an unrelated far-away clique.
    fn kg() -> (KnowledgeGraph, Vec<Vid>) {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("t0", "T", "r", "n0", "N");
        kg.add_triple_terms("t0", "T", "r", "n1", "N");
        kg.add_triple_terms("t1", "T", "r", "n1", "N");
        kg.add_triple_terms("n1", "N", "r", "n2", "N");
        // Far clique.
        kg.add_triple_terms("f0", "F", "r", "f1", "F");
        kg.add_triple_terms("f1", "F", "r", "f2", "F");
        kg.add_triple_terms("f2", "F", "r", "f0", "F");
        let t = vec![kg.find_node("t0").unwrap(), kg.find_node("t1").unwrap()];
        (kg, t)
    }

    #[test]
    fn sample_contains_targets_and_influencers() {
        let (kg, targets) = kg();
        let g = HeteroGraph::build(&kg);
        let cfg = IbsConfig {
            k: 3,
            batch_size: 10,
            threads: 2,
            ..Default::default()
        };
        let vs = ibs_sample(&g, &targets, &cfg);
        assert!(vs.contains(targets[0]));
        assert!(vs.contains(targets[1]));
        assert!(vs.contains(kg.find_node("n1").unwrap()));
        // The disconnected clique gets no influence mass.
        assert!(!vs.contains(kg.find_node("f0").unwrap()));
    }

    #[test]
    fn k_limits_neighbourhood() {
        let (kg, targets) = kg();
        let g = HeteroGraph::build(&kg);
        let small = ibs_sample(
            &g,
            &targets,
            &IbsConfig {
                k: 1,
                batch_size: 10,
                threads: 1,
                ..Default::default()
            },
        );
        let large = ibs_sample(
            &g,
            &targets,
            &IbsConfig {
                k: 8,
                batch_size: 10,
                threads: 1,
                ..Default::default()
            },
        );
        assert!(small.len() <= large.len());
    }

    #[test]
    fn partitions_respect_batch_size() {
        let (kg, targets) = kg();
        let g = HeteroGraph::build(&kg);
        let parts = ibs_partitions(
            &g,
            &targets,
            &IbsConfig {
                k: 2,
                batch_size: 1,
                threads: 2,
                ..Default::default()
            },
        );
        assert_eq!(parts.len(), 2);
        assert!(parts.iter().all(|p| p.targets.len() == 1));
    }

    #[test]
    fn k_zero_keeps_only_the_targets() {
        let (kg, targets) = kg();
        let g = HeteroGraph::build(&kg);
        let vs = ibs_sample(&g, &targets, &IbsConfig { k: 0, threads: 1, ..Default::default() });
        assert_eq!(vs.iter().collect::<Vec<_>>(), targets);
    }

    /// `k` beyond what any PPR vector holds (and beyond |V|) keeps every
    /// influencer, and the partitions' members add up to the sample.
    #[test]
    fn partition_members_add_up_to_the_sample() {
        let (kg, targets) = kg();
        let g = HeteroGraph::build(&kg);
        let cfg = IbsConfig { k: usize::MAX, batch_size: 1, threads: 1, ..Default::default() };
        let parts = ibs_partitions(&g, &targets, &cfg);
        let n2 = kg.find_node("n2").unwrap();
        assert!(parts.iter().all(|p| p.members.contains(&p.targets[0]) && p.members.contains(&n2)));
        let union = NodeSet::from_iter(g.num_nodes(), parts.iter().flat_map(|p| p.members.clone()));
        let sample = ibs_sample(&g, &targets, &cfg);
        assert_eq!(union.iter().collect::<Vec<_>>(), sample.iter().collect::<Vec<_>>());
        assert_eq!(sample.len(), 5, "the four-vertex star plus n2, no far clique");
    }

    #[test]
    fn parallel_matches_sequential() {
        let (kg, targets) = kg();
        let g = HeteroGraph::build(&kg);
        let base = IbsConfig {
            k: 4,
            batch_size: 10,
            ..Default::default()
        };
        let seq = ibs_sample(&g, &targets, &IbsConfig { threads: 1, ..base });
        let par = ibs_sample(&g, &targets, &IbsConfig { threads: 4, ..base });
        assert_eq!(
            seq.iter().collect::<Vec<_>>(),
            par.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_targets() {
        let (kg, _) = kg();
        let g = HeteroGraph::build(&kg);
        let vs = ibs_sample(&g, &[], &IbsConfig::default());
        assert!(vs.is_empty());
    }
}
