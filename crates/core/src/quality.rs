//! Table III: per-method subgraph quality rows.
//!
//! Wraps the data-sufficiency / graph-topology indicators of
//! [`kgtosa_kg::stats`] with the method label and rendering used by the
//! paper's Table III.

use kgtosa_kg::{quality, SubgraphQuality};

use crate::extract::ExtractionResult;

/// One row of Table III.
#[derive(Debug, Clone)]
pub struct QualityRow {
    /// Extraction method label.
    pub method: String,
    /// Target vertices present in `KG'`.
    pub target_count: usize,
    /// Target ratio (% of `KG'` vertices).
    pub target_ratio_pct: f64,
    /// Live node types `|C'|`.
    pub num_classes: usize,
    /// Live edge types `|R'|`.
    pub num_relations: usize,
    /// % of non-target vertices disconnected from every target.
    pub target_disconnected_pct: f64,
    /// Average hop distance from non-target to nearest target.
    pub avg_dist_to_target: f64,
    /// Neighbour-type entropy (Eq. 2).
    pub avg_entropy: f64,
    /// Vertices in `KG'`.
    pub num_nodes: usize,
    /// Triples in `KG'`.
    pub num_triples: usize,
    /// Extraction seconds.
    pub extraction_s: f64,
}

kgtosa_obs::json_row!(QualityRow {
    method,
    target_count,
    target_ratio_pct,
    num_classes,
    num_relations,
    target_disconnected_pct,
    avg_dist_to_target,
    avg_entropy,
    num_nodes,
    num_triples,
    extraction_s,
});

/// Publishes a finished extraction's quality indicators into the obs
/// layer: `extract.quality.*` gauges (scraped on `/metrics`) and one
/// `extract.quality` JSONL event, so TOSG quality lands in every trace
/// without an ad-hoc stats call. Percentages and distances are scaled
/// ×1000 in the gauges (the registry stores integers).
pub fn record_quality_metrics(method: &str, q: &SubgraphQuality, completeness: f64) {
    let milli = |v: f64| (v * 1000.0).round() as i64;
    kgtosa_obs::gauge("extract.quality.target_count").set(q.target_count as i64);
    kgtosa_obs::gauge("extract.quality.completeness_milli").set(milli(completeness));
    kgtosa_obs::gauge("extract.quality.target_ratio_milli_pct").set(milli(q.target_ratio_pct));
    kgtosa_obs::gauge("extract.quality.disconnected_milli_pct")
        .set(milli(q.target_disconnected_pct));
    kgtosa_obs::gauge("extract.quality.avg_dist_milli").set(milli(q.avg_dist_to_target));
    kgtosa_obs::gauge("extract.quality.entropy_milli").set(milli(q.avg_entropy));
    kgtosa_obs::gauge("extract.quality.num_nodes").set(q.num_nodes as i64);
    kgtosa_obs::gauge("extract.quality.num_triples").set(q.num_triples as i64);
    kgtosa_obs::emit_event(
        "extract.quality",
        vec![
            ("method".into(), kgtosa_obs::Json::Str(method.to_string())),
            ("num_nodes".into(), kgtosa_obs::Json::Num(q.num_nodes as f64)),
            ("num_triples".into(), kgtosa_obs::Json::Num(q.num_triples as f64)),
            ("target_count".into(), kgtosa_obs::Json::Num(q.target_count as f64)),
            ("target_ratio_pct".into(), kgtosa_obs::Json::Num(q.target_ratio_pct)),
            ("num_classes".into(), kgtosa_obs::Json::Num(q.num_classes as f64)),
            ("num_relations".into(), kgtosa_obs::Json::Num(q.num_relations as f64)),
            (
                "disconnected_pct".into(),
                kgtosa_obs::Json::Num(q.target_disconnected_pct),
            ),
            ("avg_dist".into(), kgtosa_obs::Json::Num(q.avg_dist_to_target)),
            ("entropy".into(), kgtosa_obs::Json::Num(q.avg_entropy)),
            ("completeness".into(), kgtosa_obs::Json::Num(completeness)),
        ],
    );
}

impl QualityRow {
    /// Builds the row for a finished extraction.
    pub fn from_extraction(res: &ExtractionResult) -> Self {
        let q: SubgraphQuality = quality(&res.subgraph.kg, &res.targets);
        Self {
            method: res.report.method.clone(),
            target_count: q.target_count,
            target_ratio_pct: q.target_ratio_pct,
            num_classes: q.num_classes,
            num_relations: q.num_relations,
            target_disconnected_pct: q.target_disconnected_pct,
            avg_dist_to_target: q.avg_dist_to_target,
            avg_entropy: q.avg_entropy,
            num_nodes: q.num_nodes,
            num_triples: q.num_triples,
            extraction_s: res.report.seconds,
        }
    }

    /// Formats the row in Table III column order.
    pub fn format_row(&self) -> String {
        format!(
            "{:<14} {:>8} {:>7.1}% {:>5} {:>5} {:>9.1}% {:>8.2} {:>8.2}",
            self.method,
            self.target_count,
            self.target_ratio_pct,
            self.num_classes,
            self.num_relations,
            self.target_disconnected_pct,
            self.avg_dist_to_target,
            self.avg_entropy,
        )
    }

    /// Header matching [`QualityRow::format_row`].
    pub fn header() -> String {
        format!(
            "{:<14} {:>8} {:>8} {:>5} {:>5} {:>10} {:>8} {:>8}",
            "method", "V_T", "V_T%", "|C'|", "|R'|", "discon%", "avgDist", "entropy"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_brw;
    use crate::pattern::ExtractionTask;
    use kgtosa_kg::{HeteroGraph, KnowledgeGraph};
    use kgtosa_sampler::WalkConfig;

    #[test]
    fn row_reflects_extraction() {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("t0", "T", "r", "x0", "X");
        kg.add_triple_terms("t1", "T", "r", "x0", "X");
        let targets = kg.nodes_of_class(kg.find_class("T").unwrap());
        let task = ExtractionTask::node_classification("t", "T", targets);
        let g = HeteroGraph::build(&kg);
        let res = extract_brw(&kg, &g, &task, &WalkConfig::default(), 0);
        let row = QualityRow::from_extraction(&res);
        assert_eq!(row.method, "BRW");
        assert_eq!(row.target_count, 2);
        assert_eq!(row.target_disconnected_pct, 0.0);
        assert!(row.format_row().contains("BRW"));
        assert!(QualityRow::header().contains("entropy"));
    }
}
