//! The TOSG's generic graph pattern (§III-B, Figure 3) and the task
//! descriptions that anchor it.
//!
//! The pattern has two parameters:
//! * `d` — which predicate **directions** to follow from a target vertex
//!   (outgoing only, or outgoing + incoming),
//! * `h` — how many **hops** to expand.
//!
//! `KG-TOSA_{d1h1}` (outgoing, one hop) is the paper's default for node
//! classification; `KG-TOSA_{d2h1}` for link prediction.

use kgtosa_kg::Vid;

/// Predicate directions followed from target vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `d = 1`: outgoing predicates only.
    Outgoing,
    /// `d = 2`: outgoing and incoming predicates.
    Both,
}

impl Direction {
    /// The paper's numeric `d` parameter.
    pub fn d(self) -> usize {
        match self {
            Direction::Outgoing => 1,
            Direction::Both => 2,
        }
    }
}

/// The generic graph pattern `KG-TOSA_{d,h}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphPattern {
    /// Directions followed from each target vertex.
    pub direction: Direction,
    /// Number of hops expanded around each target vertex.
    pub hops: usize,
}

impl GraphPattern {
    /// `KG-TOSA_{d1h1}` — the default for node classification tasks.
    pub const D1H1: GraphPattern = GraphPattern {
        direction: Direction::Outgoing,
        hops: 1,
    };
    /// `KG-TOSA_{d2h1}` — the default for link prediction tasks.
    pub const D2H1: GraphPattern = GraphPattern {
        direction: Direction::Both,
        hops: 1,
    };
    /// `KG-TOSA_{d1h2}`.
    pub const D1H2: GraphPattern = GraphPattern {
        direction: Direction::Outgoing,
        hops: 2,
    };
    /// `KG-TOSA_{d2h2}`.
    pub const D2H2: GraphPattern = GraphPattern {
        direction: Direction::Both,
        hops: 2,
    };

    /// The four variations evaluated in Figure 8, in the paper's order.
    pub const VARIANTS: [GraphPattern; 4] = [Self::D1H1, Self::D2H1, Self::D1H2, Self::D2H2];

    /// Human-readable label, e.g. `d1h1`.
    pub fn label(&self) -> String {
        format!("d{}h{}", self.direction.d(), self.hops)
    }

    /// The variant whose [`label`](Self::label) is `label`, if any.
    pub fn from_label(label: &str) -> Option<GraphPattern> {
        Self::VARIANTS.into_iter().find(|p| p.label() == label)
    }
}

/// What a task needs from extraction: where the target vertices are and,
/// for link prediction, which predicate is being completed.
#[derive(Debug, Clone)]
pub struct ExtractionTask {
    /// Short name, e.g. `PV/MAG`.
    pub name: String,
    /// Classes of the target vertices (one for NC; the one-or-two endpoint
    /// classes for LP).
    pub target_classes: Vec<String>,
    /// The resolved target vertex set `V_T`.
    pub targets: Vec<Vid>,
    /// For LP tasks: the predicate `p_T` whose links are being predicted.
    /// The BGP gains the connecting triple pattern `⟨?v_Ti, p_T, ?v_Tj⟩`.
    pub lp_predicate: Option<String>,
}

impl ExtractionTask {
    /// A node-classification extraction task.
    pub fn node_classification(
        name: impl Into<String>,
        target_class: impl Into<String>,
        targets: Vec<Vid>,
    ) -> Self {
        Self {
            name: name.into(),
            target_classes: vec![target_class.into()],
            targets,
            lp_predicate: None,
        }
    }

    /// A link-prediction extraction task.
    pub fn link_prediction(
        name: impl Into<String>,
        target_classes: Vec<String>,
        targets: Vec<Vid>,
        predicate: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            target_classes,
            targets,
            lp_predicate: Some(predicate.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(GraphPattern::D1H1.label(), "d1h1");
        assert_eq!(GraphPattern::D2H2.label(), "d2h2");
        assert_eq!(Direction::Both.d(), 2);
    }

    #[test]
    fn variants_cover_paper_grid() {
        let labels: Vec<String> = GraphPattern::VARIANTS.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["d1h1", "d2h1", "d1h2", "d2h2"]);
        for p in GraphPattern::VARIANTS {
            assert_eq!(GraphPattern::from_label(&p.label()), Some(p));
        }
        assert_eq!(GraphPattern::from_label("d3h1"), None);
    }

    #[test]
    fn task_constructors() {
        let nc = ExtractionTask::node_classification("PV", "Paper", vec![Vid(1)]);
        assert!(nc.lp_predicate.is_none());
        assert_eq!(nc.target_classes, vec!["Paper"]);
        let lp = ExtractionTask::link_prediction(
            "AA",
            vec!["Author".into(), "Affiliation".into()],
            vec![],
            "affiliatedWith",
        );
        assert_eq!(lp.lp_predicate.as_deref(), Some("affiliatedWith"));
    }
}
