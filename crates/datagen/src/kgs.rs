//! The five benchmark KGs of Table I, scaled to laptop size, plus their
//! nine tasks (Table II).
//!
//! Absolute sizes are scaled by a factor; type counts, schema shape,
//! cluster structure and task difficulty knobs reproduce each dataset's
//! character:
//!
//! | dataset | paper size | here (scale=1) | n-type | e-type |
//! |---|---|---|---|---|
//! | MAG-42M | 42.4M nodes / 166M edges | ~21k / ~90k | 58 | 62 |
//! | YAGO-30M | 30.7M / 400M | ~19k / ~120k | 104 | 98 |
//! | DBLP-15M | 15.6M / 252M | ~17k / ~110k | 42 | 48 |
//! | ogbl-wikikg2 | 2.5M / 17M | ~7k / ~25k | ~100* | ~110* |
//! | YAGO3-10 | 123K / 1.1M | ~3k / ~12k | 23 | 37 |
//!
//! *wikikg2's 9.3K node types cannot be reproduced meaningfully at this
//! scale; the type count is capped while keeping it the most type-diverse
//! dataset of the five (DESIGN.md substitution table).

use crate::spec::{generate, EdgeTypeSpec, GeneratedKg, KgSpec, NodeTypeSpec};
use crate::tasks::{make_lp_task, make_nc_task, LpTask, NcTask, SplitKind};

/// A generated benchmark dataset with its tasks.
pub struct Dataset {
    /// The generated KG and its layout.
    pub gen: GeneratedKg,
    /// Node-classification tasks.
    pub nc: Vec<NcTask>,
    /// Link-prediction tasks.
    pub lp: Vec<LpTask>,
}

fn scaled(count: usize, scale: f64) -> usize {
    // Small classes (venues, countries, occupations) shrink with sqrt(scale):
    // shrinking them linearly would collapse label/candidate spaces and make
    // classification and ranking degenerate at laptop scales.
    let factor = if count <= 1_000 { scale.sqrt() } else { scale };
    ((count as f64 * factor).round() as usize).max(2)
}

fn edge(
    name: &str,
    src: &str,
    dst: &str,
    mean_out: f64,
    cluster_affinity: f64,
    skew: f64,
) -> EdgeTypeSpec {
    EdgeTypeSpec {
        name: name.into(),
        src: src.into(),
        dst: dst.into(),
        mean_out,
        cluster_affinity,
        skew,
    }
}

fn node(name: &str, count: usize) -> NodeTypeSpec {
    NodeTypeSpec {
        name: name.into(),
        count,
    }
}

/// MAG-42M (scaled): academic KG with papers, authors, venues, fields of
/// study, affiliations; tasks PV (paper→venue) and PD (paper→discipline).
pub fn mag(scale: f64, seed: u64) -> Dataset {
    let clusters = 16;
    let mut spec = KgSpec {
        name: "MAG-42M".into(),
        clusters,
        node_types: vec![
            node("Paper", scaled(12_000, scale)),
            node("Author", scaled(8_000, scale)),
            node("FieldOfStudy", scaled(240, scale)),
            node("Affiliation", scaled(320, scale)),
            node("Venue", scaled(64, scale)),
            node("Journal", scaled(48, scale)),
            node("ConferenceInstance", scaled(96, scale)),
            // Off-task volume: the patent sub-KG is disjoint from the PV/PD
            // targets' outgoing neighbourhood — exactly what KG-TOSA prunes.
            node("Patent", scaled(6_000, scale)),
            node("Inventor", scaled(4_000, scale)),
        ],
        edge_types: vec![
            edge("writes", "Author", "Paper", 3.0, 0.9, 0.5),
            edge("cites", "Paper", "Paper", 2.5, 0.85, 1.2),
            edge("hasTopic", "Paper", "FieldOfStudy", 1.5, 0.9, 1.0),
            edge("memberOf", "Author", "Affiliation", 1.0, 0.8, 1.0),
            edge("collaboratesWith", "Author", "Author", 1.0, 0.8, 0.8),
            edge("subTopicOf", "FieldOfStudy", "FieldOfStudy", 1.0, 0.5, 1.0),
            edge("partOfJournal", "ConferenceInstance", "Journal", 0.5, 0.3, 0.5),
            edge("patentCites", "Patent", "Patent", 2.5, 0.6, 1.2),
            edge("invents", "Inventor", "Patent", 2.0, 0.7, 0.9),
            edge("inventorAt", "Inventor", "Affiliation", 0.8, 0.5, 0.9),
        ],
    };
    // Pad to 58 node types / 62 edge types. Misc relations hang off
    // authors (non-targets) so the d1h1 TOSG for a Paper task drops them.
    spec.pad_misc_types(49, "Author", scaled(16, scale).max(2));
    spec.edge_types.push(edge("relatedTo", "Journal", "Venue", 0.5, 0.2, 0.5));
    spec.edge_types.push(edge("presentedAt", "Paper", "ConferenceInstance", 0.2, 0.6, 0.8));
    spec.edge_types.push(edge("advises", "Author", "Author", 0.2, 0.7, 0.5));

    let gen = generate(&spec, seed);
    let nc = vec![
        make_nc_task(&gen, "PV/MAG", "Paper", clusters, 0.06, SplitKind::Time, (0.84, 0.09, 0.07), seed + 1),
        make_nc_task(&gen, "PD/MAG", "Paper", 4, 0.18, SplitKind::Time, (0.87, 0.08, 0.05), seed + 2),
    ];
    Dataset { gen, nc, lp: vec![] }
}

/// YAGO-30M (scaled): a general-purpose KG, the most type-diverse; tasks
/// PC (place→country, easy) and CG (creative-work→genre, hard).
pub fn yago30(scale: f64, seed: u64) -> Dataset {
    let clusters = 12;
    let mut spec = KgSpec {
        name: "YAGO-30M".into(),
        clusters,
        node_types: vec![
            node("Person", scaled(6_000, scale)),
            node("Place", scaled(3_600, scale)),
            node("CreativeWork", scaled(4_800, scale)),
            node("Organization", scaled(1_200, scale)),
            node("Event", scaled(600, scale)),
            node("Country", scaled(48, scale)),
            node("Genre", scaled(24, scale)),
            node("Product", scaled(600, scale)),
        ],
        edge_types: vec![
            edge("bornIn", "Person", "Place", 0.9, 0.9, 0.8),
            edge("livesIn", "Person", "Place", 0.6, 0.85, 0.8),
            edge("nearTo", "Place", "Place", 2.0, 0.95, 0.6),
            edge("created", "Person", "CreativeWork", 1.2, 0.6, 1.0),
            edge("influencedBy", "CreativeWork", "CreativeWork", 1.0, 0.55, 1.0),
            edge("aboutPlace", "CreativeWork", "Place", 0.4, 0.5, 0.8),
            edge("memberOf", "Person", "Organization", 0.8, 0.8, 1.0),
            edge("basedIn", "Organization", "Place", 1.0, 0.9, 0.8),
            edge("happenedIn", "Event", "Place", 1.0, 0.9, 0.8),
            edge("participatedIn", "Person", "Event", 0.5, 0.7, 0.8),
            edge("produces", "Organization", "Product", 0.8, 0.6, 1.0),
            edge("knows", "Person", "Person", 1.5, 0.85, 0.8),
            // Places (the PC targets) carry diverse *outgoing* predicates,
            // as real YAGO places do — so d1h1 extracts a non-degenerate
            // neighbourhood.
            edge("hosts", "Place", "Event", 0.4, 0.8, 0.8),
            edge("managedBy", "Place", "Organization", 0.3, 0.7, 0.9),
            edge("describedBy", "Place", "CreativeWork", 0.3, 0.5, 0.9),
        ],
    };
    // Pad to 104 node types / 98 edge types (more node types than edge
    // types, as in the real YAGO: 15 isolated padding types).
    spec.pad_misc_types(81, "Person", scaled(12, scale).max(2));
    spec.pad_isolated_types(15, scaled(8, scale).max(2));
    // Two country-adjacent relations (countries appear in the graph but no
    // place→country edge exists: the PC label is not leaked).
    spec.edge_types.push(edge("tradesWith", "Country", "Country", 1.0, 0.3, 0.5));
    spec.edge_types.push(edge("citizenOf", "Person", "Country", 0.3, 0.9, 0.6));

    let gen = generate(&spec, seed);
    let nc = vec![
        make_nc_task(&gen, "PC/YAGO", "Place", clusters, 0.03, SplitKind::Random, (0.8, 0.1, 0.1), seed + 1),
        make_nc_task(&gen, "CG/YAGO", "CreativeWork", clusters, 0.55, SplitKind::Random, (0.8, 0.1, 0.1), seed + 2),
    ];
    Dataset { gen, nc, lp: vec![] }
}

/// DBLP-15M (scaled): bibliographic KG; NC tasks PV (paper→venue) and AC
/// (author→country), LP task AA (author→affiliation).
pub fn dblp(scale: f64, seed: u64) -> Dataset {
    let clusters = 12;
    let mut spec = KgSpec {
        name: "DBLP-15M".into(),
        clusters,
        node_types: vec![
            node("Paper", scaled(10_000, scale)),
            node("Author", scaled(6_000, scale)),
            node("Venue", scaled(36, scale)),
            node("Affiliation", scaled(240, scale)),
            node("Stream", scaled(120, scale)),
            // Off-task volume for the Paper/Author tasks.
            node("Book", scaled(4_000, scale)),
            node("Editor", scaled(2_000, scale)),
        ],
        edge_types: vec![
            edge("writes", "Author", "Paper", 2.8, 0.9, 0.6),
            edge("cites", "Paper", "Paper", 3.0, 0.85, 1.2),
            edge("inStream", "Paper", "Stream", 0.8, 0.85, 0.8),
            edge("coAuthor", "Author", "Author", 1.5, 0.9, 0.8),
            edge("worksAt", "Author", "Affiliation", 0.9, 0.85, 0.9),
            edge("streamOfVenue", "Stream", "Venue", 0.6, 0.8, 0.5),
            edge("editorOf", "Editor", "Book", 1.8, 0.6, 0.9),
            edge("bookCites", "Book", "Book", 2.0, 0.6, 1.2),
            edge("editorKnows", "Editor", "Editor", 1.0, 0.7, 0.8),
        ],
    };
    // Pad to 42 node types / 48 edge types (misc off the Stream nodes so
    // neither the Paper nor the Author task drags them in at one hop).
    spec.pad_misc_types(35, "Stream", scaled(12, scale).max(2));
    spec.edge_types.push(edge("sameVenueSeries", "Venue", "Venue", 0.5, 0.3, 0.5));
    spec.edge_types.push(edge("follows", "Author", "Author", 0.3, 0.8, 0.8));
    spec.edge_types.push(edge("errata", "Paper", "Paper", 0.05, 0.9, 1.0));
    spec.edge_types.push(edge("surveyOf", "Paper", "Stream", 0.05, 0.8, 0.8));

    let mut gen = generate(&spec, seed);
    let nc = vec![
        make_nc_task(&gen, "PV/DBLP", "Paper", clusters, 0.04, SplitKind::Time, (0.79, 0.10, 0.11), seed + 1),
        make_nc_task(&gen, "AC/DBLP", "Author", 8, 0.12, SplitKind::Time, (0.8, 0.1, 0.1), seed + 2),
    ];
    let lp = vec![make_lp_task(
        &mut gen,
        "AA/DBLP",
        "affiliatedWith",
        "Author",
        "Affiliation",
        0.15,
        SplitKind::Time,
        (0.99, 0.007, 0.003),
        seed + 3,
    )];
    Dataset { gen, nc, lp }
}

/// ogbl-wikikg2 (scaled): Wikidata extract; LP task PO (person→occupation
/// standing in for the paper's predicate-specific task).
pub fn wikikg2(scale: f64, seed: u64) -> Dataset {
    let clusters = 10;
    let mut spec = KgSpec {
        name: "ogbl-wikikg2".into(),
        clusters,
        node_types: vec![
            node("Person", scaled(3_000, scale)),
            node("Occupation", scaled(40, scale)),
            node("Place", scaled(1_000, scale)),
            node("Organization", scaled(600, scale)),
            node("Work", scaled(1_500, scale)),
            node("Taxon", scaled(2_000, scale)),
        ],
        edge_types: vec![
            edge("educatedAt", "Person", "Organization", 0.8, 0.85, 0.9),
            edge("worksFor", "Person", "Organization", 0.7, 0.85, 0.9),
            edge("birthPlace", "Person", "Place", 0.9, 0.8, 0.8),
            edge("authorOf", "Person", "Work", 1.0, 0.8, 1.0),
            edge("fieldOfWork", "Work", "Occupation", 0.6, 0.85, 0.8),
            edge("locatedIn", "Organization", "Place", 0.9, 0.8, 0.8),
            edge("memberOf", "Person", "Person", 0.8, 0.85, 0.8),
            edge("taxonParent", "Taxon", "Taxon", 1.5, 0.5, 1.0),
        ],
    };
    // wikikg2 is the most type-diverse dataset; pad generously (capped —
    // 9.3K types is not meaningful at this scale). Misc hangs off Works so
    // the Person-targeted d2h1 TOSG prunes it.
    spec.pad_misc_types(90, "Work", scaled(8, scale).max(2));

    let mut gen = generate(&spec, seed);
    let lp = vec![make_lp_task(
        &mut gen,
        "PO/wikikg2",
        "hasOccupation",
        "Person",
        "Occupation",
        0.35,
        SplitKind::Time,
        (0.94, 0.025, 0.035),
        seed + 1,
    )];
    Dataset { gen, nc: vec![], lp }
}

/// YAGO3-10 (scaled): the small LP benchmark; task CA (citizenship).
pub fn yago3_10(scale: f64, seed: u64) -> Dataset {
    let clusters = 8;
    let mut spec = KgSpec {
        name: "YAGO3-10".into(),
        clusters,
        node_types: vec![
            node("Person", scaled(2_000, scale)),
            node("Country", scaled(32, scale)),
            node("City", scaled(400, scale)),
            node("University", scaled(120, scale)),
            node("Club", scaled(160, scale)),
        ],
        edge_types: vec![
            edge("wasBornIn", "Person", "City", 0.9, 0.9, 0.8),
            edge("graduatedFrom", "Person", "University", 0.6, 0.85, 0.9),
            edge("playsFor", "Person", "Club", 0.7, 0.85, 0.9),
            edge("cityInCountry", "City", "Country", 1.0, 0.95, 0.4),
            edge("universityInCity", "University", "City", 1.0, 0.9, 0.6),
            edge("clubInCity", "Club", "City", 1.0, 0.9, 0.6),
            edge("marriedTo", "Person", "Person", 0.4, 0.9, 0.5),
        ],
    };
    // Pad to 23 node types / 37 edge types.
    spec.pad_misc_types(18, "City", scaled(8, scale).max(2));
    for (i, (src, dst)) in [
        ("Person", "City"),
        ("Person", "University"),
        ("Club", "Club"),
        ("City", "City"),
        ("University", "University"),
        ("Person", "Club"),
        ("City", "Country"),
        ("Person", "Person"),
        ("Club", "Country"),
        ("University", "Country"),
        ("Person", "Country"),
    ]
    .iter()
    .enumerate()
    {
        spec.edge_types.push(edge(
            &format!("extraRel{i}"),
            src,
            dst,
            0.1,
            0.6,
            0.6,
        ));
    }

    let mut gen = generate(&spec, seed);
    let lp = vec![make_lp_task(
        &mut gen,
        "CA/YAGO3-10",
        "isCitizenOf",
        "Person",
        "Country",
        0.25,
        SplitKind::Random,
        (0.99, 0.005, 0.005),
        seed + 1,
    )];
    Dataset { gen, nc: vec![], lp }
}

/// The full benchmark (Table I order).
pub fn all_datasets(scale: f64, seed: u64) -> Vec<Dataset> {
    vec![
        mag(scale, seed),
        yago30(scale, seed + 100),
        dblp(scale, seed + 200),
        wikikg2(scale, seed + 300),
        yago3_10(scale, seed + 400),
    ]
}

/// The dataset named `name` (`mag`, `yago30`, `dblp`, `wikikg2` or
/// `yago3-10`), as the CLI and the daemon spell it.
pub fn by_name(name: &str, scale: f64, seed: u64) -> Result<Dataset, String> {
    match name {
        "mag" => Ok(mag(scale, seed)),
        "yago30" => Ok(yago30(scale, seed)),
        "dblp" => Ok(dblp(scale, seed)),
        "wikikg2" => Ok(wikikg2(scale, seed)),
        "yago3-10" => Ok(yago3_10(scale, seed)),
        other => Err(format!(
            "unknown dataset {other:?} (expected mag|yago30|dblp|wikikg2|yago3-10)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mag_type_counts_match_table1() {
        let d = mag(0.05, 1);
        // 58 node types (9 core + 49 misc); 62 edge types (10+49+3).
        assert_eq!(d.gen.kg.num_classes(), 58);
        assert_eq!(d.gen.kg.num_relations(), 62);
        assert_eq!(d.nc.len(), 2);
    }

    #[test]
    fn yago30_is_most_type_diverse_nc_kg() {
        let d = yago30(0.05, 1);
        assert_eq!(d.gen.kg.num_classes(), 104);
        assert_eq!(d.gen.kg.num_relations(), 98);
    }

    #[test]
    fn dblp_counts_and_tasks() {
        let d = dblp(0.05, 1);
        assert_eq!(d.gen.kg.num_classes(), 42);
        // 48 relations + the LP predicate added by make_lp_task.
        assert_eq!(d.gen.kg.num_relations(), 49);
        assert_eq!(d.nc.len(), 2);
        assert_eq!(d.lp.len(), 1);
    }

    #[test]
    fn yago3_counts() {
        let d = yago3_10(0.1, 1);
        assert_eq!(d.gen.kg.num_classes(), 23);
        // 18 + 18 misc + 11 extra = 37, plus the LP predicate.
        assert_eq!(d.gen.kg.num_relations(), 37);
    }

    #[test]
    fn all_datasets_generate() {
        let ds = all_datasets(0.02, 9);
        assert_eq!(ds.len(), 5);
        let nc_total: usize = ds.iter().map(|d| d.nc.len()).sum();
        let lp_total: usize = ds.iter().map(|d| d.lp.len()).sum();
        assert_eq!(nc_total, 6, "six NC tasks (Table II)");
        assert_eq!(lp_total, 3, "three LP tasks (Table II)");
        for d in &ds {
            assert!(d.gen.kg.num_triples() > 0);
        }
    }

    #[test]
    fn scale_shrinks_counts() {
        let small = mag(0.02, 1);
        let big = mag(0.1, 1);
        assert!(big.gen.kg.num_nodes() > small.gen.kg.num_nodes());
        assert!(big.gen.kg.num_triples() > small.gen.kg.num_triples());
    }
}
