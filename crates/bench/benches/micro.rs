//! Criterion micro-benchmarks for the performance-critical substrates:
//! hexastore scans, SPARQL parse+execute, dictionary interning, CSR
//! construction, PPR push, the samplers, one RGCN layer, and the three
//! TOSG extraction methods end-to-end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use kgtosa_core::{extract_brw, extract_ibs, extract_sparql, GraphPattern};
use kgtosa_kg::{Dictionary, HeteroGraph, KnowledgeGraph, Vid};
use kgtosa_nn::RgcnLayer;
use kgtosa_rdf::{parse, Hexastore, RdfStore, SparqlEngine};
use kgtosa_sampler::{
    biased_random_walk, uniform_random_walk, IbsConfig, PprConfig, PprScratch, WalkConfig,
};
use kgtosa_tensor::xavier_uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_dataset() -> kgtosa_datagen::Dataset {
    kgtosa_datagen::mag(0.05, 7)
}

fn bench_hexastore(c: &mut Criterion) {
    let d = bench_dataset();
    let triples: Vec<[u32; 3]> = d.gen.kg.triples().iter().map(|t| t.raw()).collect();
    let mut group = c.benchmark_group("hexastore");
    group.bench_function("build", |b| {
        b.iter(|| Hexastore::build(black_box(&triples)))
    });
    let hex = Hexastore::build(&triples);
    group.bench_function("scan_by_subject", |b| {
        b.iter(|| hex.scan(Some(black_box(5)), None, None).count())
    });
    group.bench_function("scan_by_predicate", |b| {
        b.iter(|| hex.scan(None, Some(black_box(1)), None).count())
    });
    group.bench_function("count_po", |b| {
        b.iter(|| hex.count(None, Some(black_box(1)), Some(10)))
    });
    group.finish();
}

fn bench_sparql(c: &mut Criterion) {
    let d = bench_dataset();
    let kg = &d.gen.kg;
    let store = RdfStore::new(kg);
    let engine = SparqlEngine::new(&store);
    let mut group = c.benchmark_group("sparql");
    let q_text = "SELECT ?s ?p ?o WHERE { ?s a <Paper> . ?s ?p ?o } LIMIT 1000";
    group.bench_function("parse", |b| b.iter(|| parse(black_box(q_text)).unwrap()));
    let q = parse(q_text).unwrap();
    group.bench_function("execute_star", |b| {
        b.iter(|| engine.execute(black_box(&q)).unwrap().len())
    });
    let join = parse("SELECT ?a ?v WHERE { ?a <writes> ?x . ?x <cites> ?v }").unwrap();
    group.bench_function("execute_join", |b| {
        b.iter(|| engine.execute(black_box(&join)).unwrap().len())
    });
    group.finish();
}

fn bench_kg_model(c: &mut Criterion) {
    let d = bench_dataset();
    let kg = &d.gen.kg;
    let mut group = c.benchmark_group("kg");
    group.bench_function("dictionary_intern_10k", |b| {
        b.iter(|| {
            let mut dict = Dictionary::with_capacity(10_000);
            for i in 0..10_000u32 {
                dict.intern(&format!("term:{i}"));
            }
            dict.len()
        })
    });
    group.bench_function("hetero_graph_build", |b| {
        b.iter(|| HeteroGraph::build(black_box(kg)).num_edges())
    });
    let g = HeteroGraph::build(kg);
    let targets = &d.nc[0].targets();
    group.bench_function("quality_stats", |b| {
        b.iter(|| kgtosa_kg::quality_with_graph(kg, &g, black_box(targets)))
    });
    group.finish();
}

fn bench_samplers(c: &mut Criterion) {
    let d = bench_dataset();
    let kg = &d.gen.kg;
    let g = HeteroGraph::build(kg);
    let targets = d.nc[0].targets();
    let mut group = c.benchmark_group("samplers");
    let walk = WalkConfig { roots: 200, walk_length: 3 };
    group.bench_function("urw", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            uniform_random_walk(&g, &walk, &mut rng).len()
        })
    });
    group.bench_function("brw", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            biased_random_walk(&g, &targets, &walk, &mut rng).len()
        })
    });
    // One scratch across iterations: its O(|V|) build is per worker chunk
    // in IBS, not per push run.
    let mut scratch = PprScratch::new(&g, &PprConfig::default());
    group.bench_function("ppr_push", |b| {
        b.iter(|| scratch.run(black_box(targets[0])).len())
    });
    group.finish();
}

fn bench_rgcn_layer(c: &mut Criterion) {
    let d = bench_dataset();
    let g = HeteroGraph::build(&d.gen.kg);
    let mut rng = StdRng::seed_from_u64(3);
    let layer = RgcnLayer::new(g.num_relations(), 16, 16, true, &mut rng);
    let h = xavier_uniform(g.num_nodes(), 16, &mut rng);
    let mut group = c.benchmark_group("rgcn");
    group.sample_size(10);
    group.bench_function("forward", |b| {
        b.iter(|| layer.forward(&g, black_box(&h)).0.norm())
    });
    group.bench_function("forward_backward", |b| {
        b.iter(|| {
            let (out, cache) = layer.forward(&g, &h);
            let (grad_h, _) = layer.backward(&g, &h, &cache, out);
            grad_h.norm()
        })
    });
    group.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let d = bench_dataset();
    let kg = &d.gen.kg;
    let g = HeteroGraph::build(kg);
    let task = kgtosa_bench::nc_extraction_task(&d.nc[0]);
    let store = RdfStore::new(kg);
    let mut group = c.benchmark_group("extraction");
    group.sample_size(10);
    group.bench_function("brw", |b| {
        b.iter(|| {
            extract_brw(kg, &g, &task, &WalkConfig { roots: 200, walk_length: 3 }, 1)
                .report
                .triples
        })
    });
    group.bench_function("ibs", |b| {
        b.iter(|| {
            extract_ibs(kg, &g, &task, &IbsConfig { k: 8, threads: 2, ..Default::default() })
                .report
                .triples
        })
    });
    for pattern in [GraphPattern::D1H1, GraphPattern::D2H1] {
        group.bench_with_input(
            BenchmarkId::new("sparql", pattern.label()),
            &pattern,
            |b, pattern| {
                b.iter(|| {
                    extract_sparql(&store, &task, pattern, &Default::default())
                        .unwrap()
                        .report
                        .triples
                })
            },
        );
    }
    group.finish();
}

/// Bounded Vid import usage for doc purposes.
#[allow(dead_code)]
fn _uses(_: Vid, _: KnowledgeGraph) {}

criterion_group!(
    benches,
    bench_hexastore,
    bench_sparql,
    bench_kg_model,
    bench_samplers,
    bench_rgcn_layer,
    bench_extraction
);
criterion_main!(benches);
