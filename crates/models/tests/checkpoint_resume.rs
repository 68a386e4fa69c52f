//! The checkpoint/resume determinism contract, property-tested per trainer:
//! train to epoch `k` with checkpointing on (the "killed" run), re-invoke
//! with the full epoch budget so it resumes from the snapshot, and require
//! the final state fingerprint and convergence trace to match an
//! uninterrupted run *bit for bit*.

use std::fs;
use std::path::PathBuf;

use kgtosa_kg::HeteroGraph;
use kgtosa_models::{
    read_validated_state, state_fingerprint, train_graphsaint_nc, train_lhgnn_lp, train_morse_lp,
    train_rgcn_basis_nc, train_rgcn_lp, train_rgcn_nc, train_sehgnn_nc, train_shadowsaint_nc,
    CheckpointConfig, LpDataset, NcDataset, SaintSampler, TrainConfig, TrainReport,
};

mod common;

const TOTAL_EPOCHS: usize = 8;
const KILL_AT: usize = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgtosa-resume-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_cfg() -> TrainConfig {
    TrainConfig {
        epochs: TOTAL_EPOCHS,
        dim: 8,
        lr: 0.05,
        batch_size: 6,
        ..Default::default()
    }
}

/// Runs `train` three ways — uninterrupted, killed at `KILL_AT`, resumed —
/// and asserts the resumed run ends bit-identical to the uninterrupted one
/// and leaves `<stem>.ckpt` holding exactly the state `param_hash` covers.
fn assert_resumable(tag: &str, stem: &str, train: impl Fn(&TrainConfig) -> TrainReport) {
    let dir = temp_dir(tag);

    let straight = train(&base_cfg());

    // "Kill" at epoch KILL_AT: run with a truncated epoch budget so the
    // last completed epoch's checkpoint is what a crash would leave behind.
    let killed_cfg = TrainConfig {
        epochs: KILL_AT,
        checkpoint: Some(CheckpointConfig::new(&dir)),
        ..base_cfg()
    };
    let killed = train(&killed_cfg);
    assert_eq!(killed.trace.len(), KILL_AT, "{tag}: killed run trace");

    // Resume with the full budget; must pick up at KILL_AT + 1.
    let resume_cfg = TrainConfig {
        checkpoint: Some(CheckpointConfig::new(&dir)),
        ..base_cfg()
    };
    let resumed = train(&resume_cfg);

    assert_eq!(
        resumed.param_hash, straight.param_hash,
        "{tag}: resumed weights diverge from uninterrupted run"
    );
    assert_eq!(resumed.trace.len(), straight.trace.len(), "{tag}: trace length");
    for (a, b) in resumed.trace.iter().zip(&straight.trace) {
        assert_eq!(a.epoch, b.epoch, "{tag}: trace epoch");
        assert_eq!(
            a.metric.to_bits(),
            b.metric.to_bits(),
            "{tag}: epoch {} metric diverges",
            a.epoch
        );
    }

    // A second resume from the final checkpoint trains zero epochs and
    // still reproduces the same fingerprint.
    let again = train(&resume_cfg);
    assert_eq!(again.param_hash, straight.param_hash, "{tag}: idempotent resume");

    // Save order ≡ hash order: the final checkpoint's state blob is the
    // byte stream `param_hash` was folded over.
    let (info, state) = read_validated_state(dir.join(format!("{stem}.ckpt")))
        .unwrap_or_else(|e| panic!("{tag}: {stem}.ckpt: {e}"));
    assert_eq!(info.completed_epoch, TOTAL_EPOCHS, "{tag}: final checkpoint epoch");
    assert_eq!(
        state_fingerprint(|w| w.write_all(&state)),
        straight.param_hash,
        "{tag}: checkpointed state is not the state param_hash covers"
    );

    let _ = fs::remove_dir_all(&dir);
}

fn with_nc_data<T>(f: impl FnOnce(&NcDataset<'_>) -> T) -> T {
    let (kg, labels, papers) = common::toy_nc(20);
    let graph = HeteroGraph::build(&kg);
    let (train, rest) = papers.split_at(12);
    let (valid, test) = rest.split_at(4);
    f(&NcDataset {
        kg: &kg,
        graph: &graph,
        labels: &labels,
        num_labels: 2,
        train,
        valid,
        test,
    })
}

fn with_lp_data<T>(f: impl FnOnce(&LpDataset<'_>) -> T) -> T {
    let (kg, triples) = common::toy_lp();
    let graph = HeteroGraph::build(&kg);
    let (train, rest) = triples.split_at(triples.len() - 6);
    let (valid, test) = rest.split_at(3);
    f(&LpDataset { kg: &kg, graph: &graph, train, valid, test })
}

#[test]
fn rgcn_nc_resumes_bit_identical() {
    with_nc_data(|data| assert_resumable("rgcn-nc", "RGCN", |cfg| train_rgcn_nc(data, cfg)));
}

#[test]
fn rgcn_basis_nc_resumes_bit_identical() {
    with_nc_data(|data| {
        assert_resumable("rgcn-basis-nc", "RGCN-basis2", |cfg| train_rgcn_basis_nc(data, cfg, 2))
    });
}

#[test]
fn graphsaint_resumes_bit_identical() {
    with_nc_data(|data| {
        for (tag, stem, sampler) in [
            ("saint-urw", "GraphSAINT", SaintSampler::Uniform),
            ("saint-brw", "GraphSAINT-BRW", SaintSampler::Biased),
            ("saint-edge", "GraphSAINT-edge", SaintSampler::Edge),
        ] {
            assert_resumable(tag, stem, |cfg| train_graphsaint_nc(data, cfg, sampler));
        }
    });
}

#[test]
fn shadowsaint_resumes_bit_identical() {
    with_nc_data(|data| assert_resumable("shadow-nc", "ShaDowSAINT", |cfg| train_shadowsaint_nc(data, cfg)));
}

#[test]
fn sehgnn_resumes_bit_identical() {
    with_nc_data(|data| assert_resumable("sehgnn-nc", "SeHGNN", |cfg| train_sehgnn_nc(data, cfg)));
}

#[test]
fn rgcn_lp_resumes_bit_identical() {
    with_lp_data(|data| assert_resumable("rgcn-lp", "RGCN-LP", |cfg| train_rgcn_lp(data, cfg)));
}

#[test]
fn morse_resumes_bit_identical() {
    with_lp_data(|data| assert_resumable("morse-lp", "MorsE", |cfg| train_morse_lp(data, cfg)));
}

#[test]
fn lhgnn_resumes_bit_identical() {
    with_lp_data(|data| assert_resumable("lhgnn-lp", "LHGNN", |cfg| train_lhgnn_lp(data, cfg)));
}

/// A checkpoint left by one config must not leak into a different config's
/// run: changing the seed starts fresh instead of resuming.
#[test]
fn mismatched_seed_starts_fresh() {
    with_nc_data(|data| {
        let dir = temp_dir("mismatch-seed");
        let ck = Some(CheckpointConfig::new(&dir));
        let cfg_a = TrainConfig { checkpoint: ck.clone(), ..base_cfg() };
        train_rgcn_nc(data, &cfg_a);

        let cfg_b = TrainConfig { seed: 99, checkpoint: ck, ..base_cfg() };
        let fresh = TrainConfig { seed: 99, ..base_cfg() };
        assert_eq!(
            train_rgcn_nc(data, &cfg_b).param_hash,
            train_rgcn_nc(data, &fresh).param_hash,
            "stale checkpoint must be ignored on config change"
        );
        let _ = fs::remove_dir_all(&dir);
    });
}
