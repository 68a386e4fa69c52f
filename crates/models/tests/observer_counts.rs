//! Telemetry contract: every trainer fires its `TrainObserver` exactly
//! `cfg.epochs` times, regardless of internal epoch multipliers (SeHGNN),
//! skipped updates (GraphSAINT empty samples), or batching (ShaDowSAINT),
//! and labels every event with the method its `TrainReport` carries.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use kgtosa_kg::HeteroGraph;
use kgtosa_models::{
    train_graphsaint_nc, train_lhgnn_lp, train_morse_lp, train_rgcn_basis_nc, train_rgcn_lp,
    train_rgcn_nc, train_sehgnn_nc, train_shadowsaint_nc, LpDataset, NcDataset, SaintSampler,
    TrainConfig,
};
use kgtosa_obs::{EpochEvent, Observer, TrainObserver};

mod common;

/// Counts callbacks and sanity-checks each event's invariants.
struct CountingObserver {
    calls: AtomicUsize,
    epochs: usize,
    method: Mutex<String>,
}

impl TrainObserver for CountingObserver {
    fn on_epoch(&self, ev: &EpochEvent<'_>) {
        let seen = self.calls.fetch_add(1, Ordering::SeqCst);
        assert_eq!(ev.epoch, seen, "epochs must arrive in order, 0-based");
        assert_eq!(ev.epochs, self.epochs);
        assert!(ev.loss.is_finite(), "{}: non-finite loss", ev.method);
        assert!(ev.epoch_s >= 0.0 && ev.elapsed_s >= ev.epoch_s - 1e-9);
        assert!(ev.peak_bytes >= ev.live_bytes);
        *self.method.lock().unwrap() = ev.method.to_string();
    }
}

fn counted_cfg(epochs: usize) -> (TrainConfig, Arc<CountingObserver>) {
    let obs = Arc::new(CountingObserver {
        calls: AtomicUsize::new(0),
        epochs,
        method: Mutex::default(),
    });
    let cfg = TrainConfig {
        epochs,
        dim: 4,
        lr: 0.05,
        batch_size: 4,
        observer: Observer::from_arc(obs.clone()),
        ..Default::default()
    };
    (cfg, obs)
}

const EPOCHS: usize = 3;

#[test]
fn nc_trainers_fire_observer_once_per_epoch() {
    let (kg, labels, papers) = common::toy_nc(12);
    let graph = HeteroGraph::build(&kg);
    let (train, rest) = papers.split_at(8);
    let (valid, test) = rest.split_at(2);
    let data = NcDataset {
        kg: &kg,
        graph: &graph,
        labels: &labels,
        num_labels: 2,
        train,
        valid,
        test,
    };
    type NcTrainer = fn(&NcDataset<'_>, &TrainConfig) -> kgtosa_models::TrainReport;
    let trainers: [(&str, NcTrainer); 6] = [
        ("rgcn", |d, c| train_rgcn_nc(d, c)),
        ("rgcn-basis", |d, c| train_rgcn_basis_nc(d, c, 2)),
        ("saint-urw", |d, c| train_graphsaint_nc(d, c, SaintSampler::Uniform)),
        ("saint-brw", |d, c| train_graphsaint_nc(d, c, SaintSampler::Biased)),
        ("shadow", |d, c| train_shadowsaint_nc(d, c)),
        ("sehgnn", |d, c| train_sehgnn_nc(d, c)),
    ];
    for (name, trainer) in trainers {
        let (cfg, obs) = counted_cfg(EPOCHS);
        let report = trainer(&data, &cfg);
        assert_eq!(
            obs.calls.load(Ordering::SeqCst),
            EPOCHS,
            "{name}: observer calls != epochs"
        );
        assert_eq!(report.trace.len(), EPOCHS, "{name}: trace length");
        assert_eq!(*obs.method.lock().unwrap(), report.method, "{name}: event label");
    }
}

#[test]
fn lp_trainers_fire_observer_once_per_epoch() {
    let (kg, triples) = common::toy_lp();
    let graph = HeteroGraph::build(&kg);
    let (train, rest) = triples.split_at(triples.len() - 2);
    let (valid, test) = rest.split_at(1);
    let data = LpDataset {
        kg: &kg,
        graph: &graph,
        train,
        valid,
        test,
    };
    type LpTrainer = fn(&LpDataset<'_>, &TrainConfig) -> kgtosa_models::TrainReport;
    let trainers: [(&str, LpTrainer); 3] = [
        ("rgcn-lp", |d, c| train_rgcn_lp(d, c)),
        ("morse", |d, c| train_morse_lp(d, c)),
        ("lhgnn", |d, c| train_lhgnn_lp(d, c)),
    ];
    for (name, trainer) in trainers {
        let (cfg, obs) = counted_cfg(EPOCHS);
        let report = trainer(&data, &cfg);
        assert_eq!(
            obs.calls.load(Ordering::SeqCst),
            EPOCHS,
            "{name}: observer calls != epochs"
        );
        assert_eq!(report.trace.len(), EPOCHS, "{name}: trace length");
        assert_eq!(*obs.method.lock().unwrap(), report.method, "{name}: event label");
    }
}
