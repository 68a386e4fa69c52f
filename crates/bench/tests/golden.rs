//! The golden gate: every experiment, run in-process at the smoke `Env`,
//! must reproduce the deterministic columns committed in `golden.json`
//! exactly — with the default pool and with `KGTOSA_THREADS=1` alike. A
//! change to what the paper's tables say re-blesses the file in the same
//! diff:
//!
//! ```sh
//! cargo run --release -p kgtosa-bench --bin reproduce -- golden > crates/bench/tests/golden.json
//! ```

use std::process::Command;

use kgtosa_bench::experiments::{golden, select, ALL, SMOKE};
use kgtosa_bench::Env;
use kgtosa_obs::Json;

const GOLDEN: &str = include_str!("golden.json");

type Sections = Vec<(String, Json)>;

fn sections(text: &str) -> Sections {
    match Json::parse(text).expect("golden JSON parses") {
        Json::Obj(sections) => sections,
        other => panic!("golden JSON is an object of experiments, got {other}"),
    }
}

/// The first `(experiment, row, column, expected, got)` at which the two
/// golden renderings differ.
fn first_difference(expected: &Sections, got: &Sections) -> Option<String> {
    let names = |sections: &Sections| sections.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    if names(expected) != names(got) {
        return Some(format!(
            "experiments: expected {:?}, got {:?}",
            names(expected),
            names(got)
        ));
    }
    for ((name, expected), (_, got)) in expected.iter().zip(got) {
        let (Json::Arr(expected), Json::Arr(got)) = (expected, got) else {
            panic!("{name}: a section is an array of rows");
        };
        if expected.len() != got.len() {
            return Some(format!(
                "{name}: expected {} rows, got {}",
                expected.len(),
                got.len()
            ));
        }
        for (row, (expected, got)) in expected.iter().zip(got).enumerate() {
            let (Json::Obj(expected), Json::Obj(got)) = (expected, got) else {
                panic!("{name} row {row}: a row is an object");
            };
            for (column, value) in expected {
                let got = got.iter().find(|(c, _)| c == column).map(|(_, v)| v);
                if got != Some(value) {
                    let got = got.map_or("nothing".to_string(), Json::to_string);
                    return Some(format!(
                        "{name} row {row} column {column}: expected {value}, got {got}"
                    ));
                }
            }
            if let Some((column, value)) = got
                .iter()
                .find(|(c, _)| !expected.iter().any(|(e, _)| e == c))
            {
                return Some(format!(
                    "{name} row {row} column {column}: expected nothing, got {value}"
                ));
            }
        }
    }
    None
}

/// The committed file comes from one world (`reproduce golden`); here the
/// experiments run as two halves, each over its own world on its own
/// thread — half the wall time, and what the worlds share (datasets,
/// stores, d1h1 extractions) provably changes no row.
#[test]
fn every_experiment_matches_the_golden_file() {
    let cut = ALL.iter().position(|(name, _)| *name == "fig7").unwrap();
    let (front, back) = ALL.split_at(cut);
    let (front, back) = std::thread::scope(|scope| {
        let back = scope.spawn(|| sections(&golden(SMOKE, back)));
        (sections(&golden(SMOKE, front)), back.join().unwrap())
    });
    let got: Sections = front.into_iter().chain(back.into_iter().skip(1)).collect(); // one `env`
    if let Some(difference) = first_difference(&sections(GOLDEN), &got) {
        panic!(
            "{difference}\nif the change is intended, re-bless: cargo run --release \
             -p kgtosa-bench --bin reproduce -- golden > crates/bench/tests/golden.json"
        );
    }
}

#[test]
fn a_perturbed_deterministic_column_fails_the_comparison() {
    let table1 = select(&["table1".to_string()]).unwrap();
    let pinned = sections(&golden(SMOKE, &table1));
    assert_eq!(
        first_difference(&pinned, &sections(&golden(SMOKE, &table1))),
        None
    );

    let reseeded = golden(
        Env {
            seed: SMOKE.seed + 1,
            ..SMOKE
        },
        &table1,
    );
    let difference =
        first_difference(&pinned, &sections(&reseeded)).expect("a different seed must differ");
    assert!(
        difference.starts_with("env row 0 column seed: expected 7, got 8"),
        "{difference}"
    );

    // Same `env` section, different KGs: the first difference is a Table I count.
    let mut forged = sections(&reseeded);
    forged[0] = pinned[0].clone();
    let difference = first_difference(&pinned, &forged).expect("different KGs must differ");
    assert!(
        difference.starts_with("table1 row 0 column "),
        "{difference}"
    );
}

#[test]
fn an_unknown_experiment_exits_non_zero_listing_the_valid_names() {
    for args in [&["table1", "fig10"][..], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "nothing may run before the names are checked"
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        for (name, _) in ALL {
            assert!(stderr.contains(name), "{stderr}");
        }
    }
}
