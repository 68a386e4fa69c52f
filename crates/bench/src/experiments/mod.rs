//! The experiments `reproduce` runs: one `<name>::run(&World) -> rows`
//! function per table, figure and ablation, the registry that names them,
//! and the golden rendering of their deterministic columns.

use kgtosa_obs::Json;

use crate::{Columns, Datasets, Env, World};

/// One experiment's rows with their type erased.
pub struct Output {
    /// The rows as `results/<name>.json` carries them.
    pub json: String,
    /// Each row's deterministic columns (a JSON object per row).
    pub deterministic: Vec<Json>,
}

impl Output {
    fn of<R: Columns>(rows: Vec<R>) -> Self {
        let rows: Vec<Json> = rows.into_iter().map(Into::into).collect();
        let deterministic = rows
            .iter()
            .map(|row| {
                let Json::Obj(mut columns) = row.clone() else {
                    panic!("a row converts to a JSON object: {row}");
                };
                let all = columns.len();
                columns.retain(|(name, _)| !R::MEASURED.contains(&name.as_str()));
                assert_eq!(
                    all - columns.len(),
                    R::MEASURED.len(),
                    "MEASURED names a missing column"
                );
                Json::Obj(columns)
            })
            .collect();
        Self {
            json: Json::Arr(rows).to_string_pretty(),
            deterministic,
        }
    }
}

/// A named experiment.
pub type Experiment = (&'static str, fn(&World<'_>) -> Output);

macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        $(pub mod $name;)*

        /// Every experiment, in the order `all` runs them.
        pub const ALL: &[Experiment] =
            &[$((stringify!($name), |world| Output::of($name::run(world)))),*];
    };
}

experiments!(
    table1,
    table2,
    fig1,
    fig2_fig5,
    fig6,
    fig6_supplement,
    fig7,
    fig8,
    fig9,
    table3,
    table4,
    kg_completion,
    ablation_basis,
    ablation_engine,
    ablation_sampling,
    cache,
    chaos,
);

/// Resolves experiment names (`all` = every one) against [`ALL`]; an
/// unknown or missing name is an error that lists the valid ones.
pub fn select(names: &[String]) -> Result<Vec<Experiment>, String> {
    let valid = || {
        ALL.iter()
            .map(|(name, _)| *name)
            .collect::<Vec<_>>()
            .join(", ")
    };
    if names.is_empty() {
        return Err(format!(
            "no experiment named; expected all or any of: {}",
            valid()
        ));
    }
    let mut selected = Vec::new();
    for name in names {
        match ALL.iter().find(|(known, _)| known == name) {
            Some(experiment) => selected.push(*experiment),
            None if name == "all" => selected.extend_from_slice(ALL),
            None => {
                return Err(format!(
                    "unknown experiment {name:?}; expected all or any of: {}",
                    valid()
                ))
            }
        }
    }
    Ok(selected)
}

/// Runs `selected` in order over `world`, writing each experiment's rows
/// to `<name>.json` under the world's output directory when it has one.
pub fn run(world: &World<'_>, selected: &[Experiment]) -> Vec<(&'static str, Output)> {
    selected
        .iter()
        .map(|&(name, experiment)| {
            let output = experiment(world);
            if let Some(dir) = world.out() {
                crate::write_json(dir, name, &output.json);
            }
            (name, output)
        })
        .collect()
}

/// The `Env` of the golden gate: every split of every task is still
/// non-empty, and all 17 experiments cost the dev-profile test run ≈7 s of
/// CPU (scale 0.02 / dim 8 cost 31 s, most of it full-graph ShaDowSAINT
/// and basis-RGCN).
pub const SMOKE: Env = Env {
    scale: 0.01,
    seed: 7,
    epochs: 2,
    dim: 4,
};

/// The golden rendering of `selected` at `env`: `env` itself, then every
/// experiment's deterministic columns, one row per line. Writes no file.
pub fn golden(env: Env, selected: &[Experiment]) -> String {
    let data = Datasets::new(env);
    let outputs = run(&World::new(&data, None), selected);
    let mut text = format!("{{\n\"env\": [\n{}\n]", Json::from(env));
    for (name, output) in &outputs {
        let rows: Vec<String> = output.deterministic.iter().map(Json::to_string).collect();
        text.push_str(&format!(",\n\"{name}\": [\n{}\n]", rows.join(",\n")));
    }
    text.push_str("\n}\n");
    text
}
