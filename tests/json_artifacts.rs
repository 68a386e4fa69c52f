//! The committed result files are fixed points of the one JSON writer:
//! every `results/*.json` and `BENCH_kernels.json`, parsed and written back
//! with `Json::to_string_pretty`, is byte-identical to itself. The files
//! were written by the serde shims this writer replaced, so this pins the
//! replacement to them, and their format from now on.

use std::path::{Path, PathBuf};

use kgtosa_obs::Json;

#[test]
fn committed_results_are_pretty_json_fixed_points() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(root.join("results"))
        .expect("results/")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.push(root.join("BENCH_kernels.json"));
    assert!(files.len() >= 18, "17 experiments + the kernel report, found {files:?}");

    for path in &files {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(
            parsed.to_string_pretty() == text,
            "{path:?} is not what Json::to_string_pretty writes"
        );
    }
}
