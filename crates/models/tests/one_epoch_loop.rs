//! The resume → log → checkpoint → report protocol is written once: each
//! call that makes it up appears in exactly one file under `src/` (the
//! driver, `common::run_epochs`), outside `#[cfg(test)]` code. A new
//! trainer that re-copies the skeleton instead of implementing
//! `TrainRun` fails here.

use std::path::Path;

const PROTOCOL: [&str; 4] =
    ["Checkpointer::from_cfg(", ".resume(", ".maybe_save(", "TrainReport {"];

#[test]
fn epoch_protocol_is_spelled_in_one_file() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(&src).unwrap_or_else(|e| panic!("read {src:?}: {e}")) {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            // Unit-test modules close every file; nothing follows them. A
            // `train_*` signature returns the report without building it.
            let code = text.split("#[cfg(test)]").next().unwrap_or_default();
            let code = code.replace("-> TrainReport {", "");
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            sources.push((name, code));
        }
    }
    assert!(sources.len() > 8, "expected the trainers under {src:?}");

    for needle in PROTOCOL {
        let mut files: Vec<&str> = sources
            .iter()
            .filter(|(_, code)| code.contains(needle))
            .map(|(name, _)| name.as_str())
            .collect();
        files.sort_unstable();
        assert_eq!(files, ["common.rs"], "`{needle}` belongs to the driver alone");
    }
}
