//! No dependency line outlives its last use: for every workspace member,
//! each `[dependencies]` name (with `-` read as `_`) is named as a path
//! (`name::…`) somewhere under its `src/`, and each `[dev-dependencies]`
//! name under its `src/` or `tests/`. A line nothing uses fails here.

use std::path::Path;

/// The `(dependencies, dev-dependencies)` names of a `Cargo.toml`.
fn dependency_names(manifest: &str) -> (Vec<String>, Vec<String>) {
    let (mut normal, mut dev) = (Vec::new(), Vec::new());
    let mut section = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if line.is_empty() || line.starts_with('#') {
            continue;
        } else if let Some(name) = line.split(['.', '=']).next() {
            let name = name.trim().replace('-', "_");
            match section {
                "[dependencies]" => normal.push(name),
                "[dev-dependencies]" => dev.push(name),
                _ => {}
            }
        }
    }
    (normal, dev)
}

/// Appends the text of every `.rs` file under `dir` (if it exists).
fn read_sources(dir: &Path, into: &mut String) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            read_sources(&path, into);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            into.push_str(&text);
            into.push('\n');
        }
    }
}

/// Whether `text` names `krate` as the root of a path (`krate::…`) or in
/// a `use krate` item.
fn names(text: &str, krate: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(krate).any(|(at, _)| {
        let (before, after) = (&text[..at], &text[at + krate.len()..]);
        !before.ends_with(ident)
            && !after.starts_with(ident)
            && (after.starts_with("::") || before.ends_with("use "))
    })
}

#[test]
fn every_dependency_line_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut members = vec![root.to_path_buf()];
    for group in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(group)).expect("member directory") {
            let dir = entry.expect("directory entry").path();
            if dir.join("Cargo.toml").is_file() {
                members.push(dir);
            }
        }
    }

    let mut unused = Vec::new();
    for dir in &members {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("Cargo.toml");
        let (normal, dev) = dependency_names(&manifest);
        let mut src = String::new();
        read_sources(&dir.join("src"), &mut src);
        let mut src_and_tests = src.clone();
        read_sources(&dir.join("tests"), &mut src_and_tests);
        let member = dir.join("Cargo.toml");
        let member = member.strip_prefix(root).unwrap().display();
        unused.extend(
            normal
                .iter()
                .filter(|name| !names(&src, name))
                .map(|name| format!("{member}: {name}")),
        );
        unused.extend(
            dev.iter()
                .filter(|name| !names(&src_and_tests, name))
                .map(|name| format!("{member}: {name} (dev)")),
        );
    }
    assert!(unused.is_empty(), "dependency lines no code uses: {unused:?}");
}
