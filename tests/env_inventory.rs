//! The option inventory cannot drift: the set of `KGTOSA_*` names that
//! appear under `crates/*/src` equals the rows of README's "Environment
//! variables" table. A variable that is read but undocumented fails here,
//! and so does one that is documented but no longer read.

use std::collections::BTreeSet;
use std::path::Path;

/// Every `KGTOSA_[A-Z_]+` token in `text`.
fn collect_names(text: &str, into: &mut BTreeSet<String>) {
    for (at, _) in text.match_indices("KGTOSA_") {
        let len = text[at..]
            .bytes()
            .take_while(|b| b.is_ascii_uppercase() || *b == b'_')
            .count();
        into.insert(text[at..at + len].to_string());
    }
}

fn scan_sources(dir: &Path, into: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            scan_sources(&path, into);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            collect_names(&text, into);
        }
    }
}

#[test]
fn readme_table_lists_exactly_the_variables_the_sources_name() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));

    let mut read = BTreeSet::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = entry.expect("crate directory").path().join("src");
        if src.is_dir() {
            scan_sources(&src, &mut read);
        }
    }

    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let section = readme
        .split("\n## Environment variables\n")
        .nth(1)
        .expect("README has an `## Environment variables` section");
    let section = section.split("\n## ").next().unwrap_or(section);
    let mut documented = BTreeSet::new();
    for row in section.lines().filter(|line| line.starts_with("| `KGTOSA_")) {
        let first_cell = row.split('|').nth(1).unwrap_or("");
        collect_names(first_cell, &mut documented);
    }

    let undocumented: Vec<_> = read.difference(&documented).collect();
    let unread: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && unread.is_empty(),
        "README's Environment variables table is out of date — \
         read but not documented: {undocumented:?}; documented but not read: {unread:?}"
    );
}
