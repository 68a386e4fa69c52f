//! The docs cannot point at files that are gone: every `crates/…`,
//! `tests/…`, `benchmark/…` or `vendor/…` path named in README.md or
//! DESIGN.md exists in the repository. Globs (`crates/*`) and templated
//! paths (`crates/{kg,rdf}`) are checked only up to their first
//! wildcard.

use std::path::Path;

const ROOTS: [&str; 4] = ["crates/", "tests/", "benchmark/", "vendor/"];

fn is_path_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'/' | b'.' | b'_' | b'-')
}

/// Every path in `text` that starts with one of [`ROOTS`] at a word
/// boundary, with trailing sentence punctuation removed.
fn named_paths(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let bytes = line.as_bytes();
        for root in ROOTS {
            for (at, _) in line.match_indices(root) {
                if at > 0 && is_path_byte(bytes[at - 1]) {
                    continue;
                }
                let len = bytes[at..].iter().take_while(|&&b| is_path_byte(b)).count();
                let path = line[at..at + len].trim_end_matches(['.', '-']);
                out.push((lineno + 1, path.to_string()));
            }
        }
    }
    out
}

#[test]
fn every_path_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (line, path) in named_paths(&text) {
            checked += 1;
            if !root.join(&path).exists() {
                missing.push(format!("{doc}:{line}: {path}"));
            }
        }
    }
    assert!(checked > 0, "the docs name no paths at all");
    assert!(
        missing.is_empty(),
        "the docs name paths that do not exist:\n{}",
        missing.join("\n")
    );
}
