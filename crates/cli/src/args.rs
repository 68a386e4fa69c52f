//! A small `--key value` argument parser (the workspace's dependency
//! policy keeps external crates to the approved list, so no clap).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` pairs; bare `--flag`s map to `"true"`.
    pub options: BTreeMap<String, String>,
    /// Positional arguments after the subcommand (e.g. the trace file of
    /// `kgtosa trace-summary trace.jsonl`).
    pub positionals: Vec<String>,
}

impl Args {
    /// Parses `std::env::args`-style input (excluding the program name).
    /// `known` lists every accepted option as `(name, is_flag)`: a flag
    /// never takes the following token as its value (so `--quiet FILE`
    /// leaves `FILE` positional), and an option not listed is an error.
    pub fn parse(
        mut input: impl Iterator<Item = String>,
        known: &[(&str, bool)],
    ) -> Result<Args, String> {
        let command = input.next().unwrap_or_default();
        let mut options = BTreeMap::new();
        let mut positionals = Vec::new();
        let mut pending_key: Option<String> = None;
        for token in input {
            if let Some(stripped) = token.strip_prefix("--") {
                if let Some(key) = pending_key.take() {
                    options.insert(key, "true".to_string());
                }
                match known.iter().find(|(name, _)| *name == stripped) {
                    None => return Err(format!("unknown option --{stripped}")),
                    Some((_, true)) => {
                        options.insert(stripped.to_string(), "true".to_string());
                    }
                    Some((_, false)) => pending_key = Some(stripped.to_string()),
                }
            } else if let Some(key) = pending_key.take() {
                options.insert(key, token);
            } else {
                positionals.push(token);
            }
        }
        if let Some(key) = pending_key {
            options.insert(key, "true".to_string());
        }
        Ok(Args { command, options, positionals })
    }

    /// Required string option.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Optional string option with default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(|s| s.as_str()).unwrap_or(default)
    }

    /// Optional parsed option with default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v:?}")),
        }
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[(&str, bool)] = &[
        ("kg", false),
        ("pattern", false),
        ("quiet", true),
        ("scale", false),
        ("verbose", true),
    ];

    fn try_parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(tokens.iter().map(|s| s.to_string()), KNOWN)
    }

    fn parse(tokens: &[&str]) -> Args {
        try_parse(tokens).unwrap()
    }

    #[test]
    fn parses_subcommand_and_options() {
        let a = parse(&["extract", "--kg", "g.nt", "--pattern", "d2h1", "--verbose"]);
        assert_eq!(a.command, "extract");
        assert_eq!(a.required("kg").unwrap(), "g.nt");
        assert_eq!(a.get_or("pattern", "d1h1"), "d2h1");
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn parse_or_types() {
        let a = parse(&["gen", "--scale", "0.25"]);
        assert_eq!(a.parse_or("scale", 1.0).unwrap(), 0.25);
        assert_eq!(a.parse_or("seed", 7u64).unwrap(), 7);
        assert!(a.parse_or::<u64>("scale", 0).is_err());
    }

    #[test]
    fn missing_required_is_error() {
        let a = parse(&["stats"]);
        assert!(a.required("kg").is_err());
    }

    #[test]
    fn collects_positionals() {
        let a = parse(&["trace-summary", "trace.jsonl", "--quiet"]);
        assert_eq!(a.positionals, vec!["trace.jsonl"]);
        assert!(a.flag("quiet"));
        // A value following `--key` still binds to the key, not positionals.
        let b = parse(&["extract", "--kg", "g.nt"]);
        assert!(b.positionals.is_empty());
    }

    #[test]
    fn flags_never_take_a_value() {
        let a = parse(&["trace-summary", "--quiet", "trace.jsonl", "--kg", "g.nt"]);
        assert!(a.flag("quiet"));
        assert_eq!(a.positionals, vec!["trace.jsonl"]);
        assert_eq!(a.required("kg").unwrap(), "g.nt");
    }

    #[test]
    fn unknown_option_is_an_error_naming_it() {
        let err = try_parse(&["generate", "--kg", "g.nt", "--bogus-option", "3"]).unwrap_err();
        assert!(err.contains("--bogus-option"), "{err}");
    }
}
