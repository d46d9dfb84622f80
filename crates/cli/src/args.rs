//! Minimal `--flag value` parser.

use std::collections::HashMap;

/// Parsed `--name value` flags.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
}

/// Parses a flat list of `--name value` pairs. Bare `--name` without a
/// value and positional arguments are rejected — every option here takes
/// a value, which keeps the grammar unambiguous.
pub fn parse_flags(argv: &[String]) -> Result<Flags, String> {
    let mut values = HashMap::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected positional argument `{arg}`"));
        };
        let Some(value) = it.next() else {
            return Err(format!("flag --{name} needs a value"));
        };
        if values.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("flag --{name} given twice"));
        }
    }
    Ok(Flags { values })
}

impl Flags {
    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Fails on a flag not named in the space-separated `known` list,
    /// naming it (the alphabetically first, when there are several).
    pub fn check_known(&self, command: &str, known: &str) -> Result<(), String> {
        let mut unknown: Vec<&str> = self
            .values
            .keys()
            .map(String::as_str)
            .filter(|name| !known.split_whitespace().any(|k| k == *name))
            .collect();
        unknown.sort_unstable();
        match unknown.first() {
            Some(name) => Err(format!(
                "unknown flag --{name} for `{command}`; run `hisrect help`"
            )),
            None => Ok(()),
        }
    }

    /// An optional parsed flag with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let f = parse_flags(&argv(&["--seed", "7", "--out", "x.json"])).unwrap();
        assert_eq!(f.require("seed").unwrap(), "7");
        assert_eq!(f.get("out"), Some("x.json"));
        assert_eq!(f.get("missing"), None);
        assert_eq!(f.parse_or("seed", 0u64).unwrap(), 7);
        assert_eq!(f.parse_or("top-k", 3usize).unwrap(), 3);
    }

    #[test]
    fn rejects_positionals_and_dangling_flags() {
        assert!(parse_flags(&argv(&["positional"])).is_err());
        assert!(parse_flags(&argv(&["--flag"])).is_err());
        assert!(parse_flags(&argv(&["--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn missing_required_flag_reports_name() {
        let f = parse_flags(&argv(&[])).unwrap();
        let err = f.require("corpus").unwrap_err();
        assert!(err.contains("--corpus"));
    }

    #[test]
    fn unknown_flags_are_named() {
        let f = parse_flags(&argv(&["--seed", "7", "--zeta", "1", "--beta", "2"])).unwrap();
        let err = f.check_known("stats", "threads seed").unwrap_err();
        assert!(err.contains("--beta"), "{err}");
        assert!(f.check_known("stats", "seed beta zeta").is_ok());
    }

    #[test]
    fn bad_parse_reports_value() {
        let f = parse_flags(&argv(&["--seed", "abc"])).unwrap();
        assert!(f.parse_or("seed", 0u64).is_err());
    }
}
