//! Minimal `--key value` option parser.
//!
//! Deliberately tiny instead of a dependency: options are `--name value`
//! pairs or bare `--flag`s; every access is typed and reports which option
//! failed. Unknown options are rejected at access time via
//! [`Args::finish`], which commands call after reading everything they
//! understand.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Parsed options with consumption tracking.
#[derive(Debug)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    consumed: RefCell<Vec<String>>,
}

impl Args {
    /// Parses `--key value` pairs and `--flag`s.
    ///
    /// A token starting with `--` followed by another `--token` (or
    /// nothing) is a flag; otherwise it pairs with the next token.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            let Some(name) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{tok}`"));
            };
            if name.is_empty() {
                return Err("bare `--` is not a valid option".to_string());
            }
            match argv.get(i + 1) {
                Some(next) if !next.starts_with("--") => {
                    if values.insert(name.to_string(), next.clone()).is_some() {
                        return Err(format!("option --{name} given twice"));
                    }
                    i += 2;
                }
                _ => {
                    flags.push(name.to_string());
                    i += 1;
                }
            }
        }
        Ok(Args {
            values,
            flags,
            consumed: RefCell::new(Vec::new()),
        })
    }

    /// `true` if the bare flag was present (e.g. `--help`).
    pub fn flag(&self, name: &str) -> bool {
        if self.flags.iter().any(|f| f == name) {
            self.consumed.borrow_mut().push(name.to_string());
            true
        } else {
            false
        }
    }

    /// Required string option.
    pub fn require(&self, name: &str) -> Result<String, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    /// Optional string option.
    pub fn get(&self, name: &str) -> Option<String> {
        self.consumed.borrow_mut().push(name.to_string());
        self.values.get(name).cloned()
    }

    /// Optional typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("option --{name}: cannot parse `{raw}`")),
        }
    }

    /// Rejects any option the command did not consume — catches typos like
    /// `--sample` for `--samples`.
    pub fn finish(&self) -> Result<(), String> {
        let consumed = self.consumed.borrow();
        for name in self.values.keys() {
            if !consumed.iter().any(|c| c == name) {
                return Err(format!("unknown option --{name}"));
            }
        }
        for name in &self.flags {
            if !consumed.iter().any(|c| c == name) {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn pairs_and_flags() {
        let a = parse(&["--graph", "g.edges", "--verbose", "--k", "30"]);
        assert_eq!(a.require("graph").unwrap(), "g.edges");
        assert!(a.flag("verbose"));
        assert_eq!(a.get_or::<usize>("k", 0).unwrap(), 30);
        assert!(a.finish().is_ok());
    }

    #[test]
    fn missing_required_reports_name() {
        let a = parse(&[]);
        let err = a.require("graph").unwrap_err();
        assert!(err.contains("--graph"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.get_or("samples", 80usize).unwrap(), 80);
        let a = parse(&["--samples", "12"]);
        assert_eq!(a.get_or("samples", 80usize).unwrap(), 12);
    }

    #[test]
    fn parse_errors_report_value() {
        let a = parse(&["--ratio", "abc"]);
        let err = a.get_or("ratio", 0.1f64).unwrap_err();
        assert!(err.contains("abc"));
    }

    #[test]
    fn positional_rejected() {
        let err =
            Args::parse(&["stray".to_string()]).unwrap_err();
        assert!(err.contains("positional"));
    }

    #[test]
    fn duplicate_option_rejected() {
        let err = Args::parse(
            &["--k".to_string(), "1".to_string(), "--k".to_string(), "2".to_string()],
        )
        .unwrap_err();
        assert!(err.contains("twice"));
    }

    #[test]
    fn finish_rejects_unconsumed() {
        let a = parse(&["--typo", "x"]);
        assert!(a.finish().unwrap_err().contains("--typo"));
        let a = parse(&["--mystery-flag"]);
        assert!(a.finish().unwrap_err().contains("--mystery-flag"));
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse(&["--quiet", "--k", "3"]);
        assert!(a.flag("quiet"));
        assert_eq!(a.get_or::<u32>("k", 0).unwrap(), 3);
        assert!(a.finish().is_ok());
    }
}
