//! A tiny `--flag value` / `--flag` argument parser (no external crates).

use std::collections::BTreeMap;
use tracto_trace::{TractoError, TractoResult};

/// Flags accepted by every subcommand (stripped by the top-level driver).
pub const GLOBAL_FLAGS: [&str; 2] = ["trace", "trace-stderr"];

/// Parsed flags: `--key value` pairs plus bare `--switch`es.
#[derive(Debug, Clone, Default)]
pub struct ArgMap {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl ArgMap {
    /// Parse a flat argument list. Every token must be `--name` optionally
    /// followed by a non-flag value.
    pub fn parse(args: &[String]) -> TractoResult<Self> {
        let mut map = ArgMap::default();
        let mut i = 0;
        while i < args.len() {
            let tok = &args[i];
            let Some(name) = tok.strip_prefix("--") else {
                return Err(TractoError::config(format!(
                    "unexpected positional argument `{tok}`"
                )));
            };
            if name.is_empty() {
                return Err(TractoError::config("empty flag `--`"));
            }
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                map.values.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                map.switches.push(name.to_string());
                i += 1;
            }
        }
        Ok(map)
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> TractoResult<&str> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| TractoError::config(format!("missing required flag --{name}")))
    }

    /// An optional string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Optional flag parsed to a type, with default.
    pub fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> TractoResult<T> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| TractoError::config(format!("flag --{name}: cannot parse `{v}`"))),
        }
    }

    /// Whether a bare switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Reject any flag outside `valid` (the [`GLOBAL_FLAGS`] are always
    /// accepted). The error lists what the subcommand does accept.
    pub fn reject_unknown(&self, valid: &[&str]) -> TractoResult<()> {
        let known = |name: &str| valid.contains(&name) || GLOBAL_FLAGS.contains(&name);
        let unknown: Vec<&str> = self
            .values
            .keys()
            .map(String::as_str)
            .chain(self.switches.iter().map(String::as_str))
            .filter(|name| !known(name))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        let mut accepted: Vec<&str> = valid.iter().chain(GLOBAL_FLAGS.iter()).copied().collect();
        accepted.sort_unstable();
        let accepted: Vec<String> = accepted.iter().map(|f| format!("--{f}")).collect();
        Err(TractoError::config(format!(
            "unknown flag --{} (valid flags: {})",
            unknown[0],
            accepted.join(", ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_trace::ErrorKind;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let a = ArgMap::parse(&strs(&["--out", "dir", "--point", "--scale", "0.5"])).unwrap();
        assert_eq!(a.required("out").unwrap(), "dir");
        assert!(a.switch("point"));
        assert_eq!(a.get_parse("scale", 1.0).unwrap(), 0.5);
        assert!(!a.switch("light"));
    }

    #[test]
    fn rejects_positional() {
        let err = ArgMap::parse(&strs(&["oops"])).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
    }

    #[test]
    fn missing_required_reported() {
        let a = ArgMap::parse(&strs(&[])).unwrap();
        let err = a.required("data").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(err.to_string().contains("--data"));
    }

    #[test]
    fn bad_parse_reported() {
        let a = ArgMap::parse(&strs(&["--n", "abc"])).unwrap();
        let err = a.get_parse("n", 0usize).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
    }

    #[test]
    fn default_used_when_absent() {
        let a = ArgMap::parse(&strs(&[])).unwrap();
        assert_eq!(a.get_parse("n", 7usize).unwrap(), 7);
    }

    #[test]
    fn negative_numbers_are_values() {
        // A value starting with '-' but not '--' is accepted as a value.
        let a = ArgMap::parse(&strs(&["--offset", "-3.5"])).unwrap();
        assert_eq!(a.get_parse("offset", 0.0).unwrap(), -3.5);
    }

    #[test]
    fn unknown_flags_rejected_with_listing() {
        let a = ArgMap::parse(&strs(&["--out", "dir", "--frobnicate"])).unwrap();
        let err = a.reject_unknown(&["out", "scale"]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        let text = err.to_string();
        assert!(text.contains("--frobnicate"));
        assert!(text.contains("--out") && text.contains("--scale"));
    }

    #[test]
    fn global_trace_flags_always_accepted() {
        let a = ArgMap::parse(&strs(&[
            "--out",
            "dir",
            "--trace",
            "t.jsonl",
            "--trace-stderr",
        ]))
        .unwrap();
        a.reject_unknown(&["out"]).unwrap();
    }
}
