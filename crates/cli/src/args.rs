//! Minimal flag parsing: `--key value` pairs plus positionals.

use std::fmt;
use uopcache_model::hash::FastHashMap;

/// A parsed command line.
#[derive(Clone, Debug, Default)]
pub(crate) struct Args {
    positionals: Vec<String>,
    flags: FastHashMap<String, String>,
    switches: Vec<String>,
}

/// A missing or malformed argument.
#[derive(Debug)]
pub(crate) struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// A command that found problems and already reported them: the caller
/// should exit nonzero with the message but skip the usage text.
#[derive(Debug)]
pub(crate) struct CheckFailed(pub String);

impl fmt::Display for CheckFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CheckFailed {}

impl Args {
    /// Parses `argv`. `--key value` becomes a flag, a bare `--key` followed
    /// by another flag (or nothing) becomes a switch, everything else a
    /// positional. `-i`/`-o` are aliases for `--input`/`--output`.
    pub(crate) fn parse(argv: &[String]) -> Args {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            if let Some(stripped) = token.strip_prefix("--") {
                let key = stripped.to_string();
                if i + 1 < argv.len() && !argv[i + 1].starts_with('-') {
                    args.flags.insert(key, argv[i + 1].clone());
                    i += 2;
                } else {
                    args.switches.push(key);
                    i += 1;
                }
            } else if token == "-i" || token == "-o" {
                let key = if token == "-i" { "input" } else { "output" };
                if i + 1 < argv.len() {
                    args.flags.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    args.switches.push(key.to_string());
                    i += 1;
                }
            } else {
                args.positionals.push(token.clone());
                i += 1;
            }
        }
        args
    }

    /// The n-th positional argument.
    pub(crate) fn positional(&self, n: usize) -> Option<&str> {
        self.positionals.get(n).map(String::as_str)
    }

    /// A string flag.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns an error naming the missing flag.
    pub(crate) fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing --{key}")))
    }

    /// A parsed numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub(crate) fn get_parse<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} {v:?} is not a valid value"))),
        }
    }

    /// Whether a bare `--switch` was given.
    pub(crate) fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Checks every flag and switch given against the ones a command
    /// accepts.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first (in name order) flag not in
    /// `known`.
    pub(crate) fn reject_unknown(&self, known: &[&str]) -> Result<(), ArgError> {
        let mut given: Vec<&str> = self
            .flags
            .keys()
            .chain(&self.switches)
            .map(String::as_str)
            .collect();
        given.sort_unstable();
        match given.into_iter().find(|key| !known.contains(key)) {
            Some(key) => Err(ArgError(format!("unknown flag --{key}"))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn flags_positionals_switches() {
        let a = parse("gen --app kafka --len 100 --quick -o out.trc");
        assert_eq!(a.positional(0), Some("gen"));
        assert_eq!(a.get("app"), Some("kafka"));
        assert_eq!(a.get_parse::<usize>("len", 5).unwrap(), 100);
        assert!(a.has("quick"));
        assert_eq!(a.get("output"), Some("out.trc"));
    }

    #[test]
    fn defaults_and_errors() {
        let a = parse("simulate");
        assert_eq!(a.get_parse::<u32>("variant", 7).unwrap(), 7);
        assert!(a.require("input").is_err());
        let a = parse("x --len abc");
        assert!(a.get_parse::<usize>("len", 1).is_err());
    }

    #[test]
    fn unknown_flags_are_named() {
        let a = parse("serve --shard 2 --addr :0 --verbose");
        assert!(a.reject_unknown(&["addr", "shard", "verbose"]).is_ok());
        let err = a.reject_unknown(&["addr", "shards"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --shard");
        let a = parse("gen -o out.trc");
        assert!(a.reject_unknown(&["output"]).is_ok());
        assert!(a.reject_unknown(&["app"]).is_err());
    }
}
