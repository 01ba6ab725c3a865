//! Minimal flag parsing for the `ftcoma` binary (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The subcommand (first positional argument).
    pub command: String,
    /// Second-level action (only the `trace` command takes one, e.g.
    /// `ftcoma trace summarize`); `None` everywhere else.
    pub subcommand: Option<String>,
    flags: HashMap<String, String>,
}

/// A command-line error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Parsed {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Rejects missing subcommands, flags without values, repeated flags
    /// and stray positional arguments.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Parsed, ArgError> {
        let mut it = args.into_iter();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing subcommand".into()))?;
        if command.starts_with('-') {
            return Err(ArgError(format!(
                "expected a subcommand, got flag {command}"
            )));
        }
        let mut flags = HashMap::new();
        let mut subcommand = None;
        let mut first = true;
        while let Some(a) = it.next() {
            // `trace` takes a second-level action word; every other
            // command rejects stray positionals.
            if first && command == "trace" && !a.starts_with('-') {
                subcommand = Some(a);
                first = false;
                continue;
            }
            first = false;
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| ArgError(format!("unexpected positional argument {a}")))?;
            if key.is_empty() {
                return Err(ArgError("empty flag name".into()));
            }
            let value = if matches!(
                key,
                "no-ft" | "verify" | "wormhole" | "json" | "net-faults" | "soak" | "nested"
            ) {
                "true".to_string() // boolean flags take no value
            } else {
                it.next()
                    .ok_or_else(|| ArgError(format!("flag --{key} needs a value")))?
            };
            if flags.insert(key.to_string(), value).is_some() {
                return Err(ArgError(format!("flag --{key} given twice")));
            }
        }
        Ok(Parsed {
            command,
            subcommand,
            flags,
        })
    }

    /// String flag with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Integer flag with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: bad integer {v}"))),
        }
    }

    /// Integer flag with a default, narrowed to the flag's field type.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse or does not fit in `T`.
    pub fn int_or<T: TryFrom<u64>>(&self, key: &str, default: T) -> Result<T, ArgError> {
        if !self.has(key) {
            return Ok(default);
        }
        let v = self.u64_or(key, 0)?;
        T::try_from(v).map_err(|_| ArgError(format!("--{key}: {v} is out of range")))
    }

    /// Float flag with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: bad number {v}"))),
        }
    }

    /// Boolean (valueless) flag.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Comma-separated float list with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if any element does not parse.
    pub fn f64_list_or(&self, key: &str, default: &[f64]) -> Result<Vec<f64>, ArgError> {
        match self.flags.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim()
                        .parse()
                        .map_err(|_| ArgError(format!("--{key}: bad number {x}")))
                })
                .collect(),
        }
    }

    /// Names of flags the command did not consume (typo guard).
    pub fn assert_only(&self, known: &[&str]) -> Result<(), ArgError> {
        for k in self.flags.keys() {
            if !known.contains(&k.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{k} for `{}`",
                    self.command
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Parsed, ArgError> {
        Parsed::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = p("run --workload mp3d --nodes 16 --no-ft").unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.str_or("workload", "water"), "mp3d");
        assert_eq!(a.u64_or("nodes", 9).unwrap(), 16);
        assert!(a.has("no-ft"));
        assert_eq!(a.u64_or("refs", 1000).unwrap(), 1000);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(p("").is_err());
        assert!(p("--run").is_err());
        assert!(p("run --nodes").is_err());
        assert!(p("run stray").is_err());
        assert!(p("run --nodes 4 --nodes 5").is_err());
        assert!(p("run --nodes four").unwrap().u64_or("nodes", 1).is_err());
        assert!(p("run --nodes 65540")
            .unwrap()
            .int_or("nodes", 1u16)
            .is_err());
        assert_eq!(p("run --nodes 9").unwrap().int_or("nodes", 1u16), Ok(9));
    }

    #[test]
    fn float_lists() {
        let a = p("sweep --freqs 400,100,5").unwrap();
        assert_eq!(
            a.f64_list_or("freqs", &[1.0]).unwrap(),
            vec![400.0, 100.0, 5.0]
        );
        let b = p("sweep").unwrap();
        assert_eq!(b.f64_list_or("freqs", &[1.0]).unwrap(), vec![1.0]);
    }

    #[test]
    fn trace_takes_an_action_word() {
        let a = p("trace summarize --spans out.jsonl --top 5").unwrap();
        assert_eq!(a.command, "trace");
        assert_eq!(a.subcommand.as_deref(), Some("summarize"));
        assert_eq!(a.str_or("spans", ""), "out.jsonl");
        // Only `trace` accepts a positional action; other commands don't.
        assert!(p("run stray").is_err());
        assert_eq!(p("trace --spans x").unwrap().subcommand, None);
    }

    #[test]
    fn unknown_flag_guard() {
        let a = p("run --bogus 3").unwrap();
        assert!(a.assert_only(&["nodes"]).is_err());
        assert!(a.assert_only(&["bogus"]).is_ok());
    }
}
