//! A small dependency-free argument parser: `--key value` flags and
//! positional words.

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse from an iterator of arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if name.is_empty() {
                    return Err("bare '--' is not a flag".into());
                }
                // `--flag=value` or `--flag value`; a flag followed by
                // another flag (or nothing) is boolean.
                if let Some((k, v)) = name.split_once('=') {
                    out.flags.insert(k.to_string(), v.to_string());
                } else {
                    match it.peek() {
                        Some(next) if !next.starts_with("--") => {
                            let v = it.next().expect("peeked");
                            out.flags.insert(name.to_string(), v);
                        }
                        _ => {
                            out.flags.insert(name.to_string(), "true".to_string());
                        }
                    }
                }
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// Positional argument at `i`.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Raw string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// String flag with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// Parsed numeric flag with a default.
    pub fn get_parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }

    /// Boolean flag presence.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse(&["crack", "--algo", "md5", "--threads=8", "--verbose"]);
        assert_eq!(a.positional(0), Some("crack"));
        assert_eq!(a.get("algo"), Some("md5"));
        assert_eq!(a.get_parse_or::<usize>("threads", 1).unwrap(), 8);
        assert!(a.has("verbose"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["x"]);
        assert_eq!(a.get_or("algo", "md5"), "md5");
        assert_eq!(a.get_parse_or::<u32>("min", 1).unwrap(), 1);
    }

    #[test]
    fn invalid_numbers_error() {
        let a = parse(&["--threads", "lots"]);
        assert!(a.get_parse_or::<usize>("threads", 1).is_err());
    }

    #[test]
    fn boolean_flag_before_another_flag() {
        let a = parse(&["--all", "--algo", "sha1"]);
        assert!(a.has("all"));
        assert_eq!(a.get("algo"), Some("sha1"));
    }
}
