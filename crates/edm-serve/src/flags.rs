//! Command-line flag lookup shared by the `edm-cli`, `edm-serve`, and
//! `edm-fleet` binaries.
//!
//! Flags are `--name VALUE` pairs or bare `--switch`es in any order; the
//! first occurrence of a name wins. [`check`] rejects anything outside a
//! binary's declared set, so a misspelled flag is a usage error instead
//! of a silently ignored argument.

use std::fmt;

/// A command line that could not be understood (exit code 2 in every
/// binary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagError(pub String);

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FlagError {}

/// `name N` as an integer, or `None` when the flag is absent.
///
/// # Errors
///
/// `{name} expects an integer` when the value is missing or not a `u64`.
///
/// # Examples
///
/// ```
/// use edm_serve::flags;
/// let args: Vec<String> = ["--threads", "4"].map(String::from).to_vec();
/// assert_eq!(flags::int(&args, "--threads"), Ok(Some(4)));
/// assert_eq!(flags::int(&args, "--queue"), Ok(None));
/// ```
pub fn int(args: &[String], name: &str) -> Result<Option<u64>, FlagError> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| FlagError(format!("{name} expects an integer"))),
        None => Ok(None),
    }
}

/// `name VALUE` as text, or `None` when the flag is absent.
///
/// # Errors
///
/// `{name} expects a value` when the flag is the last argument.
pub fn text(args: &[String], name: &str) -> Result<Option<String>, FlagError> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| FlagError(format!("{name} expects a value"))),
        None => Ok(None),
    }
}

/// Every value of a repeatable `name VALUE` flag, in order.
///
/// # Errors
///
/// `{name} expects a value` when an occurrence is the last argument.
pub fn all(args: &[String], name: &str) -> Result<Vec<String>, FlagError> {
    let mut values = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if arg == name {
            let value = args
                .get(i + 1)
                .ok_or_else(|| FlagError(format!("{name} expects a value")))?;
            values.push(value.clone());
        }
    }
    Ok(values)
}

/// Whether the bare switch `name` is present.
pub fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Accepts the command line only if every argument is a declared switch,
/// a declared valued flag, or the value that follows one.
///
/// # Errors
///
/// `unknown argument '{arg}'` for the first argument outside the set.
///
/// # Examples
///
/// ```
/// use edm_serve::flags;
/// let args: Vec<String> = ["--thread", "2"].map(String::from).to_vec();
/// assert!(flags::check(&args, &["--threads"], &[]).is_err());
/// ```
pub fn check(args: &[String], valued: &[&str], switches: &[&str]) -> Result<(), FlagError> {
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if valued.contains(&arg) {
            // A missing value is reported by the lookup, with its wording.
            i += 2;
        } else if switches.contains(&arg) {
            i += 1;
        } else {
            return Err(FlagError(format!("unknown argument '{arg}'")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn lookups_take_the_first_occurrence_and_report_bad_values() {
        let a = args(&["--seed", "7", "--seed", "9", "--name", "x", "--on"]);
        assert_eq!(int(&a, "--seed"), Ok(Some(7)));
        assert_eq!(text(&a, "--name"), Ok(Some("x".into())));
        assert_eq!(all(&a, "--seed"), Ok(vec!["7".into(), "9".into()]));
        assert!(switch(&a, "--on"));
        assert!(!switch(&a, "--off"));
        let bad = args(&["--threads", "two", "--out"]);
        assert_eq!(
            int(&bad, "--threads").unwrap_err().to_string(),
            "--threads expects an integer"
        );
        assert_eq!(
            text(&bad, "--out").unwrap_err().to_string(),
            "--out expects a value"
        );
    }

    #[test]
    fn check_rejects_anything_outside_the_declared_set() {
        let valued = ["--threads", "--journal"];
        let switches = ["--controller"];
        let ok = args(&["--threads", "2", "--controller", "--journal", "--x"]);
        assert_eq!(check(&ok, &valued, &switches), Ok(()));
        for bad in [
            &["--thread", "2"][..],
            &["--controler"][..],
            &["--threads", "2", "stray"][..],
        ] {
            let err = check(&args(bad), &valued, &switches).unwrap_err();
            assert!(err.0.starts_with("unknown argument"), "{err}");
        }
        // A trailing valued flag passes the check; its lookup reports it.
        let trailing = args(&["--threads"]);
        assert_eq!(check(&trailing, &valued, &switches), Ok(()));
        assert!(int(&trailing, "--threads").is_err());
    }
}
