//! The `PE_*` environment knobs of the serving binaries: an unset variable
//! means the default, and a set value that cannot be used is an
//! [`EnvError`] naming the variable and the value — never a silent default.
//!
//! The parsers take the variable's value as an argument (`None` when unset)
//! so they are testable without touching the process environment.

use std::fmt;
use std::str::FromStr;

/// A `PE_*` variable set to a value its reader cannot use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable's name.
    pub var: String,
    /// The value it was set to.
    pub value: String,
    /// What the reader accepts.
    pub(crate) expected: String,
}

impl EnvError {
    /// `var` was set to `value`; its reader accepts `expected`.
    pub fn new(var: &str, value: &str, expected: &str) -> EnvError {
        EnvError {
            var: var.to_string(),
            value: value.to_string(),
            expected: expected.to_string(),
        }
    }
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?} is invalid: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvError {}

/// The value of `var` in the process environment, `None` when unset. A
/// value that is not UTF-8 is passed on lossily, so its reader rejects it
/// rather than treating it as unset.
pub fn env_value(var: &str) -> Option<String> {
    std::env::var_os(var).map(|v| v.to_string_lossy().into_owned())
}

/// Parses `value` (the value of `var`, `None` when unset) as a `T`,
/// returning `default` when unset.
///
/// # Errors
///
/// [`EnvError`] when `value` is set but does not parse.
pub(crate) fn parse_var<T: FromStr>(
    var: &str,
    value: Option<&str>,
    default: T,
    expected: &str,
) -> Result<T, EnvError> {
    match value {
        None => Ok(default),
        Some(v) => v
            .trim()
            .parse()
            .map_err(|_| EnvError::new(var, v, expected)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_is_the_default_and_a_bad_value_names_itself() {
        assert_eq!(parse_var("PE_X", None, 7usize, "an integer"), Ok(7));
        assert_eq!(
            parse_var("PE_X", Some(" 12 "), 7usize, "an integer"),
            Ok(12)
        );
        let err = parse_var("PE_X", Some("12k"), 7usize, "an integer").unwrap_err();
        assert_eq!(
            err.to_string(),
            "PE_X=\"12k\" is invalid: expected an integer"
        );
    }
}
