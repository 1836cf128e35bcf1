//! Request parameter validation shared by `edm-cli` and the service.
//!
//! Both front-ends accept `--shots` / `--threads` style parameters; both
//! must reject the same degenerate values with the same wording, at the
//! boundary, instead of panicking somewhere inside the pipeline.

use qsim::parallel::MAX_SHOTS;
use std::fmt;

/// A rejected request parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// `shots` was zero.
    ZeroShots,
    /// `shots` exceeded [`MAX_SHOTS`].
    TooManyShots(u64),
    /// `threads` was explicitly zero.
    ZeroThreads,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::ZeroShots => {
                write!(f, "shots must be at least 1 (got 0)")
            }
            ValidationError::TooManyShots(shots) => {
                write!(f, "shots must be at most {MAX_SHOTS} (got {shots})")
            }
            ValidationError::ZeroThreads => {
                write!(
                    f,
                    "threads must be at least 1 (got 0); omit the flag to size by CPU count"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates a shot budget: zero shots can never produce a histogram, and
/// the simulator fails a job above [`MAX_SHOTS`] anyway.
///
/// # Errors
///
/// Returns [`ValidationError::ZeroShots`] when `shots == 0` and
/// [`ValidationError::TooManyShots`] when `shots > MAX_SHOTS`.
///
/// # Examples
///
/// ```
/// use edm_serve::validate;
/// assert_eq!(validate::shots(4096), Ok(4096));
/// assert!(validate::shots(0).is_err());
/// assert!(validate::shots(u64::MAX).is_err());
/// ```
pub fn shots(shots: u64) -> Result<u64, ValidationError> {
    match shots {
        0 => Err(ValidationError::ZeroShots),
        n if n > MAX_SHOTS => Err(ValidationError::TooManyShots(n)),
        n => Ok(n),
    }
}

/// Validates an *optional* thread cap: an absent flag means "size by CPU
/// count", but an explicit `0` is a user error, not auto mode.
///
/// # Errors
///
/// Returns [`ValidationError::ZeroThreads`] when `threads == Some(0)`.
///
/// # Examples
///
/// ```
/// use edm_serve::validate;
/// assert_eq!(validate::threads(None), Ok(None));
/// assert_eq!(validate::threads(Some(4)), Ok(Some(4)));
/// assert!(validate::threads(Some(0)).is_err());
/// ```
pub fn threads(threads: Option<u64>) -> Result<Option<usize>, ValidationError> {
    match threads {
        None => Ok(None),
        Some(0) => Err(ValidationError::ZeroThreads),
        Some(n) => Ok(Some(n as usize)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shots_rejects_zero_and_budgets_above_the_simulator_bound() {
        assert_eq!(shots(1), Ok(1));
        assert_eq!(shots(MAX_SHOTS), Ok(MAX_SHOTS));
        assert_eq!(shots(0), Err(ValidationError::ZeroShots));
        assert!(ValidationError::ZeroShots.to_string().contains("got 0"));
        assert_eq!(
            shots(MAX_SHOTS + 1),
            Err(ValidationError::TooManyShots(MAX_SHOTS + 1))
        );
        let too_many = shots(u64::MAX).unwrap_err().to_string();
        assert!(
            too_many.contains("at most 1073741824") && too_many.contains("18446744073709551615"),
            "{too_many}"
        );
    }

    #[test]
    fn threads_distinguishes_absent_from_explicit_zero() {
        assert_eq!(threads(None), Ok(None));
        assert_eq!(threads(Some(8)), Ok(Some(8)));
        assert_eq!(threads(Some(0)), Err(ValidationError::ZeroThreads));
        assert!(ValidationError::ZeroThreads
            .to_string()
            .contains("omit the flag"));
    }
}
