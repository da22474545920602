//! The typed write boundary both trees share.
//!
//! A write entry checks its whole input once, before any state changes,
//! and names the first offending object by its index in the call's input.
//! The `try_` entries return the [`InputError`]; the panicking entries
//! panic with its [`Display`](std::fmt::Display) text, which starts with
//! the check's fixed message.

/// A write input a tree rejects, naming the offending object by its index
/// in the call's input (`0` for a single point).  Returned by the `try_`
/// write entries before any state changes; the panicking entries panic
/// with its [`Display`](std::fmt::Display) text, which starts with the
/// check's fixed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputError {
    /// Point `index` has `found` coordinates where the tree stores
    /// `expected`.
    Dimensionality {
        /// Index of the offending point.
        index: usize,
        /// The tree's dimensionality.
        expected: usize,
        /// The point's length.
        found: usize,
    },
    /// Point `index` has a NaN or infinite coordinate (at dimension
    /// `dim`): one non-finite value folded into a summary voids every
    /// certified bound of its shard.
    NonFinite {
        /// Index of the offending point.
        index: usize,
        /// The first non-finite coordinate.
        dim: usize,
    },
    /// The write's timestamp is NaN or infinite (ClusTree writes): decay
    /// from a non-finite instant voids every cluster feature it touches.
    NonFiniteTimestamp,
    /// Object `index` carries `label`, but the classifier has only
    /// `classes` classes.
    LabelOutOfRange {
        /// Index of the offending object.
        index: usize,
        /// Its label.
        label: usize,
        /// The number of classes.
        classes: usize,
    },
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            InputError::Dimensionality {
                index,
                expected,
                found,
            } => write!(
                f,
                "point dimensionality mismatch: point {index} has {found} coordinates, \
                 expected {expected}"
            ),
            InputError::NonFinite { index, dim } => write!(
                f,
                "point coordinates must be finite: point {index} has a non-finite \
                 coordinate at dimension {dim}"
            ),
            InputError::NonFiniteTimestamp => write!(f, "timestamps must be finite"),
            InputError::LabelOutOfRange {
                index,
                label,
                classes,
            } => write!(
                f,
                "label out of range: object {index} has label {label}, there are {classes} \
                 classes"
            ),
        }
    }
}

impl std::error::Error for InputError {}

/// Checks point `index` of a write: its dimensionality, then its
/// coordinates' finiteness.
///
/// # Errors
///
/// [`InputError::Dimensionality`] or [`InputError::NonFinite`] naming
/// `index`.
pub fn check_point(index: usize, point: &[f64], dims: usize) -> Result<(), InputError> {
    if point.len() != dims {
        return Err(InputError::Dimensionality {
            index,
            expected: dims,
            found: point.len(),
        });
    }
    match point.iter().position(|v| !v.is_finite()) {
        Some(dim) => Err(InputError::NonFinite { index, dim }),
        None => Ok(()),
    }
}

/// Checks a batch of points in one pass; the first offending point wins.
/// Every write entry and bulk loader runs it before any state changes:
/// one NaN or infinity folded into a summary voids every certified bound
/// of its shard.
///
/// # Errors
///
/// The first offending point's [`InputError`].
pub fn check_points<P: AsRef<[f64]>>(points: &[P], dims: usize) -> Result<(), InputError> {
    points
        .iter()
        .enumerate()
        .try_for_each(|(index, point)| check_point(index, point.as_ref(), dims))
}

/// Unwraps a write's check, panicking with the error's message: the
/// panicking write entries of both trees wrap their `try_` forms with it.
pub fn or_panic<T>(checked: Result<T, InputError>) -> T {
    checked.unwrap_or_else(|e| panic!("{e}"))
}
