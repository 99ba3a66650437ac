//! The typed value layer shared by the parser (literals, bound parameters)
//! and the executor (result frames).
//!
//! Every cell that crosses the SQL/engine boundary is a [`Value`]; the string
//! form only exists at the display edge (see [`crate::fmt`]). Timestamps and
//! intervals reuse the engine's millisecond types so no precision is lost
//! between a query parameter and the index it probes.

use hermes_trajectory::{Duration, Timestamp};
use std::fmt;

/// The type of a column (or of a non-null value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Instant on the dataset time axis (millisecond precision).
    Timestamp,
    /// Signed length of time (millisecond precision).
    Interval,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ValueType::Bool => "bool",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Text => "text",
            ValueType::Timestamp => "timestamp",
            ValueType::Interval => "interval",
        };
        f.write_str(name)
    }
}

impl ValueType {
    /// True for types rendered right-aligned in tables.
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            ValueType::Int | ValueType::Float | ValueType::Timestamp | ValueType::Interval
        )
    }
}

/// A single typed datum: a literal in a statement, a bound parameter, or a
/// cell of a result [`Frame`](crate::Frame).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent datum; admissible in any column.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Instant on the dataset time axis.
    Timestamp(Timestamp),
    /// Signed length of time.
    Interval(Duration),
}

impl Value {
    /// The type of the value; `None` for [`Value::Null`].
    pub fn type_of(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Text(_) => Some(ValueType::Text),
            Value::Timestamp(_) => Some(ValueType::Timestamp),
            Value::Interval(_) => Some(ValueType::Interval),
        }
    }

    /// The value as an `i64`, converting where no information is lost:
    /// integers directly, timestamps and intervals to their milliseconds,
    /// floats only when integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Timestamp(t) => Some(t.millis()),
            Value::Interval(d) => Some(d.millis()),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// The value as an `f64`: floats directly, integers widened.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as text (only for [`Value::Text`]).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => f.write_str(&fmt_float(*v)),
            Value::Text(s) => f.write_str(s),
            Value::Timestamp(t) => write!(f, "{}", t.millis()),
            Value::Interval(d) => write!(f, "{}", d.millis()),
        }
    }
}

/// Renders a float so that it always reads back as a float: Rust's shortest
/// round-trip form, with a forced `.0` suffix on integral values (otherwise
/// `10000000.0` would render as `10000000` and re-lex as an integer).
pub(crate) fn fmt_float(v: f64) -> String {
    let s = format!("{v}");
    if s.bytes()
        .all(|b| b.is_ascii_digit() || b == b'-' || b == b'+')
    {
        format!("{s}.0")
    } else {
        s
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<Timestamp> for Value {
    fn from(v: Timestamp) -> Self {
        Value::Timestamp(v)
    }
}

impl From<Duration> for Value {
    fn from(v: Duration) -> Self {
        Value::Interval(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_milliseconds() {
        assert_eq!(Value::Timestamp(Timestamp(42)).as_i64(), Some(42));
        assert_eq!(
            Value::Interval(Duration::from_secs(2)).as_i64(),
            Some(2_000)
        );
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(7.5).as_i64(), None);
        assert_eq!(Value::Float(8.0).as_i64(), Some(8));
        assert_eq!(Value::Text("x".into()).as_i64(), None);
    }

    #[test]
    fn type_of_matches_the_variant() {
        assert_eq!(Value::Null.type_of(), None);
        assert_eq!(Value::Bool(true).type_of(), Some(ValueType::Bool));
        assert_eq!(Value::Int(1).type_of(), Some(ValueType::Int));
        assert_eq!(Value::Float(1.0).type_of(), Some(ValueType::Float));
        assert_eq!(Value::Text(String::new()).type_of(), Some(ValueType::Text));
        assert!(ValueType::Timestamp.is_numeric());
        assert!(!ValueType::Text.is_numeric());
    }

    #[test]
    fn float_display_always_reads_back_as_float() {
        assert_eq!(fmt_float(0.35), "0.35");
        assert_eq!(fmt_float(10_000_000.0), "10000000.0");
        assert_eq!(fmt_float(-3.0), "-3.0");
        // Whatever the textual form, it must re-parse to the same float.
        for v in [1.5e300, -7.25e-20, 0.1 + 0.2, f64::MIN_POSITIVE] {
            assert_eq!(fmt_float(v).parse::<f64>().unwrap(), v);
        }
    }

    #[test]
    fn null_renders_empty() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Text("ships".into()).to_string(), "ships");
        assert_eq!(Value::Timestamp(Timestamp(9)).to_string(), "9");
    }
}
