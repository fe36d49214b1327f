//! A small dynamic value tree shared by the TOML and JSON codecs.
//!
//! The scenario formats are declarative trees of tables, arrays, and
//! scalars; both text formats parse into this one representation, and
//! the scenario codec reads/writes it without caring which syntax the
//! bytes were in.

use crate::scenario::ConfigError;

/// The deepest nesting of tables and arrays the TOML and JSON parsers
/// accept. The parsers, the codec and `Drop` all recurse once per
/// level, so an unbounded document could overflow the stack; 128 levels
/// leave room for the deepest valid trigger condition (64 nested
/// `and`/`or` levels) inside a timeline.
pub(crate) const MAX_NESTING: usize = 128;

/// One node of a parsed scenario document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// An integer (wide enough for `u64` seeds to round-trip exactly).
    Int(i128),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered list.
    Array(Vec<Value>),
    /// An insertion-ordered key→value table.
    Table(Vec<(String, Value)>),
}

impl Value {
    /// An empty table.
    pub fn table() -> Self {
        Value::Table(Vec::new())
    }

    /// Type name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }

    /// Looks up `key` in a table.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Table(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Inserts (or replaces) `key` in a table. Panics on non-tables —
    /// the codec only calls this while building tables.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let Value::Table(pairs) = self else {
            panic!("insert on {}", self.kind());
        };
        let key = key.into();
        if let Some(slot) = pairs.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            pairs.push((key, value));
        }
    }

    // ---- checked readers, all reporting through ConfigError ----------

    /// The value as a required table field.
    pub fn want(&self, key: &str) -> Result<&Value, ConfigError> {
        self.get(key)
            .ok_or_else(|| ConfigError::Parse(format!("missing key `{key}`")))
    }

    /// Reads this node as a `u64` (integers only; no silent float
    /// truncation).
    pub fn as_u64(&self, what: &str) -> Result<u64, ConfigError> {
        match self {
            Value::Int(i) => u64::try_from(*i)
                .map_err(|_| ConfigError::Parse(format!("{what}: {i} is out of range for u64"))),
            other => Err(ConfigError::Parse(format!(
                "{what}: expected integer, found {}",
                other.kind()
            ))),
        }
    }

    /// Reads this node as an `i64` (signed — deficit thresholds may be
    /// negative).
    pub fn as_i64(&self, what: &str) -> Result<i64, ConfigError> {
        match self {
            Value::Int(i) => i64::try_from(*i)
                .map_err(|_| ConfigError::Parse(format!("{what}: {i} is out of range for i64"))),
            other => Err(ConfigError::Parse(format!(
                "{what}: expected integer, found {}",
                other.kind()
            ))),
        }
    }

    /// Reads this node as a `usize`.
    pub fn as_usize(&self, what: &str) -> Result<usize, ConfigError> {
        self.as_u64(what).and_then(|v| {
            usize::try_from(v)
                .map_err(|_| ConfigError::Parse(format!("{what}: {v} is out of range for usize")))
        })
    }

    /// Reads this node as an `f64` (accepting integers, plus the
    /// string spellings `"inf"`/`"-inf"`/`"nan"` that JSON — which has
    /// no literal for them — uses for non-finite values).
    pub fn as_f64(&self, what: &str) -> Result<f64, ConfigError> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            Value::Str(s) => match s.as_str() {
                "inf" | "+inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "nan" => Ok(f64::NAN),
                _ => Err(ConfigError::Parse(format!(
                    "{what}: expected number, found string"
                ))),
            },
            other => Err(ConfigError::Parse(format!(
                "{what}: expected number, found {}",
                other.kind()
            ))),
        }
    }

    /// Reads this node as a bool.
    pub fn as_bool(&self, what: &str) -> Result<bool, ConfigError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(ConfigError::Parse(format!(
                "{what}: expected bool, found {}",
                other.kind()
            ))),
        }
    }

    /// Reads this node as a string slice.
    pub fn as_str(&self, what: &str) -> Result<&str, ConfigError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(ConfigError::Parse(format!(
                "{what}: expected string, found {}",
                other.kind()
            ))),
        }
    }

    /// Reads this node as an array slice.
    pub fn as_array(&self, what: &str) -> Result<&[Value], ConfigError> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(ConfigError::Parse(format!(
                "{what}: expected array, found {}",
                other.kind()
            ))),
        }
    }

    /// Reads this node as an array of `u64`s.
    pub fn as_u64_array(&self, what: &str) -> Result<Vec<u64>, ConfigError> {
        self.as_array(what)?
            .iter()
            .map(|v| v.as_u64(what))
            .collect()
    }
}

/// Builds `Value::Array` from `u64`s (demand vectors, thresholds).
pub fn u64_array(xs: &[u64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Int(i128::from(x))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_insert_get_replace() {
        let mut t = Value::table();
        t.insert("a", Value::Int(1));
        t.insert("b", Value::Bool(true));
        t.insert("a", Value::Int(2));
        assert_eq!(t.get("a"), Some(&Value::Int(2)));
        assert!(t.get("b").unwrap().as_bool("b").unwrap());
        assert!(t.get("c").is_none());
        assert!(t.want("c").is_err());
    }

    #[test]
    fn checked_readers_report_kinds() {
        let v = Value::Str("x".into());
        let err = v.as_u64("n").unwrap_err();
        assert!(err.to_string().contains("expected integer"), "{err}");
        assert_eq!(Value::Int(3).as_f64("x").unwrap(), 3.0);
        assert!(Value::Int(-1).as_u64("n").is_err());
    }

    #[test]
    fn u64_seeds_roundtrip_through_int() {
        let big = u64::MAX - 5;
        let v = Value::Int(i128::from(big));
        assert_eq!(v.as_u64("seed").unwrap(), big);
    }
}
