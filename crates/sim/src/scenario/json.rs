//! A self-contained JSON codec over the shared [`Value`] tree.
//!
//! Standard JSON minus `null` (scenario schemas express absence by
//! omitting the key); duplicate object keys are errors rather than
//! last-wins. Numbers parse as [`Value::Int`] when they are plain
//! integers and as [`Value::Float`] otherwise. Non-finite floats have
//! no JSON literal, so the writer emits the strings
//! `"inf"`/`"-inf"`/`"nan"` as their wire form and
//! [`Value::as_f64`] folds those spellings back into floats — a
//! config with e.g. `cd = inf` round-trips (covered by
//! `non_finite_params_roundtrip_through_json`).

use crate::scenario::value::{Value, MAX_NESTING};
use crate::scenario::ConfigError;

/// Parses a JSON document. Arrays and objects nested deeper than
/// 128 levels are a parse error.
pub fn parse(text: &str) -> Result<Value, ConfigError> {
    let mut p = Parser {
        chars: text.chars().collect(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(v)
}

/// Serializes a value as pretty-printed JSON.
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, 0, &mut out);
    out.push('\n');
    out
}

fn write_value(value: &Value, indent: usize, out: &mut String) {
    match value {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                out.push_str(&format!("{x:?}"));
            } else if x.is_nan() {
                out.push_str("\"nan\"");
            } else if *x > 0.0 {
                out.push_str("\"inf\"");
            } else {
                out.push_str("\"-inf\"");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
                write_value(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Value::Table(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
                write_string(k, out);
                out.push_str(": ");
                write_value(v, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn error(&self, msg: impl Into<String>) -> ConfigError {
        ConfigError::Parse(format!("json offset {}: {}", self.pos, msg.into()))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn value(&mut self) -> Result<Value, ConfigError> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.nested(Self::object),
            Some('[') => self.nested(Self::array),
            Some('"') => self.string().map(Value::Str),
            Some('t') => self.literal("true", Value::Bool(true)),
            Some('f') => self.literal("false", Value::Bool(false)),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some('n') => Err(self.error("`null` is not a scenario value; omit the key")),
            Some(c) => Err(self.error(format!("unexpected `{c}`"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object level, refusing to open more than
    /// [`MAX_NESTING`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ConfigError>,
    ) -> Result<Value, ConfigError> {
        if self.depth >= MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ConfigError> {
        for want in word.chars() {
            if self.bump() != Some(want) {
                return Err(self.error(format!("bad literal (expected `{word}`)")));
            }
        }
        Ok(value)
    }

    fn object(&mut self) -> Result<Value, ConfigError> {
        self.bump(); // `{`
        let mut table = Value::table();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(table);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.bump() != Some(':') {
                return Err(self.error("expected `:`"));
            }
            let value = self.value()?;
            if table.get(&key).is_some() {
                return Err(self.error(format!("duplicate key \"{key}\"")));
            }
            table.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(',') => {}
                Some('}') => return Ok(table),
                Some(c) => return Err(self.error(format!("expected `,` or `}}`, found `{c}`"))),
                None => return Err(self.error("unterminated object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ConfigError> {
        self.bump(); // `[`
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => {}
                Some(']') => return Ok(Value::Array(items)),
                Some(c) => return Err(self.error(format!("expected `,` or `]`, found `{c}`"))),
                None => return Err(self.error("unterminated array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ConfigError> {
        self.skip_ws();
        if self.bump() != Some('"') {
            return Err(self.error("expected string"));
        }
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some('"') => return Ok(s),
                Some('\\') => match self.bump() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('/') => s.push('/'),
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('r') => s.push('\r'),
                    Some('b') => s.push('\u{8}'),
                    Some('f') => s.push('\u{c}'),
                    Some('u') => {
                        let mut hex = String::new();
                        for _ in 0..4 {
                            match self.bump() {
                                Some(c) if c.is_ascii_hexdigit() => hex.push(c),
                                _ => return Err(self.error("bad \\u escape")),
                            }
                        }
                        let code = u32::from_str_radix(&hex, 16).expect("hex digits");
                        s.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.error("invalid scalar value"))?,
                        );
                    }
                    Some(c) => return Err(self.error(format!("unknown escape \\{c}"))),
                    None => return Err(self.error("unterminated escape")),
                },
                Some(c) => s.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ConfigError> {
        let mut text = String::new();
        let mut is_float = false;
        if self.peek() == Some('-') {
            text.push('-');
            self.bump();
        }
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' => {
                    text.push(c);
                    self.bump();
                }
                '.' | 'e' | 'E' => {
                    is_float = true;
                    text.push(c);
                    self.bump();
                }
                '+' | '-' if text.ends_with('e') || text.ends_with('E') => {
                    text.push(c);
                    self.bump();
                }
                _ => break,
            }
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| self.error(format!("bad number `{text}`: {e}")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|e| self.error(format!("bad number `{text}`: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = parse(
            r#"{"n": 4000, "demands": [400, 700, 300],
                "controller": {"kind": "ant", "gamma": 6.25e-2},
                "flag": true, "label": "a\"bA"}"#,
        )
        .unwrap();
        assert_eq!(doc.get("n"), Some(&Value::Int(4000)));
        assert_eq!(
            doc.get("demands").unwrap().as_u64_array("demands").unwrap(),
            vec![400, 700, 300]
        );
        assert_eq!(
            doc.get("controller").unwrap().get("gamma"),
            Some(&Value::Float(0.0625))
        );
        assert_eq!(doc.get("label"), Some(&Value::Str("a\"bA".into())));
    }

    #[test]
    fn rejects_malformed_documents() {
        let deep = "[".repeat(200_000);
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\": }",
            "\"unterminated",
            "nul",
            "null",
            "{} extra",
            "{\"a\": 1,}x",
            &deep, // nesting past the cap, not a stack overflow
        ] {
            assert!(
                matches!(parse(bad), Err(ConfigError::Parse(_))),
                "`{bad}` should fail"
            );
        }
    }

    #[test]
    fn duplicate_object_keys_are_errors() {
        let err = parse("{\"seed\": 1, \"seed\": 2}").unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn writer_output_reparses_identically() {
        let mut doc = Value::table();
        doc.insert("n", Value::Int(12));
        doc.insert("xs", Value::Array(vec![Value::Int(1), Value::Float(2.5)]));
        doc.insert("s", Value::Str("line\n\"q\"".into()));
        let mut sub = Value::table();
        sub.insert("empty_array", Value::Array(vec![]));
        sub.insert("empty_table", Value::table());
        doc.insert("sub", sub);
        let text = write(&doc);
        assert_eq!(parse(&text).unwrap(), doc, "{text}");
    }
}
