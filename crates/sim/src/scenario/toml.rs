//! A self-contained TOML subset: enough for declarative scenario files,
//! with no external dependencies.
//!
//! Supported: `[section]` / `[nested.section]` headers, `key = value`
//! pairs, bare and quoted keys, strings with the common escapes,
//! integers (sign, underscores, `0x`/`0o`/`0b`), floats (including
//! `inf`/`nan` forms), booleans, (possibly multiline) arrays, inline
//! tables, and array-of-tables headers (`[[x]]`, the natural syntax
//! for `[[timeline]]` event scripts; keys after one address its last
//! element, including through nested paths). Not supported: dotted
//! keys, datetimes, multi-line strings.

use crate::scenario::value::{Value, MAX_NESTING};
use crate::scenario::ConfigError;

/// Parses a TOML document into a [`Value::Table`].
///
/// Duplicate keys and duplicate `[section]` headers are errors, not
/// last-wins: a scenario file where the same parameter appears twice
/// would otherwise silently run with whichever value came last.
/// Nesting — a value's section-header path plus its inline arrays and
/// tables — deeper than 128 levels is an error too.
pub fn parse(text: &str) -> Result<Value, ConfigError> {
    let mut parser = Parser {
        chars: text.chars().collect(),
        pos: 0,
        line: 1,
        depth: 0,
    };
    let mut root = Value::table();
    let mut path: Vec<String> = Vec::new();
    let mut seen_headers: Vec<Vec<String>> = Vec::new();
    loop {
        parser.skip_trivia();
        if parser.at_end() {
            return Ok(root);
        }
        if parser.peek() == Some('[') {
            parser.bump();
            let array_of_tables = parser.peek() == Some('[');
            if array_of_tables {
                parser.bump();
            }
            path = parser.key_path()?;
            if path.len() > MAX_NESTING {
                return Err(parser.error(format!("nesting deeper than {MAX_NESTING} levels")));
            }
            parser.expect(']')?;
            if array_of_tables {
                parser.expect(']')?;
            }
            parser.expect_line_end()?;
            if array_of_tables {
                // Append a fresh element; subsequent keys land in it.
                push_array_element(&mut root, &path)?;
            } else if plain_header_reopens_array(&root, &path) {
                // Real TOML rejects `[x]` once `[[x]]` defined an
                // array; accepting it would silently merge the keys
                // into the last element.
                return Err(parser.error(format!(
                    "`[{}]` conflicts with an array of tables; use `[[{}]]`",
                    path.join("."),
                    path.join(".")
                )));
            } else {
                // Create the table eagerly so empty sections round-trip.
                // Headers that traverse an array address its *last*
                // element and may legitimately repeat (`[a.b]` after
                // each `[[a]]`); plain table headers may not.
                let through_array = navigate(&mut root, &path, &mut |_t| Ok(()))?;
                if !through_array {
                    if seen_headers.contains(&path) {
                        return Err(
                            parser.error(format!("duplicate section `[{}]`", path.join(".")))
                        );
                    }
                    seen_headers.push(path.clone());
                }
            }
        } else {
            let key = parser.key()?;
            parser.skip_inline_ws();
            parser.expect('=')?;
            parser.depth = path.len();
            let value = parser.value()?;
            parser.expect_line_end()?;
            let line = parser.line;
            navigate(&mut root, &path, &mut |t| {
                if t.get(&key).is_some() {
                    return Err(ConfigError::Parse(format!(
                        "line {line}: duplicate key `{key}`"
                    )));
                }
                t.insert(key.clone(), value.clone());
                Ok(())
            })?;
        }
    }
}

/// Serializes a [`Value::Table`] as TOML.
///
/// Scalars and plain arrays print inline at their table's level;
/// sub-tables become `[section]` headers and non-empty arrays of
/// tables become `[[section]]` blocks (depth-first, insertion order;
/// values inside a `[[section]]` element print inline, so the writer
/// never needs dotted element paths). Tables nested inside plain
/// arrays print as inline tables.
pub fn write(root: &Value) -> String {
    let mut out = String::new();
    let Value::Table(_) = root else {
        // Scenario documents are always tables; degrade gracefully.
        write_inline(root, &mut out);
        out.push('\n');
        return out;
    };
    write_table(root, &mut Vec::new(), &mut out);
    out
}

/// Whether a value prints as `[[section]]` blocks rather than inline.
fn is_array_of_tables(value: &Value) -> bool {
    match value {
        Value::Array(items) => {
            !items.is_empty() && items.iter().all(|v| matches!(v, Value::Table(_)))
        }
        _ => false,
    }
}

fn header(path: &[String], double: bool, out: &mut String) {
    if !out.is_empty() {
        out.push('\n');
    }
    out.push_str(if double { "[[" } else { "[" });
    out.push_str(
        &path
            .iter()
            .map(|k| key_text(k))
            .collect::<Vec<_>>()
            .join("."),
    );
    out.push_str(if double { "]]\n" } else { "]\n" });
}

fn write_table(table: &Value, path: &mut Vec<String>, out: &mut String) {
    let Value::Table(pairs) = table else {
        unreachable!()
    };
    for (key, value) in pairs {
        if !matches!(value, Value::Table(_)) && !is_array_of_tables(value) {
            out.push_str(&key_text(key));
            out.push_str(" = ");
            write_inline(value, out);
            out.push('\n');
        }
    }
    for (key, value) in pairs {
        if let Value::Table(_) = value {
            path.push(key.clone());
            header(path, false, out);
            write_table(value, path, out);
            path.pop();
        } else if is_array_of_tables(value) {
            let Value::Array(items) = value else {
                unreachable!()
            };
            path.push(key.clone());
            for item in items {
                header(path, true, out);
                let Value::Table(entries) = item else {
                    unreachable!()
                };
                // Everything inside an element prints inline — nested
                // tables as `{ .. }` — so element boundaries stay
                // unambiguous without dotted sub-headers.
                for (k, v) in entries {
                    out.push_str(&key_text(k));
                    out.push_str(" = ");
                    write_inline(v, out);
                    out.push('\n');
                }
            }
            path.pop();
        }
    }
}

fn write_inline(value: &Value, out: &mut String) {
    match value {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => out.push_str(&float_text(*x)),
        Value::Str(s) => out.push_str(&string_text(s)),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_inline(item, out);
            }
            out.push(']');
        }
        Value::Table(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push(' ');
                out.push_str(&key_text(k));
                out.push_str(" = ");
                write_inline(v, out);
            }
            out.push_str(" }");
        }
    }
}

fn key_text(key: &str) -> String {
    let bare = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if bare {
        key.to_string()
    } else {
        string_text(key)
    }
}

fn string_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{{{:x}}}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn float_text(x: f64) -> String {
    if x.is_nan() {
        "nan".to_string()
    } else if x.is_infinite() {
        if x > 0.0 {
            "inf".to_string()
        } else {
            "-inf".to_string()
        }
    } else {
        // `{:?}` is the shortest representation that round-trips and
        // always contains a `.` or exponent, keeping the value a float.
        format!("{x:?}")
    }
}

/// Walks `path` from `root` (creating missing tables), descending into
/// the **last element** of any array-of-tables met on the way, and
/// applies `f` to the final table. Returns whether the walk passed
/// through an array (callers use this to relax duplicate-header rules).
fn navigate(
    root: &mut Value,
    path: &[String],
    f: &mut dyn FnMut(&mut Value) -> Result<(), ConfigError>,
) -> Result<bool, ConfigError> {
    let mut through_array = false;
    let mut node = root;
    for part in path {
        node = descend_arrays(node, part, &mut through_array)?;
        let Value::Table(pairs) = node else {
            return Err(ConfigError::Parse(format!(
                "key `{part}` is both a value and a table"
            )));
        };
        if !pairs.iter().any(|(k, _)| k == part) {
            pairs.push((part.clone(), Value::table()));
        }
        let slot = pairs
            .iter_mut()
            .find(|(k, _)| k == part)
            .map(|(_, v)| v)
            .expect("just inserted");
        if !matches!(slot, Value::Table(_) | Value::Array(_)) {
            return Err(ConfigError::Parse(format!(
                "key `{part}` is both a value and a table"
            )));
        }
        node = slot;
    }
    node = descend_arrays(node, "section", &mut through_array)?;
    if !matches!(node, Value::Table(_)) {
        return Err(ConfigError::Parse(
            "section header addresses a non-table value".into(),
        ));
    }
    f(node)?;
    Ok(through_array)
}

/// Descends into the last element of nested arrays-of-tables.
fn descend_arrays<'a>(
    mut node: &'a mut Value,
    part: &str,
    through_array: &mut bool,
) -> Result<&'a mut Value, ConfigError> {
    while let Value::Array(items) = node {
        *through_array = true;
        node = items.last_mut().ok_or_else(|| {
            ConfigError::Parse(format!("`{part}` addresses an element of an empty array"))
        })?;
    }
    Ok(node)
}

/// Whether a plain `[path]` header addresses an existing array of
/// tables — invalid TOML (the single-bracket form may not reopen an
/// `[[path]]` array). Intermediate parts still descend into last
/// elements, so `[a.b]` after `[[a]]` stays legal.
fn plain_header_reopens_array(root: &Value, path: &[String]) -> bool {
    let mut node = root;
    for (i, part) in path.iter().enumerate() {
        while let Value::Array(items) = node {
            match items.last() {
                Some(last) => node = last,
                None => return false,
            }
        }
        match node.get(part) {
            Some(slot) if i + 1 == path.len() => return matches!(slot, Value::Array(_)),
            Some(slot) => node = slot,
            None => return false,
        }
    }
    false
}

/// Handles a `[[path]]` header: appends a fresh table element to the
/// array at `path` (creating the array on first use).
fn push_array_element(root: &mut Value, path: &[String]) -> Result<(), ConfigError> {
    let (last, parent) = path.split_last().expect("key_path is non-empty");
    navigate(root, parent, &mut |table| {
        let Value::Table(pairs) = table else {
            unreachable!("navigate lands on tables")
        };
        match pairs.iter_mut().find(|(k, _)| k == last) {
            None => {
                pairs.push((last.clone(), Value::Array(vec![Value::table()])));
                Ok(())
            }
            Some((_, Value::Array(items))) => {
                items.push(Value::table());
                Ok(())
            }
            Some(_) => Err(ConfigError::Parse(format!(
                "`[[{last}]]` conflicts with an existing non-array value"
            ))),
        }
    })?;
    Ok(())
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    /// Nesting levels open around the value being parsed: the section
    /// header's path plus the inline arrays and tables entered.
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
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn error(&self, msg: impl Into<String>) -> ConfigError {
        ConfigError::Parse(format!("line {}: {}", self.line, msg.into()))
    }

    /// Skips spaces/tabs on the current line.
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.bump();
        }
    }

    /// Skips whitespace (including newlines) and comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(' ' | '\t' | '\n' | '\r') => {
                    self.bump();
                }
                Some('#') => {
                    while !matches!(self.peek(), None | Some('\n')) {
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn expect(&mut self, want: char) -> Result<(), ConfigError> {
        self.skip_inline_ws();
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(self.error(format!("expected `{want}`, found `{c}`"))),
            None => Err(self.error(format!("expected `{want}`, found end of input"))),
        }
    }

    /// Consumes end-of-line (allowing a trailing comment) or end of input.
    fn expect_line_end(&mut self) -> Result<(), ConfigError> {
        self.skip_inline_ws();
        if self.peek() == Some('#') {
            while !matches!(self.peek(), None | Some('\n')) {
                self.bump();
            }
        }
        match self.peek() {
            None => Ok(()),
            Some('\n') | Some('\r') => {
                self.bump();
                Ok(())
            }
            Some(c) => Err(self.error(format!("expected end of line, found `{c}`"))),
        }
    }

    fn key(&mut self) -> Result<String, ConfigError> {
        self.skip_inline_ws();
        match self.peek() {
            Some('"') => {
                let Value::Str(s) = self.string()? else {
                    unreachable!()
                };
                Ok(s)
            }
            Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-' => {
                let mut key = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                        key.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(key)
            }
            Some(c) => Err(self.error(format!("expected key, found `{c}`"))),
            None => Err(self.error("expected key, found end of input")),
        }
    }

    fn key_path(&mut self) -> Result<Vec<String>, ConfigError> {
        let mut path = vec![self.key()?];
        loop {
            self.skip_inline_ws();
            if self.peek() == Some('.') {
                self.bump();
                path.push(self.key()?);
            } else {
                return Ok(path);
            }
        }
    }

    fn value(&mut self) -> Result<Value, ConfigError> {
        self.skip_inline_ws();
        match self.peek() {
            Some('"') => self.string(),
            Some('[') => self.nested(Self::array),
            Some('{') => self.nested(Self::inline_table),
            Some('t') | Some('f') | Some('i') | Some('n') => self.word(),
            Some(c) if c == '+' || c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("expected value, found `{c}`"))),
            None => Err(self.error("expected value, found end of input")),
        }
    }

    /// Parses one inline array or table level, refusing to open more
    /// than [`MAX_NESTING`].
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

    fn string(&mut self) -> Result<Value, ConfigError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some('"') => return Ok(Value::Str(s)),
                Some('\\') => match self.bump() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('r') => s.push('\r'),
                    Some('u') => {
                        if self.bump() != Some('{') {
                            return Err(self.error("expected `{` after \\u"));
                        }
                        let mut hex = String::new();
                        loop {
                            match self.bump() {
                                Some('}') => break,
                                Some(c) if c.is_ascii_hexdigit() => hex.push(c),
                                _ => return Err(self.error("bad \\u escape")),
                            }
                        }
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| self.error("bad \\u escape"))?;
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

    fn array(&mut self) -> Result<Value, ConfigError> {
        self.bump(); // `[`
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek() == Some(']') {
                self.bump();
                return Ok(Value::Array(items));
            }
            items.push(self.value()?);
            self.skip_trivia();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {}
                Some(c) => return Err(self.error(format!("expected `,` or `]`, found `{c}`"))),
                None => return Err(self.error("unterminated array")),
            }
        }
    }

    fn inline_table(&mut self) -> Result<Value, ConfigError> {
        self.bump(); // `{`
        let mut table = Value::table();
        self.skip_inline_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(table);
        }
        loop {
            let key = self.key()?;
            self.expect('=')?;
            let value = self.value()?;
            if table.get(&key).is_some() {
                return Err(self.error(format!("duplicate key `{key}` in inline table")));
            }
            table.insert(key, value);
            self.skip_inline_ws();
            match self.bump() {
                Some(',') => {
                    self.skip_inline_ws();
                }
                Some('}') => return Ok(table),
                Some(c) => return Err(self.error(format!("expected `,` or `}}`, found `{c}`"))),
                None => return Err(self.error("unterminated inline table")),
            }
        }
    }

    fn word(&mut self) -> Result<Value, ConfigError> {
        let mut w = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() {
                w.push(c);
                self.bump();
            } else {
                break;
            }
        }
        match w.as_str() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            "inf" => Ok(Value::Float(f64::INFINITY)),
            "nan" => Ok(Value::Float(f64::NAN)),
            other => Err(self.error(format!("unknown literal `{other}`"))),
        }
    }

    fn number(&mut self) -> Result<Value, ConfigError> {
        let mut text = String::new();
        let negative = match self.peek() {
            Some('+') => {
                self.bump();
                false
            }
            Some('-') => {
                self.bump();
                true
            }
            _ => false,
        };
        // Named float forms after a sign.
        if self.peek() == Some('i') || self.peek() == Some('n') {
            let Value::Float(x) = self.word()? else {
                unreachable!()
            };
            return Ok(Value::Float(if negative { -x } else { x }));
        }
        // Radix prefixes.
        if self.peek() == Some('0') {
            if let Some(radix_char) = self.chars.get(self.pos + 1).copied() {
                let radix = match radix_char {
                    'x' | 'X' => Some(16),
                    'o' | 'O' => Some(8),
                    'b' | 'B' => Some(2),
                    _ => None,
                };
                if let Some(radix) = radix {
                    self.bump();
                    self.bump();
                    let mut digits = String::new();
                    while let Some(c) = self.peek() {
                        if c.is_ascii_alphanumeric() {
                            digits.push(c);
                            self.bump();
                        } else if c == '_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    let magnitude = i128::from_str_radix(&digits, radix)
                        .map_err(|e| self.error(format!("bad integer: {e}")))?;
                    return Ok(Value::Int(if negative { -magnitude } else { magnitude }));
                }
            }
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' => {
                    text.push(c);
                    self.bump();
                }
                '_' => {
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
            let x: f64 = text
                .parse()
                .map_err(|e| self.error(format!("bad float `{text}`: {e}")))?;
            Ok(Value::Float(if negative { -x } else { x }))
        } else {
            let i: i128 = text
                .parse()
                .map_err(|e| self.error(format!("bad integer `{text}`: {e}")))?;
            Ok(Value::Int(if negative { -i } else { i }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_sections_and_comments() {
        let doc = parse(
            r#"
# scenario
n = 4000
seed = 0xC0FFEE
name = "quick \"start\""
ratio = 2.5e-1
ok = true

[controller]
gamma = 0.0625
kind = "ant"

[schedule.inner]
period = 1_000
"#,
        )
        .unwrap();
        assert_eq!(doc.get("n"), Some(&Value::Int(4000)));
        assert_eq!(doc.get("seed"), Some(&Value::Int(0xC0FFEE)));
        assert_eq!(doc.get("name"), Some(&Value::Str("quick \"start\"".into())));
        assert_eq!(doc.get("ratio"), Some(&Value::Float(0.25)));
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        let ctrl = doc.get("controller").unwrap();
        assert_eq!(ctrl.get("kind"), Some(&Value::Str("ant".into())));
        let inner = doc.get("schedule").unwrap().get("inner").unwrap();
        assert_eq!(inner.get("period"), Some(&Value::Int(1000)));
    }

    #[test]
    fn parses_arrays_and_inline_tables() {
        let doc = parse(
            "steps = [\n  { at = 3, demands = [5, 5] },\n  { at = 9, demands = [6, 6] },\n]\nmixed = [1, -2.5, \"x\"]\n",
        )
        .unwrap();
        let steps = doc.get("steps").unwrap().as_array("steps").unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[1].get("at"), Some(&Value::Int(9)));
        assert_eq!(
            steps[0]
                .get("demands")
                .unwrap()
                .as_u64_array("demands")
                .unwrap(),
            vec![5, 5]
        );
        let mixed = doc.get("mixed").unwrap().as_array("mixed").unwrap();
        assert_eq!(mixed[1], Value::Float(-2.5));
    }

    #[test]
    fn rejects_malformed_documents() {
        let deep_value = format!("n = {}", "[".repeat(200_000));
        let deep_header = format!("[{}]", vec!["a"; 200_000].join("."));
        for bad in [
            "n = ",
            "n 4",
            "[unclosed",
            "[[unclosed]",
            "x = [1, 2",
            "s = \"oops",
            "t = { a = 1",
            "n = 1 extra",
            "e = @",
            "x = 1\n[[x]]\n",             // array-of-tables vs existing scalar
            "[x]\n[[x]]\n",               // array-of-tables vs existing table
            "[[x]]\na = 1\n[x]\nb = 2\n", // plain header reopening an array
            &deep_value,                  // nesting past the cap, not a stack overflow
            &deep_header,
        ] {
            let err = parse(bad).unwrap_err();
            assert!(matches!(err, ConfigError::Parse(_)), "`{bad}` gave {err:?}");
        }
    }

    #[test]
    fn parses_array_of_tables_headers() {
        let doc = parse(
            r#"
n = 10

[[timeline]]
at = 4000
kind = "set-demands"
demands = [1200, 800]

[[timeline]]
at = 6000
kind = "kill"
count = 2000

[[timeline]]
kind = "cycle"
start = 8000
period = 500
events = [ { kind = "scramble" } ]

[initial]
kind = "inverted"
"#,
        )
        .unwrap();
        let timeline = doc.get("timeline").unwrap().as_array("timeline").unwrap();
        assert_eq!(timeline.len(), 3);
        assert_eq!(timeline[0].get("at"), Some(&Value::Int(4000)));
        assert_eq!(timeline[1].get("count"), Some(&Value::Int(2000)));
        assert_eq!(
            timeline[2]
                .get("events")
                .unwrap()
                .as_array("events")
                .unwrap()[0]
                .get("kind"),
            Some(&Value::Str("scramble".into()))
        );
        // A plain section after the blocks lands back at the root.
        assert_eq!(
            doc.get("initial").unwrap().get("kind"),
            Some(&Value::Str("inverted".into()))
        );
    }

    #[test]
    fn nested_array_of_tables_and_sub_headers() {
        // `[[a.b]]` nests under `[a]`, and `[a.b.c]` addresses the last
        // element of `a.b` (repeating per element is legal).
        let doc = parse(
            "[a]\nx = 1\n\n[[a.b]]\nv = 1\n[a.b.c]\nw = 1\n\n[[a.b]]\nv = 2\n[a.b.c]\nw = 2\n",
        )
        .unwrap();
        let b = doc
            .get("a")
            .unwrap()
            .get("b")
            .unwrap()
            .as_array("b")
            .unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].get("v"), Some(&Value::Int(1)));
        assert_eq!(b[0].get("c").unwrap().get("w"), Some(&Value::Int(1)));
        assert_eq!(b[1].get("c").unwrap().get("w"), Some(&Value::Int(2)));
    }

    #[test]
    fn array_of_tables_roundtrips_through_writer() {
        let mut entry1 = Value::table();
        entry1.insert("at", Value::Int(10));
        entry1.insert("kind", Value::Str("kill".into()));
        entry1.insert("count", Value::Int(5));
        let mut noise = Value::table();
        noise.insert("kind", Value::Str("sigmoid".into()));
        noise.insert("lambda", Value::Float(2.0));
        let mut entry2 = Value::table();
        entry2.insert("at", Value::Int(20));
        entry2.insert("kind", Value::Str("set-noise".into()));
        entry2.insert("noise", noise);
        let mut doc = Value::table();
        doc.insert("n", Value::Int(100));
        doc.insert("timeline", Value::Array(vec![entry1, entry2]));
        let text = write(&doc);
        assert!(text.contains("[[timeline]]"), "{text}");
        let back = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert_eq!(back, doc, "{text}");
    }

    #[test]
    fn duplicates_are_errors_not_last_wins() {
        // A repeated key or section must fail loudly: last-wins would
        // silently run whichever value came second.
        for bad in [
            "seed = 1\nseed = 2\n",
            "[controller]\ngamma = 0.1\n[controller]\ngamma = 0.2\n",
            "[a]\nx = 1\n[a]\ny = 2\n",
            "t = { a = 1, a = 2 }\n",
            "[a]\nx = 1\nx = 2\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.to_string().contains("duplicate"),
                "`{bad}` gave {err:?}"
            );
        }
        // Nested headers that merely share a prefix are fine.
        let ok = parse("[a]\nx = 1\n[a.b]\ny = 2\n").unwrap();
        assert_eq!(
            ok.get("a").unwrap().get("b").unwrap().get("y"),
            Some(&Value::Int(2))
        );
    }

    #[test]
    fn writer_output_reparses_identically() {
        let mut doc = Value::table();
        doc.insert("n", Value::Int(4000));
        doc.insert(
            "demands",
            crate::scenario::value::u64_array(&[400, 700, 300]),
        );
        doc.insert("label", Value::Str("a \"b\"\nc".into()));
        let mut sub = Value::table();
        sub.insert("gamma", Value::Float(1.0 / 16.0));
        sub.insert("big", Value::Int(i128::from(u64::MAX)));
        let mut steps = Value::table();
        steps.insert("at", Value::Int(3));
        steps.insert("demands", crate::scenario::value::u64_array(&[5, 5]));
        sub.insert("steps", Value::Array(vec![steps]));
        doc.insert("controller", sub);
        let text = write(&doc);
        let back = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert_eq!(back, doc, "document drifted through write/parse:\n{text}");
    }

    #[test]
    fn float_specials_roundtrip() {
        let mut doc = Value::table();
        doc.insert("a", Value::Float(f64::INFINITY));
        doc.insert("b", Value::Float(f64::NEG_INFINITY));
        doc.insert("c", Value::Float(2.0));
        let text = write(&doc);
        let back = parse(&text).unwrap();
        assert_eq!(back.get("a"), Some(&Value::Float(f64::INFINITY)));
        assert_eq!(back.get("b"), Some(&Value::Float(f64::NEG_INFINITY)));
        assert_eq!(back.get("c"), Some(&Value::Float(2.0)));
    }
}
