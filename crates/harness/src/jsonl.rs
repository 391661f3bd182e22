//! Minimal JSON-lines encoding and field extraction.
//!
//! The harness needs exactly two JSON operations — emit one flat object
//! per line, and pull named fields back out of lines it wrote itself —
//! so this module implements just that, dependency-free. Writing is
//! deterministic: fields appear in insertion order, and strings and
//! floats are spelled by `obfusmem_obs::json` (RFC 8259 escapes,
//! shortest round-trip decimals), like every other exporter.

use obfusmem_obs::json::{push_f64, push_string};

/// Builder for one flat JSON object.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        push_string(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn string(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_string(&mut self.buf, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a float field (shortest round-trip decimal; non-finite values
    /// become `null`, which JSON requires).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        push_f64(&mut self.buf, value);
        self
    }

    /// Finishes the object (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

/// Extracts the string field `key` from a flat JSON line this module
/// wrote. Returns `None` when the field is missing or the line is
/// malformed/truncated (e.g. a row cut short by a kill — the resume path
/// must treat it as not-completed, not crash).
pub fn extract_string_field(line: &str, key: &str) -> Option<String> {
    let needle = {
        let mut n = String::new();
        push_string(&mut n, key);
        n.push(':');
        n
    };
    let start = line.find(&needle)? + needle.len();
    let rest = line.get(start..)?;
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_encode_in_insertion_order() {
        let line = JsonObject::new()
            .string("id", "mcf/oram/c1/r0")
            .u64("seed", 7)
            .f64("ipc", 0.25)
            .f64("whole", 3.0)
            .finish();
        assert_eq!(
            line,
            r#"{"id":"mcf/oram/c1/r0","seed":7,"ipc":0.25,"whole":3.0}"#
        );
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let line = JsonObject::new()
            .string("id", "a\"b\\c\nd\te\u{1}")
            .finish();
        assert_eq!(
            extract_string_field(&line, "id").unwrap(),
            "a\"b\\c\nd\te\u{1}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = JsonObject::new()
            .f64("x", f64::NAN)
            .f64("y", f64::INFINITY)
            .finish();
        assert_eq!(line, r#"{"x":null,"y":null}"#);
    }

    #[test]
    fn extraction_tolerates_truncated_lines() {
        let full = JsonObject::new().string("id", "job-1").u64("n", 3).finish();
        for cut in 0..full.len() {
            let _ = extract_string_field(&full[..cut], "id"); // must not panic
        }
        assert_eq!(extract_string_field(&full, "id").as_deref(), Some("job-1"));
        assert_eq!(extract_string_field(&full[..8], "id"), None);
    }

    #[test]
    fn extraction_misses_cleanly() {
        assert_eq!(extract_string_field(r#"{"a":"b"}"#, "id"), None);
        assert_eq!(extract_string_field("", "id"), None);
        assert_eq!(extract_string_field("garbage", "id"), None);
    }
}
