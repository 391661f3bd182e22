//! Minimal JSON emission helpers shared by every exporter.
//!
//! The workspace is dependency-free, so this is hand-rolled. The helpers
//! operate on a raw `String` buffer and leave structure to the caller:
//! the observability exporters build nested documents with them, and
//! `obfusmem_harness::jsonl` builds its flat result rows.

/// Appends `s` as a JSON string literal (with quotes) to `buf`.
pub fn push_string(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Appends `v` as a JSON number. Integral values get a `.0` suffix so a
/// field never flips between integer and float spellings across rows;
/// non-finite values (which JSON cannot represent) become `null`.
pub fn push_f64(buf: &mut String, v: f64) {
    if v.is_finite() {
        let formatted = format!("{v}");
        buf.push_str(&formatted);
        if !formatted.contains('.') && !formatted.contains('e') {
            buf.push_str(".0");
        }
    } else {
        buf.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape() {
        let mut buf = String::new();
        push_string(&mut buf, "a\"b\\c\nd\u{1}");
        assert_eq!(buf, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        let mut buf = String::new();
        push_f64(&mut buf, 3.0);
        assert_eq!(buf, "3.0");
        buf.clear();
        push_f64(&mut buf, 3.25);
        assert_eq!(buf, "3.25");
        buf.clear();
        push_f64(&mut buf, f64::NAN);
        assert_eq!(buf, "null");
    }
}
