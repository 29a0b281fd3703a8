//! Minimal JSON emission and validation — the workspace's one JSON
//! writer.
//!
//! The offline container has no `serde_json`, so the benchmark trajectory
//! files (`BENCH_*.json`) and the session report ([`session_report`]) are
//! emitted through this hand-rolled writer and checked by the
//! bench-smoke test through the hand-rolled validator — a strict
//! recursive-descent syntax checker over the full JSON grammar
//! (RFC 8259), minus duplicate-key detection.

use gpusim::Phase;
use std::fmt::Write as _;
use tfapprox::EmulationReport;

/// Escape and quote a string literal.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a float as a JSON number (non-finite values become `null`,
/// which JSON has no number for).
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // `{v}` never produces exponent syntax for f64 Display, and
        // always includes a leading digit — both valid JSON.
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_owned()
    }
}

/// Format an unsigned integer as a JSON number.
#[must_use]
pub fn integer(v: u64) -> String {
    format!("{v}")
}

/// Format a boolean as a JSON literal.
#[must_use]
pub fn boolean(v: bool) -> String {
    if v { "true" } else { "false" }.to_owned()
}

/// Render `key: value` pairs as a JSON object.
#[must_use]
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Render values as a JSON array.
#[must_use]
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// Render a session's [`EmulationReport`] as one JSON object (schema
/// `tfapprox-session-report/2`), suitable for appending to a
/// `BENCH_*.json` trajectory: backend, the active LUT-GEMM kernel,
/// `tinit`/`tcomp`/total seconds, image count, throughput, and the Fig. 2
/// phase seconds and fractions.
#[must_use]
pub fn session_report(report: &EmulationReport) -> String {
    let phases = |f: &dyn Fn(Phase) -> f64| -> String {
        let names: Vec<String> = Phase::all()
            .iter()
            .map(|p| format!("{p:?}").to_lowercase())
            .collect();
        let fields: Vec<(&str, String)> = Phase::all()
            .iter()
            .zip(&names)
            .map(|(&p, name)| (name.as_str(), number(f(p))))
            .collect();
        object(&fields)
    };
    object(&[
        ("schema", string("tfapprox-session-report/2")),
        ("backend", string(&report.backend.to_string())),
        ("kernel", string(report.kernel)),
        ("tinit_s", number(report.tinit)),
        ("tcomp_s", number(report.tcomp)),
        ("total_s", number(report.total())),
        ("images", integer(report.images as u64)),
        ("images_per_second", number(report.images_per_second())),
        ("phase_seconds", phases(&|p| report.profile.seconds(p))),
        ("phase_fractions", phases(&|p| report.profile.fraction(p))),
    ])
}

/// Validate that `input` is one well-formed JSON value (with optional
/// surrounding whitespace).
///
/// # Errors
///
/// Returns a description of the first syntax error.
pub fn validate(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, "true"),
        Some(b'f') => parse_literal(b, pos, "false"),
        Some(b'n') => parse_literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos:?}")),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {}", *pos));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            0x00..=0x1F => return Err(format!("raw control byte in string at {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = eat_digits(b, pos);
    if int_digits == 0 {
        return Err(format!("expected digits at byte {}", *pos));
    }
    let unsigned = if b[start] == b'-' {
        &b[start + 1..]
    } else {
        &b[start..]
    };
    if unsigned.starts_with(b"0") && int_digits > 1 {
        return Err(format!("leading zero at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(b, pos) == 0 {
            return Err(format!("expected fraction digits at byte {}", *pos));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(b, pos) == 0 {
            return Err(format!("expected exponent digits at byte {}", *pos));
        }
    }
    Ok(())
}

fn eat_digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_valid_json() {
        let doc = object(&[
            ("name", string("conv \"hot\" path\n")),
            ("mean_s", number(1.25e-3)),
            ("nan_guard", number(f64::NAN)),
            ("count", number(3.0)),
            ("flag", boolean(true)),
            ("off", boolean(false)),
            ("items", array(&[number(1.0), number(-0.5), string("x")])),
            ("empty", array(&[])),
            ("nested", object(&[("k", string("v"))])),
        ]);
        validate(&doc).unwrap();
        assert!(doc.contains("\"nan_guard\": null"));
        assert!(doc.contains("\"count\": 3.0"));
        assert!(doc.contains("\"flag\": true"));
        assert!(doc.contains("\"off\": false"));
    }

    #[test]
    fn validator_accepts_rfc_examples() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5e+10",
            "0",
            r#"{"a": [1, 2.5, {"b": "cé"}], "d": false}"#,
            "  [ 1 , 2 ]  ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a: 1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "tru",
            "[1] trailing",
            "{\"a\": 1,}",
        ] {
            assert!(validate(bad).is_err(), "accepted: {bad}");
        }
    }
}
