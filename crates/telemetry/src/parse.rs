//! Self-contained parsers for the two on-disk artifacts this crate
//! emits: the Prometheus text exposition and the trace JSONL.
//!
//! `eks report` reads saved runs back through these, the CI smoke step
//! uses them as format validators, and the crate's own tests round-trip
//! every exposition through them — so a rendering bug fails loudly
//! instead of producing a file no scraper would accept.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use crate::trace::{TraceKind, TraceRecord};

/// One parsed sample line of a Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Sample name as written (histogram samples keep their `_bucket`
    /// / `_sum` / `_count` suffix).
    pub name: String,
    /// Label pairs in file order (including `le` on bucket samples).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, when present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parse a Prometheus text exposition (format 0.0.4). Returns every
/// sample line; `# TYPE`/`# HELP` comments are validated for shape and
/// skipped. Errors carry the 1-based line number.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if comment.starts_with("TYPE") {
                let mut parts = comment.split_whitespace();
                parts.next();
                let name = parts.next().ok_or(format!("line {lineno}: # TYPE without name"))?;
                let kind = parts.next().ok_or(format!("line {lineno}: # TYPE without type"))?;
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                }
                if !valid_name(name) {
                    return Err(format!("line {lineno}: invalid metric name {name:?}"));
                }
            }
            continue;
        }
        out.push(parse_sample_line(line).map_err(|e| format!("line {lineno}: {e}"))?);
    }
    Ok(out)
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_sample_line(line: &str) -> Result<PromSample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}').ok_or("unterminated label block")?;
            if close < brace {
                return Err("mismatched braces".into());
            }
            let labels = &line[brace + 1..close];
            (&line[..brace], Some((labels, &line[close + 1..])))
        }
        None => (line.split_whitespace().next().unwrap_or(""), None),
    };
    if !valid_name(name_part) {
        return Err(format!("invalid metric name {name_part:?}"));
    }
    let (labels, value_str) = match rest {
        Some((labels, tail)) => (parse_labels(labels)?, tail.trim()),
        None => (Vec::new(), line[name_part.len()..].trim()),
    };
    let value_str = value_str.split_whitespace().next().ok_or("missing value")?;
    let value = parse_value(value_str)?;
    Ok(PromSample { name: name_part.to_string(), labels, value })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace() || *c == ',') {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(out);
        }
        let mut key = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            key.push(c);
            chars.next();
        }
        let key = key.trim().to_string();
        if !valid_name(&key) {
            return Err(format!("invalid label name {key:?}"));
        }
        if chars.next() != Some('=') {
            return Err(format!("label {key:?} missing '='"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key:?} value not quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in label {key:?}")),
                },
                Some(c) => value.push(c),
                None => return Err(format!("unterminated value for label {key:?}")),
            }
        }
        out.push((key, value));
    }
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s.parse::<f64>().map_err(|_| format!("bad sample value {s:?}")),
    }
}

// ---------------------------------------------------------------------
// Minimal JSON for the trace schema.
// ---------------------------------------------------------------------

/// A parsed JSON value — just enough JSON for the flat trace schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse_json`] accepts. The
/// parser recurses once per level, so hostile input must not choose the
/// depth; the documents this workspace writes nest about four deep.
const MAX_DEPTH: usize = 64;

/// Parse one JSON document. Errors carry a byte offset.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = json_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// One value enclosed by `depth` arrays and objects.
fn json_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}"));
    }
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match json_value(bytes, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key is not a string at byte {pos}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                members.push((key, json_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(json_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match bytes.get(*pos) {
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(out));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or(format!("truncated \\u escape at byte {pos}"))?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex)
                                        .map_err(|_| format!("bad \\u escape at byte {pos}"))?,
                                    16,
                                )
                                .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or(format!("bad \\u escape at byte {pos}"))?,
                                );
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?} at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Collect the longest run of plain UTF-8 bytes.
                        let start = *pos;
                        while matches!(bytes.get(*pos), Some(c) if *c != b'"' && *c != b'\\') {
                            *pos += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&bytes[start..*pos])
                                .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                        );
                    }
                    None => return Err("unterminated string".into()),
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
            text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

/// Parse trace JSONL, validating each line against the schema on
/// [`TraceRecord`]. Errors carry the 1-based line number.
pub fn parse_trace_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let json = parse_json(line).map_err(|e| format!("line {lineno}: {e}"))?;
        out.push(trace_record_from_json(&json).map_err(|e| format!("line {lineno}: {e}"))?);
    }
    Ok(out)
}

pub(crate) fn trace_record_from_json(json: &Json) -> Result<TraceRecord, String> {
    let ts_ns = json
        .get("ts_ns")
        .and_then(Json::as_u64)
        .ok_or("missing or non-integer \"ts_ns\"")?;
    let dur_ns = json
        .get("dur_ns")
        .and_then(Json::as_u64)
        .ok_or("missing or non-integer \"dur_ns\"")?;
    let kind = match json.get("kind") {
        Some(Json::Str(s)) if s == "span" => TraceKind::Span,
        Some(Json::Str(s)) if s == "event" => TraceKind::Event,
        _ => return Err("\"kind\" must be \"span\" or \"event\"".into()),
    };
    if kind == TraceKind::Event && dur_ns != 0 {
        return Err("events must have dur_ns 0".into());
    }
    let name = match json.get("name") {
        Some(Json::Str(s)) if !s.is_empty() => s.clone(),
        _ => return Err("missing or empty \"name\"".into()),
    };
    let worker = match json.get("worker") {
        Some(Json::Null) | None => None,
        Some(v) => Some(v.as_u64().ok_or("\"worker\" must be an integer or null")? as usize),
    };
    let device = match json.get("device") {
        Some(Json::Null) | None => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => return Err("\"device\" must be a string or null".into()),
    };
    let fields = match json.get("fields") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, v)| match v {
                Json::Str(s) => Ok((k.clone(), s.clone())),
                _ => Err(format!("field {k:?} must be a string")),
            })
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
        Some(_) => return Err("\"fields\" must be an object".into()),
    };
    Ok(TraceRecord { ts_ns, dur_ns, kind, name, worker, device, fields })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::trace::TraceSink;

    #[test]
    fn prometheus_roundtrip_through_registry() {
        let r = Registry::new();
        r.counter("eks_keys_tested_total", &[("worker", "w\"0\\")]).add(42);
        r.gauge("eks_efficiency", &[]).set(0.875);
        r.histogram("eks_scan_ns", &[("device", "cpu")]).observe(1000);
        let samples = parse_prometheus(&r.render_prometheus()).expect("parses");
        let tested = samples
            .iter()
            .find(|s| s.name == "eks_keys_tested_total")
            .expect("counter present");
        assert_eq!(tested.value, 42.0);
        assert_eq!(tested.label("worker"), Some("w\"0\\"));
        let inf_bucket = samples
            .iter()
            .find(|s| s.name == "eks_scan_ns_bucket" && s.label("le") == Some("+Inf"))
            .expect("+Inf bucket present");
        assert_eq!(inf_bucket.value, 1.0);
        assert!(samples.iter().any(|s| s.name == "eks_efficiency" && s.value == 0.875));
    }

    #[test]
    fn prometheus_rejects_malformed_lines() {
        assert!(parse_prometheus("ok_metric 1\nbad metric 2\n").is_err());
        assert!(parse_prometheus("m{unclosed=\"v\" 3\n").is_err());
        assert!(parse_prometheus("m{l=\"v\"} not_a_number\n").is_err());
        assert!(parse_prometheus("# TYPE m sideways\nm 1\n").is_err());
    }

    #[test]
    fn trace_jsonl_roundtrip_through_sink() {
        let sink = TraceSink::new(64);
        sink.push(TraceRecord {
            ts_ns: 10,
            dur_ns: 90,
            kind: TraceKind::Span,
            name: "scan".into(),
            worker: Some(3),
            device: Some("simgpu:GTX 660".into()),
            fields: vec![("tested".into(), "4096".into())],
        });
        sink.push(TraceRecord {
            ts_ns: 200,
            dur_ns: 0,
            kind: TraceKind::Event,
            name: "steal".into(),
            worker: None,
            device: None,
            fields: Vec::new(),
        });
        let parsed = parse_trace_jsonl(&sink.to_jsonl()).expect("parses");
        assert_eq!(parsed, sink.snapshot());
    }

    #[test]
    fn trace_jsonl_rejects_schema_violations() {
        assert!(parse_trace_jsonl("{\"dur_ns\": 0}\n").is_err(), "missing ts_ns");
        assert!(
            parse_trace_jsonl(
                "{\"ts_ns\": 1, \"dur_ns\": 5, \"kind\": \"event\", \"name\": \"x\", \"worker\": null, \"device\": null, \"fields\": {}}\n"
            )
            .is_err(),
            "events must have zero duration"
        );
        assert!(
            parse_trace_jsonl(
                "{\"ts_ns\": 1, \"dur_ns\": 0, \"kind\": \"blip\", \"name\": \"x\", \"worker\": null, \"device\": null, \"fields\": {}}\n"
            )
            .is_err(),
            "unknown kind"
        );
        assert!(parse_trace_jsonl("not json at all\n").is_err());
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let v = parse_json("{\"a\": [1, 2.5, null, true], \"b\": {\"c\": \"x\\n\\u0041\"}}")
            .expect("parses");
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Str("x\nA".into())));
        match v.get("a") {
            Some(Json::Arr(items)) => assert_eq!(items.len(), 4),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn json_nesting_is_capped_with_the_offset() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        assert!(parse_json(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse_json(&objects(MAX_DEPTH)).is_ok());
        let err = parse_json(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"));
        let err = parse_json(&objects(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} levels at byte {}", 5 * MAX_DEPTH));
        // The cap holds far past any stack.
        assert!(parse_json(&"[".repeat(200_000)).unwrap_err().contains("nesting deeper"));
    }
}
