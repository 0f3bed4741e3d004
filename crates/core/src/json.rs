//! The hand-rolled JSON layer shared by every serialized artifact —
//! checkpoints, metrics, traces, the events JSONL and the scenario
//! reports: a parsed [`JsonValue`] tree, a recursive-descent parser,
//! writer helpers, and the mini schema validator CI runs over all of
//! them.
//!
//! The offline build has no serialization crate, so everything here is
//! written by hand and kept deliberately small: the parser accepts exactly the JSON the writers emit plus
//! standard interchange documents, and the validator covers the
//! JSON-Schema subset the checked-in `schemas/*.json` use.
//!
//! Two encodings matter for reproducibility:
//!
//! * [`json_num`] prints an `f64` with Rust's shortest-roundtrip
//!   formatting, so parsing the number back yields the identical bits —
//!   metrics files and events can be diffed and replayed exactly.
//! * [`bits_str`] / [`f64_from_bits_str`] store an `f64` as its IEEE-754
//!   bit pattern in hex, the belt-and-braces encoding checkpoints use.

// ---------------------------------------------------------------------------
// Minimal JSON value, parser, and writer helpers
// ---------------------------------------------------------------------------

/// A parsed JSON document (object keys keep file order).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal, kept exact: an `f64` holds every
    /// integer only up to 2^53, and seeds and counters are `u64`.
    Int(u64),
    /// Any other JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(src: &str) -> Result<JsonValue, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The JSON type name used by the schema validator.
    fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Int(_) => "integer",
            JsonValue::Num(x) if x.fract() == 0.0 => "integer",
            JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} of JSON input",
            b as char, *pos
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                members.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::Int(n));
            }
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("invalid number {text:?} at byte {start}"))
        }
        None => Err("unexpected end of JSON input".to_owned()),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a valid &str).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
            None => return Err("unterminated string".to_owned()),
        }
    }
}

/// Escape a string for embedding in JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A finite `f64` as a round-trippable JSON number, non-finite as `null`.
/// Rust's `{}` formatting picks the shortest decimal that parses back to
/// the identical bit pattern, so consumers can rebuild exact values.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// The IEEE-754 bit pattern of an `f64` as a hex JSON string (quotes
/// included) — the bit-exact encoding every checkpoint float and every
/// `*_bits` event field goes through.
pub fn bits_str(x: f64) -> String {
    format!("\"{:#018x}\"", x.to_bits())
}

/// Decode a [`bits_str`]-encoded hex bit pattern back into its `f64`.
pub fn f64_from_bits_str(v: &JsonValue, what: &str) -> Result<f64, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("{what}: expected a hex bit string"))?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("{what}: missing 0x prefix in {s:?}"))?;
    u64::from_str_radix(digits, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("{what}: {e}"))
}

/// Fetch a required non-negative integer member of an object.
pub fn get_u64(obj: &JsonValue, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

/// Validate `doc` against a JSON-Schema-style document supporting the
/// subset the checked-in `schemas/*.json` use: `type` (string or array
/// of strings, with `integer` ⊂ `number`), `required`, `properties`,
/// `items`, and `enum` (of strings). Returns the first violation found,
/// with a path.
pub fn validate_against_schema(doc: &JsonValue, schema: &JsonValue) -> Result<(), String> {
    validate_at(doc, schema, "$")
}

fn validate_at(doc: &JsonValue, schema: &JsonValue, path: &str) -> Result<(), String> {
    if let Some(ty) = schema.get("type") {
        let allowed: Vec<&str> = match ty {
            JsonValue::Str(s) => vec![s.as_str()],
            JsonValue::Arr(items) => items.iter().filter_map(JsonValue::as_str).collect(),
            _ => return Err(format!("{path}: malformed schema type")),
        };
        let actual = doc.type_name();
        let ok = allowed
            .iter()
            .any(|&t| t == actual || (t == "number" && actual == "integer"));
        if !ok {
            return Err(format!("{path}: expected type {allowed:?}, got {actual}"));
        }
    }
    if let Some(JsonValue::Arr(options)) = schema.get("enum") {
        if !options.contains(doc) {
            return Err(format!("{path}: value not in schema enum"));
        }
    }
    // Like draft-07, `required` constrains objects only — a nullable
    // object field (`"type": ["object", "null"]`) passes as `null`.
    if let (Some(JsonValue::Arr(required)), JsonValue::Obj(_)) = (schema.get("required"), doc) {
        for key in required.iter().filter_map(JsonValue::as_str) {
            if doc.get(key).is_none() {
                return Err(format!("{path}: missing required field {key:?}"));
            }
        }
    }
    if let (Some(JsonValue::Obj(props)), JsonValue::Obj(members)) = (schema.get("properties"), doc)
    {
        for (key, value) in members {
            if let Some((_, sub)) = props.iter().find(|(k, _)| k == key) {
                validate_at(value, sub, &format!("{path}.{key}"))?;
            }
        }
    }
    if let (Some(items), JsonValue::Arr(elems)) = (schema.get("items"), doc) {
        for (i, elem) in elems.iter().enumerate() {
            validate_at(elem, items, &format!("{path}[{i}]"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let doc =
            JsonValue::parse(r#"{"a": [1, -2.5e3, "x\n\"y\"", true, null], "b": {"c": 0.125}}"#)
                .unwrap();
        let arr = doc.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("x\n\"y\""));
        assert_eq!(arr[3], JsonValue::Bool(true));
        assert_eq!(arr[4], JsonValue::Null);
        assert_eq!(
            doc.get("b")
                .and_then(|b| b.get("c"))
                .and_then(JsonValue::as_f64),
            Some(0.125)
        );
        assert!(JsonValue::parse("{\"a\": 1} trailing").is_err());
        assert!(JsonValue::parse("{\"a\": }").is_err());
    }

    #[test]
    fn schema_validator_accepts_and_rejects() {
        let schema = JsonValue::parse(
            r#"{
                "type": "object",
                "required": ["name", "count"],
                "properties": {
                    "name": {"type": "string", "enum": ["a", "b"]},
                    "count": {"type": "integer"},
                    "extra": {"type": ["number", "null"]},
                    "list": {"type": "array", "items": {"type": "number"}}
                }
            }"#,
        )
        .unwrap();
        let ok = JsonValue::parse(r#"{"name": "a", "count": 3, "extra": null, "list": [1, 2.5]}"#)
            .unwrap();
        assert_eq!(validate_against_schema(&ok, &schema), Ok(()));
        let missing = JsonValue::parse(r#"{"name": "a"}"#).unwrap();
        assert!(validate_against_schema(&missing, &schema)
            .unwrap_err()
            .contains("count"));
        let bad_enum = JsonValue::parse(r#"{"name": "z", "count": 3}"#).unwrap();
        assert!(validate_against_schema(&bad_enum, &schema).is_err());
        let bad_type = JsonValue::parse(r#"{"name": "a", "count": 3.5}"#).unwrap();
        assert!(validate_against_schema(&bad_type, &schema).is_err());
        let bad_item = JsonValue::parse(r#"{"name": "a", "count": 3, "list": ["x"]}"#).unwrap();
        assert!(validate_against_schema(&bad_item, &schema).is_err());
    }

    /// Integer literals stay exact past 2^53, where an `f64` would round
    /// them (`u64::MAX` to 2^64); signed, fractional and exponent forms
    /// stay floats.
    #[test]
    fn integer_literals_are_exact_above_two_to_the_53() {
        for n in [0, 1, (1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let v = JsonValue::parse(&n.to_string()).unwrap();
            assert_eq!(v, JsonValue::Int(n));
            assert_eq!(v.as_u64(), Some(n));
        }
        let too_big = JsonValue::parse("18446744073709551616").unwrap();
        assert_eq!(too_big.as_u64(), None, "2^64 is not a u64");
        assert_eq!(JsonValue::parse("-3").unwrap(), JsonValue::Num(-3.0));
        assert_eq!(JsonValue::parse("3.0").unwrap().as_u64(), Some(3));
        assert_eq!(JsonValue::parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn bits_str_round_trips_every_float() {
        for x in [0.0, -0.0, 0.1 + 0.2, f64::MIN_POSITIVE, 1.0 / 3.0, -7e300] {
            let encoded = bits_str(x);
            let v = JsonValue::parse(&encoded).unwrap();
            let back = f64_from_bits_str(&v, "test").unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn deep_nesting_parses_and_unbalanced_nesting_is_rejected() {
        // 200 levels of arrays — deep enough to prove recursion handles
        // real documents, shallow enough to stay off any stack limit.
        let depth = 200;
        let src = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        let mut v = &JsonValue::parse(&src).unwrap();
        for _ in 0..depth {
            v = &v.as_arr().unwrap()[0];
        }
        assert_eq!(v.as_u64(), Some(0));
        assert!(JsonValue::parse(&format!("{}0{}", "[".repeat(5), "]".repeat(4))).is_err());
        assert!(JsonValue::parse(&format!("{}0{}", "[".repeat(4), "]".repeat(5))).is_err());
    }

    proptest! {
        /// Any string survives escape → embed → parse unchanged —
        /// including quotes, backslashes, control characters, BMP text
        /// and astral-plane scalars.
        #[test]
        fn escape_round_trips_arbitrary_strings(s in arb_string(24)) {
            let doc = format!("{{\"k\": \"{}\"}}", json_escape(&s));
            let parsed = JsonValue::parse(&doc).unwrap();
            prop_assert_eq!(parsed.get("k").and_then(JsonValue::as_str), Some(s.as_str()));
        }

        /// Explicit unicode coverage: embedded control characters plus a
        /// guaranteed astral-plane scalar next to arbitrary text.
        #[test]
        fn escape_round_trips_unicode_and_controls(
            head in arb_string(16),
            ctrl in 0u32..0x20,
        ) {
            let mut s = head;
            s.push(char::from_u32(ctrl).unwrap());
            s.push('\u{1F980}');
            let doc = format!("[\"{}\"]", json_escape(&s));
            let parsed = JsonValue::parse(&doc).unwrap();
            prop_assert_eq!(parsed.as_arr().unwrap()[0].as_str(), Some(s.as_str()));
        }

        /// `json_num` is shortest-roundtrip: the printed decimal parses
        /// back to the identical IEEE-754 bits.
        #[test]
        fn json_num_round_trips_finite_floats(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assume!(x.is_finite());
            let parsed = JsonValue::parse(&json_num(x)).unwrap();
            let back = parsed.as_f64().unwrap();
            prop_assert_eq!(back.to_bits(), x.to_bits());
        }

        /// A render → parse cycle of random nested documents is the
        /// identity (object order and all values preserved).
        #[test]
        fn parse_render_parse_is_a_fixpoint(v in arb_json(3)) {
            let rendered = render(&v);
            let parsed = JsonValue::parse(&rendered).unwrap();
            prop_assert_eq!(parsed, v);
        }

        /// Truncating a valid document anywhere strictly inside it must
        /// produce an error, never a panic or a silent success.
        #[test]
        fn truncated_documents_are_rejected(v in arb_json(2), cut_sel in 0u32..1000) {
            let rendered = render(&v);
            let mut cut = rendered.len() * cut_sel as usize / 1000;
            while cut > 0 && !rendered.is_char_boundary(cut) {
                cut -= 1;
            }
            if cut < rendered.len() && cut > 0 {
                // A prefix can stay valid only if it is a complete value
                // (e.g. a number losing trailing digits); anything
                // structurally open must fail.
                let prefix = &rendered[..cut];
                let _ = JsonValue::parse(prefix); // must not panic
                if matches!(v, JsonValue::Obj(_) | JsonValue::Arr(_)) {
                    prop_assert!(JsonValue::parse(prefix).is_err());
                }
            }
        }

        /// Random structural soup is handled without panicking, and a
        /// few known-bad shapes always fail.
        #[test]
        fn malformed_inputs_error_not_panic(
            picks in prop::collection::vec(0usize..SOUP.len(), 0..40),
        ) {
            let s: String = picks.into_iter().map(|i| SOUP[i]).collect();
            let _ = JsonValue::parse(&s); // must not panic
            prop_assert!(JsonValue::parse("{,}").is_err());
            prop_assert!(JsonValue::parse("[1,]").is_err());
            prop_assert!(JsonValue::parse("\"\\q\"").is_err());
            prop_assert!(JsonValue::parse("{\"a\" 1}").is_err());
            prop_assert!(JsonValue::parse("01x").is_err());
        }
    }

    /// The character soup malformed inputs are built from.
    const SOUP: [char; 20] = [
        '{', '}', '[', ']', ',', ':', '"', '\\', ' ', '\n', '0', '1', '9', '.', '-', 'e', 't', 'n',
        'a', 'z',
    ];

    /// A strategy for arbitrary unicode strings of at most `max` scalars
    /// (surrogate code points are skipped; everything else — controls,
    /// quotes, astral planes — is fair game).
    fn arb_string(max: usize) -> impl Strategy<Value = String> {
        prop::collection::vec(0u32..0x11_0000, 0..max)
            .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
    }

    /// A strategy for short lowercase object keys.
    fn arb_key() -> impl Strategy<Value = String> {
        prop::collection::vec(0u8..26, 1..7)
            .prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect())
    }

    /// A strategy for small nested JSON documents (recursion depth
    /// bounded by `depth` — the stub proptest has no `prop_recursive`,
    /// so the tree is built by explicit recursion at construction time).
    fn arb_json(depth: u32) -> BoxedStrategy<JsonValue> {
        let leaf = prop_oneof![
            Just(JsonValue::Null),
            any::<bool>().prop_map(JsonValue::Bool),
            (-1_000_000_000i64..1_000_000_000).prop_map(|i| number(i as f64 / 64.0)),
            any::<u64>().prop_map(JsonValue::Int),
            arb_string(12).prop_map(JsonValue::Str),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        prop_oneof![
            2 => leaf,
            1 => prop::collection::vec(arb_json(depth - 1), 0..4).prop_map(JsonValue::Arr),
            1 => prop::collection::vec((arb_key(), arb_json(depth - 1)), 0..4).prop_map(|kv| {
                // JSON objects with duplicate keys are ambiguous under
                // `get`; keep the first occurrence only.
                let mut seen = std::collections::BTreeSet::new();
                JsonValue::Obj(
                    kv.into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .collect(),
                )
            }),
        ]
        .boxed()
    }

    /// A number as the parser reads its [`json_num`] text: integral
    /// non-negative values are exact integer literals.
    fn number(x: f64) -> JsonValue {
        if x >= 0.0 && x.fract() == 0.0 {
            JsonValue::Int(x as u64)
        } else {
            JsonValue::Num(x)
        }
    }

    /// Render a [`JsonValue`] back to text with the writer helpers.
    fn render(v: &JsonValue) -> String {
        match v {
            JsonValue::Null => "null".to_owned(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Int(n) => n.to_string(),
            JsonValue::Num(x) => json_num(*x),
            JsonValue::Str(s) => format!("\"{}\"", json_escape(s)),
            JsonValue::Arr(items) => {
                let inner: Vec<String> = items.iter().map(render).collect();
                format!("[{}]", inner.join(", "))
            }
            JsonValue::Obj(members) => {
                let inner: Vec<String> = members
                    .iter()
                    .map(|(k, v)| format!("\"{}\": {}", json_escape(k), render(v)))
                    .collect();
                format!("{{{}}}", inner.join(", "))
            }
        }
    }
}
