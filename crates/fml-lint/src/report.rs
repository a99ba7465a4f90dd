//! Report emission: the machine-readable JSON report, GitHub Actions
//! annotations, and the per-rule summary table.
//!
//! The JSON is hand-rolled (the registry is offline, so no serde): the
//! writer escapes strings per RFC 8259, and a minimal reader
//! ([`parse_report_json`]) exists purely so tests can prove the report
//! round-trips through the CI artifact step without a schema drift.

use crate::rules::Violation;
use crate::Report;

/// One row of the rule registry: name + the one-line invariant it protects.
pub struct RuleInfo {
    /// Rule name as it appears in diagnostics and allowlist entries.
    pub name: &'static str,
    /// The invariant the rule protects, for `--summary` and docs.
    pub invariant: &'static str,
}

/// The full rule registry, in reporting order: the five token/line rules,
/// then the five syntax-aware rules, then the allowlist's own hygiene rule.
pub const RULES: [RuleInfo; 11] = [
    RuleInfo {
        name: crate::rules::RULE_UNSAFE,
        invariant:
            "`unsafe` only in audited leaf modules, with SAFETY comments and `# Safety` docs",
    },
    RuleInfo {
        name: crate::rules::RULE_SPAWN,
        invariant: "threads are born only in the pool; bare spawns escape the FML_THREADS cap and drop the SIMD level",
    },
    RuleInfo {
        name: crate::rules::RULE_ENV,
        invariant: "FML_* env reads only at the designated resolve sites",
    },
    RuleInfo {
        name: crate::rules::RULE_FLOAT_EQ,
        invariant: "no float ==/!= in production code; to_bits or approx helpers",
    },
    RuleInfo {
        name: crate::rules::RULE_STRAY_IO,
        invariant: "no println!/eprintln!/dbg! in library code",
    },
    RuleInfo {
        name: crate::semantic::RULE_PANIC,
        invariant: "Result-returning store/serve functions propagate typed errors, never panic",
    },
    RuleInfo {
        name: crate::semantic::RULE_GUARD,
        invariant: "no lock guard live across a pool dispatch",
    },
    RuleInfo {
        name: crate::semantic::RULE_NONDET,
        invariant: "no hash-ordered iteration feeding float accumulation (bit-identity)",
    },
    RuleInfo {
        name: crate::semantic::RULE_ALLOC,
        invariant: "no per-iteration allocation in kernel/scorer loops",
    },
    RuleInfo {
        name: crate::semantic::RULE_PUB_DOC,
        invariant: "every externally-pub library item carries a doc comment",
    },
    RuleInfo {
        name: "stale-allowlist",
        invariant: "allowlist entries that match nothing must be removed",
    },
];

/// Escapes `s` as a JSON string body (no surrounding quotes).
fn esc(s: &str) -> String {
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

fn violations_json(vs: &[Violation]) -> String {
    let rows: Vec<String> = vs
        .iter()
        .map(|v| {
            format!(
                "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                esc(v.rule),
                esc(&v.path),
                v.line,
                esc(&v.message)
            )
        })
        .collect();
    if rows.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
}

/// Serializes a [`Report`] as the machine-readable JSON the CI step uploads.
pub fn to_json(report: &Report) -> String {
    let suppressed: Vec<String> = report
        .suppressed
        .iter()
        .map(|(rule, n)| format!("    {{\"rule\": \"{}\", \"count\": {n}}}", esc(rule)))
        .collect();
    let suppressed = if suppressed.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n  ]", suppressed.join(",\n"))
    };
    format!(
        "{{\n  \"files_scanned\": {},\n  \"clean\": {},\n  \"violations\": {},\n  \
         \"warnings\": {},\n  \"suppressed\": {}\n}}\n",
        report.files_scanned,
        report.is_clean(),
        violations_json(&report.violations),
        violations_json(&report.warnings),
        suppressed
    )
}

/// A violation read back from the JSON report (`rule` is owned — the
/// `&'static` interning of live runs does not survive serialization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedViolation {
    /// Rule name.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Diagnostic message.
    pub message: String,
}

/// The JSON report read back: enough structure for the round-trip test and
/// for downstream tooling to consume the artifact.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ParsedReport {
    /// `files_scanned` field.
    pub files_scanned: usize,
    /// `clean` field.
    pub clean: bool,
    /// Deny-severity violations.
    pub violations: Vec<ParsedViolation>,
    /// Warn-severity violations.
    pub warnings: Vec<ParsedViolation>,
    /// Per-rule suppressed counts.
    pub suppressed: Vec<(String, usize)>,
}

/// A minimal JSON reader for the report's own shape (objects, arrays,
/// strings, integers, booleans — no floats, no null, no nesting beyond what
/// [`to_json`] emits).  Exists to prove the artifact round-trips.
pub fn parse_report_json(text: &str) -> Result<ParsedReport, String> {
    let mut p = Json {
        src: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.pos != p.src.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    let obj = v.as_object().ok_or("report is not an object")?;
    let mut out = ParsedReport::default();
    for (k, v) in obj {
        match k.as_str() {
            "files_scanned" => out.files_scanned = v.as_usize().ok_or("files_scanned")?,
            "clean" => out.clean = v.as_bool().ok_or("clean")?,
            "violations" => out.violations = parse_violation_list(v)?,
            "warnings" => out.warnings = parse_violation_list(v)?,
            "suppressed" => {
                for item in v.as_array().ok_or("suppressed")? {
                    let o = item.as_object().ok_or("suppressed item")?;
                    let rule = get_str(o, "rule")?;
                    let count = get(o, "count")?.as_usize().ok_or("count")?;
                    out.suppressed.push((rule, count));
                }
            }
            other => return Err(format!("unknown report field {other:?}")),
        }
    }
    Ok(out)
}

fn parse_violation_list(v: &JsonValue) -> Result<Vec<ParsedViolation>, String> {
    let mut out = Vec::new();
    for item in v.as_array().ok_or("violation list")? {
        let o = item.as_object().ok_or("violation item")?;
        out.push(ParsedViolation {
            rule: get_str(o, "rule")?,
            path: get_str(o, "path")?,
            line: get(o, "line")?.as_usize().ok_or("line")?,
            message: get_str(o, "message")?,
        });
    }
    Ok(out)
}

fn get<'a>(o: &'a [(String, JsonValue)], k: &str) -> Result<&'a JsonValue, String> {
    o.iter()
        .find(|(key, _)| key == k)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {k:?}"))
}

fn get_str(o: &[(String, JsonValue)], k: &str) -> Result<String, String> {
    get(o, k)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {k:?} is not a string"))
}

enum JsonValue {
    Str(String),
    Int(usize),
    Bool(bool),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Int(n) => Some(*n),
            _ => None,
        }
    }
    fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
    fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }
    fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }
}

struct Json<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Json<'a> {
    fn ws(&mut self) {
        while self
            .src
            .get(self.pos)
            .map(|b| b.is_ascii_whitespace())
            .unwrap_or(false)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.src.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.ws();
        match self.src.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.src.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                loop {
                    self.ws();
                    let key = match self.value()? {
                        JsonValue::Str(s) => s,
                        _ => return Err("object key is not a string".to_string()),
                    };
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(JsonValue::Object(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.src.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Array(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    match self.src.get(self.pos) {
                        None => return Err("unterminated string".to_string()),
                        Some(b'"') => {
                            self.pos += 1;
                            return Ok(JsonValue::Str(s));
                        }
                        Some(b'\\') => {
                            self.pos += 1;
                            match self.src.get(self.pos) {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                Some(b'r') => s.push('\r'),
                                Some(b't') => s.push('\t'),
                                Some(b'u') => {
                                    let hex = self
                                        .src
                                        .get(self.pos + 1..self.pos + 5)
                                        .ok_or("bad \\u escape")?;
                                    let code = u32::from_str_radix(
                                        std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                        16,
                                    )
                                    .map_err(|e| e.to_string())?;
                                    s.push(char::from_u32(code).ok_or("bad codepoint")?);
                                    self.pos += 4;
                                }
                                other => return Err(format!("bad escape {other:?}")),
                            }
                            self.pos += 1;
                        }
                        Some(_) => {
                            // Multi-byte UTF-8 sequences pass through intact.
                            let start = self.pos;
                            while self.pos < self.src.len()
                                && !matches!(self.src[self.pos], b'"' | b'\\')
                            {
                                self.pos += 1;
                            }
                            s.push_str(
                                std::str::from_utf8(&self.src[start..self.pos])
                                    .map_err(|e| e.to_string())?,
                            );
                        }
                    }
                }
            }
            Some(b't') if self.src[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') if self.src[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(JsonValue::Bool(false))
            }
            Some(b) if b.is_ascii_digit() => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .map(u8::is_ascii_digit)
                    .unwrap_or(false)
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|e| e.to_string())?
                    .parse()
                    .map(JsonValue::Int)
                    .map_err(|e| e.to_string())
            }
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }
}

/// Formats one violation as a GitHub Actions workflow annotation
/// (`::error`/`::warning file=…,line=…,title=…::message`), which the runner
/// turns into inline PR review comments.
pub fn github_annotation(v: &Violation, warn: bool) -> String {
    let level = if warn { "warning" } else { "error" };
    // Annotation messages use %0A for newlines and must escape %, per the
    // workflow-command grammar.
    let msg = v.message.replace('%', "%25").replace('\n', "%0A");
    let title = format!("fml-lint: {}", v.rule);
    format!(
        "::{level} file={},line={},title={}::{}",
        v.path, v.line, title, msg
    )
}

/// Renders the per-rule summary table: violations, warnings, and suppressed
/// counts for every registered rule — the nightly job prints this so drift
/// in the allowlist is visible without diffing files.
pub fn summary(report: &Report) -> String {
    let count = |vs: &[Violation], rule: &str| vs.iter().filter(|v| v.rule == rule).count();
    let mut out = String::from("rule                    deny  warn  suppressed\n");
    for rule in &RULES {
        let suppressed = report.suppressed.get(rule.name).copied().unwrap_or(0);
        out.push_str(&format!(
            "{:<22}  {:>4}  {:>4}  {:>10}\n",
            rule.name,
            count(&report.violations, rule.name),
            count(&report.warnings, rule.name),
            suppressed
        ));
    }
    out.push_str(&format!(
        "files scanned: {}; clean: {}\n",
        report.files_scanned,
        report.is_clean()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample() -> Report {
        let mut suppressed = BTreeMap::new();
        suppressed.insert("panic-policy".to_string(), 7);
        Report {
            violations: vec![Violation {
                rule: "float-eq",
                path: "crates/a/src/x.rs".to_string(),
                line: 12,
                message: "msg with \"quotes\" and\nnewline".to_string(),
            }],
            warnings: vec![Violation {
                rule: "alloc-in-hot-loop",
                path: "crates/b/src/y.rs".to_string(),
                line: 3,
                message: "per-iteration alloc — hoist".to_string(),
            }],
            suppressed,
            files_scanned: 114,
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let parsed = parse_report_json(&to_json(&report)).unwrap();
        assert_eq!(parsed.files_scanned, 114);
        assert!(!parsed.clean);
        assert_eq!(parsed.violations.len(), 1);
        assert_eq!(parsed.violations[0].rule, "float-eq");
        assert_eq!(parsed.violations[0].line, 12);
        assert_eq!(
            parsed.violations[0].message,
            "msg with \"quotes\" and\nnewline"
        );
        assert_eq!(parsed.warnings.len(), 1);
        assert_eq!(parsed.warnings[0].message, "per-iteration alloc — hoist");
        assert_eq!(parsed.suppressed, vec![("panic-policy".to_string(), 7)]);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = Report {
            violations: Vec::new(),
            warnings: Vec::new(),
            suppressed: BTreeMap::new(),
            files_scanned: 0,
        };
        let parsed = parse_report_json(&to_json(&report)).unwrap();
        assert!(parsed.clean);
        assert!(parsed.violations.is_empty() && parsed.suppressed.is_empty());
    }

    #[test]
    fn github_annotations_escape_the_message() {
        let v = Violation {
            rule: "float-eq",
            path: "crates/a/src/x.rs".to_string(),
            line: 9,
            message: "100% wrong\nsecond line".to_string(),
        };
        let line = github_annotation(&v, false);
        assert_eq!(
            line,
            "::error file=crates/a/src/x.rs,line=9,title=fml-lint: float-eq\
             ::100%25 wrong%0Asecond line"
        );
        assert!(github_annotation(&v, true).starts_with("::warning "));
    }

    #[test]
    fn summary_lists_every_rule() {
        let s = summary(&sample());
        for rule in &RULES {
            assert!(s.contains(rule.name), "summary missing {}", rule.name);
        }
        assert!(s.contains("files scanned: 114"));
    }

    #[test]
    fn rule_registry_has_no_duplicates() {
        let mut names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RULES.len());
    }
}
