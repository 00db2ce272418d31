//! Checked-in collapse ceilings for the serve path and the CI gate that
//! enforces them on servebench's result line.
//!
//! `results/SLO.toml` is the single reviewable home of the ceilings:
//! moving one is a one-line diff there, not a code change. The file is
//! a small TOML subset parsed by [`parse_slo`] — hand-rolled like the
//! rest of the workspace (comments, `[section]` headers, and
//! `key = value` scalars; no arrays, no nesting). One section per
//! servebench workload, each capping that workload's `fresh_p90_ms`:
//!
//! ```toml
//! schema = "cs-traffic-slo/v2"
//!
//! [dense-core]
//! fresh_p90_ms = 100.0
//!
//! [metro-sparse]
//! fresh_p90_ms = 50.0
//!
//! [wire-mixed]
//! fresh_p90_ms = 80.0
//! ```
//!
//! [`gate`] reads the last line of a `servebench --workload all` run:
//! it must say `"correct": true`, and every `<workload>/fresh_p90_ms`
//! must be at or under its ceiling. Each breach produces one
//! human-readable violation line naming the workload and the metric.

use std::path::Path;
use telemetry::json::Json;

/// The workloads a `servebench --workload all` line reports, each with
/// its own `[section]` in the SLO file.
pub const WORKLOADS: [&str; 3] = ["dense-core", "metro-sparse", "wire-mixed"];

/// The metric each workload section caps.
pub const METRIC: &str = "fresh_p90_ms";

/// Parse failure: 1-based line and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloError {
    /// 1-based line in the TOML text (0 for file-level problems).
    pub line: usize,
    /// What was wrong.
    pub msg: String,
}

impl std::fmt::Display for SloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SLO.toml line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for SloError {}

/// The parsed SLO file: one collapse ceiling per workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Ceiling on `<workload>/fresh_p90_ms` (ms), indexed like
    /// [`WORKLOADS`].
    pub fresh_p90_ms: [f64; WORKLOADS.len()],
}

/// Parses the TOML subset described in the [module docs](self).
///
/// # Errors
///
/// [`SloError`] with a 1-based line number on the first malformed line,
/// unknown section/key, duplicate key, or missing required key.
pub fn parse_slo(text: &str) -> Result<Slo, SloError> {
    let err = |line: usize, msg: String| SloError { line, msg };
    // Index into WORKLOADS of the current section.
    let mut section: Option<usize> = None;
    let mut ceilings = [None; WORKLOADS.len()];
    let mut schema_seen = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| err(lineno, "unterminated section header".into()))?
                .trim();
            let w = WORKLOADS
                .iter()
                .position(|&w| w == name)
                .ok_or_else(|| err(lineno, format!("unknown section '[{name}]'")))?;
            section = Some(w);
            continue;
        }
        let (key, value) =
            line.split_once('=').ok_or_else(|| err(lineno, "expected 'key = value'".into()))?;
        let (key, value) = (key.trim(), value.trim());
        let Some(w) = section else {
            // Only the schema marker lives at top level.
            if key != "schema" {
                return Err(err(lineno, format!("key '{key}' outside any section")));
            }
            if value.trim_matches('"') != "cs-traffic-slo/v2" {
                return Err(err(lineno, format!("unsupported schema {value}")));
            }
            schema_seen = true;
            continue;
        };
        if key != METRIC {
            return Err(err(lineno, format!("unknown key '{key}' in [{}]", WORKLOADS[w])));
        }
        let num: f64 = value
            .parse()
            .map_err(|_| err(lineno, format!("value of '{key}' is not a number: '{value}'")))?;
        if !num.is_finite() || num < 0.0 {
            return Err(err(lineno, format!("'{key}' must be finite and non-negative")));
        }
        if ceilings[w].replace(num).is_some() {
            return Err(err(lineno, format!("duplicate key '{key}' in [{}]", WORKLOADS[w])));
        }
    }
    if !schema_seen {
        return Err(err(0, "missing 'schema = \"cs-traffic-slo/v2\"' marker".into()));
    }
    let mut fresh_p90_ms = [0.0; WORKLOADS.len()];
    for (w, ceiling) in ceilings.iter().enumerate() {
        fresh_p90_ms[w] = ceiling
            .ok_or_else(|| err(0, format!("missing key '{METRIC}' in [{}]", WORKLOADS[w])))?;
    }
    Ok(Slo { fresh_p90_ms })
}

/// Reads and parses an SLO file.
///
/// # Errors
///
/// [`SloError`] for unreadable files (line 0) and everything
/// [`parse_slo`] rejects.
pub fn load_slo(path: &Path) -> Result<Slo, SloError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SloError { line: 0, msg: format!("cannot read {}: {e}", path.display()) })?;
    parse_slo(&text)
}

/// `<workload>/fresh_p90_ms` of a parsed `servebench --workload all`
/// result line, if the line carries it.
pub fn fresh_p90_ms(result: &Json, workload: &str) -> Option<f64> {
    let metric = result.get("metrics")?.get(&format!("{workload}/{METRIC}"))?;
    metric.get("value")?.as_num()
}

/// Applies the SLO gate to a parsed `servebench --workload all` result
/// line. Returns one violation line per breach, each naming the
/// workload and the metric; empty means the gate passes.
pub fn gate(slo: &Slo, result: &Json) -> Vec<String> {
    let mut violations = Vec::new();
    if !matches!(result.get("correct"), Some(Json::Bool(true))) {
        violations.push(format!(
            "{}: correct is not true (servebench names the failed check above its result line)",
            WORKLOADS.join(", ")
        ));
    }
    for (w, &ceiling) in WORKLOADS.iter().zip(&slo.fresh_p90_ms) {
        match fresh_p90_ms(result, w) {
            None => violations.push(format!("{w}/{METRIC}: missing from the result line")),
            Some(v) if v > ceiling => violations
                .push(format!("{w}/{METRIC}: {v:.3} ms exceeds the {ceiling:.3} ms ceiling")),
            Some(_) => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
schema = "cs-traffic-slo/v2"

# ceilings
[dense-core]
fresh_p90_ms = 100.0   # generous

[metro-sparse]
fresh_p90_ms = 50.0

[wire-mixed]
fresh_p90_ms = 80.0
"#;

    #[test]
    fn parses_the_reference_file() {
        let slo = parse_slo(GOOD).unwrap();
        assert_eq!(slo.fresh_p90_ms, [100.0, 50.0, 80.0]);
        let tracked = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/SLO.toml");
        load_slo(Path::new(tracked)).unwrap();
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        let cases: &[(&str, usize)] = &[
            ("schema = \"cs-traffic-slo/v2\"\n[dense-core\n", 2),
            ("schema = \"cs-traffic-slo/v2\"\n[typo]\n", 2),
            ("schema = \"cs-traffic-slo/v2\"\n[dense-core]\nnonsense\n", 3),
            ("schema = \"cs-traffic-slo/v2\"\n[dense-core]\nfresh_p90_ms = soon\n", 3),
            ("schema = \"cs-traffic-slo/v2\"\n[dense-core]\nfresh_p90_ms = -1\n", 3),
            ("schema = \"cs-traffic-slo/v2\"\n[dense-core]\nwrong_key = 1\n", 3),
            ("schema = \"cs-traffic-slo/v2\"\nstray = 1\n", 2),
            ("schema = \"cs-traffic-slo/v1\"\n", 1),
            ("schema = \"cs-traffic-slo/v2\"\n[wire-mixed]\nfresh_p90_ms = 1\nfresh_p90_ms = 2\n", 4),
            // The previous schema's sections and keys are unknown now.
            ("schema = \"cs-traffic-slo/v2\"\n[budget]\ntick_p99_us = 1\n", 2),
            ("schema = \"cs-traffic-slo/v2\"\n[metro-sparse]\nfresh_p50_ms = 1\n", 3),
            ("schema = \"cs-traffic-slo/v2\"\n[wire-mixed]\nfresh_p90_ms = inf\n", 3),
            // Sections are per workload: a repeated one still holds one key.
            ("schema = \"cs-traffic-slo/v2\"\n[dense-core]\nfresh_p90_ms = 1\n[dense-core]\nfresh_p90_ms = 2\n", 5),
        ];
        for (text, line) in cases {
            let e = parse_slo(text).unwrap_err();
            assert_eq!(e.line, *line, "{text:?} -> {e}");
        }
        // Missing schema and missing keys are file-level (line 0).
        assert_eq!(parse_slo("[dense-core]\nfresh_p90_ms = 1\n").unwrap_err().line, 0);
        let e = parse_slo(&GOOD.replace("fresh_p90_ms = 50.0", "")).unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.msg.contains("[metro-sparse]"), "{e}");
    }

    /// A `servebench --workload all` result line with the given
    /// `correct` flag and `fresh_p90_ms` per workload (`None` leaves the
    /// metric out).
    fn result_line(correct: bool, p90: [Option<f64>; 3]) -> Json {
        let mut metrics = String::new();
        for (w, v) in WORKLOADS.iter().zip(p90) {
            metrics += &format!(r#""{w}/fresh_p50_ms":{{"value":1.0,"unit":"ms"}},"#);
            if let Some(v) = v {
                metrics += &format!(r#""{w}/{METRIC}":{{"value":{v},"unit":"ms"}},"#);
            }
        }
        let line = format!(
            r#"{{"correct":{correct},"attempted":100,"failed":0,"metrics":{{{}}}}}"#,
            metrics.trim_end_matches(',')
        );
        Json::parse(&line).unwrap()
    }

    #[test]
    fn gate_passes_and_names_each_failure() {
        let slo = parse_slo(GOOD).unwrap();
        let ok = [Some(10.8), Some(5.5), Some(80.0)];
        assert!(gate(&slo, &result_line(true, ok)).is_empty(), "at the ceiling passes");

        let cases: &[(bool, [Option<f64>; 3], &str)] = &[
            (true, [Some(10.8), Some(50.1), Some(8.0)], "metro-sparse/fresh_p90_ms: 50.100 ms"),
            (true, [Some(10.8), Some(5.5), None], "wire-mixed/fresh_p90_ms: missing"),
            (false, ok, "dense-core, metro-sparse, wire-mixed: correct is not true"),
        ];
        for (correct, p90, named) in cases {
            let v = gate(&slo, &result_line(*correct, *p90));
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].starts_with(named), "{v:?} should name {named:?}");
        }
        // A single-workload line has no `<workload>/` prefixes: every
        // workload's metric is missing.
        let single = Json::parse(r#"{"correct":true,"metrics":{"fresh_p90_ms":{"value":1}}}"#);
        assert_eq!(gate(&slo, &single.unwrap()).len(), 3);
    }
}
