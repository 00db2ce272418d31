//! CI gate for telemetry output: checks that every line of a metrics
//! JSONL file is parseable JSON carrying the expected top-level keys,
//! that histogram snapshots carry well-formed `lo:hi:count` bucket
//! triples, and (optionally) that a run manifest parses with its
//! required keys.
//!
//! ```text
//! validate-jsonl <metrics.jsonl> [run_manifest.json]
//! validate-jsonl --flight flight_dump.jsonl
//! ```
//!
//! `--flight` checks a `cs-traffic-flight/v1` flight-recorder dump:
//! the header line, strictly increasing `seq` numbers, well-formed
//! trace records (16-hex `trace` id plus a `stage`), and that every
//! trace admitted into the window also reached a terminal stage
//! (`solved`, `degraded`, or `checkpointed`) inside the dump.
//!
//! Exits non-zero with a line-precise message on the first violation.

use std::collections::{BTreeMap, BTreeSet};
use telemetry::json::Json;

const KNOWN_TYPES: &[&str] = &["span", "event", "counter", "gauge", "histogram", "trace"];
const REQUIRED_RECORD_KEYS: &[&str] = &["type", "level", "name", "ts_ms"];
const REQUIRED_MANIFEST_KEYS: &[&str] =
    &["schema", "command", "git_rev", "threads", "quick", "experiments", "created_unix_ms"];

fn fail(message: String) -> ! {
    eprintln!("validate-jsonl: {message}");
    std::process::exit(1);
}

fn validate_jsonl(path: &str) -> usize {
    let content = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read '{path}': {e}")));
    let mut records = 0usize;
    for (lineno, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line)
            .unwrap_or_else(|e| fail(format!("{path}:{}: not valid JSON: {e}", lineno + 1)));
        let Json::Obj(_) = value else {
            fail(format!("{path}:{}: line is not a JSON object", lineno + 1));
        };
        for key in REQUIRED_RECORD_KEYS {
            if value.get(key).is_none() {
                fail(format!("{path}:{}: missing required key '{key}'", lineno + 1));
            }
        }
        let ty = value
            .get("type")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(format!("{path}:{}: 'type' is not a string", lineno + 1)));
        if !KNOWN_TYPES.contains(&ty) {
            fail(format!("{path}:{}: unknown record type '{ty}'", lineno + 1));
        }
        if value.get("ts_ms").and_then(Json::as_num).is_none() {
            fail(format!("{path}:{}: 'ts_ms' is not a number", lineno + 1));
        }
        if ty == "histogram" {
            validate_buckets(path, lineno + 1, &value);
        }
        records += 1;
    }
    if records == 0 {
        fail(format!("{path}: no records emitted"));
    }
    records
}

/// Histogram snapshots encode non-empty buckets as space-separated
/// `lo:hi:count` triples (hi = `inf` in the top bucket) so downstream
/// tooling can re-derive quantiles; reject anything else.
fn validate_buckets(path: &str, lineno: usize, value: &Json) {
    let Some(buckets) = value.get("buckets") else {
        return; // empty histograms omit the field
    };
    let Some(buckets) = buckets.as_str() else {
        fail(format!("{path}:{lineno}: 'buckets' is not a string"));
    };
    for triple in buckets.split_whitespace() {
        let parts: Vec<&str> = triple.split(':').collect();
        let ok = parts.len() == 3
            && parts[0].parse::<f64>().is_ok()
            && (parts[1] == "inf" || parts[1].parse::<f64>().is_ok())
            && parts[2].parse::<u64>().is_ok();
        if !ok {
            fail(format!("{path}:{lineno}: malformed bucket triple '{triple}' (want lo:hi:count)"));
        }
    }
}

/// Terminal causal-trace stages: once a report hits one of these, its
/// story in the dump is complete.
const TERMINAL_STAGES: &[&str] = &["solved", "degraded", "checkpointed"];

/// Required shape of a `cs-traffic-flight/v1` flight-recorder dump:
/// the header line, the ring records with strictly increasing `seq`
/// numbers, and causal completeness of the traces it captured.
fn validate_flight(path: &str) {
    let content = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read '{path}': {e}")));
    let mut lines = content.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());

    let Some((header_no, header_line)) = lines.next() else {
        fail(format!("{path}: empty flight dump"));
    };
    let header = Json::parse(header_line)
        .unwrap_or_else(|e| fail(format!("{path}:{}: not valid JSON: {e}", header_no + 1)));
    match header.get("schema").and_then(Json::as_str) {
        Some("cs-traffic-flight/v1") => {}
        Some(other) => fail(format!("{path}: unsupported flight schema '{other}'")),
        None => fail(format!("{path}: header is missing 'schema'")),
    }
    if header.get("trigger").and_then(Json::as_str).is_none() {
        fail(format!("{path}: header 'trigger' is not a string"));
    }
    if header.get("git_rev").and_then(Json::as_str).is_none() {
        fail(format!("{path}: header 'git_rev' is not a string"));
    }
    for key in ["created_unix_ms", "capacity", "captured", "dropped"] {
        if header.get(key).and_then(Json::as_num).is_none() {
            fail(format!("{path}: header '{key}' is not a number"));
        }
    }
    if header.get("meta").is_none() {
        fail(format!("{path}: header is missing 'meta'"));
    }

    let mut records = 0usize;
    let mut last_seq: Option<f64> = None;
    // stage sets per trace id: admitted traces must also reach a
    // terminal stage somewhere in the dump.
    let mut stages: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (lineno, line) in lines {
        let lineno = lineno + 1;
        let value = Json::parse(line)
            .unwrap_or_else(|e| fail(format!("{path}:{lineno}: not valid JSON: {e}")));
        for key in REQUIRED_RECORD_KEYS {
            if value.get(key).is_none() {
                fail(format!("{path}:{lineno}: missing required key '{key}'"));
            }
        }
        let ty = value
            .get("type")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(format!("{path}:{lineno}: 'type' is not a string")));
        if !KNOWN_TYPES.contains(&ty) {
            fail(format!("{path}:{lineno}: unknown record type '{ty}'"));
        }
        let Some(seq) = value.get("seq").and_then(Json::as_num) else {
            fail(format!("{path}:{lineno}: ring record is missing numeric 'seq'"));
        };
        if let Some(prev) = last_seq {
            if seq <= prev {
                fail(format!("{path}:{lineno}: 'seq' {seq} not strictly above previous {prev}"));
            }
        }
        last_seq = Some(seq);
        if ty == "histogram" {
            validate_buckets(path, lineno, &value);
        }
        if ty == "trace" {
            let fields = value
                .get("fields")
                .unwrap_or_else(|| fail(format!("{path}:{lineno}: trace record has no fields")));
            let id = fields
                .get("trace")
                .and_then(Json::as_str)
                .unwrap_or_else(|| fail(format!("{path}:{lineno}: fields.trace is not a string")));
            if id.len() != 16 || !id.bytes().all(|b| b.is_ascii_hexdigit()) {
                fail(format!("{path}:{lineno}: trace id '{id}' is not a 16-digit hex id"));
            }
            let stage = fields
                .get("stage")
                .and_then(Json::as_str)
                .unwrap_or_else(|| fail(format!("{path}:{lineno}: fields.stage is not a string")));
            stages.entry(id.to_string()).or_default().insert(stage.to_string());
        }
        records += 1;
    }

    let mut traced = 0usize;
    for (id, set) in &stages {
        if set.contains("admitted") && !TERMINAL_STAGES.iter().any(|t| set.contains(*t)) {
            fail(format!(
                "{path}: trace {id} was admitted but never reached a terminal stage \
                 (solved/degraded/checkpointed)"
            ));
        }
        traced += 1;
    }
    println!("{path}: flight dump OK ({records} ring records, {traced} traced reports)");
}

fn validate_manifest(path: &str) {
    let content = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read '{path}': {e}")));
    let value =
        Json::parse(&content).unwrap_or_else(|e| fail(format!("{path}: not valid JSON: {e}")));
    for key in REQUIRED_MANIFEST_KEYS {
        if value.get(key).is_none() {
            fail(format!("{path}: missing required manifest key '{key}'"));
        }
    }
    let Some(Json::Arr(experiments)) = value.get("experiments") else {
        fail(format!("{path}: 'experiments' is not an array"));
    };
    for (i, exp) in experiments.iter().enumerate() {
        for key in ["id", "elapsed_s", "outputs"] {
            if exp.get(key).is_none() {
                fail(format!("{path}: experiments[{i}] missing key '{key}'"));
            }
        }
    }
    println!("{path}: manifest OK ({} experiments)", experiments.len());
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--flight") {
        args.remove(pos);
        if pos >= args.len() {
            fail("--flight requires a path".to_string());
        }
        validate_flight(&args.remove(pos));
    }
    if args.is_empty() && std::env::args().len() <= 1 {
        fail(
            "usage: validate-jsonl [--flight flight_dump.jsonl] <metrics.jsonl> \
             [run_manifest.json]"
                .to_string(),
        );
    }
    if let Some(jsonl) = args.first() {
        let records = validate_jsonl(jsonl);
        println!("{jsonl}: {records} valid records");
    }
    if let Some(manifest) = args.get(1) {
        validate_manifest(manifest);
    }
}
