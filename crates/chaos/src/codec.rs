//! Wire format for the chaos harness: a compact CSV probe-report line,
//! plus the textual corruptions the fault plan applies to it.
//!
//! The codec is deliberately *permissive* about semantics: `NaN`,
//! negative, and infinite speeds, and out-of-range segment ids, all
//! parse successfully. Semantic validation is the streaming service's
//! job (its admission rules reject them and count the rejection), and
//! the whole point of the harness is to deliver such reports to it.
//! Only *structurally* broken lines — wrong field count, unparseable
//! numbers — fail here, modelling a transport-level corruption that
//! never reaches the service.

/// Column header of the chaos probe-report format.
pub const OBS_HEADER: &str = "vehicle,timestamp_s,segment,speed_kmh";

/// Encodes one probe report. `{}` on `f64` prints the shortest string
/// that round-trips, so `parse_line(&encode_line(..))` is lossless —
/// including for `NaN` and infinities, which `f64`'s `FromStr` accepts.
pub fn encode_line(vehicle: u64, timestamp_s: u64, segment: usize, speed_kmh: f64) -> String {
    format!("{vehicle},{timestamp_s},{segment},{speed_kmh}")
}

/// Decodes one probe report line.
///
/// # Errors
///
/// A human-readable description of the structural problem (field count
/// or number syntax). Semantically invalid but well-formed reports are
/// `Ok` — the service's admission rules deal with those.
pub fn parse_line(line: &str) -> Result<(u64, u64, usize, f64), String> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 4 {
        return Err(format!("expected 4 fields, got {}", fields.len()));
    }
    let vehicle = fields[0].trim().parse::<u64>().map_err(|e| format!("bad vehicle: {e}"))?;
    let timestamp_s = fields[1].trim().parse::<u64>().map_err(|e| format!("bad timestamp: {e}"))?;
    let segment = fields[2].trim().parse::<usize>().map_err(|e| format!("bad segment: {e}"))?;
    let speed_kmh = fields[3].trim().parse::<f64>().map_err(|e| format!("bad speed: {e}"))?;
    Ok((vehicle, timestamp_s, segment, speed_kmh))
}

/// The textual corruptions the plan can apply to a single report line.
///
/// The first two are structural (the line no longer parses); the rest
/// are semantic (the line parses, and the *service* must reject it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineFault {
    /// Cut the line before its third field — too few fields to parse.
    Truncate,
    /// Replace the line with non-CSV noise.
    Garbage,
    /// Well-formed line whose speed is `NaN`.
    NanSpeed,
    /// Well-formed line whose speed is negative.
    NegativeSpeed,
    /// Well-formed line whose speed is `+inf`.
    InfiniteSpeed,
    /// Well-formed line naming a segment the service does not have.
    BadSegment,
}

impl LineFault {
    /// Short stable name used in fault logs (and their hashes).
    pub fn name(self) -> &'static str {
        match self {
            LineFault::Truncate => "truncate",
            LineFault::Garbage => "garbage",
            LineFault::NanSpeed => "nan-speed",
            LineFault::NegativeSpeed => "negative-speed",
            LineFault::InfiniteSpeed => "infinite-speed",
            LineFault::BadSegment => "bad-segment",
        }
    }
}

/// Applies `fault` to a well-formed report line. Falls back to
/// [`LineFault::Garbage`] when the input does not parse (cannot happen
/// when the harness corrupts only lines it encoded itself).
pub fn corrupt_line(line: &str, fault: LineFault, num_segments: usize) -> String {
    let Ok((vehicle, ts, segment, speed)) = parse_line(line) else {
        return "####garbage####".to_string();
    };
    match fault {
        LineFault::Truncate => {
            let cut = line.match_indices(',').nth(1).map(|(i, _)| i).unwrap_or(0);
            line[..cut].to_string()
        }
        LineFault::Garbage => "####garbage####".to_string(),
        LineFault::NanSpeed => encode_line(vehicle, ts, segment, f64::NAN),
        LineFault::NegativeSpeed => encode_line(vehicle, ts, segment, -speed.abs().max(1.0)),
        LineFault::InfiniteSpeed => encode_line(vehicle, ts, segment, f64::INFINITY),
        LineFault::BadSegment => encode_line(vehicle, ts, num_segments + 7, speed),
    }
}

/// Corruptions applied to a serialized service checkpoint. Every one of
/// these must make [`ShardedService::restore`] fail — the differential
/// oracle asserts exactly that.
///
/// [`ShardedService::restore`]: traffic_cs::ShardedService::restore
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointFault {
    /// Bump the format version in the header line.
    HeaderFlip,
    /// Cut the text at two thirds of its length (mid factor matrix for
    /// any real checkpoint).
    Truncate,
    /// Replace the leading characters of one factor hex word with
    /// non-hex characters (length preserved, so this exercises the
    /// digit validation, not the length check).
    HexBreak,
}

impl CheckpointFault {
    /// Short stable name used in fault logs (and their hashes).
    pub fn name(self) -> &'static str {
        match self {
            CheckpointFault::HeaderFlip => "header-flip",
            CheckpointFault::Truncate => "truncate",
            CheckpointFault::HexBreak => "hex-break",
        }
    }
}

/// Applies `fault` to checkpoint text. [`CheckpointFault::HexBreak`]
/// falls back to a header flip when the checkpoint has no factor rows
/// (`factors none`), so the result is always restore-rejectable.
pub fn corrupt_checkpoint(text: &str, fault: CheckpointFault) -> String {
    match fault {
        CheckpointFault::HeaderFlip => {
            text.replacen("cs-serve-checkpoint v1", "cs-serve-checkpoint v9", 1)
        }
        CheckpointFault::Truncate => text[..text.len() * 2 / 3].to_string(),
        CheckpointFault::HexBreak => {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let target = lines
                .iter()
                .rposition(|l| !l.is_empty() && l.split_whitespace().all(|w| w.len() == 16));
            match target {
                Some(i) => {
                    let row = &lines[i];
                    let first = row.split_whitespace().next().expect("non-empty row");
                    let broken = format!("zz{}", &first[2..]);
                    lines[i] = row.replacen(first, &broken, 1);
                    let mut out = lines.join("\n");
                    out.push('\n');
                    out
                }
                None => corrupt_checkpoint(text, CheckpointFault::HeaderFlip),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_including_non_finite() {
        for &speed in &[33.5, 0.0, f64::NAN, f64::INFINITY, -12.25] {
            let line = encode_line(7, 3600, 2, speed);
            let (v, t, s, sp) = parse_line(&line).unwrap();
            assert_eq!((v, t, s), (7, 3600, 2));
            assert_eq!(sp.to_bits(), speed.to_bits());
        }
    }

    #[test]
    fn structural_faults_fail_parse_semantic_faults_pass() {
        let clean = encode_line(1, 700, 0, 42.0);
        assert!(parse_line(&corrupt_line(&clean, LineFault::Truncate, 4)).is_err());
        assert!(parse_line(&corrupt_line(&clean, LineFault::Garbage, 4)).is_err());
        let (_, _, _, nan) = parse_line(&corrupt_line(&clean, LineFault::NanSpeed, 4)).unwrap();
        assert!(nan.is_nan());
        let (_, _, _, neg) =
            parse_line(&corrupt_line(&clean, LineFault::NegativeSpeed, 4)).unwrap();
        assert!(neg < 0.0);
        let (_, _, _, inf) =
            parse_line(&corrupt_line(&clean, LineFault::InfiniteSpeed, 4)).unwrap();
        assert!(inf.is_infinite());
        let (_, _, seg, _) = parse_line(&corrupt_line(&clean, LineFault::BadSegment, 4)).unwrap();
        assert!(seg >= 4);
    }

    #[test]
    fn checkpoint_corruptions_are_visible() {
        let text = "cs-serve-checkpoint v1\nclock 900\nhead_slot 3\nfactors 2 2\n\
                    3ff0000000000000 4000000000000000\n4008000000000000 4010000000000000\n";
        let flipped = corrupt_checkpoint(text, CheckpointFault::HeaderFlip);
        assert!(flipped.contains("v9") && !flipped.contains("v1\n"));
        let cut = corrupt_checkpoint(text, CheckpointFault::Truncate);
        assert!(cut.len() < text.len());
        let broken = corrupt_checkpoint(text, CheckpointFault::HexBreak);
        assert!(broken.contains("zz"));
        assert_eq!(broken.len(), text.len());
        // No factor rows -> HexBreak degrades to a header flip.
        let none = "cs-serve-checkpoint v1\nclock 0\nhead_slot 3\nfactors none\n";
        assert!(corrupt_checkpoint(none, CheckpointFault::HexBreak).contains("v9"));
    }
}
