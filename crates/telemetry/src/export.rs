//! Versioned on-disk export: `TELEMETRY_<name>.json` artifacts.
//!
//! The schema is versioned so CI can refuse an export it does not
//! understand. v1 is a flat object: `schema`, `label`, `mode` and a `totals`
//! snapshot. Everything except `label` is a pure function of the recorded
//! metrics, so repeated runs — and runs at different `--threads` — produce
//! byte-identical files.

use crate::snapshot::Snapshot;
use crate::Mode;
use std::path::{Path, PathBuf};

/// Schema identifier written into (and required of) every export.
pub const SCHEMA: &str = "bento-telemetry/v1";

/// Render a full export document.
pub fn render(label: &str, mode: Mode, totals: &Snapshot) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"label\": \"{}\",\n", escape(label)));
    out.push_str(&format!("  \"mode\": \"{}\",\n", mode.name()));
    out.push_str("  \"totals\": {\n");
    totals.write_json(&mut out, 4);
    out.push_str("  }\n}\n");
    out
}

/// Write an export under `dir` as `TELEMETRY_<name>.json`; returns the path.
pub fn write(
    dir: impl AsRef<Path>,
    name: &str,
    label: &str,
    mode: Mode,
    totals: &Snapshot,
) -> std::io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("TELEMETRY_{name}.json"));
    std::fs::write(&path, render(label, mode, totals))?;
    Ok(path)
}

/// Validate an export document against the v1 schema: the schema tag, the
/// required top-level keys, section shape, and brace balance. Returns a
/// human-readable reason on failure. Deliberately structural rather than a
/// full JSON parse — it catches version skew and truncation, which is what
/// the CI gate needs.
pub fn validate(doc: &str) -> Result<(), String> {
    if !doc.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("missing or wrong schema tag (want {SCHEMA})"));
    }
    for key in ["\"label\":", "\"mode\":", "\"totals\":"] {
        if !doc.contains(key) {
            return Err(format!("missing required key {key}"));
        }
    }
    for section in ["\"counters\":", "\"gauges\":", "\"histograms\":"] {
        if !doc.contains(section) {
            return Err(format!("totals missing section {section}"));
        }
    }
    let mut depth: i64 = 0;
    for ch in doc.chars() {
        match ch {
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced braces".into());
                }
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err("truncated document (unbalanced braces)".into());
    }
    Ok(())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::GaugeSnap;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("a.count".into(), 7);
        s.gauges
            .insert("a.depth".into(), GaugeSnap { last: 1, max: 4 });
        s
    }

    #[test]
    fn rendered_export_validates() {
        let doc = render("test", Mode::Full, &sample());
        validate(&doc).expect("render/validate roundtrip");
    }

    #[test]
    fn validate_rejects_skew_and_truncation() {
        let doc = render("test", Mode::Summary, &sample());
        let skewed = doc.replace(SCHEMA, "bento-telemetry/v999");
        assert!(validate(&skewed).is_err());
        let truncated = &doc[..doc.len() - 3];
        assert!(validate(truncated).is_err());
    }

    #[test]
    fn label_is_escaped() {
        let doc = render("with \"quotes\"", Mode::Off, &Snapshot::default());
        assert!(doc.contains("with \\\"quotes\\\""));
        validate(&doc).expect("escaped label still validates");
    }
}
