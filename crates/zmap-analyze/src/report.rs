//! Rendering: human-readable text and machine-readable JSON, both
//! deterministic (findings arrive pre-sorted from the lint pass).

use crate::lints::Finding;

/// Renders the clippy-style text report.
pub fn text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!("{}:{}: [{}] {}\n", f.path, f.line, f.lint, f.message));
    }
    out.push_str(&format!("zmap-analyze: {} finding(s)\n", findings.len()));
    out
}

/// Renders the single-line JSON report: `{"findings":[…]}`.
pub fn json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"lint\":{},\"path\":{},\"line\":{},\"message\":{}}}",
            escape(f.lint),
            escape(&f.path),
            f.line,
            escape(&f.message)
        ));
    }
    out.push_str("]}");
    out
}

/// JSON string escaping (quotes, backslashes, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            lint: "lock-discipline",
            path: "crates/x/src/lib.rs".to_string(),
            line: 7,
            message: "calls \"send\"".to_string(),
        }]
    }

    #[test]
    fn text_report_lists_findings_and_a_count() {
        let t = text(&sample());
        assert!(t.contains("crates/x/src/lib.rs:7: [lock-discipline]"));
        assert!(t.ends_with("zmap-analyze: 1 finding(s)\n"));
    }

    #[test]
    fn json_report_is_valid_and_escaped() {
        let j = json(&sample());
        assert!(j.contains("\"line\":7"));
        assert!(j.contains("calls \\\"send\\\""));
        assert!(j.ends_with("]}"));
    }
}
