//! Exporters: Prometheus text format and a JSON snapshot — plus the
//! validator behind the `promcheck` binary and the CI smoke job.
//!
//! Both exporters walk [`Registry::instruments`] (sorted by name), so
//! every registered instrument round-trips into both formats:
//!
//! * **Prometheus text** ([`prometheus_text`]) — instrument names are
//!   mapped to the metric charset (`.`/`-` → `_`); counters and gauges
//!   become single samples, histograms become the standard
//!   `_bucket{le=…}` / `_sum` / `_count` triplet with cumulative counts
//!   over the non-empty buckets plus `+Inf`. Suitable for the Prometheus
//!   node-exporter *textfile collector* (write to a file, point the
//!   collector at the directory).
//! * **JSON snapshot** ([`json_snapshot`]) — counters and gauges by name,
//!   histograms with exact count/sum/min/max and p50/p90/p99 summaries
//!   (spans are histograms, so their durations land here). Hand-rolled
//!   serialization (this crate has no dependencies); names are escaped,
//!   output is deterministic.

use crate::instruments::HistSnapshot;
use crate::registry::{Instrument, Registry};

/// Maps an instrument name to the Prometheus metric-name charset:
/// `.` and `-` become `_`; any other character outside
/// `[a-zA-Z0-9_:]` is dropped. The naming scheme (DESIGN.md §14) keeps
/// this mapping collision-free.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '.' | '-' => out.push('_'),
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => out.push(c),
            _ => {}
        }
    }
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Renders every instrument of `reg` in Prometheus text exposition format.
pub fn prometheus_text(reg: &Registry) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, inst) in reg.instruments() {
        let pname = prometheus_name(name);
        match inst {
            Instrument::Counter(c) => {
                let _ = writeln!(out, "# TYPE {pname} counter");
                let _ = writeln!(out, "{pname} {}", c.get());
            }
            Instrument::Gauge(g) => {
                let _ = writeln!(out, "# TYPE {pname} gauge");
                let _ = writeln!(out, "{pname} {}", g.get());
            }
            Instrument::Histogram(h) => {
                let snap = h.snapshot();
                let _ = writeln!(out, "# TYPE {pname} histogram");
                let mut cum = 0u64;
                for &(idx, count) in &snap.buckets {
                    cum += count;
                    let _ = writeln!(
                        out,
                        "{pname}_bucket{{le=\"{}\"}} {cum}",
                        HistSnapshot::bucket_upper(idx)
                    );
                }
                let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {}", snap.count);
                let _ = writeln!(out, "{pname}_sum {}", snap.sum);
                let _ = writeln!(out, "{pname}_count {}", snap.count);
            }
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders every instrument of `reg` as a JSON object. Keys are instrument
/// names verbatim.
pub fn json_snapshot(reg: &Registry) -> String {
    use std::fmt::Write as _;
    let mut counters = String::new();
    let mut gauges = String::new();
    let mut hists = String::new();
    for (name, inst) in reg.instruments() {
        let key = json_escape(name);
        match inst {
            Instrument::Counter(c) => {
                if !counters.is_empty() {
                    counters.push_str(", ");
                }
                let _ = write!(counters, "\"{key}\": {}", c.get());
            }
            Instrument::Gauge(g) => {
                if !gauges.is_empty() {
                    gauges.push_str(", ");
                }
                let _ = write!(gauges, "\"{key}\": {}", g.get());
            }
            Instrument::Histogram(h) => {
                let s = h.snapshot();
                if !hists.is_empty() {
                    hists.push_str(",\n    ");
                }
                let _ = write!(
                    hists,
                    "\"{key}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"mean\": {:.3}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                    s.count,
                    s.sum,
                    s.min,
                    s.max,
                    s.mean(),
                    s.quantile(0.50),
                    s.quantile(0.90),
                    s.quantile(0.99),
                );
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"enabled\": {},", reg.enabled());
    let _ = writeln!(out, "  \"counters\": {{{counters}}},");
    let _ = writeln!(out, "  \"gauges\": {{{gauges}}},");
    let _ = writeln!(out, "  \"histograms\": {{\n    {hists}\n  }}");
    let _ = writeln!(out, "}}");
    out
}

/// Validates Prometheus text exposition output: every non-comment line is
/// `name[{labels}] value`, metric names are well-formed, `# TYPE` lines
/// are unique per metric, and no `(name, labels)` sample repeats.
/// Returns `Ok(sample_count)` or the first violation.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut typed: Vec<String> = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            if !name_ok(name) {
                return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return Err(format!("line {}: bad TYPE {kind:?}", lineno + 1));
            }
            if typed.contains(&name.to_string()) {
                return Err(format!("line {}: duplicate TYPE for {name}", lineno + 1));
            }
            typed.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments (HELP etc.)
        }
        // Sample line: name[{labels}] value
        let (ident, value) = match line.rfind(' ') {
            Some(pos) => (&line[..pos], &line[pos + 1..]),
            None => return Err(format!("line {}: no value: {line:?}", lineno + 1)),
        };
        let name = ident.split('{').next().unwrap_or("");
        if !name_ok(name) {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        if let Some(open) = ident.find('{') {
            if !ident.ends_with('}') {
                return Err(format!("line {}: unterminated labels: {ident:?}", lineno + 1));
            }
            let labels = &ident[open + 1..ident.len() - 1];
            for pair in labels.split(',').filter(|p| !p.is_empty()) {
                let Some((k, v)) = pair.split_once('=') else {
                    return Err(format!("line {}: bad label {pair:?}", lineno + 1));
                };
                if !name_ok(k) || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                    return Err(format!("line {}: bad label {pair:?}", lineno + 1));
                }
            }
        }
        if value != "+Inf" && value != "-Inf" && value != "NaN" && value.parse::<f64>().is_err() {
            return Err(format!("line {}: bad value {value:?}", lineno + 1));
        }
        if seen.contains(&ident.to_string()) {
            return Err(format!("line {}: duplicate sample {ident:?}", lineno + 1));
        }
        seen.push(ident.to_string());
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples".to_string());
    }
    Ok(samples)
}

/// Shallow JSON well-formedness check for [`json_snapshot`] output:
/// non-empty, balanced braces/brackets outside strings, starts with `{`
/// and ends with `}`. Returns `Ok(())` or the first violation.
pub fn validate_json_shape(text: &str) -> Result<(), String> {
    let t = text.trim();
    if !t.starts_with('{') || !t.ends_with('}') {
        return Err("not a JSON object".to_string());
    }
    let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
    for c in t.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced brackets".to_string());
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return Err("unbalanced brackets or unterminated string".to_string());
    }
    Ok(())
}
