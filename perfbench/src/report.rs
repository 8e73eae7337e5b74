//! Output: the one-line result the last line of stdout carries, and a
//! stamped report file (host, revision, seed, run length, every metric,
//! per-rung cells and the embedded telemetry delta) under `.bench_out/`.

use std::path::{Path, PathBuf};

use crate::{probe, Outcome, Phase, RunCfg};

/// Where reports and span files go, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

fn num(v: f64) -> String {
    // Full precision (shortest round-trip form); JSON has no NaN/inf.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string body: quotes and backslashes escaped, control
/// characters (which the stack's messages never contain) blanked.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                esc(n),
                num(*v),
                esc(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn phase_json(p: &Phase, metrics: &[(&str, f64, &str)]) -> String {
    let cells: Vec<(&str, f64, &str)> = p
        .cells
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, *u))
        .collect();
    let snap: Vec<String> = p
        .snap
        .entries()
        .iter()
        .map(|(k, v)| format!("\"{}\": {v}", esc(k)))
        .collect();
    let errors: Vec<String> = p.errors.iter().map(|e| format!("\"{}\"", esc(e))).collect();
    format!(
        "{{\"traced\": {}, \"attempted\": {}, \"failed\": {}, \"delivered\": {}, \"latency_samples\": {}, \"elapsed_s\": {}, \
         \"metrics\": {}, \"cells\": {}, \"errors\": [{}], \"telemetry_delta\": {{{}}}}}",
        p.traced,
        p.attempted,
        p.failed,
        p.delivered,
        p.lat.count(),
        num(p.elapsed_s),
        metrics_json(metrics),
        metrics_json(&cells),
        errors.join(", "),
        snap.join(", ")
    )
}

/// Writes the stamped report; returns its path. `rows` holds each
/// phase's metrics.
pub fn write_report(
    cfg: &RunCfg,
    out: &Outcome,
    rows: &[Vec<(&str, f64, &str)>],
    correct: bool,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    ));
    let setups: Vec<String> = out.setup_s.iter().map(|v| num(*v)).collect();
    let phases: Vec<String> = out
        .phases
        .iter()
        .zip(rows)
        .map(|(p, r)| phase_json(p, r))
        .collect();
    let conservation: Vec<String> = out
        .conservation
        .iter()
        .map(|e| format!("\"{}\"", esc(e)))
        .collect();
    let s = format!(
        "{{\"bench\": \"perfbench\", \"git_rev\": \"{}\", \"host\": {{\"nproc\": {}, \"kernel\": \"{}\"}}, \
         \"config\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}, \"correct\": {correct}, \
         \"setup_s\": [{}], \"conservation_failures\": [{}], \"phases\": [{}]}}\n",
        esc(&git_rev()),
        probe::nproc(),
        esc(&probe::kernel()),
        esc(&cfg.workload),
        cfg.seed,
        num(cfg.seconds),
        cfg.trace,
        setups.join(", "),
        conservation.join(", "),
        phases.join(", ")
    );
    std::fs::write(&path, s)?;
    Ok(path)
}
