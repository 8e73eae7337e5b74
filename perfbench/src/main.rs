//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed`, and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. A human summary goes to stderr and a stamped report (plus
//! the span file when tracing) to `.bench_out/`. Exits 1 when any output
//! check fails, 2 on bad arguments.
//!
//! `--plant-flip <op>` flips one received byte of op `<op>` before it is
//! checked, to show the verifier catches it.

use std::path::Path;
use std::process::ExitCode;

use perfbench::data::Plant;
use perfbench::{layers, report, RunCfg, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--plant-flip <op>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Result<RunCfg, String> {
    let mut cfg = RunCfg {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        plant: Plant::default(),
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {val:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = val.clone(),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(val.parse::<u8>().map_err(|e| bad(&e))?),
            "--plant-flip" => cfg.plant.flip_op = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    cfg.seed = seed.ok_or("--seed is required")?;
    cfg.seconds = seconds
        .filter(|s| *s > 0.0 && s.is_finite())
        .ok_or("--seconds must be positive")?;
    cfg.trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(cfg)
}

fn print_table(title: &str, rows: &[(&str, f64, &str)]) {
    eprintln!("{title}");
    for (n, v, u) in rows {
        eprintln!("  {n:<40} {v:>16.4} {u}");
    }
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    let out = match perfbench::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    let untraced = out.untraced();
    // Every phase's end-to-end metrics, plus the per-layer ones for the
    // traced phase.
    let rows: Vec<Vec<(&str, f64, &str)>> = out
        .phases
        .iter()
        .map(|p| {
            let mut r = layers::end_to_end(&out.setup_s, p);
            if p.traced {
                r.extend(layers::per_layer(p, &untraced));
            }
            r
        })
        .collect();
    let attempted: u64 = out.phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = out.phases.iter().map(|p| p.failed).sum();
    let correct = failed == 0 && out.conservation.is_empty() && attempted > 0;

    for (p, r) in out.phases.iter().zip(&rows) {
        let kind = if p.traced { "traced" } else { "untraced" };
        print_table(
            &format!(
                "{} seed {}, {kind} phase of {:.1} s",
                cfg.workload, cfg.seed, p.elapsed_s
            ),
            r,
        );
        let cells: Vec<(&str, f64, &str)> = p
            .cells
            .iter()
            .map(|(n, v, u)| (n.as_str(), *v, *u))
            .collect();
        print_table("  cells", &cells);
    }
    for e in out
        .phases
        .iter()
        .flat_map(|p| &p.errors)
        .chain(&out.conservation)
    {
        eprintln!("FAILED CHECK: {e}");
    }
    if let Some(t) = out.traced() {
        let spans =
            Path::new(report::OUT_DIR).join(format!("{}-seed{}.spans.csv", cfg.workload, cfg.seed));
        match std::fs::create_dir_all(report::OUT_DIR).and_then(|()| t.trace.write_csv(&spans)) {
            Ok(()) => eprintln!(
                "spans: {} ({} kept, {} aggregated only)",
                spans.display(),
                t.trace.kept.len(),
                t.trace.dropped
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", spans.display()),
        }
    }
    match report::write_report(&cfg, &out, &rows, correct) {
        Ok(path) => eprintln!("report: {}", path.display()),
        Err(e) => eprintln!("perfbench: writing report: {e}"),
    }

    let metrics = match out.phases.iter().position(|p| p.traced) {
        Some(i) => rows[i][layers::END_TO_END.len()..].to_vec(),
        None => rows[0].clone(),
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
