//! Self-tests of the benchmark: seeded inputs reproduce, and the output
//! checks catch a planted fault.

use std::process::Command;

use perfbench::data::Plant;
use perfbench::{run, ud_stream, RunCfg};

fn cfg(workload: &str, seed: u64, flip: Option<u64>) -> RunCfg {
    RunCfg {
        workload: workload.into(),
        seed,
        seconds: 0.4,
        trace: false,
        plant: Plant { flip_op: flip },
    }
}

#[test]
fn same_seed_reproduces_ops_and_losses() {
    let a = ud_stream::replay_fingerprint(5, 48).unwrap();
    let b = ud_stream::replay_fingerprint(5, 48).unwrap();
    assert_eq!(
        a, b,
        "same seed must give the same op sequence and dropped_loss"
    );
    assert!(a.1 > 0, "48 messages at 1% loss should drop packets");
    let c = ud_stream::replay_fingerprint(6, 48).unwrap();
    assert_ne!(a.0, c.0, "another seed must change the op sequence");
    assert_ne!(a.1, c.1, "another seed must change dropped_loss");
}

#[test]
fn clean_runs_pass_every_check() {
    for w in perfbench::WORKLOADS {
        let out = run(&cfg(w, 3, None)).unwrap();
        assert!(out.phases[0].attempted > 0, "{w}: no ops");
        assert_eq!(out.phases[0].failed, 0, "{w}: {:?}", out.phases[0].errors);
        assert!(out.conservation.is_empty(), "{w}: {:?}", out.conservation);
    }
}

#[test]
fn planted_flip_is_caught_in_every_workload() {
    // Op 3 is a Write-Record in the verbs workloads (message 3 on the RD
    // stream in reliable_lossy) and the fourth call in sip_calls.
    for w in perfbench::WORKLOADS {
        let out = run(&cfg(w, 3, Some(3))).unwrap();
        assert!(
            out.phases[0].failed >= 1,
            "{w}: the flipped byte went unnoticed"
        );
    }
}

#[test]
fn cli_fails_a_planted_flip_and_prints_the_result_line() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let run = |extra: &[&str]| {
        Command::new(bin)
            .args([
                "--workload",
                "small_rpc",
                "--seed",
                "1",
                "--seconds",
                "0.3",
                "--trace",
                "0",
            ])
            .args(extra)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .unwrap()
    };
    let ok = run(&[]);
    assert!(ok.status.success());
    let last = String::from_utf8_lossy(&ok.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string();
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    let bad = run(&["--plant-flip", "2"]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stdout).contains("\"correct\": false"));
    let usage = Command::new(bin)
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(usage.status.code(), Some(2));
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = |section: &str| -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    };
    let listed = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names("end_to_end"), listed(&perfbench::layers::END_TO_END));
    assert_eq!(names("per_layer"), listed(&perfbench::layers::PER_LAYER));
    assert_eq!(names("workloads"), perfbench::WORKLOADS.map(String::from));
}
