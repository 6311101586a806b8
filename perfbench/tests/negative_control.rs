//! End-to-end checks of the benchmark binary: every workload runs and
//! reports every metric at a tiny size, and a reference with one
//! corrupted byte makes each workload count failed operations and exit
//! non-zero, which shows the correctness check catches a wrong output.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 2] = ["engine_warm", "serve_http_mixed"];

const END_TO_END: [&str; 5] = [
    "setup_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "throughput_per_s",
    "peak_rss_mb",
];

/// Runs the benchmark; returns whether it exited 0 and its last stdout
/// line.
fn bench(workload: &str, trace: u8, reference: Option<&Path>) -> (bool, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(env!("CARGO_TARGET_TMPDIR")).args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        &trace.to_string(),
    ]);
    if let Some(dir) = reference {
        cmd.arg("--reference").arg(dir);
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("").to_owned();
    (out.status.success(), last)
}

/// The whole-number value of `"key": <n>` in a result line.
fn count(line: &str, key: &str) -> u64 {
    let at = line.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
    line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("a whole number")
}

fn corrupted_reference() -> PathBuf {
    let source = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupted-reference");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for entry in std::fs::read_dir(&source).expect("reference dir") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, dir.join(path.file_name().expect("file"))).expect("copy");
    }
    // uc01 is the hottest case of the zipf workloads, so every workload
    // requests it many times even in a one-second run.
    let target = dir.join("uc01.java");
    let mut bytes = std::fs::read(&target).expect("uc01");
    let mid = bytes.len() / 2;
    bytes[mid] = if bytes[mid] == b'x' { b'y' } else { b'x' };
    std::fs::write(&target, bytes).expect("write corrupted uc01");
    dir
}

// One test, run in sequence: the served workloads' open-loop phases
// assume the machine is not also running the other workloads.
#[test]
fn workloads_report_every_metric_and_catch_a_corrupted_reference() {
    for workload in WORKLOADS {
        let (ok, line) = bench(workload, 0, None);
        assert!(ok, "{workload} failed: {line}");
        assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
        assert!(count(&line, "attempted") > 0, "{workload}: {line}");
        assert_eq!(count(&line, "failed"), 0, "{workload}: {line}");
        for name in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload} lacks {name}: {line}"
            );
        }

        let (ok, line) = bench(workload, 1, None);
        assert!(ok, "traced {workload} failed: {line}");
        for name in [
            "core.generate_us",
            "javamodel.check_unit_us",
            "statemachine.cache_hit_ratio",
            "serve.handle_p50_us",
        ] {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "traced {workload} lacks {name}: {line}"
            );
        }
    }

    let corrupted = corrupted_reference();
    for workload in WORKLOADS {
        let (ok, line) = bench(workload, 0, Some(&corrupted));
        assert!(!ok, "{workload} passed with a corrupted reference: {line}");
        assert!(
            line.starts_with("{\"correct\": false"),
            "{workload}: {line}"
        );
        assert!(
            count(&line, "failed") > 0,
            "{workload} counted no failure: {line}"
        );
    }
}
