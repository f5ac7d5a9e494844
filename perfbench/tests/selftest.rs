//! Self-tests of the benchmark at tiny scale: every metric is printed with
//! its unit, a wrong expected digest fails the run, a held-out seed runs
//! clean and repeats itself exactly, and the package stays outside the
//! repository's root workspace.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");
const HELD_OUT_SEED: &str = "987654321";

/// Scale factor per workload: tiny scenes, except serve-fleet, whose
/// offered load follows capacity (smaller scenes mean more sessions).
fn scale(workload: &str) -> &'static str {
    if workload == "serve-fleet" {
        "1"
    } else {
        "0.1"
    }
}

struct Run {
    ok: bool,
    stdout: String,
}

impl Run {
    fn last(&self) -> &str {
        self.stdout.lines().last().unwrap_or_default()
    }

    fn digest(&self) -> String {
        let line = self.stdout.lines().find(|l| l.starts_with("digest ")).expect("digest line");
        line.split_whitespace().nth(1).expect("digest value").to_string()
    }

    /// `(name, value, unit)` of every metric in the result line.
    fn metrics(&self) -> Vec<(String, String, String)> {
        let last = self.last();
        let body = &last[last.find("\"metrics\": {").expect("metrics object") + 12..];
        body.split("}, ")
            .filter_map(|entry| {
                let name = entry.split('"').nth(1)?.to_string();
                let value = entry.split("\"value\": ").nth(1)?.split(',').next()?.to_string();
                let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?.to_string();
                Some((name, value, unit))
            })
            .collect()
    }
}

fn run(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Run {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", seed, "--seconds", "0", "--trace", trace])
        .args(["--scale", scale(workload)])
        .args(extra)
        .output()
        .expect("benchmark runs");
    Run { ok: out.status.success(), stdout: String::from_utf8_lossy(&out.stdout).into_owned() }
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let start = json.find(&format!("\"{section}\": [")).expect("section");
    let body = &json[start..start + json[start..].find(']').expect("section end")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|e| {
            let name = e.split('"').next().expect("name").to_string();
            let unit =
                e.split("\"unit\": \"").nth(1).expect("unit").split('"').next().expect("unit");
            (name, unit.to_string())
        })
        .collect()
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let e2e = listed("end_to_end");
    let layer = listed("per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let named = [
        ("render-cold", vec!["render_mfrag_per_s Mfrag/s"]),
        ("paper-grid", vec!["grid_s s", "sim_res_retained_speedup x"]),
        (
            "serve-fleet",
            vec![
                "sched_kframes_per_s kframe/s",
                "sim_miss_rate ratio",
                "sim_mtp_p50_ms ms",
                "sim_mtp_p99_ms ms",
                "sim_capacity_sessions sessions",
            ],
        ),
    ];
    for (w, named) in named {
        for (trace, want) in [("0", &e2e), ("1", &layer)] {
            let r = run(w, "1", trace, &[]);
            let got: Vec<(String, String)> = r
                .metrics()
                .into_iter()
                .map(|(n, v, u)| {
                    assert!(v.parse::<f64>().expect("numeric value").is_finite(), "{w}: {n} = {v}");
                    (n, u)
                })
                .collect();
            assert_eq!(&got, want, "{w} --trace {trace} metrics");
            // The human report names the workload's own metrics with units.
            let report: Vec<String> = r
                .stdout
                .lines()
                .map(|l| l.split_whitespace().collect::<Vec<_>>())
                .filter(|t| t.len() == 3)
                .map(|t| format!("{} {}", t[0], t[2]))
                .collect();
            for n in &named {
                assert!(report.iter().any(|l| l == n), "{w}: report lacks '{n}'");
            }
        }
    }
}

#[test]
fn wrong_expected_digest_fails_the_run() {
    let clean = run("render-cold", "1", "0", &[]);
    let digest = clean.digest();
    let good = run("render-cold", "1", "0", &["--expect-digest", &digest]);
    assert!(good.ok, "matching digest must pass:\n{}", good.stdout);
    assert!(good.last().contains("\"correct\": true, ") && good.last().contains("\"failed\": 0,"));

    let mut corrupted = digest.into_bytes();
    corrupted[0] = if corrupted[0] == b'0' { b'1' } else { b'0' };
    let corrupted = String::from_utf8(corrupted).expect("hex");
    let bad = run("render-cold", "1", "0", &["--expect-digest", &corrupted]);
    assert!(!bad.ok, "a corrupted digest must make the run exit non-zero");
    assert!(bad.last().contains("\"correct\": false, "), "{}", bad.last());
    assert!(!bad.last().contains("\"failed\": 0,"), "{}", bad.last());
}

#[test]
fn held_out_seed_runs_clean_and_repeats() {
    for w in ["render-cold", "paper-grid", "serve-fleet"] {
        let a = run(w, HELD_OUT_SEED, "0", &[]);
        assert!(a.ok, "{w} on a held-out seed:\n{}", a.stdout);
        assert!(a.last().contains("\"failed\": 0,"), "{}", a.last());
        let b = run(w, HELD_OUT_SEED, "0", &[]);
        assert_eq!(a.digest(), b.digest(), "{w}: same seed, different simulated statistics");
        let sim = |r: &Run| -> Vec<(String, String, String)> {
            r.metrics().into_iter().filter(|(n, _, _)| n.starts_with("sim_")).collect()
        };
        assert_eq!(sim(&a), sim(&b), "{w}: same seed, different sim_* values");
        assert_ne!(a.digest(), run(w, "2", "0", &[]).digest(), "{w}: the seed must matter");
    }
}

#[test]
fn builds_outside_the_root_workspace() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let manifest = std::fs::read_to_string(format!("{root}/Cargo.toml")).expect("root manifest");
    let lock = std::fs::read_to_string(format!("{root}/Cargo.lock")).expect("root lock file");
    assert!(!manifest.contains("perfbench") && !lock.contains("oovr-perfbench"));
    let own = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
        .expect("own manifest");
    assert!(own.lines().any(|l| l.trim() == "[workspace]"), "perfbench is its own workspace");
}
