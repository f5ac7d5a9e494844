//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <render-cold|paper-grid|serve-fleet|all> [--seed N] [--seconds S] \
//!     [--trace 0|1] [--scale F] [--expect-digest HEX]
//! ```
//!
//! One workload per process (`oovr::cache` and the serve stream memo are
//! process-global). `--trace 0` measures the end-to-end metrics with
//! tracing off; `--trace 1` records spans around every public call and
//! reports the per-layer metrics. `--workload all` runs every workload in
//! both modes as child processes and prints one summary. The last line of
//! standard output is a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; the exit code is non-zero when any check failed.

mod bench;
mod check;
mod counters;
mod metrics;
mod paper_grid;
mod render_cold;
mod serve_fleet;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use bench::{Outcome, Params};
use check::Checks;
use spans::Spans;

/// Seed the recorded digests belong to.
const DEFAULT_SEED: u64 = 1;
/// Timed-phase budget when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;
/// The workloads, in report order.
const WORKLOADS: [&str; 3] = ["render-cold", "paper-grid", "serve-fleet"];

/// Simulated-statistics digests at `--seed 1 --scale 1`. A change to the
/// simulated model changes them; a host-speed change must not.
const RECORDED_DIGESTS: [(&str, &str); 3] = [
    ("render-cold", "b5bc99709a34db0870d45e87bc7bd691d7624ae4c668b6416f5d23eae4e104d4"),
    ("paper-grid", "6e1d8bba483759a9c9a47f606740163c77f450c7bf92b59da7269ad84ac7ff1e"),
    ("serve-fleet", "089c8dbef443ee979731367a4927d3e80b0c216aae15d829d251108dfe474922"),
];

struct Args {
    workload: String,
    params: Params,
    expect_digest: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
         [--scale F] [--expect-digest HEX]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        params: Params { seed: DEFAULT_SEED, seconds: DEFAULT_SECONDS, trace: false, scale: 1.0 },
        expect_digest: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.params.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.params.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--scale" => args.params.scale = value.parse().map_err(|_| bad())?,
            "--expect-digest" => args.expect_digest = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let p = &args.params;
    if !(p.scale > 0.0 && p.scale <= 1.0) {
        return Err(format!("--scale must be in (0, 1], not {}", p.scale));
    }
    if !(p.seconds >= 0.0 && p.seconds.is_finite()) {
        return Err(format!("--seconds must be a non-negative number, not {}", p.seconds));
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// Commit of the checkout, when it is a git repository.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn metadata(a: &Args) -> String {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"workload\": \"{}\", \"commit\": \"{}\", \"available_parallelism\": {threads}, \
         \"rustc\": \"{}\", \"seed\": {}, \"scale\": {}, \"seconds\": {}, \"trace\": {}}}",
        a.workload,
        commit(),
        env!("PERFBENCH_RUSTC"),
        a.params.seed,
        a.params.scale,
        a.params.seconds,
        u8::from(a.params.trace)
    )
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
fn result_json(checks: &Checks, metrics: &[(String, f64, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(m, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        checks.failed() == 0,
        checks.attempted.max(1),
        checks.failed()
    )
}

fn run_one(a: &Args) -> ExitCode {
    let p = &a.params;
    let meta = metadata(a);
    println!(
        "== perfbench {} (seed {}, scale {}, trace {}) ==",
        a.workload,
        p.seed,
        p.scale,
        u8::from(p.trace)
    );
    println!("meta {meta}");
    let mut spans = Spans::new(p.trace);
    let mut checks = Checks::default();
    let outcome: Outcome = match a.workload.as_str() {
        "render-cold" => render_cold::run(p, &mut spans, &mut checks),
        "paper-grid" => paper_grid::run(p, &mut spans, &mut checks),
        _ => serve_fleet::run(p, &mut spans, &mut checks),
    };
    let rss = metrics::peak_rss_mb();
    checks.expect(rss.is_some(), || "peak RSS unavailable (/proc/self/status)".into());

    // The recorded digest applies at the default seed and scale; an
    // explicit --expect-digest applies anywhere.
    let recorded = RECORDED_DIGESTS.iter().find(|(w, _)| *w == a.workload).map(|(_, d)| *d);
    let expected = a
        .expect_digest
        .as_deref()
        .or((p.seed == DEFAULT_SEED && p.scale == 1.0).then_some(recorded).flatten());
    match expected {
        Some(want) => {
            checks.attempt(1);
            checks.expect(want == outcome.digest, || {
                format!("simulated-statistics digest {} != expected {want}", outcome.digest)
            });
            println!("digest {} (expected {want})", outcome.digest);
        }
        None => println!("digest {} (no recorded digest for this seed and scale)", outcome.digest),
    }

    let mut e2e: Vec<(String, f64, &str)> = Vec::new();
    for (name, unit) in metrics::END_TO_END {
        let v = if *name == "peak_rss_mb" {
            rss.unwrap_or(0.0)
        } else {
            outcome.e2e.iter().find(|(n, _)| n == name).map_or(f64::NAN, |(_, v)| *v)
        };
        e2e.push((name.to_string(), v, unit));
    }
    let layer: Vec<(String, f64, &str)> = metrics::PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let v = outcome.layer.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
            (name.to_string(), v, *unit)
        })
        .collect();

    println!("end-to-end (untraced rounds):");
    for (name, v, unit) in &e2e {
        println!("  {name:<32} {v:>16.6} {unit}");
    }
    println!("workload metrics:");
    for (name, unit, v) in &outcome.named {
        println!("  {name:<32} {v:>16.6} {unit}");
    }
    if p.trace {
        println!("per-layer (traced rounds; 0 = layer not exercised by {}):", a.workload);
        for (name, v, unit) in &layer {
            println!("  {name:<32} {v:>16.6} {unit}");
        }
        let overhead =
            layer.iter().find(|(n, _, _)| n == "bench.span_overhead_pct").map_or(0.0, |m| m.1);
        println!("span overhead {overhead:.3} % (traced vs untraced rounds, per unit of work)");
        let counts: Vec<String> = spans.counts().iter().map(|(n, c)| format!("{n}={c}")).collect();
        println!("spans {}", counts.join(" "));
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.json", a.workload, p.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans.to_chrome_json(&meta)));
        checks.expect(written.is_ok(), || format!("could not write {path}: {written:?}"));
        println!("spans written to {path}");
    }

    let mut reported = if p.trace { layer } else { e2e };
    for m in &mut reported {
        if !m.1.is_finite() {
            checks.expect(false, || format!("metric {} is not finite", m.0));
            m.1 = 0.0;
        }
    }
    println!("checks: {} operations attempted, {} failed", checks.attempted, checks.failed());
    println!("{}", result_json(&checks, &reported));
    if checks.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads `"key": <number|bool>` from a result line.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Every workload, untraced then traced, each in a fresh child process.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let p = &a.params;
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut summary: Vec<(String, f64, String)> = Vec::new();
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--trace", trace]);
            cmd.args(["--seed", &p.seed.to_string(), "--seconds", &p.seconds.to_string()]);
            cmd.args(["--scale", &p.scale.to_string()]);
            let out = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{w}: could not start: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for l in &lines {
                println!("{l}");
            }
            let ok = out.status.success() && json_field(last, "correct") == Some("true");
            correct &= ok;
            attempted += json_field(last, "attempted").and_then(|v| v.parse().ok()).unwrap_or(0);
            failed += json_field(last, "failed").and_then(|v| v.parse().ok()).unwrap_or(1);
            if trace == "0" {
                for (name, unit) in metrics::END_TO_END {
                    let v = last
                        .find(&format!("\"{name}\": {{"))
                        .and_then(|i| json_field(&last[i..], "value"))
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(f64::NAN);
                    summary.push((format!("{w}/{name}"), v, unit.to_string()));
                }
            }
            println!();
        }
    }
    println!("== summary: end-to-end metrics per workload (tracing off) ==");
    for (name, v, unit) in &summary {
        println!("  {name:<44} {v:>16.6} {unit}");
    }
    let metrics: Vec<(String, f64, &str)> = summary
        .iter()
        .map(|(n, v, u)| (n.clone(), if v.is_finite() { *v } else { 0.0 }, u.as_str()))
        .collect();
    let checks = Checks { attempted, failures: vec![String::new(); failed as usize] };
    println!("{}", result_json(&checks, &metrics));
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
