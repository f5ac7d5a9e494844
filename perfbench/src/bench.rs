//! The shared round loop: set-up per derived seed, timed rounds until the
//! time budget is spent, same-seed fingerprint checks, and the result
//! every workload hands back.

use std::time::Instant;

use oovr_scene::BenchmarkSpec;

use crate::check::Checks;
use crate::spans::Spans;
use crate::stats::{geomean, median};

/// Run parameters common to every workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed (replaces the specs' seeds; seeds every plan).
    pub seed: u64,
    /// Timed-phase budget in seconds (round time only, set-up excluded).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Factor on each workload's default scene scale (1.0 = as designed).
    pub scale: f64,
}

/// `n`-th derived seed of `seed` for purpose `k` (SplitMix64 finaliser).
pub fn derive(seed: u64, n: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(k.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `specs` at `scale` (below 1 shrinks them) with the seeds of derived
/// seed `d`: spec `i` gets `derive(seed, d, i)`.
pub fn reseeded(
    specs: impl IntoIterator<Item = BenchmarkSpec>,
    seed: u64,
    d: usize,
    scale: f64,
) -> Vec<BenchmarkSpec> {
    specs
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let mut s = if scale < 1.0 { s.scaled(scale) } else { s };
            s.seed = derive(seed, d as u64, i as u64);
            s
        })
        .collect()
}

/// What one timed round produced.
pub struct Round {
    /// Work done, in the workload's unit of `host_throughput`.
    pub work: f64,
    /// Fingerprint of the round's simulated outputs.
    pub fingerprint: String,
}

/// One benchmark workload.
pub trait Workload {
    /// Name as given to `--workload`.
    const NAME: &'static str;
    /// Derived seeds; round `r` runs derived seed `r % CYCLE`. The first
    /// pass over them always runs, whatever the budget, and the simulated
    /// metrics and counts cover exactly that pass, so they repeat per seed.
    /// Later passes repeat the inputs and must reproduce their outputs.
    const CYCLE: usize;
    /// Set-ups per derived seed (several give a steadier `setup_s`); the
    /// set-up must be idempotent.
    const SETUP_REPEATS: usize = 1;
    /// Whether every round needs its own set-up (fresh memo keys).
    const SETUP_EVERY_ROUND: bool = false;

    /// Set-up for round `r` on derived seed `d` (timed as set-up).
    fn setup(&mut self, r: usize, d: usize, spans: &mut Spans, checks: &mut Checks);
    /// One timed round on derived seed `d`; `first` is true on the first
    /// pass.
    fn round(&mut self, d: usize, first: bool, spans: &mut Spans, checks: &mut Checks) -> Round;
}

/// Host timings of the set-up and of the timed rounds.
#[derive(Debug, Default)]
pub struct Timing {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// (derived seed, work per second) of each untraced round.
    pub untraced: Vec<(usize, f64)>,
    /// (derived seed, work per second) of each traced round.
    pub traced: Vec<(usize, f64)>,
}

fn rates(v: &[(usize, f64)]) -> Vec<f64> {
    v.iter().map(|&(_, r)| r).collect()
}

impl Timing {
    /// Host throughput: for each derived seed the fastest untraced round,
    /// then the geometric mean over derived seeds. Interference from other
    /// tenants of the host only ever slows a round, so the fastest repeat
    /// of an input is the steadiest estimate of what the code costs.
    pub fn best_rate(&self) -> f64 {
        let mut best: Vec<f64> = Vec::new();
        for &(d, r) in &self.untraced {
            if best.len() <= d {
                best.resize(d + 1, 0.0);
            }
            best[d] = best[d].max(r);
        }
        geomean(best.into_iter().filter(|&b| b > 0.0))
    }

    /// Median work per second over untraced rounds.
    pub fn median_rate(&self) -> f64 {
        median(&rates(&self.untraced))
    }

    /// Span overhead in percent: traced over untraced time per unit work.
    pub fn span_overhead_pct(&self) -> f64 {
        let (u, t) = (self.median_rate(), median(&rates(&self.traced)));
        if u == 0.0 || t == 0.0 {
            return 0.0;
        }
        (u / t - 1.0) * 100.0
    }
}

/// Runs set-ups and rounds of `wl`. The traced run alternates untraced and
/// traced passes over the derived seeds (whole passes, so both sides see
/// the same inputs), giving the layer spans and an untraced reference for
/// the span overhead from one process.
pub fn run_rounds<W: Workload>(
    wl: &mut W,
    p: &Params,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Timing {
    let mut timing = Timing::default();
    let mut fingerprints: Vec<Option<String>> = vec![None; W::CYCLE];
    let min_rounds = if p.trace { 2 * W::CYCLE } else { W::CYCLE };
    let mut spent = 0.0f64;
    let mut r = 0usize;
    while r < min_rounds || spent < p.seconds {
        let d = r % W::CYCLE;
        let first = fingerprints[d].is_none();
        if first || W::SETUP_EVERY_ROUND {
            spans.set_enabled(p.trace);
            for _ in 0..W::SETUP_REPEATS {
                let t = Instant::now();
                wl.setup(r, d, spans, checks);
                timing.setup_s.push(t.elapsed().as_secs_f64());
            }
        }
        let traced = p.trace && (r / W::CYCLE) % 2 == 1;
        spans.set_enabled(traced);
        spans.set_round(r as u32);
        let t = Instant::now();
        let round = spans.time("bench.round", |sp| wl.round(d, first, sp, checks));
        let dt = t.elapsed().as_secs_f64();
        spent += dt;
        let rate = round.work / dt.max(1e-9);
        if traced {
            timing.traced.push((d, rate));
        } else {
            timing.untraced.push((d, rate));
        }
        match &fingerprints[d] {
            None => fingerprints[d] = Some(round.fingerprint),
            Some(f) => checks.expect(*f == round.fingerprint, || {
                format!("{}: round {r} repeated derived seed {d} with different outputs", W::NAME)
            }),
        }
        r += 1;
    }
    spans.set_enabled(p.trace);
    println!(
        "rounds: {} untraced, {} traced, {} set-ups, {spent:.3} s timed",
        timing.untraced.len(),
        timing.traced.len(),
        timing.setup_s.len()
    );
    let per_round: Vec<String> = timing.untraced.iter().map(|(_, r)| format!("{r:.4}")).collect();
    println!("untraced work/s per round: {}", per_round.join(" "));
    timing
}

/// Everything a workload run reports.
pub struct Outcome {
    /// End-to-end metric values, by name (see `metrics::END_TO_END`).
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metric values, by name (see `metrics::PER_LAYER`); absent
    /// names are layers this workload does not exercise.
    pub layer: Vec<(&'static str, f64)>,
    /// The workload's own named metrics (name, unit, value), printed in the
    /// report beside the generic end-to-end ones.
    pub named: Vec<(&'static str, &'static str, f64)>,
    /// Digest of the simulated statistics of the fixed rounds.
    pub digest: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_index_and_purpose() {
        assert_ne!(derive(1, 0, 0), derive(1, 1, 0));
        assert_ne!(derive(1, 0, 0), derive(1, 0, 1));
        assert_eq!(derive(7, 3, 2), derive(7, 3, 2));
    }
}
