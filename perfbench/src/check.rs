//! Output checks and the simulated-statistics digest.

use oovr_hash::Sha256;

/// Operations attempted and the checks that failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations (public calls) attempted.
    pub attempted: u64,
    /// Failed checks, each counted as a failed operation.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// SHA-256 over the simulated outputs of a run, fed as text lines so the
/// digest does not depend on struct layout.
pub struct Digest(Sha256);

impl Digest {
    /// An empty digest tagged with the workload name.
    pub fn new(workload: &str) -> Self {
        let mut h = Sha256::new();
        h.update(b"oovr-perfbench:v1:");
        h.update(workload.as_bytes());
        Digest(h)
    }

    /// Adds one line.
    pub fn line(&mut self, s: &str) {
        self.0.update(s.as_bytes());
        self.0.update(b"\n");
    }

    /// Hex digest.
    pub fn hex(self) -> String {
        oovr_hash::to_hex(&self.0.finalize())
    }
}

/// Hex digest of one text block (per-round fingerprints).
pub fn hex_of(s: &str) -> String {
    oovr_hash::hex_digest(s.as_bytes())
}
