//! The four workloads.  Every figure here is part of the benchmark's
//! definition: changing one changes what is measured, and the baseline must
//! be measured again.

use tibpre_pairing::SecurityLevel;

/// Windows of each segment (untraced, then traced) of a `--trace 1` run; each
/// segment runs a quarter of the measured operations.
pub const TRACE_WINDOWS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Request frame out, bundle back, opened, compared with the upload.
    Disclose,
    /// A fresh record encrypted and `put`, acknowledged by the store.
    Upload,
}

/// What the traced run's cost model must show for a workload, so that the
/// four keep stressing different layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Split {
    /// Crypto is at least this share of the *explained* time.  For the
    /// pipelined workload: the residual of its lockstep model operation is
    /// hand-off latency that its pipelining overlaps.
    CryptoShareAtLeast(f64),
    /// Crypto is at most this share of the *whole* lockstep operation, which
    /// is what a lockstep client waits for.
    CryptoShareOfOpAtMost(f64),
    Unconstrained,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
    pub level: SecurityLevel,
    /// Store and proxy keep WAL and snapshots under `--out`, at the default
    /// fsync policy; otherwise both are in memory.
    pub durable: bool,
    pub patients: usize,
    /// Records uploaded per patient during set-up (disclosure workloads).
    pub records_per_patient: usize,
    pub payload_len: usize,
    /// Patient popularity; 0 is uniform.
    pub zipf: f64,
    /// Generator connections, one thread each (at most 2: the host has 2 cores).
    pub connections: usize,
    /// Requests a connection keeps in flight; 1 is lockstep.
    pub pipeline: usize,
    /// Every so many disclosures a connection revokes, probes and re-installs
    /// one of its own patients' grants.
    pub churn_every: Option<usize>,
    /// Operations run, checked and discarded before the measured ones; part
    /// of set-up, never scaled.
    pub warmup_ops: usize,
    /// Windows of equal operation counts the measured operations are cut
    /// into; every rate and percentile is read from the quiet end of the
    /// per-window values (`stats::Windowed`).
    pub windows: usize,
    /// Measured operations per second of `--seconds`.  Run length is this
    /// fixed count, never a duration: both commits of a comparison do equal
    /// work, and a faster program finishes sooner.  Sized so that the commit
    /// that defined the benchmark needs about `--seconds` on the 2-core host
    /// it was defined on.
    pub ops_per_budget_second: usize,
    pub split: Split,
}

impl Spec {
    /// Connection `conn`'s contiguous share of the patients.
    pub fn share(&self, conn: usize) -> std::ops::Range<usize> {
        conn * self.patients / self.connections..(conn + 1) * self.patients / self.connections
    }

    /// The patients connection `conn` works on.  With churn, and for uploads,
    /// that is its own disjoint share — a grant is only ever revoked by the
    /// connection that requests it, so no denial is a race; otherwise every
    /// connection draws from all of them.
    pub fn owned(&self, conn: usize) -> std::ops::Range<usize> {
        match (self.kind, self.churn_every) {
            (Kind::Disclose, None) => 0..self.patients,
            _ => self.share(conn),
        }
    }

    /// Measured operations of one window: `ops_per_budget_second × seconds`
    /// spread over the windows, rounded down to whole bursts of every
    /// connection — and, with churn, to whole churn periods, so that every
    /// window carries the same number of churn cycles.
    pub fn window_ops(&self, seconds: u64) -> usize {
        let unit = self.connections * self.churn_every.unwrap_or(self.pipeline);
        debug_assert_eq!(unit % (self.connections * self.pipeline), 0);
        let per_window = self.ops_per_budget_second * seconds as usize / self.windows;
        (per_window / unit).max(1) * unit
    }

    /// All measured operations of a run.
    pub fn measured_ops(&self, seconds: u64) -> usize {
        self.windows * self.window_ops(seconds)
    }
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "disclose_hot_sat_80",
        why: "80-bit, 16 hot patients, 2 connections x pipeline 8: crypto does the work, batches fill, caches hit",
        kind: Kind::Disclose,
        level: SecurityLevel::Low80,
        durable: false,
        patients: 16,
        records_per_patient: 4,
        payload_len: 1024,
        zipf: 1.0,
        connections: 2,
        pipeline: 8,
        churn_every: None,
        warmup_ops: 800,
        windows: 64,
        ops_per_budget_second: 512,
        split: Split::CryptoShareAtLeast(0.75),
    },
    Spec {
        name: "disclose_sat_toy",
        why: "toy level, 16 KiB records, 2 connections x pipeline 8: per-request cost in client/wire/server/phr dominates, crypto under half",
        kind: Kind::Disclose,
        level: SecurityLevel::Toy,
        durable: false,
        patients: 16,
        records_per_patient: 4,
        payload_len: 16384,
        zipf: 1.0,
        connections: 2,
        pipeline: 8,
        churn_every: None,
        warmup_ops: 3200,
        windows: 64,
        ops_per_budget_second: 1792,
        split: Split::CryptoShareOfOpAtMost(0.50),
    },
    Spec {
        name: "disclose_cold_churn_80",
        why: "80-bit, 384 patients uniform, durable nodes, revoke/probe/re-install every 64: caches overflow, audit WAL, writes beside reads",
        kind: Kind::Disclose,
        level: SecurityLevel::Low80,
        durable: true,
        patients: 384,
        records_per_patient: 4,
        payload_len: 1024,
        zipf: 0.0,
        connections: 2,
        pipeline: 4,
        churn_every: Some(64),
        warmup_ops: 256,
        windows: 28,
        ops_per_budget_second: 180,
        split: Split::Unconstrained,
    },
    Spec {
        name: "upload_durable_toy",
        why: "toy level, 2 lockstep connections encrypt and put 1 KiB records to a durable store: WAL, fsync, snapshots, GC",
        kind: Kind::Upload,
        level: SecurityLevel::Toy,
        durable: true,
        patients: 64,
        records_per_patient: 0,
        payload_len: 1024,
        zipf: 0.0,
        connections: 2,
        pipeline: 1,
        churn_every: None,
        warmup_ops: 3200,
        windows: 64,
        ops_per_budget_second: 860,
        split: Split::CryptoShareOfOpAtMost(0.50),
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|spec| spec.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_whole_bursts_and_scale_with_the_budget() {
        for spec in &SPECS {
            let burst = spec.connections * spec.pipeline;
            for seconds in [1, 18, 60] {
                let ops = spec.window_ops(seconds);
                assert!(ops >= burst);
                assert_eq!(ops % burst, 0, "{}", spec.name);
            }
            let unit = spec.connections * spec.churn_every.unwrap_or(spec.pipeline);
            assert!(spec.window_ops(36) >= 2 * spec.window_ops(18) - unit);
            assert_eq!(spec.window_ops(20) % unit, 0, "{}", spec.name);
            assert_eq!(
                spec.measured_ops(20),
                spec.windows * spec.window_ops(20),
                "{}",
                spec.name
            );
            assert!(spec.connections <= 2, "the host has two cores");
            assert_eq!(spec.warmup_ops % burst, 0, "{}", spec.name);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }

    #[test]
    fn shares_are_disjoint_and_cover_every_patient() {
        let churn = find("disclose_cold_churn_80").unwrap();
        assert_eq!((churn.share(0), churn.share(1)), (0..192, 192..384));
        assert_eq!(churn.owned(1), 192..384);
        let hot = find("disclose_hot_sat_80").unwrap();
        assert_eq!((hot.owned(0), hot.owned(1)), (0..16, 0..16));
        let upload = find("upload_durable_toy").unwrap();
        assert_eq!((upload.owned(0), upload.owned(1)), (0..32, 32..64));
        let odd = Spec {
            patients: 5,
            ..*churn
        };
        assert_eq!((odd.share(0), odd.share(1)), (0..2, 2..5));
    }
}
