//! One workload run: set-up, the measured segment, the output checks that
//! follow it, and the end-to-end metrics.

use crate::check::{Failure, Failures};
use crate::generator::{self, upload_title, ConnReport, Plan};
use crate::host;
use crate::report::Metric;
use crate::stats::{percentile, Better, Windowed};
use crate::trace::Recorder;
use crate::workload::Spec;
use crate::world::{stop, upload_payload, Fixture, World};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;
use tibpre_client::{ClientConfig, Connection, Request, Response};
use tibpre_phr::{HealthRecord, RecordId};

/// Nodes booted and fixture uploaded; the warm-up is still to come.
pub struct Ready {
    pub world: World,
    pub fixture: Fixture,
}

pub fn set_up(spec: &Spec, out: &Path, seed: u64) -> Result<Ready, String> {
    let world = World::boot(spec, out).map_err(|e| format!("booting the nodes: {e}"))?;
    let fixture =
        Fixture::build(spec, &world, seed).map_err(|e| format!("building the fixture: {e}"))?;
    Ok(Ready { world, fixture })
}

/// What one segment (warm-up, then the measured operations) measured, over
/// all connections.
pub struct Segment {
    /// Seconds from process start to the first measured operation.
    pub setup_s: f64,
    /// Every measured operation of every connection in the order it ended:
    /// seconds since the measured operations began, and its latency in
    /// microseconds if it passed its check.
    pub ops: Vec<(f64, Option<f64>)>,
    /// Everything attempted, warm-up and churn cycles included.
    pub attempted: u64,
    pub failures: Failures,
    pub churn_us: Vec<f64>,
    pub op_bytes: u64,
    /// Per connection: `(record, patient, sequence number)` acknowledged.
    pub uploaded: Vec<Vec<(RecordId, usize, u64)>>,
    pub recorder: Option<Recorder>,
    /// Process CPU over the measured operations, milliseconds.
    pub cpu_ms: f64,
    /// `VmRSS` growth over the measured operations, bytes.
    pub rss_growth: f64,
    /// `VmHWM` when the measured operations ended, MiB.
    pub peak_rss_mib: f64,
    /// Wall time of the measured operations, seconds.
    pub elapsed_s: f64,
}

/// Runs a plan on the ready node set.
pub fn segment(plan: &Plan<'_>, process_start: Instant) -> Result<Segment, String> {
    let ((setup_s, cpu0, rss0, began), reports) = generator::run(plan, || {
        (
            process_start.elapsed().as_secs_f64(),
            host::cpu_ms(),
            host::rss_bytes(),
            Instant::now(),
        )
    });
    let elapsed_s = began.elapsed().as_secs_f64();
    let cpu_ms = host::cpu_ms() - cpu0;
    let rss_growth = host::rss_bytes() - rss0;
    let peak_rss_mib = host::peak_rss_mib();

    let reports: Vec<ConnReport> = reports
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("a generator connection could not be (re)opened: {e}"))?;
    let mut seg = Segment {
        setup_s,
        ops: Vec::with_capacity(plan.measured_ops),
        attempted: 0,
        failures: Failures::default(),
        churn_us: Vec::new(),
        op_bytes: 0,
        uploaded: Vec::new(),
        recorder: None,
        cpu_ms,
        rss_growth,
        peak_rss_mib,
        elapsed_s,
    };
    for report in reports {
        seg.ops
            .extend(report.ops.into_iter().map(|(ended, latency)| {
                (
                    ended.saturating_duration_since(began).as_secs_f64(),
                    latency,
                )
            }));
        seg.attempted += report.attempted;
        seg.failures.merge(&report.failures);
        seg.churn_us.extend(report.churn_us);
        seg.op_bytes += report.op_bytes;
        seg.uploaded.push(report.uploaded);
        if let Some(recorder) = report.recorder {
            match &mut seg.recorder {
                Some(all) => all.absorb(recorder),
                None => seg.recorder = Some(recorder),
            }
        }
    }
    seg.ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(seg)
}

/// The measured operations of a segment cut into windows of equal counts.
pub struct Windows {
    /// Checked operations per second, one value per window.
    pub rates: Vec<f64>,
    /// Ascending latencies of the checked operations, one vector per window.
    pub latencies_us: Vec<Vec<f64>>,
}

impl Windows {
    /// Cuts measured operations — `(seconds since they began, latency if
    /// checked)` in the order they ended, whichever connection ran them — into
    /// `count` windows of equal numbers of operations.  A window lasts from
    /// the end of the one before it (the first: from time 0) to the end of
    /// its own last operation.
    pub fn cut(ops: &[(f64, Option<f64>)], count: usize) -> Windows {
        let per_window = ops.len() / count;
        assert!(per_window > 0, "fewer measured operations than windows");
        let mut windows = Windows {
            rates: Vec::with_capacity(count),
            latencies_us: Vec::with_capacity(count),
        };
        let mut began = 0.0;
        for w in 0..count {
            // What does not divide goes to the last window.
            let end = if w + 1 == count {
                ops.len()
            } else {
                (w + 1) * per_window
            };
            let ops = &ops[w * per_window..end];
            let ended = ops[ops.len() - 1].0;
            let mut latencies: Vec<f64> = ops.iter().filter_map(|op| op.1).collect();
            latencies.sort_by(f64::total_cmp);
            windows
                .rates
                .push(latencies.len() as f64 / (ended - began).max(f64::MIN_POSITIVE));
            windows.latencies_us.push(latencies);
            began = ended;
        }
        windows
    }

    pub fn samples(&self) -> usize {
        self.latencies_us.iter().map(Vec::len).sum()
    }

    pub fn rate(&self) -> Windowed {
        Windowed::of(&self.rates, Better::Higher, self.samples())
    }

    /// The nearest-rank `q`-percentile of every window, one value per window.
    pub fn percentiles(&self, q: f64) -> Vec<f64> {
        self.latencies_us
            .iter()
            .map(|window| percentile(window, q))
            .collect()
    }

    pub fn percentile(&self, q: f64) -> Windowed {
        Windowed::of(&self.percentiles(q), Better::Lower, self.samples())
    }
}

impl Segment {
    /// Measured operations attempted (warm-up and churn cycles excluded).
    pub fn measured(&self) -> usize {
        self.ops.len()
    }

    pub fn windows(&self, count: usize) -> Windows {
        Windows::cut(&self.ops, count)
    }

    /// The six end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self, windows: &Windows) -> Vec<Metric> {
        let count = windows.rates.len();
        vec![
            Metric::plain(
                "setup_s",
                self.setup_s,
                "s",
                "process start to first measured op",
            ),
            Metric::windowed("op_per_s", windows.rate(), "1/s", count),
            Metric::windowed("op_p50_us", windows.percentile(0.50), "us", count),
            Metric::windowed("op_p90_us", windows.percentile(0.90), "us", count),
            Metric::plain(
                "cpu_ms_per_op",
                self.cpu_ms / self.measured() as f64,
                "ms",
                "user+sys of nodes and generator over all measured ops",
            ),
            Metric::plain(
                "peak_rss_mb",
                self.peak_rss_mib,
                "MiB",
                "VmHWM when the measured ops ended",
            ),
        ]
    }
}

/// The plan of a segment on a ready node set.
pub fn plan<'a>(
    spec: &'a Spec,
    ready: &'a Ready,
    warmup_ops: usize,
    measured_ops: usize,
) -> Plan<'a> {
    Plan {
        spec,
        fixture: &ready.fixture,
        proxy: ready.world.proxy.addr(),
        store: ready.world.store.addr(),
        warmup_ops,
        measured_ops,
        traced: None,
        segment: 0,
    }
}

/// The upload workload's final check: the store node is shut down and
/// reopened from disk, and every acknowledged record must come back and
/// decrypt under its owner's key to the bytes that were uploaded.  Returns
/// the failures and the time the reopen took.
pub fn verify_uploads(
    spec: &Spec,
    world: World,
    fixture: &Fixture,
    uploaded: &[Vec<(RecordId, usize, u64)>],
) -> Result<(Failures, f64), String> {
    let (kgc, store, reopen_ms) = world
        .restart_store()
        .map_err(|e| format!("reopening the store from disk: {e}"))?;
    let addr = store.addr();
    let failures = std::thread::scope(|scope| {
        let workers: Vec<_> = uploaded
            .iter()
            .enumerate()
            .map(|(conn, records)| {
                scope.spawn(move || verify_share(spec, fixture, addr, conn, records))
            })
            .collect();
        let mut all = Failures::default();
        for worker in workers {
            all.merge(&worker.join().expect("a verifier thread panicked"));
        }
        all
    });
    stop(store);
    stop(kgc);
    Ok((failures, reopen_ms))
}

/// Records fetched per pipelined burst while checking the reopened store.
const VERIFY_BURST: usize = 32;

fn verify_share(
    spec: &Spec,
    fixture: &Fixture,
    store: SocketAddr,
    conn: usize,
    records: &[(RecordId, usize, u64)],
) -> Failures {
    let mut failures = Failures::default();
    let mut link = Connection::connect(store, &fixture.params, &ClientConfig::default()).ok();
    for burst in records.chunks(VERIFY_BURST) {
        let requests: Vec<Request> = burst
            .iter()
            .map(|&(id, _, _)| Request::GetRecord { id })
            .collect();
        let responses = link
            .as_mut()
            .and_then(|link| link.call_pipelined(&requests).ok());
        if responses.is_none() {
            // The stream position is lost; every later record counts as lost.
            link = None;
        }
        for (slot, &(id, p, sequence)) in burst.iter().enumerate() {
            let patient = &fixture.patients[p];
            let title = upload_title(conn, sequence);
            let intact = match responses.as_ref().map(|r| &r[slot]) {
                Some(Response::Record(record)) => {
                    let aad =
                        HealthRecord::associated_data(&patient.identity, &fixture.category, &title);
                    record.id == id
                        && record.patient == patient.identity
                        && record.title == title
                        && patient
                            .delegator
                            .decrypt_bytes(&record.ciphertext, &aad)
                            .is_ok_and(|body| {
                                body == upload_payload(
                                    fixture.seed,
                                    conn,
                                    sequence,
                                    spec.payload_len,
                                )
                            })
                }
                _ => false,
            };
            if !intact {
                failures.record(Failure::LostUpload);
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_hold_equal_counts_and_failed_operations_lower_the_rate() {
        // Ten operations ending every 0.1 s; the 4th failed its check.
        let ops: Vec<(f64, Option<f64>)> = (1..=10)
            .map(|i| (i as f64 / 10.0, (i != 4).then_some(100.0 - i as f64)))
            .collect();
        let windows = Windows::cut(&ops, 3);
        // 3 + 3 + 4 operations: what does not divide goes to the last window.
        let counts: Vec<usize> = windows.latencies_us.iter().map(Vec::len).collect();
        assert_eq!(counts, [3, 2, 4]);
        assert_eq!(windows.samples(), 9);
        // Window 1 runs from 0.3 s to 0.6 s and passed 2 of its 3.
        let expect = [3.0 / 0.3, 2.0 / 0.3, 4.0 / 0.4];
        for (rate, expect) in windows.rates.iter().zip(expect) {
            assert!((rate - expect).abs() < 1e-9, "{rate} vs {expect}");
        }
        // Latencies are ascending inside a window, whatever order they ended in.
        assert_eq!(windows.latencies_us[0], [97.0, 98.0, 99.0]);
        assert_eq!(windows.percentiles(0.5), [98.0, 94.0, 91.0]);
    }
}
