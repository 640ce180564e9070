//! Serving metrics: request/batch counters, connection gauges, buffer
//! high-water marks and a request-latency reservoir, cheap enough to
//! update on every request and rich enough to answer the `stats`
//! protocol command (p50/p99/p999, mean batch fill, live connections).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How many of the most recent request latencies the reservoir keeps.
/// Old samples are overwritten ring-buffer style, so percentiles always
/// describe recent traffic rather than the whole process lifetime.
const LATENCY_WINDOW: usize = 1 << 16;

/// Serving counters, one instance per server: owned by the event loop
/// in the epoll front end, behind an `Arc` wherever several threads
/// update it (the batcher's handles and workers, the thread-per-
/// connection front end).
#[derive(Debug, Default)]
pub struct ServeMetrics {
    requests: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    batched_samples: AtomicU64,
    connections: AtomicU64,
    accepted: AtomicU64,
    read_hwm: AtomicU64,
    write_hwm: AtomicU64,
    latencies: Mutex<LatencyRing>,
}

/// Fixed-capacity ring of recent request latencies in microseconds.
#[derive(Debug, Default)]
struct LatencyRing {
    samples_us: Vec<u64>,
    next: usize,
}

impl ServeMetrics {
    /// Counts one accepted request.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request rejected before it reached the queue (wrong
    /// feature arity, malformed line).
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request or connection shed by admission control (the
    /// `busy` responses: max-conns, max-inflight, per-connection caps,
    /// full queue).
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one accepted connection (raises the live gauge).
    pub fn record_connect(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Lowers the live-connection gauge.
    pub fn record_disconnect(&self) {
        self.connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Folds one connection's current read-buffer size into the
    /// high-water mark.
    pub fn record_read_buffer(&self, bytes: usize) {
        self.read_hwm.fetch_max(bytes as u64, Ordering::Relaxed);
    }

    /// Folds one connection's current write-buffer size into the
    /// high-water mark.
    pub fn record_write_buffer(&self, bytes: usize) {
        self.write_hwm.fetch_max(bytes as u64, Ordering::Relaxed);
    }

    /// Counts one scored batch of `fill` samples.
    pub fn record_batch(&self, fill: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_samples
            .fetch_add(fill as u64, Ordering::Relaxed);
    }

    /// Records one request's latency from admission to scored.
    pub fn record_latency(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let mut ring = self.latencies.lock().expect("latency ring lock");
        if ring.samples_us.len() < LATENCY_WINDOW {
            ring.samples_us.push(us);
        } else {
            let slot = ring.next;
            ring.samples_us[slot] = us;
        }
        ring.next = (ring.next + 1) % LATENCY_WINDOW;
    }

    /// A consistent point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut samples = self
            .latencies
            .lock()
            .expect("latency ring lock")
            .samples_us
            .clone();
        samples.sort_unstable();
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_samples.load(Ordering::Relaxed);
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            batches,
            mean_fill: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            connections: self.connections.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            read_hwm: self.read_hwm.load(Ordering::Relaxed),
            write_hwm: self.write_hwm.load(Ordering::Relaxed),
            p50_us: percentile(&samples, 50.0),
            p99_us: percentile(&samples, 99.0),
            p999_us: percentile(&samples, 99.9),
            max_us: samples.last().copied().unwrap_or(0),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample set (0 when
/// empty).
pub fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// One point-in-time reading of the serving counters, as returned by
/// the `stats` protocol command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests admitted for scoring.
    pub requests: u64,
    /// Requests rejected before scoring.
    pub rejected: u64,
    /// Requests or connections shed by admission control (`busy`).
    pub shed: u64,
    /// Batches scored.
    pub batches: u64,
    /// Mean samples per scored batch.
    pub mean_fill: f64,
    /// Connections currently open (gauge).
    pub connections: u64,
    /// Connections accepted since startup.
    pub accepted: u64,
    /// Largest per-connection read buffer observed, bytes.
    pub read_hwm: u64,
    /// Largest per-connection write buffer observed, bytes.
    pub write_hwm: u64,
    /// Median request latency in microseconds, over the recent-latency
    /// window: from parse to scored in the epoll front end, from
    /// enqueue to scored behind the batcher.
    pub p50_us: u64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile request latency in microseconds.
    pub p999_us: u64,
    /// Worst request latency in the window, microseconds.
    pub max_us: u64,
}

impl MetricsSnapshot {
    /// The snapshot as one line of JSON (the `stats` wire format).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\":{},\"rejected\":{},\"shed\":{},\"batches\":{},\
             \"mean_fill\":{:.2},\"connections\":{},\"accepted\":{},\
             \"read_hwm\":{},\"write_hwm\":{},\
             \"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}}}",
            self.requests,
            self.rejected,
            self.shed,
            self.batches,
            self.mean_fill,
            self.connections,
            self.accepted,
            self.read_hwm,
            self.write_hwm,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.max_us
        )
    }

    /// The snapshot with an extra `"shards"` block spliced in before
    /// the closing brace — the `stats` wire format of the router
    /// front end, which reports its shard map alongside the standard
    /// counters. `shards_json` must already be a well-formed JSON
    /// value (the router renders an array of per-shard objects).
    pub fn to_json_with_shards(&self, shards_json: &str) -> String {
        let mut line = self.to_json();
        line.insert_str(line.len() - 1, &format!(",\"shards\":{shards_json}"));
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = ServeMetrics::default().snapshot();
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.batches, 0);
        assert_eq!(snap.shed, 0);
        assert_eq!(snap.connections, 0);
        assert_eq!(snap.accepted, 0);
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.p99_us, 0);
        assert_eq!(snap.p999_us, 0);
        assert_eq!(snap.mean_fill, 0.0);
    }

    #[test]
    fn counters_and_percentiles_accumulate() {
        let m = ServeMetrics::default();
        for us in 1..=100u64 {
            m.record_request();
            m.record_latency(Duration::from_micros(us));
        }
        m.record_batch(60);
        m.record_batch(40);
        m.record_rejected();
        let snap = m.snapshot();
        assert_eq!(snap.requests, 100);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.mean_fill, 50.0);
        assert_eq!(snap.p50_us, 50);
        assert_eq!(snap.p99_us, 99);
        assert_eq!(snap.p999_us, 100);
        assert_eq!(snap.max_us, 100);
        let json = snap.to_json();
        for key in [
            "requests",
            "shed",
            "batches",
            "mean_fill",
            "connections",
            "accepted",
            "read_hwm",
            "write_hwm",
            "p50_us",
            "p99_us",
            "p999_us",
        ] {
            assert!(json.contains(key), "{json}");
        }
    }

    #[test]
    fn connection_gauges_and_hwms_track_the_front_end() {
        let m = ServeMetrics::default();
        m.record_connect();
        m.record_connect();
        m.record_connect();
        m.record_disconnect();
        m.record_shed();
        m.record_read_buffer(100);
        m.record_read_buffer(40); // below the mark: no change
        m.record_write_buffer(9000);
        let snap = m.snapshot();
        assert_eq!(snap.connections, 2);
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.read_hwm, 100);
        assert_eq!(snap.write_hwm, 9000);
    }

    #[test]
    fn shards_block_splices_into_the_stats_line() {
        let snap = ServeMetrics::default().snapshot();
        let line = snap.to_json_with_shards("[{\"addr\":\"127.0.0.1:9\",\"up\":true}]");
        assert!(
            line.ends_with(",\"shards\":[{\"addr\":\"127.0.0.1:9\",\"up\":true}]}"),
            "{line}"
        );
        assert!(line.starts_with("{\"requests\":0,"), "{line}");
    }

    #[test]
    fn p999_sits_between_p99_and_max() {
        let m = ServeMetrics::default();
        for us in 1..=10_000u64 {
            m.record_latency(Duration::from_micros(us));
        }
        let snap = m.snapshot();
        assert_eq!(snap.p99_us, 9900);
        // Nearest rank lands on 9991 here: 0.999 * 10000 is just above
        // 9990 in binary floating point, and ceil keeps the bias
        // conservative (never under-reports the tail).
        assert_eq!(snap.p999_us, 9991);
        assert_eq!(snap.max_us, 10_000);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 99.0), 4);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.0), 1);
    }

    #[test]
    fn latency_ring_wraps_instead_of_growing() {
        let m = ServeMetrics::default();
        for i in 0..(LATENCY_WINDOW + 10) {
            m.record_latency(Duration::from_micros(i as u64));
        }
        let held = m
            .latencies
            .lock()
            .expect("latency ring lock")
            .samples_us
            .len();
        assert_eq!(held, LATENCY_WINDOW);
    }
}
