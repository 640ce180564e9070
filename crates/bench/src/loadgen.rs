//! Open-loop load generation against the `flint-serve` stack — the
//! experiment behind the "Open-loop serving" section of EXPERIMENTS.md
//! and `cargo bench --bench serve_latency`.
//!
//! **Open loop** ([`open_loop`]) means requests depart on a fixed
//! virtual-time schedule (request *k* is *due* at `start + k/rate`
//! regardless of how the server is doing), writers never wait for
//! responses, and every latency is measured from the request's
//! **intended** departure time — so when the server falls behind, the
//! queueing delay lands in the recorded tail instead of silently
//! stretching the send schedule. A closed loop (each client waiting for
//! its answer before sending again) would hide exactly those stalls:
//! the slow moments are the ones it samples least (coordinated
//! omission). This is the coordinated-omission-safe way to ask "what
//! latency does a client see at N requests/second?", and it runs over
//! real TCP against any endpoint that speaks the line protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Latency distribution over one load-generation run, microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Requests measured.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median (nearest rank).
    pub p50_us: u64,
    /// 99th percentile (nearest rank).
    pub p99_us: u64,
    /// 99.9th percentile (nearest rank).
    pub p999_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarizes raw per-request latencies (order irrelevant).
    pub fn from_micros(mut samples_us: Vec<u64>) -> Self {
        samples_us.sort_unstable();
        let count = samples_us.len();
        let mean_us = if count == 0 {
            0.0
        } else {
            samples_us.iter().sum::<u64>() as f64 / count as f64
        };
        Self {
            count,
            mean_us,
            p50_us: flint_serve::metrics::percentile(&samples_us, 50.0),
            p99_us: flint_serve::metrics::percentile(&samples_us, 99.0),
            p999_us: flint_serve::metrics::percentile(&samples_us, 99.9),
            max_us: samples_us.last().copied().unwrap_or(0),
        }
    }
}

/// Shape of one open-loop run: how fast, how many, over how many
/// connections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSpec {
    /// Offered arrival rate, requests per second across all
    /// connections. Request `k` is due at `start + k/rate` whether or
    /// not the server keeps up.
    pub rate_rps: f64,
    /// Total requests in the run.
    pub total_requests: usize,
    /// TCP connections the requests round-robin over.
    pub connections: usize,
    /// Multiple of `rate_rps` at which a writer re-sends backlog after
    /// a stall (its own scheduling hiccup or a blocking `write_all`).
    /// Must be at least 1. Without this bound the entire overdue
    /// backlog departed as one unpaced burst the moment the writer
    /// recovered — a send pattern no steady open-loop client produces,
    /// which inflated p999 with self-made queueing. Latencies are still
    /// measured from the *intended* departure times, so the pacing
    /// never hides server-side delay (coordinated omission stays
    /// impossible); it only stops the generator from manufacturing
    /// load spikes the schedule never asked for. 2 is a sane default:
    /// backlog drains at twice the offered rate.
    pub catch_up_factor: f64,
}

/// Pure virtual-time pacer for one open-loop writer: decides how long
/// to wait before sending request `k` given the current instant, and
/// counts sends that departed after their schedule. On-time sends wait
/// until their due instant; once the writer falls behind, overdue
/// backlog is released at `catch_up` spacing (a bounded multiple of
/// the offered rate) instead of as one burst. Pure logic over caller
/// supplied instants, so stalls are unit-testable without sleeping.
#[derive(Debug, Clone)]
pub struct SendPacer {
    start: Instant,
    rate_rps: f64,
    /// Minimum spacing between consecutive catch-up sends.
    catch_up: Duration,
    /// Earliest instant the next send may depart while draining
    /// backlog; `None` when on schedule.
    earliest: Option<Instant>,
    late_sends: u64,
}

impl SendPacer {
    /// A pacer for the global schedule `start + k / rate_rps` whose
    /// catch-up sends this writer spaces `1 / catch_up_rps` apart.
    pub fn new(start: Instant, rate_rps: f64, catch_up_rps: f64) -> Self {
        assert!(rate_rps > 0.0, "need a positive offered rate");
        assert!(catch_up_rps > 0.0, "need a positive catch-up rate");
        Self {
            start,
            rate_rps,
            catch_up: Duration::from_secs_f64(1.0 / catch_up_rps),
            earliest: None,
            late_sends: 0,
        }
    }

    /// The instant request `k` is due on the virtual-time schedule.
    pub fn due(&self, k: usize) -> Instant {
        self.start + Duration::from_secs_f64(k as f64 / self.rate_rps)
    }

    /// How long the writer must sleep before sending request `k` when
    /// the clock reads `now`. Zero means send immediately. Late sends
    /// (departing after their due instant) are counted and pace the
    /// rest of the backlog at the catch-up spacing.
    pub fn wait_before(&mut self, k: usize, now: Instant) -> Duration {
        let due = self.due(k);
        let floor = self.earliest.map_or(due, |e| e.max(due));
        match floor.checked_duration_since(now) {
            Some(wait) if floor > due => {
                // Paced catch-up slot: still late against the schedule.
                self.late_sends += 1;
                self.earliest = Some(floor + self.catch_up);
                wait
            }
            Some(wait) => {
                // On schedule; any backlog has drained.
                self.earliest = None;
                wait
            }
            None => {
                // Overdue: send now, pace the rest of the backlog.
                self.late_sends += 1;
                self.earliest = Some(now + self.catch_up);
                Duration::ZERO
            }
        }
    }

    /// Sends so far that departed after their due instant.
    pub fn late_sends(&self) -> u64 {
        self.late_sends
    }
}

/// One open-loop run against a live TCP serving front end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopReport {
    /// Connections used.
    pub connections: usize,
    /// The offered arrival rate (the schedule).
    pub offered_rps: f64,
    /// Completed responses divided by wall time; sags below
    /// `offered_rps` when the server cannot keep up.
    pub achieved_rps: f64,
    /// Responses received.
    pub responses: usize,
    /// Responses that were not predictions (`busy` sheds, errors).
    pub errors: usize,
    /// Requests that departed after their intended schedule slot
    /// (writer stalls; see [`OpenLoopSpec::catch_up_factor`]). A large
    /// fraction means the generator — not the server — was the
    /// bottleneck and the offered rate was not actually sustained.
    pub late_sends: u64,
    /// Wall-clock seconds from the schedule start to the last response.
    pub wall_secs: f64,
    /// Per-request latency from **intended** departure time to response
    /// — queueing delay from a backed-up schedule is included, which is
    /// what makes the tail coordinated-omission-safe.
    pub latency: LatencySummary,
}

/// Drives a live TCP serving endpoint with `spec.total_requests` rows
/// on a fixed `spec.rate_rps` virtual-time schedule spread round-robin
/// over `spec.connections` connections. Writers never wait for
/// responses; readers match responses to requests FIFO per connection
/// (the protocol answers in order) and time each one against its
/// intended departure.
///
/// # Errors
///
/// Any [`std::io::Error`] from connecting, sending or receiving. A
/// server that sheds or rejects a request still answers it (counted in
/// [`OpenLoopReport::errors`]), so an error return means the transport
/// itself failed.
///
/// # Panics
///
/// Panics if `rows` is empty or `spec.rate_rps` is not positive.
pub fn open_loop(
    addr: SocketAddr,
    rows: &[Vec<f32>],
    spec: OpenLoopSpec,
) -> std::io::Result<OpenLoopReport> {
    assert!(!rows.is_empty(), "need at least one request row");
    assert!(spec.rate_rps > 0.0, "need a positive offered rate");
    assert!(
        spec.catch_up_factor >= 1.0,
        "catch-up slower than the offered rate can never drain backlog"
    );
    let connections = spec.connections.max(1);
    let total = spec.total_requests;
    // Pre-render every request line so the send path is one write call.
    let lines: Vec<String> = (0..total)
        .map(|k| {
            let row = &rows[k % rows.len()];
            let mut line = row.iter().map(f32::to_string).collect::<Vec<_>>().join(",");
            line.push('\n');
            line
        })
        .collect();
    let streams: Vec<TcpStream> = (0..connections)
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(stream)
        })
        .collect::<std::io::Result<_>>()?;

    // The schedule starts a breath in the future so connection 0's
    // first request is not already late before the threads spawn.
    let start = Instant::now() + Duration::from_millis(5);
    // Each writer's share of the catch-up rate: backlog drains at
    // `catch_up_factor` times the offered rate across all connections.
    let catch_up_rps = spec.rate_rps * spec.catch_up_factor / connections as f64;
    let mut all_latencies: Vec<u64> = Vec::with_capacity(total);
    let mut errors = 0usize;
    let mut late_sends = 0u64;
    let mut last_response = start;
    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut writers = Vec::with_capacity(connections);
        let mut readers = Vec::with_capacity(connections);
        for (c, stream) in streams.into_iter().enumerate() {
            let mut write_half = stream.try_clone()?;
            let lines = &lines;
            writers.push(scope.spawn(move || -> std::io::Result<u64> {
                let mut pacer = SendPacer::new(start, spec.rate_rps, catch_up_rps);
                let mut k = c;
                while k < total {
                    let wait = pacer.wait_before(k, Instant::now());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    // Send even when late: the reader charges the delay
                    // against the intended time, not this actual one —
                    // the pacer only bounds the burst, never the
                    // latency accounting.
                    write_half.write_all(lines[k].as_bytes())?;
                    k += connections;
                }
                Ok(pacer.late_sends())
            }));
            readers.push(
                scope.spawn(move || -> std::io::Result<(Vec<u64>, usize, Instant)> {
                    let mut reader = BufReader::new(stream);
                    let mut latencies = Vec::with_capacity(total.div_ceil(connections));
                    let mut errors = 0usize;
                    let mut last = start;
                    let mut line = String::new();
                    let mut k = c;
                    while k < total {
                        line.clear();
                        if reader.read_line(&mut line)? == 0 {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::UnexpectedEof,
                                format!(
                                    "server closed connection {c} after {} responses",
                                    latencies.len()
                                ),
                            ));
                        }
                        let now = Instant::now();
                        last = now;
                        let due = start + Duration::from_secs_f64(k as f64 / spec.rate_rps);
                        let us = now
                            .checked_duration_since(due)
                            .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
                        latencies.push(us);
                        if !line.starts_with("{\"class\":") {
                            errors += 1;
                        }
                        k += connections;
                    }
                    Ok((latencies, errors, last))
                }),
            );
        }
        for writer in writers {
            late_sends += writer.join().expect("open-loop writer thread")?;
        }
        for reader in readers {
            let (latencies, conn_errors, last) = reader.join().expect("open-loop reader thread")?;
            all_latencies.extend(latencies);
            errors += conn_errors;
            if last > last_response {
                last_response = last;
            }
        }
        Ok(())
    })?;

    let responses = all_latencies.len();
    let wall_secs = last_response
        .saturating_duration_since(start)
        .as_secs_f64()
        .max(f64::MIN_POSITIVE);
    Ok(OpenLoopReport {
        connections,
        offered_rps: spec.rate_rps,
        achieved_rps: responses as f64 / wall_secs,
        responses,
        errors,
        late_sends,
        wall_secs,
        latency: LatencySummary::from_micros(all_latencies),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_data::synth::SynthSpec;
    use flint_exec::{EngineBuilder, EngineKind, Predictor};
    use flint_forest::{ForestConfig, RandomForest};
    use flint_serve::{BatchPolicy, EpollServer};

    #[test]
    fn summary_percentiles_are_exact_on_known_samples() {
        let summary = LatencySummary::from_micros((1..=200).collect());
        assert_eq!(summary.count, 200);
        assert_eq!(summary.p50_us, 100);
        assert_eq!(summary.p99_us, 198);
        assert_eq!(summary.p999_us, 200);
        assert_eq!(summary.max_us, 200);
        assert_eq!(summary.mean_us, 100.5);
        let empty = LatencySummary::from_micros(Vec::new());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean_us, 0.0);
    }

    fn serving_engine() -> (Box<dyn Predictor>, Vec<Vec<f32>>) {
        let data = SynthSpec::new(80, 4, 2).seed(7).generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 6)).expect("trainable");
        let engine = EngineBuilder::new(&forest)
            .build(EngineKind::parse("flint-blocked").expect("registered"))
            .expect("builds");
        let rows = (0..data.n_samples())
            .map(|i| data.sample(i).to_vec())
            .collect();
        (engine, rows)
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn open_loop_measures_from_the_intended_schedule() {
        let (engine, rows) = serving_engine();
        let server = EpollServer::bind("127.0.0.1:0", engine, BatchPolicy::default())
            .expect("binds loopback");
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().expect("serves"));

        let report = open_loop(
            addr,
            &rows,
            OpenLoopSpec {
                rate_rps: 2000.0,
                total_requests: 200,
                connections: 4,
                catch_up_factor: 2.0,
            },
        )
        .expect("open loop runs");
        assert_eq!(report.responses, 200);
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.latency.count, 200);
        assert!(report.achieved_rps > 0.0);
        // The schedule spans 100 ms; a loopback run can't take 100x.
        assert!(report.wall_secs < 10.0, "{report:?}");
        assert!(report.latency.p999_us >= report.latency.p99_us);

        let stream = TcpStream::connect(addr).expect("connects");
        let mut w = stream.try_clone().expect("clones");
        w.write_all(b"shutdown\n").expect("writes");
        runner.join().expect("server thread");
    }

    #[test]
    fn pacer_releases_on_time_sends_at_their_due_instants() {
        let start = Instant::now();
        // 1000 rps schedule, catch-up at 2000 rps.
        let mut pacer = SendPacer::new(start, 1000.0, 2000.0);
        assert_eq!(pacer.wait_before(0, start), Duration::ZERO);
        assert_eq!(pacer.wait_before(1, start), Duration::from_millis(1));
        assert_eq!(
            pacer.wait_before(7, start + Duration::from_millis(3)),
            Duration::from_millis(4)
        );
        assert_eq!(pacer.late_sends(), 0);
    }

    #[test]
    fn pacer_bounds_the_post_stall_burst_instead_of_releasing_it_at_once() {
        let start = Instant::now();
        let mut pacer = SendPacer::new(start, 1000.0, 2000.0);
        // Simulate a 50 ms writer stall: when the writer wakes at
        // start+52ms, requests 0..52 are all overdue.
        let mut now = start + Duration::from_millis(52);
        let mut departures = Vec::new();
        for k in 0..52 {
            let wait = pacer.wait_before(k, now);
            now += wait; // the writer sleeps, then sends
            departures.push(now);
        }
        // Before the fix the whole backlog departed at `now` as one
        // burst; the pacer must spread it at the catch-up spacing.
        for pair in departures.windows(2) {
            assert!(
                pair[1] - pair[0] >= Duration::from_micros(500),
                "catch-up sends {:?} apart; burst not bounded",
                pair[1] - pair[0]
            );
        }
        assert_eq!(pacer.late_sends(), 52);
        // Every departure is late against its own due instant — the
        // pacing never rewrites the schedule latencies are charged to.
        for (k, &at) in departures.iter().enumerate() {
            assert!(at > pacer.due(k), "request {k} must still count as late");
        }
        // Once the schedule catches back up (due beyond the backlog
        // drain), the pacer returns to due-instant release and stops
        // counting lates.
        let due_far = pacer.due(200); // start + 200 ms
        let wait = pacer.wait_before(200, now);
        assert_eq!(now + wait, due_far);
        assert_eq!(pacer.late_sends(), 52);
        // ...and the backlog pacing state is fully reset afterwards.
        assert_eq!(pacer.wait_before(201, due_far), Duration::from_millis(1));
        assert_eq!(pacer.late_sends(), 52);
    }

    #[test]
    #[should_panic(expected = "catch-up slower than the offered rate")]
    fn open_loop_rejects_a_catch_up_factor_below_one() {
        let addr: SocketAddr = "127.0.0.1:1".parse().expect("parses");
        let _ = open_loop(
            addr,
            &[vec![0.0]],
            OpenLoopSpec {
                rate_rps: 100.0,
                total_requests: 1,
                connections: 1,
                catch_up_factor: 0.5,
            },
        );
    }
}
