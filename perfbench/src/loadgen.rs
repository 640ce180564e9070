//! A one-thread open-loop load generator.
//!
//! Request `i` of a phase is due at `start + i / rate`. Each tick the
//! thread sends every request due by now with one `write` per
//! connection (after a stall of this thread, the backlog leaves in
//! bursts of at most [`BURST`] at twice the offered rate, so the
//! generator never offers a spike the schedule did not ask for), reads
//! whatever responses have arrived, matches them to
//! requests in FIFO order (the serve and route front ends answer each
//! connection strictly in request order), and charges every latency
//! from the request's *intended* send time, so a stall of the server or
//! of this thread is counted against every request it delays. It then
//! sleeps in `ppoll` until the next request is due or a response
//! arrives. One thread drives at most a handful of connections and
//! keeps a 10k req/s schedule with one wake-up per request at most.

use crate::sys;
use flint_forest::votes::parse_votes;
use flint_serve::{FramedLine, LineMachine};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// A send that leaves more than this after its intended time is late.
pub const LATE_SLACK_NS: u64 = 1_000_000;

/// Most requests one tick may release at once.
pub const BURST: u64 = 32;
/// Rate, as a multiple of the offered rate, at which a backlog drains.
const CATCH_UP: u64 = 2;

/// How long a phase waits for the last answers once every request has
/// been sent; a request still unanswered then counts as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// The open-loop schedule: which requests are due at a given instant,
/// and how many left late. Sends draw on a token bucket that holds
/// [`BURST`] tokens and refills at [`CATCH_UP`] times the offered rate:
/// on schedule it never runs dry, after a stall it spreads the backlog.
/// Pure over caller-supplied clock readings.
#[derive(Debug, Clone)]
pub struct Pacer {
    start_ns: u64,
    rate_rps: u64,
    total: u64,
    next: u64,
    late: u64,
    /// Send tokens, in units of 1 / (rate × CATCH_UP) seconds.
    tokens_ns: u64,
    last_ns: u64,
}

impl Pacer {
    /// `total` requests at `rate_rps`, the first due at `start_ns`.
    pub fn new(start_ns: u64, rate_rps: u64, total: u64) -> Self {
        assert!(rate_rps > 0, "need a positive rate");
        Self {
            start_ns,
            rate_rps,
            total,
            next: 0,
            late: 0,
            tokens_ns: BURST * Self::token_ns(rate_rps),
            last_ns: start_ns,
        }
    }

    /// Nanoseconds of refill per send token.
    fn token_ns(rate_rps: u64) -> u64 {
        (1_000_000_000 / (rate_rps * CATCH_UP)).max(1)
    }

    /// When request `i` is due.
    pub fn intended_ns(&self, i: u64) -> u64 {
        self.start_ns + i * 1_000_000_000 / self.rate_rps
    }

    /// Takes every request due by `now_ns` and not yet sent, counting
    /// those that leave more than [`LATE_SLACK_NS`] behind schedule.
    pub fn take_due(&mut self, now_ns: u64) -> Range<u64> {
        let token = Self::token_ns(self.rate_rps);
        if now_ns > self.last_ns {
            self.tokens_ns = (self.tokens_ns + (now_ns - self.last_ns)).min(BURST * token);
            self.last_ns = now_ns;
        }
        let from = self.next;
        while self.next < self.total
            && self.intended_ns(self.next) <= now_ns
            && self.tokens_ns >= token
        {
            self.tokens_ns -= token;
            if now_ns - self.intended_ns(self.next) > LATE_SLACK_NS {
                self.late += 1;
            }
            self.next += 1;
        }
        from..self.next
    }

    /// When the next unsent request may leave: its due time, or when
    /// the bucket next holds a token. `None` once all are sent.
    pub fn next_due_ns(&self) -> Option<u64> {
        let token = Self::token_ns(self.rate_rps);
        let refill = self.last_ns + token.saturating_sub(self.tokens_ns);
        (self.next < self.total).then(|| self.intended_ns(self.next).max(refill))
    }

    /// Requests sent late so far.
    pub fn late(&self) -> u64 {
        self.late
    }
}

/// The correct answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A `{"class":N,...}` response.
    Class(u32),
    /// A `{"votes":[...],...}` response.
    Votes(Vec<u32>),
}

/// How one response line judged against its request's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The right answer; `batch` is the response's batch field.
    Ok {
        /// The `"batch"` field, when present.
        batch: Option<u32>,
    },
    /// A well-formed answer that is wrong.
    Mismatch,
    /// An admission-control shed (`"busy":true`).
    Busy,
    /// Any other error or malformed line.
    Error,
}

/// Judges one response line against the expected answer.
pub fn judge(line: &[u8], expect: &Expect) -> Verdict {
    let Ok(text) = std::str::from_utf8(line) else {
        return Verdict::Error;
    };
    if text.starts_with("{\"error\"") {
        return if text.contains("\"busy\":true") {
            Verdict::Busy
        } else {
            Verdict::Error
        };
    }
    let batch = field(text, "\"batch\":").and_then(|v| v.parse().ok());
    let right = match expect {
        Expect::Class(class) => {
            match field(text, "{\"class\":").and_then(|v| v.parse::<u32>().ok()) {
                Some(got) => got == *class,
                None => return Verdict::Error,
            }
        }
        Expect::Votes(votes) => {
            let array = text
                .strip_prefix("{\"votes\":")
                .and_then(|rest| rest.split_once(']'))
                .map(|(head, _)| format!("{head}]"));
            match array.as_deref().map(parse_votes) {
                Some(Ok(got)) => got == *votes,
                _ => return Verdict::Error,
            }
        }
    };
    if right {
        Verdict::Ok { batch }
    } else {
        Verdict::Mismatch
    }
}

/// The unsigned integer text right after `key` in a flat JSON line.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// One request awaiting its response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// Position in the phase's request stream.
    pub id: u64,
    /// When the schedule wanted it sent.
    pub intended_ns: u64,
}

/// Frames response bytes into lines, however the reads split them, and
/// pairs each complete line with the oldest unanswered request.
#[derive(Debug, Default)]
pub struct Matcher {
    lines: LineMachine,
    fifo: VecDeque<Pending>,
}

impl Matcher {
    /// Records a request as sent on this connection.
    pub fn sent(&mut self, pending: Pending) {
        self.fifo.push_back(pending);
    }

    /// Requests sent and not yet answered.
    pub fn outstanding(&self) -> usize {
        self.fifo.len()
    }

    /// Consumes one read's bytes. `on_reply` gets each answered request
    /// with its response line; a line with no request waiting for it is
    /// reported with `None`.
    pub fn receive(&mut self, bytes: &[u8], mut on_reply: impl FnMut(Option<Pending>, &[u8])) {
        let fifo = &mut self.fifo;
        self.lines.receive(bytes, |frame| match frame {
            FramedLine::Line(line) => on_reply(fifo.pop_front(), line),
            FramedLine::Oversized { .. } => on_reply(fifo.pop_front(), b""),
        });
    }
}

/// One nonblocking client connection of the generator.
#[derive(Debug)]
pub struct Link {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    matcher: Matcher,
}

impl Link {
    /// Wraps a connected stream (switched to nonblocking, no Nagle).
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            out: Vec::new(),
            out_pos: 0,
            matcher: Matcher::default(),
        })
    }

    /// Sends what is buffered with one `write`; keeps any remainder.
    fn flush(&mut self) -> io::Result<()> {
        if self.out_pos == self.out.len() {
            return Ok(());
        }
        match self.stream.write(&self.out[self.out_pos..]) {
            Ok(n) => self.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }
}

/// What one phase of open-loop load measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    /// Requests sent.
    pub sent: u64,
    /// Correct answers.
    pub ok: u64,
    /// `busy` sheds.
    pub busy: u64,
    /// Error or malformed responses, and requests never answered.
    pub error: u64,
    /// Wrong answers.
    pub mismatched: u64,
    /// Sends that left more than [`LATE_SLACK_NS`] behind schedule.
    pub late: u64,
    /// Intended-send-to-response latency of each correct answer, ns.
    pub latencies_ns: Vec<u64>,
    /// Sum and count of the responses' batch fields.
    pub fill_sum: u64,
    /// Responses that carried a batch field.
    pub fill_count: u64,
    /// First intended send to last response, ns.
    pub wall_ns: u64,
    /// CPU time this generator thread spent on the phase, ns.
    pub gen_cpu_ns: u64,
    /// CPU time the system under test spent on the phase, ns.
    pub system_cpu_ns: u64,
    /// The first response that was not a correct answer.
    pub first_failure: Option<String>,
}

impl PhaseReport {
    /// Failed requests: anything sent that did not come back right.
    pub fn failed(&self) -> u64 {
        self.busy + self.error + self.mismatched
    }

    /// Appends a later phase at the same rate: counts and times add up,
    /// latencies concatenate.
    pub fn merge(&mut self, other: PhaseReport) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.busy += other.busy;
        self.error += other.error;
        self.mismatched += other.mismatched;
        self.late += other.late;
        self.latencies_ns.extend(other.latencies_ns);
        self.fill_sum += other.fill_sum;
        self.fill_count += other.fill_count;
        self.wall_ns += other.wall_ns;
        self.gen_cpu_ns += other.gen_cpu_ns;
        self.system_cpu_ns += other.system_cpu_ns;
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }
}

/// Drives `total` requests at `rate_rps` over `links`, request `i`
/// carrying `lines[(first + i) % lines.len()]` on link `i % links.len()`
/// and judged against the matching `expect` entry. `system_cpu` reads
/// the CPU clock of the system under test (never this thread's).
pub fn run_phase(
    links: &mut [Link],
    lines: &[Vec<u8>],
    expect: &[Expect],
    (first, rate_rps, total): (u64, u64, u64),
    system_cpu: &mut dyn FnMut() -> io::Result<u64>,
) -> io::Result<PhaseReport> {
    assert_eq!(lines.len(), expect.len(), "one answer per request line");
    sys::tight_timer_slack();
    let fds: Vec<_> = links.iter().map(|l| l.stream.as_raw_fd()).collect();
    let mut want_write = vec![false; links.len()];
    let mut report = PhaseReport::default();
    let mut buf = vec![0u8; 64 * 1024];
    let cpu_start = sys::thread_cpu_ns()?;
    let start_ns = sys::now_ns() + 200_000;
    let mut pacer = Pacer::new(start_ns, rate_rps, total);
    let mut drain_deadline = None;
    let mut last_reply_ns = start_ns;
    let n_links = links.len() as u64;
    let system_start = system_cpu()?;
    loop {
        let now = sys::now_ns();
        for i in pacer.take_due(now) {
            let row = ((first + i) % lines.len() as u64) as usize;
            let link = &mut links[(i % n_links) as usize];
            link.out.extend_from_slice(&lines[row]);
            link.matcher.sent(Pending {
                id: first + i,
                intended_ns: pacer.intended_ns(i),
            });
            report.sent += 1;
        }
        for (k, link) in links.iter_mut().enumerate() {
            link.flush()?;
            want_write[k] = link.out_pos < link.out.len();
        }
        for link in links.iter_mut() {
            loop {
                let n = match link.stream.read(&mut buf) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "server closed a load connection",
                        ))
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                };
                let at = sys::now_ns();
                last_reply_ns = at;
                link.matcher.receive(&buf[..n], |pending, line| {
                    let Some(p) = pending else {
                        report.error += 1;
                        return;
                    };
                    let row = (p.id % lines.len() as u64) as usize;
                    let verdict = judge(line, &expect[row]);
                    if !matches!(verdict, Verdict::Ok { .. }) && report.first_failure.is_none() {
                        report.first_failure = Some(String::from_utf8_lossy(line).into_owned());
                    }
                    match verdict {
                        Verdict::Ok { batch } => {
                            report.ok += 1;
                            report.latencies_ns.push(at.saturating_sub(p.intended_ns));
                            if let Some(b) = batch {
                                report.fill_sum += u64::from(b);
                                report.fill_count += 1;
                            }
                        }
                        Verdict::Mismatch => report.mismatched += 1,
                        Verdict::Busy => report.busy += 1,
                        Verdict::Error => report.error += 1,
                    }
                });
            }
        }
        let outstanding: usize = links.iter().map(|l| l.matcher.outstanding()).sum();
        let next_due = pacer.next_due_ns();
        if next_due.is_none() {
            if outstanding == 0 {
                break;
            }
            let deadline = *drain_deadline.get_or_insert(now + DRAIN_TIMEOUT.as_nanos() as u64);
            if now >= deadline {
                report.error += outstanding as u64;
                break;
            }
        }
        let wake = next_due.or(drain_deadline).unwrap_or(now);
        let timeout = Duration::from_nanos(wake.saturating_sub(sys::now_ns()));
        if !timeout.is_zero() {
            sys::wait_io(&fds, &want_write, timeout)?;
        }
    }
    report.system_cpu_ns = system_cpu()? - system_start;
    report.late = pacer.late();
    report.wall_ns = last_reply_ns.saturating_sub(start_ns).max(1);
    report.gen_cpu_ns = sys::thread_cpu_ns()? - cpu_start;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_releases_requests_on_an_injected_clock() {
        // 10k req/s: one request every 100 µs from t = 1 ms.
        let mut pacer = Pacer::new(1_000_000, 10_000, 5);
        assert_eq!(pacer.take_due(999_999), 0..0);
        assert_eq!(pacer.next_due_ns(), Some(1_000_000));
        assert_eq!(pacer.take_due(1_000_000), 0..1);
        assert_eq!(pacer.take_due(1_150_000), 1..2);
        assert_eq!(pacer.next_due_ns(), Some(1_200_000));
        // A stall: everything due leaves in one tick, and only the
        // sends more than the slack behind schedule count as late.
        assert_eq!(pacer.take_due(2_350_000), 2..5);
        assert_eq!(pacer.late(), 2, "requests due at 1.2 and 1.3 ms are late");
        assert_eq!(pacer.next_due_ns(), None);
        assert_eq!(pacer.take_due(9_000_000), 5..5);
    }

    #[test]
    fn pacer_drains_a_long_stall_in_bursts_at_twice_the_rate() {
        // 10k req/s, then a 100 ms stall: 1000 requests overdue.
        let mut pacer = Pacer::new(0, 10_000, 2000);
        assert_eq!(pacer.take_due(100_000_000), 0..BURST);
        // The bucket refills one token per 50 µs (twice the rate).
        assert_eq!(pacer.next_due_ns(), Some(100_050_000));
        assert_eq!(pacer.take_due(100_049_999), BURST..BURST);
        assert_eq!(pacer.take_due(100_050_000), BURST..BURST + 1);
        assert_eq!(pacer.take_due(100_150_000), BURST + 1..BURST + 3);
        assert_eq!(pacer.late(), BURST + 3);
        // Once caught up, requests leave on schedule again.
        let mut pacer = Pacer::new(0, 10_000, 2000);
        pacer.take_due(100_000_000);
        let mut now = 100_000_000;
        while pacer.next_due_ns().expect("more") < pacer.intended_ns(1999) {
            now = pacer.next_due_ns().expect("more");
            pacer.take_due(now);
            if pacer.next_due_ns() == Some(pacer.intended_ns(pacer.next)) {
                break;
            }
        }
        assert!(now < 200_000_000, "caught up by {now}");
    }

    #[test]
    fn pacer_keeps_exact_spacing_at_awkward_rates() {
        let pacer = Pacer::new(0, 3, 4);
        assert_eq!(pacer.intended_ns(1), 333_333_333);
        assert_eq!(pacer.intended_ns(3), 1_000_000_000);
    }

    #[test]
    fn matcher_pairs_responses_in_fifo_order_across_every_split() {
        let stream = b"{\"class\":1,\"engine\":\"e\",\"batch\":2}\n\
                       {\"class\":0,\"engine\":\"e\",\"batch\":2}\r\n\
                       {\"error\":\"busy: max-inflight 4 reached\",\"busy\":true}\n";
        for a in 0..=stream.len() {
            for b in a..=stream.len() {
                let mut m = Matcher::default();
                for id in 0..3 {
                    m.sent(Pending {
                        id,
                        intended_ns: id * 10,
                    });
                }
                let mut seen = Vec::new();
                for chunk in [&stream[..a], &stream[a..b], &stream[b..]] {
                    m.receive(chunk, |p, line| {
                        seen.push((p.map(|p| p.id), judge(line, &Expect::Class(1))));
                    });
                }
                assert_eq!(
                    seen,
                    vec![
                        (Some(0), Verdict::Ok { batch: Some(2) }),
                        (Some(1), Verdict::Mismatch),
                        (Some(2), Verdict::Busy),
                    ],
                    "split at {a}/{b}"
                );
                assert_eq!(m.outstanding(), 0);
            }
        }
    }

    #[test]
    fn merged_phases_add_counts_and_concatenate_latencies() {
        let part = |lat: Vec<u64>| PhaseReport {
            sent: lat.len() as u64,
            ok: lat.len() as u64,
            system_cpu_ns: 7,
            latencies_ns: lat,
            ..PhaseReport::default()
        };
        let mut a = part(vec![1, 2]);
        a.merge(part(vec![30, 40, 50]));
        assert_eq!((a.sent, a.ok, a.system_cpu_ns), (5, 5, 14));
        assert_eq!(a.latencies_ns, [1, 2, 30, 40, 50]);
    }

    #[test]
    fn unsolicited_lines_are_reported_without_a_request() {
        let mut m = Matcher::default();
        let mut seen = Vec::new();
        m.receive(b"{\"class\":1}\n", |p, _| seen.push(p));
        assert_eq!(seen, vec![None]);
    }

    #[test]
    fn judges_votes_and_errors() {
        let votes = Expect::Votes(vec![3, 2]);
        assert_eq!(
            judge(
                b"{\"votes\":[3,2],\"engine\":\"simd-f16\",\"batch\":1}",
                &votes
            ),
            Verdict::Ok { batch: Some(1) }
        );
        assert_eq!(
            judge(
                b"{\"votes\":[2,3],\"engine\":\"simd-f16\",\"batch\":1}",
                &votes
            ),
            Verdict::Mismatch
        );
        assert_eq!(judge(b"{\"error\":\"bad row\"}", &votes), Verdict::Error);
        assert_eq!(judge(b"{\"class\":1}", &votes), Verdict::Error);
        assert_eq!(judge(b"garbage", &Expect::Class(0)), Verdict::Error);
    }
}
