//! The newline-delimited wire protocol spoken over TCP and stdin.
//!
//! One request per line, one response line per request:
//!
//! | request line | meaning |
//! |---|---|
//! | `0.5,1.25,-3.0,0.1` | score this feature row (bare CSV floats) |
//! | `{"features":[0.5,1.25,-3.0,0.1]}` | the same row, JSON-ish form |
//! | `votes:0.5,1.25,-3.0,0.1` | return the row's per-class vote histogram (the sharded-inference partial) |
//! | `stats` (or `/stats`) | return the serving metrics snapshot |
//! | `shutdown` (or `/shutdown`) | stop the server gracefully |
//!
//! Responses are one JSON object per line:
//! `{"class":2,"engine":"flint-blocked","batch":17}` for predictions,
//! `{"votes":[3,0,2],"engine":"flint-blocked","batch":1}` for vote
//! histograms (what a forest shard reports to the `flint-router`
//! fan-out tier, which merges shard histograms and applies the
//! canonical majority-vote tie-break),
//! the [`MetricsSnapshot::to_json`](crate::MetricsSnapshot::to_json)
//! object for `stats`, `{"ok":"shutting down"}` for `shutdown`, and
//! `{"error":"..."}` for anything malformed (the connection stays
//! usable — a bad line never kills the session or the queue).
//!
//! The JSON-ish form is parsed with a deliberately small hand-rolled
//! reader (no serde in the offline dependency set): the line must
//! contain a `"features"` key followed by one flat `[...]` array of
//! numbers.
//!
//! ## Sans-io framing
//!
//! [`ProtocolMachine`] is the transport-free half of the protocol: it
//! consumes raw byte slices in whatever chunks the transport produced
//! (one syscall's worth from a nonblocking socket, a whole stdin line,
//! a proptest-chosen split) and emits one [`WireEvent`] per request
//! line. It knows nothing about sockets, so the epoll event loop, the
//! stdin loop, the fan-out router and the unit tests all drive the
//! *same* state machine — chunk boundaries can never change
//! the response stream (proven by the chunking property suite).

use crate::batcher::Prediction;
use std::fmt::Write;

/// Longest accepted request line in bytes (terminator excluded); the
/// per-connection read-buffer cap. A line still unterminated past this
/// limit is rejected with one error response and discarded up to its
/// newline, so a hostile client cannot grow server memory without
/// bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Score one feature row.
    Predict(Vec<f32>),
    /// Score one feature row and return the per-class vote histogram
    /// instead of the merged class — the partial a forest shard
    /// contributes to a distributed majority vote.
    Votes(Vec<f32>),
    /// Report the serving metrics snapshot.
    Stats,
    /// Liveness probe (`health`): answered without touching the
    /// scoring path, so a router can distinguish "process up" from
    /// "keeping up".
    Health,
    /// Report the shard map (`shardmap`) — the router's control plane;
    /// a single-node server answers with an error.
    ShardMap,
    /// Replace the shard map (`shardmap set a:1,b:2`). Addresses stay
    /// unresolved strings at the protocol layer; the router validates
    /// them.
    ShardMapSet(Vec<String>),
    /// Stop admitting new predict/votes requests while continuing to
    /// answer in-flight ones and control verbs (`drain`).
    Drain,
    /// Resume admitting requests after a [`Request::Drain`]
    /// (`undrain`).
    Undrain,
    /// Stop the server gracefully.
    Shutdown,
}

/// Why a request line could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRequestError(pub String);

impl core::fmt::Display for ParseRequestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseRequestError {}

/// Parses one request line.
///
/// # Errors
///
/// [`ParseRequestError`] with a human-readable message on empty lines,
/// malformed numbers or a JSON-ish object without a `"features"` array.
pub fn parse_request(line: &str) -> Result<Request, ParseRequestError> {
    let text = line.trim();
    if text.is_empty() {
        return Err(ParseRequestError("empty request line".to_owned()));
    }
    if text.eq_ignore_ascii_case("stats") || text.eq_ignore_ascii_case("/stats") {
        return Ok(Request::Stats);
    }
    if text.eq_ignore_ascii_case("shutdown") || text.eq_ignore_ascii_case("/shutdown") {
        return Ok(Request::Shutdown);
    }
    if text.eq_ignore_ascii_case("health") || text.eq_ignore_ascii_case("/health") {
        return Ok(Request::Health);
    }
    if text.eq_ignore_ascii_case("drain") || text.eq_ignore_ascii_case("/drain") {
        return Ok(Request::Drain);
    }
    if text.eq_ignore_ascii_case("undrain") || text.eq_ignore_ascii_case("/undrain") {
        return Ok(Request::Undrain);
    }
    if text.eq_ignore_ascii_case("shardmap") || text.eq_ignore_ascii_case("/shardmap") {
        return Ok(Request::ShardMap);
    }
    if let Some(rest) = strip_verb_prefix(text, "shardmap set ") {
        let addrs: Vec<String> = rest
            .split(',')
            .map(|a| a.trim().to_owned())
            .filter(|a| !a.is_empty())
            .collect();
        if addrs.is_empty() {
            return Err(ParseRequestError(
                "shardmap set needs a comma-separated address list".to_owned(),
            ));
        }
        return Ok(Request::ShardMapSet(addrs));
    }
    if let Some(rest) = strip_verb_prefix(text, "votes:") {
        return Ok(Request::Votes(parse_row(rest)?));
    }
    Ok(Request::Predict(parse_row(text)?))
}

/// Strips an optional leading `/` then a case-insensitive ASCII verb
/// prefix, returning the trimmed remainder. `get` refuses a split
/// inside a multibyte character instead of panicking on hostile input.
fn strip_verb_prefix<'a>(text: &'a str, verb: &str) -> Option<&'a str> {
    let bare = text.strip_prefix('/').unwrap_or(text);
    match bare.get(..verb.len()) {
        Some(prefix) if prefix.eq_ignore_ascii_case(verb) => Some(bare[verb.len()..].trim()),
        _ => None,
    }
}

/// Parses one feature row: bare CSV floats or the JSON-ish
/// `{"features":[...]}` form.
fn parse_row(text: &str) -> Result<Vec<f32>, ParseRequestError> {
    let numbers = if text.starts_with('{') {
        features_array(text)?
    } else {
        text
    };
    numbers
        .split(',')
        .map(|field| {
            let field = field.trim();
            field
                .parse::<f32>()
                .map_err(|_| ParseRequestError(format!("cannot parse feature {field:?}")))
        })
        .collect()
}

/// Appends `row` to `out` as a CSV feature list that
/// [`parse_request`] reads back to the same bits, for every value
/// `parse_request` can produce.
///
/// `f32`'s `Display` round-trips every value but a sign-negative NaN,
/// which it prints as `NaN`; that one is written `-NaN`. The sign
/// matters: FLInt order keys send `-NaN` and `NaN` opposite ways.
pub fn write_row(out: &mut String, row: &[f32]) {
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if v.is_nan() && v.is_sign_negative() {
            out.push_str("-NaN");
        } else {
            let _ = write!(out, "{v}");
        }
    }
}

/// Extracts the contents of the `[...]` array following a `"features"`
/// key in a JSON-ish object line.
fn features_array(text: &str) -> Result<&str, ParseRequestError> {
    let missing = || ParseRequestError("expected {\"features\":[...]}".to_owned());
    let after_key = text
        .split_once("\"features\"")
        .map(|(_, rest)| rest)
        .ok_or_else(missing)?;
    let (_, after_open) = after_key.split_once('[').ok_or_else(missing)?;
    let (inner, _) = after_open.split_once(']').ok_or_else(missing)?;
    Ok(inner)
}

/// One framing-level event from [`ProtocolMachine::receive`]: a parsed
/// request, or the response-worthy reason a line could not become one.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// A well-formed request line.
    Request(Request),
    /// A complete but malformed line (answered with
    /// [`render_error`], the connection stays usable).
    Invalid(ParseRequestError),
    /// A line that exceeded [`MAX_LINE_BYTES`] before its newline
    /// arrived; the rest of the line is being discarded.
    Oversized {
        /// The limit that was exceeded.
        limit: usize,
    },
}

/// One framing-level event from [`LineMachine::receive`]: a complete
/// line, or the fact that one blew the length cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramedLine<'a> {
    /// A complete line, LF / CRLF terminator stripped.
    Line(&'a [u8]),
    /// A line that exceeded the cap before its newline arrived; the
    /// rest of the line is being discarded.
    Oversized {
        /// The limit that was exceeded.
        limit: usize,
    },
}

/// The sans-io line-framing core: buffers partial lines across
/// arbitrarily-chunked reads, strips LF / CRLF terminators and enforces
/// the line-length cap. It carries no protocol knowledge, so it frames
/// both directions of the wire: [`ProtocolMachine`] layers request
/// parsing on top for servers, and the `flint-router` fan-out tier
/// drives it bare to frame upstream shard *responses* over the same
/// chunk-invariant state machine instead of growing a second framing
/// layer.
#[derive(Debug)]
pub struct LineMachine {
    /// Bytes of the current (still unterminated) line.
    buf: Vec<u8>,
    max_line: usize,
    /// An oversized line was already reported; swallow bytes until its
    /// newline.
    discarding: bool,
}

impl Default for LineMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl LineMachine {
    /// A machine with the standard [`MAX_LINE_BYTES`] cap.
    pub fn new() -> Self {
        Self::with_max_line(MAX_LINE_BYTES)
    }

    /// A machine with a custom line-length cap (tests use small caps).
    pub fn with_max_line(max_line: usize) -> Self {
        Self {
            buf: Vec::new(),
            max_line: max_line.max(1),
            discarding: false,
        }
    }

    /// Bytes currently buffered for a partial line (the read-side
    /// memory this connection holds).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Consumes one transport chunk, emitting one [`FramedLine`] per
    /// complete line. Chunk boundaries are invisible: any split of the
    /// same byte stream yields the same event sequence.
    pub fn receive(&mut self, mut bytes: &[u8], mut sink: impl FnMut(FramedLine<'_>)) {
        while let Some(nl) = bytes.iter().position(|&b| b == b'\n') {
            let (head, rest) = bytes.split_at(nl);
            bytes = &rest[1..];
            if self.discarding {
                // The tail of a line already reported as oversized.
                self.discarding = false;
                continue;
            }
            if self.buf.len() + head.len() > self.max_line {
                // Same verdict the split-chunk path reaches below, so
                // chunking cannot change whether a line is accepted.
                self.buf.clear();
                sink(FramedLine::Oversized {
                    limit: self.max_line,
                });
            } else if self.buf.is_empty() {
                sink(FramedLine::Line(strip_cr(head)));
            } else {
                self.buf.extend_from_slice(head);
                let line = std::mem::take(&mut self.buf);
                sink(FramedLine::Line(strip_cr(&line)));
            }
        }
        if self.discarding {
            return;
        }
        if self.buf.len() + bytes.len() > self.max_line {
            self.buf.clear();
            self.discarding = true;
            sink(FramedLine::Oversized {
                limit: self.max_line,
            });
            return;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Flushes the final unterminated line at end of input, if any —
    /// the same treatment `BufRead::lines` gives a file without a
    /// trailing newline.
    pub fn finish(&mut self) -> Option<Vec<u8>> {
        self.discarding = false;
        if self.buf.is_empty() {
            return None;
        }
        let line = std::mem::take(&mut self.buf);
        Some(strip_cr(&line).to_vec())
    }
}

/// CRLF clients: the framing layer owns terminator stripping (a
/// parser's trim would also handle it, but a `\r` must never count
/// against field contents).
fn strip_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// The sans-io request-protocol state machine: [`LineMachine`] framing
/// with every complete line handed to [`parse_request`]. No transport
/// knowledge: callers feed it bytes and write out whatever responses
/// its events call for.
#[derive(Debug, Default)]
pub struct ProtocolMachine {
    lines: LineMachine,
}

impl ProtocolMachine {
    /// A machine with the standard [`MAX_LINE_BYTES`] cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A machine with a custom line-length cap (tests use small caps).
    pub fn with_max_line(max_line: usize) -> Self {
        Self {
            lines: LineMachine::with_max_line(max_line),
        }
    }

    /// Bytes currently buffered for a partial line (the read-side
    /// memory this connection holds).
    pub fn buffered(&self) -> usize {
        self.lines.buffered()
    }

    /// Consumes one transport chunk, emitting one [`WireEvent`] per
    /// complete line. Chunk boundaries are invisible: any split of the
    /// same byte stream yields the same event sequence.
    pub fn receive(&mut self, bytes: &[u8], mut sink: impl FnMut(WireEvent)) {
        self.lines.receive(bytes, |frame| {
            sink(match frame {
                FramedLine::Line(line) => line_event(line),
                FramedLine::Oversized { limit } => WireEvent::Oversized { limit },
            })
        });
    }

    /// Flushes the final unterminated line at end of input, if any —
    /// the same treatment `BufRead::lines` gives a file without a
    /// trailing newline.
    pub fn finish(&mut self) -> Option<WireEvent> {
        self.lines.finish().map(|line| line_event(&line))
    }
}

/// Classifies one complete, terminator-stripped line.
fn line_event(line: &[u8]) -> WireEvent {
    let text = String::from_utf8_lossy(line);
    match parse_request(&text) {
        Ok(request) => WireEvent::Request(request),
        Err(e) => WireEvent::Invalid(e),
    }
}

/// Renders one prediction as a response line.
pub fn render_prediction(prediction: &Prediction, engine: &str) -> String {
    format!(
        "{{\"class\":{},\"engine\":\"{engine}\",\"batch\":{}}}",
        prediction.class, prediction.batch_fill
    )
}

/// Renders one per-class vote histogram as a response line — the
/// answer to a `votes:` request, i.e. the partial a forest shard
/// reports upward for distributed merge. The array fragment uses the
/// canonical `flint_forest::votes` wire form so the router can parse
/// it back with `parse_votes`.
pub fn render_votes(votes: &[u32], engine: &str, batch_fill: usize) -> String {
    format!(
        "{{\"votes\":{},\"engine\":\"{engine}\",\"batch\":{batch_fill}}}",
        flint_forest::votes::render_votes(votes)
    )
}

/// Renders the admission-control shed response: the server is over one
/// of its load limits (`reason` names which) and this request was
/// deliberately not queued. Clients detect the `"busy"` key and back
/// off; the connection stays usable.
pub fn render_busy(reason: &str) -> String {
    let mut line = render_error(&format!("busy: {reason}"));
    line.insert_str(line.len() - 1, ",\"busy\":true");
    line
}

/// Renders an error as a single-line, well-formed JSON response:
/// quotes and backslashes are JSON-escaped, control characters are
/// flattened to spaces.
pub fn render_error(message: &str) -> String {
    let mut clean = String::with_capacity(message.len());
    for c in message.chars() {
        match c {
            '"' => clean.push_str("\\\""),
            '\\' => clean.push_str("\\\\"),
            c if c.is_control() => clean.push(' '),
            c => clean.push(c),
        }
    }
    format!("{{\"error\":\"{clean}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_and_json_rows_parse_identically() {
        let csv = parse_request("0.5, 1.25,-3.0").expect("parses");
        let json = parse_request("{\"features\": [0.5, 1.25, -3.0]}").expect("parses");
        assert_eq!(csv, Request::Predict(vec![0.5, 1.25, -3.0]));
        assert_eq!(csv, json);
    }

    #[test]
    fn written_rows_parse_back_to_the_same_bits() {
        let row = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::MAX,
            -f32::MAX,
            f32::NAN,
            -f32::NAN,
            0.1,
        ];
        let mut line = String::new();
        write_row(&mut line, &row);
        let Request::Predict(back) = parse_request(&line).expect("parses") else {
            panic!("{line} is not a feature row");
        };
        let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&row), "{line}");
        assert!(line.contains("-NaN"), "{line}");
    }

    #[test]
    fn votes_requests_parse_both_row_forms() {
        for line in [
            "votes:0.5, 1.25,-3.0",
            "VOTES: 0.5,1.25,-3.0",
            "/votes:{\"features\":[0.5,1.25,-3.0]}",
        ] {
            assert_eq!(
                parse_request(line).expect("parses"),
                Request::Votes(vec![0.5, 1.25, -3.0]),
                "{line}"
            );
        }
        assert!(parse_request("votes:zap").unwrap_err().0.contains("zap"));
        assert!(parse_request("votes:").unwrap_err().0.contains("feature"));
    }

    #[test]
    fn control_verbs_parse_case_insensitively() {
        assert_eq!(parse_request("health").expect("parses"), Request::Health);
        assert_eq!(parse_request("/HEALTH").expect("parses"), Request::Health);
        assert_eq!(parse_request("drain").expect("parses"), Request::Drain);
        assert_eq!(parse_request("Undrain").expect("parses"), Request::Undrain);
        assert_eq!(
            parse_request("/shardmap").expect("parses"),
            Request::ShardMap
        );
        assert_eq!(
            parse_request("SHARDMAP SET 127.0.0.1:1, 127.0.0.1:2").expect("parses"),
            Request::ShardMapSet(vec!["127.0.0.1:1".to_owned(), "127.0.0.1:2".to_owned()])
        );
        assert!(
            parse_request("shardmap set ,")
                .unwrap_err()
                .0
                .contains("address list"),
            "empty shard list must not parse"
        );
    }

    #[test]
    fn votes_response_round_trips_through_the_forest_parser() {
        let line = render_votes(&[3, 0, 2], "flint", 1);
        assert_eq!(line, "{\"votes\":[3,0,2],\"engine\":\"flint\",\"batch\":1}");
        let inner = line
            .split_once("\"votes\":")
            .and_then(|(_, rest)| rest.split_once(']'))
            .map(|(head, _)| format!("{head}]"))
            .expect("array fragment");
        assert_eq!(
            flint_forest::votes::parse_votes(&inner).expect("parses"),
            vec![3, 0, 2]
        );
    }

    #[test]
    fn line_machine_frames_raw_lines_for_the_router() {
        let mut machine = LineMachine::with_max_line(16);
        let mut lines: Vec<String> = Vec::new();
        let mut oversized = 0;
        let feed = |m: &mut LineMachine, bytes: &[u8], lines: &mut Vec<String>, over: &mut u32| {
            m.receive(bytes, |frame| match frame {
                FramedLine::Line(l) => lines.push(String::from_utf8_lossy(l).into_owned()),
                FramedLine::Oversized { .. } => *over += 1,
            });
        };
        feed(
            &mut machine,
            b"{\"votes\":[1]}\r\nab",
            &mut lines,
            &mut oversized,
        );
        feed(
            &mut machine,
            b"c\nthis line is far too long to fit\nok\n",
            &mut lines,
            &mut oversized,
        );
        assert_eq!(lines, vec!["{\"votes\":[1]}", "abc", "ok"]);
        assert_eq!(oversized, 1);
        assert_eq!(machine.finish(), None);
        machine.receive(b"tail", |_| {});
        assert_eq!(machine.finish().as_deref(), Some(b"tail".as_slice()));
    }

    #[test]
    fn commands_parse_case_insensitively() {
        for line in ["stats", "STATS", "/stats"] {
            assert_eq!(parse_request(line).expect("parses"), Request::Stats);
        }
        for line in ["shutdown", "Shutdown", "/shutdown"] {
            assert_eq!(parse_request(line).expect("parses"), Request::Shutdown);
        }
    }

    #[test]
    fn malformed_lines_error_with_guidance() {
        assert!(parse_request("  ").unwrap_err().0.contains("empty"));
        assert!(parse_request("1.0,zap").unwrap_err().0.contains("zap"));
        assert!(parse_request("{\"rows\":[1]}")
            .unwrap_err()
            .0
            .contains("features"));
        assert!(parse_request("{\"features\":1}")
            .unwrap_err()
            .0
            .contains("features"));
    }

    #[test]
    fn responses_are_single_json_lines() {
        let line = render_prediction(
            &Prediction {
                class: 2,
                batch_fill: 17,
            },
            "flint-blocked",
        );
        assert_eq!(
            line,
            "{\"class\":2,\"engine\":\"flint-blocked\",\"batch\":17}"
        );
        let err = render_error("bad \"row\"\nsecond line");
        assert!(!err.contains('\n'), "{err}");
        assert_eq!(err, "{\"error\":\"bad \\\"row\\\" second line\"}");
        // The {:?} formatting of a malformed field can introduce
        // backslashes; they must come back JSON-escaped, not raw.
        let err = render_error("cannot parse feature \"a\\\"b\"");
        assert_eq!(
            err,
            "{\"error\":\"cannot parse feature \\\"a\\\\\\\"b\\\"\"}"
        );
    }

    #[test]
    fn busy_response_is_machine_detectable() {
        let line = render_busy("max-inflight 4 reached");
        assert_eq!(
            line,
            "{\"error\":\"busy: max-inflight 4 reached\",\"busy\":true}"
        );
    }

    /// Feeds the whole stream in one chunk and collects the events.
    fn events_of(machine: &mut ProtocolMachine, stream: &[u8]) -> Vec<WireEvent> {
        let mut events = Vec::new();
        machine.receive(stream, |e| events.push(e));
        if let Some(last) = machine.finish() {
            events.push(last);
        }
        events
    }

    #[test]
    fn machine_frames_lf_and_crlf_identically() {
        let mut lf = ProtocolMachine::new();
        let mut crlf = ProtocolMachine::new();
        let a = events_of(&mut lf, b"1,2,3\nstats\nshutdown\n");
        let b = events_of(&mut crlf, b"1,2,3\r\nstats\r\nshutdown\r\n");
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![
                WireEvent::Request(Request::Predict(vec![1.0, 2.0, 3.0])),
                WireEvent::Request(Request::Stats),
                WireEvent::Request(Request::Shutdown),
            ]
        );
    }

    #[test]
    fn machine_flushes_final_unterminated_line() {
        let mut machine = ProtocolMachine::new();
        let mut events = Vec::new();
        machine.receive(b"sta", |e| events.push(e));
        machine.receive(b"ts", |e| events.push(e));
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(machine.buffered(), 5);
        assert_eq!(machine.finish(), Some(WireEvent::Request(Request::Stats)));
        assert_eq!(machine.finish(), None);
    }

    #[test]
    fn machine_rejects_oversized_lines_and_recovers() {
        let mut machine = ProtocolMachine::with_max_line(8);
        // One oversized line split across chunks, then a healthy one.
        let mut events = Vec::new();
        machine.receive(b"1,2,3,4,5,6", |e| events.push(e));
        machine.receive(b",7,8\nstats\n", |e| events.push(e));
        assert_eq!(
            events,
            vec![
                WireEvent::Oversized { limit: 8 },
                WireEvent::Request(Request::Stats),
            ]
        );
        // The same oversized line arriving terminator included in one
        // chunk gets the same verdict.
        let mut one_chunk = ProtocolMachine::with_max_line(8);
        let events = events_of(&mut one_chunk, b"1,2,3,4,5,6,7,8\nstats\n");
        assert_eq!(
            events,
            vec![
                WireEvent::Oversized { limit: 8 },
                WireEvent::Request(Request::Stats),
            ]
        );
    }

    #[test]
    fn machine_reports_malformed_lines_as_events() {
        let mut machine = ProtocolMachine::new();
        let events = events_of(&mut machine, b"\nnope\n");
        match &events[..] {
            [WireEvent::Invalid(empty), WireEvent::Invalid(bad)] => {
                assert!(empty.0.contains("empty"), "{empty}");
                assert!(bad.0.contains("nope"), "{bad}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
