//! The stdin front end and the control verbs every front end answers
//! through.
//!
//! [`serve_lines`] serves the line protocol over any reader/writer
//! pair — locked stdin/stdout for `flint serve --stdin`, in-memory
//! buffers in tests — on the calling thread, scoring through the event
//! loop's own chunk scorer: rows that arrive in one read are scored
//! together in chunks of at most `max_batch`, each chunk under
//! `catch_unwind`. `handle_event` renders every response that needs
//! no scoring, for this loop and for [`EpollServer`](crate::EpollServer)
//! alike, so the two front ends cannot diverge at the protocol layer.

use crate::event_loop::TickBatch;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::protocol::{render_error, ProtocolMachine, Request, WireEvent};
use flint_exec::Predictor;
use std::io::{BufRead, Write};
use std::time::Instant;

/// What a handled request asks the session to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Keep the session open.
    Continue,
    /// Stop the whole server.
    Shutdown,
}

/// One framing event as a front end must treat it.
#[derive(Debug)]
pub(crate) enum Handled {
    /// A predict request (`votes` false) or a `votes:` request: the
    /// front end scores `row` its own way.
    Score {
        /// The parsed feature row, arity not yet checked.
        row: Vec<f32>,
        /// Answer with the vote histogram instead of the class.
        votes: bool,
    },
    /// Answered without scoring: the response line, and what the
    /// server does next.
    Answered(String, Action),
}

/// Answers every framing event that needs no scoring — `stats`,
/// `health`, `shutdown`, the router-only verbs, malformed and
/// oversized lines — and hands scoring requests back. Every front end
/// renders control responses here, so their wire format cannot
/// diverge.
pub(crate) fn handle_event(event: WireEvent, metrics: &ServeMetrics) -> Handled {
    let answer = |line: String| Handled::Answered(line, Action::Continue);
    match event {
        WireEvent::Request(Request::Predict(row)) => Handled::Score { row, votes: false },
        WireEvent::Request(Request::Votes(row)) => Handled::Score { row, votes: true },
        WireEvent::Request(Request::Stats) => answer(metrics.snapshot().to_json()),
        WireEvent::Request(Request::Health) => {
            answer("{\"ok\":true,\"role\":\"server\"}".to_owned())
        }
        WireEvent::Request(
            Request::ShardMap | Request::ShardMapSet(_) | Request::Drain | Request::Undrain,
        ) => answer(render_error(
            "router control verb; this is a single-node server",
        )),
        WireEvent::Request(Request::Shutdown) => {
            Handled::Answered("{\"ok\":\"shutting down\"}".to_owned(), Action::Shutdown)
        }
        WireEvent::Invalid(e) => answer(render_error(&e.to_string())),
        WireEvent::Oversized { limit } => {
            answer(render_error(&format!("request line exceeds {limit} bytes")))
        }
    }
}

/// Serves the line protocol over an arbitrary reader/writer pair — in
/// production, locked stdin/stdout (`flint serve --stdin`); in tests,
/// in-memory buffers — until `shutdown` or end of input, and returns
/// the final metrics.
///
/// Each read's complete lines are handled in order: the rows among
/// them are scored together in chunks of at most `max_batch` (a chunk
/// whose engine panics answers its rows `error`), and every answer is
/// written in request order. Rows still pending are scored before a
/// control verb or the end of input is answered, so `stats` counts
/// every row sent before it.
///
/// # Errors
///
/// Any [`std::io::Error`] from reading requests or writing responses.
pub fn serve_lines<R: BufRead, W: Write>(
    engine: &dyn Predictor,
    max_batch: usize,
    mut input: R,
    mut out: W,
) -> std::io::Result<MetricsSnapshot> {
    let metrics = ServeMetrics::default();
    let mut tick = TickBatch::new(engine, max_batch);
    let mut machine = ProtocolMachine::new();
    let mut events: Vec<WireEvent> = Vec::new();
    // One read's answers in request order; a scoring row's slot stays
    // `None` until its chunk is scored.
    let mut answers: Vec<Option<String>> = Vec::new();
    loop {
        let consumed = {
            let chunk = input.fill_buf()?;
            machine.receive(chunk, |event| events.push(event));
            chunk.len()
        };
        if consumed == 0 {
            // End of input: a final unterminated line still answers.
            events.extend(machine.finish());
        } else {
            input.consume(consumed);
        }
        let parsed = Instant::now();
        let mut stop = consumed == 0;
        for event in events.drain(..) {
            match handle_event(event, &metrics) {
                Handled::Score { row, votes } => {
                    if let Some(error) = tick.reject(&row, &metrics) {
                        answers.push(Some(error));
                    } else {
                        metrics.record_request();
                        tick.push(0, answers.len() as u64, &row, votes, parsed);
                        answers.push(None);
                    }
                }
                Handled::Answered(line, action) => {
                    score_and_write(&mut tick, &mut answers, &metrics, &mut out)?;
                    answers.push(Some(line));
                    if action == Action::Shutdown {
                        stop = true;
                        break;
                    }
                }
            }
        }
        score_and_write(&mut tick, &mut answers, &metrics, &mut out)?;
        out.flush()?;
        if stop {
            return Ok(metrics.snapshot());
        }
    }
}

/// Scores every pending row into its answer slot, then writes and
/// clears the answers, in request order.
fn score_and_write(
    tick: &mut TickBatch<'_>,
    answers: &mut Vec<Option<String>>,
    metrics: &ServeMetrics,
    out: &mut impl Write,
) -> std::io::Result<()> {
    tick.score(metrics, |_, seq, line| answers[seq as usize] = Some(line));
    for line in answers.drain(..) {
        out.write_all(line.expect("every slot answered").as_bytes())?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_data::synth::SynthSpec;
    use flint_exec::{EngineBuilder, EngineKind};
    use flint_forest::{ForestConfig, RandomForest};

    #[test]
    fn serve_lines_round_trips_the_protocol() {
        let data = SynthSpec::new(90, 4, 3).seed(5).generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 6)).expect("trainable");
        let engine = EngineBuilder::new(&forest)
            .build(EngineKind::parse("flint-blocked").expect("registered"))
            .expect("builds");
        let mut input = String::new();
        for i in 0..8 {
            let row: Vec<String> = data.sample(i).iter().map(f32::to_string).collect();
            input.push_str(&row.join(","));
            input.push('\n');
        }
        input.push_str("1.0,2.0\n"); // wrong arity: answered, not fatal
        input.push_str("not,a,row,either\n");
        input.push_str("stats\n");
        input.push_str("shutdown\n");
        input.push_str("0,0,0,0\n"); // after shutdown: never read

        let mut out = Vec::new();
        let stats = serve_lines(&*engine, 64, input.as_bytes(), &mut out).expect("serves");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 12, "{text}");
        for (i, line) in lines[..8].iter().enumerate() {
            let expected = forest.predict_majority(data.sample(i));
            assert!(
                line.starts_with(&format!("{{\"class\":{expected},")),
                "line {i}: {line}"
            );
            assert!(line.contains("\"engine\":\"flint-blocked\""), "{line}");
        }
        assert!(lines[8].contains("expected 4 features, got 2"), "{text}");
        assert!(lines[9].contains("error"), "{text}");
        assert!(lines[10].contains("\"requests\":8"), "{text}");
        assert!(lines[11].contains("shutting down"), "{text}");
        assert_eq!(stats.requests, 8);
        assert_eq!(stats.rejected, 1);
    }
}
