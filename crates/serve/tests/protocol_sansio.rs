//! Property suite for the sans-io [`ProtocolMachine`]: transport chunk
//! boundaries are **invisible**. Any way of splitting the same byte
//! stream — including empty chunks and byte-at-a-time delivery — must
//! produce the identical [`WireEvent`] sequence, the identical
//! end-of-input flush, and the same oversized-line verdicts. This is
//! the property that lets the epoll front end feed raw nonblocking
//! reads through the very same machine the buffered stdin path uses,
//! with no behavioural drift between them.

use flint_serve::{ProtocolMachine, Request, WireEvent, MAX_LINE_BYTES};
use proptest::collection::vec;
use proptest::prelude::*;

/// Bytes weighted toward protocol structure: newlines arrive often
/// enough that streams contain many complete lines, and digits, commas
/// and `\r` make some of those lines parse as real requests.
fn wire_byte() -> impl Strategy<Value = u8> {
    any::<u8>().prop_map(|b| match b % 16 {
        0 | 1 => b'\n',
        2 => b'\r',
        3 => b',',
        4 => b'.',
        5 => b'-',
        6 => b' ',
        7 => b's', // seeds of `stats` / `shutdown`
        8..=13 => b'0' + (b / 16) % 10,
        _ => b,
    })
}

/// Runs one byte stream through a fresh machine as a given chunk
/// sequence, returning every emitted event plus the `finish` flush.
fn events(stream: &[u8], chunks: &[&[u8]], max_line: usize) -> Vec<WireEvent> {
    let rejoined: Vec<u8> = chunks.concat();
    assert_eq!(rejoined, stream, "chunking must partition the stream");
    let mut machine = ProtocolMachine::with_max_line(max_line);
    let mut out = Vec::new();
    for chunk in chunks {
        machine.receive(chunk, |event| out.push(event));
        assert!(
            machine.buffered() <= max_line,
            "buffered {} exceeds the {max_line}-byte line cap",
            machine.buffered()
        );
    }
    out.extend(machine.finish());
    out
}

/// Splits `stream` into chunks at pseudo-random positions drawn from
/// `cuts` (lengths are taken modulo what remains, so every cut list is
/// a valid partition; zero-length chunks are kept deliberately).
fn split_by<'a>(stream: &'a [u8], cuts: &[u8]) -> Vec<&'a [u8]> {
    let mut chunks = Vec::with_capacity(cuts.len() + 1);
    let mut rest = stream;
    for &cut in cuts {
        let len = (cut as usize) % (rest.len() + 1);
        let (head, tail) = rest.split_at(len);
        chunks.push(head);
        rest = tail;
    }
    chunks.push(rest);
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The headline property: one-shot delivery and arbitrary
    /// chunking yield the same event stream under the standard cap.
    #[test]
    fn chunking_never_changes_the_event_stream(
        stream in vec(wire_byte(), 0..256),
        cuts in vec(any::<u8>(), 0..24),
    ) {
        let whole = events(&stream, &[&stream], MAX_LINE_BYTES);
        let chunked = events(&stream, &split_by(&stream, &cuts), MAX_LINE_BYTES);
        prop_assert_eq!(whole, chunked);
    }

    /// The same invariance with a tiny line cap, so the oversized
    /// discard path is exercised constantly: whether a line blows the
    /// cap inside one chunk or across several, the verdict (and the
    /// number of `Oversized` events) is identical.
    #[test]
    fn chunking_never_changes_the_oversized_verdict(
        stream in vec(wire_byte(), 0..256),
        cuts in vec(any::<u8>(), 0..24),
        max_line in 1usize..40,
    ) {
        let whole = events(&stream, &[&stream], max_line);
        let chunked = events(&stream, &split_by(&stream, &cuts), max_line);
        prop_assert_eq!(whole, chunked);
    }

    /// Byte-at-a-time delivery — the most hostile chunking a client
    /// can produce — still matches one-shot delivery.
    #[test]
    fn byte_at_a_time_equals_one_shot(stream in vec(wire_byte(), 0..160)) {
        let singles: Vec<&[u8]> = stream.chunks(1).collect();
        prop_assert_eq!(
            events(&stream, &[&stream], MAX_LINE_BYTES),
            events(&stream, &singles, MAX_LINE_BYTES)
        );
    }

    /// Well-formed pipelined CSV rows survive arbitrary chunking as
    /// exactly one `Request::Predict` per row, features intact — the
    /// end-to-end guarantee the serving differential suite relies on.
    #[test]
    fn pipelined_rows_parse_chunk_independently(
        rows in vec(vec(-1000i32..1000, 4), 0..12),
        cuts in vec(any::<u8>(), 0..24),
    ) {
        let rows: Vec<Vec<f32>> = rows
            .into_iter()
            .map(|row| row.into_iter().map(|v| v as f32 / 8.0).collect())
            .collect();
        let stream: Vec<u8> = rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(f32::to_string).collect();
                cells.join(",") + "\n"
            })
            .collect::<String>()
            .into_bytes();
        let got = events(&stream, &split_by(&stream, &cuts), MAX_LINE_BYTES);
        prop_assert_eq!(got.len(), rows.len());
        for (event, row) in got.iter().zip(&rows) {
            prop_assert_eq!(event, &WireEvent::Request(Request::Predict(row.clone())));
        }
    }
}

/// Non-property anchor: a CRLF admin command split mid-`\r\n` still
/// parses once, and a lone trailing fragment only surfaces via
/// `finish`, exactly like `BufRead::lines` at end of file.
#[test]
fn crlf_and_trailing_fragments_behave_like_buffered_lines() {
    let stream = b"stats\r\nshutdown";
    let whole = events(stream, &[&stream[..]], MAX_LINE_BYTES);
    let split = events(stream, &[b"stats\r", b"\nshut", b"down"], MAX_LINE_BYTES);
    assert_eq!(whole, split);
    assert_eq!(
        whole,
        vec![
            WireEvent::Request(Request::Stats),
            WireEvent::Request(Request::Shutdown),
        ]
    );
}
