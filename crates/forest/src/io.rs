//! Plain-text model persistence.
//!
//! No serde *format* crate is in the sanctioned dependency set, so
//! models are stored in a small line-oriented text format. Thresholds
//! are written as the hexadecimal `f32` bit pattern, which both
//! round-trips exactly and matches how the paper's code generator
//! embeds split values as integer immediates.
//!
//! ```text
//! flint-forest v1
//! forest n_features=2 n_classes=3 n_trees=1
//! tree n_nodes=3
//! split feature=0 bits=3f000000 left=1 right=2
//! leaf class=0 counts=8,2,0
//! leaf class=2 counts=0,0,10
//! end
//! ```
//!
//! What [`read_forest`] accepts, beyond what [`write_forest`] writes:
//! - lines end in LF or CRLF, and blank lines are skipped (the line
//!   numbers of errors count them);
//! - fields are split on Unicode whitespace (`char::is_whitespace`);
//!   the header and `end` lines, trimmed, must read exactly
//!   `flint-forest v1` and `end`;
//! - after its tag, a line's fields are `key=value`, split at the
//!   first `=`; keys go by name in any order, the first occurrence of a
//!   key wins, and unknown keys are ignored;
//! - values parse with the standard library's parsers (`bits` as hex),
//!   and one out of its type's range is an error, never truncated;
//! - nothing after `end` is read.

use crate::node::{Node, NodeId};
use crate::tree::DecisionTree;
use crate::RandomForest;
use std::io::{BufRead, BufWriter, Write};

/// Error reading a model file.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReadModelError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or syntactic problem at a line.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// The reconstructed tree failed validation.
    InvalidTree(crate::tree::ValidateTreeError),
}

impl core::fmt::Display for ReadModelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error reading model: {e}"),
            Self::Syntax { line, message } => write!(f, "line {line}: {message}"),
            Self::InvalidTree(e) => write!(f, "model decodes to an invalid tree: {e}"),
        }
    }
}

impl std::error::Error for ReadModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::InvalidTree(e) => Some(e),
            Self::Syntax { .. } => None,
        }
    }
}

impl From<std::io::Error> for ReadModelError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Writes a forest in the v1 text format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use flint_forest::{io, ForestConfig, RandomForest};
/// use flint_data::synth::SynthSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = SynthSpec::new(80, 3, 2).generate();
/// let forest = RandomForest::fit(&data, &ForestConfig::grid(2, 4))?;
/// let mut buf = Vec::new();
/// io::write_forest(&forest, &mut buf)?;
/// let back = io::read_forest(&buf[..])?;
/// assert_eq!(back, forest);
/// # Ok(())
/// # }
/// ```
pub fn write_forest<W: Write>(forest: &RandomForest, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "flint-forest v1")?;
    writeln!(
        w,
        "forest n_features={} n_classes={} n_trees={}",
        forest.n_features(),
        forest.n_classes(),
        forest.n_trees()
    )?;
    for tree in forest.trees() {
        writeln!(w, "tree n_nodes={}", tree.n_nodes())?;
        for node in tree.nodes() {
            match node {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => writeln!(
                    w,
                    "split feature={feature} bits={:08x} left={} right={}",
                    threshold.to_bits(),
                    left.0,
                    right.0
                )?,
                Node::Leaf { class, counts } => {
                    let counts_text: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
                    writeln!(w, "leaf class={class} counts={}", counts_text.join(","))?
                }
            }
        }
    }
    writeln!(w, "end")?;
    w.flush()
}

/// The most elements [`read_forest`] reserves from a count the file
/// declares; longer lists grow as their lines arrive.
const RESERVE_LIMIT: usize = 1 << 16;

/// The error of a node line that is neither a `split` nor a `leaf`.
const NOT_A_NODE: &str = "expected `split ...` or `leaf ...`";

/// Reads a forest written by [`write_forest`], in one streaming pass:
/// one line at a time, through one reused buffer.
///
/// # Errors
///
/// [`ReadModelError`] on I/O failure (invalid UTF-8 included, as
/// `InvalidData`), malformed syntax, or trees that fail structural
/// validation.
pub fn read_forest<R: BufRead>(reader: R) -> Result<RandomForest, ReadModelError> {
    let syntax = |line: usize, message: &str| ReadModelError::Syntax {
        line,
        message: message.to_owned(),
    };
    let mut lines = Lines {
        reader,
        text: String::new(),
        number: 0,
    };

    let (ln, header) = lines.next()?;
    if header.trim() != "flint-forest v1" {
        return Err(syntax(ln, "expected header `flint-forest v1`"));
    }
    let (ln, line) = lines.next()?;
    let [n_features, n_classes, n_trees] =
        tagged(line, "forest", ["n_features", "n_classes", "n_trees"]).ok_or_else(|| {
            syntax(
                ln,
                "expected `forest n_features=.. n_classes=.. n_trees=..`",
            )
        })?;
    let n_features = parse::<usize>(n_features).ok_or_else(|| syntax(ln, "n_features"))?;
    let n_classes = parse::<usize>(n_classes).ok_or_else(|| syntax(ln, "n_classes"))?;
    let n_trees = parse::<usize>(n_trees).ok_or_else(|| syntax(ln, "n_trees"))?;

    // Declared counts come from the file: reserve at most
    // `RESERVE_LIMIT` elements from one, so a lying header runs out of
    // lines instead of memory.
    let mut trees = Vec::with_capacity(n_trees.min(RESERVE_LIMIT));
    for _ in 0..n_trees {
        let (ln, line) = lines.next()?;
        let [n_nodes] = tagged(line, "tree", ["n_nodes"])
            .ok_or_else(|| syntax(ln, "expected `tree n_nodes=..`"))?;
        let n_nodes = parse::<usize>(n_nodes).ok_or_else(|| syntax(ln, "n_nodes"))?;
        let mut nodes = Vec::with_capacity(n_nodes.min(RESERVE_LIMIT));
        for _ in 0..n_nodes {
            let (ln, line) = lines.next()?;
            let mut fields = Fields::of(line);
            let node = match fields.next() {
                Some(("split", None)) => {
                    let [feature, bits, left, right] =
                        values(fields, ["feature", "bits", "left", "right"])
                            .ok_or_else(|| syntax(ln, NOT_A_NODE))?;
                    let feature = parse::<u32>(feature).ok_or_else(|| syntax(ln, "feature"))?;
                    let bits = bits
                        .and_then(|v| u32::from_str_radix(v, 16).ok())
                        .ok_or_else(|| syntax(ln, "bits"))?;
                    let left = parse::<u32>(left).ok_or_else(|| syntax(ln, "left"))?;
                    let right = parse::<u32>(right).ok_or_else(|| syntax(ln, "right"))?;
                    Node::Split {
                        feature,
                        threshold: f32::from_bits(bits),
                        left: NodeId(left),
                        right: NodeId(right),
                    }
                }
                Some(("leaf", None)) => {
                    let [class, counts] = values(fields, ["class", "counts"])
                        .ok_or_else(|| syntax(ln, NOT_A_NODE))?;
                    let class = parse::<u32>(class).ok_or_else(|| syntax(ln, "class"))?;
                    let counts: Option<Vec<u32>> = counts
                        .ok_or_else(|| syntax(ln, "counts"))?
                        .split(',')
                        .map(|c| c.parse().ok())
                        .collect();
                    let counts = counts.ok_or_else(|| syntax(ln, "counts must be integers"))?;
                    Node::Leaf { class, counts }
                }
                _ => return Err(syntax(ln, NOT_A_NODE)),
            };
            nodes.push(node);
        }
        trees.push(
            DecisionTree::new(nodes, n_features, n_classes).map_err(ReadModelError::InvalidTree)?,
        );
    }
    let (ln, end) = lines.next()?;
    if end.trim() != "end" {
        return Err(syntax(ln, "expected trailing `end`"));
    }
    if trees.is_empty() {
        return Err(syntax(ln, "a forest needs at least one tree"));
    }
    Ok(RandomForest::from_trees(trees))
}

/// The lines of a model file, read one at a time into one buffer.
struct Lines<R> {
    reader: R,
    /// The current line, its line end included.
    text: String,
    /// Lines read so far, blank ones included.
    number: usize,
}

impl<R: BufRead> Lines<R> {
    /// The next line that is not blank, and its 1-based number. The
    /// line's UTF-8 is checked once, as it is read.
    fn next(&mut self) -> Result<(usize, &str), ReadModelError> {
        loop {
            self.text.clear();
            if self.reader.read_line(&mut self.text)? == 0 {
                return Err(ReadModelError::Syntax {
                    line: 0,
                    message: "unexpected end of file".into(),
                });
            }
            self.number += 1;
            if !self.text.trim_start().is_empty() {
                return Ok((self.number, &self.text));
            }
        }
    }
}

/// The whitespace-separated fields of a line, split where
/// [`str::split_whitespace`] splits it, each split at its first `=`:
/// key and value, or the whole field and `None`. An ASCII line is
/// scanned by bytes, one scan finding a field's `=` and its end; only
/// a line holding other characters is decoded.
enum Fields<'a> {
    Ascii { line: &'a str, at: usize },
    Unicode(core::str::SplitWhitespace<'a>),
}

impl<'a> Fields<'a> {
    fn of(line: &'a str) -> Self {
        if line.is_ascii() {
            Self::Ascii { line, at: 0 }
        } else {
            Self::Unicode(line.split_whitespace())
        }
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = (&'a str, Option<&'a str>);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Self::Unicode(split) => split.next().map(|field| match field.split_once('=') {
                Some((key, value)) => (key, Some(value)),
                None => (field, None),
            }),
            Self::Ascii { line, at } => {
                let start = scan(line, *at, is_space);
                if start == line.len() {
                    return None;
                }
                let eq = scan(line, start, |b| b != b'=' && !is_space(b));
                *at = scan(line, eq, |b| !is_space(b));
                Some((&line[start..eq], (eq < *at).then(|| &line[eq + 1..*at])))
            }
        }
    }
}

/// The ASCII characters `char::is_whitespace` accepts: `\x0B` too,
/// which `u8::is_ascii_whitespace` leaves out.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r')
}

/// The first index from `at` on whose byte fails `pass`, or the
/// line's length.
fn scan(line: &str, mut at: usize, pass: impl Fn(u8) -> bool) -> usize {
    let bytes = line.as_bytes();
    while at < bytes.len() && pass(bytes[at]) {
        at += 1;
    }
    at
}

/// The values of `keys` among a line's `key=value` fields, each from
/// the key's first occurrence (`None` if absent), found in one sweep;
/// other keys are ignored. `None` if a field lacks `=`.
fn values<'a, const N: usize>(fields: Fields<'a>, keys: [&str; N]) -> Option<[Option<&'a str>; N]> {
    let mut values = [None; N];
    for (key, value) in fields {
        let value = value?;
        if let Some(i) = keys.iter().position(|k| *k == key) {
            values[i].get_or_insert(value);
        }
    }
    Some(values)
}

/// [`values`] of a `tag key=value ...` line; `None` if its first field
/// is not `tag`.
fn tagged<'a, const N: usize>(
    line: &'a str,
    tag: &str,
    keys: [&str; N],
) -> Option<[Option<&'a str>; N]> {
    let mut fields = Fields::of(line);
    if fields.next()? != (tag, None) {
        return None;
    }
    values(fields, keys)
}

/// A field's value parsed as `T`: `None` if missing, malformed or out
/// of `T`'s range, so a `u32` node field is never truncated into a
/// different valid model.
fn parse<T: core::str::FromStr>(value: Option<&str>) -> Option<T> {
    value.and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestConfig;
    use flint_data::synth::SynthSpec;

    fn forest() -> RandomForest {
        let data = SynthSpec::new(120, 4, 3).seed(1).generate();
        RandomForest::fit(&data, &ForestConfig::grid(3, 6)).expect("trainable")
    }

    #[test]
    fn round_trip_exact() {
        let f = forest();
        let mut buf = Vec::new();
        write_forest(&f, &mut buf).expect("write");
        let back = read_forest(&buf[..]).expect("read");
        assert_eq!(back, f);
    }

    #[test]
    fn negative_and_special_thresholds_round_trip() {
        // Hand-built tree with a negative and a subnormal threshold.
        let tree = DecisionTree::new(
            vec![
                Node::Split {
                    feature: 0,
                    threshold: -2.935417,
                    left: NodeId(1),
                    right: NodeId(2),
                },
                Node::Split {
                    feature: 0,
                    threshold: f32::from_bits(1),
                    left: NodeId(3),
                    right: NodeId(4),
                },
                Node::Leaf {
                    class: 1,
                    counts: vec![0, 5],
                },
                Node::Leaf {
                    class: 0,
                    counts: vec![5, 0],
                },
                Node::Leaf {
                    class: 1,
                    counts: vec![1, 2],
                },
            ],
            1,
            2,
        )
        .expect("valid");
        let f = RandomForest::from_trees(vec![tree]);
        let mut buf = Vec::new();
        write_forest(&f, &mut buf).expect("write");
        let back = read_forest(&buf[..]).expect("read");
        assert_eq!(back, f);
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_forest("not a model\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadModelError::Syntax { line: 1, .. }));
    }

    #[test]
    fn rejects_truncated_file() {
        let f = forest();
        let mut buf = Vec::new();
        write_forest(&f, &mut buf).expect("write");
        let cut = buf.len() / 2;
        let err = read_forest(&buf[..cut]).unwrap_err();
        assert!(matches!(err, ReadModelError::Syntax { .. }));
    }

    #[test]
    fn rejects_garbage_node_line() {
        let text = "flint-forest v1\nforest n_features=1 n_classes=2 n_trees=1\ntree n_nodes=1\nbogus stuff\nend\n";
        let err = read_forest(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ReadModelError::Syntax { line: 4, .. }));
    }

    #[test]
    fn rejects_structurally_invalid_tree() {
        // Dangling child pointer.
        let text = "flint-forest v1\nforest n_features=1 n_classes=2 n_trees=1\ntree n_nodes=1\nsplit feature=0 bits=3f800000 left=5 right=6\nend\n";
        let err = read_forest(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ReadModelError::InvalidTree(_)));
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let text = "flint-forest v1\nforest n_features=1 n_classes=2 n_trees=1\ntree n_nodes=1\nleaf class=0 counts=a,b\nend\n";
        let err = read_forest(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
    }

    /// The byte scan splits an ASCII line where `str::split_whitespace`
    /// would.
    #[test]
    fn ascii_spaces_are_the_ascii_whitespace_chars() {
        for b in 0..=127u8 {
            assert_eq!(is_space(b), char::from(b).is_whitespace(), "{b:#04x}");
        }
    }

    /// A one-tree model whose split line and forest header are given.
    fn model(header: &str, split: &str) -> String {
        format!(
            "flint-forest v1\n{header}\ntree n_nodes=3\n{split}\n\
             leaf class=0 counts=1,0\nleaf class=1 counts=0,1\nend\n"
        )
    }

    const HEADER: &str = "forest n_features=1 n_classes=2 n_trees=1";
    const SPLIT: &str = "split feature=0 bits=3f800000 left=1 right=2";

    /// Values past `u32` are rejected naming their field, never
    /// truncated into a different valid model; declared counts past
    /// the file's content run out of lines, never reserve memory.
    #[test]
    fn rejects_out_of_range_fields_and_absurd_counts() {
        read_forest(model(HEADER, SPLIT).as_bytes()).expect("the base model is valid");
        let leaf = "leaf class=4294967297 counts=1,0";
        let cases = [
            (
                model(HEADER, &SPLIT.replace("feature=0", "feature=4294967296")),
                "feature",
            ),
            (
                model(HEADER, &SPLIT.replace("left=1", "left=4294967297")),
                "left",
            ),
            (
                model(HEADER, SPLIT).replace("leaf class=0 counts=1,0", leaf),
                "class",
            ),
            (
                model(
                    &HEADER.replace("n_trees=1", "n_trees=4611686018427387904"),
                    SPLIT,
                ),
                "expected `tree",
            ),
            (
                model(&HEADER.replace("n_trees=1", "n_trees=100000000000"), SPLIT),
                "expected `tree",
            ),
            (
                model(HEADER, SPLIT).replace("n_nodes=3", "n_nodes=100000000000"),
                "expected `split",
            ),
        ];
        for (text, field) in cases {
            match read_forest(text.as_bytes()) {
                Err(ReadModelError::Syntax { message, .. }) => {
                    assert!(message.contains(field), "{message:?} for {text:?}")
                }
                other => panic!("{other:?} for {text:?}"),
            }
        }
    }

    #[test]
    fn rejects_unreachable_nodes() {
        // Node 3 hangs off nothing, and its children dangle.
        let text = model(HEADER, SPLIT)
            .replace("tree n_nodes=3", "tree n_nodes=4")
            .replace("end\n", "split feature=0 bits=0 left=9 right=9\nend\n");
        let err = read_forest(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ReadModelError::InvalidTree(_)), "{err}");
    }

    /// One edit to a valid v1 file: `kind` picks the edit, `at` the
    /// line or byte it lands on, `value` what it writes. An empty text
    /// (say, a truncation to 0 bytes) has nothing to edit and comes back
    /// unchanged.
    fn mutate(text: &str, kind: u32, at: u32, value: u64) -> String {
        if text.is_empty() {
            return String::new();
        }
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let line = at as usize % lines.len();
        let numbers = [
            value.to_string(),
            (value % 8).to_string(),
            u32::MAX.to_string(),
            (u64::from(u32::MAX) + 1 + value % 4).to_string(),
            u64::MAX.to_string(),
            "-1".to_owned(),
            String::new(),
            format!("{value:x}"),
        ];
        match kind % 6 {
            // Replace one `key=value` field's value.
            0 => {
                let mut parts: Vec<String> = lines[line].split(' ').map(str::to_owned).collect();
                let field = value as usize % parts.len();
                if let Some((key, _)) = parts[field].clone().split_once('=') {
                    parts[field] = format!("{key}={}", numbers[(value >> 8) as usize % 8]);
                }
                lines[line] = parts.join(" ");
            }
            1 => {
                lines.remove(line);
            }
            2 => {
                let copy = lines[line].clone();
                lines.insert(line, copy);
            }
            3 => {
                let other = value as usize % lines.len();
                lines.swap(line, other);
            }
            // Truncate anywhere, mid-line included.
            4 => return text[..at as usize % (text.len() + 1)].to_owned(),
            _ => {
                let mut bytes = text.as_bytes().to_vec();
                let i = at as usize % bytes.len();
                bytes[i] = b" =,0123456789abcdefxyz\n-"[value as usize % 24];
                return String::from_utf8(bytes).expect("ascii");
            }
        }
        lines.join("\n") + "\n"
    }

    #[test]
    fn mutate_leaves_an_empty_text_empty() {
        for kind in 0..6 {
            for at in [0, 1, 7] {
                assert_eq!(mutate("", kind, at, 5), "", "kind {kind} at {at}");
            }
        }
    }

    /// The reader this module had before the one-pass reader: a
    /// `String` per line from `BufRead::lines`, a `Vec` of fields per
    /// line and a key scan per value. The differential property holds
    /// [`read_forest`] to its forests and its errors.
    mod reference {
        use super::super::{ReadModelError, RESERVE_LIMIT};
        use crate::node::{Node, NodeId};
        use crate::tree::DecisionTree;
        use crate::RandomForest;
        use std::io::BufRead;

        pub fn read_forest<R: BufRead>(reader: R) -> Result<RandomForest, ReadModelError> {
            let mut lines = reader.lines().enumerate();
            let mut next_line = || -> Result<(usize, String), ReadModelError> {
                loop {
                    match lines.next() {
                        None => {
                            return Err(ReadModelError::Syntax {
                                line: 0,
                                message: "unexpected end of file".into(),
                            })
                        }
                        Some((i, line)) => {
                            let line = line?;
                            if !line.trim().is_empty() {
                                return Ok((i + 1, line));
                            }
                        }
                    }
                }
            };
            let syntax = |line: usize, message: &str| ReadModelError::Syntax {
                line,
                message: message.to_owned(),
            };

            let (ln, header) = next_line()?;
            if header.trim() != "flint-forest v1" {
                return Err(syntax(ln, "expected header `flint-forest v1`"));
            }
            let (ln, forest_line) = next_line()?;
            let fields = parse_fields(&forest_line, "forest").ok_or_else(|| {
                syntax(
                    ln,
                    "expected `forest n_features=.. n_classes=.. n_trees=..`",
                )
            })?;
            let n_features =
                get::<usize>(&fields, "n_features").ok_or_else(|| syntax(ln, "n_features"))?;
            let n_classes =
                get::<usize>(&fields, "n_classes").ok_or_else(|| syntax(ln, "n_classes"))?;
            let n_trees = get::<usize>(&fields, "n_trees").ok_or_else(|| syntax(ln, "n_trees"))?;

            let mut trees = Vec::with_capacity(n_trees.min(RESERVE_LIMIT));
            for _ in 0..n_trees {
                let (ln, tree_line) = next_line()?;
                let fields = parse_fields(&tree_line, "tree")
                    .ok_or_else(|| syntax(ln, "expected `tree n_nodes=..`"))?;
                let n_nodes =
                    get::<usize>(&fields, "n_nodes").ok_or_else(|| syntax(ln, "n_nodes"))?;
                let mut nodes = Vec::with_capacity(n_nodes.min(RESERVE_LIMIT));
                for _ in 0..n_nodes {
                    let (ln, node_line) = next_line()?;
                    let trimmed = node_line.trim();
                    if let Some(fields) = parse_fields(trimmed, "split") {
                        let feature =
                            get::<u32>(&fields, "feature").ok_or_else(|| syntax(ln, "feature"))?;
                        let bits = fields
                            .iter()
                            .find(|(k, _)| *k == "bits")
                            .and_then(|(_, v)| u32::from_str_radix(v, 16).ok())
                            .ok_or_else(|| syntax(ln, "bits"))?;
                        let left = get::<u32>(&fields, "left").ok_or_else(|| syntax(ln, "left"))?;
                        let right =
                            get::<u32>(&fields, "right").ok_or_else(|| syntax(ln, "right"))?;
                        nodes.push(Node::Split {
                            feature,
                            threshold: f32::from_bits(bits),
                            left: NodeId(left),
                            right: NodeId(right),
                        });
                    } else if let Some(fields) = parse_fields(trimmed, "leaf") {
                        let class =
                            get::<u32>(&fields, "class").ok_or_else(|| syntax(ln, "class"))?;
                        let counts_text = fields
                            .iter()
                            .find(|(k, _)| *k == "counts")
                            .map(|(_, v)| *v)
                            .ok_or_else(|| syntax(ln, "counts"))?;
                        let counts: Option<Vec<u32>> =
                            counts_text.split(',').map(|c| c.parse().ok()).collect();
                        let counts = counts.ok_or_else(|| syntax(ln, "counts must be integers"))?;
                        nodes.push(Node::Leaf { class, counts });
                    } else {
                        return Err(syntax(ln, "expected `split ...` or `leaf ...`"));
                    }
                }
                trees.push(
                    DecisionTree::new(nodes, n_features, n_classes)
                        .map_err(ReadModelError::InvalidTree)?,
                );
            }
            let (ln, end) = next_line()?;
            if end.trim() != "end" {
                return Err(syntax(ln, "expected trailing `end`"));
            }
            if trees.is_empty() {
                return Err(syntax(ln, "a forest needs at least one tree"));
            }
            Ok(RandomForest::from_trees(trees))
        }

        fn parse_fields<'a>(line: &'a str, tag: &str) -> Option<Vec<(&'a str, &'a str)>> {
            let mut parts = line.split_whitespace();
            if parts.next()? != tag {
                return None;
            }
            let mut fields = Vec::new();
            for part in parts {
                let (k, v) = part.split_once('=')?;
                fields.push((k, v));
            }
            Some(fields)
        }

        fn get<T: core::str::FromStr>(fields: &[(&str, &str)], key: &str) -> Option<T> {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| v.parse().ok())
        }
    }

    /// A valid forest of random shape drawn from `seed`: any non-NaN
    /// threshold bits, any counts.
    fn random_forest(seed: u64) -> RandomForest {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Appends a subtree of at most `depth` splits; returns its root.
        fn grow(nodes: &mut Vec<Node>, rng: &mut StdRng, depth: u32, nf: u32, nc: u32) -> u32 {
            let id = nodes.len() as u32;
            if depth == 0 || rng.gen_range(0u32..3) == 0 {
                let class = rng.gen_range(0..nc);
                let counts = (0..nc).map(|_| rng.gen::<u32>() >> rng.gen_range(0u32..32));
                nodes.push(Node::Leaf {
                    class,
                    counts: counts.collect(),
                });
                return id;
            }
            nodes.push(Node::Leaf {
                class: 0,
                counts: Vec::new(),
            });
            let left = grow(nodes, rng, depth - 1, nf, nc);
            let right = grow(nodes, rng, depth - 1, nf, nc);
            let bits = rng.gen::<u32>();
            let threshold = match f32::from_bits(bits) {
                nan if nan.is_nan() => f32::from_bits(bits ^ 0x7f80_0000),
                value => value,
            };
            nodes[id as usize] = Node::Split {
                feature: rng.gen_range(0..nf),
                threshold,
                left: NodeId(left),
                right: NodeId(right),
            };
            id
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let (nf, nc) = (rng.gen_range(1u32..40), rng.gen_range(1u32..6));
        let trees = (0..rng.gen_range(1..5))
            .map(|_| {
                let mut nodes = Vec::new();
                let depth = rng.gen_range(0u32..7);
                grow(&mut nodes, &mut rng, depth, nf, nc);
                DecisionTree::new(nodes, nf as usize, nc as usize).expect("valid by construction")
            })
            .collect();
        RandomForest::from_trees(trees)
    }

    /// One edit that `mutate` does not make, on bytes: another
    /// separator or line end, Unicode whitespace, a stray `0xFF` byte,
    /// or a `key=value` field moved, dropped or duplicated with another
    /// value.
    fn mutate_bytes(text: &[u8], kind: u32, at: u32, value: u64) -> Vec<u8> {
        let spaces = [
            "\r", "\t", "\x0B", "\x0C", "  ", "\u{A0}", "\u{3000}", "\u{85}",
        ];
        let space = spaces[value as usize % spaces.len()].as_bytes();
        let mut lines: Vec<Vec<u8>> = text.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        let line = at as usize % lines.len();
        let mut fields: Vec<Vec<u8>> = lines[line]
            .split(|&b| b == b' ')
            .map(<[u8]>::to_vec)
            .collect();
        // A field after the tag, and a place after the tag.
        let field = 1 + value as usize % fields.len().max(2).saturating_sub(1);
        let place = 1 + (value >> 8) as usize % fields.len().max(2).saturating_sub(1);
        match kind % 7 {
            // Another separator between two fields.
            0 => lines[line] = fields.join(space),
            // Whitespace before or after a line, or a line of it alone.
            1 => match (value >> 8) % 3 {
                0 => lines[line]
                    .splice(0..0, space.iter().copied())
                    .for_each(drop),
                1 => lines[line].extend_from_slice(space),
                _ => lines.insert(line, space.to_vec()),
            },
            // CRLF ends, on one line or on all.
            2 if value.is_multiple_of(2) => lines[line].push(b'\r'),
            2 => lines.iter_mut().for_each(|l| l.push(b'\r')),
            // A stray byte that is not UTF-8, in place of another.
            3 => {
                let mut bytes = text.to_vec();
                let i = (at as usize).wrapping_add(value as usize) % bytes.len();
                bytes[i] = 0xFF;
                return bytes;
            }
            4 if field < fields.len() && place < fields.len() => {
                let moved = fields.remove(field);
                fields.insert(place, moved);
                lines[line] = fields.join(&b' ');
            }
            5 if field < fields.len() => {
                fields.remove(field);
                lines[line] = fields.join(&b' ');
            }
            6 if field < fields.len() => {
                let mut copy = fields[field].clone();
                if (value >> 16) % 2 == 1 {
                    if let Some(eq) = copy.iter().position(|&b| b == b'=') {
                        copy.truncate(eq + 1);
                        copy.extend_from_slice((value >> 24).to_string().as_bytes());
                    }
                }
                fields.insert(place.max(field + 1).min(fields.len()), copy);
                lines[line] = fields.join(&b' ');
            }
            _ => {}
        }
        lines.join(&b'\n')
    }

    /// A read's outcome, its error as its `Display` text.
    fn outcome(read: Result<RandomForest, ReadModelError>) -> Result<RandomForest, String> {
        read.map_err(|e| e.to_string())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Any mutated v1 file loads as a validated forest — every
        /// child index in range, and a faithful round trip — or fails
        /// with a `ReadModelError`; it never panics.
        #[test]
        fn mutated_models_load_validated_or_fail_cleanly(
            edits in proptest::collection::vec(
                (0u32..6, proptest::prelude::any::<u32>(), proptest::prelude::any::<u64>()),
                1..4,
            ),
        ) {
            let mut text = Vec::new();
            write_forest(&forest(), &mut text).expect("write");
            let mut text = String::from_utf8(text).expect("ascii");
            for &(kind, at, value) in &edits {
                text = mutate(&text, kind, at, value);
            }
            if let Ok(loaded) = read_forest(text.as_bytes()) {
                for tree in loaded.trees() {
                    for node in tree.nodes() {
                        if let Node::Split { left, right, .. } = node {
                            proptest::prop_assert!(left.index() < tree.n_nodes());
                            proptest::prop_assert!(right.index() < tree.n_nodes());
                        }
                    }
                }
                let mut again = Vec::new();
                write_forest(&loaded, &mut again).expect("write");
                proptest::prop_assert_eq!(read_forest(&again[..]).expect("re-read"), loaded);
            }
        }

        /// The one-pass reader and the reference reader agree on every
        /// input: the same forest, or errors with the same text. Inputs
        /// are random forests as written, then `mutate` edits, then
        /// byte edits `mutate` does not make.
        #[test]
        fn reader_matches_the_reference_reader(
            seed in proptest::prelude::any::<u64>(),
            edits in proptest::collection::vec(
                (0u32..6, proptest::prelude::any::<u32>(), proptest::prelude::any::<u64>()),
                0..3,
            ),
            byte_edits in proptest::collection::vec(
                (0u32..7, proptest::prelude::any::<u32>(), proptest::prelude::any::<u64>()),
                0..4,
            ),
        ) {
            let mut text = Vec::new();
            write_forest(&random_forest(seed), &mut text).expect("write");
            let mut text = String::from_utf8(text).expect("ascii");
            // Neither edit takes an empty text (a truncation can leave one).
            for &(kind, at, value) in &edits {
                if !text.is_empty() {
                    text = mutate(&text, kind, at, value);
                }
            }
            let mut text = text.into_bytes();
            for &(kind, at, value) in &byte_edits {
                if !text.is_empty() {
                    text = mutate_bytes(&text, kind, at, value);
                }
            }
            proptest::prop_assert_eq!(
                outcome(read_forest(&text[..])),
                outcome(reference::read_forest(&text[..]))
            );
        }
    }
}
