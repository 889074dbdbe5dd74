//! A plain-text interchange format for constraint graphs.
//!
//! One directive per line; `#` starts a comment. Operations must be
//! declared before use; `source` and `sink` are predeclared names.
//!
//! ```text
//! # gcd-ish fragment
//! op   sync   unbounded
//! op   alu    2
//! dep  sync   alu
//! min  source alu 1
//! max  sync   alu 4        # ill-posed, but parses
//! ```

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

use crate::error::GraphError;
use crate::graph::{ConstraintGraph, EdgeKind, ExecDelay, VertexId};

/// Errors produced while parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TextFormatError {
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// A structural error while applying a directive.
    Graph {
        /// 1-based line number.
        line: usize,
        /// Underlying graph error.
        source: GraphError,
    },
}

impl fmt::Display for TextFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextFormatError::Syntax { line, message } => {
                write!(f, "line {line}: {message}")
            }
            TextFormatError::Graph { line, source } => write!(f, "line {line}: {source}"),
        }
    }
}

impl Error for TextFormatError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TextFormatError::Graph { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ConstraintGraph {
    /// Parses a constraint graph from the text format. The graph is
    /// polarized after parsing (dangling operations are wired to the
    /// source/sink).
    ///
    /// # Errors
    ///
    /// Returns [`TextFormatError`] with the offending line number for
    /// unknown directives, undeclared or duplicate names, malformed
    /// numbers, and structural violations (forward cycles etc.).
    pub fn from_text(text: &str) -> Result<Self, TextFormatError> {
        let mut g = ConstraintGraph::new();
        // Keys borrow from `text`. Sized for one declaration per
        // `BYTES_PER_OP` bytes, so a typical design never rehashes.
        let mut names: HashMap<Name<'_>, VertexId> =
            HashMap::with_capacity(2 + text.len() / BYTES_PER_OP);
        names.insert(Name("source"), g.source());
        names.insert(Name("sink"), g.sink());
        let mut scan = Scanner::new(text);
        while let Some((line, directive)) = scan.next_line() {
            let syntax = |message: String| TextFormatError::Syntax { line, message };
            let mut arg = |what: &str| {
                scan.token()
                    .ok_or_else(|| syntax(format!("missing {what}")))
            };
            match directive {
                "op" => {
                    let name = arg("operation name")?;
                    let delay = arg("delay")?;
                    let delay = if delay == "unbounded" {
                        ExecDelay::Unbounded
                    } else {
                        ExecDelay::Fixed(
                            parse_weight(delay)
                                .ok_or_else(|| syntax(format!("invalid delay '{delay}'")))?,
                        )
                    };
                    let Entry::Vacant(slot) = names.entry(Name(name)) else {
                        return Err(syntax(format!("duplicate operation '{name}'")));
                    };
                    slot.insert(g.add_operation(name, delay));
                }
                "dep" | "min" | "max" => {
                    let from_name = arg("tail name")?;
                    let to_name = arg("head name")?;
                    let lookup = |n: &str| {
                        names
                            .get(&Name(n))
                            .copied()
                            .ok_or_else(|| syntax(format!("undeclared operation '{n}'")))
                    };
                    let from = lookup(from_name)?;
                    let to = lookup(to_name)?;
                    let result = match directive {
                        "dep" => g.add_dependency(from, to).map(|_| ()),
                        "min" | "max" => {
                            let cycles = parse_weight(arg("cycle count")?)
                                .ok_or_else(|| syntax("invalid cycle count".to_owned()))?;
                            if directive == "min" {
                                g.add_min_constraint(from, to, cycles).map(|_| ())
                            } else {
                                g.add_max_constraint(from, to, cycles).map(|_| ())
                            }
                        }
                        _ => unreachable!(),
                    };
                    result.map_err(|source| TextFormatError::Graph { line, source })?;
                }
                other => {
                    return Err(syntax(format!(
                        "unknown directive '{other}' (expected op/dep/min/max)"
                    )))
                }
            }
        }
        g.polarize()
            .map_err(|source| TextFormatError::Graph { line: 0, source })?;
        Ok(g)
    }

    /// Renders the graph in the text format. A repeated name, or an
    /// operation named `source` or `sink`, is written `name@<id>`, or
    /// `name@<id>@<k>` when another vertex is already written so; edges
    /// added by polarization are included (re-parsing is idempotent).
    pub fn to_text(&self) -> String {
        let names = self.text_names();
        let name_of = |v: VertexId| &*names[v.index()];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# constraint graph: {} vertices, {} edges",
            self.n_vertices(),
            self.n_edges()
        );
        for v in self.operation_ids() {
            let delay = match self.vertex(v).delay() {
                ExecDelay::Fixed(d) => d.to_string(),
                ExecDelay::Unbounded => "unbounded".to_owned(),
            };
            let _ = writeln!(out, "op {} {}", name_of(v), delay);
        }
        for (_, e) in self.edges() {
            let (from, to, w) = (name_of(e.from()), name_of(e.to()), e.weight().zeroed());
            let _ = match e.kind() {
                EdgeKind::Sequencing => writeln!(out, "dep {from} {to}"),
                EdgeKind::MinConstraint => writeln!(out, "min {from} {to} {w}"),
                // Stored backward: reconstruct the user-facing direction
                // (from = head, to = tail, weight -u).
                EdgeKind::MaxConstraint => writeln!(out, "max {to} {from} {}", -w),
            };
        }
        out
    }

    /// The name each vertex is written under, by id. An operation keeps
    /// its own name unless another operation shares it or it is `source`
    /// or `sink`; then it is written `name@id`, or `name@id@k` with the
    /// least `k` that no other vertex is written under.
    fn text_names(&self) -> Vec<Cow<'_, str>> {
        let mut uses: HashMap<&str, usize> = HashMap::new();
        for v in self.operation_ids() {
            *uses.entry(self.vertex(v).name()).or_default() += 1;
        }
        let verbatim = |name: &str| uses[name] == 1 && name != "source" && name != "sink";
        let mut taken: HashSet<Cow<'_, str>> = (uses.keys().copied().filter(|&n| verbatim(n)))
            .chain(["source", "sink"])
            .map(Cow::Borrowed)
            .collect();
        self.vertex_ids()
            .map(|v| {
                let name = self.vertex(v).name();
                if v == self.source() {
                    Cow::Borrowed("source")
                } else if v == self.sink() {
                    Cow::Borrowed("sink")
                } else if verbatim(name) {
                    Cow::Borrowed(name)
                } else {
                    let mut unique = format!("{name}@{}", v.index());
                    let mut k = 0;
                    while taken.contains(unique.as_str()) {
                        k += 1;
                        unique = format!("{name}@{}@{k}", v.index());
                    }
                    taken.insert(Cow::Owned(unique.clone()));
                    Cow::Owned(unique)
                }
            })
            .collect()
    }
}

/// Counts a design's `op` lines and its constraint (`dep`, `min`, `max`)
/// lines, tokenized exactly as [`ConstraintGraph::from_text`] tokenizes
/// them (any whitespace separates, `#` starts a comment), without parsing
/// their arguments. Returns `(operations, constraint_edges)`.
pub fn directive_counts(text: &str) -> (usize, usize) {
    let (mut ops, mut edges) = (0, 0);
    let mut scan = Scanner::new(text);
    while let Some((_, directive)) = scan.next_line() {
        match directive {
            "op" => ops += 1,
            "dep" | "min" | "max" => edges += 1,
            _ => {}
        }
    }
    (ops, edges)
}

/// Bytes of design text per declared operation that pre-sizing the name
/// map assumes: an `op` line plus its share of constraint lines.
const BYTES_PER_OP: usize = 32;

/// A name-map key that hashes only the name's bytes. `Hash for str`
/// appends a `0xff` terminator, which only matters when a key hashes
/// several fields; on short operation names it is a large share of the
/// hashing. The map keeps std's keyed hasher, so client-chosen names
/// still cannot be crafted to collide.
#[derive(PartialEq, Eq)]
struct Name<'a>(&'a str);

impl Hash for Name<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.0.as_bytes());
    }
}

/// How the scanner treats a byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Word,
    /// Separates tokens: exactly the ASCII bytes other than `\n` that
    /// `char::is_whitespace` accepts.
    Space,
    /// Ends a line.
    Newline,
    /// Starts a comment that runs to the end of the line.
    Comment,
    /// Starts a multi-byte character, which separates tokens iff it is
    /// Unicode whitespace.
    NonAscii,
}

/// The class of every byte. A `static`, not a `const`: a `const` array
/// indexed at run time may be copied out at each use, and measured
/// slower.
static CLASS: [Class; 256] = {
    let mut table = [Class::Word; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            b'\t' | 0x0B | 0x0C | b'\r' | b' ' => Class::Space,
            b'\n' => Class::Newline,
            b'#' => Class::Comment,
            0x80.. => Class::NonAscii,
            _ => Class::Word,
        };
        b += 1;
    }
    table
};

/// One cursor over a whole design text that yields, line by line, the
/// whitespace-separated tokens before any `#`. It yields exactly the
/// tokens `text.lines()`, then `split('#')`, `trim` and
/// `split_whitespace` would, but reads each byte once: bytes are
/// classified by table, and only a non-ASCII character is decoded.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based number of the line holding `pos`; 0 before the first.
    line: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner {
            text,
            pos: 0,
            line: 0,
        }
    }

    /// Skips the rest of the current line, however many of its tokens
    /// were read, and moves on to the next line that holds a token.
    /// Returns that line's number and first token, or `None` at the end
    /// of the text.
    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        let bytes = self.text.as_bytes();
        loop {
            if self.line > 0 {
                // `\n` never occurs inside a multi-byte character.
                let newline = bytes[self.pos..].iter().position(|&b| b == b'\n')?;
                self.pos += newline + 1;
            }
            self.line += 1;
            if let Some(token) = self.token() {
                return Some((self.line, token));
            }
        }
    }

    /// The next token on the current line, or `None` once only
    /// separators and a comment are left on it.
    fn token(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        // Skip separators up to the next word; a comment or the line's
        // end stops the scan where it is.
        loop {
            let Some(&b) = bytes.get(pos) else {
                self.pos = pos;
                return None;
            };
            match CLASS[b as usize] {
                Class::Space => pos += 1,
                Class::Word => break,
                Class::NonAscii => match self.wide_char(pos) {
                    (true, len) => pos += len,
                    (false, _) => break,
                },
                Class::Newline | Class::Comment => {
                    self.pos = pos;
                    return None;
                }
            }
        }
        let start = pos;
        while let Some(&b) = bytes.get(pos) {
            match CLASS[b as usize] {
                Class::Word => pos += 1,
                Class::NonAscii => match self.wide_char(pos) {
                    (false, len) => pos += len,
                    (true, _) => break,
                },
                _ => break,
            }
        }
        self.pos = pos;
        Some(&self.text[start..pos])
    }

    /// Whether the multi-byte character at `pos` is Unicode whitespace,
    /// and its length in bytes.
    fn wide_char(&self, pos: usize) -> (bool, usize) {
        let c = self.text[pos..].chars().next().expect("in bounds");
        (c.is_whitespace(), c.len_utf8())
    }
}

/// Parses a delay or cycle count. Edge weights are `i64`, so a value above
/// `i64::MAX` is refused here rather than wrapping to a negative weight.
fn parse_weight(token: &str) -> Option<u64> {
    token.parse().ok().filter(|&w| i64::try_from(w).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Weight;

    const SAMPLE: &str = "
# a small interface
op sync unbounded
op alu 2
op out 1
dep sync alu
dep alu out
min source alu 1
max alu out 4
";

    #[test]
    fn parses_sample() {
        let g = ConstraintGraph::from_text(SAMPLE).unwrap();
        assert_eq!(g.n_vertices(), 5);
        assert_eq!(g.n_backward_edges(), 1);
        assert!(g.is_polar());
        let sync = g
            .vertex_ids()
            .find(|&v| g.vertex(v).name() == "sync")
            .unwrap();
        assert!(g.is_anchor(sync));
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let g = ConstraintGraph::from_text(SAMPLE).unwrap();
        let text = g.to_text();
        let g2 = ConstraintGraph::from_text(&text).unwrap();
        assert_eq!(g.n_vertices(), g2.n_vertices());
        assert_eq!(g.n_edges(), g2.n_edges());
        assert_eq!(g.n_backward_edges(), g2.n_backward_edges());
        // Edge multiset matches by (names, kind, zeroed weight).
        let key = |g: &ConstraintGraph| {
            let mut edges: Vec<(String, String, bool, i64)> = g
                .edges()
                .map(|(_, e)| {
                    (
                        g.vertex(e.from()).name().to_owned(),
                        g.vertex(e.to()).name().to_owned(),
                        e.is_backward(),
                        e.weight().zeroed(),
                    )
                })
                .collect();
            edges.sort();
            edges
        };
        assert_eq!(key(&g), key(&g2));
    }

    #[test]
    fn anchor_sourced_min_constraint_roundtrips() {
        let text = "op a unbounded\nop b 1\nmin a b 5\n";
        let g = ConstraintGraph::from_text(text).unwrap();
        let a = g.vertex_ids().find(|&v| g.vertex(v).name() == "a").unwrap();
        let (_, e) = g
            .edges()
            .find(|(_, e)| e.kind() == crate::graph::EdgeKind::MinConstraint)
            .unwrap();
        assert_eq!(
            e.weight(),
            Weight::Unbounded {
                anchor: a,
                extra: 5
            }
        );
        let g2 = ConstraintGraph::from_text(&g.to_text()).unwrap();
        assert_eq!(g2.n_edges(), g.n_edges());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = ConstraintGraph::from_text("op a 1\nzap a b\n").unwrap_err();
        assert_eq!(
            err,
            TextFormatError::Syntax {
                line: 2,
                message: "unknown directive 'zap' (expected op/dep/min/max)".into()
            }
        );
        let err = ConstraintGraph::from_text("dep a b\n").unwrap_err();
        assert!(err.to_string().contains("undeclared operation 'a'"));
        let err = ConstraintGraph::from_text("op a 1\nop a 2\n").unwrap_err();
        assert!(err.to_string().contains("duplicate"));
        let err = ConstraintGraph::from_text("op a one\n").unwrap_err();
        assert!(err.to_string().contains("invalid delay"));
        let err = ConstraintGraph::from_text("op a 1\nop b 1\ndep a b\ndep b a\n").unwrap_err();
        assert!(matches!(err, TextFormatError::Graph { line: 4, .. }));
    }

    /// Weights are `i64`: `2^63 - 1` is the largest delay or cycle count
    /// that fits, and `2^63` is refused instead of wrapping negative.
    #[test]
    fn weights_above_i64_max_are_rejected() {
        let max = i64::MAX as u64;
        let g = ConstraintGraph::from_text(&format!(
            "op a {max}\nop b 1\ndep a b\nmin a b {max}\nmax a b {max}\n"
        ))
        .unwrap();
        let weights: Vec<i64> = g.edges().map(|(_, e)| e.weight().zeroed()).collect();
        // `dep a b` carries δ(a) and `min a b` its count; `max` is negated.
        assert_eq!(weights.iter().filter(|&&w| w == i64::MAX).count(), 2);
        assert!(weights.contains(&-i64::MAX));

        let over = max + 1;
        assert_eq!(
            ConstraintGraph::from_text(&format!("op a 1\nop b {over}\n")).unwrap_err(),
            TextFormatError::Syntax {
                line: 2,
                message: format!("invalid delay '{over}'")
            }
        );
        for directive in ["min", "max"] {
            assert_eq!(
                ConstraintGraph::from_text(&format!("op a 1\nop b 1\n{directive} a b {over}\n"))
                    .unwrap_err(),
                TextFormatError::Syntax {
                    line: 3,
                    message: "invalid cycle count".into()
                }
            );
        }
    }

    /// The tokenization `from_text` used before the byte scanner: the
    /// reference the scanner must match line for line.
    fn reference_lines(text: &str) -> Vec<(usize, Vec<&str>)> {
        text.lines()
            .enumerate()
            .map(|(i, raw)| {
                let content = raw.split('#').next().unwrap_or("").trim();
                (i + 1, content.split_whitespace().collect())
            })
            .collect()
    }

    #[test]
    fn class_table_matches_char_whitespace() {
        for b in 0..=255u8 {
            let class = CLASS[b as usize];
            if b >= 0x80 {
                assert_eq!(class, Class::NonAscii, "{b:#x}");
                continue;
            }
            let c = char::from(b);
            assert_eq!(class == Class::Newline, b == b'\n', "{b:#x}");
            assert_eq!(class == Class::Comment, b == b'#', "{b:#x}");
            assert_eq!(
                matches!(class, Class::Space | Class::Newline),
                c.is_whitespace(),
                "{b:#x}"
            );
        }
    }

    /// Generated lines mix directives, names, numbers, comments (alone,
    /// trailing, and `#` inside a token), tabs, CRLF, blank lines, and
    /// Unicode whitespace (U+00A0, U+3000, U+0085) next to non-space
    /// multi-byte characters. Each text is read by consumers that take at
    /// most `k` tokens of a line before moving on, as `from_text` does:
    /// they must see the reference's first `k` tokens of every line that
    /// has any, under its line number. Since the directive code consumes
    /// only these tokens and line numbers, equal tokenization means equal
    /// graphs and equal errors.
    #[test]
    fn byte_scanner_matches_reference_tokenization() {
        const PIECES: [&str; 24] = [
            "op",
            "dep",
            "min",
            "max",
            "a",
            "b7",
            "unbounded",
            "3",
            " ",
            "   ",
            "\t",
            "#",
            "# note",
            "x#y",
            "\r\n",
            "\n",
            "\n\n",
            "\r",
            "\u{a0}",
            "\u{3000}",
            "\u{85}",
            "é",
            "名",
            "\u{b}\u{c}",
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for _ in 0..5000 {
            let len = next(40);
            let text: String = (0..len).map(|_| PIECES[next(PIECES.len())]).collect();
            let reference: Vec<(usize, Vec<&str>)> = reference_lines(&text)
                .into_iter()
                .filter(|(_, tokens)| !tokens.is_empty())
                .collect();
            for k in 1..=5 {
                let mut scan = Scanner::new(&text);
                let mut scanned = Vec::new();
                while let Some((line, first)) = scan.next_line() {
                    let mut tokens = vec![first];
                    tokens.extend(std::iter::from_fn(|| scan.token()).take(k - 1));
                    scanned.push((line, tokens));
                }
                let expected: Vec<(usize, Vec<&str>)> = reference
                    .iter()
                    .map(|(line, tokens)| (*line, tokens.iter().copied().take(k).collect()))
                    .collect();
                assert_eq!(scanned, expected, "k = {k}, {text:?}");
            }
        }
    }

    #[test]
    fn missing_arguments_report_their_line_under_any_whitespace() {
        let cases = [
            ("op\u{a0}a\n", 1, "missing delay"),
            ("op a 1\r\n\r\ndep a\u{3000}# b\r\n", 3, "missing head name"),
            ("op a 1\nop b 1\n\tmin a b#3\n", 3, "missing cycle count"),
            ("# only\n\nop\t\n", 3, "missing operation name"),
        ];
        for (text, line, message) in cases {
            assert_eq!(
                ConstraintGraph::from_text(text).unwrap_err(),
                TextFormatError::Syntax {
                    line,
                    message: message.into()
                },
                "{text:?}"
            );
        }
        let crlf =
            ConstraintGraph::from_text("op\u{3000}a 1\r\nop b\u{a0}2\r\ndep a b\r\n").unwrap();
        assert_eq!(crlf.n_vertices(), 4);
    }

    /// The counts follow the parser's tokenization: any whitespace ends
    /// the keyword, and `#` hides the rest of a line.
    #[test]
    fn directive_counts_match_what_the_parser_reads() {
        let cases = [
            ("op\ta 1\nop\tb 1\ndep\ta b\n", (2, 1)),
            (
                "op a 1\r\nop\u{3000}b 1\r\nmin\u{3000}a b 1\r\nmax a b 2\r\n",
                (2, 2),
            ),
            (
                "# op x 1\n  op a 1 # op y 1\n#dep a b\n\top b 1\n\ndep a b#c\n",
                (2, 1),
            ),
            ("opx a 1\nop\u{a0}a 1\ndeps a b\n", (1, 0)),
            ("", (0, 0)),
        ];
        for (text, counts) in cases {
            assert_eq!(directive_counts(text), counts, "{text:?}");
            // Where the text parses, every counted `op` is a vertex.
            if let Ok(g) = ConstraintGraph::from_text(text) {
                assert_eq!(g.n_vertices() - 2, counts.0, "{text:?}");
            }
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let g = ConstraintGraph::from_text("# nothing\n\n   # indent\n").unwrap();
        assert_eq!(g.n_vertices(), 2);
    }

    #[test]
    fn duplicate_display_names_disambiguated() {
        let mut g = ConstraintGraph::new();
        g.add_operation("x", ExecDelay::Fixed(1));
        g.add_operation("x", ExecDelay::Fixed(2));
        g.polarize().unwrap();
        let text = g.to_text();
        assert!(text.contains("x@2"));
        assert!(text.contains("x@3"));
        let g2 = ConstraintGraph::from_text(&text).unwrap();
        assert_eq!(g2.n_vertices(), 4);
    }
}
