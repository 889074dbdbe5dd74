//! Property tests: the word-at-a-time byte finder, and the JSON string
//! parser that scans with it, agree with byte-at-a-time references — at
//! every start offset mod 8, on tails shorter than a word, on empty input
//! and on every byte value.

use proptest::prelude::*;
use rsched_engine::json::Json;
use rsched_engine::scan::ByteClass;

/// A byte class's membership test, written out byte by byte.
type Member = fn(u8) -> bool;

/// Each class beside its membership test.
const CLASSES: [(ByteClass, Member); 2] = [
    (ByteClass::NEWLINE, |b| b == b'\n'),
    (ByteClass::JSON_STRING_STOP, |b| {
        b == b'"' || b == b'\\' || b < 0x20
    }),
];

/// Bytes weighted toward the class boundaries: `\n`, `"`, `\`, `0x1f`
/// and `0x20`, DEL, the high half, and any value at all.
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        8 => b'a'..=b'z',
        2 => any::<u8>(),
        1 => Just(b'\n'),
        1 => Just(b'"'),
        1 => Just(b'\\'),
        1 => Just(0x1f),
        1 => Just(0x20),
        1 => Just(0x7f),
        1 => 0x80u8..=0xff,
    ]
}

/// Pieces of a JSON string body: raw text (multi-byte too), raw bytes
/// that end or break a string, and escapes good and bad. `None` stands
/// for one drawn character.
const PIECES: [Option<&str>; 22] = [
    Some("op x 3"),
    Some("é"),
    Some("名前"),
    Some("😀"),
    Some("\u{7f}\u{80}\u{ff}"),
    Some("\u{1f}"),
    Some("\t"),
    Some("\n"),
    Some(" "),
    Some("\""),
    Some("\\n"),
    Some("\\\""),
    Some("\\\\"),
    Some("\\/"),
    Some("\\b\\f\\r\\t"),
    Some("\\u00e9"),
    Some("\\ud83d\\ude00"),
    Some("\\ud800x"),
    Some("\\udc00"),
    Some("\\u12"),
    Some("\\x"),
    None,
];

/// The reference: the string literal that opens at `pos` (on its `"`)
/// decoded one byte at a time, with the end position or the offset of
/// the error — the offsets the parser reports.
fn decode(bytes: &[u8], mut pos: usize) -> Result<(String, usize), usize> {
    pos += 1;
    let mut out = Vec::new();
    loop {
        let &b = bytes.get(pos).ok_or(pos)?;
        pos += 1;
        match b {
            b'"' => return Ok((String::from_utf8(out).expect("UTF-8 input"), pos)),
            b'\\' => {
                let &e = bytes.get(pos).ok_or(pos)?;
                pos += 1;
                let simple = match e {
                    b'"' => Some('"'),
                    b'\\' => Some('\\'),
                    b'/' => Some('/'),
                    b'b' => Some('\u{8}'),
                    b'f' => Some('\u{c}'),
                    b'n' => Some('\n'),
                    b'r' => Some('\r'),
                    b't' => Some('\t'),
                    b'u' => None,
                    _ => return Err(pos),
                };
                let c = match simple {
                    Some(c) => c,
                    None => {
                        let hi = hex4(bytes, &mut pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            if bytes.get(pos) != Some(&b'\\') {
                                return Err(pos);
                            }
                            pos += 1;
                            if bytes.get(pos) != Some(&b'u') {
                                return Err(pos);
                            }
                            pos += 1;
                            let lo = hex4(bytes, &mut pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(pos);
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        char::from_u32(code).ok_or(pos)?
                    }
                };
                out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
            }
            b if b < 0x20 => return Err(pos - 1),
            b => out.push(b),
        }
    }
}

fn hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, usize> {
    let mut value = 0;
    for _ in 0..4 {
        let digit = bytes
            .get(*pos)
            .and_then(|&b| (b as char).to_digit(16))
            .ok_or(*pos)?;
        value = value * 16 + digit;
        *pos += 1;
    }
    Ok(value)
}

/// The reference for a whole document that is one string literal after
/// optional whitespace: its value, or the offset of the first error.
fn parse_reference(text: &str) -> Result<String, usize> {
    let bytes = text.as_bytes();
    let ws = |b: &u8| matches!(b, b' ' | b'\t' | b'\n' | b'\r');
    let start = bytes.iter().take_while(|b| ws(b)).count();
    let (value, end) = decode(bytes, start)?;
    let trailing = end + bytes[end..].iter().take_while(|b| ws(b)).count();
    if trailing == bytes.len() {
        Ok(value)
    } else {
        Err(trailing)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn finder_matches_a_byte_at_a_time_scan(
        bytes in proptest::collection::vec(byte(), 0..48),
        start in 0usize..8,
    ) {
        let bytes = &bytes[start.min(bytes.len())..];
        for (class, member) in CLASSES {
            prop_assert_eq!(class.find(bytes), bytes.iter().position(|&b| member(b)));
        }
    }

    #[test]
    fn string_parse_matches_a_byte_at_a_time_decoder(
        indent in 0usize..8,
        pieces in proptest::collection::vec((0usize..PIECES.len(), 0u32..0x11_0000), 0..24),
        closed in any::<bool>(),
        trailer in 0usize..3,
    ) {
        let mut text = " ".repeat(indent);
        text.push('"');
        for &(i, code) in &pieces {
            match PIECES[i] {
                Some(piece) => text.push_str(piece),
                None => text.extend(char::from_u32(code)),
            }
        }
        if closed {
            text.push('"');
        }
        text.push_str(["", " \n", " x"][trailer]);
        let parsed = Json::parse(&text).map_err(|e| e.offset);
        let reference = parse_reference(&text);
        prop_assert_eq!(
            parsed.as_ref().map(|v| v.as_str().expect("a string value")),
            reference.as_deref(),
            "{:?}",
            text
        );
    }
}

/// Every byte value at every offset mod 8 of a run long enough to take
/// the word loop, then in a tail shorter than a word.
#[test]
fn finder_sees_every_byte_value_at_every_offset() {
    for (class, member) in CLASSES {
        for byte in 0..=u8::MAX {
            for len in [0, 1, 7, 8, 9, 31] {
                for pos in 0..len {
                    let mut bytes = vec![b'a'; len];
                    bytes[pos] = byte;
                    let want = member(byte).then_some(pos);
                    assert_eq!(class.find(&bytes), want, "{byte:#04x} at {pos} of {len}");
                }
            }
        }
    }
}
