//! Word-at-a-time byte search: the position of the first byte of a
//! slice that falls in a small class.
//!
//! Frame intake scans every request twice over its whole length: the
//! socket transport looks for the `\n` that ends a frame, and the JSON
//! parser looks for the `"`, `\` or control byte that ends an unescaped
//! run of a string. Both scans read eight bytes at a time as one `u64`
//! and test all eight lanes with a few integer operations (the
//! "has zero byte" / "has byte less than" tricks), falling back to one
//! byte at a time only for the tail shorter than a word.

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// A set of byte values to stop at: two exact bytes (which may be the
/// same) plus every byte below a bound of at most `0x80`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ByteClass {
    a: u8,
    b: u8,
    below: u8,
}

impl ByteClass {
    /// `\n`, the frame terminator of the JSON-lines protocol.
    pub const NEWLINE: ByteClass = ByteClass {
        a: b'\n',
        b: b'\n',
        below: 0,
    };

    /// The bytes that end an unescaped run inside a JSON string: `"`,
    /// `\` and the control characters below `0x20`.
    pub const JSON_STRING_STOP: ByteClass = ByteClass {
        a: b'"',
        b: b'\\',
        below: 0x20,
    };

    /// Whether `byte` is in the class.
    #[inline]
    fn contains(self, byte: u8) -> bool {
        byte == self.a || byte == self.b || byte < self.below
    }

    /// The high bit of each byte lane of `word` whose byte is in the
    /// class. A borrow can also flag lanes *above* the lowest true one,
    /// never below it, so the lowest flagged lane is exact.
    #[inline]
    fn flags(self, word: u64) -> u64 {
        let equal = |x: u8| {
            let v = word ^ (LO * u64::from(x));
            v.wrapping_sub(LO) & !v
        };
        let less = word.wrapping_sub(LO * u64::from(self.below)) & !word;
        (equal(self.a) | equal(self.b) | less) & HI
    }

    /// The index of the first byte of `bytes` in the class, if any.
    #[inline]
    pub fn find(self, bytes: &[u8]) -> Option<usize> {
        let mut words = bytes.chunks_exact(8);
        let mut at = 0;
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("chunks of eight bytes"));
            let flags = self.flags(word);
            if flags != 0 {
                return Some(at + (flags.trailing_zeros() / 8) as usize);
            }
            at += 8;
        }
        let tail = words.remainder();
        tail.iter().position(|&b| self.contains(b)).map(|i| at + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLASSES: [ByteClass; 2] = [ByteClass::NEWLINE, ByteClass::JSON_STRING_STOP];

    fn reference(class: ByteClass, bytes: &[u8]) -> Option<usize> {
        bytes.iter().position(|&b| class.contains(b))
    }

    #[test]
    fn membership_is_the_documented_set() {
        for byte in 0..=u8::MAX {
            assert_eq!(ByteClass::NEWLINE.contains(byte), byte == b'\n');
            assert_eq!(
                ByteClass::JSON_STRING_STOP.contains(byte),
                byte == b'"' || byte == b'\\' || byte < 0x20,
                "{byte:#04x}"
            );
        }
    }

    /// Every ordered pair of byte values, side by side at every lane of
    /// a word and across a word boundary: a borrow out of the first byte
    /// must not hide or fake a match in the second.
    #[test]
    fn finds_every_byte_pair_at_every_lane() {
        let mut bytes = [b'a'; 20];
        for class in CLASSES {
            for x in 0..=u8::MAX {
                for y in 0..=u8::MAX {
                    for pos in 0..16 {
                        bytes[pos] = x;
                        bytes[pos + 1] = y;
                        assert_eq!(
                            class.find(&bytes),
                            reference(class, &bytes),
                            "{class:?} {x:#04x} {y:#04x} at {pos}"
                        );
                        bytes[pos] = b'a';
                        bytes[pos + 1] = b'a';
                    }
                }
            }
        }
    }
}
