//! The byte mutator of the text-boundary tests: truncation, bit flips,
//! byte overwrites, duplicated or dropped lines, and a number swapped for
//! an edge value. A parser fed the result must answer with a value or an
//! error, never a panic.

use proptest::Strategy;

/// What a number token may be swapped for: zero, the edges of `u32` and
/// `u64`, a negative and a float.
const EDGES: [&str; 6] = [
    "0",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "-1",
    "2.5",
];

/// Bytes an overwrite writes: separators, signs, comment and frame
/// characters, and a byte that is not ASCII.
const BYTES: [u8; 8] = [b' ', b'\n', b'\r', b'-', b'#', b'0', b'.', 0xC3];

/// One edit of a text. Every position and argument is reduced modulo
/// what it indexes when the edit applies, so any value is valid; an edit
/// that finds nothing to index (no byte, no line, no number) does
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// `Truncate(at)` keeps the first `at % (len + 1)` bytes.
    Truncate(usize),
    /// `FlipBit(at, bit)` flips bit `bit % 8` of byte `at`.
    FlipBit(usize, usize),
    /// `Overwrite(at, byte)` writes `BYTES[byte]` over byte `at`.
    Overwrite(usize, usize),
    /// `DuplicateLine(at)` repeats line `at`.
    DuplicateLine(usize),
    /// `DropLine(at)` removes line `at`.
    DropLine(usize),
    /// `SwapNumber(at, edge)` replaces the `at`-th maximal run of ASCII
    /// digits with `EDGES[edge]`.
    SwapNumber(usize, usize),
}

/// One to `max` mutations of every kind, with any positions.
pub fn arb_mutations(max: usize) -> impl Strategy<Value = Vec<Mutation>> {
    (1..=max).prop_flat_map(|n| {
        let edit =
            (0u8..6, 0usize..=usize::MAX, 0usize..=usize::MAX).prop_map(|(kind, at, arg)| {
                [
                    Mutation::Truncate(at),
                    Mutation::FlipBit(at, arg),
                    Mutation::Overwrite(at, arg),
                    Mutation::DuplicateLine(at),
                    Mutation::DropLine(at),
                    Mutation::SwapNumber(at, arg),
                ][kind as usize]
            });
        proptest::collection::vec(edit, n)
    })
}

/// `text` with `mutations` applied in order; invalid UTF-8 is replaced,
/// as a reader that decodes lossily would.
pub fn mutate(text: &str, mutations: &[Mutation]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &mutation in mutations {
        match mutation {
            Mutation::Truncate(at) => bytes.truncate(at % (bytes.len() + 1)),
            Mutation::FlipBit(at, bit) if !bytes.is_empty() => {
                let i = at % bytes.len();
                bytes[i] ^= 1 << (bit % 8);
            }
            Mutation::Overwrite(at, byte) if !bytes.is_empty() => {
                let i = at % bytes.len();
                bytes[i] = BYTES[byte % BYTES.len()];
            }
            Mutation::DuplicateLine(at) | Mutation::DropLine(at) => {
                let mut lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
                if !lines.is_empty() {
                    let i = at % lines.len();
                    if matches!(mutation, Mutation::DuplicateLine(_)) {
                        lines.insert(i, lines[i]);
                    } else {
                        lines.remove(i);
                    }
                }
                bytes = lines.concat();
            }
            Mutation::SwapNumber(at, edge) => {
                let numbers = digit_runs(&bytes);
                if !numbers.is_empty() {
                    let (start, end) = numbers[at % numbers.len()];
                    let edge = EDGES[edge % EDGES.len()].as_bytes();
                    bytes.splice(start..end, edge.iter().copied());
                }
            }
            Mutation::FlipBit(..) | Mutation::Overwrite(..) => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The byte ranges of the maximal runs of ASCII digits in `bytes`.
fn digit_runs(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, b) in bytes.iter().enumerate() {
        match (b.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                runs.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        runs.push((s, bytes.len()));
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use Mutation::*;

    #[test]
    fn each_kind_edits_as_documented() {
        let text = "a 12\nb 7\n";
        for (edit, want) in [
            (Truncate(3), "a 1"),
            (Truncate(10), ""),
            (FlipBit(0, 8 + 1), "c 12\nb 7\n"),
            (Overwrite(1, 4), "a#12\nb 7\n"),
            (DuplicateLine(1), "a 12\nb 7\nb 7\n"),
            (DropLine(2), "b 7\n"),
            (SwapNumber(1, 4), "a 12\nb -1\n"),
        ] {
            assert_eq!(mutate(text, &[edit]), want, "{edit:?}");
        }
        // Nothing to index: no edit, no panic.
        for edit in [FlipBit(3, 0), DropLine(0), SwapNumber(0, 0)] {
            assert_eq!(mutate("", &[edit]), "");
        }
    }
}
