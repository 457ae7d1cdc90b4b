//! Plain-text serialisation of task trees.
//!
//! The format is deliberately trivial so corpora can be inspected, diffed
//! and regenerated without extra dependencies:
//!
//! ```text
//! # memtree v1          (comment lines start with '#')
//! 5                      (node count)
//! -1 0 5 1.0             (per node: parent exec output time; -1 = root)
//! 0 1 6 1.0
//! ...
//! ```
//!
//! Nodes appear in id order; the `i`-th data line describes node `i`.
//!
//! The parser is **strict**: exactly `n` node lines of exactly four
//! fields each, and nothing but comments or blank lines after them. A
//! tree document crosses process boundaries (the shard-worker wire
//! protocol frames subtrees in this format), where a concatenated file,
//! a wrong node count or a stray field is silent corruption if accepted
//! — all three are hard [`TreeError::Parse`] errors.

use crate::error::TreeError;
use crate::node::{NodeId, TaskSpec};
use crate::tree::TaskTree;
use crate::Result;
use std::io::{BufRead, Write};

/// Magic header written at the top of every file.
pub const HEADER: &str = "# memtree v1";

/// Serialises `tree` to `w` in the v1 text format.
pub fn write_tree<W: Write>(tree: &TaskTree, w: &mut W) -> Result<()> {
    writeln!(w, "{HEADER}")?;
    writeln!(w, "{}", tree.len())?;
    for i in tree.nodes() {
        let p = tree.parent(i).map_or(-1i64, |p| p.index() as i64);
        let s = tree.spec(i);
        writeln!(w, "{} {} {} {}", p, s.exec, s.output, s.time)?;
    }
    Ok(())
}

/// Serialises `tree` to an in-memory string.
pub fn tree_to_string(tree: &TaskTree) -> String {
    let mut buf = Vec::new();
    write_tree(tree, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("format is ASCII")
}

/// Parses a tree from `r` in the v1 text format: reads it to the end,
/// then [`tree_from_str`].
pub fn read_tree<R: BufRead>(r: &mut R) -> Result<TaskTree> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    tree_from_str(&text)
}

/// Parses a tree from a string in the v1 text format. Lines are borrowed
/// slices of `s`, and error messages are only formatted for the error
/// returned.
pub fn tree_from_str(s: &str) -> Result<TaskTree> {
    let parse_error = |line, msg: String| TreeError::Parse { line, msg };
    // (1-based line number, trimmed text) of every non-comment line.
    let mut data_lines = s.lines().enumerate().filter_map(|(no, line)| {
        let line = line.trim();
        (!line.is_empty() && !line.starts_with('#')).then_some((no + 1, line))
    });

    let (no, count) = data_lines
        .next()
        .ok_or_else(|| parse_error(0, "missing node count".into()))?;
    let n: usize = count
        .parse()
        .map_err(|_| parse_error(no, format!("bad node count {count:?}")))?;

    let mut builder = crate::builder::TreeBuilder::with_capacity(n.min(s.len()));
    for _ in 0..n {
        let (no, line) = data_lines
            .next()
            .ok_or_else(|| parse_error(0, format!("expected {n} node lines")))?;
        let mut fields = line.split_whitespace();
        let parent: i64 = next_field(&mut fields, no, "parent", "bad parent")?;
        let exec: u64 = next_field(&mut fields, no, "exec", "bad exec size")?;
        let output: u64 = next_field(&mut fields, no, "output", "bad output size")?;
        let time: f64 = next_field(&mut fields, no, "time", "bad time")?;
        if let Some(extra) = fields.next() {
            return Err(parse_error(
                no,
                format!("unexpected extra field {extra:?} after the four node fields"),
            ));
        }
        // Negative is the root; an id must fit a `NodeId`, or it would wrap.
        let parent = (parent >= 0)
            .then(|| u32::try_from(parent).map(NodeId))
            .transpose()
            .map_err(|_| parse_error(no, "bad parent".into()))?;
        builder.push(parent, TaskSpec { exec, output, time });
    }
    // After the declared node count only comments and blank lines may
    // follow. Anything else means the count was wrong or two documents
    // were concatenated — either way the tree just parsed does not
    // describe the input, so reject it.
    if let Some((no, line)) = data_lines.next() {
        return Err(parse_error(
            no,
            format!("unexpected data {line:?} after the declared {n} node lines"),
        ));
    }
    builder.build()
}

/// The next field of node line `no`, parsed; `bad` is the message when it
/// does not parse.
fn next_field<T: std::str::FromStr>(
    fields: &mut std::str::SplitWhitespace<'_>,
    no: usize,
    name: &str,
    bad: &str,
) -> Result<T> {
    let text = fields.next().ok_or_else(|| TreeError::Parse {
        line: no,
        msg: format!("missing field {name}"),
    })?;
    text.parse().map_err(|_| TreeError::Parse {
        line: no,
        msg: bad.into(),
    })
}

/// Adds the file path to an error raised while reading or writing it:
/// I/O failures and parse errors alike must name the offending file —
/// a worker handshake that dies on a bare "permission denied" with no
/// path is undebuggable.
fn with_path(e: TreeError, path: &std::path::Path) -> TreeError {
    match e {
        TreeError::Io(msg) => TreeError::Io(format!("{}: {msg}", path.display())),
        TreeError::Parse { line, msg } => TreeError::Parse {
            line,
            msg: format!("{}: {msg}", path.display()),
        },
        other => other,
    }
}

/// Writes `tree` to the file at `path`. Failures name `path`.
pub fn save_tree(tree: &TaskTree, path: &std::path::Path) -> Result<()> {
    let save = || -> Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        write_tree(tree, &mut w)?;
        w.flush()?;
        Ok(())
    };
    save().map_err(|e| with_path(e, path))
}

/// Reads a tree from the file at `path`. Failures name `path`.
pub fn load_tree(path: &std::path::Path) -> Result<TaskTree> {
    let load = || -> Result<TaskTree> {
        let file = std::fs::File::open(path)?;
        read_tree(&mut std::io::BufReader::new(file))
    };
    load().map_err(|e| with_path(e, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeId, TaskSpec};

    fn sample() -> TaskTree {
        TaskTree::from_parents(
            &[None, Some(0), Some(0), Some(1)],
            &[
                TaskSpec::new(1, 5, 1.5),
                TaskSpec::new(2, 6, 2.0),
                TaskSpec::new(3, 7, 0.25),
                TaskSpec::new(4, 8, 10.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let s = tree_to_string(&t);
        assert!(s.starts_with(HEADER));
        let t2 = tree_from_str(&s).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# a comment\n2\n\n# another\n-1 0 3 1\n0 0 4 2\n";
        let t = tree_from_str(text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.output(NodeId(1)), 4);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(matches!(tree_from_str(""), Err(TreeError::Parse { .. })));
        assert!(matches!(tree_from_str("abc"), Err(TreeError::Parse { .. })));
        assert!(matches!(
            tree_from_str("2\n-1 0 3 1\n"),
            Err(TreeError::Parse { .. })
        ));
        assert!(matches!(
            tree_from_str("1\n-1 0 3\n"),
            Err(TreeError::Parse { .. })
        ));
        assert!(matches!(
            tree_from_str("1\n-1 x 3 1\n"),
            Err(TreeError::Parse { .. })
        ));
    }

    #[test]
    fn trailing_data_after_the_node_count_is_rejected() {
        // One declared node, two node lines: the classic concatenated-file
        // / wrong-count corruption. Must be a parse error, not a silently
        // truncated tree.
        let err = tree_from_str("1\n-1 0 3 1\n0 0 4 2\n").unwrap_err();
        match err {
            TreeError::Parse { line, msg } => {
                assert_eq!(line, 3);
                assert!(msg.contains("after the declared 1 node lines"), "{msg}");
            }
            other => panic!("expected Parse, got {other}"),
        }
        // Two concatenated well-formed documents are rejected too.
        let doc = tree_to_string(&sample());
        let twice = format!("{doc}{doc}");
        assert!(matches!(
            tree_from_str(&twice),
            Err(TreeError::Parse { .. })
        ));
        // Trailing comments and blank lines stay legal.
        let t = tree_from_str("1\n-1 0 3 1\n\n# trailing comment\n\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn extra_fields_on_a_node_line_are_rejected() {
        let err = tree_from_str("1\n-1 0 3 1 99\n").unwrap_err();
        match err {
            TreeError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("extra field"), "{msg}");
                assert!(msg.contains("99"), "{msg}");
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn off_by_one_node_count_is_rejected_both_ways() {
        // Count says 2, input has 1: missing-line error (pre-existing).
        assert!(matches!(
            tree_from_str("2\n-1 0 3 1\n"),
            Err(TreeError::Parse { .. })
        ));
        // Count says 1, input has 2: trailing-data error (the fixed half).
        assert!(matches!(
            tree_from_str("1\n-1 0 3 1\n0 0 4 2\n"),
            Err(TreeError::Parse { .. })
        ));
    }

    #[test]
    fn file_errors_name_the_offending_path() {
        let dir = std::env::temp_dir().join("memtree-io-path-test");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("does-not-exist.tree");
        let err = load_tree(&missing).unwrap_err();
        assert!(
            err.to_string().contains("does-not-exist.tree"),
            "load error must name the path: {err}"
        );
        // A parse failure inside an existing file names it too.
        let corrupt = dir.join("corrupt.tree");
        std::fs::write(&corrupt, "1\n-1 0 3 1 extra\n").unwrap();
        let err = load_tree(&corrupt).unwrap_err();
        assert!(matches!(err, TreeError::Parse { .. }), "got {err}");
        assert!(
            err.to_string().contains("corrupt.tree"),
            "parse error must name the path: {err}"
        );
        // Writing into a missing directory names the target path.
        let unwritable = dir.join("no-such-dir").join("out.tree");
        let err = save_tree(&sample(), &unwritable).unwrap_err();
        assert!(
            err.to_string().contains("out.tree"),
            "save error must name the path: {err}"
        );
        std::fs::remove_file(&corrupt).ok();
    }

    #[test]
    fn parent_ids_beyond_u32_are_rejected_not_wrapped() {
        // 2^32 would wrap to node 0 and parse as a valid two-node tree.
        let err = tree_from_str("2\n-1 0 3 1\n4294967296 0 4 2\n").unwrap_err();
        assert_eq!(
            err,
            TreeError::Parse {
                line: 3,
                msg: "bad parent".into()
            }
        );
    }

    #[test]
    fn structural_errors_surface() {
        // Two roots.
        let text = "2\n-1 0 3 1\n-1 0 4 2\n";
        assert!(matches!(
            tree_from_str(text),
            Err(TreeError::MultipleRoots(..))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let t = sample();
        let dir = std::env::temp_dir().join("memtree-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.tree");
        save_tree(&t, &path).unwrap();
        let t2 = load_tree(&path).unwrap();
        assert_eq!(t, t2);
        std::fs::remove_file(&path).ok();
    }
}
