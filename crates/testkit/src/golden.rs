//! Golden-file conformance: byte-for-byte comparison of canonical reports.
//!
//! Golden files live under `tests/goldens/` at the workspace root and pin
//! the exact serialized output of deterministic pipeline runs. A test
//! renders its report to a string (canonical TSV with fixed float
//! formatting, so the bytes are stable across platforms) and calls
//! [`assert_golden`]; any drift fails with a line-level diff.
//!
//! To (re)record goldens after an intentional behaviour change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p sleepwatch-testkit
//! ```
//!
//! then review the diff under `tests/goldens/` like any other code change.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Directory holding the golden files (`<workspace>/tests/goldens`).
pub fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

/// True when the suite runs in regeneration mode (`UPDATE_GOLDENS=1`).
pub fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDENS").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Compares `content` byte-for-byte against the golden file `name`.
///
/// With `UPDATE_GOLDENS=1` the file is rewritten instead (and the test
/// passes); otherwise the first differing line is reported, along with
/// instructions to regenerate.
///
/// # Panics
///
/// Panics (failing the calling test) when the golden is missing or stale.
pub fn assert_golden(name: &str, content: &str) {
    let path = goldens_dir().join(name);
    if updating() {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).expect("create goldens dir");
        }
        fs::write(&path, content).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("recorded golden {name} ({} bytes)", content.len());
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); record it with UPDATE_GOLDENS=1 cargo test",
            path.display()
        )
    });
    if want != content {
        panic!("{}", diff_message(name, &want, content));
    }
}

/// Builds the failure message for a golden mismatch: sizes, the first
/// differing line and the regeneration command.
fn diff_message(name: &str, want: &str, got: &str) -> String {
    let mut msg = String::new();
    let _ = writeln!(
        msg,
        "golden mismatch for {name}: expected {} bytes, got {} bytes",
        want.len(),
        got.len()
    );
    let mut want_lines = want.lines();
    let mut got_lines = got.lines();
    let mut line_no = 0usize;
    loop {
        line_no += 1;
        match (want_lines.next(), got_lines.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (Some(w), Some(g)) => {
                let _ = writeln!(msg, "first difference at line {line_no}:");
                let _ = writeln!(msg, "  golden: {w}");
                let _ = writeln!(msg, "  actual: {g}");
            }
            (Some(w), None) => {
                let _ = writeln!(msg, "actual output ends early; golden line {line_no}: {w}");
            }
            (None, Some(g)) => {
                let _ = writeln!(msg, "actual output has extra line {line_no}: {g}");
            }
            (None, None) => {
                let _ = writeln!(msg, "contents differ only in trailing bytes");
            }
        }
        break;
    }
    let _ = write!(
        msg,
        "if the change is intentional, regenerate with UPDATE_GOLDENS=1 cargo test \
         and review the diff under tests/goldens/"
    );
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_message_pinpoints_first_divergence() {
        let m = diff_message("x.tsv", "a\nb\nc\n", "a\nB\nc\n");
        assert!(m.contains("line 2"), "{m}");
        assert!(m.contains("golden: b"), "{m}");
        assert!(m.contains("actual: B"), "{m}");
        assert!(m.contains("UPDATE_GOLDENS=1"), "{m}");
    }

    #[test]
    fn diff_message_handles_truncation() {
        let m = diff_message("x.tsv", "a\nb\n", "a\n");
        assert!(m.contains("ends early"), "{m}");
        let m2 = diff_message("x.tsv", "a\n", "a\nb\n");
        assert!(m2.contains("extra line"), "{m2}");
    }

    #[test]
    fn goldens_dir_is_inside_workspace() {
        let d = goldens_dir();
        assert!(d.ends_with("tests/goldens"), "{}", d.display());
    }
}
