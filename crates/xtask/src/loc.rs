//! `cargo xtask loc`: line counts of Rust sources outside test code.
//!
//! Over the `.rs` files of a tree it counts `lines`, every line outside
//! `#[cfg(test)]` / `#[test]` items (the spans tidy exempts from its
//! style rules), and `code`, the subset a token touches — blank and
//! comment-only lines excluded.

use std::fs;
use std::io;
use std::path::Path;

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::test_spans;

/// Line counts of a file or a tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Loc {
    /// Lines outside test items.
    pub lines: usize,
    /// Lines outside test items that hold code.
    pub code: usize,
}

impl Loc {
    fn add(&mut self, other: Loc) {
        self.lines += other.lines;
        self.code += other.code;
    }
}

/// The last line `t` covers: string literals may span lines.
fn end_line(t: &Tok) -> usize {
    let newlines = if t.kind == TokKind::Str {
        t.text.matches('\n').count()
    } else {
        0
    };
    t.line as usize + newlines
}

/// Counts one source file.
pub fn count_source(src: &str) -> Loc {
    let lexed = lex(src);
    let total = src.lines().count();
    // Indexed by 1-based line.
    let mut test = vec![false; total + 2];
    for (a, b) in test_spans(&lexed.toks) {
        let last = end_line(&lexed.toks[b - 1]).min(total);
        test[lexed.toks[a].line as usize..=last].fill(true);
    }
    let mut code = vec![false; total + 2];
    for t in &lexed.toks {
        code[t.line as usize..=end_line(t).min(total)].fill(true);
    }
    let outside = (1..=total).filter(|&l| !test[l]);
    Loc {
        lines: outside.clone().count(),
        code: outside.filter(|&l| code[l]).count(),
    }
}

/// Counts every `.rs` file under `dir`, recursively (or `dir` itself,
/// when it is a file).
///
/// # Errors
///
/// Returns an I/O error if the tree cannot be read.
pub fn count_tree(dir: &Path) -> io::Result<Loc> {
    if dir.is_file() {
        return Ok(count_source(&fs::read_to_string(dir)?));
    }
    let mut loc = Loc::default();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            loc.add(count_tree(&path)?);
        } else if path.extension().is_some_and(|e| e == "rs") {
            loc.add(count_source(&fs::read_to_string(&path)?));
        }
    }
    Ok(loc)
}

/// Every crate's `src/` under `root`, sorted: `crates/*/src`, then the
/// root package's `src`.
///
/// # Errors
///
/// Returns an I/O error if `root/crates` cannot be listed.
pub fn crate_dirs(root: &Path) -> io::Result<Vec<String>> {
    let mut dirs = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if root.join("crates").join(&name).join("src").is_dir() {
            dirs.push(format!("crates/{name}/src"));
        }
    }
    dirs.sort();
    if root.join("src").is_dir() {
        dirs.push("src".to_owned());
    }
    Ok(dirs)
}

/// The report: one row per directory (relative to `root`, or
/// absolute), then their total.
///
/// # Errors
///
/// Returns an I/O error if a directory cannot be read.
pub fn report(root: &Path, dirs: &[String]) -> io::Result<String> {
    let width = dirs.iter().map(String::len).max().unwrap_or(0).max(5);
    let mut out = String::new();
    let mut total = Loc::default();
    for dir in dirs {
        let loc = count_tree(&root.join(dir))?;
        total.add(loc);
        out.push_str(&format!(
            "{dir:<width$}  lines {:>6}  code {:>6}\n",
            loc.lines, loc.code
        ));
    }
    out.push_str(&format!(
        "{:<width$}  lines {:>6}  code {:>6}\n",
        "total", total.lines, total.code
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_items_comments_and_blanks_are_not_code() {
        let src = "//! Docs.\n\nfn f() {\n    // note\n    let s = \"a\nb\";\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n#[test]\nfn u() {}\nfn g() {}\n";
        // Lines 1–7 and 14 are outside test items; of those, 3, 5, 6,
        // 7 and 14 hold code.
        assert_eq!(count_source(src), Loc { lines: 8, code: 5 });
    }
}
