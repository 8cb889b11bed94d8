//! Checks on the source tree itself, from one walk of the repository (no
//! build output and no git needed): the public surface nothing else names
//! and the panic sites stay at their settled counts, every file the docs
//! name exists, and the design documents stay within their line bounds.

use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// Public items in `crates/*/src` (the vendored shims aside) whose name no
/// other `.rs` file mentions outside `use` lines and comments. Every one
/// is kept on purpose: a return type or field type of a public function,
/// a scenario-registry entry, a figure's data, the ΔPPL calibration
/// testbed or the EXP unit. Lower this when one goes; settle a new one
/// (delete it, narrow it or call it) instead of raising it.
const PUBLIC_ITEMS_NAMED_NOWHERE_ELSE: usize = 26;

/// `.unwrap()`, `.expect(`, `panic!`, `unreachable!` and `assert*!` calls
/// (`debug_assert*!` aside) in the program's own code: every file under
/// `crates/*/src` (the vendored shims aside) and `src/`, up to the
/// `#[cfg(test)]` that opens its test module, comments aside. Each is a
/// place the program can stop instead of returning an error, so this only
/// goes down: lower it when one goes, and return an error instead of
/// raising it.
const PANIC_SITES: usize = 163;

/// The most lines each document may have. ARCHITECTURE keeps the design
/// and the verify SKILL the commands and gates; a change's measurements go
/// to CHANGES, so neither grows by a log of them.
const DOC_LINE_BOUNDS: [(&str, usize); 2] = [
    ("docs/ARCHITECTURE.md", 600),
    (".claude/skills/verify/SKILL.md", 250),
];

/// One file of the repository: its path from the root with `/`
/// separators, and its text when it is Rust, Markdown, TOML or YAML.
struct Source {
    path: String,
    text: Option<String>,
}

/// Every file outside `target/` and `.git/`, sorted by path, read once for
/// both tests.
fn sources() -> &'static [Source] {
    static SOURCES: OnceLock<Vec<Source>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut files = Vec::new();
        let mut dirs = vec![root.to_path_buf()];
        while let Some(dir) = dirs.pop() {
            for entry in fs::read_dir(&dir).expect("readable directory") {
                let path = entry.expect("readable entry").path();
                if path.is_dir() {
                    if !path.ends_with("target") && !path.ends_with(".git") {
                        dirs.push(path);
                    }
                    continue;
                }
                let relative = path.strip_prefix(root).expect("under the root");
                let text = matches!(
                    path.extension().and_then(|e| e.to_str()),
                    Some("rs" | "md" | "toml" | "yml")
                )
                .then(|| fs::read_to_string(&path).expect("UTF-8 text"));
                files.push(Source {
                    path: relative.to_string_lossy().replace('\\', "/"),
                    text,
                });
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        files
    })
}

/// Every `.rs` file with the code that can name an item: its lines minus
/// `use` lines and comments.
fn rust_code() -> &'static [(String, String)] {
    static CODE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    CODE.get_or_init(|| {
        let rust = sources().iter().filter(|s| s.path.ends_with(".rs"));
        rust.map(|s| {
            let code: Vec<&str> = (s.text.as_deref().expect("read").lines())
                .map(|line| match line.trim_start() {
                    t if t.starts_with("use ") || t.starts_with("pub use ") => "",
                    _ => line.split("//").next().unwrap_or_default(),
                })
                .collect();
            (s.path.clone(), code.join("\n"))
        })
        .collect()
    })
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The name a `pub fn|struct|enum|trait|type|const|static` line declares;
/// `pub(crate)` and narrower are not public.
fn declared_name(line: &str) -> Option<&str> {
    let words = line.trim_start().strip_prefix("pub ")?.split_whitespace();
    let mut words = words.skip_while(|w| matches!(*w, "unsafe" | "async"));
    match words.next()? {
        "const" => match words.next()? {
            "fn" => bare(words.next()?),
            name => bare(name),
        },
        "fn" | "struct" | "enum" | "trait" | "type" | "static" => bare(words.next()?),
        _ => None,
    }
}

/// The identifier a word starts with (`Name<T>(` → `Name`).
fn bare(word: &str) -> Option<&str> {
    let end = word.find(|c: char| !is_ident(c)).unwrap_or(word.len());
    (end > 0).then(|| &word[..end])
}

/// Whether `code` names `name` as a whole word.
fn names(code: &str, name: &str) -> bool {
    code.match_indices(name).any(|(i, _)| {
        !code[..i].ends_with(is_ident) && !code[i + name.len()..].starts_with(is_ident)
    })
}

#[test]
fn the_public_surface_nothing_else_names_stays_settled() {
    let mut lonely = Vec::new();
    for s in sources().iter().filter(|s| s.path.ends_with(".rs")) {
        let parts: Vec<&str> = s.path.split('/').collect();
        if parts.len() < 4 || parts[0] != "crates" || parts[2] != "src" {
            continue;
        }
        for (n, line) in s.text.as_deref().expect("read").lines().enumerate() {
            let Some(name) = declared_name(line) else {
                continue;
            };
            let named_elsewhere = rust_code()
                .iter()
                .any(|(other, code)| *other != s.path && names(code, name));
            if !named_elsewhere {
                lonely.push(format!("{}:{}: {name}", s.path, n + 1));
            }
        }
    }
    assert_eq!(
        lonely.len(),
        PUBLIC_ITEMS_NAMED_NOWHERE_ELSE,
        "public items no other file names:\n{}",
        lonely.join("\n")
    );
}

/// The panic sites [`PANIC_SITES`] counts on one line of code.
fn panic_sites(code: &str) -> usize {
    let macros = code.match_indices('!').filter(|&(at, _)| {
        let before = &code[..at];
        let start = (before.char_indices().rev())
            .find(|&(_, c)| !is_ident(c))
            .map_or(0, |(i, c)| i + c.len_utf8());
        let word = &before[start..];
        matches!(word, "panic" | "unreachable") || word.starts_with("assert")
    });
    code.matches(".unwrap()").count() + code.matches(".expect(").count() + macros.count()
}

#[test]
fn the_panic_sites_outside_tests_only_go_down() {
    let mut sites = Vec::new();
    for s in sources().iter().filter(|s| s.path.ends_with(".rs")) {
        let parts: Vec<&str> = s.path.split('/').collect();
        if !(parts[0] == "src" || parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src") {
            continue;
        }
        let lines: Vec<&str> = s.text.as_deref().expect("read").lines().collect();
        for (n, line) in lines.iter().enumerate() {
            let next = lines.get(n + 1).map_or("", |l| l.trim_start());
            if line.trim() == "#[cfg(test)]" && next.starts_with("mod ") {
                break;
            }
            let code = line.split("//").next().unwrap_or_default();
            sites.extend((0..panic_sites(code)).map(|_| format!("{}:{}", s.path, n + 1)));
        }
    }
    assert_eq!(
        sites.len(),
        PANIC_SITES,
        "panic sites outside test modules:\n{}",
        sites.join("\n")
    );
}

/// The `.rs` / `.md` / `.toml` / `.yml` file names and paths a document
/// mentions, each with the line number a `file.rs:N` reference gives.
/// Absolute paths (`/tmp/…`) and `benchmark/out/` are outputs, not
/// sources; JSON and trace files are never collected.
fn file_references(text: &str) -> Vec<(&str, Option<usize>)> {
    let in_path = |c: char| is_ident(c) || matches!(c, '.' | '/' | '-');
    let mut refs = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find(in_path) {
        let run = &rest[start..];
        let len = run.find(|c: char| !in_path(c)).unwrap_or(run.len());
        let token = run[..len].trim_end_matches(['.', '-']);
        let after = &run[len..];
        rest = after;
        let Some(stem) = [".rs", ".md", ".toml", ".yml"]
            .iter()
            .find_map(|ext| token.strip_suffix(ext))
        else {
            continue;
        };
        if !stem.ends_with(is_ident) || token.starts_with('/') {
            continue;
        }
        let token = token.trim_start_matches("./");
        if token.starts_with("benchmark/out/") {
            continue;
        }
        let line = after.strip_prefix(':').and_then(|s| {
            let digits = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
            s[..digits].parse().ok()
        });
        refs.push((token, line));
    }
    refs
}

#[test]
fn every_file_the_docs_name_exists() {
    let docs = sources().iter().filter(|s| {
        (s.path.starts_with("docs/") && s.path.ends_with(".md"))
            || s.path == "README.md"
            || s.path == ".claude/skills/verify/SKILL.md"
    });
    let (mut checked, mut broken) = (0, Vec::new());
    for doc in docs {
        for (reference, line) in file_references(doc.text.as_deref().expect("read")) {
            checked += 1;
            let resolves = sources().iter().any(|s| {
                let named = if reference.contains('/') {
                    s.path == reference || s.path.ends_with(&format!("/{reference}"))
                } else {
                    s.path.rsplit('/').next() == Some(reference)
                };
                named
                    && line.is_none_or(|n| s.text.as_ref().is_some_and(|t| t.lines().count() >= n))
            });
            if !resolves {
                let at = line.map(|n| format!(":{n}")).unwrap_or_default();
                broken.push(format!("{}: {reference}{at}", doc.path));
            }
        }
    }
    assert!(checked > 0, "no file references found in the docs");
    assert!(
        broken.is_empty(),
        "docs name files that do not exist:\n{}",
        broken.join("\n")
    );
}

#[test]
fn the_design_docs_stay_within_their_line_bounds() {
    for (path, bound) in DOC_LINE_BOUNDS {
        let doc = sources().iter().find(|s| s.path == path);
        let text = doc.and_then(|s| s.text.as_deref());
        let lines = text
            .unwrap_or_else(|| panic!("{path} is missing"))
            .lines()
            .count();
        assert!(
            lines <= bound,
            "{path} has {lines} lines, over its bound of {bound}: move measurements to CHANGES"
        );
    }
}
