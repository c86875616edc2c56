//! `bento_lint` — workspace determinism & safety linter.
//!
//! A self-contained static-analysis pass over the workspace's Rust sources:
//! a hand-rolled lexer ([`lexer`]) strips comments/strings/char-literals,
//! token-stream rules ([`rules`]) flag nondeterminism and safety hazards in
//! one file at a time, and an item-level parser ([`parser`]) feeds a
//! workspace symbol table + call graph ([`workspace`]) for the
//! interprocedural rules. No external parser dependencies, consistent with
//! the offline `vendor/` policy.
//!
//! There is no configuration file: every scope is a `const` beside the rule
//! that reads it, and every finding fails the run.
//!
//! ## Rule catalog
//!
//! | Code  | Checks |
//! |-------|--------|
//! | BL000 | malformed suppression directives |
//! | BL001 | `HashMap`/`HashSet` in [`DETERMINISTIC_CRATES`] |
//! | BL004 | `unsafe` without a preceding `// SAFETY:` comment |
//! | BL005 | `.unwrap()`/`.expect()` in fault-recovery paths |
//! | BL008 | wall-clock / thread-identity sources in [`DETERMINISTIC_CRATES`], where they sit or through calls |
//! | BL010 | panic/`unwrap`/`expect` reachable from the simulator's run loop |
//! | BL011 | stale suppression directives that no longer suppress anything |
//!
//! ## Suppression
//!
//! `// bento-lint: allow(BL001) -- <reason>` silences the named rule(s) on
//! the comment's own line and the next token-bearing line. The reason is
//! mandatory; a directive without one is itself a BL000 diagnostic. BL011
//! audits the directives themselves: one that suppressed nothing this run
//! is stale and fails the build (cover it with `allow(BL011)` — on the same
//! directive or one whose span reaches it — while it is deliberately
//! speculative).
//!
//! ## Test code
//!
//! Everything at or below a file's first `#[cfg(test)]` is test code and is
//! not linted (in this workspace test modules are always the final item of
//! a file). `tests/`, `benches/`, and `vendor/` trees are never scanned.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod parser;
pub mod rules;
pub mod workspace;

use lexer::{lex, Comment, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// The crates (by `crates/<dir>` name) whose code runs inside the
/// simulation: BL001 bans hash-ordered collections here, and BL008 reports
/// a wall-clock or thread-identity source here — where it sits, or at the
/// call that reaches one. The other three crates (`bench`, `telemetry`,
/// `lint`) are host-side tooling and may read the clock.
pub const DETERMINISTIC_CRATES: [&str; 8] = [
    "simnet",
    "tor-net",
    "core",
    "functions",
    "onion-crypto",
    "wfp",
    "conclave",
    "sandbox",
];

pub(crate) fn is_deterministic(crate_name: &str) -> bool {
    DETERMINISTIC_CRATES.contains(&crate_name)
}

/// One finding, ready to print as `file:line:col [code deny] message`.
/// Every finding fails the run; "deny" stays in the output (and in the
/// JSON document) so the `bento-lint/v1` format is unchanged.
#[derive(Debug, Clone)]
pub struct Diag {
    pub code: String,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{} [{} deny] {}",
            self.file, self.line, self.col, self.code, self.message
        )
    }
}

/// Everything the per-file rules need to see.
pub struct FileCtx<'a> {
    pub rel_path: &'a str,
    pub crate_name: &'a str,
    pub toks: &'a [Tok],
    pub comments: &'a [Comment],
    /// Line of the first `#[cfg(test)]`; `u32::MAX` when the file has none.
    /// Diagnostics at or past this line are dropped.
    pub test_cutoff: u32,
}

/// A rule finding before suppression filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDiag {
    pub code: &'static str,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// One parsed suppression directive: which codes it allows, and which
/// source lines it covers (its own + the next token-bearing line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Suppression {
    pub(crate) codes: Vec<String>,
    pub(crate) lines: [u32; 2],
    pub(crate) col: u32,
}

/// Directives that suppressed at least one diagnostic this run, keyed by
/// `(file, directive line)` — the complement is BL011's finding set.
pub(crate) type UsedSet = BTreeSet<(String, u32)>;

/// The result of an analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings that survived suppression, sorted by (file, line, col,
    /// code).
    pub diags: Vec<Diag>,
}

impl Report {
    /// True when any finding survived suppression — the process should
    /// exit non-zero.
    pub fn failed(&self) -> bool {
        !self.diags.is_empty()
    }

    /// Machine-readable findings: schema-versioned, sorted, and a pure
    /// function of the diagnostics (no timestamps, no absolute paths) so
    /// repeated runs are byte-identical.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"bento-lint/v1\",\n");
        s.push_str(&format!(
            "  \"counts\": {{ \"deny\": {}, \"warn\": 0 }},\n",
            self.diags.len()
        ));
        s.push_str("  \"findings\": [");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{ \"file\": \"{}\", \"line\": {}, \"col\": {}, \"code\": \"{}\", \
                 \"severity\": \"deny\", \"message\": \"{}\" }}",
                json_escape(&d.file),
                d.line,
                d.col,
                json_escape(&d.code),
                json_escape(&d.message)
            ));
        }
        if !self.diags.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Streaming analyzer: feed files with [`add_file`](Analyzer::add_file), then
/// [`finish`](Analyzer::finish) to run the cross-file rules (BL008–BL011)
/// and get the sorted report.
#[derive(Default)]
pub struct Analyzer {
    diags: Vec<Diag>,
    /// Per-file suppression tables, kept so `finish` can filter the
    /// cross-file diagnostics too.
    supps: BTreeMap<String, Vec<Suppression>>,
    /// Per-file parsed indexes for the workspace passes.
    files: Vec<workspace::WsFile>,
    /// Per-file test cutoffs, to filter workspace-pass findings.
    cutoffs: BTreeMap<String, u32>,
    /// Directives that earned their keep (BL011 audits the rest).
    used: UsedSet,
}

impl Analyzer {
    /// Lex, lint, and parse one file. `rel_path` is workspace-relative with
    /// `/` separators (used in diagnostics and BL005 scoping); `crate_name`
    /// is the directory under `crates/` (used for per-crate rule scoping).
    /// Suppression and test-region filtering happen here, next to the
    /// directive-usage tracking (BL011) they feed.
    pub fn add_file(&mut self, rel_path: &str, crate_name: &str, src: &str) {
        let lexed = lex(src);
        let test_cutoff = find_test_cutoff(&lexed.toks);
        let (supps, mut raw) = parse_suppressions(&lexed.comments, &lexed.toks);
        let ctx = FileCtx {
            rel_path,
            crate_name,
            toks: &lexed.toks,
            comments: &lexed.comments,
            test_cutoff,
        };
        raw.extend(rules::check_file(&ctx));
        self.supps.insert(rel_path.to_string(), supps);
        self.cutoffs.insert(rel_path.to_string(), test_cutoff);
        for d in raw {
            // BL000 (malformed directive) is never itself suppressible and
            // applies even inside test modules — a broken directive is a
            // hygiene error wherever it sits.
            if d.code != "BL000" {
                if d.line >= test_cutoff {
                    continue;
                }
                if suppressed_mark(&self.supps, &mut self.used, rel_path, d.code, d.line) {
                    continue;
                }
            }
            self.push(d.code, rel_path, d.line, d.col, d.message);
        }
        self.files.push(workspace::WsFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            index: parser::parse_file(&lexed.toks, test_cutoff),
        });
    }

    fn push(&mut self, code: &str, file: &str, line: u32, col: u32, message: String) {
        self.diags.push(Diag {
            code: code.to_string(),
            file: file.to_string(),
            line,
            col,
            message,
        });
    }

    /// Resolve cross-file rules and return the sorted report.
    pub fn finish(mut self) -> Report {
        // Interprocedural passes (BL008, BL010) over the parsed indexes.
        let ws_diags = workspace::check_workspace(&self.files, &self.supps, &mut self.used);
        for d in ws_diags {
            let cutoff = self.cutoffs.get(&d.file).copied().unwrap_or(u32::MAX);
            if d.line >= cutoff {
                continue;
            }
            if suppressed_mark(&self.supps, &mut self.used, &d.file, d.code, d.line) {
                continue;
            }
            self.push(d.code, &d.file, d.line, d.col, d.message);
        }
        self.audit_suppressions();
        self.diags.sort_by(|a, b| {
            (&a.file, a.line, a.col, &a.code).cmp(&(&b.file, b.line, b.col, &b.code))
        });
        Report { diags: self.diags }
    }

    /// BL011: every directive must have suppressed something this run.
    /// A stale one is dead weight that will silently swallow a future real
    /// finding at its site. `allow(BL011)` — on the directive itself or on
    /// one whose covered span reaches its line — exempts it while it is
    /// deliberately speculative, and that cover counts as used.
    fn audit_suppressions(&mut self) {
        let mut candidates: Vec<(String, u32, u32, String)> = Vec::new();
        for (file, list) in &self.supps {
            let cutoff = self.cutoffs.get(file).copied().unwrap_or(u32::MAX);
            for s in list {
                if s.lines[0] >= cutoff {
                    continue; // directives in test regions can never fire
                }
                if self.used.contains(&(file.clone(), s.lines[0])) {
                    continue;
                }
                candidates.push((file.clone(), s.lines[0], s.col, s.codes.join(", ")));
            }
        }
        // Resolution round: an allow(BL011) whose span covers a candidate
        // exempts it and is itself used by doing so.
        let mut covered: BTreeSet<(String, u32)> = BTreeSet::new();
        for (file, line, _, _) in &candidates {
            if let Some(list) = self.supps.get(file) {
                for t in list {
                    if t.codes.iter().any(|c| c == "BL011")
                        && t.lines[0] <= *line
                        && *line <= t.lines[1]
                    {
                        self.used.insert((file.clone(), t.lines[0]));
                        covered.insert((file.clone(), *line));
                    }
                }
            }
        }
        for (file, line, col, codes) in candidates {
            if covered.contains(&(file.clone(), line)) || self.used.contains(&(file.clone(), line))
            {
                continue;
            }
            self.push(
                "BL011",
                &file,
                line,
                col,
                format!(
                    "stale suppression `allow({codes})`: it suppressed nothing this \
                     run — remove it, or add BL011 to the directive while it is \
                     deliberately speculative"
                ),
            );
        }
    }
}

/// Does any directive in `file` cover `(code, line)`? Matching directives
/// are recorded in `used` for the BL011 audit.
pub(crate) fn suppressed_mark(
    supps: &BTreeMap<String, Vec<Suppression>>,
    used: &mut UsedSet,
    file: &str,
    code: &str,
    line: u32,
) -> bool {
    let Some(list) = supps.get(file) else {
        return false;
    };
    let mut hit = false;
    for s in list {
        if s.lines.contains(&line) && s.codes.iter().any(|c| c == code) {
            used.insert((file.to_string(), s.lines[0]));
            hit = true;
        }
    }
    hit
}

/// Line of the first `#[cfg(test)]` token sequence, or `u32::MAX`.
pub(crate) fn find_test_cutoff(toks: &[Tok]) -> u32 {
    for w in toks.windows(5) {
        if w[0].kind == TokKind::Punct
            && w[0].text == "#"
            && w[1].text == "["
            && w[2].text == "cfg"
            && w[3].text == "("
            && w[4].text == "test"
        {
            return w[0].line;
        }
    }
    u32::MAX
}

/// Parse suppression directives out of the comment table. Returns the
/// suppression table plus BL000 diagnostics for malformed directives.
fn parse_suppressions(comments: &[Comment], toks: &[Tok]) -> (Vec<Suppression>, Vec<RawDiag>) {
    let mut supps = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        // Doc comments (`///`, `//!`, `/** … */`, `/*! … */`) quote
        // directives as documentation; only plain comments carry live ones.
        let t = c.text.as_str();
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| t.starts_with(p))
        {
            continue;
        }
        let Some(rest) = c.text.split("bento-lint:").nth(1) else {
            continue;
        };
        match parse_directive(rest) {
            Some(codes) => {
                let next_tok_line = toks
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l > c.line)
                    .unwrap_or(c.line);
                supps.push(Suppression {
                    codes,
                    lines: [c.line, next_tok_line],
                    col: c.col,
                });
            }
            None => diags.push(RawDiag {
                code: "BL000",
                line: c.line,
                col: c.col,
                message: "malformed suppression: expected \
                          `// bento-lint: allow(BLxxx) -- reason`"
                    .to_string(),
            }),
        }
    }
    (supps, diags)
}

/// `" allow(BL001, BL005) -- reason"` → `["BL001", "BL005"]`.
fn parse_directive(rest: &str) -> Option<Vec<String>> {
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let (codes_str, rest) = rest.split_once(')')?;
    let codes: Vec<String> = codes_str.split(',').map(|c| c.trim().to_string()).collect();
    if codes.is_empty() || !codes.iter().all(|c| is_rule_code(c)) {
        return None;
    }
    let rest = rest.trim_start();
    let reason = rest.strip_prefix("--")?.trim();
    if reason.is_empty() {
        return None;
    }
    Some(codes)
}

fn is_rule_code(c: &str) -> bool {
    c.len() == 5 && c.starts_with("BL") && c[2..].bytes().all(|b| b.is_ascii_digit())
}

/// Enumerate the workspace's lintable sources: `(abs path, rel path, crate
/// name)` for every `.rs` under `crates/*/src`, sorted — scan order (and
/// therefore output order) is deterministic.
fn workspace_sources(root: &Path) -> Result<Vec<(PathBuf, String, String)>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();
    let mut out = Vec::new();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let mut files = Vec::new();
        collect_rs(&crate_dir.join("src"), &mut files)?;
        files.sort();
        for f in files {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((f, rel, crate_name.clone()));
        }
    }
    Ok(out)
}

/// Walk `root`'s `crates/*/src` trees (sorted, deterministic) and lint every
/// `.rs` file. This is the whole-workspace entry point shared by the binary
/// and the self-test.
pub fn scan_workspace(root: &Path) -> Result<Report, String> {
    let mut analyzer = Analyzer::default();
    for (path, rel, crate_name) in workspace_sources(root)? {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        analyzer.add_file(&rel, &crate_name, &src);
    }
    Ok(analyzer.finish())
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(crate_name: &str, src: &str) -> Vec<Diag> {
        let mut a = Analyzer::default();
        a.add_file("crates/x/src/lib.rs", crate_name, src);
        a.finish().diags
    }

    #[test]
    fn suppression_covers_own_and_next_line() {
        let src = "\
            // bento-lint: allow(BL001) -- membership-only scratch set\n\
            let m = HashMap::new();\n\
            let n = HashMap::new();\n";
        let diags = run("simnet", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn trailing_suppression_covers_its_own_line() {
        let src = "let m = HashMap::new(); // bento-lint: allow(BL001) -- scratch\n";
        assert!(run("simnet", src).is_empty());
    }

    #[test]
    fn missing_reason_is_bl000() {
        let src = "// bento-lint: allow(BL001)\nlet m = HashMap::new();\n";
        let diags = run("simnet", src);
        let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
        assert!(codes.contains(&"BL000"), "{diags:?}");
        assert!(
            codes.contains(&"BL001"),
            "directive must not suppress: {diags:?}"
        );
    }

    #[test]
    fn test_modules_are_not_linted() {
        let src = "\
            pub fn live() {}\n\
            #[cfg(test)]\n\
            mod tests {\n\
                use std::collections::HashMap;\n\
            }\n";
        assert!(run("tor-net", src).is_empty());
    }

    #[test]
    fn stale_suppression_fires_bl011() {
        // BL001 cannot fire in a non-deterministic crate, so the directive
        // is dead weight.
        let src = "// bento-lint: allow(BL001) -- speculative\nlet x = 1;\n";
        let diags = run("bench", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "BL011");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn live_suppression_is_not_stale() {
        let src = "// bento-lint: allow(BL001) -- scratch only\nlet m = HashMap::new();\n";
        assert!(run("simnet", src).is_empty());
    }

    #[test]
    fn bl011_self_exemption_covers_a_speculative_directive() {
        let src = "// bento-lint: allow(BL001, BL011) -- returns when the map migration lands\n\
             let x = 1;\n";
        assert!(run("bench", src).is_empty());
    }

    #[test]
    fn directives_in_test_regions_are_not_audited() {
        let src = "\
            pub fn live() {}\n\
            #[cfg(test)]\n\
            mod tests {\n\
                // bento-lint: allow(BL001) -- test scratch\n\
                fn t() {}\n\
            }\n";
        assert!(run("simnet", src).is_empty());
    }

    #[test]
    fn json_output_is_stable_and_escaped() {
        let mut a = Analyzer::default();
        a.add_file("crates/x/src/lib.rs", "simnet", "let m = HashMap::new();\n");
        let rep = a.finish();
        let j1 = rep.to_json();
        assert!(j1.contains("\"schema\": \"bento-lint/v1\""));
        assert!(j1.contains("\"code\": \"BL001\""));
        assert!(j1.contains("\"deny\": 1"));
        // Pure function of the diags: re-serializing is byte-identical.
        assert_eq!(j1, rep.to_json());
    }
}
