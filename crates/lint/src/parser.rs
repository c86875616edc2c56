//! Item-level parser over the token stream — the workspace analyzer's front
//! end.
//!
//! This is deliberately **not** a Rust grammar. One linear pass over the
//! lexed tokens recovers just the structure the interprocedural rules
//! (BL008, BL010) need:
//!
//! * `fn` items, attributed to their `impl` type when inside one;
//! * `use` declarations (for resolving cross-crate call paths);
//! * call expressions inside each function body — plain calls, path calls,
//!   and method calls (with a `self.`-receiver flag);
//! * nondeterminism source tokens (wall clock, thread identity/parallelism,
//!   hash-ordered collections) — BL008's taint seeds, and the one token
//!   table the workspace has for them;
//! * panic sites (`panic!`/`unreachable!`/`todo!`, `.unwrap()`, `.expect()`).
//!
//! Function items at or past the file's `#[cfg(test)]` cutoff are not
//! indexed — test code is outside the lint contract.

use crate::lexer::{Tok, TokKind};

/// A `use` alias: the name a path is bound to in this file, and the full
/// path it expands to. `use a::b::c;` binds `c → [a, b, c]`;
/// `use a::b as x;` binds `x → [a, b]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseAlias {
    pub alias: String,
    pub path: Vec<String>,
}

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(..)` or `path::to::foo(..)`.
    Path,
    /// `recv.foo(..)`; `recv_self` tells whether `recv` is exactly `self`.
    Method,
}

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    pub kind: CallKind,
    /// Path segments as written (`["shard", "run_window"]`); method calls
    /// carry just the method name.
    pub path: Vec<String>,
    /// Method calls only: receiver is literally `self`.
    pub recv_self: bool,
    pub line: u32,
    pub col: u32,
}

/// What kind of nondeterminism a source token leaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    WallClock,
    ThreadId,
    HashOrder,
}

impl SourceKind {
    pub fn label(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall-clock",
            SourceKind::ThreadId => "thread-identity",
            SourceKind::HashOrder => "hash-order",
        }
    }

    /// The single-file rule that already reports this source kind where it
    /// sits, if any (BL008 reports the others there itself). A reasoned
    /// suppression of that rule at the source line also stops BL008 from
    /// seeding taint there.
    pub fn single_file_rule(self) -> Option<&'static str> {
        match self {
            SourceKind::HashOrder => Some("BL001"),
            SourceKind::WallClock | SourceKind::ThreadId => None,
        }
    }
}

/// A nondeterminism source token inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSite {
    pub kind: SourceKind,
    pub token: String,
    pub line: u32,
    pub col: u32,
}

/// A potential panic inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// `panic!`, `unreachable!`, `todo!`, `unwrap`, or `expect`.
    pub what: String,
    pub line: u32,
    pub col: u32,
}

/// One parsed function item.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnInfo {
    pub name: String,
    /// The `impl` type the function belongs to, or empty for free functions.
    pub self_ty: String,
    pub line: u32,
    pub col: u32,
    pub calls: Vec<CallSite>,
    pub sources: Vec<SourceSite>,
    pub panics: Vec<PanicSite>,
}

impl FnInfo {
    /// `Type::name` for methods, bare `name` for free functions.
    pub fn qual_name(&self) -> String {
        if self.self_ty.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.self_ty, self.name)
        }
    }
}

/// Everything the workspace passes need from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileIndex {
    pub fns: Vec<FnInfo>,
    pub uses: Vec<UseAlias>,
}

const WALL_CLOCK: [&str; 2] = ["Instant", "SystemTime"];
const THREAD_ID: [&str; 2] = ["available_parallelism", "ThreadId"];
/// Idents that construct or name the hash-ordered collections (BL001 bans
/// every mention of them in a deterministic crate).
pub(crate) const HASH_ORDER: [&str; 2] = ["HashMap", "HashSet"];
const PANIC_MACROS: [&str; 3] = ["panic", "unreachable", "todo"];
/// Keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "let", "fn",
];

/// A function item currently open in the linear pass.
struct OpenFn {
    info: FnInfo,
    body_depth: u32,
}

/// Parse one file's token stream into its [`FileIndex`]. `test_cutoff` is
/// the line of the first `#[cfg(test)]` ([`crate::find_test_cutoff`]);
/// functions at or past it are skipped.
pub fn parse_file(toks: &[Tok], test_cutoff: u32) -> FileIndex {
    let mut out = FileIndex::default();
    let mut depth: u32 = 0;
    // (self type, depth at the `impl` keyword).
    let mut impl_stack: Vec<(String, u32)> = Vec::new();
    let mut fn_stack: Vec<OpenFn> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                i += 1;
            }
            (TokKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                // Close any function whose body just ended.
                while fn_stack.last().is_some_and(|f| f.body_depth > depth) {
                    let f = fn_stack.pop().unwrap_or_else(|| unreachable!());
                    out.fns.push(f.info);
                }
                while impl_stack.last().is_some_and(|(_, d)| *d >= depth) {
                    impl_stack.pop();
                }
                i += 1;
            }
            (TokKind::Ident, "use") if fn_stack.is_empty() => {
                i = parse_use(toks, i + 1, &mut out.uses);
            }
            (TokKind::Ident, "impl") => {
                let (ty, next) = parse_impl_header(toks, i + 1);
                // Depth recorded *before* the `{` bumps it; popped when the
                // block closes back to this depth.
                impl_stack.push((ty, depth));
                i = next;
            }
            (TokKind::Ident, "fn") => {
                if let Some((name, line, col, body_start)) = parse_fn_header(toks, i + 1) {
                    if line >= test_cutoff {
                        // Test code: skip the whole signature; the body (if
                        // any) is walked purely for depth.
                        i = body_start;
                        continue;
                    }
                    let self_ty = impl_stack
                        .last()
                        .map(|(ty, _)| ty.clone())
                        .unwrap_or_default();
                    if body_start < toks.len() && toks[body_start].text == "{" {
                        fn_stack.push(OpenFn {
                            info: FnInfo {
                                name,
                                self_ty,
                                line,
                                col,
                                ..FnInfo::default()
                            },
                            // The `{` itself is processed by the main loop.
                            body_depth: depth + 1,
                        });
                    }
                    i = body_start;
                } else {
                    i += 1;
                }
            }
            _ => {
                if let Some(f) = fn_stack.last_mut() {
                    i = scan_body_token(toks, i, &mut f.info);
                } else {
                    i += 1;
                }
            }
        }
    }
    // Unterminated file: close anything still open.
    while let Some(f) = fn_stack.pop() {
        out.fns.push(f.info);
    }
    out
}

/// `use a::b::{c, d as e};` — record every bound alias. Returns the index
/// past the terminating `;`.
fn parse_use(toks: &[Tok], mut i: usize, out: &mut Vec<UseAlias>) -> usize {
    let mut prefix: Vec<String> = Vec::new();
    let mut group: Vec<(Vec<String>, Option<String>)> = Vec::new();
    let mut cur: Vec<String> = Vec::new();
    let mut alias: Option<String> = None;
    let mut in_group = false;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, ";") => {
                i += 1;
                break;
            }
            (TokKind::Punct, "{") if !in_group => {
                in_group = true;
                prefix = std::mem::take(&mut cur);
                i += 1;
            }
            (TokKind::Punct, "{") => {
                // Nested groups: too rare to model; skip to the end of the
                // statement without recording anything from it.
                let mut d = 1;
                i += 1;
                while i < toks.len() && d > 0 {
                    match toks[i].text.as_str() {
                        "{" => d += 1,
                        "}" => d -= 1,
                        _ => {}
                    }
                    i += 1;
                }
            }
            (TokKind::Punct, "}") => {
                if !cur.is_empty() {
                    group.push((std::mem::take(&mut cur), alias.take()));
                }
                i += 1;
            }
            (TokKind::Punct, ",") if in_group => {
                if !cur.is_empty() {
                    group.push((std::mem::take(&mut cur), alias.take()));
                }
                i += 1;
            }
            (TokKind::Ident, "as") => {
                if i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
                    alias = Some(toks[i + 1].text.clone());
                    i += 2;
                } else {
                    i += 1;
                }
            }
            (TokKind::Ident, _) => {
                cur.push(t.text.clone());
                i += 1;
            }
            _ => i += 1,
        }
    }
    let mut push = |segs: Vec<String>, alias: Option<String>| {
        if segs.is_empty() {
            return;
        }
        let last = segs.last().cloned().unwrap_or_default();
        let name = alias.unwrap_or(last);
        // `use x::*` has no bindable name; `self` re-exports the prefix.
        if name == "*" {
            return;
        }
        out.push(UseAlias {
            alias: name,
            path: segs,
        });
    };
    if in_group {
        if !cur.is_empty() {
            group.push((cur, alias));
        }
        for (segs, a) in group {
            let mut full = prefix.clone();
            if segs.len() == 1 && segs[0] == "self" {
                push(full, a);
                continue;
            }
            full.extend(segs);
            push(full, a);
        }
    } else {
        push(cur, alias);
    }
    i
}

/// After the `impl` keyword: find the self type and the index of the `{`
/// that opens the impl body (or of whatever ended the header).
fn parse_impl_header(toks: &[Tok], mut i: usize) -> (String, usize) {
    let mut angle = 0i32;
    let mut first_ty: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") | (TokKind::Punct, ";") => break,
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") => angle -= 1,
            (TokKind::Ident, "for") if angle == 0 => saw_for = true,
            (TokKind::Ident, "dyn") | (TokKind::Ident, "mut") => {}
            (TokKind::Ident, _) if angle == 0 => {
                if saw_for {
                    if after_for.is_none() {
                        after_for = Some(t.text.clone());
                    }
                } else if first_ty.is_none() {
                    first_ty = Some(t.text.clone());
                } else {
                    // Module-qualified type path: keep the last segment.
                    if toks.get(i.wrapping_sub(1)).is_some_and(|p| p.text == ":") {
                        first_ty = Some(t.text.clone());
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    let ty = after_for.or(first_ty).unwrap_or_default();
    (ty, i)
}

/// After the `fn` keyword: the function name and the index of its body `{`
/// (or of the `;` for bodyless trait methods). `None` if no name follows.
fn parse_fn_header(toks: &[Tok], i: usize) -> Option<(String, u32, u32, usize)> {
    let name_tok = toks.get(i)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut j = i + 1;
    let mut paren = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "{" if paren == 0 => break,
            ";" if paren == 0 => break,
            _ => {}
        }
        j += 1;
    }
    Some((name_tok.text.clone(), name_tok.line, name_tok.col, j))
}

/// Process one token inside a function body; returns the next index.
fn scan_body_token(toks: &[Tok], i: usize, f: &mut FnInfo) -> usize {
    let t = &toks[i];
    // `.method(` — panic adapter or method call.
    if t.kind == TokKind::Punct && t.text == "." {
        if let (Some(m), Some(p)) = (toks.get(i + 1), toks.get(i + 2)) {
            if m.kind == TokKind::Ident && p.text == "(" {
                let name = m.text.as_str();
                if name == "unwrap" || name == "expect" {
                    f.panics.push(PanicSite {
                        what: name.to_string(),
                        line: m.line,
                        col: m.col,
                    });
                    return i + 3;
                }
                let recv = receiver_chain_raw(toks, i);
                f.calls.push(CallSite {
                    kind: CallKind::Method,
                    path: vec![name.to_string()],
                    recv_self: recv.as_deref() == Some("self"),
                    line: m.line,
                    col: m.col,
                });
                return i + 3;
            }
        }
        return i + 1;
    }
    if t.kind == TokKind::Ident {
        // Source tokens (recorded wherever they appear in the body).
        let kind = if WALL_CLOCK.contains(&t.text.as_str()) {
            Some(SourceKind::WallClock)
        } else if THREAD_ID.contains(&t.text.as_str()) {
            Some(SourceKind::ThreadId)
        } else if HASH_ORDER.contains(&t.text.as_str()) {
            Some(SourceKind::HashOrder)
        } else {
            None
        };
        if let Some(kind) = kind {
            f.sources.push(SourceSite {
                kind,
                token: t.text.clone(),
                line: t.line,
                col: t.col,
            });
        }
        // Macro invocation: `name ! (`.
        if toks.get(i + 1).is_some_and(|n| n.text == "!")
            && toks
                .get(i + 2)
                .is_some_and(|n| matches!(n.text.as_str(), "(" | "[" | "{"))
        {
            if PANIC_MACROS.contains(&t.text.as_str()) {
                f.panics.push(PanicSite {
                    what: format!("{}!", t.text),
                    line: t.line,
                    col: t.col,
                });
            }
            return i + 2;
        }
        // Plain or path call: `seg::seg::name(` where the previous token is
        // not `.` (method) and the name is not a keyword or macro.
        if toks.get(i + 1).is_some_and(|n| n.text == "(")
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
        {
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            if prev != Some(".") && prev != Some("!") {
                f.calls.push(CallSite {
                    kind: CallKind::Path,
                    path: path_chain(toks, i),
                    recv_self: false,
                    line: t.line,
                    col: t.col,
                });
            }
        }
    }
    i + 1
}

/// The raw (unnormalized) single receiver segment right before a `.method(`,
/// used only to detect `self.method(..)` calls.
fn receiver_chain_raw(toks: &[Tok], dot: usize) -> Option<String> {
    let p = toks.get(dot.checked_sub(1)?)?;
    (p.kind == TokKind::Ident).then(|| p.text.clone())
}

/// The `::`-separated path ending at the ident at `i`.
fn path_chain(toks: &[Tok], i: usize) -> Vec<String> {
    let mut segs = vec![toks[i].text.clone()];
    let mut j = i;
    while j >= 2
        && toks[j - 1].kind == TokKind::Punct
        && toks[j - 1].text == ":"
        && toks[j - 2].kind == TokKind::Punct
        && toks[j - 2].text == ":"
    {
        if j >= 3 && toks[j - 3].kind == TokKind::Ident {
            segs.push(toks[j - 3].text.clone());
            j -= 3;
        } else {
            break;
        }
    }
    segs.reverse();
    segs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileIndex {
        let lexed = lex(src);
        parse_file(&lexed.toks, u32::MAX)
    }

    #[test]
    fn fns_and_impls_are_indexed() {
        let idx = parse(
            "pub fn free() {}\n\
             impl<'a> Widget<'a> { fn method(&self) {} }\n\
             impl fmt::Display for Gadget { fn fmt(&self) {} }\n",
        );
        let quals: Vec<String> = idx.fns.iter().map(|f| f.qual_name()).collect();
        assert_eq!(quals, ["free", "Widget::method", "Gadget::fmt"]);
    }

    #[test]
    fn use_aliases_expand_groups_and_renames() {
        let idx = parse("use a::b::{c, d as e};\nuse x::y;\nfn f() {}\n");
        let c = idx.uses.iter().find(|u| u.alias == "c").expect("c");
        assert_eq!(c.path, ["a", "b", "c"]);
        let e = idx.uses.iter().find(|u| u.alias == "e").expect("e");
        assert_eq!(e.path, ["a", "b", "d"]);
        let y = idx.uses.iter().find(|u| u.alias == "y").expect("y");
        assert_eq!(y.path, ["x", "y"]);
    }

    #[test]
    fn calls_are_classified() {
        let idx = parse(
            "fn f() { helper(); shard::run(); Engine::go(); self.step(); x.tick(); }\n\
             impl E { fn g(&self) { self.step(); } }\n",
        );
        let f = &idx.fns[0];
        let paths: Vec<String> = f.calls.iter().map(|c| c.path.join("::")).collect();
        assert_eq!(
            paths,
            ["helper", "shard::run", "Engine::go", "step", "tick"]
        );
        assert!(f.calls[3].recv_self);
        assert!(!f.calls[4].recv_self);
    }

    #[test]
    fn panics_and_sources_are_recorded() {
        let idx = parse(
            "fn f() {\n\
                 let t = Instant::now();\n\
                 let n = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);\n\
                 x.unwrap();\n\
                 y.expect(\"why\");\n\
                 panic!(\"boom\");\n\
             }\n",
        );
        let f = &idx.fns[0];
        let kinds: Vec<SourceKind> = f.sources.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [SourceKind::WallClock, SourceKind::ThreadId]);
        let whats: Vec<&str> = f.panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(whats, ["unwrap", "expect", "panic!"]);
    }

    #[test]
    fn unwrap_or_is_not_a_panic() {
        let idx = parse("fn f() { x.unwrap_or(1); y.unwrap_or_else(|| 2); }\n");
        assert!(idx.fns[0].panics.is_empty());
    }

    #[test]
    fn test_modules_are_not_indexed() {
        let lexed = lex("fn live() {}\n#[cfg(test)]\nmod tests { fn dead() { x.unwrap(); } }\n");
        let cutoff = crate::find_test_cutoff(&lexed.toks);
        let idx = parse_file(&lexed.toks, cutoff);
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "live");
    }

    #[test]
    fn nested_fns_attribute_events_to_the_inner_fn() {
        let idx = parse(
            "fn outer() {\n\
                 fn inner() { x.unwrap(); }\n\
                 inner();\n\
             }\n",
        );
        let inner = idx.fns.iter().find(|f| f.name == "inner").expect("inner");
        assert_eq!(inner.panics.len(), 1);
        let outer = idx.fns.iter().find(|f| f.name == "outer").expect("outer");
        assert!(outer.panics.is_empty());
        assert_eq!(outer.calls.len(), 1);
    }
}
