//! Item-level parser over the token stream — the workspace analyzer's front
//! end.
//!
//! This is deliberately **not** a Rust grammar. One linear pass over the
//! lexed tokens recovers just the structure the interprocedural rules
//! (BL007–BL010) need:
//!
//! * `fn` items, attributed to their `impl` type when inside one;
//! * `use` declarations (for resolving cross-crate call paths);
//! * call expressions inside each function body — plain calls, path calls,
//!   and method calls (with a `self.`-receiver flag);
//! * mutex acquisitions (`.lock()`), with a guard-lifetime model deep
//!   enough to know which locks are *held* at any later point in the
//!   function;
//! * barrier waits (`.wait()` on a `barrier`-named receiver,
//!   `Barrier::wait(..)`), with the locks held at the wait;
//! * nondeterminism source tokens (wall clock, thread identity/parallelism,
//!   hash-ordered collections) — BL008's taint seeds, and the one token
//!   table the workspace has for them;
//! * panic sites (`panic!`/`unreachable!`/`todo!`, `.unwrap()`, `.expect()`).
//!
//! ## Guard-lifetime model
//!
//! A `.lock()` bound through `let` (`let g = m.lock().unwrap();`, including
//! `let Ok(g) = m.lock() else { .. }`) holds its mutex until the enclosing
//! block closes or an explicit `drop(g)`. A `.lock()` used as a temporary
//! (`m.lock().unwrap().push(x);` or any call chained past the
//! `unwrap`/`expect` adapter) holds only to the end of its statement. This
//! matches how every acquisition in this workspace is written; `match`
//! scrutinee temporaries (which live for the whole `match`) are the known
//! under-approximation and are called out in DESIGN.md §13.
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
    /// Lock names held when the call is made (BL007/BL009 interprocedural).
    pub held: Vec<String>,
    pub line: u32,
    pub col: u32,
}

/// One mutex acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSite {
    /// Normalized receiver chain (`self` replaced by the impl type, index
    /// expressions dropped): `inboxes[ds].lock()` → `inboxes`,
    /// `self.ias.lock()` inside `impl BentoServer` → `BentoServer.ias`.
    pub lock: String,
    pub line: u32,
    pub col: u32,
}

/// A nested acquisition: `acquired` was taken while `held` was still live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    pub line: u32,
    pub col: u32,
}

/// A barrier-style wait point, with the locks held when it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitSite {
    /// The receiver or path that waited (`barrier`, `Barrier::wait`).
    pub what: String,
    pub held: Vec<String>,
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
    pub locks: Vec<LockSite>,
    pub lock_edges: Vec<LockEdge>,
    pub waits: Vec<WaitSite>,
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
/// The method whose receiver becomes a tracked lock acquisition (BL007/BL009).
const LOCK_METHOD: &str = "lock";
const PANIC_MACROS: [&str; 3] = ["panic", "unreachable", "todo"];
/// Keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "let", "fn",
];

/// One lock currently held at a point in a function body.
struct Held {
    lock: String,
    /// Guard variable, when `let`-bound (releasable via `drop(var)`).
    guard: Option<String>,
    /// Brace depth at acquisition; the hold ends when the depth drops
    /// below this.
    depth: u32,
    /// Statement temporary: released at the next statement boundary.
    temp: bool,
}

/// A function item currently open in the linear pass.
struct OpenFn {
    info: FnInfo,
    body_depth: u32,
    held: Vec<Held>,
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
                release_temps(&mut fn_stack);
                i += 1;
            }
            (TokKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                release_temps(&mut fn_stack);
                // Close any function whose body just ended.
                while fn_stack.last().is_some_and(|f| f.body_depth > depth) {
                    let f = fn_stack.pop().unwrap_or_else(|| unreachable!());
                    out.fns.push(f.info);
                }
                while impl_stack.last().is_some_and(|(_, d)| *d >= depth) {
                    impl_stack.pop();
                }
                if let Some(f) = fn_stack.last_mut() {
                    f.held.retain(|h| h.depth <= depth);
                }
                i += 1;
            }
            (TokKind::Punct, ";") => {
                release_temps(&mut fn_stack);
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
                            held: Vec::new(),
                        });
                    }
                    i = body_start;
                } else {
                    i += 1;
                }
            }
            _ => {
                if let Some(f) = fn_stack.last_mut() {
                    i = scan_body_token(toks, i, depth, f, &impl_stack);
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

fn release_temps(fn_stack: &mut [OpenFn]) {
    if let Some(f) = fn_stack.last_mut() {
        f.held.retain(|h| !h.temp);
    }
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
fn scan_body_token(
    toks: &[Tok],
    i: usize,
    depth: u32,
    f: &mut OpenFn,
    impl_stack: &[(String, u32)],
) -> usize {
    let t = &toks[i];
    // `.method(` — lock acquisition, wait, panic adapter, or method call.
    if t.kind == TokKind::Punct && t.text == "." {
        if let (Some(m), Some(p)) = (toks.get(i + 1), toks.get(i + 2)) {
            if m.kind == TokKind::Ident && p.text == "(" {
                let name = m.text.as_str();
                if name == LOCK_METHOD {
                    handle_lock(toks, i, depth, f, impl_stack, m);
                    return i + 3;
                }
                if name == "unwrap" || name == "expect" {
                    f.info.panics.push(PanicSite {
                        what: name.to_string(),
                        line: m.line,
                        col: m.col,
                    });
                    return i + 3;
                }
                if name == "wait" {
                    let recv = receiver_chain(toks, i, impl_stack);
                    if recv.to_ascii_lowercase().contains("barrier") {
                        f.info.waits.push(WaitSite {
                            what: recv,
                            held: held_names(&f.held),
                            line: m.line,
                            col: m.col,
                        });
                        return i + 3;
                    }
                }
                let recv = receiver_chain_raw(toks, i);
                f.info.calls.push(CallSite {
                    kind: CallKind::Method,
                    path: vec![name.to_string()],
                    recv_self: recv.as_deref() == Some("self"),
                    held: held_names(&f.held),
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
            f.info.sources.push(SourceSite {
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
                f.info.panics.push(PanicSite {
                    what: format!("{}!", t.text),
                    line: t.line,
                    col: t.col,
                });
            }
            return i + 2;
        }
        // `drop(guard)` releases a let-bound lock guard.
        if t.text == "drop"
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && toks.get(i + 3).is_some_and(|n| n.text == ")")
        {
            if let Some(var) = toks.get(i + 2) {
                if var.kind == TokKind::Ident {
                    f.held
                        .retain(|h| h.guard.as_deref() != Some(var.text.as_str()));
                }
            }
        }
        // Plain or path call: `seg::seg::name(` where the previous token is
        // not `.` (method) and the name is not a keyword or macro.
        if toks.get(i + 1).is_some_and(|n| n.text == "(")
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
        {
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            if prev != Some(".") && prev != Some("!") {
                let path = path_chain(toks, i);
                // `Barrier::wait(&b)` — UFCS wait counts as a wait point.
                if path.len() >= 2
                    && path[path.len() - 1] == "wait"
                    && path[path.len() - 2] == "Barrier"
                {
                    f.info.waits.push(WaitSite {
                        what: path.join("::"),
                        held: held_names(&f.held),
                        line: t.line,
                        col: t.col,
                    });
                    return i + 2;
                }
                f.info.calls.push(CallSite {
                    kind: CallKind::Path,
                    path,
                    recv_self: false,
                    held: held_names(&f.held),
                    line: t.line,
                    col: t.col,
                });
            }
        }
    }
    i + 1
}

fn held_names(held: &[Held]) -> Vec<String> {
    held.iter().map(|h| h.lock.clone()).collect()
}

/// Record a `.lock()` acquisition at `i` (the `.` token).
fn handle_lock(
    toks: &[Tok],
    i: usize,
    depth: u32,
    f: &mut OpenFn,
    impl_stack: &[(String, u32)],
    method_tok: &Tok,
) {
    let lock = receiver_chain(toks, i, impl_stack);
    if lock.is_empty() {
        return;
    }
    for h in &f.held {
        f.info.lock_edges.push(LockEdge {
            held: h.lock.clone(),
            acquired: lock.clone(),
            line: method_tok.line,
            col: method_tok.col,
        });
    }
    f.info.locks.push(LockSite {
        lock: lock.clone(),
        line: method_tok.line,
        col: method_tok.col,
    });
    let (guard, temp) = classify_binding(toks, i);
    f.held.push(Held {
        lock,
        guard,
        depth,
        temp,
    });
}

/// Walk back from the `.` of `.lock()`/`.wait()` and normalize the receiver:
/// `self` becomes the impl type, index groups (`[..]`) and call parens are
/// dropped. Returns `""` when nothing chain-like precedes.
fn receiver_chain(toks: &[Tok], dot: usize, impl_stack: &[(String, u32)]) -> String {
    let mut segs: Vec<String> = Vec::new();
    let mut j = dot;
    while j > 0 {
        let p = &toks[j - 1];
        match (p.kind, p.text.as_str()) {
            (TokKind::Punct, "]") | (TokKind::Punct, ")") => {
                // Skip the balanced group.
                let close = p.text.as_bytes()[0];
                let open = if close == b']' { "[" } else { "(" };
                let close_s = p.text.clone();
                let mut d = 1;
                j -= 1;
                while j > 0 && d > 0 {
                    let q = &toks[j - 1];
                    if q.text == close_s {
                        d += 1;
                    } else if q.text == open {
                        d -= 1;
                    }
                    j -= 1;
                }
            }
            (TokKind::Ident, _) => {
                segs.push(p.text.clone());
                j -= 1;
                // Continue only through `.` / `::` connectors.
                if j > 0 && (toks[j - 1].text == "." || toks[j - 1].text == ":") {
                    continue;
                }
                break;
            }
            (TokKind::Punct, ".")
            | (TokKind::Punct, ":")
            | (TokKind::Punct, "*")
            | (TokKind::Punct, "&") => {
                j -= 1;
            }
            _ => break,
        }
    }
    segs.reverse();
    if segs.first().map(String::as_str) == Some("self") {
        let ty = impl_stack.last().map(|(t, _)| t.as_str()).unwrap_or("self");
        segs[0] = ty.to_string();
    }
    segs.join(".")
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

/// Is the `.lock()` at `dot` a `let`-bound guard, and under what name?
/// Returns `(guard_var, is_temporary)`.
fn classify_binding(toks: &[Tok], dot: usize) -> (Option<String>, bool) {
    // Chained past the unwrap/expect adapter → statement temporary.
    // `.lock ( )` then optionally `.expect ( "…" )` / `.unwrap ( )`; if a
    // further `.` follows, the guard never binds.
    let mut j = dot + 2; // at `(`
    let mut d = 0i32;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" => d += 1,
            ")" => {
                d -= 1;
                if d == 0 {
                    j += 1;
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    if toks.get(j).is_some_and(|t| t.text == ".") {
        let adapter = toks
            .get(j + 1)
            .is_some_and(|t| t.text == "unwrap" || t.text == "expect");
        if !adapter {
            return (None, true);
        }
        // Skip the adapter's argument list, then look again.
        let mut k = j + 2;
        let mut d = 0i32;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "(" => d += 1,
                ")" => {
                    d -= 1;
                    if d == 0 {
                        k += 1;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if toks.get(k).is_some_and(|t| t.text == ".") {
            return (None, true);
        }
    }
    // Scan back to the statement start for a `let`.
    let mut k = dot;
    let mut eq_pos: Option<usize> = None;
    let mut let_pos: Option<usize> = None;
    while k > 0 {
        let p = &toks[k - 1];
        match (p.kind, p.text.as_str()) {
            (TokKind::Punct, ";") | (TokKind::Punct, "{") | (TokKind::Punct, "}") => break,
            (TokKind::Punct, "=") => {
                // `=` but not `==`, `=>`, `<=` etc.
                let prev_ok = k < 2
                    || !matches!(toks[k - 2].text.as_str(), "=" | "<" | ">" | "!" | "+" | "-");
                let next_ok = !matches!(toks[k].text.as_str(), "=" | ">");
                if prev_ok && next_ok {
                    eq_pos = Some(k - 1);
                }
                k -= 1;
            }
            (TokKind::Ident, "let") => {
                let_pos = Some(k - 1);
                break;
            }
            _ => k -= 1,
        }
    }
    let (Some(lp), Some(ep)) = (let_pos, eq_pos) else {
        return (None, true);
    };
    // Guard variable: last binding ident between `let` and `=`.
    let guard = toks[lp + 1..ep]
        .iter()
        .rfind(|t| {
            t.kind == TokKind::Ident
                && !matches!(t.text.as_str(), "mut" | "Ok" | "Some" | "Err" | "ref")
        })
        .map(|t| t.text.clone());
    (guard, false)
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
    fn let_bound_guard_holds_until_block_end() {
        let idx = parse(
            "fn f() {\n\
                 let g = a.lock().unwrap();\n\
                 b.lock().unwrap().push(1);\n\
             }\n",
        );
        let f = &idx.fns[0];
        assert_eq!(f.locks.len(), 2);
        assert_eq!(f.lock_edges.len(), 1);
        assert_eq!(f.lock_edges[0].held, "a");
        assert_eq!(f.lock_edges[0].acquired, "b");
    }

    #[test]
    fn temporaries_release_at_statement_end() {
        let idx = parse(
            "fn f() {\n\
                 a.lock().unwrap().push(1);\n\
                 b.lock().unwrap().push(2);\n\
             }\n",
        );
        assert!(idx.fns[0].lock_edges.is_empty());
    }

    #[test]
    fn chained_past_adapter_is_a_temporary() {
        // The guard never binds to `v`: the chain continues past unwrap.
        let idx = parse(
            "fn f() {\n\
                 let v = q.lock().unwrap().pop();\n\
                 s.lock().unwrap().push(v);\n\
             }\n",
        );
        assert!(idx.fns[0].lock_edges.is_empty());
    }

    #[test]
    fn drop_releases_a_guard() {
        let idx = parse(
            "fn f() {\n\
                 let g = a.lock().unwrap();\n\
                 drop(g);\n\
                 b.lock().unwrap().push(1);\n\
             }\n",
        );
        assert!(idx.fns[0].lock_edges.is_empty());
    }

    #[test]
    fn self_receivers_normalize_to_the_impl_type() {
        let idx = parse(
            "impl Server {\n\
                 fn f(&self) { let g = self.ias.lock().unwrap(); g.touch(); }\n\
             }\n",
        );
        assert_eq!(idx.fns[0].locks[0].lock, "Server.ias");
    }

    #[test]
    fn index_receivers_drop_the_subscript() {
        let idx = parse("fn f() { inboxes[ds].lock().unwrap().append(v); }\n");
        assert_eq!(idx.fns[0].locks[0].lock, "inboxes");
    }

    #[test]
    fn barrier_waits_record_held_locks() {
        let idx = parse(
            "fn f() {\n\
                 let g = m.lock().unwrap();\n\
                 barrier.wait();\n\
             }\n\
             fn clean() { barrier.wait(); }\n",
        );
        assert_eq!(idx.fns[0].waits.len(), 1);
        assert_eq!(idx.fns[0].waits[0].held, ["m"]);
        assert!(idx.fns[1].waits[0].held.is_empty());
    }

    #[test]
    fn let_else_guard_binds_and_drop_works() {
        let idx = parse(
            "impl Server { fn f(&self) {\n\
                 let Ok(mut ias) = self.ias.lock() else { return; };\n\
                 other.lock().unwrap().go();\n\
                 drop(ias);\n\
                 late.lock().unwrap().go();\n\
             } }\n",
        );
        let f = &idx.fns[0];
        let edges: Vec<(String, String)> = f
            .lock_edges
            .iter()
            .map(|e| (e.held.clone(), e.acquired.clone()))
            .collect();
        assert_eq!(edges, [("Server.ias".to_string(), "other".to_string())]);
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
