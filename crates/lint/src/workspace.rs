//! Workspace passes: symbol table, call graph, and the interprocedural
//! rules BL008 and BL010.
//!
//! These run in [`crate::Analyzer::finish`] over the per-file
//! [`FileIndex`]es the parser produced. Resolution is deliberately
//! conservative — an unresolved call simply truncates the graph — so every
//! rule here under-approximates rather than guessing:
//!
//! * `self.method()` resolves within the current `impl` type;
//! * `recv.method()` resolves only when the method name is defined exactly
//!   once across the workspace (anything ambiguous is dropped);
//! * `path::to::item(..)` resolves through `use` aliases, preferring a
//!   `Type::name` match, then same-crate, then a unique global match.
//!
//! | Rule  | Checks |
//! |-------|--------|
//! | BL008 | nondeterminism: a wall-clock / thread-identity source in a deterministic crate, and a call from one into a function that reaches a wall-clock / thread-identity / hash-order source |
//! | BL010 | panic / `unwrap` / `expect` reachable from the `ENTRY_POINTS` of the sharded engine (DESIGN.md §12 promises panic-free windows) |

use crate::parser::{CallKind, CallSite, FileIndex, FnInfo};
use crate::{is_deterministic, suppressed_mark, Suppression, UsedSet};
use std::collections::{BTreeMap, BTreeSet};

/// The sharded-engine entry points DESIGN.md §12 promises are panic-free
/// (BL010 reachability roots), walked in this order.
const ENTRY_POINTS: [&str; 3] = [
    "ShardCore::run_window",
    "ShardedSim::run_sequential",
    "ShardedSim::run_until",
];

/// One file's contribution to the workspace passes.
#[derive(Debug, Clone)]
pub struct WsFile {
    pub rel_path: String,
    pub crate_name: String,
    pub index: FileIndex,
}

/// A workspace-rule finding, pre-suppression (BL008 consults suppressions
/// during the pass; the rest are filtered by the caller like any raw diag).
#[derive(Debug)]
pub struct WsDiag {
    pub code: &'static str,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// Flat function id: index into [`Workspace::fns`].
type FnId = usize;

struct Workspace<'a> {
    files: &'a [WsFile],
    /// `(file index, fn)` in file-then-item order — the canonical iteration
    /// order for every fixpoint below.
    fns: Vec<(usize, &'a FnInfo)>,
    /// `Type::name` / bare `name` → defining fns.
    by_qual: BTreeMap<String, Vec<FnId>>,
    /// Method name → *methods* (fns with a self type) bearing it. Free fns
    /// are deliberately absent: `recv.load()` must never resolve to a free
    /// fn that happens to be called `load`.
    by_method: BTreeMap<String, Vec<FnId>>,
    /// Resolved call edges per fn: `(call, callee)`.
    calls: Vec<Vec<(&'a CallSite, FnId)>>,
    crate_set: BTreeSet<String>,
}

impl<'a> Workspace<'a> {
    fn build(files: &'a [WsFile]) -> Workspace<'a> {
        let mut fns = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for func in &f.index.fns {
                fns.push((fi, func));
            }
        }
        let mut by_qual: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut by_method: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (id, (_, func)) in fns.iter().enumerate() {
            by_qual.entry(func.qual_name()).or_default().push(id);
            if !func.self_ty.is_empty() {
                by_method.entry(func.name.clone()).or_default().push(id);
            }
        }
        let crate_set = files.iter().map(|f| f.crate_name.clone()).collect();
        let mut ws = Workspace {
            files,
            fns,
            by_qual,
            by_method,
            calls: Vec::new(),
            crate_set,
        };
        ws.calls = (0..ws.fns.len())
            .map(|id| {
                ws.fns[id]
                    .1
                    .calls
                    .iter()
                    .filter_map(|c| ws.resolve(id, c).map(|callee| (c, callee)))
                    .collect()
            })
            .collect();
        ws
    }

    fn file_of(&self, id: FnId) -> &WsFile {
        &self.files[self.fns[id].0]
    }

    fn qual(&self, id: FnId) -> String {
        self.fns[id].1.qual_name()
    }

    /// Resolve one call site from `caller` to a workspace function, or
    /// `None` when it is external / ambiguous.
    fn resolve(&self, caller: FnId, call: &CallSite) -> Option<FnId> {
        let (file_idx, caller_fn) = self.fns[caller];
        let caller_crate = &self.files[file_idx].crate_name;
        match call.kind {
            CallKind::Method => {
                let name = call.path.last()?;
                if call.recv_self && !caller_fn.self_ty.is_empty() {
                    let qual = format!("{}::{}", caller_fn.self_ty, name);
                    return self.pick(self.by_qual.get(&qual)?, caller_crate, None);
                }
                // Untyped receiver: only a workspace-unique *method* name is
                // safe to resolve (never a free fn — `counter.load()` must
                // not match a free `load`).
                let cands = self.by_method.get(name)?;
                (cands.len() == 1).then(|| cands[0])
            }
            CallKind::Path => {
                let mut segs = call.path.clone();
                // Expand a leading `use` alias from the calling file.
                if let Some(first) = segs.first() {
                    if let Some(alias) = self.files[file_idx]
                        .index
                        .uses
                        .iter()
                        .find(|u| &u.alias == first)
                    {
                        let mut full = alias.path.clone();
                        full.extend(segs.drain(1..));
                        segs = full;
                    }
                }
                let name = segs.last()?.clone();
                // Crate hint: a leading segment naming a workspace crate
                // (`tor_net::…` → crate `tor-net`).
                let hint = segs.first().map(|s| s.replace('_', "-"));
                let hint = hint.filter(|h| self.crate_set.contains(h));
                // `Type::name`: nearest capitalized segment before the name.
                let ty = segs[..segs.len() - 1]
                    .iter()
                    .rev()
                    .find(|s| s.chars().next().is_some_and(|c| c.is_ascii_uppercase()));
                if let Some(ty) = ty {
                    let qual = format!("{ty}::{name}");
                    if let Some(cands) = self.by_qual.get(&qual) {
                        return self.pick(cands, caller_crate, hint.as_deref());
                    }
                    return None;
                }
                // Free-fn path. A bare name can only name a same-crate (or
                // use-imported — already expanded above) item; a module path
                // resolves cross-crate only with an explicit crate prefix.
                let cands = self.by_qual.get(&name)?;
                if segs.len() == 1 || matches!(segs[0].as_str(), "crate" | "self" | "super") {
                    let local: Vec<FnId> = cands
                        .iter()
                        .copied()
                        .filter(|&id| self.file_of(id).crate_name == *caller_crate)
                        .collect();
                    return (local.len() == 1).then(|| local[0]);
                }
                let h = hint?;
                let in_hint: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|&id| self.file_of(id).crate_name == h)
                    .collect();
                (in_hint.len() == 1).then(|| in_hint[0])
            }
        }
    }

    /// Disambiguate candidates: crate hint first, then the caller's own
    /// crate, then a unique global match.
    fn pick(&self, cands: &[FnId], caller_crate: &str, hint: Option<&str>) -> Option<FnId> {
        if let Some(h) = hint {
            let in_hint: Vec<FnId> = cands
                .iter()
                .copied()
                .filter(|&id| self.file_of(id).crate_name == h)
                .collect();
            if in_hint.len() == 1 {
                return Some(in_hint[0]);
            }
        }
        let local: Vec<FnId> = cands
            .iter()
            .copied()
            .filter(|&id| self.file_of(id).crate_name == caller_crate)
            .collect();
        if local.len() == 1 {
            return Some(local[0]);
        }
        (cands.len() == 1).then(|| cands[0])
    }
}

/// Run BL008 and BL010 over the workspace. `supps`/`used` are the per-file
/// suppression tables and the used-directive set (BL011's input): BL008
/// consults suppressions *during* the pass because a suppressed source or
/// call site must also stop taint propagation, not just hide one finding.
pub(crate) fn check_workspace(
    files: &[WsFile],
    supps: &BTreeMap<String, Vec<Suppression>>,
    used: &mut UsedSet,
) -> Vec<WsDiag> {
    let ws = Workspace::build(files);
    let mut out = Vec::new();
    bl008_taint(&ws, supps, used, &mut out);
    bl010_reachable_panics(&ws, &mut out);
    out
}

/// BL008: nondeterminism sources in deterministic crates, where they sit
/// and through calls. A wall-clock or thread-identity source in a
/// deterministic crate is reported at the source (hash order is BL001's to
/// report there); any source seeds taint, and a call from a deterministic
/// crate into a tainted function is reported at the call. A suppression on
/// the source line (for BL008, or BL001 on a hash-order source) kills the
/// seed; a BL008 suppression on a call site stops both the finding *and*
/// further caller-ward propagation.
fn bl008_taint(
    ws: &Workspace<'_>,
    supps: &BTreeMap<String, Vec<Suppression>>,
    used: &mut UsedSet,
    out: &mut Vec<WsDiag>,
) {
    let n = ws.fns.len();
    // Taint witness per fn: what it reaches and how.
    let mut witness: Vec<Option<String>> = vec![None; n];
    for (id, (fi, func)) in ws.fns.iter().enumerate() {
        let file = &ws.files[*fi];
        for s in &func.sources {
            let rule = s.kind.single_file_rule();
            let dead = rule
                .is_some_and(|r| suppressed_mark(supps, used, &file.rel_path, r, s.line))
                | suppressed_mark(supps, used, &file.rel_path, "BL008", s.line);
            if dead {
                continue;
            }
            if rule.is_none() && is_deterministic(&file.crate_name) {
                out.push(WsDiag {
                    code: "BL008",
                    file: file.rel_path.clone(),
                    line: s.line,
                    col: s.col,
                    message: format!(
                        "{} source `{}` in deterministic crate `{}`: simulated \
                         behaviour must not depend on the host — remove it or \
                         suppress with the reason it cannot reach the simulation",
                        s.kind.label(),
                        s.token,
                        file.crate_name,
                    ),
                });
            }
            witness[id].get_or_insert_with(|| {
                format!(
                    "{} source `{}` at {}:{}",
                    s.kind.label(),
                    s.token,
                    file.rel_path,
                    s.line
                )
            });
        }
    }
    // Propagate callee → caller; a BL008-suppressed call site is a firewall.
    loop {
        let mut changed = false;
        for id in 0..n {
            if witness[id].is_some() {
                continue;
            }
            let rel = &ws.file_of(id).rel_path;
            for (call, callee) in &ws.calls[id] {
                let Some(w) = witness[*callee].clone() else {
                    continue;
                };
                if suppressed_mark(supps, used, rel, "BL008", call.line) {
                    continue;
                }
                witness[id] = Some(format!("via `{}` — {}", ws.qual(*callee), w));
                changed = true;
                break;
            }
        }
        if !changed {
            break;
        }
    }
    // Findings: deterministic-crate fns calling tainted callees.
    for (id, (fi, _)) in ws.fns.iter().enumerate() {
        let file = &ws.files[*fi];
        if !is_deterministic(&file.crate_name) {
            continue;
        }
        for (call, callee) in &ws.calls[id] {
            let Some(w) = &witness[*callee] else {
                continue;
            };
            if suppressed_mark(supps, used, &file.rel_path, "BL008", call.line) {
                continue;
            }
            out.push(WsDiag {
                code: "BL008",
                file: file.rel_path.clone(),
                line: call.line,
                col: call.col,
                message: format!(
                    "nondeterminism can flow into sim-visible crate `{}`: \
                     `{}` reaches {w}",
                    file.crate_name,
                    ws.qual(*callee),
                ),
            });
        }
    }
}

/// BL010: panic sites reachable from the sharded-engine entry points that
/// DESIGN.md §12 documents as panic-free. `assert!` is deliberately out of
/// scope — asserts state contracts; `unwrap`/`expect`/`panic!` state hope.
fn bl010_reachable_panics(ws: &Workspace<'_>, out: &mut Vec<WsDiag>) {
    // BFS from each entry in order; first entry to reach wins the
    // attribution (deterministic).
    let mut via: Vec<Option<&str>> = vec![None; ws.fns.len()];
    for entry in ENTRY_POINTS {
        let start: Vec<FnId> = ws
            .fns
            .iter()
            .enumerate()
            .filter(|(_, (_, f))| f.qual_name() == *entry)
            .map(|(id, _)| id)
            .collect();
        let mut queue: std::collections::VecDeque<FnId> = start.into();
        while let Some(id) = queue.pop_front() {
            if via[id].is_some() {
                continue;
            }
            via[id] = Some(entry);
            for (_, callee) in &ws.calls[id] {
                if via[*callee].is_none() {
                    queue.push_back(*callee);
                }
            }
        }
    }
    for (id, (fi, func)) in ws.fns.iter().enumerate() {
        let Some(entry) = via[id] else { continue };
        let rel = &ws.files[*fi].rel_path;
        for p in &func.panics {
            out.push(WsDiag {
                code: "BL010",
                file: rel.clone(),
                line: p.line,
                col: p.col,
                message: format!(
                    "`{}` in `{}` is reachable from sharded-engine entry `{entry}` \
                     (DESIGN.md §12 promises panic-free windows) — handle the error \
                     or suppress with the invariant that rules it out",
                    p.what,
                    func.qual_name(),
                ),
            });
        }
    }
}
