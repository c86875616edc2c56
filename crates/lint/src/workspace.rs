//! Workspace passes: symbol table, call graph, and the interprocedural
//! rules BL007–BL010.
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
//! | BL007 | lock-order inversion: cycles (incl. self-cycles) in the mutex acquisition graph, nested acquisitions propagated through calls |
//! | BL008 | nondeterminism: a wall-clock / thread-identity source in a deterministic crate, and a call from one into a function that reaches a wall-clock / thread-identity / hash-order source |
//! | BL009 | a lock held across `Barrier::wait` or a `SYNC_FNS` cross-shard sync point (directly or via a call that reaches one) |
//! | BL010 | panic / `unwrap` / `expect` reachable from the `ENTRY_POINTS` of the sharded engine (DESIGN.md §12 promises panic-free windows) |

use crate::parser::{CallKind, CallSite, FileIndex, FnInfo};
use crate::{is_deterministic, suppressed_mark, Suppression, UsedSet};
use std::collections::{BTreeMap, BTreeSet};

/// Qualified names (`Type::method`) of cross-shard synchronization points
/// beyond any `*barrier*.wait()`: holding a lock into one of these stalls
/// every other worker parked at the same rendezvous (BL009).
const SYNC_FNS: [&str; 1] = ["ShardedSim::route_outboxes"];

/// The sharded-engine entry points DESIGN.md §12 promises are panic-free
/// (BL010 reachability roots), walked in this order.
const ENTRY_POINTS: [&str; 4] = [
    "ShardCore::run_window",
    "ShardedSim::run_parallel",
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

    /// Per-fn transitive closure of a per-fn seed set, propagated callee →
    /// caller (a fn inherits everything its callees have).
    fn closure(&self, mut sets: Vec<BTreeSet<String>>) -> Vec<BTreeSet<String>> {
        loop {
            let mut changed = false;
            for id in 0..self.fns.len() {
                for (_, callee) in &self.calls[id] {
                    if *callee == id {
                        continue;
                    }
                    let add: Vec<String> = sets[*callee]
                        .iter()
                        .filter(|s| !sets[id].contains(*s))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        sets[id].extend(add);
                        changed = true;
                    }
                }
            }
            if !changed {
                return sets;
            }
        }
    }
}

/// Run BL007–BL010 over the workspace. `supps`/`used` are the per-file
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
    bl007_lock_order(&ws, &mut out);
    bl008_taint(&ws, supps, used, &mut out);
    bl009_lock_across_wait(&ws, &mut out);
    bl010_reachable_panics(&ws, &mut out);
    out
}

/// BL007: build the lock-acquisition-order graph (edge `a → b` when `b` is
/// acquired while `a` is held, in one body or through a call) and flag every
/// edge that participates in a cycle.
fn bl007_lock_order(ws: &Workspace<'_>, out: &mut Vec<WsDiag>) {
    // Locks each fn may take, transitively through its callees.
    let acquires = ws.closure(
        ws.fns
            .iter()
            .map(|(_, f)| f.locks.iter().map(|l| l.lock.clone()).collect())
            .collect(),
    );
    // (held, acquired) → attribution sites as (file, line, col).
    type EdgeSites = BTreeSet<(String, u32, u32)>;
    let mut edges: BTreeMap<(String, String), EdgeSites> = BTreeMap::new();
    for (id, (fi, func)) in ws.fns.iter().enumerate() {
        let rel = &ws.files[*fi].rel_path;
        for e in &func.lock_edges {
            edges
                .entry((e.held.clone(), e.acquired.clone()))
                .or_default()
                .insert((rel.clone(), e.line, e.col));
        }
        for (call, callee) in &ws.calls[id] {
            if call.held.is_empty() {
                continue;
            }
            for acq in &acquires[*callee] {
                for h in &call.held {
                    if h == acq {
                        continue; // re-entry through a call is BL007's
                                  // self-cycle below only when direct; via a
                                  // call it is usually a different instance
                    }
                    edges.entry((h.clone(), acq.clone())).or_default().insert((
                        rel.clone(),
                        call.line,
                        call.col,
                    ));
                }
            }
        }
    }
    // Strongly connected components over the lock graph (iterative Tarjan,
    // nodes visited in sorted order for determinism).
    let nodes: BTreeSet<String> = edges
        .keys()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    let nodes: Vec<String> = nodes.into_iter().collect();
    let idx_of: BTreeMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in edges.keys() {
        adj[idx_of[a.as_str()]].push(idx_of[b.as_str()]);
    }
    let scc = tarjan_scc(&adj);
    // Component id → members (for the cycle description).
    let mut members: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
    for (n, c) in scc.iter().enumerate() {
        members.entry(*c).or_default().push(&nodes[n]);
    }
    for ((held, acq), sites) in &edges {
        let (hc, ac) = (scc[idx_of[held.as_str()]], scc[idx_of[acq.as_str()]]);
        let cyclic = if held == acq {
            true
        } else {
            hc == ac && members[&hc].len() >= 2
        };
        if !cyclic {
            continue;
        }
        let msg = if held == acq {
            format!(
                "nested acquisition of `{held}` while `{held}` is already held \
                 (self-deadlock, or unordered acquisition of sibling locks)"
            )
        } else {
            let cycle = members[&hc].join(" → ");
            format!(
                "lock-order inversion: `{acq}` acquired while holding `{held}` \
                 closes the cycle {cycle} → {first}",
                first = members[&hc][0]
            )
        };
        for (file, line, col) in sites {
            out.push(WsDiag {
                code: "BL007",
                file: file.clone(),
                line: *line,
                col: *col,
                message: msg.clone(),
            });
        }
    }
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

/// BL009: a lock held across a barrier wait or a `SYNC_FNS` cross-shard
/// sync point — the shard-engine deadlock class (every shard must reach the
/// barrier; one of them blocking on a mutex another holds past it stalls
/// the window protocol).
fn bl009_lock_across_wait(ws: &Workspace<'_>, out: &mut Vec<WsDiag>) {
    // Which fns contain (or transitively reach) a wait point.
    let reach = ws.closure(
        ws.fns
            .iter()
            .map(|(_, f)| {
                let mut s = BTreeSet::new();
                if let Some(w) = f.waits.first() {
                    s.insert(format!("`{}` wait", w.what));
                }
                if SYNC_FNS.contains(&f.qual_name().as_str()) {
                    s.insert(format!("sync point `{}`", f.qual_name()));
                }
                s
            })
            .collect(),
    );
    for (id, (fi, func)) in ws.fns.iter().enumerate() {
        let rel = &ws.files[*fi].rel_path;
        for w in &func.waits {
            if w.held.is_empty() {
                continue;
            }
            out.push(WsDiag {
                code: "BL009",
                file: rel.clone(),
                line: w.line,
                col: w.col,
                message: format!(
                    "lock(s) `{}` held across barrier wait `{}` — a shard blocked \
                     on the mutex can never reach the barrier",
                    w.held.join("`, `"),
                    w.what
                ),
            });
        }
        for (call, callee) in &ws.calls[id] {
            if call.held.is_empty() || *callee == id {
                continue;
            }
            if let Some(what) = reach[*callee].iter().next() {
                out.push(WsDiag {
                    code: "BL009",
                    file: rel.clone(),
                    line: call.line,
                    col: call.col,
                    message: format!(
                        "lock(s) `{}` held while calling `{}`, which reaches {what}",
                        call.held.join("`, `"),
                        ws.qual(*callee),
                    ),
                });
            }
        }
        // Unresolved path calls can still match a sync point
        // textually (`ShardedSim::route_outboxes(&core)` from outside).
        for call in &func.calls {
            if call.held.is_empty() || call.kind != CallKind::Path {
                continue;
            }
            let joined = call.path.join("::");
            let resolved = ws.calls[id].iter().any(|(c, _)| std::ptr::eq(*c, call));
            if !resolved && SYNC_FNS.iter().any(|q| joined.ends_with(q)) {
                out.push(WsDiag {
                    code: "BL009",
                    file: rel.clone(),
                    line: call.line,
                    col: call.col,
                    message: format!(
                        "lock(s) `{}` held across cross-shard sync point `{joined}`",
                        call.held.join("`, `"),
                    ),
                });
            }
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

/// Iterative Tarjan SCC; returns the component id per node. Component ids
/// are renumbered by smallest member node for determinism.
fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*ci) {
                *ci += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            // v is done: close its component if it is a root.
            if low[v] == index[v] {
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    comp[w] = next_comp;
                    if w == v {
                        break;
                    }
                }
                next_comp += 1;
            }
            frames.pop();
            if let Some(&mut (u, _)) = frames.last_mut() {
                low[u] = low[u].min(low[v]);
            }
        }
    }
    // Renumber components by smallest member for stable output.
    let mut first_seen: BTreeMap<usize, usize> = BTreeMap::new();
    for &c in &comp {
        let next = first_seen.len();
        first_seen.entry(c).or_insert(next);
    }
    comp.iter().map(|c| first_seen[c]).collect()
}
