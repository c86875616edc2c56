//! The token-stream rules (BL001, BL004, BL005).
//!
//! Each rule walks the lexed token stream of one file. Rules never look
//! inside string/char literals or comments — the lexer already atomized
//! those — so `// a HashMap of ...` can never trip a check.

use crate::lexer::TokKind;
use crate::parser::HASH_ORDER;
use crate::{is_deterministic, FileCtx, RawDiag};

/// Fault-recovery files where PR 4 promises graceful degradation (BL005
/// scope), matched by path suffix: a panic here turns a recoverable fault
/// into a crash.
const RECOVERY_PATHS: [&str; 3] = [
    "tor-net/src/retry.rs",
    "tor-net/src/client.rs",
    "core/src/server.rs",
];

/// Run all per-file rules. Test-region and suppression filtering happens in
/// the caller.
pub fn check_file(ctx: &FileCtx<'_>) -> Vec<RawDiag> {
    let mut out = Vec::new();
    bl001_hash_collections(ctx, &mut out);
    bl004_unsafe_needs_safety_comment(ctx, &mut out);
    bl005_unwrap_in_recovery_paths(ctx, &mut out);
    out
}

/// BL001: no `HashMap`/`HashSet` in [`crate::DETERMINISTIC_CRATES`]. Any
/// mention — import, construction, type position — counts: if the type is
/// present at all, its iteration order can leak into the simulation.
fn bl001_hash_collections(ctx: &FileCtx<'_>, out: &mut Vec<RawDiag>) {
    if !is_deterministic(ctx.crate_name) {
        return;
    }
    for t in ctx.toks {
        if t.kind == TokKind::Ident && HASH_ORDER.contains(&t.text.as_str()) {
            out.push(RawDiag {
                code: "BL001",
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` in deterministic crate `{}`: hash iteration order can leak \
                     into the simulation — use BTree{} or suppress with a reason",
                    t.text,
                    ctx.crate_name,
                    &t.text[4..],
                ),
            });
        }
    }
}

/// BL004: every `unsafe` keyword (block, fn, impl, trait) must have a
/// comment containing `SAFETY:` on the same line or within the 3 lines
/// above it.
fn bl004_unsafe_needs_safety_comment(ctx: &FileCtx<'_>, out: &mut Vec<RawDiag>) {
    for t in ctx.toks {
        if !(t.kind == TokKind::Ident && t.text == "unsafe") {
            continue;
        }
        let lo = t.line.saturating_sub(3);
        let justified = ctx
            .comments
            .iter()
            .any(|c| c.line >= lo && c.line <= t.line && c.text.contains("SAFETY:"));
        if !justified {
            out.push(RawDiag {
                code: "BL004",
                line: t.line,
                col: t.col,
                message: "`unsafe` without a preceding `// SAFETY:` comment".to_string(),
            });
        }
    }
}

/// BL005: no `.unwrap()` / `.expect(` in the fault-recovery files — those
/// paths promise graceful degradation, and a panic there turns a recoverable
/// fault into a crash.
fn bl005_unwrap_in_recovery_paths(ctx: &FileCtx<'_>, out: &mut Vec<RawDiag>) {
    if !RECOVERY_PATHS.iter().any(|p| ctx.rel_path.ends_with(p)) {
        return;
    }
    for w in ctx.toks.windows(3) {
        let dot = w[0].kind == TokKind::Punct && w[0].text == ".";
        let call = w[1].kind == TokKind::Ident && (w[1].text == "unwrap" || w[1].text == "expect");
        let paren = w[2].kind == TokKind::Punct && w[2].text == "(";
        if dot && call && paren {
            out.push(RawDiag {
                code: "BL005",
                line: w[1].line,
                col: w[1].col,
                message: format!(
                    "`.{}()` in fault-recovery path: handle the failure or suppress \
                     with a reason proving it cannot panic",
                    w[1].text,
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_diags(crate_name: &str, rel_path: &str, src: &str) -> Vec<RawDiag> {
        let lexed = lex(src);
        let ctx = FileCtx {
            rel_path,
            crate_name,
            toks: &lexed.toks,
            comments: &lexed.comments,
            test_cutoff: u32::MAX,
        };
        check_file(&ctx)
    }

    #[test]
    fn bl001_fires_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;";
        assert_eq!(
            ctx_diags("tor-net", "crates/tor-net/src/x.rs", src).len(),
            1
        );
        assert!(ctx_diags("bench", "crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn bl004_accepts_safety_comment_within_three_lines() {
        let bad = "unsafe { core::hint::unreachable_unchecked() }";
        let good = "// SAFETY: checked i < len above\nunsafe { x.get_unchecked(i) }";
        let far = "// SAFETY: too far\n\n\n\n\nunsafe { x() }";
        assert_eq!(ctx_diags("wfp", "crates/wfp/src/x.rs", bad).len(), 1);
        assert!(ctx_diags("wfp", "crates/wfp/src/x.rs", good).is_empty());
        assert_eq!(ctx_diags("wfp", "crates/wfp/src/x.rs", far).len(), 1);
    }

    #[test]
    fn bl005_scopes_to_recovery_paths() {
        let src = "let v = maybe.unwrap(); let w = maybe2.expect(\"why\");";
        let hits = ctx_diags("tor-net", "crates/tor-net/src/retry.rs", src);
        assert_eq!(hits.len(), 2);
        assert!(ctx_diags("tor-net", "crates/tor-net/src/hs.rs", src).is_empty());
        // `unwrap_or` is a different identifier and must not match.
        let soft = "let v = maybe.unwrap_or(0);";
        assert!(ctx_diags("tor-net", "crates/tor-net/src/retry.rs", soft).is_empty());
    }
}
