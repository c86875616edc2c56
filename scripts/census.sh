#!/usr/bin/env bash
# A census for ROADMAP aims 2 (less code) and 3 (no panics where hostile
# input lands). Report only: it prints and always exits 0.
#
#   bash scripts/census.sh
#
# 1. Rust lines in `crates/`, `benchmark/src` and `vendor/`, counted with
#    the command of ROADMAP's re-anchor table:
#    `find <dir> -name '*.rs' | xargs cat | wc -l`.
# 2. `.unwrap(`, `.expect(` and `panic!` in the non-test code of the seven
#    runtime crates' `src/`: each file up to its `#[cfg(test)]` line, with
#    `//` comment lines skipped. `#[expect(…)]` attributes have no dot and
#    are not counted.
# 3. Every `src/` file under `crates/` that carries
#    `#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]`:
#    the modules where hostile input may not panic (ROADMAP item 5(a)).
set -uo pipefail
cd "$(dirname "$0")/.."

echo "census: Rust lines"
for dir in crates benchmark/src vendor; do
  printf '  %-14s %6d\n' "$dir" "$(find "$dir" -name '*.rs' | xargs cat | wc -l)"
done

echo "census: .unwrap( / .expect( / panic! in non-test src/"
total=0
for crate in simnet onion-crypto tor-net sandbox conclave core functions; do
  n=$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } !/^[[:space:]]*\/\// { print }' \
    | grep -oE '\.unwrap\(|\.expect\(|panic!' | wc -l)
  printf '  %-14s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '  %-14s %6d\n' total "$total"

echo "census: files denying unwrap, expect and panic"
grep -rlF --include='*.rs' \
  '#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]' crates/*/src \
  | sort | sed 's/^/  /'
exit 0
