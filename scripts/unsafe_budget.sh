#!/usr/bin/env bash
# The workspace's unsafe budget, checked from the source text.
#
# One call in `onion-crypto` leaves safe Rust: `sha256::compress` enters a
# `#[target_feature]` function, under a `cfg` on the same item that proves
# the features at compile time. This script fails if the keyword appears
# anywhere else under `crates/*/src` (`crates/lint` is skipped: its rules
# and their inline fixtures have to spell the keyword, and its own
# `forbid` is checked below), if `onion-crypto` carries more than one
# `allow`, or if any other crate stopped forbidding unsafe code.
set -euo pipefail
cd "$(dirname "$0")/.."

fail() { echo "unsafe budget: $*" >&2; exit 1; }

hits=$(grep -rnw --include='*.rs' unsafe crates/*/src | grep -v '^crates/lint/' || true)
[ "$(grep -c . <<<"$hits")" -eq 1 ] \
  || fail "expected the keyword exactly once outside crates/lint, found:"$'\n'"$hits"
[[ $hits == crates/onion-crypto/src/sha256.rs:*"unsafe { ni::compress(state, blocks) }" ]] \
  || fail "the one use is not the SHA-NI dispatch call: $hits"

allows=$(grep -rn --include='*.rs' '#!\?\[allow(unsafe_code)\]' crates/*/src || true)
[ "$(grep -c . <<<"$allows")" -eq 1 ] && [[ $allows == crates/onion-crypto/src/sha256.rs:* ]] \
  || fail "expected one #[allow(unsafe_code)], in onion-crypto's sha256.rs, found:"$'\n'"$allows"

for lib in crates/*/src/lib.rs; do
  case $lib in
    crates/onion-crypto/*) want='#![deny(unsafe_code)]' ;;
    *) want='#![forbid(unsafe_code)]' ;;
  esac
  grep -qxF "$want" "$lib" || fail "$lib does not say $want"
done
echo "unsafe budget: ok (1 call, 1 allow, $(ls -d crates/*/src/lib.rs | wc -l) crates checked)"
