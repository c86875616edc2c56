#!/usr/bin/env bash
# The workspace's unsafe budget, checked from the source text.
#
# Two calls in `onion-crypto` leave safe Rust: `sha256::compress` and
# `aes::ctr_xor` each enter a `#[target_feature]` function, under a `cfg` on
# the same item that proves the features at compile time. This script fails
# if the keyword appears anywhere else under `crates/*/src` (`crates/lint`
# is skipped: its rules and their inline fixtures have to spell the keyword,
# and its own `forbid` is checked below), if `onion-crypto` carries an
# `allow` other than those two, or if any other crate stopped forbidding
# unsafe code.
set -euo pipefail
cd "$(dirname "$0")/.."

fail() { echo "unsafe budget: $*" >&2; exit 1; }

# file:text of each permitted use, in the order grep lists them.
want_hits=(
  'crates/onion-crypto/src/aes.rs:*unsafe { ni::ctr_xor(keys, nonce, counter, data) }'
  'crates/onion-crypto/src/sha256.rs:*unsafe { ni::compress(state, blocks) }'
)
mapfile -t hits < <(grep -rnw --include='*.rs' unsafe crates/*/src | grep -v '^crates/lint/' | sort)
[ "${#hits[@]}" -eq "${#want_hits[@]}" ] \
  || fail "expected the keyword exactly ${#want_hits[@]} times outside crates/lint, found:"$'\n'"$(printf '%s\n' "${hits[@]}")"
for i in "${!want_hits[@]}"; do
  # shellcheck disable=SC2053  # the right-hand side is a glob on purpose
  [[ ${hits[$i]} == ${want_hits[$i]} ]] \
    || fail "not a cfg-proven backend dispatch call: ${hits[$i]}"
done

mapfile -t allows < <(grep -rn --include='*.rs' '#!\?\[allow(unsafe_code)\]' crates/*/src | sort)
[ "${#allows[@]}" -eq 2 ] \
  && [[ ${allows[0]} == crates/onion-crypto/src/aes.rs:* ]] \
  && [[ ${allows[1]} == crates/onion-crypto/src/sha256.rs:* ]] \
  || fail "expected two #[allow(unsafe_code)], in onion-crypto's aes.rs and sha256.rs, found:"$'\n'"$(printf '%s\n' "${allows[@]}")"

for lib in crates/*/src/lib.rs; do
  case $lib in
    crates/onion-crypto/*) want='#![deny(unsafe_code)]' ;;
    *) want='#![forbid(unsafe_code)]' ;;
  esac
  grep -qxF "$want" "$lib" || fail "$lib does not say $want"
done
echo "unsafe budget: ok (2 calls, 2 allows, $(ls -d crates/*/src/lib.rs | wc -l) crates checked)"
