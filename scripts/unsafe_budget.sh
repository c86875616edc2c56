#!/usr/bin/env bash
# The workspace's unsafe budget, checked from the source text.
#
# Three calls in `onion-crypto` leave safe Rust: `sha256::compress`,
# `aes::ctr_xor` and `x25519::ladder_pair` each enter a `#[target_feature]`
# function, under a `cfg` on the same item that proves the features at
# compile time. This script fails if the keyword appears anywhere else under
# `crates/*/src`, if `onion-crypto` carries an `expect(unsafe_code, …)` other
# than those three, or if any other crate stopped forbidding unsafe code.
set -euo pipefail
cd "$(dirname "$0")/.."

fail() { echo "unsafe budget: $*" >&2; exit 1; }

# file:text of each permitted use, in the order grep lists them.
want_hits=(
  'crates/onion-crypto/src/aes.rs:*unsafe { ni::ctr_xor(keys, nonce, counter, data) }'
  'crates/onion-crypto/src/sha256.rs:*unsafe { ni::compress(state, blocks) }'
  'crates/onion-crypto/src/x25519.rs:*unsafe { ifma::ladder_pair(pairs) }'
)
mapfile -t hits < <(grep -rnw --include='*.rs' unsafe crates/*/src | sort)
[ "${#hits[@]}" -eq "${#want_hits[@]}" ] \
  || fail "expected the keyword exactly ${#want_hits[@]} times, found:"$'\n'"$(printf '%s\n' "${hits[@]}")"
for i in "${!want_hits[@]}"; do
  # shellcheck disable=SC2053  # the right-hand side is a glob on purpose
  [[ ${hits[$i]} == ${want_hits[$i]} ]] \
    || fail "not a cfg-proven backend dispatch call: ${hits[$i]}"
done

mapfile -t allows < <(grep -rn --include='*.rs' '#!\?\[expect(unsafe_code, reason = "[^"]\+")\]' crates/*/src | sort)
[ "${#allows[@]}" -eq 3 ] \
  && [[ ${allows[0]} == crates/onion-crypto/src/aes.rs:* ]] \
  && [[ ${allows[1]} == crates/onion-crypto/src/sha256.rs:* ]] \
  && [[ ${allows[2]} == crates/onion-crypto/src/x25519.rs:* ]] \
  || fail "expected three #[expect(unsafe_code, reason = …)], in onion-crypto's aes.rs, sha256.rs and x25519.rs, found:"$'\n'"$(printf '%s\n' "${allows[@]}")"

for lib in crates/*/src/lib.rs; do
  case $lib in
    crates/onion-crypto/*) want='#![deny(unsafe_code)]' ;;
    *) want='#![forbid(unsafe_code)]' ;;
  esac
  grep -qxF "$want" "$lib" || fail "$lib does not say $want"
done
echo "unsafe budget: ok (3 calls, 3 suppressions, $(ls -d crates/*/src/lib.rs | wc -l) crates checked)"
