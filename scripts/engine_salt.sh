#!/usr/bin/env bash
# Print the engine-version cache salt (ENGINE_SALT) to stdout.
#
# The single source of truth is the constant in crates/system/src/sweep.rs;
# CI keys the cell-cache on it. The extraction pattern below is pinned by the
# `engine_salt_is_nonempty_and_stable_format` test in
# crates/bench/tests/repro.rs — if the constant's shape changes, that test
# and this script must move together.
set -euo pipefail
cd "$(dirname "$0")/.."
salt=$(sed -n 's/^pub const ENGINE_SALT: &str = "\([^"]*\)";$/\1/p' crates/system/src/sweep.rs)
if [ -z "$salt" ]; then
    echo "error: could not extract ENGINE_SALT from crates/system/src/sweep.rs" >&2
    exit 1
fi
echo "$salt"
