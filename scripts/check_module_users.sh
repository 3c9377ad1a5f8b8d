#!/usr/bin/env bash
# Fails when a library header under src/ has no user: no tracked file other
# than its own .cc and the tests under tests/ includes it. A module that only
# its own tests reach is unused surface; delete it or give it a caller
# (library code, a bench, an example or perfbench).
#
# Usage: scripts/check_module_users.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

mapfile -t sources < <(git ls-files -- '*.h' '*.cc' ':!:tests/**')

status=0
for header in $(git ls-files -- 'src/**.h'); do
  own="${header%.h}.cc"
  include="#include \"${header#src/}\""
  users=$(grep -lF -- "$include" "${sources[@]}" | grep -vxF -- "$own" || true)
  if [[ -z "$users" ]]; then
    echo "unused module: $header is included only by its own .cc or tests/"
    status=1
  fi
done
exit "$status"
