#!/usr/bin/env bash
# Lists every `val` declared in lib/**/*.mli whose name appears as a whole
# word in no .ml file outside its own module (lib, bin, bench, examples,
# perfbench and test count as callers). Exits 1 when the list is not empty.
set -euo pipefail
cd "$(dirname "$0")/.."
mls=$(find lib bin bench examples perfbench test -name '*.ml' | sort)
status=0
for mli in $(find lib -name '*.mli' | sort); do
  own=${mli%i}
  others=$(printf '%s\n' $mls | grep -vxF "$own")
  for name in $(sed -nE 's/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_'\'']*).*/\1/p' "$mli" | sort -u); do
    if ! grep -qw -- "$name" $others; then
      echo "$mli: $name"
      status=1
    fi
  done
done
exit $status
