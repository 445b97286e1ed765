#!/usr/bin/env bash
# Lists every `val` declared in lib/**/*.mli whose name appears as a whole
# word in no .ml file outside its own module (lib, bin, bench, examples,
# perfbench and test count as callers). Exits 1 when the list is not empty.
#
# With --lib, test/ is not a caller, so a `val` that only tests call is
# listed too, unless .github/test_only_exports.txt names it (one
# `path: name  # reason` line each).
#
# A name counts as used wherever it occurs as a whole word, qualified or
# not, so the check has false negatives: a `val` that only tests call
# passes when its name is a common word used elsewhere (`mean`, `pp`,
# `decode`). A listed name is test-only; an unlisted one may be too.
set -euo pipefail
cd "$(dirname "$0")/.."
callers="lib bin bench examples perfbench test"
allowed=""
if [ "${1:-}" = "--lib" ]; then
  callers="lib bin bench examples perfbench"
  allowed=$(sed -e 's/[[:space:]]*#.*$//' -e '/^$/d' .github/test_only_exports.txt)
fi
mls=$(find $callers -name '*.ml' | sort)
status=0
for mli in $(find lib -name '*.mli' | sort); do
  own=${mli%i}
  others=$(printf '%s\n' $mls | grep -vxF "$own")
  for name in $(sed -nE 's/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_'\'']*).*/\1/p' "$mli" | sort -u); do
    if ! grep -qw -- "$name" $others && ! printf '%s\n' "$allowed" | grep -qxF "$mli: $name"; then
      echo "$mli: $name"
      status=1
    fi
  done
done
exit $status
