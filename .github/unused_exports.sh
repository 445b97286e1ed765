#!/usr/bin/env bash
# Lists every `val` declared in lib/**/*.mli that no .ml file outside its
# own module uses (lib, bin, bench, examples, perfbench and test count as
# callers). Exits 1 when the list is not empty.
#
# With --lib, test/ is not a caller, so a `val` that only tests call is
# listed too, unless .github/test_only_exports.txt names it (one
# `path: name  # reason` line each).
#
# A `val` whose only use is through a functor argument
# (`Hashtbl.Make (Guid)` uses `Guid.hash`) is not seen; the allowlist
# names it with a reason starting `functor:`, which both modes read.
#
# A use is the name qualified by its module (`Window.similarity`, also
# inside a longer path such as `Coign_core.Window.similarity`), qualified
# by an alias of the module (`module G = Flow_network` then `G.of_edges`),
# or the bare name in a file that opens the module (`open`, `let open`,
# `include` or a local `Window.( ... )`). A `val` inside a nested
# `module Sub : sig ... end` is qualified by `Sub`.
set -euo pipefail
cd "$(dirname "$0")/.."
callers="lib bin bench examples perfbench test"
list=.github/test_only_exports.txt
allowed=$(grep -E '#[[:space:]]*functor:' $list | sed -e 's/[[:space:]]*#.*$//')
if [ "${1:-}" = "--lib" ]; then
  callers="lib bin bench examples perfbench"
  allowed=$(sed -e 's/[[:space:]]*#.*$//' -e '/^$/d' $list)
fi
mls=$(find $callers -name '*.ml' | sort)
path='([A-Z][A-Za-z0-9_]*\.)*'
status=0
for mli in $(find lib -name '*.mli' | sort); do
  own=${mli%i}
  others=$(printf '%s\n' $mls | grep -vxF "$own")
  base=$(basename "$own" .ml)
  top=$(printf '%s' "${base:0:1}" | tr a-z A-Z)${base:1}
  # One `qualifier name` line per val: the module, or the nested
  # signature the val sits in.
  vals=$(awk -v top="$top" '
    /^module [A-Z][A-Za-z0-9_]* *: *sig/ { q = $2; sub(/:.*/, "", q); next }
    /^end/ { q = "" }
    match($0, /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_'\'']*/) {
      v = substr($0, RSTART, RLENGTH); sub(/^[ \t]*val[ \t]+/, "", v)
      print (q == "" ? top : q), v
    }' "$mli" | sort -u)
  for q in $(printf '%s\n' "$vals" | cut -d' ' -f1 | sort -u); do
    # Files that open [q], and the names [q] is aliased to.
    opened=$(grep -lE "(\bopen!?|\binclude)[[:space:]]+$path$q\b|\b$q\.\(" $others || true)
    aliases=$(grep -ohE "\bmodule[[:space:]]+[A-Z][A-Za-z0-9_]*[[:space:]]*=[[:space:]]*$path$q\b" \
      $others | sed -E 's/^module[[:space:]]+([A-Za-z0-9_]*).*/\1/' | sort -u || true)
    quals=$(printf '%s\n' "$q" $aliases | sort -u | paste -sd'|' -)
    for name in $(printf '%s\n' "$vals" | awk -v q="$q" '$1 == q { print $2 }'); do
      if grep -qE -- "\b($quals)\.$name\b" $others; then continue; fi
      if [ -n "$opened" ] && grep -qw -- "$name" $opened; then continue; fi
      if printf '%s\n' "$allowed" | grep -qxF "$mli: $name"; then continue; fi
      echo "$mli: $name"
      status=1
    done
  done
done
exit $status
