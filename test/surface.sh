#!/usr/bin/env bash
# Surface gate: every value a library interface exports must have a
# caller outside its own module.
#
# A value `val name` in lib/**/*.mli is flagged when `name` appears as a
# whole word in no .ml under lib, bin, bench, perfbench or examples other
# than its own module's .ml (tests do not count as callers).  The gate
# fails on a flagged value missing from test/surface_allowlist.txt, on an
# allowlist entry that is no longer flagged (so the list only shrinks),
# and on an entry without a `# reason`.
#
# Usage: test/surface.sh   (from anywhere; prints the offending lines)
set -euo pipefail
cd "$(dirname "$0")/.."
allow=test/surface_allowlist.txt

index() {
  find lib bin bench perfbench examples -name '*.ml' -not -path '*/_build/*' |
    sort | while read -r f; do
      grep -oE '[A-Za-z0-9_]+' "$f" | sort -u | sed "s|\$| $f|"
    done
}

exports() {
  find lib -name '*.mli' -not -path '*/_build/*' | sort | while read -r f; do
    sed -nE "s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/\1/p" "$f" |
      sort -u | sed "s|^|$f |"
  done
}

flagged=$(awk '
  FNR == NR { n[$1]++; has[$1, $2] = 1; next }
  { own = $1; sub(/\.mli$/, ".ml", own)
    if (n[$2] - ((($2, own) in has) ? 1 : 0) == 0) print $1, $2 }
' <(index) <(exports))

status=0
while read -r path name; do
  [ -n "$path" ] || continue
  grep -qE "^$path $name([[:space:]]|\$)" "$allow" || {
    echo "surface: $path: val $name has no caller outside its module and tests"
    status=1
  }
done <<< "$flagged"

while read -r path name rest; do
  case "$path" in ''|'#'*) continue ;; esac
  grep -qxF "$path $name" <<< "$flagged" || {
    echo "surface: allowlist entry '$path $name' is not flagged; delete it"
    status=1
  }
  [[ "$rest" =~ ^#[[:space:]]*[^[:space:]] ]] || {
    echo "surface: allowlist entry '$path $name' has no '# reason'"
    status=1
  }
done < "$allow"

if [ "$status" = 0 ]; then
  echo "surface: ok ($(grep -cvE '^(#|$)' "$allow") allowlisted)"
fi
exit "$status"
