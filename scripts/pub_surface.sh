#!/usr/bin/env bash
# List every `pub fn|const|static|trait` in `crates/*/src` whose name
# appears in no other file of the workspace: product code, `src/`,
# `tests/`, `examples/`, every crate's `tests/`, `benches/` and
# `examples/`, and the benchmark's `benchmark/src` all count as callers.
# The match is by whole word over code only: comment lines and `pub use`
# re-exports name an item without calling it, so they do not count.
#
#   scripts/pub_surface.sh                   print the hits, one per line
#   scripts/pub_surface.sh --check ALLOW     exit 1 on a hit missing from
#                                            ALLOW, or an ALLOW line that
#                                            is no longer a hit
#
# A hit prints as `path name`; an allowlist line is the same pair
# followed by `# reason` (the reason also stands in DESIGN.md §3).
set -euo pipefail
cd "$(dirname "$0")/.."

callers=(crates src tests examples benchmark/src)

hits() {
  # One "word<TAB>file" pair per distinct word of each file.
  local index
  index="$(mktemp)"
  find "${callers[@]}" -name '*.rs' -not -path '*/target/*' | sort | while read -r f; do
    perl -0pe 's{^[ \t]*//[^\n]*}{}mg; s{\bpub use [^;]*;}{}g' "$f" \
      | { grep -ow '[A-Za-z_][A-Za-z0-9_]*' || true; } | sort -u | sed "s|\$|	$f|"
  done > "$index"
  find crates/*/src -name '*.rs' | sort | while read -r f; do
    sed -nE 's/^[[:space:]]*pub (const |unsafe |extern "C" )*(fn|const|static|trait) ([A-Za-z_][A-Za-z0-9_]*).*/\3/p' "$f" \
      | sort -u | sed "s|^|$f |"
  done | awk -v index_file="$index" '
    BEGIN {
      while ((getline line < index_file) > 0) {
        split(line, p, "\t")
        files[p[1]] = files[p[1]] "\n" p[2]
      }
    }
    {
      path = $1; name = $2
      n = split(files[name], fs, "\n")
      used = 0
      for (i = 1; i <= n; i++) if (fs[i] != "" && fs[i] != path) used = 1
      if (!used) print path " " name
    }'
  rm -f "$index"
}

if [ "${1:-}" = "--check" ]; then
  allow="${2:?usage: $0 --check ALLOWLIST}"
  found="$(hits)"
  listed="$(sed -e 's/[[:space:]]*#.*//' -e '/^[[:space:]]*$/d' "$allow")"
  status=0
  while read -r hit; do
    [ -z "$hit" ] && continue
    if ! grep -qxF "$hit" <<< "$listed"; then
      echo "caller-less pub item not in $allow: $hit" >&2
      status=1
    fi
  done <<< "$found"
  while read -r entry; do
    [ -z "$entry" ] && continue
    if ! grep -qxF "$entry" <<< "$found"; then
      echo "stale $allow entry (now has a caller or is gone): $entry" >&2
      status=1
    fi
  done <<< "$listed"
  if grep -vE '^[[:space:]]*(#|$)' "$allow" | grep -qv '#'; then
    echo "every $allow line needs a '# reason'" >&2
    status=1
  fi
  exit "$status"
fi

hits
