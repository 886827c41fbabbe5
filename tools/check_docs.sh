#!/usr/bin/env bash
# Docs health checks, grep-based so they run anywhere:
#
#   1. every relative markdown link in README.md and docs/*.md resolves to
#      an existing file;
#   2. the vspec reference (docs/vspec.md) mentions every keyword the
#      vspec parser actually accepts — adding a keyword to the grammar
#      without documenting it fails this check.
#   3. every registry element has a tests/packs/ property pack;
#   4. every fenced `vsd <cmd> ...` line in README.md, docs/*.md and the
#      verify skill names a command of the CLI's flag matrix and passes
#      only flags that command accepts.
#
# Run from the repo root: ./tools/check_docs.sh
set -u
cd "$(dirname "$0")/.."
fail=0

# --- 1. internal links -------------------------------------------------------
for f in README.md docs/*.md; do
  dir=$(dirname "$f")
  # Targets of [text](target); external URLs and pure anchors are skipped,
  # fragment suffixes are stripped before the existence check.
  for target in $(grep -oE '\]\([^)]+\)' "$f" | sed -e 's/^](//' -e 's/)$//'); do
    case "$target" in
      http://* | https://* | mailto:* | \#*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN LINK: $f -> $target"
      fail=1
    fi
  done
done

# --- 2. EBNF keyword sync ----------------------------------------------------
# The parser's accepted keywords, harvested from the comparison sites in
# src/spec/parser.cpp (statement/property/builtin/field-shape keywords)
# and src/verify/predicates.cpp (protocol namespaces).
keywords=$(
  {
    grep -ohE '\.text (==|!=) "[a-z_0-9]+"' src/spec/parser.cpp
    grep -ohE 'at_ident\("[a-z_0-9]+"\)' src/spec/parser.cpp
    grep -ohE '\.(proto|field) (==|!=) "[a-z_0-9]+"' src/spec/parser.cpp
    grep -ohE 'proto == "[a-z_0-9]+"' src/verify/predicates.cpp
  } | grep -oE '"[a-z_0-9]+"' | tr -d '"' | sort -u
)
if [ -z "$keywords" ]; then
  echo "EBNF SYNC: harvested no keywords from the parser — check the greps"
  fail=1
fi
for kw in $keywords; do
  if ! grep -qw -- "$kw" docs/vspec.md; then
    echo "EBNF OUT OF SYNC: parser accepts '$kw' but docs/vspec.md never mentions it"
    fail=1
  fi
done

# --- 3. property-pack coverage ----------------------------------------------
# Every builtin registry element must ship a property pack under
# tests/packs/, and every pack file must name a registered element. Element
# names are harvested from the factory table in src/elements/registry.cpp
# (test-only elements are registered at runtime and never appear there).
elements=$(grep -ohE '\{"[A-Za-z0-9]+",' src/elements/registry.cpp |
  grep -oE '"[A-Za-z0-9]+"' | tr -d '"' | sort -u)
if [ -z "$elements" ]; then
  echo "PACK SYNC: harvested no element names from registry.cpp — check the grep"
  fail=1
fi
for elem in $elements; do
  if [ ! -f "tests/packs/$elem.vspec" ]; then
    echo "PACK MISSING: element '$elem' has no tests/packs/$elem.vspec"
    fail=1
  fi
done
for pack in tests/packs/*.vspec; do
  [ -e "$pack" ] || continue
  stem=$(basename "$pack" .vspec)
  if ! echo "$elements" | grep -qx -- "$stem"; then
    echo "PACK STRAY: $pack matches no element in registry.cpp"
    fail=1
  fi
done

# --- 4. CLI flag sync ---------------------------------------------------------
# "cmd: flag..." per `m["cmd"] = ...;` statement of the flag matrix in
# tools/vsd.cpp (with(obs, ...) adds trace and metrics). Each fenced doc
# line running `vsd` or `./build/vsd` must name one of those commands and
# use only its flags; quoted arguments and # comments are skipped.
matrix=$(sed -n '/kMatrix = \[\] {/,/}();/p' tools/vsd.cpp | tr '\n;' ' \n' |
  sed -n 's/.*m\["\([a-z-]*\)"\] = \(.*\)/\1 \2/p' | while read -r cmd rest; do
    case "$rest" in *"with(obs"*) rest="$rest \"trace\" \"metrics\"" ;; esac
    echo "$cmd:" $(echo "$rest" | grep -oE '"[a-z-]+"' | tr -d '"')
  done)
ncli=0
while IFS=$'\t' read -r where line; do
  ncli=$((ncli + 1))
  args=$(echo "$line" | sed -e 's/"[^"]*"//g' -e 's/[[:space:]]#.*//')
  cmd=$(echo "$args" | sed -E 's|^[[:space:]]*(\./build/)?vsd[[:space:]]+([^[:space:]]+).*|\2|')
  allowed=$(echo "$matrix" | awk -v c="$cmd:" '$1 == c { $1 = ""; print $0 " " }')
  if [ -z "$allowed" ]; then
    echo "CLI OUT OF SYNC: $where: 'vsd $cmd' is not a command of tools/vsd.cpp"
    fail=1
  fi
  for flag in $(echo "$args" | grep -oE -- '--[a-z][a-z0-9-]*'); do
    case "$allowed" in *" ${flag#--} "*) ;; *)
      echo "CLI OUT OF SYNC: $where: 'vsd $cmd' does not take $flag"; fail=1 ;;
    esac
  done
done < <(awk 'FNR == 1 { fence = 0 } /^[[:space:]]*```/ { fence = !fence; next }
  fence && /^[[:space:]]*(\.\/build\/)?vsd[[:space:]]+[^[:space:]]/ { print FILENAME ":" FNR "\t" $0 }' \
  README.md docs/*.md .claude/skills/verify/SKILL.md)

if [ "$fail" -eq 0 ]; then
  count=$(echo "$keywords" | wc -w | tr -d ' ')
  npacks=$(echo "$elements" | wc -w | tr -d ' ')
  echo "docs OK: links resolve, vspec reference covers all $count parser keywords, $npacks property packs in sync, $ncli fenced vsd lines match the CLI flags"
fi
exit "$fail"
