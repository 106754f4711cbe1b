#!/usr/bin/env bash
# Mutation check: applies one-line mutants of the code, one at a time,
# to a scratch copy of the working tree, and runs the tests that should
# catch each. It prints "killed" when the tests fail and "SURVIVED" when
# they pass. Not part of scripts/ci.sh: a full run takes minutes.
#
# Usage: scripts/mutants.sh [list]   (default: scripts/mutants.txt)
#
# The list holds one mutant per line, five fields separated by TABs:
#
#   name  file  line  sed-expression  go-test-arguments
#
# "line" is an extended regex (grep -E) that must match exactly one line
# of file; written "anchor >> line", it picks the first line matching
# "line" after the one line matching "anchor" (for a statement that
# appears in more than one function). The sed expression is applied to
# that line alone and must change it. The tests run as
# `go test -count=1 -timeout 300s <go-test-arguments>`. Blank lines and
# lines starting with # are skipped.
#
# A mutant whose line does not match exactly once, whose expression
# changes nothing, or whose copy does not compile is reported as BADLINE,
# NOAPPLY or UNBUILT, and makes the script exit 1: the list must follow
# the code. Survivors do not change the exit status; each is recorded as
# equivalent or as a gap in the tests.
set -euo pipefail
cd "$(dirname "$0")/.."
list="${1:-scripts/mutants.txt}"

work="$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")"
trap 'rm -rf "$work"' EXIT
tar --exclude=./.git --exclude=./.bench_build -cf - . | tar -xf - -C "$work/"
mkdir "$work/.orig"

killed=0 survived=0 bad=0
while IFS=$'\t' read -r name file line expr args || [ -n "$name" ]; do
  case "$name" in '' | '#'*) continue ;; esac
  target="$work/$file"
  if [ ! -f "$target" ] || [ -z "$args" ]; then
    echo "BADLINE  $name: no file $file or too few fields"
    bad=$((bad + 1))
    continue
  fi
  if [[ "$line" == *' >> '* ]]; then
    anchor="${line%% >> *}"
    pattern="${line#* >> }"
    starts="$(grep -nE -- "$anchor" "$target" | cut -d: -f1 || true)"
    if [ "$(grep -c . <<<"$starts")" != 1 ]; then
      echo "BADLINE  $name: anchor /$anchor/ does not match exactly one line of $file"
      bad=$((bad + 1))
      continue
    fi
    ln="$(tail -n +"$starts" "$target" | grep -nE -- "$pattern" | head -1 | cut -d: -f1 || true)"
    [ -n "$ln" ] && ln=$((starts + ln - 1))
  else
    matches="$(grep -nE -- "$line" "$target" | cut -d: -f1 || true)"
    ln=""
    [ "$(grep -c . <<<"$matches")" = 1 ] && ln="$matches"
  fi
  if [ -z "$ln" ]; then
    echo "BADLINE  $name: /$line/ does not match exactly one line of $file"
    bad=$((bad + 1))
    continue
  fi

  cp "$target" "$work/.orig/file"
  sed -i "${ln}${expr}" "$target"
  where="$file:$ln"
  if cmp -s "$target" "$work/.orig/file"; then
    echo "NOAPPLY  $name ($where): $expr changes nothing"
    bad=$((bad + 1))
    continue
  fi
  # shellcheck disable=SC2086 # args holds flags and package paths
  if ! (cd "$work" && go build "./$(dirname "$file")" >/dev/null 2>&1); then
    echo "UNBUILT  $name ($where)"
    bad=$((bad + 1))
  elif (cd "$work" && go test -count=1 -timeout 300s $args >"$work/.orig/log" 2>&1); then
    echo "SURVIVED $name ($where)"
    survived=$((survived + 1))
  else
    first="$(grep -m1 -E -- '^--- FAIL|panic:|timed out' "$work/.orig/log" || true)"
    echo "killed   $name ($where) ${first:+— $first}"
    killed=$((killed + 1))
  fi
  cp "$work/.orig/file" "$target"
done <"$list"

echo "$((killed + survived + bad)) mutants: $killed killed, $survived survived, $bad not applied"
[ "$bad" = 0 ]
