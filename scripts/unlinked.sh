#!/usr/bin/env bash
# unlinked.sh lists the functions of flecc's library packages (the root
# package and internal/*) that no binary links: no command under cmd/, no
# program under examples/, and not the end-to-end benchmark in bench/.
#
# It builds every one of those binaries with inlining off and the linker's
# -dumpdep listing on, collects each symbol the listing names, and prints
# each non-test function declaration whose symbol is not among them:
#
#   <package dir> <function> <lines>
#
# with methods written as the linker writes them, (*T).M or T.M, and the
# lines counted from the func keyword to the closing brace.
#
# Usage:
#   bash scripts/unlinked.sh           print the listing
#   bash scripts/unlinked.sh --check   fail if a function is unlinked that
#                                      scripts/unlinked.txt does not list
#
# scripts/unlinked.txt is the committed residue: the listing with a reason
# appended to each entry. Run from anywhere; nothing is left in the tree.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
module=$(awk '$1 == "module" { print $2; exit }' go.mod)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Every symbol any binary links, one a line.
link() { # <dir for go -C> <package>
	go build -C "$1" -o "$tmp/bin" -gcflags=all=-l -ldflags=-dumpdep "$2" 2>&1 |
		awk -F' -> ' 'NF == 2 { for (i = 1; i <= 2; i++) { sub(/ <.*/, "", $i); print $i } }' >>"$tmp/syms.raw"
}
for d in cmd/*/ examples/*/; do
	link . "./$d"
done
link bench .
sort -u "$tmp/syms.raw" >"$tmp/syms"

# Every top-level func declaration in the library packages, as
# "<import path>.<symbol> <dir> <symbol> <lines>".
find . -path ./bench -prune -o -path ./cmd -prune -o -path ./examples -prune \
	-o -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | sort |
	xargs awk -v module="$module" '
	FNR == 1 {
		dir = FILENAME
		sub(/^\.\//, "", dir)
		sub(/\/?[^\/]*$/, "", dir)
		path = dir == "" ? module : module "/" dir
		if (dir == "") dir = "."
		open = ""
	}
	/^func / {
		line = $0
		sub(/^func /, "", line)
		recv = ""
		if (line ~ /^\(/) {
			r = substr(line, 2, index(line, ")") - 2)
			line = substr(line, index(line, ")") + 2)
			n = split(r, parts, " ")
			t = parts[n]
			recv = t ~ /^\*/ ? "(" t ")." : t "."
		}
		name = line
		sub(/\(.*/, "", name)
		if (name == "init" || name == "_") next
		open = recv name
		start = FNR
	}
	open != "" && (/^}/ || (FNR == start && /\}$/)) {
		printf "%s.%s %s %s %d\n", path, open, dir, open, FNR - start + 1
		open = ""
	}' >"$tmp/funcs"

# Keep those whose symbol no binary links.
awk 'NR == FNR { linked[$1] = 1; next } !($1 in linked) { print $2, $3, $4 }' \
	"$tmp/syms" "$tmp/funcs" >"$tmp/unlinked"

if [[ "${1:-}" != "--check" ]]; then
	cat "$tmp/unlinked"
	exit 0
fi

# --check: every unlinked function must be a listed residue entry.
fresh=$(awk 'NR == FNR { if ($0 !~ /^#/) known[$1 " " $2] = 1; next }
	!(($1 " " $2) in known) { print }' scripts/unlinked.txt "$tmp/unlinked")
if [[ -n "$fresh" ]]; then
	echo "unlinked functions not in scripts/unlinked.txt (delete them, or list them with a reason):" >&2
	echo "$fresh" >&2
	exit 1
fi
echo "unlinked: $(wc -l <"$tmp/unlinked") functions, all listed in scripts/unlinked.txt"
