#!/bin/sh
# Link-map check: every function declared in the module's non-test Go files
# that no binary links (cmd/*, examples/*, benchmark) must be listed in
# allow.txt beside this script, and every line of allow.txt must be such a
# function. A new unlinked function, an entry linked again, and an entry
# deleted all fail. Run from the repository root:
#
#   sh .github/linkmap/check.sh           # check
#   sh .github/linkmap/check.sh -update   # rewrite allow.txt
#
# -gcflags=all=-l keeps small functions out of their callers, so every
# linked function shows in the symbol table by name.
set -eu
export LC_ALL=C
dir=$(dirname "$0")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Linked: the module's text symbols in some binary, instantiation brackets
# stripped, a binary's own main.F named by its import path.
for p in ./cmd/* ./examples/* ./benchmark; do
	go build -gcflags=all=-l -o "$tmp/bin" "$p"
	go tool nm "$tmp/bin" |
		awk -v main="repro/${p#./}." '$2 == "T" || $2 == "t" {
			$1 = ""; $2 = ""; sub(/^ +/, "")
			sub(/^main\./, main)
			while (gsub(/\[[^][]*\]/, "")) {}
			if ($0 ~ /^repro\//) print
		}'
done | sort -u >"$tmp/linked"

# Declared: one symbol per func line of every non-test file, in the form nm
# prints it — pkg.F, pkg.T.M, pkg.(*T).M.
go list -f '{{range .GoFiles}}{{$.ImportPath}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./... |
	while read -r pkg file; do
		sed -n 's/^func \(([^)]*) \)\{0,1\}\([A-Za-z0-9_]*\).*/\1\2/p' "$file" |
			awk -v pkg="$pkg" '{
				name = $NF; recv = ""
				if (NF > 1) {
					r = $0; sub(/^\(/, "", r); sub(/\) *[^ ]*$/, "", r)
					n = split(r, f, " "); t = f[n]; sub(/\[.*/, "", t)
					recv = (t ~ /^\*/) ? "(" t ")." : t "."
				}
				if (recv != "" || name != "init" && name != "_") print pkg "." recv name
			}'
	done | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/linked" >"$tmp/unlinked"
if [ "${1:-}" = "-update" ]; then
	cp "$tmp/unlinked" "$dir/allow.txt"
	exit 0
fi
if ! diff -u "$dir/allow.txt" "$tmp/unlinked"; then
	echo "link map: unlinked non-test functions differ from $dir/allow.txt" >&2
	echo "(+ unlinked and not allowed; - allowed but linked again or deleted)" >&2
	exit 1
fi
