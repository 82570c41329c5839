#!/bin/sh
# Mutation audit of the qb5000vet analyzers (DESIGN.md §7).
#
# Exports HEAD into a temporary directory and, for each row of
# mutations.txt, applies the row's one-line substitution, checks that the
# tree still builds, then runs `go run ./cmd/qb5000vet ./...` and
# `go test -count=1 <packages>` and prints
#
#   analyzer | rule | qb5000vet finding? | first failing test
#
# The working tree is never touched. Exits 1 if any row does not apply
# exactly once, does not build, or is caught by neither gate.
#
# Usage: sh internal/lint/audit/run.sh [analyzer]   (or: make lint-audit)
# With an analyzer name, only that analyzer's rows run.
set -u

root=$(git rev-parse --show-toplevel) || exit 2
table=$root/internal/lint/audit/mutations.txt
only=${1:-}
work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
tree=$work/tree
mkdir "$tree" && git -C "$root" archive HEAD | tar -x -C "$tree" || exit 2
cd "$tree" || exit 2

status=0
echo 'analyzer | rule | qb5000vet finding? | first failing test'
while IFS= read -r line; do
	case $line in '' | '#'*) continue ;; esac
	analyzer=${line%% | *} rest=${line#* | }
	rule=${rest%% | *} rest=${rest#* | }
	file=${rest%% | *} rest=${rest#* | }
	pkgs=${rest%% | *} sub=${rest#* | }
	case $sub in
	*' => '*) old=${sub%% => *} new=${sub#* => } ;;
	*' =>') old=${sub% =>} new= ;;
	*) old= ;;
	esac
	[ -n "$only" ] && [ "$only" != "$analyzer" ] && continue
	if [ -z "$old" ] || [ ! -f "$file" ]; then
		echo "$analyzer | $rule | malformed row or missing file $file"
		status=1
		continue
	fi

	cp "$file" "$work/orig"
	if ! OLD=$old NEW=$new awk '
		BEGIN { old = ENVIRON["OLD"]; new = ENVIRON["NEW"] }
		{
			out = ""; s = $0
			while ((i = index(s, old)) > 0) {
				out = out substr(s, 1, i - 1) new; s = substr(s, i + length(old)); n++
			}
			print out s
		}
		END { exit n == 1 ? 0 : 1 }' "$work/orig" >"$file"; then
		echo "$analyzer | $rule | does not apply: old text must occur exactly once in $file"
		status=1
	elif ! go build ./... >"$work/log" 2>&1; then
		echo "$analyzer | $rule | does not build: $(head -n 1 "$work/log")"
		status=1
	else
		# Findings go to stdout as "file:line:col: analyzer: message".
		go run ./cmd/qb5000vet ./... >"$work/log" 2>"$work/err"
		case $? in
		0) vet=- ;;
		1) vet=$(awk -F': ' '{ print $2 }' "$work/log" | sort -u | paste -sd, -) ;;
		*) vet="driver failure: $(head -n 1 "$work/err")" ;;
		esac
		# shellcheck disable=SC2086 # pkgs is a list of package patterns
		if go test -count=1 $pkgs >"$work/log" 2>&1; then
			test=-
		else
			test=$(sed -n 's/^ *--- FAIL: \([^ ]*\).*/\1/p' "$work/log" | head -n 1)
			[ -n "$test" ] || test="$(sed -n 's/^FAIL[[:space:]]\([^[:space:]]*\).*/\1/p' "$work/log" | head -n 1) (no test: build, init or panic)"
		fi
		echo "$analyzer | $rule | $vet | $test"
		if [ "$vet" = - ] && [ "$test" = - ]; then
			echo "  ^ caught by no gate"
			status=1
		fi
	fi
	cp "$work/orig" "$file"
done <"$table"
exit $status
