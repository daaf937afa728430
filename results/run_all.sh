#!/bin/bash
# Regenerates every full-scale experiment output in this directory. Run
# from the repository root:
#
#   bash results/run_all.sh
#
# Each results/<scenario>.txt is the stdout of
# `jgre-run <scenario> -scale full`, so the files themselves are the
# scenario list: add a scenario's file to pin its report. report.md is
# jgre-report's assessment. TestResultsCurrent (cmd/jgre-run) fails when
# a file here no longer matches what the code prints.
set -euo pipefail

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/jgre-run" ./cmd/jgre-run

for f in results/*.txt; do
	"$bin/jgre-run" "$(basename "$f" .txt)" -scale full > "$f"
done
go run ./cmd/jgre-report -o results/report.md
