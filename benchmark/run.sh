#!/usr/bin/env bash
# The benchmark's one command: builds the harness and the worker binary the
# process backend spawns, then runs every workload (or the one `--workload`
# names) and prints every metric by name with its unit. Exits non-zero if a
# build fails or any output check does.
#
#   benchmark/run.sh                       # all workloads, untraced + traced
#   benchmark/run.sh --quick               # the same code paths in seconds
#   benchmark/run.sh --workload exec-fine --seed 7 --seconds 12 --trace 0
#   benchmark/run.sh compare A.json B.json
#
# Arguments are passed to memtree-benchmark; src/main.rs lists them.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Cargo resolves a relative CARGO_TARGET_DIR against its working directory;
# pin it down once so both builds and the binary paths below agree.
if [[ -n "${CARGO_TARGET_DIR:-}" && "$CARGO_TARGET_DIR" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
harness="${CARGO_TARGET_DIR:-$here/target}/release/memtree-benchmark"
worker="${CARGO_TARGET_DIR:-$root/target}/release/memtree-shard-worker"

# Same flags for both: release, and nothing the lock files do not pin.
build=(cargo build --quiet --release --offline --locked)

"${build[@]}" --manifest-path "$here/Cargo.toml"
if [[ "${1:-}" == compare ]]; then
    exec "$harness" "$@"
fi

# `shard-merge` measures real worker processes. A benchmark that quietly
# skipped them would report a number for something it did not run.
if ! "${build[@]}" --manifest-path "$root/Cargo.toml" \
        -p memtree_runtime --bin memtree-shard-worker; then
    echo "run.sh: cannot build memtree-shard-worker from $root — refusing to run without it" >&2
    exit 1
fi
[[ -x "$worker" ]] || { echo "run.sh: $worker missing after a successful build" >&2; exit 1; }

exec "$harness" --worker-bin "$worker" --out-dir "$here/out" "$@"
