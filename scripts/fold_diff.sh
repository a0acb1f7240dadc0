#!/usr/bin/env bash
# Output identity against another commit: do the campaign folds change?
#
#   scripts/fold_diff.sh <git-ref> [preset...]
#
# Builds clover_campaign twice, Release: <git-ref> in a throwaway git
# worktree under .fold_diff/ (removed on exit) and the working tree in
# .fold_diff/build-head (kept, so reruns build incrementally). Runs each
# preset — campaigns/<preset>.json from the working tree, default
# `smoke fig09_toy fig10_toy fleet_routing_toy fleet_1000region_toy` (the
# fig10 grid is the one default covering ORACLE and BLOVER) — with both
# binaries at --threads 2 and cmp's the wall-free folds
# CAMPAIGN_<preset>.json. Prints one Markdown table row per preset
# (identical, differs, or which side failed) and exits 1 unless every
# preset is identical. A model change that is meant to move results
# differs legitimately; a refactor must not.
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ $# -lt 1 ]]; then
  echo "usage: scripts/fold_diff.sh <git-ref> [preset...]" >&2
  exit 2
fi
REF="$1"
shift
PRESETS=("$@")
if [[ ${#PRESETS[@]} -eq 0 ]]; then
  PRESETS=(smoke fig09_toy fig10_toy fleet_routing_toy fleet_1000region_toy)
fi

SHA="$(git rev-parse --verify "$REF^{commit}")"
ROOT=".fold_diff"
WORKTREE="$ROOT/ref-$SHA"
JOBS="$(nproc)"
mkdir -p "$ROOT"

cleanup() {
  git worktree remove --force "$WORKTREE" >/dev/null 2>&1 || true
  rm -rf "$WORKTREE" "$ROOT/build-ref" "$ROOT/out"
  git worktree prune
}
trap cleanup EXIT

# Builds clover_campaign from source dir $1 into build dir $2; the build
# log goes to $2.log.
build_campaign() {
  {
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release \
      -DCLOVER_BUILD_TESTS=OFF -DCLOVER_BUILD_BENCH=OFF &&
      cmake --build "$2" -j "$JOBS" --target clover_campaign
  } >"$2.log" 2>&1
}

cleanup  # leftovers of an interrupted run
git worktree add --detach "$WORKTREE" "$SHA" >/dev/null
echo "fold_diff: building $REF ($SHA) and the working tree" >&2
ref_ok=1
head_ok=1
build_campaign "$WORKTREE" "$ROOT/build-ref" || ref_ok=0
build_campaign . "$ROOT/build-head" || head_ok=0

echo "| preset | $REF vs working tree |"
echo "|---|---|"
status=0
for preset in "${PRESETS[@]}"; do
  spec="campaigns/$preset.json"
  result="identical"
  for side in ref head; do
    ok_var="${side}_ok"
    if [[ ${!ok_var} -eq 0 ]]; then
      result="$side build failed (see $ROOT/build-$side.log)"
    elif ! "$ROOT/build-$side/examples/clover_campaign" run "$spec" \
        --threads 2 --out "$ROOT/out/$side" \
        >"$ROOT/run-$side-$preset.log" 2>&1; then
      result="$side run failed (see $ROOT/run-$side-$preset.log)"
    fi
    [[ "$result" == "identical" ]] || break
  done
  if [[ "$result" == "identical" ]] &&
     ! cmp -s "$ROOT/out/ref/CAMPAIGN_$preset.json" \
       "$ROOT/out/head/CAMPAIGN_$preset.json"; then
    result="differs"
  fi
  [[ "$result" == "identical" ]] || status=1
  echo "| $preset | $result |"
done
exit "$status"
