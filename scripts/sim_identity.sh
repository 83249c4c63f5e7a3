#!/usr/bin/env bash
# Simulated-output identity between a base commit and the working tree: the
# oracle for any change that must not move a simulated number.
#
#   scripts/sim_identity.sh            # working tree vs HEAD
#   scripts/sim_identity.sh HEAD~      # working tree vs the parent commit
#
# Builds BASE_REF (exported with `git archive` into a temporary directory) and
# the working tree (in build-release/), both Release, then runs a fixed list
# of benches at SLEDS_BENCH_MAX_MB=8 under each I/O mode: SLEDS_IO_MODE unset
# (kFifoSync), fifo_async and elevator. Host-dependent output is dropped
# first: the build stamp line of every BENCH_*.json block and any wall-clock
# field. Everything else must match byte for byte; the script prints the diff
# and exits 1 on any difference.
set -euo pipefail
cd "$(dirname "$0")/.."

base_ref="${1:-HEAD}"
benches=(
  bench_fig03_lru_passes bench_fig07_08_wc_nfs bench_fig09_wc_cdrom_faults
  bench_fig11_12_grep_first_ext2 bench_fig13_grep_cdf_nfs bench_iosched bench_fault
  bench_ssd bench_replica bench_progs bench_hsm_find bench_ablation_mmap
  bench_fig10_grep_all_cdrom bench_fig14_fimhisto bench_fig15_fimgbin
)
modes=(sync fifo_async elevator)
jobs="$(nproc 2>/dev/null || echo 2)"

base_sha="$(git rev-parse --verify "${base_ref}^{commit}")"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# Configure and build the benches of one source tree; the log is shown only
# if the build fails.
build() {
  local src="$1" dir="$2" log="${work}/build-$(basename "$2").log"
  if ! { cmake -B "${dir}" -S "${src}" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "${dir}" -j "${jobs}" --target "${benches[@]}"; } >"${log}" 2>&1; then
    cat "${log}"
    echo "build of ${src} failed" >&2
    exit 2
  fi
}

echo "==== build ${base_ref} (${base_sha:0:12}) ===="
mkdir -p "${work}/base-src"
git archive --format=tar "${base_sha}" | tar -x -C "${work}/base-src"
build "${work}/base-src" "${work}/base-build"

echo "==== build working tree (build-release/) ===="
build . build-release

# Keep only machine-independent output: no build stamp, no wall-clock field.
strip_host() {
  grep -v '^ *"build": {' | sed -E 's/"wall[a-z_]*": [-+0-9.eE]+(, )?//g'
}

status=0
for mode in "${modes[@]}"; do
  for bench in "${benches[@]}"; do
    out="${work}/out/${mode}/${bench}"
    mkdir -p "${out}"
    for side in base new; do
      bin="${work}/base-build/bench/${bench}"
      [[ "${side}" == "new" ]] && bin="build-release/bench/${bench}"
      # A crash or non-zero exit is output too: it lands in the diff.
      if [[ "${mode}" == "sync" ]]; then
        env -u SLEDS_IO_MODE SLEDS_BENCH_MAX_MB=8 "${bin}" >"${out}/${side}.raw" 2>&1 ||
          echo "exit status $?" >>"${out}/${side}.raw"
      else
        SLEDS_IO_MODE="${mode}" SLEDS_BENCH_MAX_MB=8 "${bin}" >"${out}/${side}.raw" 2>&1 ||
          echo "exit status $?" >>"${out}/${side}.raw"
      fi
      strip_host <"${out}/${side}.raw" >"${out}/${side}.txt"
    done
    if diff -u "${out}/base.txt" "${out}/new.txt" >"${out}/diff.txt"; then
      printf '%-12s %-32s identical\n' "${mode}" "${bench}"
    else
      printf '%-12s %-32s DIFFERS\n' "${mode}" "${bench}"
      cat "${out}/diff.txt"
      status=1
    fi
  done
done

if [[ "${status}" -eq 0 ]]; then
  echo "==== identical: ${#benches[@]} benches x ${#modes[@]} I/O modes vs ${base_ref} ===="
else
  echo "==== simulated output differs from ${base_ref} ===="
fi
exit "${status}"
