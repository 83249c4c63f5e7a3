#!/usr/bin/env bash
# Profile a bench binary (or the repository benchmark) and print the hot spots.
#
#   scripts/profile.sh bench_scale                 # profile bench_scale
#   scripts/profile.sh bench_micro --benchmark_filter='BM_PageCacheTouchHit'
#   scripts/profile.sh perfbench --workload paper_apps --seconds 10
#
# With Linux perf: builds the `profile` CMake preset (RelWithDebInfo +
# -fno-omit-frame-pointer, see CMakePresets.json) so call graphs resolve,
# records with perf, and prints the top of `perf report`. The perf.data stays
# in build-profile/ for interactive drill-down
# (`perf report -i build-profile/perf.data`).
#
# Without perf: builds the `gprof` preset (RelWithDebInfo + -pg) into
# build-gprof/, runs the binary there and prints the top of gprof's flat
# profile. The gmon.out stays next to the binary.
#
# perfbench is its own CMake project (perfbench/CMakeLists.txt); it is built
# into <preset dir>/perfbench with the preset's flags.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
  echo "usage: scripts/profile.sh <bench_target|perfbench> [args...]" >&2
  exit 2
fi
target="$1"
shift

if command -v perf >/dev/null 2>&1; then
  tool=perf preset=profile cxx_flags=-fno-omit-frame-pointer link_flags=
elif command -v gprof >/dev/null 2>&1; then
  tool=gprof preset=gprof cxx_flags=-pg link_flags=-pg
else
  tool=time preset=profile cxx_flags=-fno-omit-frame-pointer link_flags=
fi
build_dir="build-${preset}"

if [[ "${target}" == perfbench ]]; then
  cmake -S perfbench -B "${build_dir}/perfbench" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${cxx_flags}" -DCMAKE_EXE_LINKER_FLAGS="${link_flags}" >/dev/null
  cmake --build "${build_dir}/perfbench" -j --target perfbench
  bin="${build_dir}/perfbench/perfbench"
else
  cmake --preset "${preset}" >/dev/null
  cmake --build --preset "${preset}" -j --target "${target}"
  bin="${build_dir}/bench/${target}"
fi
if [[ ! -x "${bin}" ]]; then
  echo "error: ${bin} not built" >&2
  exit 1
fi

case "${tool}" in
  perf)
    perf record -g --call-graph=fp -o "${build_dir}/perf.data" -- "${bin}" "$@"
    perf report -i "${build_dir}/perf.data" --stdio --percent-limit 1 | head -60
    echo
    echo "full data: perf report -i ${build_dir}/perf.data"
    ;;
  gprof)
    echo "perf not found; profiling ${target} with gprof" >&2
    dir="$(dirname "${bin}")"
    # The -pg runtime writes gmon.out into the working directory at exit.
    (cd "${dir}" && rm -f gmon.out && "./$(basename "${bin}")" "$@")
    gprof -b -p "${bin}" "${dir}/gmon.out" | head -40
    echo
    echo "full data: gprof ${bin} ${dir}/gmon.out"
    ;;
  time)
    echo "neither perf nor gprof found; running ${target} under 'time' instead" >&2
    time "${bin}" "$@"
    ;;
esac
