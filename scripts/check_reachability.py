#!/usr/bin/env python3
"""Fail on any src/ function that no binary links.

Usage:
    scripts/check_reachability.py [BUILD_DIR]

The function-level counterpart of lint_hilos.py check 8 (which proves
every src/ header is reached through #includes). This script builds
the tree into BUILD_DIR (default build-reach) with

    -O0 -ffunction-sections -fdata-sections    (compile)
    -Wl,--gc-sections                          (link)

so each function sits in its own section and the linker drops every
section no root reaches. The roots are the production binaries (every
bench/ and examples/ program and perfbench_driver, built from
perfbench/ into BUILD_DIR/perfbench) plus hilos_test_support: a probe
program links that library's functions and the ALLOWLIST below as
-Wl,--undefined roots, so their callees count as reached too.

Every global text symbol (nm type T) defined in a src/ object must be
kept by some root. The build is -O0 on purpose: an optimised build
inlines a function into its own file and drops the out-of-line copy,
which would read as unreachable here. Header-inline and template code
(weak symbols) is out of reach of this check, and so is a virtual
function whose vtable is kept.

Exit status: 0 when every src/ function is reached and every allowlist
entry is still needed, 1 otherwise, 2 when the build fails.
"""

import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Functions no production binary calls, kept on purpose (demangled
# name -> reason). Each one is a probe root, so its callees count as
# reached. An entry that production links, or that no longer exists,
# fails the check: the list only shrinks.
ALLOWLIST = {
    "hilos::setSimdLevel(hilos::SimdLevel)":
        "test hook: ScopedSimdLevel (tests/support/scoped_simd.h) forces "
        "a kernel lane with it",
    "hilos::simdLevelSupported(hilos::SimdLevel)":
        "test hook: the AVX2 tests skip on a host without the lane",
    "hilos::StepOpArray::get(unsigned long) const":
        "test hook: the validate() tests read an op to break it",
    "hilos::StepOpArray::set(unsigned long, hilos::StepOp const&)":
        "test hook: the validate() tests write the broken op back",
    "hilos::prefillComputeTime(hilos::Gpu const&, hilos::ModelConfig "
    "const&, unsigned long, unsigned long)":
        "closed-form reference for the one-chunk prefill identity in "
        "tests/test_step_plan.cc",
}

CMAKE_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd, **kwargs):
    return subprocess.run(cmd, check=True, text=True, **kwargs)


def build(source, build_dir, targets):
    """Configure and build `targets` with the reachability flags."""
    jobs = str(os.cpu_count() or 1)
    run(["cmake", "-S", str(source), "-B", str(build_dir), *CMAKE_FLAGS],
        stdout=subprocess.DEVNULL)
    run(["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", *targets], stdout=subprocess.DEVNULL)


def program_names(subdir):
    """One target per program source: bench/<name>.cpp -> <name>."""
    return sorted(p.stem for p in (ROOT / subdir).glob("*.cpp"))


def symbols(path, kinds, *nm_args):
    """Names of the symbols in `path` whose nm type is in `kinds`."""
    out = run(["nm", *nm_args, str(path)], capture_output=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[-2] in kinds:
            names.add(fields[-1])
    return names


def demangle(names):
    names = sorted(names)
    out = run(["c++filt"], input="\n".join(names),
              capture_output=True).stdout.splitlines()
    return dict(zip(names, out))


def src_functions(build_dir):
    """Mangled name -> src/ path of every T symbol in a src/ object."""
    owner = {}
    for obj in sorted((build_dir / "src" / "CMakeFiles").rglob("*.o")):
        # .../CMakeFiles/hilos_common.dir/common/stats.cc.o
        dir_part = next(p for p in obj.parents if p.suffix == ".dir")
        source = "src/" + str(obj.relative_to(dir_part))[: -len(".o")]
        for name in symbols(obj, {"T"}, "--defined-only"):
            owner[name] = source
    return owner


def probe_link(build_dir, roots, work):
    """Link an empty main with `roots` forced in; return its symbols."""
    cache = (build_dir / "CMakeCache.txt").read_text().splitlines()
    cxx = next(l.split("=", 1)[1] for l in cache
               if l.startswith("CMAKE_CXX_COMPILER:"))
    main = work / "probe.cc"
    main.write_text("int main() { return 0; }\n")
    archives = [build_dir / "tests" / "support" /
                "libhilos_test_support.a"]
    archives += sorted((build_dir / "src").glob("libhilos*.a"))
    probe = work / "probe"
    run([cxx, "-O0", "-Wl,--gc-sections", str(main),
         *(f"-Wl,--undefined={name}" for name in sorted(roots)),
         "-Wl,--start-group", *map(str, archives), "-Wl,--end-group",
         "-pthread", "-o", str(probe)])
    return symbols(probe, set("TtWw"), "--defined-only")


def main():
    build_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                             else "build-reach").resolve()
    perf_dir = build_dir / "perfbench"
    bench, examples = program_names("bench"), program_names("examples")
    try:
        build(ROOT, build_dir, [*bench, *examples, "hilos_test_support"])
        build(ROOT / "perfbench", perf_dir, ["perfbench_driver"])
    except subprocess.CalledProcessError as err:
        print(f"check_reachability: build failed: {err}")
        return 2

    owner = src_functions(build_dir)
    pretty = demangle(owner)
    mangled = {pretty[name]: name for name in owner}

    kept = set()
    binaries = [build_dir / "bench" / n for n in bench]
    binaries += [build_dir / "examples" / n for n in examples]
    binaries.append(perf_dir / "perfbench_driver")
    for binary in binaries:
        kept |= symbols(binary, set("TtWw"), "--defined-only")

    problems = []
    support = build_dir / "tests" / "support" / "libhilos_test_support.a"
    support_uses = symbols(support, {"U"}, "--undefined-only")
    for entry in sorted(ALLOWLIST):
        name = mangled.get(entry)
        if name is None:
            problems.append(f"allowlist entry '{entry}' names no src/ "
                            f"function; delete the entry")
        elif name in kept or name in support_uses:
            problems.append(f"allowlist entry '{entry}' is linked "
                            f"without it; delete the entry")

    roots = symbols(support, {"T"}, "--defined-only")
    roots |= {mangled[e] for e in ALLOWLIST if e in mangled}
    with tempfile.TemporaryDirectory() as work:
        kept |= probe_link(build_dir, roots, pathlib.Path(work))

    dead = sorted({(owner[n], pretty[n]) for n in owner if n not in kept})
    for source, name in dead:
        problems.append(f"{source}: {name} is linked by no binary; delete "
                        f"it with the tests that only exercise it")

    checked = len(set(pretty.values()))
    if problems:
        print(f"check_reachability: {len(problems)} problem(s) in "
              f"{checked} src/ functions")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"check_reachability: clean ({checked} src/ functions, "
          f"{len(ALLOWLIST)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
