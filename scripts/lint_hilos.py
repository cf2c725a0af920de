#!/usr/bin/env python3
"""Repo-specific lint invariants for the HILOS simulator.

Ten checks, each guarding a convention the test suite cannot express
as a compile error (those live in tests/compile_fail/):

 1. quantity-typed public APIs: headers under src/ must not declare
    `double` parameters or members whose names say they carry a time,
    bandwidth, power, or energy quantity — those are spelled Seconds,
    Bandwidth/BytesPerSec, Watts, Joules (src/common/units.h).

 2. golden serialisation format: the golden snapshots are byte-compared,
    so every floating-point printf-conversion in src/ and tests/support/
    must be exactly %.9g (the shortest round-trippable rendering used by
    tests/support/serialize.cc). Anything else would silently fork the
    serialisation format.

 3. seeded determinism: the simulator guarantees bit-identical replays
    from a seed, so wall-clock and OS-entropy sources are banned outside
    src/common/random.* (the one place allowed to own RNG plumbing).

 4. serving latency typing: the serving headers report SLO-facing
    timestamps and latencies (ttft, deadline, makespan, queue wait, ...)
    whose unit mistakes ship straight into goodput numbers; any `double`
    member or parameter built from those words must be Seconds. Stricter
    than check 1: inside src/runtime/serving*.h the word may appear
    anywhere in the identifier, not just as a suffix.

 5. named prefill fractions: prefill busy/energy fractions once lived
    as magic literals copied across engines; they now live in
    runtime/prefill_constants.h. Any line in src/runtime/ that mentions
    prefill and carries a bare 0.x literal regresses that — name the
    constant instead.

 6. test/example determinism: check 3 covers src/; the serving and
    fleet layers are exercised end-to-end from tests/, examples/, and
    bench/, so raw rand()/srand(), time(), and
    std::chrono::system_clock are banned there too. steady_clock stays
    allowed (bench wall-timing measures the host, not the simulation).

 7. stable analyzer diagnostic IDs: every diagnostic the plan analyzer
    (src/runtime/plan_analyzer.*) emits must carry a well-formed,
    unique PAnnn ID, and every finding must flow through the single
    ID-stamping emitter — no ad-hoc PlanFinding construction.

 8. no module kept alive only by its own test: every header under src/
    must be reachable through #includes from a file in bench/,
    examples/ or perfbench/, following each reached header and its
    own .cc. A module only its unit test reaches is dead code with a
    test attached; delete both. Its function-level counterpart is
    scripts/check_reachability.py (the `reachability` CI job): a
    --gc-sections link of the same binaries must keep every src/
    function.

 9. one engine interface: every engine implements InferenceEngine,
    plans included, so no caller needs to probe an engine's type. A
    `dynamic_cast` in src/, examples/ or tests/support/ reintroduces
    the per-kind dispatch that interface replaced.

10. one run body: an engine supplies its two plan builders and
    InferenceEngine turns them into runs. In src/, only
    runtime/engine.cc calls applyPlan(), applyPrefillPlan() or a
    PlanCache's build(); a call anywhere else is an engine growing its
    own run body again.

Exits non-zero listing file:line for every violation. No third-party
imports; runs anywhere a python3 exists (CI and the ctest fast lane).
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# --- check 1: raw doubles posing as physical quantities -------------------

QUANTITY_SUFFIXES = (
    "seconds",
    "_time",
    "_bw",
    "bandwidth",
    "latency",
    "watts",
    "joules",
    "_power",
)

# `double foo_latency` as a member, parameter, or return-adjacent
# declaration. Names whose suffix only *contains* a quantity word
# (layer_time_divisor, timeout_prob) are fine; the suffix must end the
# identifier.
DOUBLE_DECL = re.compile(r"\bdouble\s+(&?\s*)([A-Za-z_][A-Za-z0-9_]*)")

# Dimensionless ratios that legitimately stay double even though the
# name ends in a quantity suffix would be listed here; none exist today.
QUANTITY_ALLOWLIST: set = set()


def check_quantity_types(violations):
    for path in sorted((ROOT / "src").rglob("*.h")):
        rel = path.relative_to(ROOT)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("//")[0]
            for match in DOUBLE_DECL.finditer(code):
                name = match.group(2)
                if f"{rel}:{name}" in QUANTITY_ALLOWLIST:
                    continue
                if name.lower().endswith(QUANTITY_SUFFIXES):
                    violations.append(
                        f"{rel}:{lineno}: '{match.group(0).strip()}' "
                        f"looks like a physical quantity; use the typed "
                        f"alias from common/units.h (Seconds, Bandwidth, "
                        f"Watts, ...) instead of raw double"
                    )


# --- check 2: one canonical float rendering in the golden pipeline --------

FLOAT_CONVERSION = re.compile(r"%[-+ #0-9.*]*[aAeEfFgG]")


def check_golden_format(violations):
    scan_dirs = [ROOT / "src", ROOT / "tests" / "support"]
    for base in scan_dirs:
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            rel = path.relative_to(ROOT)
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for literal in re.findall(r'"((?:[^"\\]|\\.)*)"', line):
                    for conv in FLOAT_CONVERSION.findall(literal):
                        if conv != "%.9g":
                            violations.append(
                                f"{rel}:{lineno}: float conversion "
                                f"'{conv}' — golden serialisation is "
                                f"byte-compared and uses exactly %.9g "
                                f"(tests/support/serialize.cc)"
                            )


# --- check 3: no nondeterminism outside common/random ---------------------

BANNED_CALLS = [
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![A-Za-z0-9_])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)\s*\)"), "time(nullptr)"),
    (re.compile(r"\bstd::chrono::(system|steady|high_resolution)_clock\b"),
     "std::chrono clocks"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
]


def check_determinism(violations):
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(ROOT)
        if str(rel).startswith("src/common/random"):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("//")[0]
            for pattern, label in BANNED_CALLS:
                if pattern.search(code):
                    violations.append(
                        f"{rel}:{lineno}: {label} breaks seeded "
                        f"reproducibility; draw from common/random "
                        f"instead"
                    )


# --- check 4: serving headers type every latency as Seconds ---------------

SERVING_LATENCY_WORDS = {
    "ttft",
    "slo",
    "deadline",
    "makespan",
    "wait",
    "arrival",
    "e2e",
    "latency",
    "admitted",
    "completed",
}

# A latency word qualified into a dimensionless metric (arrival_rate,
# slo_attainment) legitimately stays double: the *last* token names the
# actual dimension.
SERVING_DIMENSIONLESS_TAILS = {
    "rate",
    "rps",
    "ratio",
    "attainment",
    "overhead",
    "weight",
    "count",
}

# file:name escapes for anything the tail rule cannot express.
SERVING_LATENCY_ALLOWLIST: set = set()


def check_serving_latency_types(violations):
    for path in sorted((ROOT / "src" / "runtime").glob("serving*.h")):
        rel = path.relative_to(ROOT)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("//")[0]
            for match in DOUBLE_DECL.finditer(code):
                name = match.group(2)
                if f"{rel}:{name}" in SERVING_LATENCY_ALLOWLIST:
                    continue
                tokens = name.lower().split("_")
                if tokens[-1] in SERVING_DIMENSIONLESS_TAILS:
                    continue
                hits = set(tokens) & SERVING_LATENCY_WORDS
                if hits:
                    violations.append(
                        f"{rel}:{lineno}: '{match.group(0).strip()}' "
                        f"carries a serving latency "
                        f"({', '.join(sorted(hits))}) as raw double; "
                        f"declare it Seconds (common/units.h)"
                    )


# --- check 5: prefill fractions are named constants ------------------------

BARE_FRACTION = re.compile(r"(?<![0-9.\w])0\.\d+")


def check_prefill_fractions(violations):
    for path in sorted((ROOT / "src" / "runtime").glob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        if path.name == "prefill_constants.h":
            continue  # the one place the fractions are defined
        rel = path.relative_to(ROOT)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("//")[0]
            if "prefill" not in code.lower():
                continue
            if BARE_FRACTION.search(code):
                violations.append(
                    f"{rel}:{lineno}: bare fraction literal on a "
                    f"prefill line; name it in "
                    f"runtime/prefill_constants.h so every engine "
                    f"shares one definition"
                )


# --- check 6: determinism in the test/example/bench layers -----------------

STRING_LITERAL = re.compile(r'"(?:[^"\\]|\\.)*"')

EXTERNAL_BANNED_CALLS = [
    (re.compile(r"(?<![A-Za-z0-9_])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![A-Za-z0-9_.:])time\s*\("), "time()"),
    (re.compile(r"\bstd::chrono::system_clock\b"),
     "std::chrono::system_clock"),
]


def check_external_determinism(violations):
    scan_dirs = [ROOT / "tests", ROOT / "examples", ROOT / "bench"]
    for base in scan_dirs:
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            rel = path.relative_to(ROOT)
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if line.lstrip().startswith(("*", "/*")):
                    continue  # block-comment line
                code = STRING_LITERAL.sub('""', line.split("//")[0])
                for pattern, label in EXTERNAL_BANNED_CALLS:
                    if pattern.search(code):
                        violations.append(
                            f"{rel}:{lineno}: {label} breaks seeded "
                            f"reproducibility of the test/example "
                            f"layers; draw from common/random (or "
                            f"steady_clock for bench wall-timing) "
                            f"instead"
                        )


# --- check 7: stable PAnnn diagnostic IDs in the plan analyzer --------------

PA_LITERAL = re.compile(r'"(PA[0-9A-Za-z_]*)"')
PA_WELL_FORMED = re.compile(r"PA[0-9]{3}$")


def check_analyzer_diag_ids(violations):
    analyzer_files = sorted(
        (ROOT / "src" / "runtime").glob("plan_analyzer.*"))
    seen_ids = {}
    emitter_pushes = 0
    for path in analyzer_files:
        rel = path.relative_to(ROOT)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("//")[0]
            for pa in PA_LITERAL.findall(code):
                if not PA_WELL_FORMED.match(pa):
                    violations.append(
                        f"{rel}:{lineno}: diagnostic ID '{pa}' is not "
                        f"a well-formed PAnnn ID"
                    )
                elif pa in seen_ids:
                    violations.append(
                        f"{rel}:{lineno}: diagnostic ID '{pa}' already "
                        f"declared at {seen_ids[pa]}; IDs are stable "
                        f"and unique"
                    )
                else:
                    seen_ids[pa] = f"{rel}:{lineno}"
            if path.suffix == ".cc" and "findings.push_back" in code:
                emitter_pushes += 1
    if analyzer_files:
        if not seen_ids:
            violations.append(
                "src/runtime/plan_analyzer.cc: no PAnnn diagnostic IDs "
                "found; analyzer diagnostics must carry stable IDs"
            )
        if emitter_pushes != 1:
            violations.append(
                f"src/runtime/plan_analyzer.cc: {emitter_pushes} "
                f"findings.push_back sites (expected exactly 1); every "
                f"finding must flow through the single ID-stamping "
                f"emitter"
            )
    # No ad-hoc PlanFinding construction anywhere in src/: the emitter
    # is the only place a finding is born, so no diagnostic can ship
    # without a stable ID.
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(ROOT)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("//")[0]
            if re.search(r"\bPlanFinding\s*\{", code) and not re.search(
                    r"\bstruct\s+PlanFinding\b", code):
                violations.append(
                    f"{rel}:{lineno}: ad-hoc PlanFinding construction; "
                    f"emit diagnostics through the plan analyzer's "
                    f"ID-stamping emitter"
                )


# --- check 8: no module kept alive only by its own test -------------------

INCLUDE_LINE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

REACHABILITY_ROOTS = ("bench", "examples", "perfbench")


def included_files(path):
    """The repo files `path` names in #include "...": resolved against
    its own directory first, then the src/ and tests/ include roots."""
    found = []
    for line in path.read_text().splitlines():
        match = INCLUDE_LINE.match(line)
        if not match:
            continue
        for base in (path.parent, ROOT / "src", ROOT / "tests"):
            target = base / match.group(1)
            if target.is_file():
                found.append(target.resolve())
                break
    return found


def check_orphan_modules(violations):
    pending = [
        path.resolve()
        for base in REACHABILITY_ROOTS
        for path in sorted((ROOT / base).rglob("*"))
        if path.suffix in (".h", ".cc", ".cpp")
    ]
    reached = set()
    while pending:
        path = pending.pop()
        if path in reached:
            continue
        reached.add(path)
        pending.extend(included_files(path))
        own_cc = path.with_suffix(".cc")
        if path.suffix == ".h" and own_cc.is_file():
            pending.append(own_cc)
    for header in sorted((ROOT / "src").rglob("*.h")):
        if header.resolve() in reached:
            continue
        violations.append(
            f"{header.relative_to(ROOT)}: not reachable through "
            f"#includes from bench/, examples/ or perfbench/; a module "
            f"kept alive only by its unit test is dead code — delete it"
        )


# --- check 9: no dynamic_cast dispatch on engine types --------------------

DYNAMIC_CAST = re.compile(r"\bdynamic_cast\s*<")


def check_no_dynamic_cast(violations):
    scan_dirs = [ROOT / "src", ROOT / "examples", ROOT / "tests" / "support"]
    for base in scan_dirs:
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            rel = path.relative_to(ROOT)
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = STRING_LITERAL.sub('""', line.split("//")[0])
                if DYNAMIC_CAST.search(code):
                    violations.append(
                        f"{rel}:{lineno}: dynamic_cast; every engine "
                        f"implements InferenceEngine in full, so call "
                        f"the interface instead of probing the type"
                    )


# --- check 10: one run body in runtime/engine.cc ---------------------------

# Calls, not the declarations (`void applyPlan(`) or the column-0
# definitions in runtime/step_plan.*; `.build(`/`->build(` is the
# PlanCache entry point (src/ has no other build() member).
RUN_BODY_CALL = re.compile(
    r"(?<!void )(?<!bool )(?<![\w])(applyPlan|applyPrefillPlan)\s*\(|"
    r"(?:\.|->)(build)\s*\(")

RUN_BODY_HOME = pathlib.Path("src/runtime/engine.cc")


def check_one_run_body(violations):
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(ROOT)
        if rel == RUN_BODY_HOME:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith(("*", "/*")):
                continue  # block-comment line
            code = STRING_LITERAL.sub('""', line.split("//")[0])
            for match in RUN_BODY_CALL.finditer(code):
                if match.start() == 0:
                    continue  # an out-of-line definition
                name = match.group(1) or "PlanCache::build"
                violations.append(
                    f"{rel}:{lineno}: {name}() call outside "
                    f"{RUN_BODY_HOME}; implement buildDecodePlan/"
                    f"buildPrefillPlan and let InferenceEngine run them"
                )


def main():
    violations = []
    check_quantity_types(violations)
    check_golden_format(violations)
    check_determinism(violations)
    check_serving_latency_types(violations)
    check_prefill_fractions(violations)
    check_external_determinism(violations)
    check_analyzer_diag_ids(violations)
    check_orphan_modules(violations)
    check_no_dynamic_cast(violations)
    check_one_run_body(violations)
    if violations:
        print(f"lint_hilos: {len(violations)} violation(s)")
        for v in violations:
            print(f"  {v}")
        return 1
    print("lint_hilos: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
