#!/usr/bin/env python3
"""Repository lint checks, run in CI before the build.

Checks, over every header and source file under src/ and tests/:

  1. Headers carry an include guard derived from the repo-relative path
     (src/mk/kernel.h -> SRC_MK_KERNEL_H_) with matching #ifndef/#define
     at the top and a trailing #endif comment.
  2. No `using namespace` at file scope in headers: it leaks into every
     includer and has caused real ODR-adjacent confusion in stub code.
  3. Modelled cost constants live only in src/mk/costs.h. Scattering
     `struct Costs` members across files makes the calibration knobs of
     the reproduction impossible to audit against the paper's tables.
  4. Trace events come from the central registry: every EventType:: /
     SpanKind:: reference must name a member of the enums declared in
     src/mk/trace/events.h, and emit sites (Emit, BeginSpan, MarkPhase,
     MarkQueued, EndSpan, ScopedSpan) must not smuggle in ad-hoc string
     literals as event names. Keeping the event vocabulary in one header is what lets
     the exporters classify events with static tables.
     The registry must also be live: every EventType/SpanKind member
     except kCount must be referenced somewhere outside events.h and the
     tracer implementation (src/mk/trace). A registered-but-never-emitted
     event documents observability the traces do not actually have.
  5. Fault points come from the central registry: every FaultPoint:: /
     FaultMode:: reference must name a member of the enums declared in
     src/mk/fault/points.h. A fault campaign is replayed from a seed plus
     the visit sequence of named points; an unregistered point would be
     invisible to campaign tooling and to the replay documentation.
     The registry must also be live: every FaultPoint/FaultMode member
     except kNone/kCount must be referenced somewhere outside points.h.
     A registered-but-never-armed-or-fired point documents coverage the
     campaign does not actually have.
  6. Determinism (src/mk, src/svc, and src/pers; src/mk/host.cc exempt):
     the
     simulation must replay bit-identically — that is what makes schedule
     traces from the explorer reproducible. Banned: rand()/srand(),
     std::random_device, wall-clock reads (std::chrono::system_clock etc.,
     time(), gettimeofday, clock_gettime), and range-for iteration over
     std::unordered_map/set (iteration order is unspecified and varies
     between libc++/libstdc++ and across runs with pointer keys). An
     unordered loop whose order provably does not escape may carry an
     `unordered-ok:` comment on the loop line or the line above.
  7. One server loop: RpcReceive( and RpcReplyAndReceive( appear in src/
     only under src/mk/. Every server serves through mk::ServerLoop
     (src/mk/server_loop.h), which owns the fault point, the op span, the
     heartbeat, shutdown and survival of oversized requests; a hand-rolled
     loop silently drops all of them. bench/ (the Table 2 null server),
     examples/ and tests/ may call the kernel primitives directly.
  8. EXPERIMENTS.md's Tables 1 and 2 quote the committed bench JSON. In
     Table 1 the "Paper" and "Measured" cells of each row equal the
     BENCH_table1.json <row>.ratio (overall.geomean_ratio for the geo-mean
     row) paper and measured values to two decimals. In Table 2 the
     "Measured trap", "Measured RPC" and "Measured ratio" cells of each row
     equal the committed trap.* / rpc32.* measured values of
     BENCH_table2.json (instructions, cycles and bus cycles rounded to
     integers, CPI to one decimal, ratio = RPC/trap to two decimals). Each
     ablation paragraph (A1-A8, from its "**A<n> —" line to the next) quotes
     its BENCH_ablations.json figures, each rounded as the paragraph prints
     it (see ablation_figures). A stale row or figure misquotes the paper
     reproduction.

Exit status is the number of files with violations (0 = clean).
"""

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "tests", "bench")
COSTS_HEADER = Path("src") / "mk" / "costs.h"
TRACE_EVENTS_HEADER = Path("src") / "mk" / "trace" / "events.h"
FAULT_POINTS_HEADER = Path("src") / "mk" / "fault" / "points.h"
SERVER_LOOP_HEADER = Path("src") / "mk" / "server_loop.h"
EXPERIMENTS_DOC = Path("EXPERIMENTS.md")
TABLE1_BASELINE = Path("BENCH_table1.json")
TABLE1_OVERALL_ROW = ("Overall (geo mean)", "overall.geomean_ratio")
TABLE2_BASELINE = Path("BENCH_table2.json")
# (row label in EXPERIMENTS.md, metric suffix in BENCH_table2.json, cell format)
TABLE2_ROWS = (
    ("Instructions", "instructions", "{:.0f}"),
    ("Cycles", "cycles", "{:.0f}"),
    ("Bus cycles", "bus_cycles", "{:.0f}"),
    ("CPI", "cpi", "{:.1f}"),
)

ABLATIONS_BASELINE = Path("BENCH_ablations.json")
ABLATION_HEADING_RE = re.compile(r"^\*\*(A\d+b?) —")

DETERMINISM_SCOPES = (Path("src") / "mk", Path("src") / "svc", Path("src") / "pers")
DETERMINISM_EXEMPT = {Path("src") / "mk" / "host.cc"}
BANNED_NONDETERMINISM = (
    (re.compile(r"\b(?:s?rand)\s*\("), "rand()/srand() — seedless PRNG"),
    (re.compile(r"std::random_device"), "std::random_device — hardware entropy"),
    (
        re.compile(r"std::chrono::(?:system|steady|high_resolution)_clock"),
        "host clock read — simulated time comes from hw::Cpu cycles",
    ),
    (
        re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)|\b(?:gettimeofday|clock_gettime)\b"),
        "wall-clock read — simulated time comes from hw::Cpu cycles",
    ),
)
UNORDERED_DECL_RE = re.compile(r"std::unordered_(?:map|set)<[^;{}()]*?>&?\s+(\w+)\s*[;={(]")
UNORDERED_ACCESSOR_RE = re.compile(r"std::unordered_(?:map|set)<[^;{}]*?>&\s+(\w+)\s*\(")
RANGE_FOR_RE = re.compile(r"^[^\S\n]*for\s*\([^;{}\n]*?:\s*([^){\n]+)\)", re.MULTILINE)
UNORDERED_OK_MARK = "unordered-ok"
INTROSPECT_HEADER = Path("src") / "mk" / "analysis" / "introspect.h"

GUARD_RE = re.compile(r"^#ifndef\s+([A-Z0-9_]+)\s*$", re.MULTILINE)
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\s+[\w:]+\s*;", re.MULTILINE)
COSTS_DEF_RE = re.compile(r"^\s*struct\s+Costs\b(?!\s*;)", re.MULTILINE)
TRACE_ENUM_REF_RE = re.compile(r"\b(EventType|SpanKind)::(\w+)")
FAULT_ENUM_REF_RE = re.compile(r"\b(FaultPoint|FaultMode)::(\w+)")
TRACE_EMIT_CALL_RE = re.compile(
    r"\b(Emit|BeginSpan|MarkPhase|MarkQueued|EndSpan|ScopedSpan)\s*\("
)


def load_enum_registry(header: Path, enum_names: tuple) -> dict:
    """Parses `enum class` member lists out of a registry header."""
    path = REPO_ROOT / header
    if not path.is_file():
        return {}
    text = path.read_text(encoding="utf-8", errors="replace")
    registry = {}
    for enum_name in enum_names:
        match = re.search(
            rf"enum\s+class\s+{enum_name}\b[^{{]*{{(.*?)}};", text, re.DOTALL
        )
        if match:
            # Comments inside the body routinely mention other members
            # ("supports kCrashTask, ..."), so strip them before harvesting.
            body = re.sub(r"//[^\n]*", "", match.group(1))
            registry[enum_name] = set(re.findall(r"\bk\w+", body))
    return registry


def call_argument_span(text: str, open_paren: int, limit: int = 2000) -> str:
    """Returns the text of a balanced argument list starting at `open_paren`."""
    depth = 0
    end = min(len(text), open_paren + limit)
    for i in range(open_paren, end):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren : i + 1]
    return text[open_paren:end]


def check_trace_events(
    rel_path: Path, text: str, errors: list, registry: dict, used: dict
) -> None:
    if rel_path == TRACE_EVENTS_HEADER or not registry:
        return
    in_trace_impl = rel_path.parts[:3] == ("src", "mk", "trace")
    for match in TRACE_ENUM_REF_RE.finditer(text):
        enum_name, member = match.groups()
        if member not in registry.get(enum_name, set()):
            line = text.count("\n", 0, match.start()) + 1
            errors.append(
                f"{rel_path}:{line}: {enum_name}::{member} is not declared in "
                f"{TRACE_EVENTS_HEADER}"
            )
        elif not in_trace_impl:
            # Liveness is judged outside the tracer machinery: exporters
            # classifying an event does not mean anything ever emits it.
            used.setdefault(enum_name, set()).add(member)
    for match in TRACE_EMIT_CALL_RE.finditer(text):
        # The tracer's own implementation may mention these names in
        # declarations and comments; emit *sites* live outside src/mk/trace.
        if in_trace_impl:
            continue
        args = call_argument_span(text, match.end() - 1)
        if '"' in args:
            line = text.count("\n", 0, match.start()) + 1
            errors.append(
                f"{rel_path}:{line}: string literal in {match.group(1)}() — trace "
                f"event names come from {TRACE_EVENTS_HEADER}, not ad-hoc strings"
            )


def check_fault_points(
    rel_path: Path, text: str, errors: list, registry: dict, used: dict
) -> None:
    if rel_path == FAULT_POINTS_HEADER or not registry:
        return
    for match in FAULT_ENUM_REF_RE.finditer(text):
        enum_name, member = match.groups()
        if member not in registry.get(enum_name, set()):
            line = text.count("\n", 0, match.start()) + 1
            errors.append(
                f"{rel_path}:{line}: {enum_name}::{member} is not declared in "
                f"{FAULT_POINTS_HEADER}"
            )
        else:
            used.setdefault(enum_name, set()).add(member)


RPC_RECEIVE_RE = re.compile(r"\b(RpcReceive|RpcReplyAndReceive)\s*\(")


def check_server_loops(rel_path: Path, text: str, errors: list) -> None:
    if rel_path.parts[0] != "src" or rel_path.parts[:2] == ("src", "mk"):
        return
    code = re.sub(r"//[^\n]*", "", text)
    for match in RPC_RECEIVE_RE.finditer(code):
        line = code.count("\n", 0, match.start()) + 1
        errors.append(
            f"{rel_path}:{line}: {match.group(1)}() outside src/mk — serve RPCs through "
            f"mk::ServerLoop ({SERVER_LOOP_HEADER}), not a hand-rolled receive loop"
        )


FAULT_REGISTRY_SENTINELS = {"kNone", "kCount"}
TRACE_REGISTRY_SENTINELS = {"kCount"}


def check_trace_registry_live(registry: dict, used: dict) -> list:
    """Every registered trace event/span kind must be used outside the tracer."""
    errors = []
    for enum_name in sorted(registry):
        dead = registry[enum_name] - used.get(enum_name, set()) - TRACE_REGISTRY_SENTINELS
        for member in sorted(dead):
            errors.append(
                f"{TRACE_EVENTS_HEADER}: {enum_name}::{member} is registered but "
                f"never referenced outside the tracer — nothing emits or consumes "
                f"it; remove it or wire in an emit site"
            )
    return errors


def check_fault_registry_live(registry: dict, used: dict) -> list:
    """Every registered fault point/mode must be referenced outside points.h."""
    errors = []
    for enum_name in sorted(registry):
        dead = registry[enum_name] - used.get(enum_name, set()) - FAULT_REGISTRY_SENTINELS
        for member in sorted(dead):
            errors.append(
                f"{FAULT_POINTS_HEADER}: {enum_name}::{member} is registered but "
                f"never referenced outside the registry — a fault campaign cannot "
                f"exercise it; remove it or wire it into an injection site"
            )
    return errors


def load_unordered_accessors() -> set:
    """Names of Introspector accessors returning unordered-container refs."""
    path = REPO_ROOT / INTROSPECT_HEADER
    if not path.is_file():
        return set()
    text = path.read_text(encoding="utf-8", errors="replace")
    return set(UNORDERED_ACCESSOR_RE.findall(text))


def in_determinism_scope(rel_path: Path) -> bool:
    if rel_path in DETERMINISM_EXEMPT:
        return False
    return any(
        rel_path.parts[: len(scope.parts)] == scope.parts for scope in DETERMINISM_SCOPES
    )


def strip_line_comment(line: str) -> str:
    return line.split("//", 1)[0]


def check_determinism(rel_path: Path, text: str, errors: list, accessors: set) -> None:
    if not in_determinism_scope(rel_path):
        return
    lines = text.split("\n")
    for i, line in enumerate(lines):
        code = strip_line_comment(line)
        for pattern, why in BANNED_NONDETERMINISM:
            if pattern.search(code):
                errors.append(f"{rel_path}:{i + 1}: nondeterminism: {why}")
    # Names declared with an unordered type in this file — and, for a .cc
    # file, in its own header, where the members usually live.
    decl_text = text
    if rel_path.suffix == ".cc":
        sibling = REPO_ROOT / rel_path.with_suffix(".h")
        if sibling.is_file():
            decl_text += sibling.read_text(encoding="utf-8", errors="replace")
    unordered_names = set(UNORDERED_DECL_RE.findall(decl_text)) | accessors
    if not unordered_names:
        return
    for match in RANGE_FOR_RE.finditer(text):
        expr_names = set(re.findall(r"\w+", match.group(1)))
        hits = expr_names & unordered_names
        if not hits:
            continue
        line = text.count("\n", 0, match.start()) + 1
        context = lines[max(0, line - 2) : line]
        if any(UNORDERED_OK_MARK in c for c in context):
            continue
        errors.append(
            f"{rel_path}:{line}: range-for over unordered container "
            f"'{sorted(hits)[0]}' — iteration order is not deterministic; sort "
            f"the keys, use an ordered container, or annotate the loop with "
            f"'// {UNORDERED_OK_MARK}: <why order does not escape>'"
        )


def doc_table_rows(heading: str) -> dict:
    """Maps each row label of EXPERIMENTS.md's `heading` table to (lineno, cells)."""
    doc_lines = (REPO_ROOT / EXPERIMENTS_DOC).read_text(encoding="utf-8").splitlines()
    rows = {}
    in_table = False
    for lineno, line in enumerate(doc_lines, start=1):
        if line.startswith("## "):
            in_table = line.startswith(heading)
        elif in_table and line.startswith("|"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            rows[cells[0]] = (lineno, cells)
    return rows


def check_table1_doc() -> list:
    rows = doc_table_rows("## Table 1")
    bench = json.loads((REPO_ROOT / TABLE1_BASELINE).read_text(encoding="utf-8"))
    errors = []
    for key, values in sorted(bench.items()):
        overall_label, overall_key = TABLE1_OVERALL_ROW
        label = overall_label if key == overall_key else key.removesuffix(".ratio")
        if label not in rows:
            errors.append(f"{EXPERIMENTS_DOC}: Table 1 has no '{label}' row")
            continue
        lineno, cells = rows[label]
        want = [f"{values['paper']:.2f}", f"{values['measured']:.2f}"]
        if cells[1:3] != want:
            errors.append(
                f"{EXPERIMENTS_DOC}:{lineno}: Table 1 '{label}' paper/measured cells "
                f"{' | '.join(cells[1:3])} do not quote {TABLE1_BASELINE} ({' | '.join(want)})"
            )
    return errors


def check_table2_doc() -> list:
    rows = doc_table_rows("## Table 2")
    bench = json.loads((REPO_ROOT / TABLE2_BASELINE).read_text(encoding="utf-8"))
    errors = []
    for label, key, fmt in TABLE2_ROWS:
        if label not in rows:
            errors.append(f"{EXPERIMENTS_DOC}: Table 2 has no '{label}' row")
            continue
        lineno, cells = rows[label]
        trap = bench[f"trap.{key}"]["measured"]
        rpc = bench[f"rpc32.{key}"]["measured"]
        want = [fmt.format(trap), fmt.format(rpc), f"{rpc / trap:.2f}"]
        if cells[4:7] != want:
            errors.append(
                f"{EXPERIMENTS_DOC}:{lineno}: Table 2 '{label}' measured cells "
                f"{' | '.join(cells[4:7])} do not quote {TABLE2_BASELINE} ({' | '.join(want)})"
            )
    return errors


def ablation_figures() -> list:
    """(ablation id, BENCH_ablations.json key, format) for each figure EXPERIMENTS.md quotes."""
    figures = [("A1", "handoff.bg0.handoff_cycles", "{:.0f}"),
               ("A1", "handoff.bg0.ready_queue_cycles", "{:.0f}")]
    figures += [("A1", f"handoff.bg{n}.ratio", "{:.2f}") for n in (0, 2, 4)]
    figures += [("A2", f"cache{kb}kb.rpc_cycles", "{:.0f}") for kb in (4, 8)]
    figures += [("A3", "nic_echo.user_level_cycles", "{:.0f}"),
                ("A3", "nic_echo.in_kernel_cycles", "{:.0f}"),
                ("A3", "nic_echo.ratio", "{:.2f}")]
    for n in (1024, 4096, 16384, 65536):
        figures += [("A4", f"bulk.b{n}.{mode}_cycles_per_byte", "{:.3f}")
                    for mode in ("inline", "ool")]
        figures.append(("A4", f"bulk.b{n}.ratio", "{:.2f}"))
    for n in (4, 8, 16):
        figures += [("A4b", f"scatter.x{n}.{mode}_cycles_per_extent", "{:.0f}")
                    for mode in ("batched", "separate")]
        figures.append(("A4b", f"scatter.x{n}.ratio", "{:.2f}"))
    for m in (1, 4, 16):
        for side in ("bounded", "unbounded"):
            figures += [("A5", f"overload.x{m}.{side}.goodput_ops_per_ms", "{:.2f}"),
                        ("A5", f"overload.x{m}.{side}.p99_queue_wait_cycles", "{:,.0f}")]
        figures.append(("A5", f"overload.x{m}.bounded.sheds", "{:.0f}"))
    figures += [("A6", f"fscache.{mode}.rpcs_per_op", "{:.2f}") for mode in ("uncached", "cached")]
    figures.append(("A6", "fscache.ratio", "{:.1f}"))
    for mode in ("read", "mapped"):
        figures += [("A7", f"mmap.{mode}.rpcs_per_op", "{:.2f}"),
                    ("A7", f"mmap.{mode}.cycles_per_byte", "{:.3f}")]
    figures.append(("A7", "mmap.rpc_ratio", "{:.1f}"))
    for loop in ("reply_then_receive", "server_loop"):
        figures += [("A8", f"loop_echo.{loop}.server_entries_per_rpc", "{:.2f}"),
                    ("A8", f"loop_echo.{loop}.cycles_per_rpc", "{:.0f}")]
    figures.append(("A8", "loop_echo.ratio", "{:.2f}"))
    return figures


def check_ablations_doc() -> list:
    doc_lines = (REPO_ROOT / EXPERIMENTS_DOC).read_text(encoding="utf-8").splitlines()
    paragraphs = {}  # ablation id -> (first line number, text up to the next ablation)
    current = None
    for lineno, line in enumerate(doc_lines, start=1):
        heading = ABLATION_HEADING_RE.match(line)
        if heading:
            current = heading.group(1)
            paragraphs[current] = (lineno, [])
        elif line.startswith("## "):
            current = None
        if current is not None:
            paragraphs[current][1].append(line)
    bench = json.loads((REPO_ROOT / ABLATIONS_BASELINE).read_text(encoding="utf-8"))
    errors = [f"{EXPERIMENTS_DOC}: no '**{ablation} —' ablation paragraph"
              for ablation in sorted({a for a, _, _ in ablation_figures()} - paragraphs.keys())]
    for ablation, key, fmt in ablation_figures():
        if ablation not in paragraphs:
            continue
        if key not in bench:
            errors.append(f"{ABLATIONS_BASELINE}: no key '{key}' for {ablation}")
            continue
        lineno, lines = paragraphs[ablation]
        figure = fmt.format(bench[key]["measured"])
        # The figure as a whole number, not part of a longer one ("1.39x" quotes 1.39).
        token = re.compile(rf"(?<![\d.,]){re.escape(figure)}(?![\d,]|\.\d)")
        if not token.search("\n".join(lines)):
            errors.append(
                f"{EXPERIMENTS_DOC}:{lineno}: {ablation} does not quote {key} = {figure} "
                f"from {ABLATIONS_BASELINE}"
            )
    return errors


def expected_guard(rel_path: Path) -> str:
    return re.sub(r"[^A-Za-z0-9]", "_", str(rel_path)).upper() + "_"


def check_header_guard(rel_path: Path, text: str, errors: list) -> None:
    want = expected_guard(rel_path)
    match = GUARD_RE.search(text)
    if match is None:
        errors.append(f"{rel_path}: missing include guard (expected {want})")
        return
    got = match.group(1)
    if got != want:
        errors.append(f"{rel_path}: include guard {got} should be {want}")
        return
    if f"#define {want}" not in text:
        errors.append(f"{rel_path}: #ifndef {want} without matching #define")
    if not re.search(rf"#endif\s*//\s*{re.escape(want)}\s*$", text.rstrip()):
        errors.append(f"{rel_path}: missing trailing '#endif  // {want}'")


def check_using_namespace(rel_path: Path, text: str, errors: list) -> None:
    for match in USING_NAMESPACE_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        errors.append(f"{rel_path}:{line}: 'using namespace' in a header")


def check_costs_definition(rel_path: Path, text: str, errors: list) -> None:
    if rel_path == COSTS_HEADER:
        return
    for match in COSTS_DEF_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        errors.append(
            f"{rel_path}:{line}: 'struct Costs' defined outside {COSTS_HEADER}"
        )


def lint_file(
    path: Path,
    trace_registry: dict,
    fault_registry: dict,
    accessors: set,
    fault_used: dict,
    trace_used: dict,
) -> list:
    rel_path = path.relative_to(REPO_ROOT)
    text = path.read_text(encoding="utf-8", errors="replace")
    errors = []
    if path.suffix == ".h":
        check_header_guard(rel_path, text, errors)
        check_using_namespace(rel_path, text, errors)
    check_costs_definition(rel_path, text, errors)
    check_trace_events(rel_path, text, errors, trace_registry, trace_used)
    check_fault_points(rel_path, text, errors, fault_registry, fault_used)
    check_server_loops(rel_path, text, errors)
    check_determinism(rel_path, text, errors, accessors)
    return errors


def main() -> int:
    bad_files = 0
    total_errors = 0
    scanned = 0
    trace_registry = load_enum_registry(TRACE_EVENTS_HEADER, ("EventType", "SpanKind"))
    fault_registry = load_enum_registry(FAULT_POINTS_HEADER, ("FaultPoint", "FaultMode"))
    accessors = load_unordered_accessors()
    fault_used = {}
    trace_used = {}
    for scan_dir in SCAN_DIRS:
        root = REPO_ROOT / scan_dir
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            scanned += 1
            errors = lint_file(
                path, trace_registry, fault_registry, accessors, fault_used, trace_used
            )
            if errors:
                bad_files += 1
                total_errors += len(errors)
                for error in errors:
                    print(f"lint: {error}", file=sys.stderr)
    cross_file_errors = check_fault_registry_live(fault_registry, fault_used)
    cross_file_errors += check_trace_registry_live(trace_registry, trace_used)
    cross_file_errors += check_table1_doc()
    cross_file_errors += check_table2_doc()
    cross_file_errors += check_ablations_doc()
    if cross_file_errors:
        bad_files += 1
        total_errors += len(cross_file_errors)
        for error in cross_file_errors:
            print(f"lint: {error}", file=sys.stderr)
    if total_errors:
        print(f"lint: {total_errors} issue(s) in {bad_files} file(s)", file=sys.stderr)
    else:
        print(f"lint: {scanned} files clean")
    return min(bad_files, 125)


if __name__ == "__main__":
    sys.exit(main())
