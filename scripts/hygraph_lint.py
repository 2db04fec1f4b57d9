#!/usr/bin/env python3
"""HyGraph project linter: repo invariants clang-tidy cannot express.

Checks are small rules in a registry (see @rule below); `--list` prints
them. The current rules (see DESIGN.md §12 "Static analysis"):

  naked-new       no `new` expression in library code unless annotated with
                  `NOLINT(hygraph-naked-new)` (leaked singletons, private
                  constructors).
  naked-delete    no `delete` expressions at all — ownership goes through
                  smart pointers.
  raw-rand        no `rand()` / `srand()` anywhere — randomness goes through
                  common/rng.h so runs stay reproducible and seedable.
  cc-include      no `#include` of a `.cc` file.
  include-guard   headers open with `#ifndef HYGRAPH_<PATH>_H_` where PATH is
                  the path relative to src/ (or the repo root for headers
                  outside src/), uppercased, with '/' and '.' as '_'.
  no-cout         no `std::cout` in src/ library code — a library reports
                  through Status/Result, not a stream it does not own.
  raw-clock       no `std::chrono::steady_clock::now()` outside src/obs/ —
                  timing goes through obs::Clock (SystemClock in production,
                  ManualClock in tests) so it stays injectable everywhere.
  raw-mutex       no raw std mutex types in src/ outside common/sync.h —
                  locking goes through hygraph::Mutex/SharedMutex so every
                  lock is instrumented (concurrency.* counters) and follows
                  the documented hierarchy. src/obs/ is exempt: it sits
                  beneath the sync layer (the registry mutex cannot be
                  instrumented by the registry it guards; see obs/mutex.h).
  raw-sleep       no sleep_for / sleep_until / usleep / nanosleep in src/
                  outside storage/retry.cc — backoff waits go through
                  RetryPolicy (storage/retry.h) so they are capped, jittered,
                  deterministic under test (injectable SleepFn), and counted
                  (durable.retries). Annotate a genuine exception with
                  NOLINT(hygraph-raw-sleep).
  raw-thread      no std::thread / std::jthread anywhere in src/ — query
                  work runs on the session thread that received it. A new
                  thread needs NOLINT(hygraph-raw-thread) naming who joins
                  it.
  raw-file-io     no std::fopen, ::open, ::pread, std::ifstream or
                  std::ofstream in src/ outside storage/env.cc — file bytes
                  go through storage::Env, the layer FaultInjectionEnv can
                  fail and roll back, so the crash matrices see every byte.
                  Code below the storage layer annotates a genuine exception
                  with NOLINT(hygraph-raw-file-io).
  layering        project includes in src/ must follow the declared layer
                  DAG (mirrors the target_link_libraries topology in
                  src/CMakeLists.txt, with common/sync.h split into its own
                  layer above obs). Upward or sideways includes are errors:
                  they are cycles waiting to happen and defeat the
                  one-direction dependency story in DESIGN.md.
  raw-socket      no socket/poll syscalls (socket, bind, listen, accept,
                  connect, recv, send, poll, setsockopt, shutdown, ...) in
                  src/ outside src/server/net.{h,cc} — the server's RAII
                  Socket/Listener wrappers own every fd, EINTR loop, and
                  SIGPIPE suppression exactly once. Annotate a genuine
                  exception with NOLINT(hygraph-raw-socket).
  backend-subclass
                  in src/, only storage/all_in_graph.h, storage/polyglot.h
                  and storage/durable.h may derive from query::QueryBackend:
                  one class per engine, whose published version is the same
                  class bound to it (DESIGN.md §10), so each series
                  operation is written once per engine.
  double-format   no `%.17g` formatter in src/ outside core/serialize.cc
                  and obs/metrics.cc — round-trippable doubles go through
                  core::FormatDouble, so snapshots and WAL records share one
                  text codec. obs/ is exempt: it sits below core in the
                  layering and formats /metrics samples itself.
  unranked-lock   every hygraph::Mutex / SharedMutex member declaration in
                  src/ must be constructed with a LockRank (on the
                  declaration, or where the member is initialized in the
                  same header or sibling .cc) so the runtime rank checker
                  covers it — or carry NOLINT(hygraph-unranked-lock) with a
                  justification for living outside the hierarchy.

Exit status: 0 when clean, 1 with one `path:line: [check] message` per
finding otherwise. Run via scripts/lint.sh or directly:

    python3 scripts/hygraph_lint.py [--root DIR] [--list]

--root lints an alternate tree laid out like the repo (used by the
tests/lint_selftest fixtures).
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Library code: invariants apply fully. fuzz/ counts as library code (the
# harnesses link into tier-1 tests); tests/bench/examples get the subset
# that keeps determinism and build hygiene (raw-rand, cc-include).
LIBRARY_DIRS = ("src", "fuzz")
ALL_DIRS = ("src", "fuzz", "tests", "bench", "examples")

# The lint selftest's fixture tree is linted with --root, never as part of
# the real repo: its files violate rules on purpose.
FIXTURE_DIR = Path("tests/lint_fixtures")

RNG_HOME = Path("src/common/rng.h")
CLOCK_HOME = Path("src/obs")
SYNC_HOME = Path("src/common/sync.h")
# The one sanctioned real sleep: RetryPolicy's default backoff SleepFn.
RETRY_HOME = Path("src/storage/retry.cc")
# The one sanctioned home of socket/poll syscalls: the server's RAII
# net::Socket / net::Listener wrappers.
NET_FILES = (Path("src/server/net.h"), Path("src/server/net.cc"))
# The one sanctioned home of raw file I/O: the POSIX Env.
ENV_HOME = Path("src/storage/env.cc")
# The engines' homes: the only src/ files whose classes implement
# query::QueryBackend.
BACKEND_HOMES = (Path("src/storage/all_in_graph.h"),
                 Path("src/storage/polyglot.h"),
                 Path("src/storage/durable.h"))
# The homes of round-trippable double formatting: the text codec and, below
# core in the layering, the /metrics exposition.
DOUBLE_FORMAT_HOMES = (Path("src/core/serialize.cc"),
                       Path("src/obs/metrics.cc"))

RAW_SLEEP_ALLOW = "NOLINT(hygraph-raw-sleep)"
RAW_THREAD_ALLOW = "NOLINT(hygraph-raw-thread)"
RAW_SOCKET_ALLOW = "NOLINT(hygraph-raw-socket)"
RAW_FILE_IO_ALLOW = "NOLINT(hygraph-raw-file-io)"
NAKED_NEW_ALLOW = "NOLINT(hygraph-naked-new)"
UNRANKED_ALLOW = "NOLINT(hygraph-unranked-lock)"

# ---------------------------------------------------------------------------
# Layering: direct dependencies per layer, mirroring src/CMakeLists.txt
# (target_link_libraries). Two refinements over the CMake picture:
#   * common/sync.h forms its own "sync" layer ABOVE obs — the instrumented
#     mutexes report into obs::MetricsRegistry, so plain "common" must not
#     depend on it, and obs beneath it uses the annotation-only obs/mutex.h.
#   * common/thread_annotations.h is macro-only and stays in base "common".
# A file may include same-layer headers and anything in the transitive
# closure of its layer's deps.
LAYER_DEPS: dict[str, tuple[str, ...]] = {
    "common": (),
    "obs": ("common",),
    "sync": ("obs", "common"),
    "ts": ("sync", "obs", "common"),
    "graph": ("common",),
    "temporal": ("graph", "ts"),
    "core": ("temporal",),
    "query": ("core", "obs"),
    "storage": ("query",),
    "analytics": ("core", "storage"),
    "workloads": ("core", "storage"),
    "server": ("storage",),
}


def layer_closure() -> dict[str, frozenset[str]]:
    closure: dict[str, frozenset[str]] = {}

    def resolve(layer: str, trail: tuple[str, ...]) -> frozenset[str]:
        if layer in closure:
            return closure[layer]
        if layer in trail:
            raise ValueError(f"LAYER_DEPS cycle through {layer!r}")
        deps: set[str] = set()
        for dep in LAYER_DEPS[layer]:
            deps.add(dep)
            deps |= resolve(dep, trail + (layer,))
        closure[layer] = frozenset(deps)
        return closure[layer]

    for name in LAYER_DEPS:
        resolve(name, ())
    return closure


LAYER_CLOSURE = layer_closure()


def layer_of(rel: Path) -> str | None:
    """Layer of a src/ file, None for files outside src/."""
    if rel.parts[0] != "src" or len(rel.parts) < 3:
        return None
    if rel == SYNC_HOME:
        return "sync"
    return rel.parts[1]


# ---------------------------------------------------------------------------
# Rule registry


@dataclass
class SourceFile:
    rel: Path                 # path relative to the linted root
    raw: list[str]            # verbatim lines
    code: list[str]           # comments and string contents blanked
    library: bool             # under LIBRARY_DIRS


@dataclass
class Tree:
    root: Path
    files: list[SourceFile] = field(default_factory=list)

    def get(self, rel: Path) -> SourceFile | None:
        for f in self.files:
            if f.rel == rel:
                return f
        return None


RULES: list = []


def rule(name: str, scope: str):
    """Registers `fn(tree, report)` as a lint rule. `scope` is prose for
    --list; the rule itself decides which files it visits."""

    def wrap(fn):
        fn.rule_name = name
        fn.rule_scope = scope
        RULES.append(fn)
        return fn

    return wrap


def strip_comments_and_strings(lines: list[str],
                               keep_strings: bool = False) -> list[str]:
    """Blanks out comments and string/char literal contents, preserving line
    structure, so token checks do not fire on prose or quoted text. With
    `keep_strings`, literal contents stay and only comments go."""
    out = []
    in_block_comment = False
    for line in lines:
        result = []
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            if in_block_comment:
                if line.startswith("*/", i):
                    in_block_comment = False
                    i += 2
                else:
                    i += 1
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block_comment = True
                i += 2
                continue
            if c in ("'", '"'):
                quote = c
                result.append(quote)
                i += 1
                while i < n:
                    step = 2 if line[i] == "\\" else 1
                    if step == 1 and line[i] == quote:
                        result.append(quote)
                        i += 1
                        break
                    if keep_strings:
                        result.append(line[i:i + step])
                    i += step
                continue
            result.append(c)
            i += 1
        out.append("".join(result))
    return out


def load_tree(root: Path) -> Tree:
    tree = Tree(root=root)
    for d in ALL_DIRS:
        top = root / d
        if not top.is_dir():
            continue
        for path in sorted(top.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            rel = path.relative_to(root)
            if rel.is_relative_to(FIXTURE_DIR):
                continue
            raw = path.read_text(encoding="utf-8").splitlines()
            tree.files.append(SourceFile(
                rel=rel,
                raw=raw,
                code=strip_comments_and_strings(raw),
                library=rel.parts[0] in LIBRARY_DIRS,
            ))
    return tree


# ---------------------------------------------------------------------------
# Rules


@rule("raw-rand", "all dirs")
def check_raw_rand(tree: Tree, report) -> None:
    for f in tree.files:
        if f.rel == RNG_HOME:
            continue
        for lineno, code_line in enumerate(f.code, 1):
            if re.search(r"\b(s?rand)\s*\(", code_line):
                report(f.rel, lineno, "raw-rand",
                       "use common/rng.h instead of rand()/srand()")


@rule("cc-include", "all dirs")
def check_cc_include(tree: Tree, report) -> None:
    for f in tree.files:
        for lineno, raw_line in enumerate(f.raw, 1):
            if re.search(r'#\s*include\s*"[^"]+\.cc"', raw_line):
                report(f.rel, lineno, "cc-include",
                       "never #include a .cc file; link it instead")


@rule("raw-clock", "everywhere outside src/obs/")
def check_raw_clock(tree: Tree, report) -> None:
    for f in tree.files:
        if f.rel.is_relative_to(CLOCK_HOME):
            continue
        for lineno, code_line in enumerate(f.code, 1):
            if re.search(r"\bsteady_clock\s*::\s*now\b", code_line):
                report(f.rel, lineno, "raw-clock",
                       "read time through obs::Clock (obs/clock.h), not "
                       "std::chrono::steady_clock::now()")


@rule("raw-mutex", "src/ outside common/sync.h and src/obs/")
def check_raw_mutex(tree: Tree, report) -> None:
    for f in tree.files:
        if (f.rel.parts[0] != "src" or f.rel == SYNC_HOME
                or f.rel.is_relative_to(CLOCK_HOME)):
            continue
        for lineno, code_line in enumerate(f.code, 1):
            if re.search(r"\bstd\s*::\s*(recursive_|timed_|shared_)?mutex\b",
                         code_line):
                report(f.rel, lineno, "raw-mutex",
                       "lock through hygraph::Mutex/SharedMutex "
                       "(common/sync.h), not raw std mutexes")


@rule("raw-sleep", "src/ outside storage/retry.cc")
def check_raw_sleep(tree: Tree, report) -> None:
    for f in tree.files:
        if f.rel.parts[0] != "src" or f.rel == RETRY_HOME:
            continue
        for lineno, (raw_line, code_line) in enumerate(zip(f.raw, f.code), 1):
            if RAW_SLEEP_ALLOW in raw_line:
                continue
            if re.search(r"\b(sleep_for|sleep_until|usleep|nanosleep)\s*\(",
                         code_line):
                report(f.rel, lineno, "raw-sleep",
                       "sleep/backoff in library code goes through "
                       "RetryPolicy (storage/retry.h); annotate a genuine "
                       f"exception with {RAW_SLEEP_ALLOW}")


@rule("raw-thread", "src/")
def check_raw_thread(tree: Tree, report) -> None:
    for f in tree.files:
        if f.rel.parts[0] != "src":
            continue
        for lineno, (raw_line, code_line) in enumerate(zip(f.raw, f.code), 1):
            if RAW_THREAD_ALLOW in raw_line:
                continue
            if re.search(r"\bstd\s*::\s*j?thread\b", code_line):
                report(f.rel, lineno, "raw-thread",
                       "query work runs on the session thread that "
                       "received it; a new thread needs "
                       f"{RAW_THREAD_ALLOW} naming who joins it")


SOCKET_CALL_RE = re.compile(
    r"(?:^|[^\w.:>])(?:::\s*)?"
    r"(socket|bind|listen|accept4?|connect|recv(?:from|msg)?|"
    r"send(?:to|msg)?|p?poll|select|epoll_\w+|setsockopt|getsockopt|"
    r"getsockname|getpeername|shutdown|inet_pton|inet_ntop)\s*\(")


@rule("raw-socket", "src/ outside server/net.{h,cc}")
def check_raw_socket(tree: Tree, report) -> None:
    for f in tree.files:
        if f.rel.parts[0] != "src" or f.rel in NET_FILES:
            continue
        for lineno, (raw_line, code_line) in enumerate(zip(f.raw, f.code), 1):
            if RAW_SOCKET_ALLOW in raw_line:
                continue
            m = SOCKET_CALL_RE.search(code_line)
            if m is not None:
                report(f.rel, lineno, "raw-socket",
                       f"raw socket/poll syscall {m.group(1)}() belongs in "
                       "net::Socket/net::Listener (src/server/net.h); "
                       "annotate a genuine exception with "
                       f"{RAW_SOCKET_ALLOW}")


FILE_IO_RE = re.compile(
    r"\bstd\s*::\s*([io]?fstream)\b|\b(fopen)\s*\("
    r"|(?:^|[^\w.>])::\s*(open|pread|pwrite)\s*\(")


@rule("raw-file-io", "src/ outside storage/env.cc")
def check_raw_file_io(tree: Tree, report) -> None:
    for f in tree.files:
        if f.rel.parts[0] != "src" or f.rel == ENV_HOME:
            continue
        for lineno, (raw_line, code_line) in enumerate(zip(f.raw, f.code), 1):
            if RAW_FILE_IO_ALLOW in raw_line:
                continue
            m = FILE_IO_RE.search(code_line)
            if m is not None:
                report(f.rel, lineno, "raw-file-io",
                       f"raw file I/O {next(g for g in m.groups() if g)} belongs "
                       "behind storage::Env (storage/env.h), where faults "
                       "can be injected; annotate a genuine exception with "
                       f"{RAW_FILE_IO_ALLOW}")


# A base-clause entry naming QueryBackend: `: public query::QueryBackend {`,
# `, QueryBackend` (multiple bases) or the name ending the line.
BACKEND_BASE_RE = re.compile(
    r"[:,]\s*(?:(?:public|protected|private|virtual)\s+)*"
    r"(?:(?:::\s*)?hygraph\s*::\s*)?(?:query\s*::\s*)?"
    r"QueryBackend\s*(?:[{,]|$)")


@rule("backend-subclass", "src/ outside storage/{all_in_graph,polyglot,durable}.h")
def check_backend_subclass(tree: Tree, report) -> None:
    for f in tree.files:
        if f.rel.parts[0] != "src" or f.rel in BACKEND_HOMES:
            continue
        for lineno, code_line in enumerate(f.code, 1):
            if BACKEND_BASE_RE.search(code_line) is not None:
                report(f.rel, lineno, "backend-subclass",
                       "only storage/all_in_graph.h, storage/polyglot.h and "
                       "storage/durable.h may derive from query::QueryBackend:"
                       " a published version is its engine's class bound to "
                       "the version, not a second class")


@rule("double-format", "src/ outside core/serialize.cc and obs/metrics.cc")
def check_double_format(tree: Tree, report) -> None:
    for f in tree.files:
        if f.rel.parts[0] != "src" or f.rel in DOUBLE_FORMAT_HOMES:
            continue
        code = strip_comments_and_strings(f.raw, keep_strings=True)
        for lineno, code_line in enumerate(code, 1):
            if "%.17g" in code_line:
                report(f.rel, lineno, "double-format",
                       "format round-trippable doubles with "
                       "core::FormatDouble (core/serialize.h), so snapshots "
                       "and WAL records share one text codec")


@rule("naked-new", "library code (src/, fuzz/)")
def check_naked_new(tree: Tree, report) -> None:
    for f in tree.files:
        if not f.library:
            continue
        for lineno, (raw_line, code_line) in enumerate(zip(f.raw, f.code), 1):
            prev_line = f.raw[lineno - 2] if lineno >= 2 else ""
            allowed = (NAKED_NEW_ALLOW in raw_line
                       or "NOLINTNEXTLINE(hygraph-naked-new)" in prev_line)
            if re.search(r"\bnew\b", code_line) and not allowed:
                report(f.rel, lineno, "naked-new",
                       "naked new in library code; use make_unique or "
                       f"annotate with {NAKED_NEW_ALLOW}")


@rule("naked-delete", "library code (src/, fuzz/)")
def check_naked_delete(tree: Tree, report) -> None:
    for f in tree.files:
        if not f.library:
            continue
        for lineno, code_line in enumerate(f.code, 1):
            if re.search(r"(?<!=)\s\bdelete\b(?!;)", " " + code_line):
                report(f.rel, lineno, "naked-delete",
                       "naked delete in library code; ownership belongs "
                       "in a smart pointer")


@rule("no-cout", "src/")
def check_no_cout(tree: Tree, report) -> None:
    for f in tree.files:
        if f.rel.parts[0] != "src":
            continue
        for lineno, code_line in enumerate(f.code, 1):
            if "std::cout" in code_line:
                report(f.rel, lineno, "no-cout",
                       "library code must not write to std::cout; report "
                       "through Status/Result")


def expected_guard(rel: Path) -> str:
    base = rel.relative_to("src") if rel.parts[0] == "src" else rel
    token = str(base).upper().replace("/", "_").replace(".", "_")
    return f"HYGRAPH_{token}_"


@rule("include-guard", "headers everywhere")
def check_include_guard(tree: Tree, report) -> None:
    for f in tree.files:
        if f.rel.suffix != ".h":
            continue
        guard = expected_guard(f.rel)
        text = "\n".join(f.raw)
        if f"#ifndef {guard}" not in text or f"#define {guard}" not in text:
            report(f.rel, 1, "include-guard",
                   f"expected include guard {guard}")


INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')


@rule("layering", "src/ project includes")
def check_layering(tree: Tree, report) -> None:
    for f in tree.files:
        source_layer = layer_of(f.rel)
        if source_layer is None:
            continue
        if source_layer not in LAYER_DEPS:
            report(f.rel, 1, "layering",
                   f"directory src/{source_layer}/ is not in the layer map; "
                   "add it (and its dependencies) to LAYER_DEPS in "
                   "scripts/hygraph_lint.py")
            continue
        allowed = LAYER_CLOSURE[source_layer]
        # Raw lines: comment/string stripping blanks out the include path.
        for lineno, raw_line in enumerate(f.raw, 1):
            m = INCLUDE_RE.search(raw_line)
            if m is None:
                continue
            target = layer_of(Path("src") / m.group(1))
            if target is None or target == source_layer:
                continue
            if target not in LAYER_DEPS:
                report(f.rel, lineno, "layering",
                       f'include "{m.group(1)}" targets unknown layer '
                       f"{target!r}; add it to LAYER_DEPS in "
                       "scripts/hygraph_lint.py")
                continue
            if target not in allowed:
                report(f.rel, lineno, "layering",
                       f'layer "{source_layer}" may not include '
                       f'"{m.group(1)}" (layer "{target}"); allowed: '
                       f'{", ".join(sorted(allowed)) or "none"}')


# Member (or local) declarations of the instrumented lock types, directly
# or behind unique_ptr. References and the class definitions themselves do
# not match (no identifier follows `Mutex&` / `Mutex(`).
LOCK_DECL_RE = re.compile(
    r"\b(?:hygraph::)?(?:Mutex|SharedMutex)\s+(\w+)\s*[;{=(]")
LOCK_UPTR_RE = re.compile(
    r"\bunique_ptr<\s*(?:hygraph::)?(?:Shared)?Mutex\s*>\s+(\w+)")


@rule("unranked-lock", "src/ outside common/sync.h")
def check_unranked_lock(tree: Tree, report) -> None:
    for f in tree.files:
        if f.rel.parts[0] != "src" or f.rel == SYNC_HOME:
            continue
        sibling = None
        if f.rel.suffix == ".h":
            sibling = tree.get(f.rel.with_suffix(".cc"))
        for lineno, code_line in enumerate(f.code, 1):
            m = LOCK_DECL_RE.search(code_line) or LOCK_UPTR_RE.search(
                code_line)
            if m is None:
                continue
            name = m.group(1)
            raw_line = f.raw[lineno - 1]
            prev_line = f.raw[lineno - 2] if lineno >= 2 else ""
            if UNRANKED_ALLOW in raw_line or UNRANKED_ALLOW in prev_line:
                continue
            if "LockRank::" in code_line:  # ranked right on the declaration
                continue
            if has_rank_init(f, name, lineno) or (
                    sibling is not None and has_rank_init(sibling, name, 0)):
                continue
            report(f.rel, lineno, "unranked-lock",
                   f"lock member {name!r} is never constructed with a "
                   "LockRank, so the runtime rank checker cannot see it; "
                   "pass a rank (common/sync.h) or annotate with "
                   f"{UNRANKED_ALLOW} and a justification")


def has_rank_init(f: SourceFile, name: str, decl_lineno: int) -> bool:
    """True when `name` is mentioned next to a LockRank:: value somewhere in
    `f` other than the declaration itself — constructor init lists,
    make_unique calls, or brace initializers (which may wrap, so the line
    after a mention also counts)."""
    name_re = re.compile(rf"\b{re.escape(name)}\b")
    for lineno, code_line in enumerate(f.code, 1):
        if lineno == decl_lineno or not name_re.search(code_line):
            continue
        if "LockRank::" in code_line:
            return True
        if lineno < len(f.code) and "LockRank::" in f.code[lineno]:
            return True
    return False


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    root = REPO
    if "--list" in argv:
        for fn in RULES:
            print(f"{fn.rule_name:15} {fn.rule_scope}")
        return 0
    if "--root" in argv:
        root = Path(argv[argv.index("--root") + 1]).resolve()

    tree = load_tree(root)
    findings: list[str] = []

    def report(rel: Path, lineno: int, check: str, message: str) -> None:
        findings.append(f"{rel}:{lineno}: [{check}] {message}")

    for fn in RULES:
        fn(tree, report)

    findings.sort(key=lambda s: (s.split(":", 1)[0], int(s.split(":", 2)[1])))
    if findings:
        print("\n".join(findings))
        print(f"\nhygraph_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("hygraph_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
