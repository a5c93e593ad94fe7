#!/usr/bin/env python
"""Repo-invariant lints the generic linters cannot express.

Seven checks, run in CI after the unit suite:

1. **Metric table agreement** — every metric family registered by a
   module under ``src/repro`` (any ``<registry>.counter/gauge/histogram
   ("name", ...)`` call with a literal name) must have a row in
   README.md's metric table, and every row of that table must name a
   family some module registers. The README promises the table and
   ``GET /metrics`` agree; this makes the promise mechanical in both
   directions.

2. **Instance encapsulation** — no module under ``src/repro`` outside
   an explicit allowlist may touch :class:`Instance`'s internal row
   storage (``._rows`` / ``._index``). The allowlist is the defining
   module plus ``kernel/state.py``, whose interned fast-path writer
   (``KernelState.add_interned``, the chase's fire path) is the one
   audited exception. (``kernel/joins.py`` held that writer before the
   kernel grew its native backend and the state moved to its own
   module; the walkers remaining in joins.py are read-only and earn no
   exemption.)

3. **Test-only oracle** — no module under ``src/repro`` imports from
   ``tests`` (in particular the reference engines in ``tests/oracle``),
   so the generic engines stay test-only.

4. **Named paths exist** — every repo-relative ``tests/``,
   ``benchmarks/``, ``scripts/``, ``perfbench/`` or ``examples/`` path
   named in a module under ``src/repro`` or in README.md must exist, so
   a docstring cannot cite a test suite that was never written (or
   has since moved). Templated names (``bench_<x>.py``, globs) are
   skipped.

5. **One memo idiom** — no module under ``src/repro`` memoizes through
   ``functools.lru_cache`` / ``functools.cache`` or a hand-rolled
   ``OrderedDict`` LRU (an evicting ``popitem(last=False)``). Every
   process-wide memo goes through :func:`repro.kernel.joins.memoized`,
   so the eviction policy cannot drift between them. The allowlisted
   classes are bounded *stores*, not memos: what they hold (verdicts
   recorded under a budget, registered models, run traces) is not a
   pure function of the key.

6. **One chase-result builder** — no module under ``src/repro``
   constructs a ``ChaseResult`` except ``chase/plan.py``, where
   ``ChaseSession.run`` (the one chase loop) builds it, and
   ``io/json_codec.py``, the wire decoder. A second builder is a second
   chase driver or a per-caller ``finish`` callback growing back.

7. **Named modules exist** — every dotted ``repro.…`` name in a
   docstring of a module under ``src/repro`` or in README.md must
   resolve: its longest module prefix must be a module file (a ``.py``
   file, a package, or the C source of an extension module), and the
   name after it must be defined at that module's top level (a def,
   class, assignment or import; for an extension, a quoted name in its
   C source). When that name is a class, a further name must be bound
   in the class body or assigned to ``self`` by one of its methods. A
   docstring cannot point readers at a module or function that was
   deleted or renamed.

Exit codes: 0 clean, 1 violations (printed one per line), 2 a lint
input file is missing. Run from anywhere::

    python scripts/lint_invariants.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"
README = REPO_ROOT / "README.md"

#: The registry factory methods whose first literal argument is a
#: metric family name.
METRIC_FACTORIES = {"counter", "gauge", "histogram"}

#: Repo-relative path mentions: one of the checked top-level
#: directories, not itself the tail of a longer path.
PATH_MENTION = re.compile(
    r"(?<![\w/.\-])(?:tests|benchmarks|scripts|perfbench|examples)/[\w./<>*{}\-]*"
)

#: Dotted names under the package, not themselves the tail of a longer
#: dotted name.
MODULE_MENTION = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")

#: Instance's private storage attributes.
PRIVATE_STORAGE = {"_rows", "_index"}

#: Modules allowed to touch Instance internals: the defining module and
#: the compiled kernel's audited interned-row fast path (KernelState
#: lives in kernel/state.py since the native-backend split).
STORAGE_ALLOWLIST = {
    SRC_ROOT / "relational" / "instance.py",
    SRC_ROOT / "kernel" / "state.py",
}

#: functools' memo decorators.
FUNCTOOLS_MEMOS = {"lru_cache", "cache"}

#: (module, class) pairs whose OrderedDict eviction is a store's recency
#: policy rather than a memo's.
LRU_STORE_ALLOWLIST = {
    (SRC_ROOT / "service" / "cache.py", "ResultCache"),
    (SRC_ROOT / "service" / "api.py", "ModelStore"),
    (SRC_ROOT / "obs" / "trace.py", "TraceBuffer"),
}

#: The modules allowed to construct a ChaseResult: the chase loop's
#: own module and the wire decoder.
CHASE_RESULT_BUILDERS = {
    SRC_ROOT / "chase" / "plan.py",
    SRC_ROOT / "io" / "json_codec.py",
}


def registered_metric_names(path: Path) -> list[tuple[str, int]]:
    """(family name, line) for every literal metric registration."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and func.attr in METRIC_FACTORIES
        ):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            found.append((first.value, node.lineno))
    return found


def readme_metric_table_names(readme_text: str) -> set[str]:
    """Metric names appearing as the first cell of a README table row."""
    names = set()
    for line in readme_text.splitlines():
        match = re.match(r"\|\s*`(repro_[a-z0-9_]+)`\s*\|", line)
        if match:
            names.add(match.group(1))
    return names


def check_metric_table() -> list[str]:
    problems = []
    documented = readme_metric_table_names(README.read_text())
    registered = set()
    for module in sorted(SRC_ROOT.rglob("*.py")):
        for name, lineno in registered_metric_names(module):
            registered.add(name)
            if name not in documented:
                problems.append(
                    f"{module.relative_to(REPO_ROOT)}:{lineno}: metric "
                    f"family {name!r} is registered but has no row in "
                    f"README.md's metric table"
                )
    for name in sorted(documented - registered):
        problems.append(
            f"README.md: metric table row {name!r} names a family no "
            f"module under src/repro registers"
        )
    return problems


def private_storage_accesses(path: Path) -> list[tuple[str, int]]:
    """(attribute, line) for every ``<expr>._rows`` / ``<expr>._index``.

    Accesses through ``self`` inside the allowlisted modules never get
    here; elsewhere *any* attribute access with these names is flagged —
    the names are unique to Instance's storage within this codebase.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_STORAGE:
            found.append((node.attr, node.lineno))
    return found


def check_instance_encapsulation() -> list[str]:
    problems = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path in STORAGE_ALLOWLIST:
            continue
        for attr, lineno in private_storage_accesses(path):
            problems.append(
                f"{path.relative_to(REPO_ROOT)}:{lineno}: direct access "
                f"to Instance internal storage {attr!r} — go through "
                f"Instance's public API (rows/add/match) or the audited "
                f"fast path in kernel/joins.py"
            )
    return problems


def imports_of_tests(path: Path) -> list[tuple[str, int]]:
    """(module, line) for every import of ``tests`` or a submodule."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name == "tests" or name.startswith("tests."):
                found.append((name, node.lineno))
    return found


def check_oracle_is_test_only() -> list[str]:
    problems = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for name, lineno in imports_of_tests(path):
            problems.append(
                f"{path.relative_to(REPO_ROOT)}:{lineno}: imports {name!r} "
                f"— the reference engines in tests/oracle are test-only"
            )
    return problems


def named_paths(text: str) -> list[tuple[str, int]]:
    """(path, line) for every concrete repo-relative path mention."""
    found = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in PATH_MENTION.finditer(line):
            path = match.group(0).rstrip(".")
            if not any(char in path for char in "<>*{}"):
                found.append((path, lineno))
    return found


def check_named_paths_exist() -> list[str]:
    problems = []
    for path in sorted(SRC_ROOT.rglob("*.py")) + [README]:
        for named, lineno in named_paths(path.read_text()):
            if not (REPO_ROOT / named).exists():
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: names "
                    f"{named!r}, which does not exist"
                )
    return problems


def memo_idioms(path: Path) -> list[tuple[str, Optional[str], int]]:
    """(idiom, enclosing top-level class, line) for every functools memo
    and every ``popitem(last=False)`` eviction."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                for alias in node.names:
                    if alias.name in FUNCTOOLS_MEMOS:
                        found.append((f"functools.{alias.name}", owner, node.lineno))
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in FUNCTOOLS_MEMOS
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            ):
                found.append((f"functools.{node.attr}", owner, node.lineno))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "popitem"
                and any(
                    keyword.arg == "last"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is False
                    for keyword in node.keywords
                )
            ):
                found.append(("an OrderedDict LRU", owner, node.lineno))
    return found


def check_one_memo_idiom() -> list[str]:
    problems = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for idiom, owner, lineno in memo_idioms(path):
            if idiom == "an OrderedDict LRU" and (path, owner) in LRU_STORE_ALLOWLIST:
                continue
            problems.append(
                f"{path.relative_to(REPO_ROOT)}:{lineno}: memoizes through "
                f"{idiom} — use repro.kernel.joins.memoized"
            )
    return problems


def chase_result_constructions(path: Path) -> list[int]:
    """The line of every ``ChaseResult(...)`` call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        else:
            name = getattr(func, "id", None)
        if name == "ChaseResult":
            found.append(node.lineno)
    return found


def check_one_chase_result_builder() -> list[str]:
    problems = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path in CHASE_RESULT_BUILDERS:
            continue
        for lineno in chase_result_constructions(path):
            problems.append(
                f"{path.relative_to(REPO_ROOT)}:{lineno}: builds a "
                f"ChaseResult — only ChaseSession.run in chase/plan.py "
                f"(and the wire decoder) may"
            )
    return problems


def docstrings(path: Path) -> list[tuple[str, int]]:
    """(docstring, line) for the module and every class and function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        if node.body and isinstance(node.body[0], ast.Expr):
            value = node.body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                found.append((value.value, value.lineno))
    return found


def defined_names(body: list[ast.stmt]) -> dict[str, Optional[ast.ClassDef]]:
    """Names a module or class body binds (its classes mapped to their
    node), looking into top-level ``if``/``try`` blocks."""
    names: dict[str, Optional[ast.ClassDef]] = {}
    for node in body:
        if isinstance(node, ast.ClassDef):
            names[node.name] = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] = None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = None
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = None
        elif isinstance(node, ast.If):
            names.update(defined_names(node.body + node.orelse))
        elif isinstance(node, ast.Try):
            blocks = node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                blocks += handler.body
            names.update(defined_names(blocks))
    return names


def class_members(cls: ast.ClassDef) -> set[str]:
    """What a class body binds, plus the ``self.<name>`` attributes its
    methods assign."""
    members = set(defined_names(cls.body))
    for node in ast.walk(cls):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                members.add(target.attr)
    return members


def module_file(parts: list[str]) -> Optional[Path]:
    """The file defining module ``repro.<parts>``, if there is one."""
    base = SRC_ROOT.joinpath(*parts)
    for candidate in (
        base.with_suffix(".py"),
        base / "__init__.py",
        base.with_suffix(".c"),
    ):
        if candidate.is_file():
            return candidate
    return None


def unresolved(name: str) -> Optional[str]:
    """Why a dotted ``repro.…`` name does not resolve, or None."""
    parts = name.split(".")[1:]
    split = len(parts)
    while split and module_file(parts[:split]) is None:
        split -= 1
    module = module_file(parts[:split])
    assert module is not None  # the package itself always resolves
    rest = parts[split:]
    if not rest:
        return None
    owner = ".".join(["repro", *parts[:split]])
    text = module.read_text()
    if module.suffix == ".c":
        if f'"{rest[0]}"' in text:
            return None
        return f"extension module {owner} exports no {rest[0]!r}"
    names = defined_names(ast.parse(text, filename=str(module)).body)
    if rest[0] not in names:
        return f"{owner} has no module or top-level name {rest[0]!r}"
    cls = names[rest[0]]
    if len(rest) > 1 and cls is not None and rest[1] not in class_members(cls):
        return f"class {owner}.{rest[0]} defines no {rest[1]!r}"
    return None


def check_named_modules_exist() -> list[str]:
    problems = []
    texts = [
        (path, docstrings(path)) for path in sorted(SRC_ROOT.rglob("*.py"))
    ]
    texts.append((README, [(README.read_text(), 1)]))
    for path, blocks in texts:
        for text, first_line in blocks:
            for lineno, line in enumerate(text.splitlines(), start=first_line):
                for match in MODULE_MENTION.finditer(line):
                    reason = unresolved(match.group(0))
                    if reason is not None:
                        problems.append(
                            f"{path.relative_to(REPO_ROOT)}:{lineno}: names "
                            f"{match.group(0)!r}, which does not resolve: "
                            f"{reason}"
                        )
    return problems


def main() -> int:
    missing = [path for path in (SRC_ROOT, README) if not path.exists()]
    if missing:
        for path in missing:
            print(f"lint input missing: {path}", file=sys.stderr)
        return 2

    problems = (
        check_metric_table()
        + check_instance_encapsulation()
        + check_oracle_is_test_only()
        + check_named_paths_exist()
        + check_one_memo_idiom()
        + check_one_chase_result_builder()
        + check_named_modules_exist()
    )
    if problems:
        for problem in problems:
            print(problem)
        print(f"\n{len(problems)} invariant violation(s)", file=sys.stderr)
        return 1
    print(
        "invariants ok: metric table matches registrations, Instance "
        "storage sealed, no src module imports tests, named paths exist, "
        "one memo idiom, one chase-result builder, named modules exist"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
