"""Stdlib fallback for `make lint` when ruff is not installed.

Implements exactly the rule set selected in ``pyproject.toml``'s
``[tool.ruff.lint]`` — F401 (unused import), E501 (line too long),
E711/E712 (comparisons to None / True / False), E722 (bare except),
W291/W293 (trailing whitespace), W292 (missing final newline) — so the
gate means the same thing on a laptop without ruff as it does in CI
with it.  Honors ``# noqa`` (bare or with the matching code) and the
``__init__.py`` F401 per-file-ignore from the same config.

Usage: ``python tools/lint_fallback.py [paths...]`` (defaults to the
repo's source roots).  Exits non-zero on any finding.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

MAX_LINE = 100
DEFAULT_ROOTS = ("src", "tests", "benchmarks", "examples", "tools", "servicebench")
#: mirrors [tool.ruff.lint.per-file-ignores]: the workload modules carry
#: verbatim benchmark SQL templates that must not be wrapped
E501_EXEMPT = ("src/repro/workloads/tpcc.py", "src/repro/workloads/twitter.py")
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _noqa_suppresses(line: str, code: str) -> bool:
    match = _NOQA.search(line)
    if not match:
        return False
    codes = match.group("codes")
    if codes is None:
        return True                       # bare "# noqa" silences everything
    return code in [c.strip().upper() for c in codes.split(",")]


class _NameCollector(ast.NodeVisitor):
    """Every identifier the module body references (incl. attribute
    roots, which the Name nodes already cover)."""

    def __init__(self) -> None:
        self.used: set = set()

    def visit_Name(self, node: ast.Name) -> None:
        self.used.add(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)


def _exported_names(tree: ast.Module) -> set:
    """String entries of a module-level ``__all__`` list/tuple."""
    exported: set = set()
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AugAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target]
        if not any(t.id == "__all__" for t in targets):
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)):
            for elt in node.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value,
                                                                str):
                    exported.add(elt.value)
    return exported


def _unused_imports(tree: ast.Module, lines: list, path: Path) -> list:
    if path.name == "__init__.py":        # re-export surface (config ignore)
        return []
    collector = _NameCollector()
    collector.visit(tree)
    used = collector.used | _exported_names(tree)
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0], a.name)
                     for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" \
                    or any(a.name == "*" for a in node.names):
                continue
            names = [(a.asname or a.name, a.name) for a in node.names]
        else:
            continue
        for bound, original in names:
            if bound in used:
                continue
            line = lines[node.lineno - 1]
            if _noqa_suppresses(line, "F401"):
                continue
            findings.append((node.lineno, "F401",
                             f"`{original}` imported but unused"))
    return findings


def _comparison_findings(tree: ast.Module, lines: list) -> list:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for op, comparator in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if not isinstance(comparator, ast.Constant):
                continue
            value = comparator.value
            code = None
            if value is None:
                code, what = "E711", "None"
            elif value is True or value is False:
                code, what = "E712", repr(value)
            if code and not _noqa_suppresses(lines[node.lineno - 1], code):
                findings.append((node.lineno, code,
                                 f"comparison to {what} with `==`/`!=`"))
    return findings


def _bare_excepts(tree: ast.Module, lines: list) -> list:
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            if not _noqa_suppresses(lines[node.lineno - 1], "E722"):
                findings.append((node.lineno, "E722", "bare `except`"))
    return findings


def _line_findings(lines: list, raw: str, path: Path) -> list:
    check_length = not any(str(path).endswith(exempt)
                           for exempt in E501_EXEMPT)
    findings = []
    for number, line in enumerate(lines, start=1):
        stripped = line.rstrip("\n")
        if check_length and len(stripped) > MAX_LINE \
                and not _noqa_suppresses(stripped, "E501"):
            findings.append((number, "E501",
                             f"line too long ({len(stripped)} > {MAX_LINE})"))
        if stripped != stripped.rstrip():
            code = "W293" if not stripped.strip() else "W291"
            if not _noqa_suppresses(stripped, code):
                findings.append((number, code, "trailing whitespace"))
    if raw and not raw.endswith("\n"):
        findings.append((len(lines), "W292", "no newline at end of file"))
    return findings


def check_file(path: Path) -> list:
    raw = path.read_text(encoding="utf-8")
    lines = raw.splitlines() or [""]
    try:
        tree = ast.parse(raw, filename=str(path))
    except SyntaxError as exc:
        return [(exc.lineno or 0, "E999", f"syntax error: {exc.msg}")]
    findings = []
    findings += _unused_imports(tree, lines, path)
    findings += _comparison_findings(tree, lines)
    findings += _bare_excepts(tree, lines)
    findings += _line_findings(lines, raw, path)
    return sorted(findings)


def main(argv=None) -> int:
    roots = [Path(p) for p in (argv or sys.argv[1:])] \
        or [Path(r) for r in DEFAULT_ROOTS if Path(r).exists()]
    total = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            for lineno, code, message in check_file(path):
                print(f"{path}:{lineno}: {code} {message}")
                total += 1
    if total:
        print(f"\n{total} finding(s)")
        return 1
    print("lint fallback: all clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
