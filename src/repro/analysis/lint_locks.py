"""AST lint for the runtime's concurrency discipline.

Two source-level rules keep the multi-threaded runtime honest, and both are
pure conventions the type system cannot see - so they are enforced here, by
walking the AST of ``src/repro/``:

``RPA301`` (error) - **ledger mutations hold the ledger lock.**  Any class
that owns a ``_ledger_lock`` (the :class:`~repro.arch.accelerator.Accelerator`)
must mutate its ledger state - ``_tile_stats``, ``_movement``, ``_residency``,
``_pins`` - only inside a lexical ``with self._ledger_lock:`` block.
``__init__`` is exempt (the instance is not shared yet).  Both direct
assignments (``self._pins[a] = lease``, ``self._residency.x += 1``) and
mutating method calls (``self._pins.clear()``) are recognised.

``RPA302`` (warning) - **submitted work is always drained.**  Every receiver
that the serving layer's ``send_request`` (the worker channel's dispatch,
:class:`repro.serving.worker.WorkerChannel`) - or an executor-style
asynchronous ``submit_tasks`` - is called on must, somewhere in the linted
tree, have a matching ``drain``/``close``/``shutdown``/``join`` call either
inside a ``finally`` block or inside a cleanup method (``close``/``drain``/
``shutdown``/``__exit__``/``__del__``) - otherwise a failed run can strand futures on a
live worker pool, or a failed serving loop a live worker *process*.  The
match is by receiver name tail (``self.executor`` matches ``executor``), a
deliberately coarse whole-project heuristic; hence a warning, not an error.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional, Set, Union

from repro.analysis.diagnostics import SEVERITY_WARNING, VerificationReport

#: Ledger attributes RPA301 protects (the Accelerator's shared state).
PROTECTED_ATTRS = frozenset({"_tile_stats", "_movement", "_residency", "_pins"})

#: The lock attribute whose ``with`` scope makes a mutation legal.
LOCK_ATTR = "_ledger_lock"

#: Method calls on a protected attribute that count as mutations.
MUTATOR_METHODS = frozenset(
    {
        "clear",
        "pop",
        "popitem",
        "setdefault",
        "update",
        "append",
        "extend",
        "add",
        "remove",
        "discard",
        "insert",
        "merge_into",
    }
)

#: Dispatch calls RPA302 tracks: executor pools and serving worker channels.
SUBMIT_CALLS = frozenset({"submit_tasks", "send_request"})

#: Cleanup sinks that satisfy RPA302 for a submit receiver.  ``join`` is the
#: worker-channel (process) counterpart of a pool's ``shutdown``.
CLEANUP_CALLS = frozenset({"drain", "close", "shutdown", "join"})

#: Methods whose body counts as a cleanup path for RPA302.
CLEANUP_METHODS = frozenset({"close", "drain", "shutdown", "__exit__", "__del__"})


def _is_self_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _protected_root(node: ast.AST) -> Optional[str]:
    """The protected ledger attribute a target expression reaches, if any.

    Peels subscripts and attribute accesses: ``self._pins[a]``,
    ``self._residency.lease_events`` and ``self._movement`` all resolve to
    their ``self.<protected>`` root.
    """
    while True:
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in PROTECTED_ATTRS
            ):
                return node.attr
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            return None


def _receiver_tail(node: ast.AST) -> Optional[str]:
    """The last name of a call receiver: ``self.executor`` -> ``executor``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _class_owns_lock(node: ast.ClassDef) -> bool:
    """Whether the class assigns ``self._ledger_lock`` anywhere."""
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            if any(_is_self_attr(target, LOCK_ATTR) for target in child.targets):
                return True
    return False


class CleanupIndex:
    """Receiver tails with a qualifying drain/close somewhere in the tree.

    RPA302 is a whole-project property (the submit site and its cleanup may
    live in different classes - a subclass submits, its base class's
    ``close`` drains), so the index is built over every linted file first
    and consulted per submit site afterwards.
    """

    def __init__(self) -> None:
        self.submit_sites: List[tuple] = []  # (file, line, tail, call)
        self.cleaned_tails: Set[str] = set()

    def scan(self, tree: ast.AST, file: str) -> None:
        """Record submit sites and cleanup tails of one module."""
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_cleanup_method = node.name in CLEANUP_METHODS
                for child in ast.walk(node):
                    if not isinstance(child, ast.Call):
                        continue
                    func = child.func
                    if not isinstance(func, ast.Attribute):
                        continue
                    if func.attr in SUBMIT_CALLS:
                        tail = _receiver_tail(func.value)
                        if tail is not None:
                            self.submit_sites.append(
                                (file, child.lineno, tail, func.attr)
                            )
                    elif func.attr in CLEANUP_CALLS and in_cleanup_method:
                        tail = _receiver_tail(func.value)
                        if tail is not None:
                            self.cleaned_tails.add(tail)
            if isinstance(node, ast.Try) and node.finalbody:
                for child in ast.walk(ast.Module(body=node.finalbody, type_ignores=[])):
                    if (
                        isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr in CLEANUP_CALLS
                    ):
                        tail = _receiver_tail(child.func.value)
                        if tail is not None:
                            self.cleaned_tails.add(tail)

    def report_unmatched(self, report: VerificationReport) -> None:
        """Emit RPA302 for every submit receiver with no cleanup anywhere."""
        for file, line, tail, call in self.submit_sites:
            if tail not in self.cleaned_tails:
                report.add(
                    "RPA302",
                    f"{call} on {tail!r} has no matching "
                    f"drain/close/shutdown/join on a cleanup path",
                    severity=SEVERITY_WARNING,
                    file=file,
                    line=line,
                )


class _LockVisitor(ast.NodeVisitor):
    """Flags ledger mutations outside ``with self._ledger_lock:`` (RPA301)."""

    def __init__(self, report: VerificationReport, file: str) -> None:
        self.report = report
        self.file = file
        self._owning_class_depth = 0
        self._function_stack: List[str] = []
        self._lock_depth = 0

    # -- scope tracking -------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        owns = _class_owns_lock(node)
        if owns:
            self._owning_class_depth += 1
        self.generic_visit(node)
        if owns:
            self._owning_class_depth -= 1

    def _visit_function(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_With(self, node: ast.With) -> None:
        holds = any(
            _is_self_attr(item.context_expr, LOCK_ATTR) for item in node.items
        )
        for item in node.items:
            self.visit(item)
        if holds:
            self._lock_depth += 1
        for statement in node.body:
            self.visit(statement)
        if holds:
            self._lock_depth -= 1

    # -- mutation detection ---------------------------------------------
    @property
    def _exempt(self) -> bool:
        if not self._owning_class_depth:
            return True  # only classes owning the lock are constrained
        if self._lock_depth:
            return True  # lexically under the lock
        # __init__ builds the instance before any other thread can see it.
        return bool(self._function_stack) and self._function_stack[-1] == "__init__"

    def _flag(self, attr: str, node: ast.AST, what: str) -> None:
        self.report.add(
            "RPA301",
            f"{what} of self.{attr} outside 'with self.{LOCK_ATTR}:'",
            file=self.file,
            line=getattr(node, "lineno", None),
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._exempt:
            for target in node.targets:
                attr = _protected_root(target)
                if attr is not None:
                    self._flag(attr, node, "assignment")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not self._exempt:
            attr = _protected_root(node.target)
            if attr is not None:
                self._flag(attr, node, "augmented assignment")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        if not self._exempt:
            for target in node.targets:
                attr = _protected_root(target)
                if attr is not None:
                    self._flag(attr, node, "deletion")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if not self._exempt and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATOR_METHODS:
                attr = _protected_root(node.func.value)
                if attr is not None:
                    self._flag(attr, node, f"{node.func.attr}() call")
        self.generic_visit(node)


def lint_source(
    source: str,
    file: str = "<string>",
    report: Optional[VerificationReport] = None,
    index: Optional[CleanupIndex] = None,
) -> VerificationReport:
    """Lint one module's source text.

    When ``index`` is given, submit/cleanup sites are recorded into it and
    RPA302 is *not* emitted here (the caller reports unmatched receivers
    after scanning the whole tree); without an index the module is treated
    as a self-contained tree.
    """
    report = report if report is not None else VerificationReport(subject=file)
    tree = ast.parse(source, filename=file)
    _LockVisitor(report, file).visit(tree)
    if index is not None:
        index.scan(tree, file)
    else:
        local = CleanupIndex()
        local.scan(tree, file)
        local.report_unmatched(report)
    return report


def lint_file(
    path: Union[str, Path],
    report: Optional[VerificationReport] = None,
    index: Optional[CleanupIndex] = None,
) -> VerificationReport:
    """Lint one Python file (see :func:`lint_source`)."""
    path = Path(path)
    return lint_source(
        path.read_text(encoding="utf-8"),
        file=str(path),
        report=report,
        index=index,
    )


def lint_tree(
    root: Union[str, Path],
    report: Optional[VerificationReport] = None,
) -> VerificationReport:
    """Lint every ``*.py`` under ``root`` with a shared cleanup index.

    The two-pass structure makes RPA302 a whole-tree property: pass one
    scans every file (recording submit sites and cleanup tails), pass two
    reports submit receivers no file cleans up.  RPA301 findings are
    emitted per file during pass one.
    """
    root = Path(root)
    report = report if report is not None else VerificationReport(subject=str(root))
    index = CleanupIndex()
    for path in sorted(root.rglob("*.py")):
        lint_file(path, report=report, index=index)
    index.report_unmatched(report)
    return report
