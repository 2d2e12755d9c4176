"""Static kernel analysis: vectorization lint over batch kernels (KRN0xx).

The whole performance model of this reproduction rests on one
assumption: the batch axis is traversed by NumPy kernels, never by the
Python interpreter. A "GPU-style" solver that quietly iterates
simulations in a Python ``for`` loop still produces correct numbers —
tens to hundreds of times slower, which on a parameter sweep is the
difference between minutes and days. This module is an ``ast``-based
linter that catches such regressions *statically*, and is self-applied
to the repo's own ``gpu/batch_*.py`` solvers by a pytest gate and CI.

Waivers: a finding is suppressed by a pragma comment on the flagged
line or the line directly above it::

    # lint: skip=KRN001 -- per-row fallback on a small failed subset

Waived findings are counted in the report's ``metadata["waived"]``.
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from pathlib import Path

from ..errors import LintError
from .dataflow import ARRAY_MODULES, WaiverIndex
from .report import LintReport

#: Rule registry: rule ID -> (default severity, one-line description).
KERNEL_RULES = {
    "KRN001": ("error", "Python loop over the batch axis in a kernel"),
    "KRN002": ("warning", "per-simulation scalar extraction inside a "
                          "loop"),
    "KRN003": ("warning", "reduced-precision dtype in a float64 kernel "
                          "(promotion hazard)"),
    "KRN004": ("warning", "in-place write to an array derived by "
                          "subscripting (view/copy hazard)"),
    "KRN005": ("error", "non-vectorized scipy routine called inside a "
                        "kernel"),
}

#: Identifiers that denote the batch extent when they appear inside a
#: ``range(...)`` argument.
_BATCH_SIZE_TOKENS = {"batch", "batch_size", "n_batch", "batch_width",
                      "nsim", "n_sim", "n_sims", "n_simulations"}

#: Names that conventionally hold per-simulation row-index arrays.
_BATCH_INDEX_NAMES = {"rows", "active", "all_rows", "batch_rows",
                      "acc_rows", "rej_rows", "conv_rows", "stiff_rows",
                      "nonstiff_rows", "failed_rows"}

#: Loop-target names that give away per-simulation iteration.
_BATCH_TARGET_NAMES = {"row", "sim", "simulation"}

#: NumPy index producers: iterating their result walks row indices.
_INDEX_PRODUCERS = {"flatnonzero", "nonzero", "argwhere"}

#: Narrow floating dtypes whose mixture with float64 state promotes
#: (or worse, truncates) silently.
_NARROW_DTYPES = {"float32", "float16", "half", "single"}

#: scipy routines that integrate/solve one scalar problem per call —
#: calling them inside a batch kernel serializes the batch.
_SCALAR_SCIPY = {"solve_ivp", "odeint", "ode", "quad", "quad_vec",
                 "brentq", "bisect", "newton", "fsolve", "root",
                 "root_scalar", "minimize", "minimize_scalar"}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _identifiers(node: ast.AST) -> set[str]:
    return set(_IDENT_RE.findall(ast.unparse(node)))


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c(...)`` -> ['a', 'b', 'c'] (best effort)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def _is_basic_slice(index: ast.AST) -> bool:
    """True for basic (view-returning) indexing, False for fancy."""
    if isinstance(index, ast.Slice):
        return True
    if isinstance(index, ast.Constant):
        return True
    if isinstance(index, ast.Tuple):
        return all(_is_basic_slice(element) for element in index.elts)
    return False


class _KernelVisitor(ast.NodeVisitor):
    """Single-pass AST walk emitting KRN0xx findings."""

    def __init__(self, filename: str, report: LintReport,
                 waivers: WaiverIndex) -> None:
        self.filename = filename
        self.report = report
        self.waivers = waivers
        self.waived = 0
        self.loop_depth = 0
        self.scipy_names: set[str] = set()
        # Per-function map: name -> (source line, was fancy indexing).
        self.subscript_bindings: list[dict[str, tuple[int, bool]]] = [{}]

    # -- plumbing ------------------------------------------------------

    def emit(self, rule_id: str, node: ast.AST, message: str,
             hint: str = "") -> None:
        lineno = getattr(node, "lineno", 0)
        if self.waivers.suppresses(rule_id, lineno):
            self.waived += 1
            return
        self.report.add(rule_id, KERNEL_RULES[rule_id][0], message,
                        f"{self.filename}:{lineno}", hint)

    # -- imports (for KRN005 name resolution) --------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.module.split(".")[0] == "scipy":
            for alias in node.names:
                self.scipy_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- KRN001: batch-axis loops --------------------------------------

    def _batch_axis_iter(self, iterator: ast.AST) -> str | None:
        if isinstance(iterator, ast.Name) \
                and iterator.id in _BATCH_INDEX_NAMES:
            return f"iterates the row-index array {iterator.id!r}"
        if isinstance(iterator, ast.Call):
            chain = _attr_chain(iterator.func)
            if chain and chain[-1] == "range":
                tokens = set()
                for argument in iterator.args:
                    tokens |= _identifiers(argument)
                hits = tokens & _BATCH_SIZE_TOKENS
                if hits:
                    return ("ranges over the batch extent "
                            f"({', '.join(sorted(hits))})")
            if chain and chain[-1] in _INDEX_PRODUCERS:
                return (f"iterates np.{chain[-1]}(...) — a per-simulation "
                        "index walk")
        return None

    def _batch_axis_target(self, target: ast.AST) -> str | None:
        names = []
        if isinstance(target, ast.Name):
            names = [target.id]
        elif isinstance(target, ast.Tuple):
            names = [e.id for e in target.elts if isinstance(e, ast.Name)]
        hits = set(names) & _BATCH_TARGET_NAMES
        if hits:
            return (f"loop variable {sorted(hits)[0]!r} walks simulations "
                    "one at a time")
        return None

    def visit_For(self, node: ast.For) -> None:
        reason = self._batch_axis_iter(node.iter) \
            or self._batch_axis_target(node.target)
        if reason:
            self.emit("KRN001", node,
                      f"Python for-loop over the batch axis: {reason}",
                      "replace with a vectorized NumPy operation over "
                      "the whole sub-batch")
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        hits = _identifiers(node.test) & _BATCH_SIZE_TOKENS
        if hits:
            self.emit("KRN001", node,
                      "Python while-loop conditioned on the batch extent "
                      f"({', '.join(sorted(hits))})",
                      "advance all simulations per iteration, not one")
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def _visit_comprehension(self, node: ast.AST) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- KRN002 / KRN003 / KRN005: calls -------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        terminal = chain[-1] if chain else ""

        if self.loop_depth > 0:
            if terminal == "item" and isinstance(node.func, ast.Attribute):
                self.emit("KRN002", node,
                          "ndarray.item() inside a loop pulls one "
                          "simulation's scalar through the interpreter",
                          "keep the value as an array slice")
            if isinstance(node.func, ast.Name) \
                    and node.func.id in ("float", "int") \
                    and len(node.args) == 1 \
                    and isinstance(node.args[0], ast.Subscript):
                self.emit("KRN002", node,
                          f"{node.func.id}(array[...]) inside a loop "
                          "extracts one simulation's value per iteration",
                          "operate on the whole axis instead")

        if terminal in _SCALAR_SCIPY:
            from_scipy = (isinstance(node.func, ast.Name)
                          and node.func.id in self.scipy_names)
            via_module = bool({"scipy", "integrate", "optimize"}
                              & set(chain[:-1]))
            if from_scipy or via_module:
                self.emit("KRN005", node,
                          f"scipy routine {terminal!r} solves one scalar "
                          "problem per call; inside a batch kernel it "
                          "serializes the batch",
                          "use the batched substrate (or a vectorized "
                          "formulation) instead")

        if terminal == "astype":
            # Attribute arguments (np.float32) are caught by
            # visit_Attribute; only string dtypes need handling here.
            for argument in node.args:
                if isinstance(argument, ast.Constant):
                    self._check_dtype_value(argument)
        self.generic_visit(node)

    def _check_dtype_value(self, node: ast.AST) -> None:
        narrow = None
        if isinstance(node, ast.Attribute) and node.attr in _NARROW_DTYPES:
            narrow = node.attr
        elif isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and node.value in _NARROW_DTYPES:
            narrow = node.value
        if narrow:
            self.emit("KRN003", node,
                      f"narrow dtype {narrow!r} in a float64 kernel: "
                      "mixed-precision expressions promote per element "
                      "(or truncate solver state)",
                      "keep kernel state uniformly float64")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _NARROW_DTYPES:
            chain = _attr_chain(node)
            if chain and chain[0] in ARRAY_MODULES:
                self._check_dtype_value(node)
        self.generic_visit(node)

    def visit_keyword(self, node: ast.keyword) -> None:
        # Attribute dtypes (np.float32) are caught by visit_Attribute;
        # only string dtypes ("float32") need handling here.
        if node.arg == "dtype" and isinstance(node.value, ast.Constant):
            self._check_dtype_value(node.value)
        self.generic_visit(node)

    # -- KRN004: writes through subscript-derived arrays ---------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.subscript_bindings.append({})
        self.generic_visit(node)
        self.subscript_bindings.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        if isinstance(value, ast.Subscript) \
                and isinstance(value.value, ast.Name):
            basic = _is_basic_slice(value.slice)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.subscript_bindings[-1][target.id] = \
                        (node.lineno, basic)
        else:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.subscript_bindings[-1].pop(target.id, None)
        for target in node.targets:
            self._check_subscript_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_subscript_store(node.target)
        self.generic_visit(node)

    def _check_subscript_store(self, target: ast.AST) -> None:
        if not (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)):
            return
        binding = self.subscript_bindings[-1].get(target.value.id)
        if binding is None:
            return
        origin_line, basic = binding
        if basic:
            self.emit("KRN004", target,
                      f"in-place write to {target.value.id!r}, a basic-"
                      f"slice view bound on line {origin_line}: the write "
                      "aliases the original solver state",
                      "write through the original array with an explicit "
                      "index")
        else:
            self.emit("KRN004", target,
                      f"in-place write to {target.value.id!r}, bound by "
                      f"fancy indexing on line {origin_line}: fancy "
                      "indexing copies, so the write never reaches the "
                      "solver state",
                      "write through the original array: "
                      f"original[rows] = ...")


def lint_source(source: str, filename: str = "<kernel>") -> LintReport:
    """Lint one kernel source string; returns a :class:`LintReport`.

    Waiver pragmas that suppress nothing are themselves reported as
    ``LNT000 unused-suppression`` findings, so the self-lint gate
    fails when a fixed defect leaves its pragma behind.
    """
    report = LintReport(subject=filename)
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as error:
        raise LintError(f"cannot parse {filename}: {error}") from error
    waivers = WaiverIndex.from_source(source)
    visitor = _KernelVisitor(filename, report, waivers)
    visitor.visit(tree)
    for lineno, rule in waivers.stale(
            lambda r: r.startswith(("KRN", "LNT"))):
        report.add("LNT000", "warning",
                   f"stale waiver: the {rule} pragma on line {lineno} "
                   "suppresses nothing",
                   f"{filename}:{lineno}", "remove the pragma")
    report.metadata["waived"] = visitor.waived
    return report


def lint_file(path: str | Path) -> LintReport:
    """Lint one kernel source file."""
    path = Path(path)
    try:
        source = path.read_text()
    except OSError as error:
        raise LintError(f"cannot read {path}: {error}") from error
    return lint_source(source, str(path))


def lint_callable(function) -> LintReport:
    """Lint a registered RHS callable (or any function) by source.

    Accepts anything :func:`inspect.getsource` understands; builtins
    and C extensions have no Python body to analyze and raise
    :class:`~repro.errors.LintError`.
    """
    try:
        source = inspect.getsource(function)
    except (OSError, TypeError) as error:
        raise LintError(
            f"cannot fetch source of {function!r}: {error}") from error
    code = getattr(function, "__code__", None)
    where = (f"{code.co_filename}:{code.co_firstlineno}"
             if code is not None else getattr(function, "__name__",
                                              "<callable>"))
    return lint_source(textwrap.dedent(source), where)


def shipped_kernel_paths() -> list[Path]:
    """The repo's own batch-kernel modules (``gpu/batch_*.py``)."""
    gpu_dir = Path(__file__).resolve().parent.parent / "gpu"
    return sorted(gpu_dir.glob("batch_*.py"))


def lint_kernels(paths: list[str | Path] | None = None) -> LintReport:
    """Lint a set of kernel files (default: the shipped batch solvers)."""
    targets = [Path(p) for p in paths] if paths else shipped_kernel_paths()
    if not targets:
        raise LintError("no kernel files to lint")
    merged = LintReport(
        subject=f"{len(targets)} kernel file(s)",
        metadata={"files": [str(t) for t in targets], "waived": 0})
    for target in targets:
        part = lint_file(target)
        merged.findings.extend(part.findings)
        merged.metadata["waived"] += part.metadata.get("waived", 0)
    return merged
