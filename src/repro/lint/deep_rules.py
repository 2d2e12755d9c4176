"""Determinism rules DET001–DET006 of the deep analyzer.

Each rule is a function ``rule(index, config, emit)`` over a
:class:`~repro.lint.dataflow.ProjectIndex`; ``emit(rule_id, module,
lineno, message, hint)`` routes findings through waiver and baseline
handling in :mod:`repro.lint.deep`.

The family statically guards the two reproducibility invariants earlier
work hand-established: bit-identical results under memory-governor
launch splitting (the batched kernels must never reduce over the row
axis with width-sensitive BLAS paths) and bit-for-bit campaign replay
from checkpoints (no unseeded randomness or wall-clock values may reach
campaign state).
"""

from __future__ import annotations

import ast

from .dataflow import ARRAY_MODULES, ModuleInfo, ProjectIndex, attr_chain

#: Deep determinism rules: rule ID -> (default severity, one-line doc).
DET_RULES = {
    "DET001": ("error", "batch-width-dependent reduction over the row "
                        "axis in a kernel"),
    "DET002": ("warning", "out= destination may alias an input operand "
                          "of a non-elementwise routine"),
    "DET003": ("warning", "narrow-dtype value feeds an accumulation "
                          "chain (precision drift)"),
    "DET004": ("error", "unseeded random source reachable from "
                        "campaign/checkpoint paths"),
    "DET005": ("error", "wall-clock value flows into a checkpoint "
                        "fingerprint or result array"),
    "DET006": ("warning", "iteration over an unordered set feeds row "
                          "ordering"),
}

# ----------------------------------------------------------------------
# DET001 — width-dependent reductions in kernel stage math

#: Routines that lower to BLAS products whose per-row rounding depends
#: on how many rows are in flight.
_WIDTH_SENSITIVE = {"tensordot", "dot", "vdot", "inner", "matmul"}

#: Axis-aware reductions that collapse the row axis when axis=0.
_AXIS_REDUCERS = {"sum", "mean", "nansum", "nanmean", "prod", "cumsum"}


def _einsum_contracted_operands(spec: str, n_operands: int) -> list[int]:
    """Operand positions whose *leading* (row) subscript is contracted.

    A batched einsum is width-stable when every ≥2-d operand keeps its
    first subscript letter in the output — contracting it sums over the
    batch axis, which re-associates when launches split.
    """
    spec = spec.replace(" ", "")
    if "->" not in spec or "..." in spec:
        return []  # implicit output / ellipsis: handled conservatively
    inputs, output = spec.split("->", 1)
    operands = inputs.split(",")
    if len(operands) != n_operands:
        return []
    flagged = []
    for position, subscripts in enumerate(operands):
        if len(subscripts) >= 2 and subscripts[0] not in output:
            flagged.append(position)
    return flagged


def rule_det001(index: ProjectIndex, config, emit) -> None:
    for module in index.modules:
        if not module.matches(config.kernel_globs):
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) \
                    and isinstance(node.op, ast.MatMult):
                emit("DET001", module, node.lineno,
                     "matrix product (@) in kernel stage math: BLAS row "
                     "results change with the number of rows in flight",
                     "accumulate element-wise so split launches stay "
                     "bit-identical")
                continue
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            terminal = chain[-1] if chain else ""
            if terminal in _WIDTH_SENSITIVE:
                emit("DET001", module, node.lineno,
                     f"{terminal}(...) reduces with a width-sensitive "
                     "BLAS path: per-row rounding depends on the batch "
                     "width, breaking bit-identity under launch "
                     "splitting",
                     "replace with an element-wise accumulation or a "
                     "batch-preserving einsum")
            elif terminal == "einsum":
                _det001_einsum(module, node, emit)
            elif terminal in _AXIS_REDUCERS:
                for keyword in node.keywords:
                    if keyword.arg == "axis" \
                            and isinstance(keyword.value, ast.Constant) \
                            and keyword.value.value == 0:
                        emit("DET001", module, node.lineno,
                             f"{terminal}(axis=0) collapses the row "
                             "axis: the reduction order re-associates "
                             "when the launch is split",
                             "reduce along the state axis (axis=1) or "
                             "accumulate per row")


def _det001_einsum(module: ModuleInfo, node: ast.Call, emit) -> None:
    if not node.args or not isinstance(node.args[0], ast.Constant) \
            or not isinstance(node.args[0].value, str):
        return
    spec = node.args[0].value
    operands = node.args[1:]
    for position in _einsum_contracted_operands(spec, len(operands)):
        emit("DET001", module, node.lineno,
             f"einsum({spec!r}) contracts the leading axis of operand "
             f"{position}: summing over the row axis re-associates "
             "under launch splitting",
             "keep the batch subscript in the output spec")
    for keyword in node.keywords:
        if keyword.arg == "optimize" and not (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value in (False, None)):
            emit("DET001", module, node.lineno,
                 f"einsum({spec!r}, optimize=...) lets the contraction "
                 "order vary with operand shapes, so results depend on "
                 "the batch width",
                 "drop optimize= in kernel stage math")


# ----------------------------------------------------------------------
# DET002 — out= aliasing an input operand

#: ufuncs that process elements independently: out-aliasing an input is
#: well-defined for these, so they are exempt.
_ELEMENTWISE_SAFE = {
    "clip", "maximum", "minimum", "abs", "absolute", "fabs", "add",
    "subtract", "multiply", "divide", "true_divide", "floor_divide",
    "negative", "exp", "expm1", "log", "log1p", "log2", "log10", "sqrt",
    "square", "power", "mod", "remainder", "where", "copyto", "copysign",
    "sign", "rint", "floor", "ceil", "trunc", "logical_and",
    "logical_or", "logical_not", "isfinite", "isnan", "greater", "less",
    "greater_equal", "less_equal", "equal", "not_equal",
}


def rule_det002(index: ProjectIndex, config, emit) -> None:
    for module in index.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            out_expr = None
            for keyword in node.keywords:
                if keyword.arg == "out":
                    out_expr = keyword.value
            if out_expr is None:
                continue
            chain = attr_chain(node.func)
            terminal = chain[-1] if chain else ""
            if terminal in _ELEMENTWISE_SAFE:
                continue
            record = index.enclosing_function(module, node)
            aliases = index.scope(record).aliases
            for position, argument in enumerate(node.args):
                if aliases.may_alias(out_expr, argument):
                    try:
                        rendered = ast.unparse(out_expr)
                    except Exception:  # pragma: no cover
                        rendered = "<out>"
                    emit("DET002", module, node.lineno,
                         f"out={rendered} may alias input operand "
                         f"{position} of {terminal or 'a call'}(...): "
                         "non-elementwise routines read inputs while "
                         "writing the output, so results depend on "
                         "traversal order",
                         "write into a fresh array (or prove the "
                         "routine elementwise and waive)")
                    break


# ----------------------------------------------------------------------
# DET003 — narrow dtypes feeding accumulation chains

_NARROW = {"float32", "float16", "half", "single", "int32", "int16"}


def _is_narrowing(expression: ast.AST) -> str | None:
    """Narrow dtype produced by ``expression``, or None."""
    for node in ast.walk(expression):
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            terminal = chain[-1] if chain else ""
            if terminal == "astype":
                for argument in list(node.args) + \
                        [k.value for k in node.keywords]:
                    name = _narrow_name(argument)
                    if name:
                        return name
            elif terminal in _NARROW and chain[:-1] and \
                    chain[0] in ARRAY_MODULES:
                return terminal
        elif isinstance(node, ast.keyword) and node.arg == "dtype":
            name = _narrow_name(node.value)
            if name:
                return name
    return None


def _narrow_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value in _NARROW:
        return node.value
    if isinstance(node, ast.Attribute) and node.attr in _NARROW:
        return node.attr
    return None


def rule_det003(index: ProjectIndex, config, emit) -> None:
    for record in list(index.functions()) + list(index.module_records()):
        module = record.module
        defuse = index.scope(record).defuse
        for definition in defuse.definitions:
            value = defuse.value_of.get(definition)
            if value is None or not isinstance(value, ast.AST):
                continue
            narrow = _is_narrowing(value)
            if narrow is None:
                continue
            for use in defuse.uses_of.get(definition, ()):
                if _feeds_arithmetic(module, use):
                    emit("DET003", module, use.lineno,
                         f"{definition.name!r} holds a {narrow} value "
                         f"(bound on line {definition.lineno}) and "
                         "feeds an arithmetic chain: mixed-precision "
                         "accumulation drifts with evaluation order",
                         "keep accumulator state float64; narrow only "
                         "at the output boundary")
                    break


def _feeds_arithmetic(module: ModuleInfo, use: ast.Name) -> bool:
    for ancestor in module.ancestors(use):
        if isinstance(ancestor, (ast.BinOp, ast.AugAssign)):
            return True
        if isinstance(ancestor, ast.stmt):
            return isinstance(ancestor, ast.AugAssign)
    return False


# ----------------------------------------------------------------------
# DET004 — unseeded randomness on campaign/checkpoint paths

_GLOBAL_NP_DISTS = {"rand", "randn", "randint", "random", "choice",
                    "uniform", "normal", "standard_normal", "shuffle",
                    "permutation", "exponential", "poisson", "lognormal"}

_STDLIB_RANDOM = {"random", "randint", "uniform", "choice", "shuffle",
                  "gauss", "normalvariate", "sample", "randrange",
                  "betavariate", "expovariate"}


def _unseeded_rng_reason(node: ast.Call) -> str | None:
    chain = attr_chain(node.func)
    if not chain:
        return None
    terminal = chain[-1]
    if terminal == "default_rng" and not node.args and not node.keywords:
        return "default_rng() without a seed draws from OS entropy"
    if terminal == "RandomState" and not node.args and not node.keywords:
        return "RandomState() without a seed draws from OS entropy"
    if len(chain) >= 3 and chain[-2] == "random" \
            and chain[-3] in ARRAY_MODULES \
            and terminal in _GLOBAL_NP_DISTS:
        return (f"np.random.{terminal} uses the shared global "
                "generator, whose state depends on call history")
    if len(chain) == 2 and chain[0] == "random" \
            and terminal in _STDLIB_RANDOM:
        return (f"random.{terminal} uses the interpreter-global "
                "generator")
    return None


def campaign_roots(index: ProjectIndex, config) -> set[str]:
    """Qualnames rooting the campaign/checkpoint reachability query."""
    roots = set()
    for record in index.functions():
        if record.module.matches(config.campaign_globs):
            roots.add(record.qualname)
        elif any(record.name.startswith(prefix)
                 for prefix in config.campaign_prefixes):
            roots.add(record.qualname)
    return roots


def rule_det004(index: ProjectIndex, config, emit) -> None:
    reachable = index.reachable(campaign_roots(index, config))
    for module in index.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            reason = _unseeded_rng_reason(node)
            if reason is None:
                continue
            record = index.enclosing_function(module, node)
            on_campaign_path = (
                record.name == ProjectIndex.MODULE_FUNCTION  # import time
                or record.qualname in reachable)
            if on_campaign_path:
                emit("DET004", module, node.lineno,
                     f"unseeded random source on a campaign/checkpoint "
                     f"path: {reason}; checkpoint resume can no longer "
                     "replay bit-for-bit",
                     "thread an explicit seeded Generator through the "
                     "call chain")
            else:
                emit("DET004", module, node.lineno,
                     f"unseeded random source: {reason}",
                     "prefer an explicit seeded Generator",
                     severity="warning")


# ----------------------------------------------------------------------
# DET005 — wall-clock taint into fingerprints / result arrays

_TIME_CALLS = {"time", "perf_counter", "monotonic", "process_time",
               "time_ns", "perf_counter_ns", "monotonic_ns",
               "thread_time", "clock_gettime"}
_DATETIME_CALLS = {"now", "utcnow", "today"}
_HASH_SINKS = {"sha256", "sha1", "md5", "blake2b", "blake2s", "sha512"}
_CHECKPOINT_SINKS = {"save_chunk", "set_payload", "write_payload"}


def _is_raw_time_source(node: ast.AST) -> bool:
    """A direct ``time.*`` / ``datetime`` read (not the sanctioned
    :mod:`repro.telemetry.clock` facade)."""
    if not isinstance(node, ast.Call):
        return False
    chain = attr_chain(node.func)
    if not chain:
        return False
    terminal = chain[-1]
    if terminal in _TIME_CALLS and "time" in chain[:-1]:
        return True
    if terminal in _DATETIME_CALLS and \
            {"datetime", "date"} & set(chain[:-1]):
        return True
    return False


def _is_time_source(node: ast.AST, clock_calls=()) -> bool:
    if _is_raw_time_source(node):
        return True
    # Reads of the sanctioned clock (clock.monotonic() and friends)
    # taint just like raw time.* — the boundary moves where the call
    # is *allowed*, not what its value may flow into.
    if isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        return bool(chain) and chain[-1] in clock_calls
    return False


def _contains_time_source(expression: ast.AST, clock_calls=()) -> bool:
    return any(_is_time_source(node, clock_calls)
               for node in ast.walk(expression))


def _hash_object_names(scope_node: ast.AST) -> set[str]:
    """Local names bound to hashlib digest objects (``h.update`` on
    these is a fingerprint sink; ``d.update`` on a dict is not)."""
    names = set()
    for node in ast.walk(scope_node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Call):
                    chain = attr_chain(sub.func)
                    if chain and (chain[-1] in _HASH_SINKS
                                  or "hashlib" in chain):
                        names.add(node.targets[0].id)
    return names


def _is_sink_call(node: ast.Call, hash_objects: set[str]) -> bool:
    chain = attr_chain(node.func)
    if not chain:
        return False
    terminal = chain[-1]
    if terminal == "update":
        return len(chain) >= 2 and chain[0] in hash_objects
    return ("fingerprint" in terminal
            or terminal in _HASH_SINKS
            or terminal in _CHECKPOINT_SINKS
            or "hashlib" in chain[:-1])


def _sink_reason(module: ModuleInfo, use: ast.AST,
                 in_fingerprint_function: bool,
                 hash_objects: set[str]) -> str | None:
    """Why this use site is a determinism sink, or None."""
    previous = use
    for ancestor in module.ancestors(use):
        if isinstance(ancestor, ast.Call) \
                and _is_sink_call(ancestor, hash_objects) \
                and previous is not ancestor.func:
            chain = attr_chain(ancestor.func)
            return f"argument of {chain[-1]}(...)"
        if isinstance(ancestor, ast.Assign):
            for target in ancestor.targets:
                if isinstance(target, ast.Subscript) \
                        and previous is ancestor.value:
                    return "stored into an array element"
        if isinstance(ancestor, ast.Return) and in_fingerprint_function:
            return "returned from a fingerprint function"
        if isinstance(ancestor, ast.stmt):
            previous = ancestor
            continue
        previous = ancestor
    return None


def rule_det005(index: ProjectIndex, config, emit) -> None:
    clock_calls = tuple(getattr(config, "clock_calls", ()))
    clock_modules = tuple(getattr(config, "clock_modules", ()))
    for record in list(index.functions()) + list(index.module_records()):
        module = record.module
        in_fingerprint = "fingerprint" in record.name
        defuse = index.scope(record).defuse
        seeds = [definition for definition in defuse.definitions
                 if isinstance(defuse.value_of.get(definition), ast.AST)
                 and _contains_time_source(defuse.value_of[definition],
                                           clock_calls)]
        if not seeds:
            continue
        hash_objects = _hash_object_names(record.node)
        tainted = defuse.tainted_closure(seeds)
        for definition in tainted:
            for use in defuse.uses_of.get(definition, ()):
                reason = _sink_reason(module, use, in_fingerprint,
                                      hash_objects)
                if reason:
                    emit("DET005", module, use.lineno,
                         f"wall-clock value {definition.name!r} "
                         f"(tainted on line {definition.lineno}) "
                         f"{reason}: fingerprints/results now differ "
                         "between runs, so checkpoint replay breaks",
                         "derive fingerprints and results only from "
                         "campaign inputs")
    # Direct flows without an intermediate binding:
    # fingerprint(time.time()).
    for module in index.modules:
        module_hash_objects = _hash_object_names(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) \
                    and _is_sink_call(node, module_hash_objects):
                for argument in list(node.args) + \
                        [k.value for k in node.keywords]:
                    if _contains_time_source(argument, clock_calls):
                        chain = attr_chain(node.func)
                        emit("DET005", module, node.lineno,
                             f"wall-clock call passed directly to "
                             f"{chain[-1]}(...): the result is "
                             "different on every run",
                             "derive fingerprints only from campaign "
                             "inputs")
    # Boundary check: raw time.* / datetime reads are allowed only in
    # the sanctioned clock module(s). Funnelling every read through
    # repro.telemetry.clock is what lets the taint analysis above stay
    # sound — a new raw read elsewhere is an untracked clock source.
    for module in index.modules:
        if module.matches(clock_modules):
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and _is_raw_time_source(node):
                chain = attr_chain(node.func)
                emit("DET005", module, node.lineno,
                     f"raw wall-clock read {'.'.join(chain)}(...) "
                     "outside the sanctioned telemetry clock boundary",
                     "read time via repro.telemetry.clock "
                     "(monotonic()/walltime()) so wall-clock taint "
                     "stays trackable",
                     severity="warning")


# ----------------------------------------------------------------------
# DET006 — unordered set iteration feeding row ordering


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        return bool(chain) and chain[-1] in ("set", "frozenset")
    return False


def rule_det006(index: ProjectIndex, config, emit) -> None:
    for record in list(index.functions()) + list(index.module_records()):
        module = record.module
        defuse = None  # built lazily, only when a Name iterator shows up
        for node in ast.walk(record.node):
            if not isinstance(node, ast.For):
                continue
            unordered = _is_set_expression(node.iter)
            if not unordered and isinstance(node.iter, ast.Name):
                if defuse is None:
                    defuse = index.scope(record).defuse
                reaching = defuse.reaching_definitions(node.iter)
                values = [defuse.value_of.get(d) for d in reaching]
                unordered = bool(values) and all(
                    isinstance(v, ast.AST) and _is_set_expression(v)
                    for v in values)
            if not unordered:
                continue
            if _orders_rows(node):
                emit("DET006", module, node.lineno,
                     "loop over an unordered set writes ordered output: "
                     "set iteration order varies across processes "
                     "(PYTHONHASHSEED), so row ordering is not "
                     "reproducible",
                     "iterate sorted(...) instead")


def _orders_rows(loop: ast.For) -> bool:
    for node in ast.walk(loop):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Subscript)
                for target in node.targets):
            return True
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain and chain[-1] in ("append", "extend", "add") \
                    and len(chain) >= 2:
                return True
    return False


#: Rule id -> implementation, in execution order.
DET_CHECKS = {
    "DET001": rule_det001,
    "DET002": rule_det002,
    "DET003": rule_det003,
    "DET004": rule_det004,
    "DET005": rule_det005,
    "DET006": rule_det006,
}
