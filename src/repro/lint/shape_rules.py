"""Shape/dtype rules SHP001–SHP006 of the shapes analyzer.

A symbolic abstract interpreter over the PR-4 dataflow engine
(:mod:`repro.lint.dataflow`): every expression in a batched-kernel
scope evaluates to an :class:`AbstractValue` — a tuple of symbolic
axis lengths drawn from the project's dimension vocabulary (``B``
batch rows, ``S`` species, ``R`` reactions, ``K`` stage count) plus a
dtype — propagated through def-use chains, subscripts, broadcasts and
the numpy op surface. The rules then ask shape questions the
syntactic DET family cannot: *is this operand actually batch-led when
it hits a row-contracting op?*, *does this broadcast silently pair the
batch axis with the species axis?*, *does a float32 value reach a
state accumulator?*

Everything widens to unknown rather than guessing: a rule only fires
when both sides of a conflict are confidently known, which is what
lets the pass run over the whole package at ``--fail-on warning`` with
an empty baseline.

Each rule is a function ``rule(index, config, emit)`` like the DET/CON
families; ``config`` is a :class:`repro.lint.shapes.ShapeConfig`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .dataflow import (ARRAY_MODULES, DefUseChains, ModuleInfo, ProjectIndex,
                       attr_chain)

#: Shape/dtype rules: rule ID -> (default severity, one-line doc).
SHP_RULES = {
    "SHP001": ("error", "row-contracting op consumes a batch-led "
                        "operand (batch axis lost)"),
    "SHP002": ("warning", "silent broadcast pairs the batch axis with "
                          "a different symbolic axis"),
    "SHP003": ("warning", "narrow-dtype value reaches a state/"
                          "accumulator arithmetic path"),
    "SHP004": ("warning", "variable is shape-unstable across branches "
                          "(conflicting symbolic shapes reach a use)"),
    "SHP005": ("warning", "reshape/ravel folds the batch axis into "
                          "other axes"),
    "SHP006": ("warning", "out= target dtype is narrower than the "
                          "widest input dtype"),
}

#: The symbolic dimension vocabulary. ``1`` broadcasts against
#: anything; ``?`` is an unknown-but-fixed axis length.
_SYMBOLS = {"B", "S", "R", "K"}

#: Parameter-name seeds applied in seeded (kernel) modules only: the
#: naming conventions of the batched integrators, mapped to their
#: documented shapes. Unlisted parameters stay unknown.
_PARAM_SHAPES: dict[str, tuple[tuple[str, ...], str | None]] = {
    "states": (("B", "S"), "float64"),
    "initial_states": (("B", "S"), "float64"),
    "derivatives": (("B", "S"), "float64"),
    "stage_states": (("B", "S"), "float64"),
    "y": (("B", "S"), "float64"),
    "y_act": (("B", "S"), "float64"),
    "y_new": (("B", "S"), "float64"),
    "reference": (("B", "S"), "float64"),
    "candidate": (("B", "S"), "float64"),
    "error": (("B", "S"), "float64"),
    "residual": (("B", "S"), "float64"),
    "stage_k": (("K", "B", "S"), "float64"),
    "stages": (("K", "B", "S"), "float64"),
    "weights": (("K",), "float64"),
    "times": (("B",), "float64"),
    "t_act": (("B",), "float64"),
    "h_act": (("B",), "float64"),
    "steps": (("B",), "float64"),
    "err": (("B",), "float64"),
    "h0": (("B",), "float64"),
    "h1": (("B",), "float64"),
    "rows": (("B",), "int64"),
    "active": (("B",), "int64"),
    "acc_rows": (("B",), "int64"),
    "rej_rows": (("B",), "int64"),
    "row_ids": (("B",), "int64"),
    "status": (("B",), "int64"),
    "accepted": (("B",), "bool"),
    "matrices": (("B", "S", "S"), "float64"),
    "jacobians": (("B", "S", "S"), "float64"),
    "vectors": (("B", "S"), "float64"),
}

#: Scalar names conventionally holding a symbolic axis length, used
#: when such a name appears as a dimension of a creation op.
_DIM_NAMES = {
    "batch": "B", "batch_size": "B", "n_rows": "B", "rows_in_flight": "B",
    "n": "S", "n_species": "S", "num_species": "S",
    "n_reactions": "R", "num_reactions": "R",
    "n_stages": "K", "stages": "K",
}

#: Dtype widths for promotion; wider rank wins (numpy-like, coarse).
_DTYPE_RANK = {"bool": 0, "bool_": 0,
               "int16": 1, "int32": 1, "int64": 1,
               "float16": 2, "half": 2, "float32": 2, "single": 2,
               "float64": 3, "complex128": 4}

_NARROW_DTYPES = {"float32", "float16", "half", "single",
                  "int32", "int16"}

#: Ops whose BLAS lowering makes per-row rounding width-dependent.
_ROW_CONTRACTING = {"tensordot", "dot", "vdot", "inner", "matmul"}

#: Reducers that collapse the leading axis when called with axis=0.
_AXIS_REDUCERS = {"sum", "mean", "nansum", "nanmean", "prod", "all",
                  "any", "argmax", "norm"}

_ELEMENTWISE_ONE_ARG = {"abs", "absolute", "sqrt", "exp", "log",
                        "square", "negative", "sign", "copy",
                        "ascontiguousarray"}

_ARITH_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv,
                 ast.Mod, ast.Pow)


@dataclass(frozen=True)
class AbstractValue:
    """Symbolic (shape, dtype) lattice element; ``None`` = unknown."""

    shape: tuple[str, ...] | None = None
    dtype: str | None = None

    @property
    def rank(self) -> int | None:
        return None if self.shape is None else len(self.shape)

    @property
    def batch_led(self) -> bool:
        return bool(self.shape) and self.shape[0] == "B"


UNKNOWN = AbstractValue()


def _join(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    """Least upper bound: agreement survives, conflict widens."""
    shape = a.shape if a.shape == b.shape else None
    dtype = a.dtype if a.dtype == b.dtype else None
    return AbstractValue(shape, dtype)


def _promote(*dtypes: str | None) -> str | None:
    known = [d for d in dtypes if d is not None]
    if len(known) != len(dtypes) or not known:
        return None
    return max(known, key=lambda d: _DTYPE_RANK.get(d, -1))


def broadcast(a: AbstractValue, b: AbstractValue
              ) -> tuple[AbstractValue, tuple[str, str] | None]:
    """numpy-style broadcast of two abstract values.

    Returns ``(result, mismatch)`` where ``mismatch`` is the first
    right-aligned axis pair of two *different known* symbols — the
    signature of a silent misbroadcast (SHP002). Unknown shapes pass
    through the known operand: best-effort propagation, never a flag.
    """
    dtype = _promote(a.dtype, b.dtype)
    if a.shape is None or b.shape is None:
        known = a.shape if a.shape is not None else b.shape
        # A scalar never constrains the other operand: when the other
        # side is unknown, the result stays unknown (claiming "scalar"
        # here is what would fabricate SHP004 rank conflicts).
        if known == ():
            known = None
        return AbstractValue(known, dtype), None
    short, long = sorted((a.shape, b.shape), key=len)
    offset = len(long) - len(short)
    result = list(long)
    mismatch = None
    for i, dim in enumerate(short):
        other = long[offset + i]
        if dim == other or other == "1" or other == "?":
            result[offset + i] = dim if dim not in ("1", "?") else other
        elif dim in ("1", "?"):
            result[offset + i] = other
        else:  # two distinct known symbols on one broadcast axis
            mismatch = mismatch or (other, dim)
            result[offset + i] = "?"
    return AbstractValue(tuple(result), dtype), mismatch


def _dtype_name(node: ast.AST) -> str | None:
    """Dtype named by an expression (``np.float32``, ``"float32"``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value in _DTYPE_RANK:
        return node.value
    if isinstance(node, ast.Attribute) and node.attr in _DTYPE_RANK:
        return node.attr
    if isinstance(node, ast.Name) and node.id in _DTYPE_RANK:
        return node.id
    return None


class ShapeInterpreter:
    """Abstract interpreter over one function's def-use chains.

    Evaluation is demand-driven and memoized; loop-carried cycles
    (``combined += ...``) widen to :data:`UNKNOWN` through a visiting
    guard instead of recursing.
    """

    def __init__(self, defuse: DefUseChains, seeded: bool) -> None:
        self.defuse = defuse
        self.seeded = seeded
        self._def_memo: dict[int, AbstractValue] = {}
        self._visiting: set[int] = set()

    # -- definitions ---------------------------------------------------

    def value_at(self, definition) -> AbstractValue:
        key = id(definition)
        if key in self._def_memo:
            return self._def_memo[key]
        if key in self._visiting:
            return UNKNOWN
        self._visiting.add(key)
        try:
            value = self._infer_definition(definition)
        finally:
            self._visiting.discard(key)
        self._def_memo[key] = value
        return value

    def _infer_definition(self, definition) -> AbstractValue:
        if definition.kind == "param":
            if self.seeded and definition.name in _PARAM_SHAPES:
                shape, dtype = _PARAM_SHAPES[definition.name]
                return AbstractValue(shape, dtype)
            return UNKNOWN
        value = self.defuse.value_of.get(definition)
        if value is None or not isinstance(value, ast.AST):
            return UNKNOWN
        if definition.kind == "for":
            iterated = self.eval(value)
            if isinstance(value, ast.Call):
                chain = attr_chain(value.func)
                if chain and chain[-1] in ("range", "enumerate"):
                    return AbstractValue((), "int64")
            if iterated.shape:
                return AbstractValue(iterated.shape[1:], iterated.dtype)
            return UNKNOWN
        if isinstance(value, ast.AugAssign):
            target = AbstractValue()
            if isinstance(value.target, ast.Name):
                target = self._eval_name(value.target)
            result, _ = broadcast(target, self.eval(value.value))
            return result
        return self.eval(value)

    # -- expressions ---------------------------------------------------

    def eval(self, node: ast.AST) -> AbstractValue:
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            return UNKNOWN
        return method(node)

    def _eval_Constant(self, node: ast.Constant) -> AbstractValue:
        if isinstance(node.value, bool):
            return AbstractValue((), "bool")
        if isinstance(node.value, int):
            return AbstractValue((), "int64")
        if isinstance(node.value, float):
            return AbstractValue((), "float64")
        return UNKNOWN

    def _eval_Name(self, node: ast.Name) -> AbstractValue:
        return self._eval_name(node)

    def _eval_name(self, node: ast.Name) -> AbstractValue:
        reaching = self.defuse.reaching_definitions(node)
        if not reaching:
            return UNKNOWN
        value = self.value_at(reaching[0])
        for definition in reaching[1:]:
            value = _join(value, self.value_at(definition))
        return value

    def _eval_BinOp(self, node: ast.BinOp) -> AbstractValue:
        if isinstance(node.op, ast.MatMult):
            return UNKNOWN
        result, _ = broadcast(self.eval(node.left), self.eval(node.right))
        return result

    def _eval_UnaryOp(self, node: ast.UnaryOp) -> AbstractValue:
        value = self.eval(node.operand)
        if isinstance(node.op, ast.Not):
            return AbstractValue(value.shape, "bool")
        if isinstance(node.op, ast.Invert):
            return value
        return value

    def _eval_BoolOp(self, node: ast.BoolOp) -> AbstractValue:
        value = self.eval(node.values[0])
        for operand in node.values[1:]:
            value = _join(value, self.eval(operand))
        return value

    def _eval_Compare(self, node: ast.Compare) -> AbstractValue:
        value = self.eval(node.left)
        for comparator in node.comparators:
            value, _ = broadcast(value, self.eval(comparator))
        return AbstractValue(value.shape, "bool")

    def _eval_IfExp(self, node: ast.IfExp) -> AbstractValue:
        return _join(self.eval(node.body), self.eval(node.orelse))

    def _eval_Attribute(self, node: ast.Attribute) -> AbstractValue:
        if node.attr == "T":
            base = self.eval(node.value)
            if base.shape is not None:
                return AbstractValue(base.shape[::-1], base.dtype)
        if node.attr == "real" or node.attr == "imag":
            base = self.eval(node.value)
            return AbstractValue(base.shape, "float64")
        return UNKNOWN

    def _eval_Subscript(self, node: ast.Subscript) -> AbstractValue:
        base = self.eval(node.value)
        if base.shape is None:
            return UNKNOWN
        items = (list(node.slice.elts)
                 if isinstance(node.slice, ast.Tuple) else [node.slice])
        dims = list(base.shape)
        result: list[str] = []
        position = 0
        for item in items:
            if _is_none_constant(item):
                result.append("1")
                continue
            if position >= len(dims):
                return UNKNOWN
            if _is_int_constant(item):
                position += 1  # drops this axis
            elif isinstance(item, ast.Slice):
                result.append(dims[position])
                position += 1
            else:
                index = self.eval(item)
                if index.rank == 1:
                    # Fancy index / boolean mask over one axis: the
                    # axis survives (a batch subset is still batch).
                    symbol = (index.shape[0]
                              if index.shape[0] in _SYMBOLS
                              else dims[position])
                    result.append(symbol)
                    position += 1
                elif index.rank == 0:
                    position += 1  # scalar index drops the axis
                else:
                    return UNKNOWN
        result.extend(dims[position:])
        return AbstractValue(tuple(result), base.dtype)

    # -- calls ---------------------------------------------------------

    def _eval_Call(self, node: ast.Call) -> AbstractValue:
        chain = attr_chain(node.func)
        terminal = chain[-1] if chain else ""
        handler = getattr(self, f"_call_{terminal}", None)
        if handler is not None:
            return handler(node)
        if terminal in _ELEMENTWISE_ONE_ARG and node.args:
            return self.eval(node.args[0])
        if terminal in _AXIS_REDUCERS and node.args:
            return self._reduce(node, terminal)
        return UNKNOWN

    def _keyword(self, node: ast.Call, name: str) -> ast.AST | None:
        for keyword in node.keywords:
            if keyword.arg == name:
                return keyword.value
        return None

    def _dtype_kw(self, node: ast.Call, default: str | None
                  ) -> str | None:
        value = self._keyword(node, "dtype")
        if value is None:
            return default
        return _dtype_name(value)

    def _dim(self, node: ast.AST) -> str:
        """Symbolic length of one creation-op dimension expression."""
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return "1" if node.value == 1 else "?"
        if isinstance(node, ast.Name):
            return _DIM_NAMES.get(node.id, "?") if self.seeded else "?"
        if isinstance(node, ast.Attribute):
            if self.seeded and node.attr in _DIM_NAMES:
                return _DIM_NAMES[node.attr]
            if node.attr == "size":
                base = self.eval(node.value)
                if base.rank == 1:
                    return base.shape[0]
            return "?"
        if isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "shape" \
                and _is_int_constant(node.slice):
            base = self.eval(node.value.value)
            if base.shape is not None:
                index = _int_value(node.slice)
                if -len(base.shape) <= index < len(base.shape):
                    return base.shape[index]
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain and chain[-1] == "len" and node.args:
                base = self.eval(node.args[0])
                if base.shape:
                    return base.shape[0]
        return "?"

    def _dims(self, node: ast.AST) -> tuple[str, ...]:
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(self._dim(element) for element in node.elts)
        if isinstance(node, ast.Attribute) and node.attr == "shape":
            base = self.eval(node.value)
            if base.shape is not None:
                return base.shape
        return (self._dim(node),)

    def _creation(self, node: ast.Call,
                  default_dtype: str | None) -> AbstractValue:
        if not node.args:
            return UNKNOWN
        return AbstractValue(self._dims(node.args[0]),
                             self._dtype_kw(node, default_dtype))

    def _call_zeros(self, node): return self._creation(node, "float64")
    def _call_ones(self, node): return self._creation(node, "float64")
    def _call_empty(self, node): return self._creation(node, "float64")

    def _call_full(self, node: ast.Call) -> AbstractValue:
        if not node.args:
            return UNKNOWN
        fill = (self.eval(node.args[1]).dtype
                if len(node.args) > 1 else None)
        return AbstractValue(self._dims(node.args[0]),
                             self._dtype_kw(node, fill))

    def _like(self, node: ast.Call) -> AbstractValue:
        if not node.args:
            return UNKNOWN
        base = self.eval(node.args[0])
        return AbstractValue(base.shape, self._dtype_kw(node, base.dtype))

    def _call_zeros_like(self, node): return self._like(node)
    def _call_ones_like(self, node): return self._like(node)
    def _call_full_like(self, node): return self._like(node)

    def _call_asarray(self, node: ast.Call) -> AbstractValue:
        if not node.args:
            return UNKNOWN
        base = self.eval(node.args[0])
        return AbstractValue(base.shape, self._dtype_kw(node, base.dtype))

    _call_array = _call_asarray

    def _call_arange(self, node: ast.Call) -> AbstractValue:
        if len(node.args) == 1:
            return AbstractValue((self._dim(node.args[0]),),
                                 self._dtype_kw(node, "int64"))
        return AbstractValue(("?",), self._dtype_kw(node, None))

    def _call_flatnonzero(self, node: ast.Call) -> AbstractValue:
        if node.args:
            base = self.eval(node.args[0])
            if base.rank == 1:
                return AbstractValue((base.shape[0],), "int64")
        return AbstractValue(("?",), "int64")

    def _call_where(self, node: ast.Call) -> AbstractValue:
        if len(node.args) == 3:
            branches, _ = broadcast(self.eval(node.args[1]),
                                    self.eval(node.args[2]))
            condition = self.eval(node.args[0])
            result, _ = broadcast(
                branches, AbstractValue(condition.shape, branches.dtype))
            return result
        return UNKNOWN

    def _variadic_broadcast(self, node: ast.Call) -> AbstractValue:
        value = UNKNOWN
        for argument in node.args:
            value, _ = broadcast(value, self.eval(argument))
        return value

    def _call_maximum(self, node): return self._variadic_broadcast(node)
    def _call_minimum(self, node): return self._variadic_broadcast(node)
    def _call_clip(self, node): return self._variadic_broadcast(node)

    def _call_isfinite(self, node: ast.Call) -> AbstractValue:
        if node.args:
            return AbstractValue(self.eval(node.args[0]).shape, "bool")
        return UNKNOWN

    def _reduce(self, node: ast.Call, terminal: str) -> AbstractValue:
        if not node.args:
            return UNKNOWN
        base = self.eval(node.args[0])
        dtype = {"all": "bool", "any": "bool",
                 "argmax": "int64"}.get(terminal, base.dtype)
        if terminal in ("mean", "norm") and dtype not in (None,
                                                          "complex128"):
            dtype = "float64"
        axis = self._keyword(node, "axis")
        if axis is None and len(node.args) > 1 \
                and terminal != "norm":
            axis = node.args[1]
        if axis is None:
            return AbstractValue((), dtype)
        if base.shape is None or not _is_int_constant(axis):
            return AbstractValue(None, dtype)
        index = _int_value(axis)
        if not -len(base.shape) <= index < len(base.shape):
            return AbstractValue(None, dtype)
        remaining = list(base.shape)
        del remaining[index]
        return AbstractValue(tuple(remaining), dtype)

    def _call_einsum(self, node: ast.Call) -> AbstractValue:
        if not node.args or not isinstance(node.args[0], ast.Constant) \
                or not isinstance(node.args[0].value, str):
            return UNKNOWN
        spec = node.args[0].value.replace(" ", "")
        if "->" not in spec or "..." in spec:
            return UNKNOWN
        inputs, output = spec.split("->", 1)
        operands = inputs.split(",")
        if len(operands) != len(node.args) - 1:
            return UNKNOWN
        letters: dict[str, str] = {}
        dtypes = []
        for subscripts, argument in zip(operands, node.args[1:]):
            value = self.eval(argument)
            dtypes.append(value.dtype)
            if value.shape is not None \
                    and len(value.shape) == len(subscripts):
                for letter, dim in zip(subscripts, value.shape):
                    if letters.get(letter, dim) == dim:
                        letters[letter] = dim
        return AbstractValue(
            tuple(letters.get(letter, "?") for letter in output),
            _promote(*dtypes) if dtypes else None)

    def _call_batched_matvec(self, node: ast.Call) -> AbstractValue:
        if len(node.args) == 2:
            matrices = self.eval(node.args[0])
            vectors = self.eval(node.args[1])
            dtype = _promote(matrices.dtype, vectors.dtype)
            if matrices.rank == 3:
                return AbstractValue(
                    (matrices.shape[0], matrices.shape[2]), dtype)
            return AbstractValue(vectors.shape, dtype)
        return UNKNOWN

    def _call_batched_inv(self, node: ast.Call) -> AbstractValue:
        return self.eval(node.args[0]) if node.args else UNKNOWN

    _call_inv = _call_batched_inv

    def _call_astype(self, node: ast.Call) -> AbstractValue:
        if not isinstance(node.func, ast.Attribute):
            return UNKNOWN
        base = self.eval(node.func.value)
        dtype = None
        for argument in list(node.args) + \
                [k.value for k in node.keywords]:
            dtype = dtype or _dtype_name(argument)
        return AbstractValue(base.shape, dtype)

    def _call_ravel(self, node: ast.Call) -> AbstractValue:
        return AbstractValue(("?",), self._method_base(node).dtype)

    _call_flatten = _call_ravel

    def _call_reshape(self, node: ast.Call) -> AbstractValue:
        base = self._method_base(node)
        return AbstractValue(None, base.dtype)

    def _method_base(self, node: ast.Call) -> AbstractValue:
        """Receiver of a method-style call (``x.ravel()``), or the
        first argument of the function-style spelling."""
        if isinstance(node.func, ast.Attribute):
            root = node.func.value
            namespace = (isinstance(root, ast.Name)
                         and root.id in ARRAY_MODULES)
            if not namespace:
                return self.eval(root)
        if node.args:
            return self.eval(node.args[0])
        return UNKNOWN


def _is_int_constant(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, int)
            and not isinstance(node.value, bool)) \
        or (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, int))


def _is_none_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _int_value(node: ast.AST) -> int:
    """Plain value of a (possibly negated) integer constant."""
    if isinstance(node, ast.UnaryOp):
        return -node.operand.value
    return node.value


# ----------------------------------------------------------------------
# shared rule plumbing


def interpreter_for(index: ProjectIndex, config, record
                    ) -> ShapeInterpreter:
    """Memoized per-scope interpreter (cached on the FunctionScope)."""
    scope = index.scope(record)
    interp = getattr(scope, "_shape_interpreter", None)
    if interp is None:
        interp = ShapeInterpreter(
            scope.defuse, record.module.matches(config.seed_globs))
        scope._shape_interpreter = interp
    return interp


def _scoped_nodes(index: ProjectIndex, module: ModuleInfo):
    """(record, node) pairs covering the module exactly once: each
    node paired with its innermost enclosing scope."""
    for node in ast.walk(module.tree):
        record = index.enclosing_function(module, node)
        yield record, node


def _shape_modules(index: ProjectIndex, config):
    for module in index.modules:
        if module.matches(config.shape_globs):
            yield module


# ----------------------------------------------------------------------
# SHP001 — batch-axis loss via row-contracting ops


def rule_shp001(index: ProjectIndex, config, emit) -> None:
    for module in _shape_modules(index, config):
        for record, node in _scoped_nodes(index, module):
            interp = interpreter_for(index, config, record)
            if isinstance(node, ast.BinOp) \
                    and isinstance(node.op, ast.MatMult):
                for side in (node.left, node.right):
                    if interp.eval(side).batch_led:
                        emit("SHP001", module, node.lineno,
                             "matrix product (@) consumes a batch-led "
                             "operand: the B axis enters a BLAS "
                             "contraction whose rounding depends on "
                             "the rows in flight",
                             "accumulate element-wise, keeping B in "
                             "every intermediate")
                        break
                continue
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            terminal = chain[-1] if chain else ""
            if terminal in _ROW_CONTRACTING:
                for position, argument in enumerate(node.args):
                    value = interp.eval(argument)
                    if value.batch_led:
                        emit("SHP001", module, node.lineno,
                             f"{terminal}(...) consumes operand "
                             f"{position} with inferred shape "
                             f"{_render(value)}: the batch axis B is "
                             "contracted or reblocked, so per-row "
                             "results change with the batch width",
                             "use a batch-preserving einsum (keep the "
                             "b subscript in the output)")
                        break
            elif terminal == "einsum":
                _shp001_einsum(module, node, interp, emit)
            elif terminal in _AXIS_REDUCERS:
                axis = None
                for keyword in node.keywords:
                    if keyword.arg == "axis" \
                            and isinstance(keyword.value, ast.Constant):
                        axis = keyword.value.value
                if axis == 0 and node.args \
                        and interp.eval(node.args[0]).batch_led:
                    emit("SHP001", module, node.lineno,
                         f"{terminal}(axis=0) collapses the batch "
                         "axis of a B-led operand: downstream values "
                         "lose their per-row identity",
                         "reduce along the state axis or keep per-row "
                         "partials")


def _shp001_einsum(module, node: ast.Call, interp, emit) -> None:
    if not node.args or not isinstance(node.args[0], ast.Constant) \
            or not isinstance(node.args[0].value, str):
        return
    spec = node.args[0].value.replace(" ", "")
    if "->" not in spec or "..." in spec:
        return
    inputs, output = spec.split("->", 1)
    operands = inputs.split(",")
    if len(operands) != len(node.args) - 1:
        return
    for position, (subscripts, argument) in enumerate(
            zip(operands, node.args[1:])):
        if len(subscripts) < 2 or subscripts[0] in output:
            continue
        value = interp.eval(argument)
        if value.batch_led:
            emit("SHP001", module, node.lineno,
                 f"einsum({spec!r}) contracts the leading subscript "
                 f"of operand {position}, whose inferred shape "
                 f"{_render(value)} is batch-led: B is summed away",
                 "keep the batch subscript in the output spec")


# ----------------------------------------------------------------------
# SHP002 — silent broadcasts misaligning the batch axis


def rule_shp002(index: ProjectIndex, config, emit) -> None:
    for module in _shape_modules(index, config):
        for record, node in _scoped_nodes(index, module):
            if not isinstance(node, ast.BinOp) \
                    or not isinstance(node.op, _ARITH_BINOPS):
                continue
            interp = interpreter_for(index, config, record)
            left = interp.eval(node.left)
            right = interp.eval(node.right)
            _, mismatch = broadcast(left, right)
            if mismatch is not None and "B" in mismatch:
                other = mismatch[0] if mismatch[1] == "B" else mismatch[1]
                emit("SHP002", module, node.lineno,
                     f"broadcast pairs the batch axis B with axis "
                     f"{other!r} ({_render(left)} vs {_render(right)}): "
                     "rows silently combine across simulations "
                     "whenever the two lengths happen to match",
                     "insert an explicit [:, None] (or align shapes) "
                     "so B only ever broadcasts against itself")


# ----------------------------------------------------------------------
# SHP003 — narrow dtypes reaching state/accumulator arithmetic


def rule_shp003(index: ProjectIndex, config, emit) -> None:
    for module in _shape_modules(index, config):
        records = [r for r in index.functions() if r.module is module]
        records.append(module.functions[ProjectIndex.MODULE_FUNCTION])
        for record in records:
            interp = interpreter_for(index, config, record)
            defuse = index.scope(record).defuse
            for definition in defuse.definitions:
                value = defuse.value_of.get(definition)
                if value is None or not isinstance(value, ast.AST):
                    continue
                dtype = interp.value_at(definition).dtype
                if dtype not in _NARROW_DTYPES:
                    continue
                for use in defuse.uses_of.get(definition, ()):
                    if _feeds_state_arithmetic(module, use):
                        emit("SHP003", module, use.lineno,
                             f"{definition.name!r} carries inferred "
                             f"dtype {dtype} (bound on line "
                             f"{definition.lineno}) into a state/"
                             "accumulator arithmetic path: the "
                             "downcast truncates solver state",
                             "keep state float64; narrow only at the "
                             "output boundary")
                        break


def _feeds_state_arithmetic(module: ModuleInfo, use: ast.Name) -> bool:
    previous: ast.AST = use
    for ancestor in module.ancestors(use):
        if isinstance(ancestor, (ast.BinOp, ast.AugAssign)):
            return True
        if isinstance(ancestor, ast.Assign):
            # stored into an element of an existing array
            return any(isinstance(target, ast.Subscript)
                       for target in ancestor.targets) \
                and previous is ancestor.value
        if isinstance(ancestor, ast.stmt):
            return False
        previous = ancestor
    return False


# ----------------------------------------------------------------------
# SHP004 — shape-unstable branches


def rule_shp004(index: ProjectIndex, config, emit) -> None:
    for module in _shape_modules(index, config):
        reported: set[tuple[str, frozenset[int]]] = set()
        for record, node in _scoped_nodes(index, module):
            if not isinstance(node, ast.Name) \
                    or not isinstance(node.ctx, ast.Load):
                continue
            interp = interpreter_for(index, config, record)
            reaching = interp.defuse.reaching_definitions(node)
            if len(reaching) < 2:
                continue
            shapes = [interp.value_at(d).shape for d in reaching]
            known = [s for s in shapes if s is not None]
            if len(known) < 2:
                continue
            ranks = {len(s) for s in known}
            leads = {s[0] for s in known if s and s[0] in _SYMBOLS}
            unstable = len(ranks) > 1 or len(leads) > 1
            if not unstable:
                continue
            key = (node.id,
                   frozenset(d.lineno for d in reaching))
            if key in reported:
                continue
            reported.add(key)
            rendered = ", ".join(sorted(
                {_render(AbstractValue(s)) for s in known}))
            lines = ", ".join(str(d.lineno) for d in sorted(
                reaching, key=lambda d: d.lineno))
            emit("SHP004", module, node.lineno,
                 f"{node.id!r} is shape-unstable at this use: "
                 f"definitions on lines {lines} reach it with "
                 f"conflicting symbolic shapes ({rendered})",
                 "normalize the shape on every branch before the "
                 "value is consumed")


# ----------------------------------------------------------------------
# SHP005 — reshape/ravel folding B into other axes


def rule_shp005(index: ProjectIndex, config, emit) -> None:
    for module in _shape_modules(index, config):
        for record, node in _scoped_nodes(index, module):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            terminal = chain[-1] if chain else ""
            if terminal not in ("ravel", "flatten", "reshape"):
                continue
            interp = interpreter_for(index, config, record)
            base = interp._method_base(node)
            if base.shape is None or len(base.shape) < 2 \
                    or "B" not in base.shape:
                continue
            if terminal == "reshape" and _reshape_keeps_batch(node,
                                                              interp):
                continue
            emit("SHP005", module, node.lineno,
                 f"{terminal}(...) flattens an array of inferred "
                 f"shape {_render(base)}: the batch axis B is folded "
                 "into other axes, so row boundaries are lost",
                 "reshape with an explicit leading batch dimension "
                 "(B, -1) or keep the array batched")


def _reshape_keeps_batch(node: ast.Call, interp) -> bool:
    """True when the first target dimension is recognizably B."""
    arguments = node.args
    if isinstance(node.func, ast.Attribute) \
            and isinstance(node.func.value, ast.Name) \
            and node.func.value.id in ARRAY_MODULES:
        arguments = node.args[1:]  # function-style: skip the array
    if not arguments:
        return False
    first = arguments[0]
    if isinstance(first, (ast.Tuple, ast.List)) and first.elts:
        first = first.elts[0]
    return interp._dim(first) == "B" or (
        isinstance(first, ast.Subscript)
        and isinstance(first.value, ast.Attribute)
        and first.value.attr == "shape"
        and isinstance(first.slice, ast.Constant)
        and first.slice.value == 0)


# ----------------------------------------------------------------------
# SHP006 — dtype-unstable out= targets


def rule_shp006(index: ProjectIndex, config, emit) -> None:
    for module in _shape_modules(index, config):
        for record, node in _scoped_nodes(index, module):
            if not isinstance(node, ast.Call):
                continue
            out_expr = None
            for keyword in node.keywords:
                if keyword.arg == "out":
                    out_expr = keyword.value
            if out_expr is None:
                continue
            interp = interpreter_for(index, config, record)
            out_dtype = interp.eval(out_expr).dtype
            if out_dtype is None:
                continue
            input_dtypes = [interp.eval(arg).dtype for arg in node.args]
            widest = max((_DTYPE_RANK.get(d, -1)
                          for d in input_dtypes if d is not None),
                         default=-1)
            if widest > _DTYPE_RANK.get(out_dtype, -1):
                chain = attr_chain(node.func)
                emit("SHP006", module, node.lineno,
                     f"out= target holds dtype {out_dtype} but "
                     f"{chain[-1] if chain else 'the call'}(...) "
                     "produces a wider dtype: every store silently "
                     "downcasts, and the truncation point moves with "
                     "the expression",
                     "allocate the out= array with the promoted dtype")


def _render(value: AbstractValue) -> str:
    if value.shape is None:
        return "(?)"
    return "(" + ", ".join(value.shape) + ")"


#: Rule id -> implementation, in execution order.
SHP_CHECKS = {
    "SHP001": rule_shp001,
    "SHP002": rule_shp002,
    "SHP003": rule_shp003,
    "SHP004": rule_shp004,
    "SHP005": rule_shp005,
    "SHP006": rule_shp006,
}
