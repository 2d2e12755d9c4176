"""AST-based dataflow engine powering the deep static-analysis pass.

The shallow linters in :mod:`repro.lint.kernel_rules` pattern-match on
single AST nodes; that is enough to spot a Python loop over the batch
axis, but not to prove dataflow properties such as "no wall-clock value
reaches a checkpoint fingerprint" or "this status code is handled
somewhere". This module provides the four classic ingredients the deep
rules (``DET0xx`` / ``CON0xx``, see :mod:`repro.lint.deep_rules` and
:mod:`repro.lint.contract_rules`) are built on:

* **Control-flow graphs** (:class:`ControlFlowGraph`) — per-function
  basic blocks with branch/loop/exception edges, built by
  :func:`build_cfg`.
* **Def-use chains** (:class:`DefUseChains`) — reaching definitions
  computed by a worklist pass over the CFG, exposing def→use edges,
  use→reaching-def queries and a transitive taint closure over local
  assignment flows.
* **Alias sets** (:class:`AliasSets`) — flow-insensitive may-alias
  union-find over simple name bindings, NumPy view producers and basic
  slices.
* **A project call graph** (:class:`ProjectIndex`) — function records
  for every indexed module with name-based (over-approximate) call
  edges, including calls through decorators, ``functools.partial``
  bindings and bare callable references, plus BFS reachability.

Everything is best-effort and over-approximate in the direction that
keeps rules sound-for-reporting: unknown constructs widen (more edges,
more aliases) rather than silently dropping facts. Analysis never
executes the target code.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import LintError

_PRAGMA_RE = re.compile(r"#\s*lint:\s*skip=([A-Z0-9,\s]+?)(?:\s*(?:--|—).*)?$")


# ======================================================================
# waivers


@dataclass(frozen=True)
class Waiver:
    """One ``# lint: skip=RULE[,RULE...]`` pragma comment.

    The pragma suppresses findings on its own line and on the line
    directly below it (a pragma on its own line covers the statement
    it precedes).
    """

    lineno: int
    rules: tuple[str, ...]

    @property
    def covered_lines(self) -> tuple[int, int]:
        return (self.lineno, self.lineno + 1)


def parse_waivers(source: str) -> list[Waiver]:
    """Extract waiver pragmas from real comment tokens only.

    Uses :mod:`tokenize` so pragma *examples* inside docstrings (the
    shallow linter's own documentation quotes one) are not mistaken for
    live waivers. Falls back to a line-based scan when the source does
    not tokenize (the AST parse will report the real error).
    """
    waivers: list[Waiver] = []
    try:
        tokens = list(tokenize.generate_tokens(
            io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _PRAGMA_RE.search(line)
            if match is not None:
                waivers.append(_waiver_from_match(lineno, match))
        return waivers
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(token.string)
        if match is not None:
            waivers.append(_waiver_from_match(token.start[0], match))
    return waivers


def _waiver_from_match(lineno: int, match: re.Match) -> Waiver:
    rules = tuple(sorted({rule.strip()
                          for rule in match.group(1).split(",")
                          if rule.strip()}))
    return Waiver(lineno, rules)


class WaiverIndex:
    """Lookup + consumption tracking over one file's waivers.

    :meth:`suppresses` both answers the query and records the waiver as
    *used*; :meth:`stale` then lists the (line, rule) pairs that never
    suppressed anything — the raw material of ``LNT000`` (shallow) and
    ``CON004`` (deep) unused-suppression findings. Each analyzer passes
    a ``known`` predicate so it only reports staleness for rule IDs in
    its own families.
    """

    def __init__(self, waivers: list[Waiver]) -> None:
        self.waivers = list(waivers)
        self._by_line: dict[int, list[tuple[Waiver, str]]] = {}
        self.used: set[tuple[int, str]] = set()
        for waiver in self.waivers:
            for line in waiver.covered_lines:
                for rule in waiver.rules:
                    self._by_line.setdefault(line, []).append((waiver, rule))

    @classmethod
    def from_source(cls, source: str) -> "WaiverIndex":
        return cls(parse_waivers(source))

    def suppresses(self, rule_id: str, lineno: int) -> bool:
        for waiver, rule in self._by_line.get(lineno, ()):
            if rule == rule_id:
                self.used.add((waiver.lineno, rule))
                return True
        return False

    def stale(self, known) -> list[tuple[int, str]]:
        """(pragma line, rule) pairs that suppressed nothing.

        ``known`` is a predicate over rule IDs restricting the check to
        the calling analyzer's rule families.
        """
        entries = []
        for waiver in self.waivers:
            for rule in waiver.rules:
                if known(rule) and (waiver.lineno, rule) not in self.used:
                    entries.append((waiver.lineno, rule))
        return entries


# ======================================================================
# control-flow graphs


@dataclass
class CFGElement:
    """One analyzable unit inside a basic block.

    ``kind`` tells the dataflow pass which fields of ``node`` to read:

    * ``"stmt"`` — a whole simple statement.
    * ``"test"`` — the condition expression of an ``if``/``while``.
    * ``"for"`` — a ``for`` header: uses its ``iter``, defines its
      ``target``.
    * ``"with"`` — one ``with`` item: uses the context expression,
      defines the optional ``as`` names.
    * ``"except"`` — an except handler: uses the exception expression,
      defines the ``as`` name.
    * ``"match"`` — a ``match`` subject or case pattern.
    """

    node: ast.AST
    kind: str = "stmt"


@dataclass
class BasicBlock:
    """A straight-line run of CFG elements."""

    index: int
    elements: list[CFGElement] = field(default_factory=list)
    successors: set[int] = field(default_factory=set)
    predecessors: set[int] = field(default_factory=set)


class ControlFlowGraph:
    """Per-function CFG with a unique entry and exit block."""

    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = []
        self.entry = self._new_block().index
        self.exit = self._new_block().index

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    def add_edge(self, src: int, dst: int) -> None:
        self.blocks[src].successors.add(dst)
        self.blocks[dst].predecessors.add(src)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def elements(self):
        for block in self.blocks:
            yield from block.elements


class _CFGBuilder:
    """Builds a :class:`ControlFlowGraph` from a statement list.

    ``break``/``continue`` resolve against a loop stack; ``return`` and
    ``raise`` edge to the exit block. ``try`` conservatively assumes any
    statement in the body may transfer to every handler.
    """

    def __init__(self) -> None:
        self.cfg = ControlFlowGraph()
        self.loop_stack: list[tuple[int, int]] = []  # (head, after)

    def build(self, body: list[ast.stmt]) -> ControlFlowGraph:
        first = self.cfg._new_block()
        self.cfg.add_edge(self.cfg.entry, first.index)
        last = self._sequence(body, first.index)
        if last is not None:
            self.cfg.add_edge(last, self.cfg.exit)
        return self.cfg

    # -- helpers -------------------------------------------------------

    def _fresh(self, *predecessors: int) -> int:
        block = self.cfg._new_block()
        for pred in predecessors:
            if pred is not None:
                self.cfg.add_edge(pred, block.index)
        return block.index

    def _sequence(self, body: list[ast.stmt],
                  current: int | None) -> int | None:
        """Thread a statement list; returns the live trailing block."""
        for stmt in body:
            if current is None:
                # Unreachable code still gets analyzed (a dead block).
                current = self._fresh()
            current = self._statement(stmt, current)
        return current

    def _statement(self, stmt: ast.stmt, current: int) -> int | None:
        handler = getattr(self, f"_stmt_{type(stmt).__name__}", None)
        if handler is not None:
            return handler(stmt, current)
        self.cfg.blocks[current].elements.append(CFGElement(stmt))
        return current

    # -- compound statements -------------------------------------------

    def _stmt_If(self, stmt: ast.If, current: int) -> int | None:
        self.cfg.blocks[current].elements.append(
            CFGElement(stmt.test, "test"))
        then_entry = self._fresh(current)
        then_exit = self._sequence(stmt.body, then_entry)
        if stmt.orelse:
            else_entry = self._fresh(current)
            else_exit = self._sequence(stmt.orelse, else_entry)
        else:
            else_exit = current
        if then_exit is None and else_exit is None:
            return None
        join = self._fresh(then_exit, else_exit)
        return join

    def _loop(self, stmt, current: int, header: list[CFGElement]
              ) -> int | None:
        head = self._fresh(current)
        self.cfg.blocks[head].elements.extend(header)
        after = self.cfg._new_block().index
        self.cfg.add_edge(head, after)  # zero-iteration path
        self.loop_stack.append((head, after))
        body_entry = self._fresh(head)
        body_exit = self._sequence(stmt.body, body_entry)
        if body_exit is not None:
            self.cfg.add_edge(body_exit, head)  # back edge
        self.loop_stack.pop()
        if stmt.orelse:
            else_entry = self._fresh(head)
            else_exit = self._sequence(stmt.orelse, else_entry)
            if else_exit is not None:
                self.cfg.add_edge(else_exit, after)
        return after

    def _stmt_While(self, stmt: ast.While, current: int) -> int | None:
        return self._loop(stmt, current, [CFGElement(stmt.test, "test")])

    def _stmt_For(self, stmt: ast.For, current: int) -> int | None:
        return self._loop(stmt, current, [CFGElement(stmt, "for")])

    _stmt_AsyncFor = _stmt_For

    def _stmt_With(self, stmt: ast.With, current: int) -> int | None:
        for item in stmt.items:
            self.cfg.blocks[current].elements.append(
                CFGElement(item, "with"))
        return self._sequence(stmt.body, current)

    _stmt_AsyncWith = _stmt_With

    def _stmt_Try(self, stmt, current: int) -> int | None:
        body_entry = self._fresh(current)
        body_exit = self._sequence(stmt.body, body_entry)
        exits: list[int] = []
        if body_exit is not None:
            if stmt.orelse:
                else_exit = self._sequence(stmt.orelse,
                                           self._fresh(body_exit))
                if else_exit is not None:
                    exits.append(else_exit)
            else:
                exits.append(body_exit)
        for handler in stmt.handlers:
            # Any statement in the body may raise: edge from the body's
            # entry region to the handler (conservative).
            handler_entry = self._fresh(body_entry)
            if body_exit is not None:
                self.cfg.add_edge(body_exit, handler_entry)
            self.cfg.blocks[handler_entry].elements.append(
                CFGElement(handler, "except"))
            handler_exit = self._sequence(handler.body, handler_entry)
            if handler_exit is not None:
                exits.append(handler_exit)
        if stmt.finalbody:
            final_entry = self._fresh(*exits) if exits else self._fresh()
            for exit_block in exits or []:
                pass  # edges added by _fresh
            final_exit = self._sequence(stmt.finalbody, final_entry)
            return final_exit
        if not exits:
            return None
        join = self._fresh(*exits)
        return join

    _stmt_TryStar = _stmt_Try

    def _stmt_Match(self, stmt, current: int) -> int | None:
        self.cfg.blocks[current].elements.append(
            CFGElement(stmt.subject, "test"))
        exits: list[int] = []
        for case in stmt.cases:
            case_entry = self._fresh(current)
            self.cfg.blocks[case_entry].elements.append(
                CFGElement(case, "match"))
            case_exit = self._sequence(case.body, case_entry)
            if case_exit is not None:
                exits.append(case_exit)
        exits.append(current)  # no case may match
        join = self._fresh(*exits)
        return join

    # -- jumps ---------------------------------------------------------

    def _stmt_Return(self, stmt: ast.Return, current: int) -> None:
        self.cfg.blocks[current].elements.append(CFGElement(stmt))
        self.cfg.add_edge(current, self.cfg.exit)
        return None

    def _stmt_Raise(self, stmt: ast.Raise, current: int) -> None:
        self.cfg.blocks[current].elements.append(CFGElement(stmt))
        self.cfg.add_edge(current, self.cfg.exit)
        return None

    def _stmt_Break(self, stmt: ast.Break, current: int) -> None:
        self.cfg.blocks[current].elements.append(CFGElement(stmt))
        if self.loop_stack:
            self.cfg.add_edge(current, self.loop_stack[-1][1])
        else:
            self.cfg.add_edge(current, self.cfg.exit)
        return None

    def _stmt_Continue(self, stmt: ast.Continue, current: int) -> None:
        self.cfg.blocks[current].elements.append(CFGElement(stmt))
        if self.loop_stack:
            self.cfg.add_edge(current, self.loop_stack[-1][0])
        else:
            self.cfg.add_edge(current, self.cfg.exit)
        return None


def build_cfg(function: ast.AST) -> ControlFlowGraph:
    """CFG of a function definition (or any object with a ``body``)."""
    body = getattr(function, "body", None)
    if not isinstance(body, list):
        raise LintError(f"cannot build a CFG for {type(function).__name__}")
    return _CFGBuilder().build(body)


# ======================================================================
# def-use chains


@dataclass(frozen=True)
class Definition:
    """One binding of a local name."""

    name: str
    lineno: int
    col: int
    kind: str  # 'assign' | 'aug' | 'for' | 'param' | 'with' | ...
    value_id: int = -1  # id() of the RHS expression node, -1 if none

    def __repr__(self) -> str:  # compact for test failure output
        return f"<def {self.name}@{self.lineno} {self.kind}>"


def _target_names(target: ast.AST) -> list[ast.AST]:
    """Name nodes bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return [target]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[ast.AST] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []  # attribute / subscript stores bind no local name


def _load_names(node: ast.AST | None) -> list[ast.Name]:
    """Every Name in Load context under ``node`` (nested defs skipped)."""
    if node is None:
        return []
    loads: list[ast.Name] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)) and current is not node:
            continue  # nested scopes keep their own chains
        if isinstance(current, ast.Name) and \
                isinstance(current.ctx, ast.Load):
            loads.append(current)
        stack.extend(ast.iter_child_nodes(current))
    return loads


class DefUseChains:
    """Reaching-definition chains of one function.

    Attributes
    ----------
    definitions:
        Every :class:`Definition` in source order.
    uses_of:
        Definition -> list of ``ast.Name`` load sites it reaches.
    reaching:
        ``id(ast.Name)`` -> definitions that may flow into that use.
    flows:
        Definition -> definitions whose binding expression consumed one
        of its uses (the local assignment-flow relation the taint
        closure walks).
    value_of:
        Definition -> its RHS expression node (``None`` for parameters,
        loop targets and other value-less bindings).
    """

    def __init__(self, function: ast.AST,
                 cfg: ControlFlowGraph | None = None) -> None:
        self.function = function
        self.cfg = cfg if cfg is not None else build_cfg(function)
        self.definitions: list[Definition] = []
        self.uses_of: dict[Definition, list[ast.Name]] = {}
        self.reaching: dict[int, list[Definition]] = {}
        self.flows: dict[Definition, set[Definition]] = {}
        self.value_of: dict[Definition, ast.AST | None] = {}
        self._analyze()

    # -- per-element fact extraction -----------------------------------

    def _element_facts(self, element: CFGElement
                       ) -> tuple[list[ast.Name], list[Definition]]:
        """(uses, defs) of one CFG element, in evaluation order."""
        node, kind = element.node, element.kind
        uses: list[ast.Name] = []
        defs: list[Definition] = []

        def bind(target: ast.AST, def_kind: str,
                 value: ast.AST | None) -> None:
            for name_node in _target_names(target):
                definition = Definition(
                    name_node.id, getattr(name_node, "lineno", 0),
                    getattr(name_node, "col_offset", 0), def_kind,
                    id(value) if value is not None else -1)
                defs.append(definition)
                self.value_of[definition] = value

        if kind == "test":
            uses = _load_names(node)
        elif kind == "for":
            uses = _load_names(node.iter)
            bind(node.target, "for", node.iter)
        elif kind == "with":
            uses = _load_names(node.context_expr)
            if node.optional_vars is not None:
                bind(node.optional_vars, "with", node.context_expr)
        elif kind == "except":
            uses = _load_names(node.type)
            if node.name:
                definition = Definition(node.name, node.lineno,
                                        node.col_offset, "except")
                defs.append(definition)
                self.value_of[definition] = None
        elif kind == "match":
            uses = _load_names(getattr(node, "guard", None))
            for capture in ast.walk(node):
                name = getattr(capture, "name", None)
                if isinstance(capture, (ast.MatchAs, ast.MatchStar)) \
                        and isinstance(name, str):
                    definition = Definition(name, capture.lineno,
                                            capture.col_offset, "match")
                    defs.append(definition)
                    self.value_of[definition] = None
        elif isinstance(node, ast.Assign):
            uses = _load_names(node.value)
            for target in node.targets:
                bind(target, "assign", node.value)
                uses.extend(_load_names_of_store_target(target))
        elif isinstance(node, ast.AnnAssign):
            uses = _load_names(node.value)
            if node.value is not None:
                bind(node.target, "assign", node.value)
        elif isinstance(node, ast.AugAssign):
            # x += e reads x and e, then rebinds x. The target node
            # itself records the read: it lives in the real tree, so
            # parent-map queries (rule sink checks) work on it.
            uses = _load_names(node.value)
            if isinstance(node.target, ast.Name):
                uses.append(node.target)
                bind(node.target, "aug", node)
            else:
                uses.extend(_load_names_of_store_target(node.target))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                uses.extend(_load_names(decorator))
            for default in (node.args.defaults + node.args.kw_defaults):
                uses.extend(_load_names(default))
            definition = Definition(node.name, node.lineno,
                                    node.col_offset, "funcdef")
            defs.append(definition)
            self.value_of[definition] = node
        elif isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                uses.extend(_load_names(decorator))
            for base in node.bases:
                uses.extend(_load_names(base))
            definition = Definition(node.name, node.lineno,
                                    node.col_offset, "classdef")
            defs.append(definition)
            self.value_of[definition] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = (alias.asname or alias.name).split(".")[0]
                definition = Definition(local, node.lineno,
                                        node.col_offset, "import")
                defs.append(definition)
                self.value_of[definition] = None
        elif isinstance(node, ast.stmt):
            uses = _load_names(node)
        else:  # bare expression element
            uses = _load_names(node)
        return uses, defs

    # -- the worklist pass ---------------------------------------------

    def _parameters(self) -> list[Definition]:
        args = getattr(self.function, "args", None)
        if args is None:
            return []
        params = []
        every = (list(args.posonlyargs) + list(args.args)
                 + ([args.vararg] if args.vararg else [])
                 + list(args.kwonlyargs)
                 + ([args.kwarg] if args.kwarg else []))
        for arg in every:
            definition = Definition(arg.arg, arg.lineno, arg.col_offset,
                                    "param")
            params.append(definition)
            self.value_of[definition] = None
        return params

    def _analyze(self) -> None:
        cfg = self.cfg
        # Per-block facts, computed once.
        block_facts = [[self._element_facts(element)
                        for element in block.elements]
                       for block in cfg.blocks]
        for facts in block_facts:
            for _, defs in facts:
                self.definitions.extend(defs)
        params = self._parameters()
        self.definitions = params + self.definitions
        for definition in self.definitions:
            self.uses_of[definition] = []
            self.flows[definition] = set()

        def transfer(in_state: dict[str, frozenset[Definition]],
                     facts, record: bool):
            state = dict(in_state)
            for uses, defs in facts:
                if record:
                    for use in uses:
                        reaching = state.get(use.id)
                        if reaching:
                            self.reaching[id(use)] = list(reaching)
                            for definition in reaching:
                                self.uses_of[definition].append(use)
                                for new_def in defs:
                                    self.flows[definition].add(new_def)
                for definition in defs:
                    state[definition.name] = frozenset([definition])
            return state

        entry_state = {p.name: frozenset([p]) for p in params}
        in_states: list[dict | None] = [None] * cfg.n_blocks
        in_states[cfg.entry] = entry_state
        # Worklist to a fixpoint over may-reach states.
        work = [cfg.entry]
        out_states: list[dict | None] = [None] * cfg.n_blocks
        iterations = 0
        limit = 50 * (cfg.n_blocks + 1)
        while work and iterations < limit:
            iterations += 1
            index = work.pop()
            in_state = in_states[index] or {}
            out_state = transfer(in_state, block_facts[index],
                                 record=False)
            if out_states[index] == out_state:
                continue
            out_states[index] = out_state
            for successor in cfg.blocks[index].successors:
                merged = dict(in_states[successor] or {})
                changed = in_states[successor] is None
                for name, defs in out_state.items():
                    combined = merged.get(name, frozenset()) | defs
                    if combined != merged.get(name):
                        merged[name] = combined
                        changed = True
                if changed:
                    in_states[successor] = merged
                    work.append(successor)
        # Recording pass with the converged in-states.
        for index, block in enumerate(cfg.blocks):
            transfer(in_states[index] or {}, block_facts[index],
                     record=True)

    # -- queries -------------------------------------------------------

    def definitions_of(self, name: str) -> list[Definition]:
        return [d for d in self.definitions if d.name == name]

    def reaching_definitions(self, use: ast.Name) -> list[Definition]:
        return self.reaching.get(id(use), [])

    def tainted_closure(self, seeds) -> set[Definition]:
        """Definitions transitively derived from the seed definitions
        through local assignment flows (``b = f(a)`` taints ``b``)."""
        tainted = set(seeds)
        frontier = list(seeds)
        while frontier:
            definition = frontier.pop()
            for derived in self.flows.get(definition, ()):
                if derived not in tainted:
                    tainted.add(derived)
                    frontier.append(derived)
        return tainted


def _load_names_of_store_target(target: ast.AST) -> list[ast.Name]:
    """Loads implied by a non-Name store target (``a[i] = ...`` reads
    ``a`` and ``i``; ``a.x = ...`` reads ``a``)."""
    loads: list[ast.Name] = []
    if isinstance(target, ast.Subscript):
        loads.extend(_load_names(target.value))
        loads.extend(_load_names(target.slice))
    elif isinstance(target, ast.Attribute):
        loads.extend(_load_names(target.value))
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            loads.extend(_load_names_of_store_target(element))
    return loads


# ======================================================================
# alias sets


#: Callees whose result shares memory with their array argument.
_VIEW_PRODUCERS = {"asarray", "ravel", "reshape", "view", "transpose",
                   "atleast_1d", "atleast_2d", "broadcast_to", "squeeze",
                   "swapaxes", "ascontiguousarray"}


#: Local names that spell "the array module" in analyzed code: every
#: rule that recognizes ``np.float32`` or ``np.reshape(x, ...)`` by its
#: root name reads this one tuple.
ARRAY_MODULES = ("np", "numpy")


def attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``['a', 'b', 'c']`` (best effort, [] if opaque)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    if isinstance(node, ast.Call):
        inner = attr_chain(node.func)
        return inner + parts[::-1] if inner else []
    return []


def is_basic_slice(index: ast.AST) -> bool:
    """True for view-returning (basic) indexing, False for fancy."""
    if isinstance(index, (ast.Slice, ast.Constant)):
        return True
    if isinstance(index, ast.Tuple):
        return all(is_basic_slice(element) for element in index.elts)
    if isinstance(index, ast.UnaryOp) \
            and isinstance(index.operand, ast.Constant):
        return True
    return False


class AliasSets:
    """Flow-insensitive may-alias sets over one function's local names.

    Union-find on simple bindings: ``a = b``, basic-slice views
    (``a = b[1:]``), attribute views (``a = b.T``) and NumPy view
    producers (``a = np.asarray(b)``) put both names in one set;
    copies (``.copy()``, ``np.array``) do not. ``may_alias`` also
    answers for arbitrary expressions by comparing their base names and
    falling back to textual equality.
    """

    def __init__(self, function: ast.AST) -> None:
        self._parent: dict[str, str] = {}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                source = self._alias_source(node.value)
                if source is not None:
                    self._union(node.targets[0].id, source)

    def _alias_source(self, value: ast.AST) -> str | None:
        if isinstance(value, ast.Name):
            return value.id
        if isinstance(value, ast.Subscript) \
                and isinstance(value.value, ast.Name) \
                and is_basic_slice(value.slice):
            return value.value.id
        if isinstance(value, ast.Attribute) and value.attr == "T" \
                and isinstance(value.value, ast.Name):
            return value.value.id
        if isinstance(value, ast.Call):
            chain = attr_chain(value.func)
            if chain and chain[-1] in _VIEW_PRODUCERS and value.args:
                base = value.args[0]
                if isinstance(base, ast.Name):
                    return base.id
        return None

    def _find(self, name: str) -> str:
        root = name
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        while self._parent.get(name, name) != root:
            self._parent[name], name = root, self._parent[name]
        return root

    def _union(self, a: str, b: str) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb

    @staticmethod
    def _base_name(expression: ast.AST) -> str | None:
        while isinstance(expression, (ast.Subscript, ast.Attribute)):
            expression = expression.value
        if isinstance(expression, ast.Name):
            return expression.id
        return None

    def may_alias(self, left: ast.AST, right: ast.AST) -> bool:
        try:
            if ast.unparse(left) == ast.unparse(right):
                return True
        except Exception:  # pragma: no cover - unparse is total on ast
            pass
        base_left = self._base_name(left)
        base_right = self._base_name(right)
        if base_left is None or base_right is None:
            return False
        return self._find(base_left) == self._find(base_right)


# ======================================================================
# project index + call graph


@dataclass
class FunctionRecord:
    """One function (or method) discovered in an indexed module."""

    qualname: str          # "<relpath>::<dotted qualname>"
    name: str
    module: "ModuleInfo"
    node: ast.AST
    lineno: int
    class_name: str | None = None


class ModuleInfo:
    """Parsed source + per-module derived facts for one file."""

    def __init__(self, path: Path, relpath: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.waivers = WaiverIndex.from_source(source)
        self.functions: dict[str, FunctionRecord] = {}
        self._parents: dict[int, ast.AST] | None = None
        self._docstrings: str | None = None

    def parent_map(self) -> dict[int, ast.AST]:
        """``id(node) -> parent`` over the whole module tree."""
        if self._parents is None:
            parents: dict[int, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[id(child)] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST):
        """Walk outwards from ``node`` to the module root."""
        parents = self.parent_map()
        current = parents.get(id(node))
        while current is not None:
            yield current
            current = parents.get(id(current))

    def docstring_corpus(self) -> str:
        """All docstrings of the module concatenated."""
        if self._docstrings is None:
            texts = []
            for node in ast.walk(self.tree):
                if isinstance(node, (ast.Module, ast.ClassDef,
                                     ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    doc = ast.get_docstring(node, clean=False)
                    if doc:
                        texts.append(doc)
            self._docstrings = "\n".join(texts)
        return self._docstrings

    def matches(self, patterns) -> bool:
        return any(fnmatch.fnmatch(self.relpath, pattern)
                   or fnmatch.fnmatch(self.path.name, pattern)
                   for pattern in patterns)


class FunctionScope:
    """Lazily computed per-function analyses (CFG, def-use, aliases)."""

    def __init__(self, record: FunctionRecord) -> None:
        self.record = record
        self._cfg: ControlFlowGraph | None = None
        self._defuse: DefUseChains | None = None
        self._aliases: AliasSets | None = None

    @property
    def cfg(self) -> ControlFlowGraph:
        if self._cfg is None:
            self._cfg = build_cfg(self.record.node)
        return self._cfg

    @property
    def defuse(self) -> DefUseChains:
        if self._defuse is None:
            self._defuse = DefUseChains(self.record.node, self.cfg)
        return self._defuse

    @property
    def aliases(self) -> AliasSets:
        if self._aliases is None:
            self._aliases = AliasSets(self.record.node)
        return self._aliases


class ProjectIndex:
    """Parsed view of a file set with a name-resolved call graph.

    Call edges are *over-approximate*: a call (or a bare reference —
    callbacks, decorators, ``functools.partial`` bindings) to a name
    links to every indexed function of that simple name. Module-level
    statements are modeled as a pseudo-function ``<module>`` per file.
    """

    MODULE_FUNCTION = "<module>"

    def __init__(self, files: list[Path], root: Path | None = None) -> None:
        if not files:
            raise LintError("no files to analyze")
        self.root = root
        self.modules: list[ModuleInfo] = []
        self.by_simple_name: dict[str, list[FunctionRecord]] = {}
        self._scopes: dict[str, FunctionScope] = {}
        for path in files:
            self._index_file(Path(path))
        self.edges: dict[str, set[str]] = {}
        for module in self.modules:
            self._link_module(module)

    # -- construction --------------------------------------------------

    def _relpath(self, path: Path) -> str:
        if self.root is not None:
            try:
                return path.resolve().relative_to(
                    Path(self.root).resolve()).as_posix()
            except ValueError:
                pass
        return path.name

    def _index_file(self, path: Path) -> None:
        try:
            source = path.read_text()
        except OSError as error:
            raise LintError(f"cannot read {path}: {error}") from error
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            raise LintError(f"cannot parse {path}: {error}") from error
        module = ModuleInfo(path, self._relpath(path), source, tree)
        self.modules.append(module)
        self._collect_functions(module)

    def _collect_functions(self, module: ModuleInfo) -> None:
        def visit(node: ast.AST, prefix: str, class_name: str | None):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    dotted = f"{prefix}{child.name}"
                    record = FunctionRecord(
                        f"{module.relpath}::{dotted}", child.name,
                        module, child, child.lineno, class_name)
                    module.functions[dotted] = record
                    self.by_simple_name.setdefault(child.name,
                                                   []).append(record)
                    visit(child, f"{dotted}.", class_name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", child.name)
                else:
                    visit(child, prefix, class_name)

        visit(module.tree, "", None)
        # The module-level pseudo-function captures import-time code.
        record = FunctionRecord(
            f"{module.relpath}::{self.MODULE_FUNCTION}",
            self.MODULE_FUNCTION, module, module.tree, 1, None)
        module.functions[self.MODULE_FUNCTION] = record

    def _link_module(self, module: ModuleInfo) -> None:
        known = self.by_simple_name
        for dotted, record in module.functions.items():
            edges = self.edges.setdefault(record.qualname, set())
            if record.name == self.MODULE_FUNCTION:
                nodes = self._module_level_nodes(module)
            else:
                nodes = list(ast.walk(record.node))
            for node in nodes:
                referenced: str | None = None
                if isinstance(node, ast.Call):
                    chain = attr_chain(node.func)
                    referenced = chain[-1] if chain else None
                elif isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    referenced = node.id
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Load):
                    referenced = node.attr
                if referenced is None or referenced == record.name:
                    continue
                for target in known.get(referenced, ()):
                    edges.add(target.qualname)
            # A function owns its nested definitions.
            prefix = f"{dotted}."
            for other in module.functions:
                if other.startswith(prefix) and "." not in \
                        other[len(prefix):]:
                    edges.add(module.functions[other].qualname)

    def _module_level_nodes(self, module: ModuleInfo) -> list[ast.AST]:
        """Nodes executed at import time (function bodies excluded)."""
        nodes: list[ast.AST] = []
        stack: list[ast.AST] = list(ast.iter_child_nodes(module.tree))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return nodes

    # -- queries -------------------------------------------------------

    def functions(self):
        for module in self.modules:
            for record in module.functions.values():
                if record.name != self.MODULE_FUNCTION:
                    yield record

    def module_records(self):
        for module in self.modules:
            yield module.functions[self.MODULE_FUNCTION]

    def scope(self, record: FunctionRecord) -> FunctionScope:
        scope = self._scopes.get(record.qualname)
        if scope is None:
            scope = FunctionScope(record)
            self._scopes[record.qualname] = scope
        return scope

    def reachable(self, roots) -> set[str]:
        """Qualnames reachable from the root qualnames (roots included)."""
        seen = set()
        frontier = [root for root in roots if root in self.edges]
        seen.update(frontier)
        while frontier:
            current = frontier.pop()
            for target in self.edges.get(current, ()):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def enclosing_function(self, module: ModuleInfo,
                           node: ast.AST) -> FunctionRecord:
        """Innermost indexed function containing ``node``."""
        chain = [node, *module.ancestors(node)]
        for candidate in chain:
            for record in module.functions.values():
                if record.node is candidate and \
                        record.name != self.MODULE_FUNCTION:
                    return record
        return module.functions[self.MODULE_FUNCTION]
