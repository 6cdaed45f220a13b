"""Family F5: interprocedural RNG stream-order contracts.

The collection engine's bit-identity contract (DESIGN.md, "Parallel
collection & determinism contract") holds only if every per-block RNG
stream sees the *same draws in the same order* for any worker count.
The syntactic D106 rule catches direct draw loops in the engine; this
family runs on the whole-program call graph and also catches the
violations hidden behind helper calls:

- F501 — an RNG draw reachable from a scenario seam
  (``perturb*``/``apply*`` in ``src/repro/sim/scenario.py``), written
  directly inside the seam or any number of calls below it.  The draw
  site is reported with the call chain as related spans.  The apply
  path must stay a pure function of the precompiled tables: randomness
  is allowed when a scenario is compiled (salts, hash-coin selection),
  never when it is applied.
- F502 — branch-divergent draw counts inside a kernel loop in
  ``src/repro/sim/engine.py``: an ``if`` whose branches perform
  different numbers of draws (directly or via calls into drawing
  helpers) makes the stream's call order data-dependent, which breaks
  replay across worker counts and resume boundaries.
- F503 — draws ordered by ``dict``/``set`` iteration in collection
  code: when a loop over an unordered (or insertion-ordered) view
  draws from an RNG, the stream order inherits the container's
  ordering; sort the keys first.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.astutil import call_name, dotted_name
from tools.reprolint.callgraph import CallGraph
from tools.reprolint.findings import Finding
from tools.reprolint.project import FunctionInfo, Project, local_bindings
from tools.reprolint.registry import ProjectRule, project_rule
from tools.reprolint.rules.determinism import _GENERATOR_DRAWS

_SCENARIO_PATH = "src/repro/sim/scenario.py"
_ENGINE_PATH = "src/repro/sim/engine.py"


def walk_own(node: ast.AST) -> Iterator[ast.AST]:
    """Walk *node* without descending into nested def/class bodies."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))


def own_calls(node: ast.AST) -> Iterator[ast.Call]:
    for child in walk_own(node):
        if isinstance(child, ast.Call):
            yield child


def is_draw_call(call: ast.Call) -> str | None:
    """The dotted name of *call* when it is an RNG draw, else ``None``."""
    name = call_name(call)
    if name is None:
        return None
    parts = name.split(".")
    receiver, _, method = name.rpartition(".")
    receiver = receiver.lower()
    if parts[0] == "random" and len(parts) > 1:
        return name  # stdlib random.*
    if len(parts) >= 3 and parts[-2] == "random" and parts[-1][:1].islower():
        # np.random legacy globals — the draws are all lowercase; the
        # capitalised names (SeedSequence, Generator, PCG64, ...) are
        # seed-derivation and bit-generator constructors, not draws.
        return name
    if method in _GENERATOR_DRAWS and (
        "rng" in receiver or "generator" in receiver
    ):
        return name  # Generator draw on an rng-ish receiver
    if name == "default_rng" or name.endswith(".default_rng"):
        return name  # constructing a stream implies drawing from it
    return None


def direct_draw_sites(
    func: FunctionInfo,
) -> list[tuple[int, int, str]]:
    """(line, col, callee) of every direct draw in *func*'s own body."""
    sites = []
    for call in own_calls(func.node):
        name = is_draw_call(call)
        if name is not None:
            sites.append((call.lineno, call.col_offset, name))
    return sites


def _is_stream_constructor(call: ast.Call) -> bool:
    """Whether *call* builds a fresh Generator from explicit seeds."""
    name = call_name(call)
    if name is None:
        return False
    last = name.rsplit(".", 1)[-1]
    return last == "default_rng" or last.endswith("_rng")


def _local_stream_receivers(func: FunctionInfo) -> set[str]:
    """Dotted receivers bound to a locally constructed stream.

    ``rng = default_rng(seq)`` or ``self._rng = block_rng(...)`` inside
    *func* makes later draws on that receiver order-independent from
    the caller's point of view — the stream's provenance is the
    explicit seed, not the call sequence.
    """
    receivers: set[str] = set()
    for node in walk_own(func.node):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if not (isinstance(value, ast.Call) and _is_stream_constructor(value)):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Name):
                receivers.add(target.id)
            elif isinstance(target, ast.Attribute):
                dotted = dotted_name(target)
                if dotted is not None:
                    receivers.add(dotted)
    return receivers


def passes_local_stream(call: ast.Call, local_streams: set[str]) -> bool:
    """Whether *call* hands a locally constructed stream to the callee.

    ``sample_uas(rng, ...)`` where ``rng`` was built by an explicit-seed
    factory in the same function draws on that private stream, not on a
    stream shared with the caller — the callee's draw order cannot
    desynchronise anything outside the call.
    """
    for arg in [*call.args, *[kw.value for kw in call.keywords]]:
        if isinstance(arg, ast.Name) and arg.id in local_streams:
            return True
        if isinstance(arg, ast.Attribute):
            dotted = dotted_name(arg)
            if dotted is not None and dotted in local_streams:
                return True
        if isinstance(arg, ast.Call) and _is_stream_constructor(arg):
            return True
    return False


def external_draw_sites(
    func: FunctionInfo,
) -> list[tuple[int, int, str]]:
    """Draws on *shared, sequential* streams only.

    Excludes stream construction itself (``default_rng``/``*_rng``
    factories) and draws on receivers the function constructed locally
    — those streams are keyed by explicit seeds, so their draw order
    cannot desynchronise any other stream.  F502/F503 reason about
    call-order divergence, which only matters for streams shared with
    the caller (parameters, attributes set elsewhere, globals).
    """
    local = _local_stream_receivers(func)
    sites = []
    for call in own_calls(func.node):
        name = is_draw_call(call)
        if name is None:
            continue
        last = name.rsplit(".", 1)[-1]
        if last == "default_rng" or _is_stream_constructor(call):
            continue
        receiver = name.rsplit(".", 1)[0] if "." in name else ""
        if receiver in local:
            continue
        sites.append((call.lineno, call.col_offset, name))
    return sites


def drawing_functions(project: Project) -> dict[str, list[tuple[int, int, str]]]:
    """qualname -> draw sites, for every function that draws directly.

    Uses the strict predicate (stream construction counts): consumed
    by F501, whose contract — the scenario apply path is RNG-free —
    bans even building a stream at apply time.
    """
    out: dict[str, list[tuple[int, int, str]]] = {}
    for func in project.functions.values():
        sites = direct_draw_sites(func)
        if sites:
            out[func.qualname] = sites
    return out


def shared_stream_drawing(project: Project) -> dict[str, list[tuple[int, int, str]]]:
    """qualname -> draw sites on shared streams (F502/F503 seed set)."""
    out: dict[str, list[tuple[int, int, str]]] = {}
    for func in project.functions.values():
        sites = external_draw_sites(func)
        if sites:
            out[func.qualname] = sites
    return out


def _seam_functions(project: Project) -> list[FunctionInfo]:
    seams = []
    for func in project.functions.values():
        if not (
            func.module.path == _SCENARIO_PATH
            or project.all_rules_everywhere
        ):
            continue
        stem = func.name.lstrip("_")
        if stem.startswith(("perturb", "apply")):
            seams.append(func)
    return sorted(seams, key=lambda f: (f.path, f.line))


@project_rule
class SeamReachableDraw(ProjectRule):
    rule_id = "F501"
    summary = "RNG draw reachable from a scenario apply/perturb seam"
    scope = ("src/repro",)

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Finding]:
        draws = drawing_functions(project)
        emitted: set[tuple[str, int, int]] = set()
        for seam in _seam_functions(project):
            reachable = graph.reachable(seam.qualname)
            for qualname, (depth, _parent) in sorted(reachable.items()):
                if qualname not in draws:
                    continue
                target = project.functions[qualname]
                if not self.in_scope(project, target.path):
                    continue
                chain = graph.chain(reachable, qualname)
                related: list[tuple[str, int, str]] = [
                    (seam.path, seam.line, f"scenario seam {seam.name}()")
                ]
                for caller, callee in zip(chain, chain[1:]):
                    sites = graph.sites.get((caller, callee), [])
                    if sites:
                        caller_info = project.functions[caller]
                        related.append(
                            (
                                caller_info.path,
                                sites[0].line,
                                f"{caller_info.name}() calls "
                                f"{callee.rsplit('.', 1)[-1]}()",
                            )
                        )
                for line, col, callee_name in draws[qualname]:
                    key = (target.path, line, col)
                    if key in emitted:
                        continue
                    emitted.add(key)
                    yield self.project_finding(
                        target.path, line, col,
                        f"{callee_name}() draw in {target.name}() is "
                        f"reachable from scenario seam {seam.name}() "
                        f"(call depth {depth}): the apply path must be a "
                        "pure function of precompiled tables — draws at "
                        "any depth shift per-block stream order and break "
                        "the any-workers bit-identity contract",
                        related=tuple(related),
                    )


@project_rule
class BranchDivergentDraws(ProjectRule):
    rule_id = "F502"
    summary = "branch-divergent RNG draw counts inside a kernel loop"
    scope = (_ENGINE_PATH,)

    def _branch_weight(
        self,
        stmts: list[ast.stmt],
        func: FunctionInfo,
        graph: CallGraph,
        drawing: set[str],
        bindings: dict[str, tuple[str | None, str | None]],
        local_streams: set[str],
    ) -> int:
        weight = 0
        for stmt in stmts:
            for call in own_calls(stmt):
                name = is_draw_call(call)
                if name is not None:
                    if _is_stream_constructor(call):
                        continue  # fresh seeded stream: order-free
                    receiver = name.rsplit(".", 1)[0] if "." in name else ""
                    if receiver not in local_streams:
                        weight += 1
                    continue
                callee = graph.resolve_call(func, call, bindings)
                if (
                    callee is not None
                    and callee in drawing
                    and not passes_local_stream(call, local_streams)
                ):
                    weight += 1
        return weight

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Finding]:
        drawing = graph.transitively_calling(
            set(shared_stream_drawing(project))
        )
        for func in sorted(
            project.functions.values(), key=lambda f: (f.path, f.line)
        ):
            if not self.in_scope(project, func.path):
                continue
            bindings = local_bindings(project, func)
            local_streams = _local_stream_receivers(func)
            # Collect each loop-contained if once: nested loops would
            # otherwise re-walk (and re-report) the same branch.
            branches: dict[int, ast.If] = {}
            for loop in walk_own(func.node):
                if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                    continue
                for branch in walk_own(loop):
                    if isinstance(branch, ast.If):
                        branches[id(branch)] = branch
            for branch in sorted(
                branches.values(), key=lambda b: (b.lineno, b.col_offset)
            ):
                then_w = self._branch_weight(
                    branch.body, func, graph, drawing, bindings, local_streams
                )
                else_w = self._branch_weight(
                    branch.orelse, func, graph, drawing, bindings, local_streams
                )
                if then_w != else_w:
                    yield self.project_finding(
                        func.path, branch.lineno, branch.col_offset,
                        f"branches of this if draw unequally "
                        f"({then_w} vs {else_w} draw sites, direct or "
                        f"via drawing helpers) inside a loop in "
                        f"{func.name}(): the RNG call order becomes "
                        "data-dependent, breaking replay across "
                        "worker counts and resume boundaries — hoist "
                        "the draws out of the branch or draw a fixed "
                        "count per iteration",
                    )


@project_rule
class UnorderedIterationDraws(ProjectRule):
    rule_id = "F503"
    summary = "RNG draws ordered by dict/set iteration"
    scope = ("src/repro/sim", "src/repro/core")

    def _unordered_iter(self, node: ast.expr) -> str | None:
        """'set' / 'dict view' when *node* iterates an unordered view."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in ("set", "frozenset"):
                return "set"
            if name is not None and name.rsplit(".", 1)[-1] in (
                "keys", "values", "items"
            ):
                return "dict view"
        return None

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Finding]:
        drawing = graph.transitively_calling(
            set(shared_stream_drawing(project))
        )
        for func in sorted(
            project.functions.values(), key=lambda f: (f.path, f.line)
        ):
            if not self.in_scope(project, func.path):
                continue
            bindings = local_bindings(project, func)
            local_streams = _local_stream_receivers(func)
            for loop in walk_own(func.node):
                if not isinstance(loop, (ast.For, ast.AsyncFor)):
                    continue
                kind = self._unordered_iter(loop.iter)
                if kind is None:
                    continue
                related: list[tuple[str, int, str]] = []
                for stmt in loop.body:
                    for call in own_calls(stmt):
                        drawn = is_draw_call(call)
                        if drawn is not None:
                            if _is_stream_constructor(call):
                                continue
                            receiver = (
                                drawn.rsplit(".", 1)[0] if "." in drawn else ""
                            )
                            if receiver in local_streams:
                                continue
                        else:
                            callee = graph.resolve_call(func, call, bindings)
                            if callee is None or callee not in drawing:
                                continue
                            if passes_local_stream(call, local_streams):
                                continue
                            drawn = callee.rsplit(".", 1)[-1] + "() [draws]"
                        related.append(
                            (func.path, call.lineno, f"draw: {drawn}")
                        )
                if related:
                    yield self.project_finding(
                        func.path, loop.lineno, loop.col_offset,
                        f"loop over a {kind} in {func.name}() draws from "
                        "an RNG: the stream order inherits the "
                        "container's iteration order — iterate "
                        "sorted(...) keys instead",
                        related=tuple(related),
                    )
