"""Family P6: commit-protocol write ordering.

The store's crash-safety story (DESIGN.md, "Live observatory") is
manifest-last: the files a store manifest names must be durable before
the manifest lands, whether the manifest closes one store
(``StoreWriter.finalize``) or commits a live store's tick — there the
atomic replace of the root ``store.manifest.json`` is the only commit
point, and nothing under the root is destroyed.  Live stores no longer
write or read a pointer (a retired ``live.json`` is only refused,
by ``StoreAppender``), so the pointer rules stand guard against a
pointer-style commit coming back in the wrong order.  The rules verify
the ordering on every path through each function with a must-reach
dataflow analysis over the CFG (intersection join: the prerequisite
must have executed on *every* path into the dependent write), and flag
writes to protocol paths that bypass the atomic helpers:

- P601 — a pointer write (``live.json`` / ``live_pointer_path``) not
  dominated by the manifest write or ``finalize()`` call it names;
- P602 — a destructive operation (``rmtree``/``unlink``/``remove``)
  in a commit function not dominated by the pointer flip: on a crash
  between the destroy and the flip, the old state is gone and the
  pointer still names it;
- P603 — a non-atomic write primitive aimed at a protocol path
  (manifest or pointer): partial writes of these files brick readers,
  so they must go through the ``atomic_write_*`` helpers — the rule
  that keeps the live root's manifest replace atomic.

Both P601 and P602 only engage in functions that contain *both* sides
of the ordering they check — a function that only writes the manifest,
or only destroys files, encodes no intra-function ordering to verify
(cross-function protocol phases are sequenced by their sole caller and
exercised by the commit-phase fault-injection tests).
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.astutil import call_name, walk_calls
from tools.reprolint.callgraph import CallGraph
from tools.reprolint.cfg import CFG, CFGNode, build_cfg, header_region
from tools.reprolint.dataflow import MustSetAnalysis, solve
from tools.reprolint.findings import Finding
from tools.reprolint.project import FunctionInfo, Project
from tools.reprolint.registry import ProjectRule, project_rule
from tools.reprolint.rules.rngflow import own_calls

_COMMIT_SCOPE = (
    "src/repro/core/store.py",
    "src/repro/sim/checkpoint.py",
    "src/repro/serve",
)

#: Path-helper callees that name the two protocol files.
_POINTER_PATH_HELPERS = ("live_pointer_path",)
_MANIFEST_PATH_HELPERS = ("store_manifest_path", "manifest_path_for")
_POINTER_BASENAMES = ("live.json",)
_MANIFEST_BASENAMES = ("store.manifest.json",)

_DESTROY_CALLS = ("rmtree", "unlink", "remove", "rmdir")

#: Non-atomic write primitives (final dotted component).
_RAW_WRITERS = (
    "dump", "save", "savez", "savez_compressed", "write_text",
    "write_bytes",
)


def _mentions_protocol_path(
    node: ast.expr, helpers: tuple[str, ...], basenames: tuple[str, ...]
) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            name = call_name(child)
            if name is not None and name.rsplit(".", 1)[-1] in helpers:
                return True
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            if any(child.value.endswith(base) for base in basenames):
                return True
    return False


def _call_kinds(call: ast.Call) -> set[str]:
    """Which protocol events one call constitutes."""
    kinds: set[str] = set()
    name = call_name(call)
    if name is None:
        return kinds
    last = name.rsplit(".", 1)[-1]
    args = [*call.args, *[kw.value for kw in call.keywords]]
    touches_pointer = any(
        _mentions_protocol_path(a, _POINTER_PATH_HELPERS, _POINTER_BASENAMES)
        for a in args
    )
    touches_manifest = any(
        _mentions_protocol_path(a, _MANIFEST_PATH_HELPERS, _MANIFEST_BASENAMES)
        for a in args
    )
    is_writer = (
        last.startswith("atomic_write")
        or last in _RAW_WRITERS
        or last == "write_manifest"
        or last == "open"
    )
    if is_writer and touches_pointer:
        kinds.add("pointer")
    if is_writer and touches_manifest:
        kinds.add("manifest")
    if last == "finalize":
        kinds.add("manifest")  # StoreWriter.finalize = manifest-last commit
    if last == "write_manifest" and not touches_pointer:
        kinds.add("manifest")
    if last in _DESTROY_CALLS:
        kinds.add("destroy")
    if (
        last in _RAW_WRITERS or last == "open"
    ) and (touches_pointer or touches_manifest):
        kinds.add("raw-write")
    return kinds


def _node_events(node: CFGNode) -> set[str]:
    if node.stmt is None:
        return set()
    events: set[str] = set()
    # Compound statements only execute their header at the head node;
    # branch/body events belong to the body statements' own nodes.
    for region in header_region(node.stmt):
        for call in own_calls(region):
            events |= _call_kinds(call)
        if isinstance(region, ast.Call):
            events |= _call_kinds(region)
    return events


class _EventAnalysis(MustSetAnalysis):
    """Must-have-executed set of protocol events at each point."""

    def transfer(self, node, state):
        if state is None:
            state = frozenset()
        events = _node_events(node) - {"raw-write"}
        # The exceptional out-state is the *pre*-state: a write that
        # raised never became durable.
        return state | events, state


def _function_cfg_events(
    func: FunctionInfo,
) -> tuple[CFG, dict[int, set[str]]]:
    cfg = build_cfg(func.node)
    events = {node.index: _node_events(node) for node in cfg.nodes}
    return cfg, events


@project_rule
class PointerBeforeManifest(ProjectRule):
    rule_id = "P601"
    summary = "live-pointer write not preceded by the manifest write"
    scope = _COMMIT_SCOPE

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Finding]:
        for func in sorted(
            project.functions.values(), key=lambda f: (f.path, f.line)
        ):
            if not self.in_scope(project, func.path):
                continue
            cfg, events = _function_cfg_events(func)
            pointer_nodes = [i for i, e in events.items() if "pointer" in e]
            manifest_nodes = [i for i, e in events.items() if "manifest" in e]
            if not pointer_nodes or not manifest_nodes:
                continue
            in_states, _, _ = solve(cfg, _EventAnalysis())
            manifest_line = cfg.nodes[manifest_nodes[0]].line
            for index in pointer_nodes:
                state = in_states[index]
                if state is not None and "manifest" in state:
                    continue
                node = cfg.nodes[index]
                yield self.project_finding(
                    func.path, node.line, 0,
                    f"pointer flip in {func.name}() is not preceded by "
                    "the manifest write on every path: a crash after the "
                    "flip leaves live.json naming a generation whose "
                    "manifest never landed — write data, then manifest, "
                    "then flip the pointer",
                    related=(
                        (
                            func.path,
                            manifest_line,
                            "manifest write that must come first",
                        ),
                    ),
                )


@project_rule
class DestroyBeforeFlip(ProjectRule):
    rule_id = "P602"
    summary = "destructive op before the pointer flip in a commit path"
    scope = _COMMIT_SCOPE

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Finding]:
        for func in sorted(
            project.functions.values(), key=lambda f: (f.path, f.line)
        ):
            if not self.in_scope(project, func.path):
                continue
            cfg, events = _function_cfg_events(func)
            pointer_nodes = [i for i, e in events.items() if "pointer" in e]
            destroy_nodes = [i for i, e in events.items() if "destroy" in e]
            if not pointer_nodes or not destroy_nodes:
                continue
            in_states, _, _ = solve(cfg, _EventAnalysis())
            pointer_line = cfg.nodes[pointer_nodes[0]].line
            for index in destroy_nodes:
                state = in_states[index]
                if state is not None and "pointer" in state:
                    continue
                node = cfg.nodes[index]
                yield self.project_finding(
                    func.path, node.line, 0,
                    f"destructive filesystem call in {func.name}() runs "
                    "before the live-pointer flip on some path: a crash "
                    "between them destroys state the current pointer "
                    "still references — GC old generations only after "
                    "the flip is durable",
                    related=(
                        (
                            func.path,
                            pointer_line,
                            "pointer flip that must come first",
                        ),
                    ),
                )


@project_rule
class RawWriteToProtocolPath(ProjectRule):
    rule_id = "P603"
    summary = "non-atomic write primitive aimed at a protocol path"
    scope = _COMMIT_SCOPE

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Finding]:
        for module in sorted(project.modules.values(), key=lambda m: m.path):
            if not self.in_scope(project, module.path):
                continue
            # Full walk (not own_calls): raw writes anywhere in the
            # module, including nested function bodies, are findings.
            for call in walk_calls(module.tree):
                if "raw-write" not in _call_kinds(call):
                    continue
                name = call_name(call)
                yield self.project_finding(
                    module.path, call.lineno, call.col_offset,
                    f"{name}() writes a commit-protocol file (manifest "
                    "or live pointer) without the atomic temp+rename "
                    "discipline: a partial write of these files bricks "
                    "every reader — route it through atomic_write_text/"
                    "atomic_write_npz",
                )
