"""Family A: atomic, durable artifact writes.

PR 1 fixed silent data loss caused by half-written artifacts; since
then every run artifact (datasets, checkpoints, manifests, traces,
metrics, bench records) must go through the fsync + rename helpers
``atomic_write_npz`` / ``atomic_write_text`` in ``repro.core.io``.
These rules forbid the bypasses:

- A201 — ``open(path, "w"/"a"/"x"/...)``: a bare write-mode open can
  leave a truncated file behind a crash.  (The atomic helpers
  themselves write through ``os.fdopen`` on a ``mkstemp`` descriptor,
  which this rule deliberately does not match.)
- A202 — ``np.save``/``np.savez``/``np.savez_compressed``,
  ``np.lib.format.write_array``, or ``zipfile.ZipFile(..., "w"/"a"/"x")``
  anywhere but ``repro.core.io``: dataset bytes only leave the process
  through the sanctioned wrapper.
- A203 — ``Path.write_text``/``write_bytes``: same truncation hazard
  as A201, harder to grep.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.astutil import call_arg, call_name, string_constant, walk_calls
from tools.reprolint.findings import Finding
from tools.reprolint.registry import Rule, rule

_ARTIFACT_SCOPE = ("src/repro", "tools", "benchmarks")

#: The one module allowed to call numpy's writers directly.
_NPZ_SANCTUARY = "src/repro/core/io.py"


@rule
class BareWriteOpen(Rule):
    rule_id = "A201"
    summary = "write-mode open() bypasses the atomic-write helpers"
    scope = _ARTIFACT_SCOPE

    def check(self, module) -> Iterator[Finding]:
        for node in walk_calls(module.tree):
            if call_name(node) != "open":
                continue
            mode_arg = call_arg(node, 1, "mode")
            if mode_arg is None:
                continue  # default mode "r": reads are always fine
            mode = string_constant(mode_arg)
            if mode is not None and not any(c in mode for c in "wax+"):
                continue
            detail = (
                f"open(..., {mode!r})" if mode is not None
                else "open(...) with a non-literal mode"
            )
            yield self.finding(
                module, node.lineno, node.col_offset,
                f"{detail}: write artifacts through "
                "repro.core.io.atomic_write_text/atomic_write_npz so a "
                "crash can never leave a truncated file",
            )


#: numpy's array writers, by final dotted component.
_NUMPY_WRITERS = ("save", "savez", "savez_compressed", "write_array")


@rule
class DirectNumpySave(Rule):
    rule_id = "A202"
    summary = "np.save*/np.savez*/write_array/ZipFile writes outside repro.core.io"
    scope = _ARTIFACT_SCOPE

    def check(self, module) -> Iterator[Finding]:
        if module.path == _NPZ_SANCTUARY:
            return
        for node in walk_calls(module.tree):
            name = call_name(node)
            if name is None:
                continue
            last = name.split(".")[-1]
            if last in _NUMPY_WRITERS and (
                name.startswith("np.") or name.startswith("numpy.")
            ):
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"{name}(): .npz artifacts must be written through "
                    "repro.core.io.atomic_write_npz (fsync + rename)",
                )
            elif name in ("zipfile.ZipFile", "ZipFile"):
                mode_arg = call_arg(node, 1, "mode")
                if mode_arg is None:
                    continue  # default mode "r"
                mode = string_constant(mode_arg)
                if mode is not None and not any(c in mode for c in "wax"):
                    continue
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"{name}(..., {mode!r}): zip artifacts must be written "
                    "through repro.core.io.atomic_write_npz (fsync + rename)",
                )


@rule
class PathWriteMethods(Rule):
    rule_id = "A203"
    summary = "Path.write_text/write_bytes bypass the atomic-write helpers"
    scope = _ARTIFACT_SCOPE

    def check(self, module) -> Iterator[Finding]:
        for node in walk_calls(module.tree):
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr in ("write_text", "write_bytes"):
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f".{node.func.attr}(...): write artifacts through "
                    "repro.core.io.atomic_write_text/atomic_write_npz",
                )
