"""Family D: determinism of the collection pipeline.

The engine's contract (DESIGN.md, "Parallel collection & determinism
contract") is bit-identical output for any ``--workers`` count, which
holds only because every random stream is derived from the run seed
through a ``SeedSequence`` and no code path consults wall-clock time or
global RNG state.  These rules make that statically checkable in the
collection code paths (``src/repro/sim``, ``src/repro/core``):

- D101 — ``np.random.default_rng()`` with no seed draws from OS
  entropy: never reproducible.
- D102 — ``default_rng(x)`` where ``x`` visibly derives from neither a
  ``SeedSequence`` construction nor a seed-named value: the stream's
  provenance cannot be audited.
- D103 — wall-clock reads (``time.time``, ``datetime.now``, ...)
  inside collection code leak the run's start time into its data.
  (``time.perf_counter``/``process_time``/``sleep``/``monotonic`` stay
  legal — they measure, they do not generate data.)
- D104 — iterating a ``set`` (literal, comprehension, or ``set()``
  call) makes downstream ordering hash-seed dependent; sort first.
- D105 — stdlib ``random.*`` and numpy's legacy global-state API
  (``np.random.seed/rand/randint/...``) share hidden mutable state
  across callers; only per-stream ``Generator`` objects are allowed.
- D106 — a per-iteration RNG draw inside a loop in the collection
  engine's hot path (``src/repro/sim/engine.py``).  The vectorized
  kernel delegates all per-day draws to the policies' batched
  ``days_activity`` kernels; a scalar draw loop reintroduced at the
  engine layer is almost always the interpreted hot path the
  vectorization removed.  Legitimate cases carry a justified
  ``# reprolint: disable=D106 -- why`` suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.astutil import (
    call_arg,
    call_name,
    contains_call_to,
    contains_identifier,
    walk_calls,
)
from tools.reprolint.findings import Finding
from tools.reprolint.registry import Rule, rule

_COLLECTION_SCOPE = ("src/repro/sim", "src/repro/core")

_WALL_CLOCK_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: numpy's legacy global-state RNG entry points (np.random.<name>).
_NP_GLOBAL_RNG = {
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "choice", "shuffle", "permutation", "uniform", "normal", "poisson",
    "binomial", "exponential", "bytes",
}

#: ``np.random.Generator`` draw methods (the modern per-stream API).
_GENERATOR_DRAWS = {
    "random", "standard_normal", "integers", "choice", "shuffle",
    "permutation", "uniform", "normal", "lognormal", "beta",
    "exponential", "poisson", "binomial", "bytes",
}


def _is_default_rng(node: ast.Call) -> bool:
    name = call_name(node)
    return name is not None and (
        name == "default_rng" or name.endswith(".default_rng")
    )


@rule
class UnseededRng(Rule):
    rule_id = "D101"
    summary = "np.random.default_rng() without a seed is irreproducible"
    scope = _COLLECTION_SCOPE

    def check(self, module) -> Iterator[Finding]:
        for node in walk_calls(module.tree):
            if _is_default_rng(node) and not node.args and not node.keywords:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    "unseeded default_rng(): derive the stream from the "
                    "run seed via np.random.SeedSequence",
                )


@rule
class RngNotFromSeedSequence(Rule):
    rule_id = "D102"
    summary = "default_rng argument must flow from a SeedSequence/seed"
    scope = _COLLECTION_SCOPE

    def check(self, module) -> Iterator[Finding]:
        for node in walk_calls(module.tree):
            if not _is_default_rng(node):
                continue
            seed_arg = call_arg(node, 0, "seed")
            if seed_arg is None:
                continue  # D101 owns the no-argument case
            if contains_call_to(seed_arg, "SeedSequence"):
                continue
            if contains_identifier(seed_arg, "seed"):
                # A name like block_seed / seed_sequence: provenance is
                # auditable at the assignment site.
                continue
            yield self.finding(
                module, node.lineno, node.col_offset,
                "default_rng argument does not visibly derive from a "
                "SeedSequence or a seed-named value; route it through "
                "np.random.SeedSequence([...]) so its provenance is "
                "auditable",
            )


@rule
class WallClockInCollection(Rule):
    rule_id = "D103"
    summary = "wall-clock reads in collection code leak time into data"
    scope = _COLLECTION_SCOPE

    def check(self, module) -> Iterator[Finding]:
        for node in walk_calls(module.tree):
            name = call_name(node)
            if name is None:
                continue
            if any(
                name == suffix or name.endswith("." + suffix)
                for suffix in _WALL_CLOCK_SUFFIXES
            ):
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"wall-clock call {name}() in a collection code path: "
                    "derive dates from the run config "
                    "(time.perf_counter/monotonic are fine for timing)",
                )


@rule
class SetIterationOrder(Rule):
    rule_id = "D104"
    summary = "iterating a set feeds hash-order into output ordering"
    scope = _COLLECTION_SCOPE

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and call_name(node) in ("set", "frozenset"):
            return True
        return False

    def check(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            iterables: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                if self._is_set_expr(iterable):
                    yield self.finding(
                        module, iterable.lineno, iterable.col_offset,
                        "iteration over a set: order is hash-dependent; "
                        "wrap it in sorted(...) before it can feed output "
                        "ordering",
                    )


@rule
class GlobalRandomState(Rule):
    rule_id = "D105"
    summary = "global RNG state (random.*, legacy np.random.*) forbidden"
    scope = _COLLECTION_SCOPE

    def check(self, module) -> Iterator[Finding]:
        for node in walk_calls(module.tree):
            name = call_name(node)
            if name is None:
                continue
            parts = name.split(".")
            if parts[0] == "random" and len(parts) > 1:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"stdlib {name}() uses hidden global state: use a "
                    "per-stream np.random.Generator derived from the run "
                    "seed",
                )
            elif (
                len(parts) >= 3
                and parts[-2] == "random"
                and parts[-1] in _NP_GLOBAL_RNG
            ):
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"legacy global-state API {name}(): use "
                    "default_rng(SeedSequence(...)) streams instead",
                )


@rule
class ScalarLoopRngDraw(Rule):
    rule_id = "D106"
    summary = "per-iteration RNG draw in an engine hot loop"
    scope = ("src/repro/sim/engine.py",)

    def check(self, module) -> Iterator[Finding]:
        seen: set[tuple[int, int]] = set()
        for loop in ast.walk(module.tree):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for node in walk_calls(loop):
                name = call_name(node)
                if name is None or "." not in name:
                    continue
                receiver, _, method = name.rpartition(".")
                receiver = receiver.lower()
                if method not in _GENERATOR_DRAWS:
                    continue
                if "rng" not in receiver and "generator" not in receiver:
                    continue
                key = (node.lineno, node.col_offset)
                if key in seen:
                    continue  # nested loops walk the same call twice
                seen.add(key)
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"scalar {name}() draw inside a loop in the engine "
                    "hot path: batch the draws through the policies' "
                    "days_activity kernels, or justify with "
                    "'# reprolint: disable=D106 -- why'",
                )
