"""Per-layer tracer for the bianchi benchmark.

The tracer wraps the public functions of each ``bianchi`` module from the
outside: nothing under ``src/`` knows about it.  Every wrapped call opens a
span; a span's self time is its duration minus the time of the spans it
opened.  A function that several modules bind by name (``structure_forms``
imports ``torsion`` and ``curvature`` from ``connection``) is replaced in
every module namespace that holds it, so each call is seen exactly once.

The folding constructors of ``symexpr`` (``add``, ``sub``, ``mul``, ``div``,
``neg``, ``power``) run about a million times per case; they are counted
but not spanned.  Node counts (``evaluate.nodes``, ``dag_nodes``,
``struct_nodes``) are taken by walking the expression DAGs; that walking is
bookkeeping and is kept off every span's clock.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

CHECK = "identity_suite.check_identity"
CASE_CHECKS = "gallery.case_specific_checks"
FOLD_FUNCTIONS = ("add", "sub", "mul", "div", "neg", "power")

# span key -> phase of check_identity, for spans opened directly inside it
PHASES = {
    "identity_suite.sample_fields": "sample",
    "identity_suite.factory": "factory",
    "identity_suite.build": "build",
    "symexpr.evaluate": "evaluate",
}

# (module, function) pairs spanned under "<module>.<function>"
SPANNED = (
    ("symexpr", "evaluate"),
    ("symexpr", "differentiate"),
    ("geometry", "exterior_derivative"),
    ("geometry", "wedge"),
    ("connection", "torsion"),
    ("connection", "curvature"),
    ("connection", "covariant_derivative"),
    ("connection", "levi_civita"),
    ("structure_forms", "cartan_coframe_forms"),
    ("structure_forms", "exterior_covariant_derivative"),
    ("identity_suite", "sample_fields"),
    ("gallery", "build_case"),
    ("gallery", "case_specific_checks"),
    ("casefile", "load_case_file"),
)

# span keys whose outermost-call time is reported as "<key>.s"
INCLUSIVE = ("gallery.build_case", "gallery.case_specific_checks", "casefile.load_case_file")


def _reachable(root) -> int:
    """Number of nodes distinct by identity reachable from ``root``."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.children())
    return len(seen)


def _pair_nodes(lhs, rhs) -> tuple[int, int]:
    """Nodes of an (lhs, rhs) pair distinct by identity and by structure."""
    from bianchi import symexpr as se

    struct_id: dict[int, int] = {}
    table: dict[tuple, int] = {}
    stack = [(lhs, False), (rhs, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in struct_id:
            continue
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children())
            continue
        kind = type(node)
        if kind is se.Const:
            key = (kind, node.value)
        elif kind is se.Var:
            key = (kind, node.name)
        elif kind is se.Pow:
            key = (kind, node.exponent, struct_id[id(node.base)])
        else:
            key = (kind,) + tuple(struct_id[id(child)] for child in node.children())
        struct_id[id(node)] = table.setdefault(key, len(table))
    return len(struct_id), len(table)


class Tracer:
    """Spans and counts for one traced process; see the module docstring."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.phase_s: defaultdict[str, float] = defaultdict(float)
        self.records: list[dict] = []
        self.bookkeeping_s = 0.0
        self._fold = [0]
        self._stack: list[list] = []
        self._depth: Counter[str] = Counter()
        self._record: Counter | None = None
        self._roots: dict[int, tuple[object, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- clock and bookkeeping ------------------------------------------------

    def now(self) -> float:
        """Wall clock minus the time spent on node-count bookkeeping."""
        return time.perf_counter() - self.bookkeeping_s

    def _paused(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.bookkeeping_s += time.perf_counter() - start

    def _root_nodes(self, root) -> int:
        got = self._roots.get(id(root))
        if got is not None and got[0] is root:
            return got[1]
        if len(self._roots) > 4096:
            self._roots.clear()
        count = _reachable(root)
        self._roots[id(root)] = (root, count)
        return count

    def _count_evaluate(self, expr, *_) -> None:
        self.counts["evaluate.nodes"] += self._root_nodes(expr)

    def _count_pairs(self, pairs) -> None:
        record = self._record
        for lhs, rhs in pairs:
            dag, struct = _pair_nodes(lhs, rhs)
            self.counts["dag_nodes"] += dag
            self.counts["struct_nodes"] += struct
            self.counts["pairs"] += 1
            if record is not None:
                record["dag_nodes"] += dag
                record["struct_nodes"] += struct
                record["pairs"] += 1
            self._root_nodes(lhs)
            self._root_nodes(rhs)

    # -- spans ------------------------------------------------------------------

    def _span(self, key: str, fn, before=None, after=None):
        stack, depth = self._stack, self._depth
        phase = PHASES.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._paused(before, *args)
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            depth[key] += 1
            start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.now() - start
                stack.pop()
                depth[key] -= 1
                own = elapsed - frame[1]
                self.self_s[key] += own
                self.calls[key] += 1
                if depth[key] == 0:
                    self.inclusive_s[key] += elapsed
                if parent is not None:
                    parent[1] += elapsed
                record = self._record
                if record is not None:
                    record[key] += own
                    if phase is not None and parent is not None and parent[0] == CHECK:
                        record[phase] += elapsed
                        self.phase_s[phase] += elapsed
            if after is not None:
                self._paused(after, result)
            return result

        return wrapper

    def _recorded(self, span, describe):
        """Span that also keeps the per-(case, check) split of its subtree."""

        @functools.wraps(span)
        def wrapper(*args, **kwargs):
            outer = self._record
            record = Counter()
            case_id, check_id = describe(*args, **kwargs)
            self._record = record
            start = self.now()
            try:
                return span(*args, **kwargs)
            finally:
                record["s"] = self.now() - start
                self._record = outer
                self._roots.clear()
                self.records.append({"case": case_id, "check": check_id, **record})

        return wrapper

    def _count(self, fn):
        cell = self._fold

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    # -- installation -------------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace ``original`` in every bianchi module namespace binding it."""
        for name, module in list(sys.modules.items()):
            if name != "bianchi" and not name.startswith("bianchi."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> "Tracer":
        import dataclasses
        import importlib

        import bianchi.cli  # noqa: F401  (imports every bianchi module)
        from bianchi import geometry as geo
        from bianchi import identity_suite as ids
        from bianchi import structure_forms as sf
        from bianchi import symexpr as se

        for module_name, function in SPANNED:
            key = f"{module_name}.{function}"
            original = getattr(importlib.import_module(f"bianchi.{module_name}"), function)
            before = self._count_evaluate if key == "symexpr.evaluate" else None
            wrapped = self._span(key, original, before=before)
            if key == CASE_CHECKS:
                wrapped = self._recorded(wrapped, lambda case, *a, **k: (case.id, "case_checks"))
            self._rebind(original, wrapped)
        for name, value in list(vars(sf).items()):
            if name.endswith("_apply") and callable(value) and value.__module__ == sf.__name__:
                self._rebind(value, self._span("structure_forms.apply", value))
        for name in FOLD_FUNCTIONS:
            original = getattr(se, name)
            self._rebind(original, self._count(original))

        original_apply = geo.PForm.apply
        self._patches.append((geo.PForm, "apply", original_apply))
        geo.PForm.apply = self._span("geometry.apply", original_apply)

        check = self._span(CHECK, ids.check_identity)
        check = self._recorded(check, lambda check_id, case, *a, **k: (case.id, check_id))
        self._rebind(ids.check_identity, check)

        for check_id, entry in list(ids.CATALOG.items()):
            self._patches.append((ids.CATALOG, check_id, entry))
            ids.CATALOG[check_id] = dataclasses.replace(entry, factory=self._factory(entry.factory))
        return self

    def _factory(self, factory):
        def build_factory(case):
            return self._span(
                "identity_suite.build", factory(case), after=self._count_pairs
            )

        return self._span("identity_suite.factory", build_factory)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals, without the two that need the process wall time
        (``cli.self_s`` and ``trace.overhead_s``)."""
        out: dict[str, float] = {}

        def span(key, calls=True):
            if calls:
                out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]

        span("symexpr.evaluate")
        out["symexpr.evaluate.nodes"] = self.counts["evaluate.nodes"]
        span("symexpr.differentiate")
        out["symexpr.fold.calls"] = self._fold[0]
        out["symexpr.dag_nodes"] = self.counts["dag_nodes"]
        out["symexpr.struct_nodes"] = self.counts["struct_nodes"]
        out["symexpr.struct_ratio"] = (
            self.counts["struct_nodes"] / self.counts["dag_nodes"] if self.counts["dag_nodes"] else 0.0
        )
        for name in ("exterior_derivative", "wedge", "apply"):
            span(f"geometry.{name}")
        for name in ("torsion", "curvature", "covariant_derivative"):
            span(f"connection.{name}")
        span("connection.levi_civita", calls=False)
        for name in ("apply", "cartan_coframe_forms", "exterior_covariant_derivative"):
            span(f"structure_forms.{name}")
        check_s = self.inclusive_s[CHECK]
        phases = ("sample", "factory", "build", "evaluate")
        for phase in phases:
            out[f"identity_suite.{phase}_s"] = self.phase_s[phase]
        out["identity_suite.verdict_s"] = check_s - sum(self.phase_s[p] for p in phases)
        out["identity_suite.pairs"] = self.counts["pairs"]
        for key in INCLUSIVE:
            out[f"{key}.s"] = self.inclusive_s[key]
        return out

    def counts_signature(self) -> dict:
        """Every exact count; equal across two traced runs of the same input."""
        metrics = self.layer_metrics()
        counts = {k: v for k, v in metrics.items() if k.endswith(("calls", "nodes", "pairs"))}
        counts["span_calls"] = dict(sorted(self.calls.items()))
        return counts

    def layer_mix(self) -> dict[str, float]:
        """Shares of check time: evaluate self time and the factory + build phases."""
        check_s = sum(r["s"] for r in self.records)
        evaluate_s = sum(r.get("symexpr.evaluate", 0.0) for r in self.records)
        construct_s = self.phase_s["factory"] + self.phase_s["build"]
        return {
            "check_s": check_s,
            "evaluate_share": evaluate_s / check_s if check_s else 0.0,
            "factory_build_share": construct_s / check_s if check_s else 0.0,
        }

    def summary(self) -> dict:
        return {
            "layers": self.layer_metrics(),
            "self_s": dict(sorted(self.self_s.items())),
            "bookkeeping_s": self.bookkeeping_s,
            "counts": self.counts_signature(),
            "mix": self.layer_mix(),
            "pairs": self.records,
        }
