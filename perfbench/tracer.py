"""Spans around the public functions of each delgov module, from outside.

``Tracer.install`` rebinds every name under which a delgov module holds one
of the traced functions: ``delgov.experiments`` imports ``select`` by name,
so ``delgov.experiments.select`` is wrapped as well as
``delgov.routing.select``. ``uninstall`` puts the originals back. Nothing in
``delgov`` is edited, and the untraced run never sees a wrapper.

Each span is ``(name, start_ns, end_ns, parent, op)``; ``parent`` is the
index of the enclosing span or -1, and ``op`` the operation id the
benchmark set. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, function) pairs that get a span each.
SPANNED = (
    ("wire", "decode_message"),
    ("wire", "decode_any"),
    ("wire", "encode_message"),
    ("wire", "canonical_bytes"),
    ("contracts", "check_result"),
    ("contracts", "apply_policy"),
    ("errors", "default_semantics"),
    ("routing", "select"),
    ("simulate", "execute_task"),
    ("simulate", "build_pool_with_metadata"),
    ("experiments", "records_for_pool"),
    ("experiments", "run_condition"),
    ("stats", "mann_whitney_u"),
    ("stats", "cohens_d"),
    ("stats", "descriptive"),
)
# Counted only: a span per call would swamp the run.
COUNTED = (("routing", "eligible_claim"),)

_DECODERS = ("wire.decode_message", "wire.decode_any")
_ENCODERS = ("wire.encode_message", "wire.canonical_bytes")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list = []
        self.stack: list = []
        self.op = 0
        self.counts: Counter = Counter()
        self._previous_by_claims = None
        self._restore: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "delgov" or n.startswith("delgov.")]
        for module_name, function in SPANNED + COUNTED:
            original = getattr(getattr(self.lib, module_name), function)
            name = f"{module_name}.{function}"
            wrapper = self._counter(name, original) if (module_name, function) in COUNTED else self._span(name, original)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
                        self._restore.append((module, attribute, original))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._restore):
            setattr(module, attribute, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans = []
        self.stack.clear()
        self.counts = Counter()
        self._previous_by_claims = None

    # -- wrappers ----------------------------------------------------------

    def _counter(self, name, function):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return function(*args, **kwargs)

        return counted

    def _span(self, name, function):
        clock = time.perf_counter_ns
        tracer = self
        observe = self._before_select if name == "routing.select" else None

        def spanned(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            if observe is not None:
                observe(args, kwargs)
            index = len(spans)
            span = [name, 0, 0, parent, tracer.op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                stack.pop()
                tracer._after_error(name, parent, exc)
                raise
            span[2] = clock()
            stack.pop()
            tracer._after_return(name, parent, result)
            return result

        return spanned

    # -- counters observed at the boundaries ---------------------------------

    def _parent_name(self, parent):
        return self.spans[parent][0] if parent >= 0 else None

    def _before_select(self, args, kwargs):
        policy = _arg(args, kwargs, 1, "policy")
        if policy.strategy.value != "by_claims":
            return
        self.counts["routing.select.by_claims"] += 1
        pool = tuple(_arg(args, kwargs, 0, "pool"))
        now = _arg(args, kwargs, 3, "now")
        previous = self._previous_by_claims
        # Records are frozen, so the same record objects mean the same pool.
        if (
            previous is not None
            and previous[1] == policy
            and previous[2] == now
            and len(previous[0]) == len(pool)
            and all(a is b for a, b in zip(previous[0], pool))
        ):
            self.counts["routing.select.repeats"] += 1
        self._previous_by_claims = (pool, policy, now)

    def _after_return(self, name, parent, result):
        if name == "contracts.check_result":
            if result.disposition.value == "rejected":
                self.counts["contracts.rejected"] += 1
        elif name in _ENCODERS and self._parent_name(parent) not in _ENCODERS:
            self.counts["wire.encode.bytes"] += len(result)

    def _after_error(self, name, parent, exc):
        if name in _DECODERS and self._parent_name(parent) not in _DECODERS:
            if isinstance(exc, self.lib.wire.DecodeError):
                self.counts["wire.decode.rejected"] += 1
            else:
                self.counts["wire.decode.escaped"] += 1
        elif name == "routing.select" and isinstance(exc, self.lib.routing.NoEligibleDelegate):
            self.counts["routing.no_eligible"] += 1

    # -- results -----------------------------------------------------------

    def layer_figures(self) -> tuple[dict, dict]:
        """(call counts, self seconds) per traced function for the spans held."""
        calls: Counter = Counter()
        total = [0] * len(self.spans)
        children = [0] * len(self.spans)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            total[index] = end - start
            if parent >= 0:
                children[parent] += end - start
        self_ns: Counter = Counter()
        for index, span in enumerate(self.spans):
            self_ns[span[0]] += total[index] - children[index]
        for module, function in COUNTED:
            calls[f"{module}.{function}"] = self.counts[f"{module}.{function}"]
        return dict(calls), {name: ns / 1e9 for name, ns in self_ns.items()}

    def write_spans(self, path) -> None:
        base = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start - base, "end_ns": end - base, "parent": parent, "op": op}) + "\n")
