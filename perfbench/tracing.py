"""Spans recorded at the boundaries between the library's layers.

The tracer replaces module attributes through which one layer calls
another (for example ``yamada.diagram.resolve``, the name ``yamada_r``
looks up on every state) by wrappers that time each call.  Nothing under
``src/`` changes: the wrappers are installed for a traced run only and
removed afterwards.  A call made while no request is open (input
generation, output checks) passes straight through unrecorded.

Each span is (name, start, end, parent index, request id).  Spans stay in
memory until the run ends; self time is a span's duration minus the
durations of its direct children, which never overlap because the run is
single-threaded.
"""

from __future__ import annotations

import json
from time import perf_counter

from yamada import diagram, laurent, multigraph, replace, roots


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.request: int | None = None
        self.memo_calls = 0
        self.memo_fresh = 0
        self.chain_terms = 0
        self.curve_points = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open_request(self, rid: int, kind: str) -> None:
        self.request = rid
        self._stack = [self._begin("request." + kind)]

    def close_request(self) -> None:
        self._end(self._stack.pop())
        self.request = None

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.request])
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()

    def _wrap(self, module, attr: str, name: str, before=None, after=None):
        """Replace module.attr by a timed wrapper.  before(kwargs) runs
        ahead of the call and its result goes to after(state, output)."""
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            if self.request is None:
                return orig(*args, **kwargs)
            state = before(kwargs) if before else None
            idx = self._begin(name)
            self._stack.append(idx)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._stack.pop()
                self._end(idx)
            if after:
                after(state, out)
            return out

        setattr(module, attr, traced)
        self._restore.append((module, attr, orig))

    # -- observers: counts taken where the work happens ---------------------

    @staticmethod
    def _memo_size(kwargs):
        memo = kwargs.get("memo")
        return None if memo is None else (memo, len(memo))

    def _memo_grew(self, state, out):
        # only calls sharing a memo across states count
        if state is not None:
            memo, size = state
            self.memo_calls += 1
            self.memo_fresh += len(memo) > size

    def _count_terms(self, state, out):
        self.chain_terms += len(out.terms)

    def _count_points(self, state, out):
        self.curve_points += len(out)

    def install(self) -> None:
        w = self._wrap
        w(diagram, "yamada_r", "diagram.yamada_r")
        w(diagram, "resolve", "diagram.resolve")
        w(diagram, "yamada_h", "multigraph.yamada_h",
          self._memo_size, self._memo_grew)
        w(multigraph, "yamada_h", "multigraph.yamada_h",
          self._memo_size, self._memo_grew)
        w(replace, "h_edge_replace", "replace.h_edge_replace")
        w(replace, "chain_polynomial", "chain.chain_polynomial",
          after=self._count_terms)
        for module in (laurent, replace, roots):
            w(module, "exact_div", "laurent.exact_div")
        w(roots, "family_polynomial", "replace.family_polynomial")
        w(roots, "family_degree_estimate", "replace.family_degree_estimate")
        w(roots, "scan_family", "roots.scan_family")
        w(roots, "density_witness", "roots.density_witness")
        w(roots, "limit_curve_points", "roots.limit_curve_points",
          after=self._count_points)
        w(roots, "records_to_csv", "roots.serialize")
        w(roots, "witness_to_dict", "roots.serialize")

    def uninstall(self) -> None:
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child: list[float] = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            total[name] = total.get(name, 0.0) + (t1 - t0)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child[parent] += t1 - t0
        self_time: dict[str, float] = {}
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            self_time[name] = self_time.get(name, 0.0) + (t1 - t0 - c)
        roots_calls = (
            calls.get("roots.scan_family", 0)
            + calls.get("roots.density_witness", 0)
        )
        return {
            "diagram.resolve_s": total.get("diagram.resolve", 0.0),
            "diagram.resolve_calls": calls.get("diagram.resolve", 0),
            "diagram.yamada_r_self_s": self_time.get("diagram.yamada_r", 0.0),
            "multigraph.yamada_h_s": total.get("multigraph.yamada_h", 0.0),
            "multigraph.yamada_h_calls": calls.get("multigraph.yamada_h", 0),
            "multigraph.memo_fresh_ratio": (
                self.memo_fresh / self.memo_calls if self.memo_calls else 0.0
            ),
            "chain.chain_polynomial_s": total.get("chain.chain_polynomial", 0.0),
            "chain.terms": self.chain_terms,
            "replace.h_edge_replace_self_s": self_time.get(
                "replace.h_edge_replace", 0.0
            ),
            "laurent.exact_div_s": total.get("laurent.exact_div", 0.0),
            "laurent.exact_div_calls": calls.get("laurent.exact_div", 0),
            "replace.family_polynomial_s": total.get(
                "replace.family_polynomial", 0.0
            ),
            "replace.family_polynomial_calls": calls.get(
                "replace.family_polynomial", 0
            ),
            "replace.family_degree_estimate_s": total.get(
                "replace.family_degree_estimate", 0.0
            ),
            "roots.solve_self_s": self_time.get("roots.scan_family", 0.0)
            + self_time.get("roots.density_witness", 0.0),
            "roots.cells_per_query": (
                calls.get("replace.family_polynomial", 0) / roots_calls
                if roots_calls else 0.0
            ),
            "roots.limit_curve_points_s": total.get(
                "roots.limit_curve_points", 0.0
            ),
            "roots.curve_points": self.curve_points,
            "roots.serialize_s": total.get("roots.serialize", 0.0),
        }

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
