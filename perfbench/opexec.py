"""Run one benchmark operation in this process, optionally traced.

    python perfbench/opexec.py [--spans FILE --op-id N] cli <quorum args...>
    python perfbench/opexec.py [--spans FILE --op-id N] oracle <call name>

``cli`` runs the ``quorum`` command in this process, exactly as
``python -m quorum.cli`` does. ``oracle`` makes one public
``quorum.oracle`` call from ``workloads.py`` and prints its value as JSON.

With ``--spans`` the package's public functions are replaced, in every
``quorum`` module that refers to them, by wrappers that record one span
(name, start, end, parent, operation id) per call, plus a few counts
taken from the call's arguments and result. The spans stay in memory and
are written to FILE when the operation ends. Nothing inside ``src/quorum``
is changed, and a function a later version no longer has is skipped.
"""

from __future__ import annotations

import json
import os
import sys
import time

# numpy, and workloads.py which imports it, load only after the timed
# ``import quorum.cli`` so that the import span includes them.


def _tied_questions(args, kwargs, result):
    import numpy as np

    scores = np.asarray(args[0] if args else kwargs["scores"], dtype=float)
    top = scores.max(axis=1, keepdims=True)
    tied = scores >= top - (1e-12 + 1e-9 * np.abs(top))
    return {"tied_questions": int((tied.sum(axis=1) > 1).sum())}


def _read_counts(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes_in": os.path.getsize(path), "answers_bytes": int(result[0].answers.nbytes)}


def _write_counts(args, kwargs, result):
    return {"bytes_out": os.path.getsize(args[0] if args else kwargs["path"])}


def _fit_counts(args, kwargs, result):
    return {"fit_iterations": int(result.iterations), "starts_agreeing": int(result.starts_agreeing or 0)}


# (module, function, counter): the public calls wrapped in spans.
TRACED = (
    ("dataio", "read_predictions_csv", _read_counts),
    ("dataio", "write_labels_csv", None),
    ("dataio", "write_json", None),
    ("dataio", "write_predictions_csv", None),
    ("dataio", "atomic_write_text", _write_counts),
    ("core", "ow_weights", None),
    ("core", "shuffle_apply", None),
    ("core", "shuffle_invert", None),
    ("secondorder", "pair_counts", None),
    ("secondorder", "empirical_second_order", lambda a, k, r: {"imputed_cells": int(r.imputed.sum())}),
    ("secondorder", "exact_second_order", None),
    ("aggregate", "vote_counts_batch", None),
    ("aggregate", "weighted_scores_batch", None),
    ("aggregate", "sp_advantage_batch", None),
    ("aggregate", "isp_advantage_batch", None),
    ("aggregate", "decide_batch", _tied_questions),
    ("estimate", "run_pipeline", None),
    ("estimate", "fit_ow_l", None),
    ("estimate", "fit_ow_i", _fit_counts),
    ("estimate", "fit_accuracies", _fit_counts),
    ("simulate", "run_accuracy_table", None),
    ("simulate", "simulate_ci", None),
    ("oracle", "enumerate_vectors", lambda a, k, r: {"vectors": int(len(r))}),
    ("oracle", "expected_accuracy", None),
    ("oracle", "exact_expected_advantage", None),
    ("oracle", "mixture_expected_advantage", None),
    ("oracle", "mixture_expected_accuracy", lambda a, k, r: {"rule": a[0] if a else k.get("rule")}),
    ("verify", "run_suites", None),
)


class Tracer:
    """Collects spans in memory; ``install`` wraps the TRACED functions."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent, "op": self.op_id})

    def wrap(self, name: str, fn, counter=None, attrs=None):
        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0, "op": self.op_id,
                    "parent": self._stack[-1] if self._stack else None, **(attrs or {})}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    span["counts"] = counter(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
                    span["count_error"] = repr(exc)
            return result

        return traced

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("quorum.")}
        for layer, fname, counter in TRACED:
            mod = modules.get(f"quorum.{layer}")
            original = getattr(mod, fname, None)
            if original is None:
                continue
            if (layer, fname) == ("verify", "run_suites") and hasattr(mod, "SUITES"):
                wrapper = self._split_suites(original, mod.SUITES)
            else:
                wrapper = self.wrap(f"{layer}.{fname}", original, counter)
            for other in modules.values():
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapper)

    def _split_suites(self, run_suites, suites):
        """Call ``run_suites`` once per suite, in order, so each gets a span."""

        def split(names, *args, **kwargs):
            names = [names] if isinstance(names, str) else list(names)
            expanded = [s for n in names for s in (suites if n == "all" else (n,))]
            results = []
            for suite in dict.fromkeys(expanded):
                traced = self.wrap("verify.run_suites", run_suites,
                                   lambda a, k, r: {"checks": len(r)}, {"suite": suite})
                results.extend(traced(suite, *args, **kwargs))
            return results

        return split


def run_oracle(name: str) -> float:
    from quorum import oracle

    import workloads

    if name == "expected-accuracy-isp":
        return oracle.expected_accuracy("isp", workloads.ISP_ACCURACIES, workloads.ISP_K)
    if name == "mixture-posterior":
        mixture = oracle.DifficultyMixture.log_uniform(*workloads.MIXTURE_RANGE)
        return oracle.mixture_expected_accuracy(
            "posterior", workloads.MIXTURE_ABILITIES, mixture, workloads.MIXTURE_K
        )
    raise SystemExit(f"unknown oracle call {name!r}")


def main(argv: list[str]) -> int:
    spans_path = None
    op_id = 0
    while argv and argv[0].startswith("--"):
        if argv[0] == "--spans":
            spans_path = argv[1]
        elif argv[0] == "--op-id":
            op_id = int(argv[1])
        else:
            raise SystemExit(f"unknown option {argv[0]}")
        argv = argv[2:]
    kind, args = argv[0], argv[1:]

    tracer = Tracer(op_id) if spans_path else None
    start = time.perf_counter()
    import quorum.cli

    if tracer is not None:
        tracer.record("cli.import", start, time.perf_counter())
        tracer.install()
    code = 0
    try:
        if kind == "cli":
            try:
                quorum.cli.main.main(args=args, prog_name="quorum")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        elif kind == "oracle":
            print(json.dumps({"value": run_oracle(args[0])}))
        else:
            raise SystemExit(f"unknown operation kind {kind!r}")
    finally:
        if tracer is not None:
            with open(spans_path, "w") as fh:
                json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
