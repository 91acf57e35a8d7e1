"""Spans around the package's public entry points, recorded from outside.

``Tracer.install`` replaces each listed module attribute with a wrapper, so
calls from other layers are attributed too (a simulator calling
``rank1.exponent``, a family generator calling ``rank1.lambda_member``).
Spans stay in memory as tuples until the run ends.
Helpers called in tight loops (``nth_prime``, ``is_prime``, ``formula._ev``,
``eval_term``, ``limitsim._record_facts``) are deliberately left bare.
"""

from __future__ import annotations

import statistics
import time

# (layer, attribute path) for every traced entry point; a path with a dot is
# a classmethod on a class of that module.
ENTRY_POINTS = [
    ("words", "is_primitive"), ("words", "nielsen_reduce"),
    ("dihedral", "is_generating_pair"), ("dihedral", "is_primitive_pair"),
    ("dihedral", "scott_sentence_dinf"),
    ("rank1", "contains"), ("rank1", "exponent"), ("rank1", "prime_index"),
    ("rank1", "is_isomorphic"), ("rank1", "classify"), ("rank1", "scott_sentence"),
    ("rank1", "lambda_member"),
    ("fgab", "normalize_torsion"), ("fgab", "table_from_invariant_factors"),
    ("fgab", "scott_sentence_finite"), ("fgab", "scott_sentence_zn"),
    ("fgab", "scott_sentence_fg_abelian"), ("fgab", "scott_sentence_sigma3_fg"),
    ("formula", "evaluate_exact"), ("formula", "classify"), ("formula", "render"),
    ("formula", "dumps"), ("formula", "loads"), ("formula", "FiniteStructure.from_table"),
    ("limitsim", "run_abelian"), ("limitsim", "run_dihedral"), ("limitsim", "run_rank1"),
    ("limitsim", "run_cofinality"),
    ("cli", "main"),
]

# decision, evaluation and simulator entries also report a median latency
P50_ENTRIES = {
    "words.is_primitive", "words.nielsen_reduce", "dihedral.is_generating_pair",
    "dihedral.is_primitive_pair", "rank1.contains", "rank1.is_isomorphic",
    "rank1.classify", "fgab.normalize_torsion", "formula.evaluate_exact",
    "limitsim.run_abelian", "limitsim.run_dihedral", "limitsim.run_rank1",
    "limitsim.run_cofinality",
}

LAYERS = ["words", "dihedral", "fgab", "rank1", "formula", "limitsim", "cli"]


def _count_reduction(args, result, counts):
    # every decision reduces its tuple exactly once, so this counts each input once
    counts["words.letters_in"] += sum(len(w) for w in args[0].words)
    counts["words.nielsen_reduce.moves"] += len(result[1])


def _count_dihedral(args, result, counts):
    counts["dihedral.letters_in"] += len(args[0]) + len(args[1])


def _count_evaluate(args, result, counts):
    counts["formula.evaluate_exact.results"] += 1
    counts["formula.evaluate_exact.exact"] += bool(result[1])


def _count_simulator(args, result, counts):
    verification = result[-1]
    counts["limitsim.runs"] += 1
    counts["limitsim.verify_ok"] += bool(verification.ok)
    if len(result) == 3:  # cofinality returns (result, verification) only
        reports = result[0]
        counts["limitsim.stages"] += len(reports)
        counts["limitsim.facts"] += reports[-1].fact_count


# counts read from arguments and outputs at the boundary, keyed by span name
COUNTERS = {
    "words.nielsen_reduce": _count_reduction,
    "dihedral.is_generating_pair": _count_dihedral,
    "dihedral.is_primitive_pair": _count_dihedral,
    "formula.evaluate_exact": _count_evaluate,
    "limitsim.run_abelian": _count_simulator,
    "limitsim.run_dihedral": _count_simulator,
    "limitsim.run_rank1": _count_simulator,
    "limitsim.run_cofinality": _count_simulator,
}


class Tracer:
    """Records (name, start_ns, end_ns, parent, op) for every wrapped call;
    the times are the process's CPU time."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        for layer, path in ENTRY_POINTS:
            owner = getattr(package, layer)
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            name = f"{layer}.{path}"
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
        for key in ("words.letters_in", "words.nielsen_reduce.moves", "dihedral.letters_in",
                    "formula.evaluate_exact.results", "formula.evaluate_exact.exact",
                    "limitsim.runs", "limitsim.verify_ok", "limitsim.stages", "limitsim.facts"):
            self.counts[key] = 0

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.process_time_ns  # CPU time, as for the ops around the spans

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if counter is not None:
                counter(args, result, self.counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict]:
        """Per entry point: calls, self seconds, median duration."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        durations: dict[str, list[int]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[i]
            entry["total_ns"] += end - start
            durations.setdefault(name, []).append(end - start)
        for name, values in durations.items():
            out[name]["p50_us"] = statistics.median(values) / 1e3
        return out


def layer_metrics(summary: dict, counts: dict, busy_ns: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, with units, from a tracer summary."""
    metrics: dict[str, tuple[float, str]] = {}
    layer_self = {layer: 0 for layer in LAYERS}
    for layer, path in ENTRY_POINTS:
        name = f"{layer}.{path}"
        entry = summary.get(name, {"calls": 0, "self_ns": 0, "p50_us": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.self_s"] = (entry["self_ns"] / 1e9, "s")
        if name in P50_ENTRIES:
            metrics[f"{name}.p50_us"] = (entry.get("p50_us", 0.0), "us")
        layer_self[layer] += entry["self_ns"]
    for layer in LAYERS:
        metrics[f"{layer}.busy_share"] = (layer_self[layer] / busy_ns if busy_ns else 0.0,
                                          "ratio")
    metrics["words.letters_in"] = (counts["words.letters_in"], "count")
    metrics["words.nielsen_reduce.moves"] = (counts["words.nielsen_reduce.moves"], "count")
    metrics["dihedral.letters_in"] = (counts["dihedral.letters_in"], "count")
    results = counts["formula.evaluate_exact.results"]
    metrics["formula.evaluate_exact.exact_share"] = (
        counts["formula.evaluate_exact.exact"] / results if results else 0.0, "ratio")
    sim_ns = sum(summary.get(f"limitsim.{fn}", {}).get("total_ns", 0)
                 for fn in ("run_abelian", "run_dihedral", "run_rank1"))
    metrics["limitsim.stages"] = (counts["limitsim.stages"], "count")
    metrics["limitsim.facts"] = (counts["limitsim.facts"], "count")
    metrics["limitsim.facts_per_s"] = (counts["limitsim.facts"] / (sim_ns / 1e9)
                                       if sim_ns else 0.0, "1/s")
    runs = counts["limitsim.runs"]
    metrics["limitsim.verify_ok_share"] = (counts["limitsim.verify_ok"] / runs if runs else 0.0,
                                           "ratio")
    return metrics
