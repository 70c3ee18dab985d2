"""Outside-in layer tracing: wrap hilbcalc's public functions, record spans.

``Tracer.install`` replaces each traced function in every ``hilbcalc.*``
namespace that binds it (``from ... import`` copies the binding) and each
traced method on its class.  The wrappers only append to lists in memory;
``Tracer.write`` turns the spans into JSON after the timed call.
``layer_metrics`` reads that file back and computes the per-layer metrics.
Nothing in the package source is touched.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter_ns

# (module, attribute, metric prefix): the layer boundaries spans are taken at.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("dsl", "parse_text", "dsl.parse_text"),
    ("theorem", "verify_depth_sensitivity", "theorem.verify_depth_sensitivity"),
    ("sampling", "random_module", "sampling.random_module"),
    ("superficial", "find_superficial_sequence", "superficial.find_superficial_sequence"),
    ("superficial", "depth", "superficial.depth"),
    ("superficial", "is_superficial", "superficial.is_superficial"),
    ("superficial", "is_regular", "superficial.is_regular"),
    ("superficial", "quotient_module", "superficial.quotient_module"),
    ("presentation", "series_of_cyclic", "presentation.series_of_cyclic"),
    ("series", "hilbert_coefficients", "series.hilbert_coefficients"),
    ("series", "expand", "series.expand"),
    ("polyring", "buchberger", "polyring.buchberger"),
    ("polyring", "normal_form", "polyring.normal_form"),
    ("polyring", "quotient_by_linear", "polyring.quotient_by_linear"),
    ("polyring", "LinearElimination.map_polynomial", "polyring.map_polynomial"),
    ("linalg", "FractionEchelon.insert", "linalg.FractionEchelon.insert"),
    ("linalg", "int_rank", "linalg.int_rank"),
    ("oracle", "graded_dimension", "oracle.graded_dimension"),
)
LABELS = tuple(t[2] for t in TARGETS)

# Per-layer metrics the traced run reports, with units.  Times are in the
# unit of `wall_rel`: seconds divided by the host-speed probe of the same
# sample.  Every name not ending in `self_rel` or `overhead_rel` is an exact
# count or a ratio of exact counts, so it repeats exactly for one input.
PER_LAYER = (
    ("polyring.normal_form.calls", "count"),
    ("polyring.normal_form.self_rel", "x"),
    ("polyring.buchberger.calls", "count"),
    ("polyring.buchberger.self_rel", "x"),
    ("polyring.buchberger.distinct_ratio", "ratio"),
    ("polyring.buchberger.basis_max", "count"),
    ("polyring.buchberger.coeff_bits_max", "bits"),
    ("polyring.map_polynomial.calls", "count"),
    ("polyring.map_polynomial.self_rel", "x"),
    ("polyring.quotient_by_linear.calls", "count"),
    ("polyring.quotient_by_linear.self_rel", "x"),
    ("superficial.quotient_module.calls", "count"),
    ("superficial.quotient_module.distinct_ratio", "ratio"),
    ("presentation.series_of_cyclic.calls", "count"),
    ("presentation.series_of_cyclic.self_rel", "x"),
    ("presentation.series_of_cyclic.distinct_ratio", "ratio"),
    ("superficial.depth.calls", "count"),
    ("superficial.depth.self_rel", "x"),
    ("superficial.depth.regular_hit_ratio", "ratio"),
    ("superficial.find_superficial_sequence.calls", "count"),
    ("superficial.find_superficial_sequence.self_rel", "x"),
    ("superficial.find_superficial_sequence.hit_ratio", "ratio"),
    ("superficial.is_superficial.calls", "count"),
    ("superficial.is_regular.calls", "count"),
    ("linalg.FractionEchelon.insert.calls", "count"),
    ("linalg.FractionEchelon.insert.self_rel", "x"),
    ("linalg.int_rank.calls", "count"),
    ("linalg.int_rank.self_rel", "x"),
    ("linalg.int_rank.cells", "count"),
    ("oracle.graded_dimension.calls", "count"),
    ("oracle.graded_dimension.self_rel", "x"),
    ("series.hilbert_coefficients.self_rel", "x"),
    ("series.expand.self_rel", "x"),
    ("theorem.verify_depth_sensitivity.calls", "count"),
    ("theorem.verify_depth_sensitivity.self_rel", "x"),
    ("dsl.parse_text.calls", "count"),
    ("dsl.parse_text.self_rel", "x"),
    ("sampling.random_module.calls", "count"),
    ("sampling.random_module.self_rel", "x"),
    ("cli.main.self_rel", "x"),
    ("trace.overhead_rel", "x"),
)


def is_timing(name: str) -> bool:
    return name.endswith("self_rel") or name.endswith("overhead_rel")


def _coeff_bits(basis) -> int:
    return max(
        (
            max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            for g in basis
            for c in g.terms.values()
        ),
        default=0,
    )


class Tracer:
    """Spans of the traced calls of one process, kept in memory."""

    # labels whose calls keep (args, result) for the facts written at exit
    _KEEP = {
        "polyring.buchberger",
        "superficial.quotient_module",
        "presentation.series_of_cyclic",
        "superficial.depth",
        "superficial.find_superficial_sequence",
        "linalg.int_rank",
    }

    def __init__(self) -> None:
        self.spans: list = []  # [label index, start ns, end ns, parent span]
        self.kept: dict[int, tuple] = {}
        self._stack: list[int] = []

    def _wrap(self, label_index: int, fn):
        spans, stack, kept = self.spans, self._stack, self.kept
        keep = LABELS[label_index] in self._KEEP
        materialize = LABELS[label_index] == "linalg.int_rank"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if materialize and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (label_index, start, end, parent)
                if keep:
                    kept[index] = (args, kwargs, result)

        return traced

    def install(self) -> None:
        """Wrap every target; call after importing hilbcalc."""
        for label_index, (module, attribute, _) in enumerate(TARGETS):
            mod = importlib.import_module(f"hilbcalc.{module}")
            owner_name, _, name = attribute.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                setattr(owner, name, self._wrap(label_index, getattr(owner, name)))
                continue
            original = getattr(mod, name)
            wrapper = self._wrap(label_index, original)
            for mod_name, namespace in list(sys.modules.items()):
                if mod_name != "hilbcalc" and not mod_name.startswith("hilbcalc."):
                    continue
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)

    def _fact(self, label: str, args, kwargs, result, key_ids: dict):
        """The exact, JSON-able summary of one kept call."""

        def key_id(key) -> int:
            return key_ids.setdefault(key, len(key_ids))

        if label == "polyring.buchberger":
            ideal = args[0]
            order = args[1] if len(args) > 1 else kwargs.get("order")
            token = order.cache_token() if order is not None else None
            basis = result or ()
            return [key_id((ideal.canonical_key(), token)), len(basis), _coeff_bits(basis)]
        if label == "superficial.quotient_module":
            return key_id((args[0].key(), args[1]))
        if label == "presentation.series_of_cyclic":
            return key_id(args[0].key())
        if label == "superficial.depth":
            return len(result.chain) if result is not None else 0
        if label == "superficial.find_superficial_sequence":
            if result is None:
                return [0, 0]
            return [len(result.witness or ()), result.trials_used]
        if label == "linalg.int_rank":
            rows = args[0]
            return len(rows) * (len(rows[0]) if rows else 0)
        raise KeyError(label)

    def write(self, path: Path) -> None:
        key_ids: dict = {}
        facts = {
            str(i): self._fact(LABELS[self.spans[i][0]], args, kwargs, result, key_ids)
            for i, (args, kwargs, result) in self.kept.items()
        }
        doc = {"labels": list(LABELS), "spans": self.spans, "facts": facts}
        path.write_text(json.dumps(doc), encoding="utf-8")


def layer_metrics(path: Path, probe_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced sample, from its span file and the
    sample's probe duration."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    labels = doc["labels"]
    spans = doc["spans"]
    facts = {int(k): v for k, v in doc["facts"].items()}
    children = [0] * len(spans)
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += 1
            covered[parent] += end - start
    self_ns = {label: 0 for label in labels}
    by_label: dict[str, list[int]] = {label: [] for label in labels}
    for i, (label_index, start, end, _) in enumerate(spans):
        label = labels[label_index]
        self_ns[label] += end - start - covered[i]
        by_label[label].append(i)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def distinct_ratio(label: str) -> float:
        ids = [facts[i] if label != "polyring.buchberger" else facts[i][0] for i in by_label[label]]
        return ratio(len(set(ids)), len(ids))

    depth_label = labels.index("superficial.depth")

    def inside_depth(i: int) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == depth_label:
                return True
            parent = spans[parent][3]
        return False

    # a depth call with no child span was answered from the depth cache
    links = sum(facts[i] for i in by_label["superficial.depth"] if children[i])
    regular_in_depth = sum(1 for i in by_label["superficial.is_regular"] if inside_depth(i))
    witness = [facts[i] for i in by_label["superficial.find_superficial_sequence"]]
    gb = [facts[i] for i in by_label["polyring.buchberger"]]

    derived = {
        "polyring.buchberger.distinct_ratio": distinct_ratio("polyring.buchberger"),
        "polyring.buchberger.basis_max": max((f[1] for f in gb), default=0),
        "polyring.buchberger.coeff_bits_max": max((f[2] for f in gb), default=0),
        "superficial.quotient_module.distinct_ratio": distinct_ratio("superficial.quotient_module"),
        "presentation.series_of_cyclic.distinct_ratio": distinct_ratio("presentation.series_of_cyclic"),
        "superficial.depth.regular_hit_ratio": ratio(links, regular_in_depth),
        "superficial.find_superficial_sequence.hit_ratio": ratio(
            sum(w for w, _ in witness), sum(w + t for w, t in witness)
        ),
        "linalg.int_rank.cells": sum(facts[i] for i in by_label["linalg.int_rank"]),
    }
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        label, _, stat = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif stat == "calls":
            out[name] = len(by_label[label])
        elif stat == "self_rel":
            out[name] = self_ns[label] / 1e9 / probe_s
    return out
