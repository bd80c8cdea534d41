"""Outside-in tracing of one pass: the public callables of each module are
wrapped where their callers look them up, spans are kept in memory, and
per-layer self times and counts are derived from them once the pass ends.

Nothing under ``src/`` is changed; :meth:`Tracer.install` patches module
and class attributes and :meth:`Tracer.remove` puts the originals back.
"""

from __future__ import annotations

import contextlib
import json
import types
from time import perf_counter

import mitlplan
from mitlplan import cli, mitl, product, search, tba, wts

MODULES = (mitlplan, cli, mitl, product, search, tba, wts)

# span name of each wrapped function; several functions may share a span
# name, whose self times then add up
FUNCTIONS = {
    "cli.load": (cli.load_problem, cli.load_model, cli.load_runs),
    "cli.write": (cli.bundle_to_json, cli.trace_csv, cli.timeline_svg,
                  cli._write),
    "cli.other": (cli.main, cli.solve),
    "tba.translate": (tba.translate_mitl,),
    "tba.intersect": (tba.intersect,),
    "tba.member": (tba.accepts_lasso,),
    "tba.serialize": (tba.tba_to_dict,),
    "mitl.parse": (mitl.parse_formula,),
    "mitl.eval": (mitl.satisfies, mitl.first_violation),
    "wts.merge": (wts.collective_run, wts.collective_word_of,
                  wts.timed_word_of),
    "search.project": (search.project_plan,),
}
LAYERS = {"product.global": product.GlobalProduct,
          "product.team": product.TeamProduct,
          "product.local": product.LocalProduct}
ROOT = "harness"

# per-layer metric -> span name whose self time it reports
SELF_TIMES = {
    "product.global.self_s": "product.global",
    "product.team.self_s": "product.team",
    "product.local.self_s": "product.local",
    "search.self_s": "search.global",
    "search.local_s": "search.local",
    "search.project_s": "search.project",
    "tba.translate_s": "tba.translate",
    "tba.intersect_s": "tba.intersect",
    "tba.member_s": "tba.member",
    "tba.serialize_s": "tba.serialize",
    "mitl.parse_s": "mitl.parse",
    "mitl.eval_s": "mitl.eval",
    "wts.merge_s": "wts.merge",
    "cli.load_s": "cli.load",
    "cli.write_s": "cli.write",
    "cli.other_s": "cli.other",
    "harness.self_s": ROOT,
}


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1)
        self._stack = []
        self._patches = []     # (owner, attribute, original or None)
        self.counts = {}
        # layer -> graph -> states expanded; keyed by graph because equal
        # state tuples of two agents' local products are different states
        self.seen = {layer: {} for layer in LAYERS}

    # --- spans ---------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        self.spans.append((name, perf_counter(), None,
                           self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def _close(self, index):
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, perf_counter(), parent)
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """The span of the whole pass."""
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)

    def _count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name, function, after=None):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                self._close(index)
        return traced

    # --- installation ----------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, original, replacement):
        for module in MODULES:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    def install(self):
        after = {
            tba.translate_mitl: self._after_translate,
            mitl.satisfies: self._after_eval,
            mitl.first_violation: self._after_eval,
            wts.collective_word_of: self._after_merge,
        }
        for name, functions in FUNCTIONS.items():
            for function in functions:
                self._patch_everywhere(function, self._wrap(
                    name, function, after.get(function)))
        self._patch_everywhere(search.find_accepting_lasso,
                               self._search_wrapper(search.find_accepting_lasso))
        for layer, cls in LAYERS.items():
            self._patch(cls, "successors", self._successors_wrapper(
                layer, cls.successors))
        # the JSON dump of plans and automata happens inside cli
        proxy = types.SimpleNamespace(**vars(json))
        proxy.dumps = self._wrap("cli.write", json.dumps)
        self._patch(cli, "json", proxy)

    def remove(self):
        for owner, attribute, original in reversed(self._patches):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()

    # --- counting wrappers -----------------------------------------------

    def _successors_wrapper(self, layer, successors):
        per_graph = self.seen[layer]

        def traced(graph, state):
            index = self._open(layer)
            try:
                result = successors(graph, state)
                self._count(f"{layer}.calls")
                seen = per_graph.setdefault(graph, set())
                if state not in seen:
                    seen.add(state)
                    self._count(f"{layer}.edges", len(result))
                return result
            finally:
                self._close(index)
        return traced

    def _search_wrapper(self, find):
        """The global search and the per-agent short-circuit get spans of
        their own; the search inside ``accepts_lasso`` stays part of it."""
        def traced(graph, *args, **kwargs):
            if isinstance(graph, product.GlobalProduct):
                name = "search.global"
            elif isinstance(graph, product.LocalProduct):
                name = "search.local"
            else:
                return find(graph, *args, **kwargs)
            index = self._open(name)
            try:
                lasso = find(graph, *args, **kwargs)
                if name == "search.global" and lasso is not None:
                    self.counts["search.stem_len"] = len(lasso.stem_states)
                    self.counts["search.cycle_len"] = len(lasso.cycle_steps)
                return lasso
            finally:
                self._close(index)
        return traced

    def _after_translate(self, args, automaton):
        self._count("tba.locations", len(automaton.locations))
        self._count("tba.edges", len(automaton.edges))
        self._count("tba.clocks", len(automaton.clocks))

    def _after_eval(self, args, result):
        self._count("mitl.eval_calls")

    def _after_merge(self, args, word):
        length = word.prefix_length + word.cycle_length
        self.counts["wts.merged_len"] = max(
            self.counts.get("wts.merged_len", 0), length)

    # --- results ---------------------------------------------------------

    def self_times(self) -> dict:
        totals = {}
        for name, start, end, parent in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
            if parent >= 0:
                outer = self.spans[parent][0]
                totals[outer] = totals.get(outer, 0.0) - (end - start)
        return totals

    def metrics(self) -> dict:
        """Every per-layer metric of the pass; layers that did not run
        report zero."""
        selfs = self.self_times()
        out = {metric: selfs.get(span, 0.0)
               for metric, span in SELF_TIMES.items()}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.counts.get(f"{layer}.calls", 0)
            out[f"{layer}.states"] = sum(map(len, self.seen[layer].values()))
            out[f"{layer}.edges"] = self.counts.get(f"{layer}.edges", 0)
        for layer in ("product.team", "product.local"):
            calls = out[f"{layer}.calls"]
            out[f"{layer}.hit_ratio"] = (
                1 - out[f"{layer}.states"] / calls if calls else 0.0)
        states = out["product.global.states"]
        out["search.reexpand_ratio"] = (
            out["product.global.calls"] / states if states else 0.0)
        for key in ("search.stem_len", "search.cycle_len", "tba.locations",
                    "tba.edges", "tba.clocks", "mitl.eval_calls",
                    "wts.merged_len"):
            out[key] = self.counts.get(key, 0)
        return out

    def wall(self) -> float:
        _, start, end, _ = self.spans[0]
        return end - start

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start,end,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index},{name},{start:.9f},{end:.9f},{parent}\n")
