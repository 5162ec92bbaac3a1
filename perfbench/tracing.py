"""Per-layer tracing by wrapping `constel` functions from the outside.

`install()` replaces each function in TARGETS, in every loaded `constel`
module that holds it, and each listed method on its class, by a timing
wrapper.  Wrappers keep, per metric key, the number of calls, the time
in outermost calls (a call nested in a call of the same key is not
counted twice) and the self time: a call's duration minus the part its
wrapped children cover.  Calls of coarse functions are also kept as
spans (key, start, end, parent span) in memory; hot functions, called
up to millions of times per pass, are only aggregated.

Nothing is patched unless `install()` is called, so untraced runs execute
the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

MODULES = ("perms", "automata", "groups", "gaschuetz", "constellations",
           "completion", "dissolve", "closure", "words", "cli")


def _count(name, amount_of):
    def hook(tracer, args, result):
        tracer.counts[name] += amount_of(args, result)
    return hook


def _linear_pair(tracer, args, result):
    """Count visits of maximal pairs: consecutive calls on the
    constellations of one pair share its subgraphs."""
    c = args[2]
    pair = (id(c.xi), id(c.theta))
    if pair != tracer.last_pair:
        tracer.counts["dissolve.pair_visits"] += 1
        tracer.last_pair = pair


def _lift(tracer, args, result):
    tracer.counts["dissolve.lifted_vertices"] += len(result[0].vertices)
    tracer.counts["dissolve.scanned_vertices"] += args[1].order


def _cuts(tracer, args, result):
    tracer.counts["constellations.masks"] += 2 ** (args[0].n - 1) - 1
    tracer.counts["constellations.bonds"] += len(result)


# (module, function or Class.method, metric key, keep spans, result hook)
TARGETS = [
    ("perms", "Permutation.__mul__", "perms.mul", False, None),
    ("perms", "is_transitive", "perms.transitivity", True, None),
    ("perms", "is_primitive", "perms.primitivity", True, None),
    ("perms", "_minimal_block_size", "perms.primitivity", False, None),
    ("perms", "alternating_certificate", "perms.certificate", True, None),
    ("automata", "fold", "automata.fold", True, None),
    ("automata", "canonical", "automata.canonical", False, None),
    ("automata", "trim", "automata.trim", True, None),
    ("automata", "embed_check", "automata.embed_check", False,
     _count("automata.embed_hits", lambda a, r: r is not None)),
    ("automata", "Subgraph.component_of", "automata.component", False, None),
    ("automata", "InverseAutomaton.component_of", "automata.component", False, None),
    ("automata", "Subgraph.__post_init__", "automata.subgraph", False, None),
    ("automata", "induced_subgraph", "automata.induced_subgraph", False, None),
    ("automata", "read_aut", "automata.aut_io", False, None),
    ("automata", "write_aut", "automata.aut_io", False, None),
    ("automata", "transition_group", "automata.transition_group", True, None),
    ("groups", "materialize", "groups.materialize", True, None),
    ("groups", "_generate", "groups.generate", True,
     _count("groups.elements", lambda a, r: r.order)),
    ("groups", "MaterializedGroup.mul_idx", "groups.mul_idx", False, None),
    ("groups", "MaterializedGroup.inv_idx", "groups.inv_idx", False, None),
    ("groups", "MaterializedGroup.evaluate", "groups.evaluate", False, None),
    ("groups", "canonical_morphism", "groups.morphism", True, None),
    ("groups", "Morphism.compose", "groups.morphism", True, None),
    ("groups", "traversal_vector", "groups.traversal_vector", False, None),
    ("groups", "subgroup_closure", "groups.subgroup_closure", True, None),
    ("gaschuetz", "GaschuetzLayer.mul", "gaschuetz.mul", False, None),
    ("gaschuetz", "GaschuetzLayer.inv", "gaschuetz.inv", False, None),
    ("gaschuetz", "GaschuetzLayer.evaluate", "gaschuetz.evaluate", False, None),
    ("gaschuetz", "GaschuetzLayer.is_identity", "gaschuetz.evaluate", False, None),
    ("gaschuetz", "GaschuetzLayer.materialize", "gaschuetz.materialize", True, None),
    ("gaschuetz", "build_tower", "gaschuetz.build_tower", True, None),
    ("gaschuetz", "coprime_structure_checks", "gaschuetz.structure", True, None),
    ("gaschuetz", "layer_abelianization", "gaschuetz.abelianization", True, None),
    ("constellations", "minimal_cut_sets", "constellations.cut_enum", True, _cuts),
    ("constellations", "maximal_constellations", "constellations.pairs", True, None),
    ("constellations", "Constellation.__post_init__", "constellations.validate", False, None),
    ("constellations", "delta_a", "constellations.delta", True, None),
    ("constellations", "amalgams_of", "constellations.assemble", True, None),
    ("constellations", "assemble_AG", "constellations.assemble", True, None),
    ("completion", "complete_to_alternating", "completion.complete", True, None),
    ("completion", "predissolver_certificate", "completion.predissolver", True, None),
    ("dissolve", "dissolve_all", "dissolve.dissolve_all", True, None),
    ("dissolve", "reachable_lift", "dissolve.lift", True, _lift),
    ("dissolve", "dissolves_materialized", "dissolve.reach", True, None),
    ("dissolve", "dissolves_linear", "dissolve.linear", True, _linear_pair),
    ("dissolve", "GFpSpan.__init__", "dissolve.span_new", False, None),
    ("dissolve", "GFpSpan.add", "dissolve.span", False, None),
    ("dissolve", "GFpSpan.contains", "dissolve.span", False, None),
    ("dissolve", "GFpSpan.reduce", "dissolve.span_reduce", False, None),
    ("dissolve", "cycle_space_rows", "dissolve.cycle_rows", False, None),
    ("dissolve", "key_lemma_report", "dissolve.key_lemma", True, None),
    ("dissolve", "key_lemma_edge", "dissolve.key_lemma_edge", False, None),
    ("dissolve", "schreier_rank_check", "dissolve.rank_check", True, None),
    ("closure", "closure_at_level", "closure.closure", True, None),
    ("closure", "schreier_graph", "closure.schreier_graph", True, None),
    ("closure", "subgroup_image", "closure.subgroup_image", True, None),
    ("words", "parse_word", "words.parse", False, None),
    ("words", "format_word", "words.format", False, None),
    ("cli", "main", "cli.main", True, None),
    ("cli", "parse_group_spec", "cli.parse", True, None),
    ("cli", "parse_layers", "cli.parse", True, None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []   # (key, start, end, parent span index or -1)
        self.stats: dict[str, list] = {}  # key -> [calls, outer_s, self_s, depth]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.last_pair = None
        self._stack = [[0.0, -1]]  # active calls: [child-covered time, span index]

    def wrap(self, fn, key: str, keep_span: bool, hook):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            frame = [0.0, len(spans) if keep_span else parent]
            if keep_span:
                spans.append(None)
            stack.append(frame)
            stat[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[3] -= 1
                took = t1 - t0
                stat[0] += 1
                if not stat[3]:
                    stat[1] += took
                stat[2] += took - frame[0]
                stack[-1][0] += took
                if keep_span:
                    spans[frame[1]] = (key, t0, t1, parent)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "constel" or name.startswith("constel.")]
        for module_name, attr, key, keep_span, hook in TARGETS:
            module = importlib.import_module("constel." + module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(cls.__dict__[meth], key, keep_span, hook))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, key, keep_span, hook)
            for m in loaded:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    # ----------------------------------------------------------- summaries

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0])[0]

    def outer(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0])[1]

    def self_time(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0, 0.0])[2]

    def module_self(self, module: str) -> float:
        return sum(s[2] for k, s in self.stats.items() if k.split(".")[0] == module)

    def call_tree(self) -> dict[tuple, list]:
        """Kept spans merged by their path of keys from the root:
        path -> [calls, total seconds]."""
        paths: list[tuple] = []
        tree: dict[tuple, list] = {}
        for key, t0, t1, parent in self.spans:
            path = (paths[parent] if parent >= 0 else ()) + (key,)
            paths.append(path)
            node = tree.setdefault(path, [0, 0.0])
            node[0] += 1
            node[1] += t1 - t0
        return tree


def _ratio(x: float, y: float) -> float:
    return x / y if y else 0.0


def layer_metrics(t: Tracer, walls: list[float], slowdowns: list[float]) -> dict:
    """Per-layer metrics of one traced pass, by name: (value, unit).
    `walls` and `slowdowns` are those of the untraced pass, then of the
    traced pass; the overhead compares the two at the reference speed."""
    untraced_wall, traced_wall = walls
    s, c = "s", "count"
    cuts = t.outer("constellations.cut_enum")
    m = {
        "perms.certificate_s": (t.outer("perms.certificate"), s),
        "perms.primitivity_s": (t.self_time("perms.primitivity"), s),
        "perms.transitivity_s": (t.outer("perms.transitivity"), s),
        "perms.mul_calls": (t.calls("perms.mul"), c),
        "automata.fold_s": (t.self_time("automata.fold"), s),
        "automata.canonical_s": (t.outer("automata.canonical"), s),
        "automata.embed_check_s": (t.outer("automata.embed_check"), s),
        "automata.embed_attempts": (t.calls("automata.embed_check"), c),
        "automata.embed_hit_ratio": (_ratio(t.counts["automata.embed_hits"],
                                            t.calls("automata.embed_check")), "ratio"),
        "automata.component_s": (t.outer("automata.component"), s),
        "automata.component_calls": (t.calls("automata.component"), c),
        "automata.subgraph_builds": (t.calls("automata.subgraph"), c),
        "groups.materialize_s": (t.outer("groups.generate"), s),
        "groups.elements": (t.counts["groups.elements"], c),
        "groups.elements_per_s": (_ratio(t.counts["groups.elements"],
                                         t.outer("groups.generate")), "1/s"),
        "groups.mul_idx_calls": (t.calls("groups.mul_idx"), c),
        "groups.mul_idx_s": (t.outer("groups.mul_idx"), s),
        "groups.morphism_s": (t.outer("groups.morphism"), s),
        "gaschuetz.mul_calls": (t.calls("gaschuetz.mul"), c),
        "gaschuetz.mul_s": (t.outer("gaschuetz.mul"), s),
        "gaschuetz.evaluate_s": (t.outer("gaschuetz.evaluate"), s),
        "gaschuetz.structure_s": (t.outer("gaschuetz.structure"), s),
        "gaschuetz.abelianization_s": (t.outer("gaschuetz.abelianization"), s),
        "constellations.cut_enum_s": (cuts, s),
        "constellations.masks_tried": (t.counts["constellations.masks"], c),
        "constellations.bond_yield": (_ratio(t.counts["constellations.bonds"],
                                             t.counts["constellations.masks"]), "ratio"),
        "constellations.pairs_s": (t.outer("constellations.pairs") - cuts, s),
        "constellations.assemble_s": (t.outer("constellations.assemble"), s),
        "completion.complete_s": (t.outer("completion.complete")
                                  - t.outer("perms.certificate"), s),
        "completion.predissolver_s": (t.outer("completion.predissolver"), s),
        "dissolve.lift_s": (t.outer("dissolve.lift"), s),
        "dissolve.lifts": (t.calls("dissolve.lift"), c),
        "dissolve.lift_yield": (_ratio(t.counts["dissolve.lifted_vertices"],
                                       t.counts["dissolve.scanned_vertices"]), "ratio"),
        "dissolve.reach_s": (t.outer("dissolve.reach"), s),
        "dissolve.linear_s": (t.outer("dissolve.linear"), s),
        "dissolve.span_s": (t.self_time("dissolve.span") + t.self_time("dissolve.span_reduce")
                            + t.self_time("dissolve.span_new"), s),
        "dissolve.span_reduces": (t.calls("dissolve.span_reduce"), c),
        "dissolve.spans_per_pair": (_ratio(t.calls("dissolve.span_new"),
                                           t.counts["dissolve.pair_visits"]), "ratio"),
        "dissolve.key_lemma_s": (t.outer("dissolve.key_lemma"), s),
        "closure.closure_s": (t.outer("closure.closure"), s),
        "words.parse_s": (t.outer("words.parse"), s),
    }
    for module in MODULES:
        m[module + ".self_s"] = (t.module_self(module), s)
    attributed = sum(t.module_self(module) for module in MODULES)
    m["bench.unattributed_s"] = (traced_wall - attributed, s)
    m["trace.traced_wall_s"] = (traced_wall, s)
    m["trace.untraced_wall_s"] = (untraced_wall, s)
    m["trace.overhead_pct"] = (100.0 * (traced_wall * slowdowns[0]
                                        / (untraced_wall * slowdowns[1]) - 1.0), "%")
    m["host.slowdown"] = (statistics.fmean(slowdowns), "ratio")
    return m
