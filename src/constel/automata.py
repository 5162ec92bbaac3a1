"""A-labeled graphs in the Serre convention and inverse automata.

Positive edges are triples (src, letter, dst); every edge is implicitly
traversable backwards.  An inverse automaton is a folded graph: at every
vertex each letter has at most one outgoing and at most one incoming
positive edge, so letters act as partial injections on the vertex set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .perms import Permutation, PermGroupGens
from .words import ASCII_LETTERS, Word, reduce as reduce_word


class LabeledGraph:
    """Mutable A-labeled multigraph; vertex ids are arbitrary ints."""

    def __init__(self, n_letters: int, letter_names: tuple[str, ...] | None = None):
        if letter_names is not None and len(letter_names) != n_letters:
            raise ValueError("letter_names length mismatch")
        self.n_letters = n_letters
        self.letter_names = letter_names or tuple(ASCII_LETTERS[:n_letters])
        self.vertices: list[int] = []
        self._vset: set[int] = set()
        self.edges: list[tuple[int, int, int]] = []
        self.base: int | None = None

    def add_vertex(self, v: int) -> int:
        if v not in self._vset:
            self._vset.add(v)
            self.vertices.append(v)
        return v

    def add_edge(self, u: int, letter: int, v: int) -> None:
        if not 0 <= letter < self.n_letters:
            raise ValueError("letter %d out of range" % letter)
        self.add_vertex(u)
        self.add_vertex(v)
        self.edges.append((u, letter, v))

    def set_base(self, v: int) -> None:
        self.add_vertex(v)
        self.base = v


class InverseAutomaton:
    """Folded A-labeled graph on dense vertices 0..n-1."""

    def __init__(self, n: int, n_letters: int, edges=(), base: int | None = None):
        self.n = n
        self.n_letters = n_letters
        self.base = base
        self.fwd: list[dict[int, int]] = [dict() for _ in range(n)]
        self.bwd: list[dict[int, int]] = [dict() for _ in range(n)]
        for u, letter, v in edges:
            self._add_edge(u, letter, v)
        if base is not None and not 0 <= base < n:
            raise ValueError("base vertex %r out of range" % (base,))

    def _add_edge(self, u: int, letter: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("edge endpoint out of range")
        if not 0 <= letter < self.n_letters:
            raise ValueError("letter %d out of range" % letter)
        if self.fwd[u].get(letter, v) != v or self.bwd[v].get(letter, u) != u:
            raise ValueError("graph is not folded at edge (%d, %d, %d)" % (u, letter, v))
        self.fwd[u][letter] = v
        self.bwd[v][letter] = u

    def pos_edges(self) -> list[tuple[int, int, int]]:
        return [(u, letter, self.fwd[u][letter])
                for u in range(self.n) for letter in sorted(self.fwd[u])]

    @property
    def n_pos_edges(self) -> int:
        return sum(len(d) for d in self.fwd)

    def step(self, v: int, letter: int, sign: int) -> int | None:
        return (self.fwd if sign > 0 else self.bwd)[v].get(letter)

    def trace(self, v: int, w: Word) -> int | None:
        for letter, sign in w:
            if letter >= self.n_letters:
                raise ValueError("word letter %d outside automaton alphabet" % letter)
            v = self.step(v, letter, sign)
            if v is None:
                return None
        return v

    def degree(self, v: int) -> int:
        """Number of distinct positive edges incident to v (a loop counts once)."""
        edges = {(v, letter) for letter in self.fwd[v]}
        edges |= {(self.bwd[v][letter], letter) for letter in self.bwd[v]}
        return len(edges)

    def is_complete(self) -> bool:
        return all(len(self.fwd[v]) == self.n_letters for v in range(self.n))

    def missing_outgoing(self, letter: int) -> list[int]:
        return [v for v in range(self.n) if letter not in self.fwd[v]]

    def component_of(self, v: int) -> set[int]:
        return set(bfs_tree(self, v))

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_of(0)) == self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, InverseAutomaton):
            return NotImplemented
        return (self.n, self.n_letters, self.base, set(self.pos_edges())) == \
               (other.n, other.n_letters, other.base, set(other.pos_edges()))

    __hash__ = None

    def __repr__(self):
        return "InverseAutomaton(n=%d, letters=%d, edges=%d, base=%r)" % (
            self.n, self.n_letters, self.n_pos_edges, self.base)


def canonical(aut: InverseAutomaton) -> InverseAutomaton:
    """Renumber vertices in BFS order from the base (letters ascending,
    forward before backward); extra components follow by least old id."""
    order: list[int] = []
    seen = [False] * aut.n
    seeds = [aut.base] if aut.base is not None else []
    seeds += [v for v in range(aut.n)]
    for seed in seeds:
        if seed is None or seen[seed]:
            continue
        seen[seed] = True
        queue = deque([seed])
        while queue:
            v = queue.popleft()
            order.append(v)
            for letter in range(aut.n_letters):
                for nxt in (aut.fwd[v].get(letter), aut.bwd[v].get(letter)):
                    if nxt is not None and not seen[nxt]:
                        seen[nxt] = True
                        queue.append(nxt)
    newid = {v: i for i, v in enumerate(order)}
    edges = [(newid[u], letter, newid[v]) for u, letter, v in aut.pos_edges()]
    base = newid[aut.base] if aut.base is not None else None
    return InverseAutomaton(aut.n, aut.n_letters, edges, base)


def fold(graph: LabeledGraph) -> InverseAutomaton:
    """Stallings folding: the largest quotient that is an inverse automaton.

    Merges vertices whenever two equally-labeled edges share a source or
    share a target; the result is independent of edge order up to the
    canonical renumbering applied at the end.
    """
    ids = list(graph.vertices)
    pos = {vid: i for i, vid in enumerate(ids)}
    n = len(ids)
    parent = list(range(n))
    fwd: list[dict[int, int]] = [dict() for _ in range(n)]
    bwd: list[dict[int, int]] = [dict() for _ in range(n)]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = deque((pos[u], letter, pos[v]) for u, letter, v in graph.edges)

    def merge(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if len(fwd[ra]) + len(bwd[ra]) < len(fwd[rb]) + len(bwd[rb]):
            ra, rb = rb, ra
        parent[rb] = ra
        for letter, t in fwd[rb].items():
            queue.append((rb, letter, t))
        for letter, s in bwd[rb].items():
            queue.append((s, letter, rb))
        fwd[rb] = {}
        bwd[rb] = {}

    while queue:
        u, letter, v = queue.popleft()
        u, v = find(u), find(v)
        w = fwd[u].get(letter)
        if w is not None:
            w = find(w)
            fwd[u][letter] = w
            if w != v:
                merge(v, w)
                queue.append((u, letter, find(w)))
                continue
        x = bwd[v].get(letter)
        if x is not None:
            x = find(x)
            bwd[v][letter] = x
            if x != u:
                merge(u, x)
                queue.append((find(u), letter, v))
                continue
        fwd[u][letter] = v
        bwd[v][letter] = u

    roots = sorted({find(i) for i in range(n)})
    dense = {r: i for i, r in enumerate(roots)}
    edges = [(dense[r], letter, dense[find(t)])
             for r in roots for letter, t in sorted(fwd[r].items())]
    base = dense[find(pos[graph.base])] if graph.base is not None else None
    return canonical(InverseAutomaton(len(roots), graph.n_letters, edges, base))


def trim(aut: InverseAutomaton) -> InverseAutomaton:
    """Remove non-base vertices of degree <= 1 until none remain (the core)."""
    alive_edges = set()
    incident: list[set] = [set() for _ in range(aut.n)]
    for u, letter, v in aut.pos_edges():
        e = (u, letter)
        alive_edges.add(e)
        incident[u].add(e)
        incident[v].add(e)
    alive = [True] * aut.n
    worklist = [v for v in range(aut.n) if v != aut.base and len(incident[v]) <= 1]
    while worklist:
        v = worklist.pop()
        if not alive[v] or v == aut.base or len(incident[v]) > 1:
            continue
        alive[v] = False
        for e in list(incident[v]):
            u, letter = e
            w = aut.fwd[u][letter]
            alive_edges.discard(e)
            for endpoint in (u, w):
                incident[endpoint].discard(e)
                if alive[endpoint] and endpoint != aut.base and len(incident[endpoint]) <= 1:
                    worklist.append(endpoint)
    keep = [v for v in range(aut.n) if alive[v]]
    newid = {v: i for i, v in enumerate(keep)}
    edges = [(newid[u], letter, newid[aut.fwd[u][letter]]) for (u, letter) in sorted(alive_edges)]
    base = newid[aut.base] if aut.base is not None else None
    return canonical(InverseAutomaton(len(keep), aut.n_letters, edges, base))


def bouquet(gens, n_letters: int) -> LabeledGraph:
    """One loop at the base spelling each generator word."""
    g = LabeledGraph(n_letters)
    g.set_base(0)
    nxt = 1
    for w in gens:
        v = 0
        for i, (letter, sign) in enumerate(w):
            last = i == len(w) - 1
            target = 0 if last else nxt
            if not last:
                nxt += 1
            if sign > 0:
                g.add_edge(v, letter, target)
            else:
                g.add_edge(target, letter, v)
            v = target
    return g


def core_of_words(gens, n_letters: int) -> InverseAutomaton:
    """Stallings automaton of the subgroup generated by the given words."""
    return trim(fold(bouquet(gens, n_letters)))


def member(aut: InverseAutomaton, w: Word) -> bool:
    """Whether the reduced form of w labels a closed path at the base."""
    if aut.base is None:
        raise ValueError("membership needs a based automaton")
    return aut.trace(aut.base, reduce_word(w)) == aut.base


def rank_from_core(aut: InverseAutomaton) -> int:
    """First Betti number E - V + 1 of a connected graph."""
    if not aut.is_connected():
        raise ValueError("rank is defined for connected graphs only")
    return aut.n_pos_edges - aut.n + 1


def embed_check(a: InverseAutomaton, c: InverseAutomaton, start: int) -> dict[int, int] | None:
    """The unique base-respecting monomorphism a -> c with base -> start, or None."""
    if a.base is None:
        raise ValueError("embed_check needs a based source automaton")
    if not a.is_connected():
        raise ValueError("embed_check needs a connected source automaton")
    if not 0 <= start < c.n:
        raise ValueError("start vertex out of range")
    mapping = {a.base: start}
    queue = deque([a.base])
    while queue:
        v = queue.popleft()
        for letter in range(a.n_letters):
            for sign in (1, -1):
                w = a.step(v, letter, sign)
                if w is None:
                    continue
                img = c.step(mapping[v], letter, sign)
                if img is None:
                    return None
                if w in mapping:
                    if mapping[w] != img:
                        return None
                else:
                    mapping[w] = img
                    queue.append(w)
    if len(set(mapping.values())) != a.n:
        return None
    return mapping


def pointed_isomorphic(a: InverseAutomaton, b: InverseAutomaton) -> bool:
    return canonical(a) == canonical(b)


def bfs_tree(aut: InverseAutomaton, root: int, edges=None, forward_only: bool = False
             ) -> dict[int, tuple[int, int, int]]:
    """BFS tree from root: vertex -> (previous vertex, letter, sign), in
    discovery order, with the root mapping to (-1, -1, 0).  Letters are
    taken in ascending order, the forward step before the backward one.
    Steps run only over the positive edges (src, letter) in `edges` when
    it is given, and only forward when `forward_only` is set."""
    tree = {root: (-1, -1, 0)}
    order = [root]
    letters = range(aut.n_letters)
    for v in order:
        out, into = aut.fwd[v], aut.bwd[v]
        for letter in letters:
            w = out.get(letter)
            if w is not None and w not in tree and (edges is None or (v, letter) in edges):
                tree[w] = (v, letter, 1)
                order.append(w)
            if forward_only:
                continue
            u = into.get(letter)
            if u is not None and u not in tree and (edges is None or (u, letter) in edges):
                tree[u] = (v, letter, -1)
                order.append(u)
    return tree


def tree_word(tree: dict[int, tuple[int, int, int]], v: int) -> Word | None:
    """Label of the tree path from the root to v, or None off the tree."""
    if v not in tree:
        return None
    pairs = []
    while tree[v][0] >= 0:
        v, letter, sign = tree[v]
        pairs.append((letter, sign))
    return Word(tuple(reversed(pairs)))


def path_word(aut: InverseAutomaton, src: int, dst: int) -> Word | None:
    """Label of a BFS-shortest path src -> dst (letters ascending,
    forward steps preferred at equal depth)."""
    return tree_word(bfs_tree(aut, src), dst)


def product_automaton(a: InverseAutomaton, b: InverseAutomaton) -> InverseAutomaton:
    """Core of the component of (base, base) in the labeled direct product."""
    if a.base is None or b.base is None:
        raise ValueError("product needs based automata")
    if a.n_letters != b.n_letters:
        raise ValueError("alphabet size mismatch")
    pairs, _ = _product_walk(a, b)
    index = {pair: i for i, pair in enumerate(sorted(pairs))}
    edges = [(i, letter, index[(a.fwd[u][letter], b.fwd[v][letter])])
             for (u, v), i in index.items() for letter in range(a.n_letters)
             if letter in a.fwd[u] and letter in b.fwd[v]]
    return trim(InverseAutomaton(len(index), a.n_letters, edges, index[(a.base, b.base)]))


def transition_group(aut: InverseAutomaton) -> PermGroupGens:
    """Letter actions of a complete automaton as permutations."""
    if not aut.is_complete():
        raise ValueError("transition group requires a complete automaton")
    perms = tuple(Permutation(tuple(aut.fwd[v][letter] for v in range(aut.n)))
                  for letter in range(aut.n_letters))
    return PermGroupGens(aut.n, perms)


@dataclass(frozen=True, eq=False)
class Subgraph:
    """Subgraph of an inverse automaton: positive edge ids plus vertices.

    An edge is identified by (src, letter); the target is determined by
    the parent.  The vertex set may include isolated vertices.
    """

    parent: InverseAutomaton
    edges: frozenset[tuple[int, int]]
    vertices: frozenset[int]

    def __post_init__(self):
        for u, letter in self.edges:
            v = self.parent.fwd[u].get(letter)
            if v is None:
                raise ValueError("edge (%d, %d) not in parent" % (u, letter))
            if u not in self.vertices or v not in self.vertices:
                raise ValueError("edge (%d, %d) endpoint outside vertex set" % (u, letter))

    def dst(self, edge: tuple[int, int]) -> int:
        return self.parent.fwd[edge[0]][edge[1]]

    def has_vertex(self, v: int) -> bool:
        return v in self.vertices

    def neighbors(self, v: int):
        """Yield (next vertex, letter, sign, positive edge id)."""
        for letter in range(self.parent.n_letters):
            w = self.parent.fwd[v].get(letter)
            if w is not None and (v, letter) in self.edges:
                yield (w, letter, 1, (v, letter))
            u = self.parent.bwd[v].get(letter)
            if u is not None and (u, letter) in self.edges:
                yield (u, letter, -1, (u, letter))

    def component_of(self, v: int) -> frozenset[int]:
        if v not in self.vertices:
            raise ValueError("vertex %d not in subgraph" % v)
        return frozenset(bfs_tree(self.parent, v, self.edges))

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        return len(self.component_of(min(self.vertices))) == len(self.vertices)

    def intersection(self, other: "Subgraph") -> "Subgraph":
        return Subgraph(self.parent, self.edges & other.edges, self.vertices & other.vertices)

    def minus_edges(self, removed) -> "Subgraph":
        return Subgraph(self.parent, self.edges - frozenset(removed), self.vertices)


def full_subgraph(aut: InverseAutomaton) -> Subgraph:
    edges = frozenset((u, letter) for u, letter, _ in aut.pos_edges())
    return Subgraph(aut, edges, frozenset(range(aut.n)))


def induced_subgraph(aut: InverseAutomaton, vertices) -> Subgraph:
    vs = frozenset(vertices)
    edges = frozenset((u, letter) for u, letter, v in aut.pos_edges() if u in vs and v in vs)
    return Subgraph(aut, edges, vs)


def _product_walk(a: InverseAutomaton, c: InverseAutomaton
                  ) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Pairs (vertex of a, vertex of c) reached by reading the same path
    in both from their bases, and the positive edges of c those paths
    traverse."""
    seen = {(a.base, c.base)}
    queue = deque(seen)
    edges: set[tuple[int, int]] = set()
    while queue:
        p, g = queue.popleft()
        for letter in range(a.n_letters):
            for sign in (1, -1):
                np_, ng = a.step(p, letter, sign), c.step(g, letter, sign)
                if np_ is None or ng is None:
                    continue
                edges.add((g, letter) if sign > 0 else (ng, letter))
                if (np_, ng) not in seen:
                    seen.add((np_, ng))
                    queue.append((np_, ng))
    return seen, edges


def span_from_base(a: InverseAutomaton, c: InverseAutomaton) -> Subgraph:
    """Image in c of all paths of a from its base, read from c's base."""
    if a.base is None or c.base is None:
        raise ValueError("span needs based automata")
    seen, edges = _product_walk(a, c)
    return Subgraph(c, frozenset(edges), frozenset(g for _, g in seen))


def subgraph_automaton(sub: Subgraph, base: int) -> InverseAutomaton:
    """Standalone pointed automaton for the subgraph component of `base`."""
    comp = sub.component_of(base)
    ids = sorted(comp)
    newid = {v: i for i, v in enumerate(ids)}
    edges = [(newid[u], letter, newid[sub.dst((u, letter))])
             for (u, letter) in sorted(sub.edges)
             if u in comp]
    return canonical(InverseAutomaton(len(ids), sub.parent.n_letters, edges, newid[base]))


def amalgam(xi: Subgraph, theta: Subgraph) -> InverseAutomaton:
    """Largest folded quotient of the disjoint union of xi and theta with
    their copies of the parent's base vertex identified."""
    parent = xi.parent
    base = parent.base
    if base is None:
        raise ValueError("amalgam needs a based parent graph")
    if base not in xi.vertices or base not in theta.vertices:
        raise ValueError("both subgraphs must contain the base vertex")
    g = LabeledGraph(parent.n_letters)

    def xid(v: int) -> int:
        return 2 * v

    def tid(v: int) -> int:
        return 2 * base if v == base else 2 * v + 1

    for v in sorted(xi.vertices):
        g.add_vertex(xid(v))
    for v in sorted(theta.vertices):
        g.add_vertex(tid(v))
    for (u, letter) in sorted(xi.edges):
        g.add_edge(xid(u), letter, xid(xi.dst((u, letter))))
    for (u, letter) in sorted(theta.edges):
        g.add_edge(tid(u), letter, tid(theta.dst((u, letter))))
    g.set_base(xid(base))
    return fold(g)


def write_aut(g) -> str:
    """Serialize to the .aut line format (deterministic ordering)."""
    base = g.base
    n_letters = g.n_letters
    if isinstance(g, InverseAutomaton):
        vertices = list(range(g.n))
        edges = g.pos_edges()
        names = tuple(ASCII_LETTERS[:n_letters])
    else:
        vertices = list(g.vertices)
        edges = list(g.edges)
        names = g.letter_names
    if len(names) != n_letters:
        raise ValueError("need %d letter names" % n_letters)
    used = {letter for _, letter, _ in edges}
    lines = []
    if used != set(range(n_letters)) or names != tuple(ASCII_LETTERS[:n_letters]):
        lines.append("alphabet " + " ".join(names))
    touched = {u for u, _, _ in edges} | {v for _, _, v in edges}
    for v in sorted(set(vertices) - touched):
        lines.append("vertex %d" % v)
    for u, letter, v in sorted(edges):
        lines.append("edge %d %s %d" % (u, names[letter], v))
    if base is not None:
        lines.append("base %d" % base)
    return "\n".join(lines) + "\n"


def read_aut(text: str) -> LabeledGraph:
    """Parse the .aut line format; '#' starts a comment."""
    names: list[str] | None = None
    raw_edges: list[tuple[int, str, int]] = []
    raw_vertices: list[int] = []
    base: int | None = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "alphabet":
                names = parts[1:]
                if len(set(names)) != len(names):
                    raise ValueError("repeated letter name in %s" % " ".join(names))
            elif kind == "vertex":
                (v,) = parts[1:]
                raw_vertices.append(int(v))
            elif kind == "edge":
                u, letter, v = parts[1:]
                raw_edges.append((int(u), letter, int(v)))
            elif kind == "base":
                (b,) = parts[1:]
                base = int(b)
            else:
                raise ValueError("unknown directive %r" % kind)
        except ValueError as exc:
            raise ValueError("bad .aut line %d: %s" % (lineno, exc)) from None
    if names is None:
        names = sorted({letter for _, letter, _ in raw_edges})
    index = {c: i for i, c in enumerate(names)}
    g = LabeledGraph(len(names), tuple(names))
    for v in raw_vertices:
        g.add_vertex(v)
    for u, letter, v in raw_edges:
        if letter not in index:
            raise ValueError("edge letter %r not in alphabet" % letter)
        g.add_edge(u, index[letter], v)
    if base is not None:
        g.set_base(base)
    return g


def as_inverse_automaton(g: LabeledGraph) -> InverseAutomaton:
    """Interpret a labeled graph verbatim (no folding); vertex ids are
    renumbered densely in ascending order.  Raises if not folded."""
    ids = sorted(g._vset)
    newid = {v: i for i, v in enumerate(ids)}
    edges = [(newid[u], letter, newid[v]) for u, letter, v in g.edges]
    base = newid[g.base] if g.base is not None else None
    return InverseAutomaton(len(ids), g.n_letters, edges, base)


def to_dot(aut) -> str:
    base = aut.base
    if isinstance(aut, LabeledGraph):
        aut_edges = aut.edges
        vertices = aut.vertices
        names = aut.letter_names
    else:
        aut_edges = aut.pos_edges()
        vertices = range(aut.n)
        names = tuple(ASCII_LETTERS[:aut.n_letters])
    lines = ["digraph aut {", "  rankdir=LR;"]
    for v in vertices:
        shape = "doublecircle" if v == base else "circle"
        lines.append('  %d [shape=%s];' % (v, shape))
    for u, letter, v in sorted(aut_edges):
        lines.append('  %d -> %d [label="%s"];' % (u, v, names[letter]))
    lines.append("}")
    return "\n".join(lines) + "\n"
