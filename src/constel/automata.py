"""A-labeled graphs in the Serre convention and inverse automata.

Positive edges are triples (src, letter, dst); every edge is implicitly
traversable backwards.  An inverse automaton is a folded graph: at every
vertex each letter has at most one outgoing and at most one incoming
positive edge, so letters act as partial injections on the vertex set.
It stores that action as one column per letter: fwd[a][v] is the end of
the a-edge leaving v and bwd[a][v] the start of the one entering it,
None where there is no such edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .perms import Permutation, PermSpec, _find
from .words import ASCII_LETTERS, Word, reduce as reduce_word


class LabeledGraph:
    """Mutable A-labeled multigraph; vertex ids are arbitrary ints."""

    def __init__(self, n_letters: int, letter_names: tuple[str, ...] | None = None):
        if letter_names is not None and len(letter_names) != n_letters:
            raise ValueError("letter_names length mismatch")
        self.n_letters = n_letters
        self.letter_names = letter_names or tuple(ASCII_LETTERS[:n_letters])
        self.vertices: set[int] = set()
        self.edges: list[tuple[int, int, int]] = []
        self.base: int | None = None

    def add_edge(self, u: int, letter: int, v: int) -> None:
        if not 0 <= letter < self.n_letters:
            raise ValueError("letter %d out of range" % letter)
        self.vertices.update((u, v))
        self.edges.append((u, letter, v))

    def set_base(self, v: int) -> None:
        self.vertices.add(v)
        self.base = v


class InverseAutomaton:
    """Folded A-labeled graph on dense vertices 0..n-1, as letter columns
    fwd[a] and bwd[a] of length n holding None for a missing edge."""

    def __init__(self, n: int, n_letters: int, edges=(), base: int | None = None):
        self.n = n
        self.n_letters = n_letters
        self.base = base
        self.fwd: list[list[int | None]] = [[None] * n for _ in range(n_letters)]
        self.bwd: list[list[int | None]] = [[None] * n for _ in range(n_letters)]
        for u, letter, v in edges:
            self.add_edge(u, letter, v)
        if base is not None and not 0 <= base < n:
            raise ValueError("base vertex %r out of range" % (base,))

    def add_edge(self, u: int, letter: int, v: int) -> None:
        """Add the positive edge (u, letter, v); every builder writes its
        columns here, the one place that refuses an unfolded edge."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("edge endpoint out of range")
        if not 0 <= letter < self.n_letters:
            raise ValueError("letter %d out of range" % letter)
        out, into = self.fwd[letter], self.bwd[letter]
        if out[u] not in (None, v) or into[v] not in (None, u):
            raise ValueError("graph is not folded at edge (%d, %d, %d)" % (u, letter, v))
        out[u] = v
        into[v] = u

    def pos_edges(self) -> list[tuple[int, int, int]]:
        """(src, letter, dst) by source, letters ascending."""
        return [(u, letter, col[u]) for u in range(self.n)
                for letter, col in enumerate(self.fwd) if col[u] is not None]

    @property
    def n_pos_edges(self) -> int:
        return sum(self.n - col.count(None) for col in self.fwd)

    def step(self, v: int, letter: int, sign: int) -> int | None:
        return (self.fwd if sign > 0 else self.bwd)[letter][v]

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
        edges = {(v, letter) for letter, col in enumerate(self.fwd) if col[v] is not None}
        edges |= {(col[v], letter) for letter, col in enumerate(self.bwd) if col[v] is not None}
        return len(edges)

    def is_complete(self) -> bool:
        return all(None not in col for col in self.fwd)

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
    """Renumber vertices in `bfs_tree` order from the base (letters
    ascending, forward before backward); extra components follow, each
    from its least old id."""
    newid: dict[int, int] = {}
    for seed in ([aut.base] if aut.base is not None else []) + list(range(aut.n)):
        if seed not in newid:
            for v in bfs_tree(aut, seed):
                newid[v] = len(newid)
    edges = [(newid[u], letter, newid[v]) for u, letter, v in aut.pos_edges()]
    base = newid[aut.base] if aut.base is not None else None
    return InverseAutomaton(aut.n, aut.n_letters, edges, base)


def fold(graph: LabeledGraph) -> InverseAutomaton:
    """Stallings folding: the largest quotient that is an inverse automaton.

    Merges vertices whenever two equally-labeled edges share a source or
    share a target.  The merge state is letter columns over the input
    vertices sorted by id, read through union-find; a class is rooted at
    its least vertex, and a root merged away has its entries queued again.

    The result depends only on the set of edges and the vertex ids.
    Call a partition folded when its quotient is.  Each queued triple
    (u, a, v), an input edge or a requeued entry, is an a-edge from the
    class of u to that of v in every folded quotient, so each merge,
    forced by two such triples with a shared source or target, joins
    vertices that every folded partition joins.  Call a triple recorded
    when the roots r, s of its ends hold entries out[r] and into[s] that
    find s and r.  Every queued triple stays queued, through a triple
    between the same classes, or recorded: entries are written in pairs,
    and a merge clears and requeues only the entries of the root it
    merges away, whose partners find the kept root.  So the triple
    (u, a, v) that forces a merge is not queued again.  If out[u] finds
    w != v, the triple that wrote out[u] is queued, or recorded by
    out[u] and into[w], and v and w merge: if w goes, into[w] is
    requeued, if u goes, out[u] is, and otherwise that pair records
    (u, a, v).  Likewise with into[v] and x when the clash is at v.
    When the queue empties, each root holds at most one entry per
    letter and direction, and every input edge is recorded, so the
    final partition is folded.  It is therefore the finest folded
    partition, whatever the queue order.  Roots are least vertices, so
    the dense ids sort the classes by their least vertex, and
    `canonical` seeds from the base, then from the least dense id left,
    the class of its component's least vertex: both read only the
    partition and the ids.
    """
    ids = sorted(graph.vertices)
    pos = {vid: i for i, vid in enumerate(ids)}
    n, k = len(ids), graph.n_letters
    parent = list(range(n))
    fwd, bwd = [[None] * n for _ in range(k)], [[None] * n for _ in range(k)]
    queue = deque((pos[u], letter, pos[v]) for u, letter, v in graph.edges)
    while queue:
        u, letter, v = queue.popleft()
        u, v = _find(parent, u), _find(parent, v)
        out, into = fwd[letter], bwd[letter]
        w = v if out[u] is None else _find(parent, out[u])
        x = u if into[v] is None else _find(parent, into[v])
        if (w, x) == (v, u):
            out[u], into[v] = v, u
            continue
        keep, gone = sorted((v, w) if w != v else (u, x))
        parent[gone] = keep
        for b, (out, into) in enumerate(zip(fwd, bwd)):
            if out[gone] is not None:
                queue.append((gone, b, out[gone]))
            if into[gone] is not None:
                queue.append((into[gone], b, gone))
            out[gone] = into[gone] = None

    roots = [i for i in range(n) if parent[i] == i]
    dense = {r: i for i, r in enumerate(roots)}
    edges = [(dense[r], letter, dense[_find(parent, out[r])])
             for r in roots for letter, out in enumerate(fwd) if out[r] is not None]
    base = dense[_find(parent, pos[graph.base])] if graph.base is not None else None
    return canonical(InverseAutomaton(len(roots), k, edges, base))


def trim(aut: InverseAutomaton) -> InverseAutomaton:
    """Remove non-base vertices of degree <= 1 until none remain (the core)."""
    degree = [aut.degree(v) for v in range(aut.n)]
    alive = [True] * aut.n
    worklist = [v for v in range(aut.n) if v != aut.base and degree[v] <= 1]
    # A vertex is queued when its degree starts at <= 1 or first falls to 1,
    # and degrees only fall, so no vertex is popped twice.
    while worklist:
        v = worklist.pop()
        alive[v] = False  # a loop at v dies with it
        for col in aut.fwd + aut.bwd:
            w = col[v]
            if w is not None and alive[w]:
                degree[w] -= 1
                if degree[w] == 1 and w != aut.base:
                    worklist.append(w)
    keep = [v for v in range(aut.n) if alive[v]]
    newid = {v: i for i, v in enumerate(keep)}
    edges = [(newid[u], letter, newid[w]) for u, letter, w in aut.pos_edges()
             if alive[u] and alive[w]]
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


def _embedding_steps(a: InverseAutomaton, c: InverseAutomaton
                     ) -> tuple[list[int], list[tuple[int, list, int, bool]]]:
    """Validate a based, connected source once and compile the search for
    its embeddings into c: the BFS order of a's vertices from its base,
    and each edge of a as one step (source index, column of c, target
    index, new?) over that order.  A new step discovers its target; the
    others, taken from the end processed first, check it."""
    if a.base is None:
        raise ValueError("an embedding needs a based source automaton")
    index = {a.base: 0}
    order = [a.base]
    steps = []
    for i, v in enumerate(order):
        for letter in range(a.n_letters):
            for out, col in ((a.fwd, c.fwd), (a.bwd, c.bwd)):
                w = out[letter][v]
                if w is None:
                    continue
                j = index.get(w)
                if j is None:
                    index[w] = j = len(order)
                    order.append(w)
                    steps.append((i, col[letter], j, True))
                elif j >= i:  # with j < i, the edge was stepped from w
                    steps.append((i, col[letter], j, False))
    if len(order) != a.n:
        raise ValueError("an embedding needs a connected source automaton")
    return order, steps


def _embed_at(steps: list[tuple[int, list, int, bool]], size: int, start: int
              ) -> list[int] | None:
    """Images, in BFS order, of the base-respecting monomorphism with
    base -> start that `steps` describe, or None."""
    images = [start] * size
    for i, col, j, new in steps:
        img = col[images[i]]
        if img is None:
            return None
        if new:
            images[j] = img
        elif images[j] != img:
            return None
    return images if len(set(images)) == size else None


def embed_check(a: InverseAutomaton, c: InverseAutomaton, start: int) -> dict[int, int] | None:
    """The unique base-respecting monomorphism a -> c with base -> start, or None."""
    order, steps = _embedding_steps(a, c)
    if not 0 <= start < c.n:
        raise ValueError("start vertex out of range")
    images = _embed_at(steps, a.n, start)
    return None if images is None else dict(zip(order, images))


class BfsTree:
    """Breadth-first search from root, run only as far as it is asked.

    `tree` maps each discovered vertex to (previous vertex, letter,
    sign), in discovery order, with the root mapping to (-1, -1, 0).
    Letters are taken in ascending order, the forward step before the
    backward one.  Steps run only over the positive edges (src, letter)
    in `edges` when it is given, and only forward when `forward_only` is
    set.  The search state is the tree, the discovery order and the next
    vertex to process.  The order of the search is fixed, so a partly
    grown tree holds the first entries of the whole search, each as the
    whole search has it."""

    __slots__ = ("tree", "_order", "_pending", "_columns", "_edges", "_forward_only")

    def __init__(self, aut: InverseAutomaton, root: int, edges=None, forward_only: bool = False):
        self.tree = {root: (-1, -1, 0)}
        self._order = [root]
        self._pending = iter(self._order)  # next vertex to process; sees later appends
        self._columns = list(enumerate(zip(aut.fwd, aut.bwd)))
        self._edges, self._forward_only = edges, forward_only

    def grow(self, stop: int | None = None) -> dict[int, tuple[int, int, int]]:
        """Process vertices until `stop` has been discovered, or to the
        end when it is None or never discovered; return the tree."""
        if stop is None or stop not in self.tree:
            _search(self.tree, self._order, self._pending, self._columns, self._edges,
                    self._forward_only, stop)
        return self.tree


def _search(tree: dict, order: list, pending, columns, edges, forward_only: bool,
            stop: int | None = None) -> dict:
    """The BFS loop: process each vertex `pending` yields, adding the
    vertices it discovers to tree and order, and end after the vertex
    whose processing puts `stop` in tree."""
    for v in pending:
        for letter, (out, into) in columns:
            w = out[v]
            if w is not None and w not in tree and (edges is None or (v, letter) in edges):
                tree[w] = (v, letter, 1)
                order.append(w)
            if forward_only:
                continue
            u = into[v]
            if u is not None and u not in tree and (edges is None or (u, letter) in edges):
                tree[u] = (v, letter, -1)
                order.append(u)
        if stop is not None and stop in tree:
            break
    return tree


def bfs_tree(aut: InverseAutomaton, root: int, edges=None) -> dict[int, tuple[int, int, int]]:
    """`BfsTree(aut, root, edges).grow()`: vertex ->
    (previous vertex, letter, sign) for root's whole component, in
    discovery order.  It runs the same loop from the same start without
    the object and without a stop.  A
    caller that reads only the paths to a few vertices grows a BfsTree
    to each of them instead."""
    order = [root]
    return _search({root: (-1, -1, 0)}, order, iter(order),
                   list(enumerate(zip(aut.fwd, aut.bwd))), edges, False)


# one (letter, sign) object per signed letter, shared by every word a tree spells; it holds
# two entries per letter index ever read, whatever the alphabet
_SIGNED_LETTERS: dict[tuple[int, int], tuple[int, int]] = {}


def tree_word(tree: dict[int, tuple[int, int, int]], v: int) -> Word | None:
    """Label of the tree path from the root to v, or None off the tree."""
    if v not in tree:
        return None
    pairs = []
    while tree[v][0] >= 0:
        v, letter, sign = tree[v]
        pair = letter, sign
        pairs.append(_SIGNED_LETTERS.setdefault(pair, pair))
    return Word(tuple(reversed(pairs)))


def transition_group(aut: InverseAutomaton) -> PermSpec:
    """Letter actions of a complete automaton as permutations."""
    if not aut.is_complete():
        raise ValueError("transition group requires a complete automaton")
    return PermSpec(aut.n, tuple(Permutation(tuple(col)) for col in aut.fwd))


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
        n, n_letters = self.parent.n, self.parent.n_letters
        for u, letter in self.edges:
            v = self.parent.fwd[letter][u] if 0 <= u < n and 0 <= letter < n_letters else None
            if v is None:
                raise ValueError("edge (%d, %d) not in parent" % (u, letter))
            if u not in self.vertices or v not in self.vertices:
                raise ValueError("edge (%d, %d) endpoint outside vertex set" % (u, letter))

    def dst(self, edge: tuple[int, int]) -> int:
        return self.parent.fwd[edge[1]][edge[0]]

    def neighbors(self, v: int):
        """Yield (next vertex, letter, sign, positive edge id)."""
        for letter, (out, into) in enumerate(zip(self.parent.fwd, self.parent.bwd)):
            w = out[v]
            if w is not None and (v, letter) in self.edges:
                yield (w, letter, 1, (v, letter))
            u = into[v]
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

    def minus_edges(self, removed) -> "Subgraph":
        return Subgraph(self.parent, self.edges - frozenset(removed), self.vertices)


def full_subgraph(aut: InverseAutomaton) -> Subgraph:
    edges = frozenset((u, letter) for u, letter, _ in aut.pos_edges())
    return Subgraph(aut, edges, frozenset(range(aut.n)))


def induced_subgraph(aut: InverseAutomaton, vertices) -> Subgraph:
    vs = frozenset(vertices)
    edges = frozenset((u, letter) for u, letter, v in aut.pos_edges() if u in vs and v in vs)
    return Subgraph(aut, edges, vs)


def _product_walk(a: InverseAutomaton, c: InverseAutomaton) -> set[tuple[int, int]]:
    """Pairs (vertex of a, vertex of c) reached by reading the same path
    in both from their bases."""
    seen = {(a.base, c.base)}
    queue = deque(seen)
    while queue:
        p, g = queue.popleft()
        for letter in range(a.n_letters):
            for sign in (1, -1):
                np_, ng = a.step(p, letter, sign), c.step(g, letter, sign)
                if np_ is not None and ng is not None and (np_, ng) not in seen:
                    seen.add((np_, ng))
                    queue.append((np_, ng))
    return seen


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
    for sub, odd in ((xi, 0), (theta, 1)):  # theta's vertices other than the base go odd
        gid = {v: 2 * v + 1 if odd and v != base else 2 * v for v in sub.vertices}
        g.vertices.update(gid.values())
        for u, letter in sub.edges:
            g.add_edge(gid[u], letter, gid[sub.dst((u, letter))])
    g.set_base(2 * base)
    return fold(g)


def _letter_names(n_letters: int, names) -> tuple[str, ...]:
    """`names`, or a, b, ... when it is None; one per letter."""
    names = tuple(ASCII_LETTERS[:n_letters]) if names is None else tuple(names)
    if len(names) != n_letters:
        raise ValueError("need %d letter names" % n_letters)
    return names


def write_aut(aut: InverseAutomaton, names: tuple[str, ...] | None = None) -> str:
    """Serialize to the .aut line format (deterministic ordering), naming
    the letters by `names` (a, b, ... by default)."""
    names = _letter_names(aut.n_letters, names)
    edges = aut.pos_edges()
    used = {letter for _, letter, _ in edges}
    lines = []
    if used != set(range(aut.n_letters)) or names != tuple(ASCII_LETTERS[:aut.n_letters]):
        lines.append("alphabet " + " ".join(names))
    touched = {u for u, _, _ in edges} | {v for _, _, v in edges}
    for v in sorted(set(range(aut.n)) - touched):
        lines.append("vertex %d" % v)
    for u, letter, v in edges:  # pos_edges is sorted
        lines.append("edge %d %s %d" % (u, names[letter], v))
    if aut.base is not None:
        lines.append("base %d" % aut.base)
    return "\n".join(lines) + "\n"


def read_aut(text: str) -> LabeledGraph:
    """Parse the .aut line format; '#' starts a comment."""
    from .groups import parse_int  # groups imports this module
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
                raw_vertices.append(parse_int(v, "vertex id"))
            elif kind == "edge":
                u, letter, v = parts[1:]
                raw_edges.append((parse_int(u, "vertex id"), letter, parse_int(v, "vertex id")))
            elif kind == "base":
                (b,) = parts[1:]
                base = parse_int(b, "vertex id")
            else:
                raise ValueError("unknown directive %r" % kind)
        except ValueError as exc:
            raise ValueError("bad .aut line %d: %s" % (lineno, exc)) from None
    if names is None:
        names = sorted({letter for _, letter, _ in raw_edges})
    index = {c: i for i, c in enumerate(names)}
    g = LabeledGraph(len(names), tuple(names))
    g.vertices.update(raw_vertices)
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
    ids = sorted(g.vertices)
    newid = {v: i for i, v in enumerate(ids)}
    edges = [(newid[u], letter, newid[v]) for u, letter, v in g.edges]
    base = newid[g.base] if g.base is not None else None
    return InverseAutomaton(len(ids), g.n_letters, edges, base)


def to_dot(aut: InverseAutomaton, names: tuple[str, ...] | None = None) -> str:
    """Graphviz text, naming the letters as `write_aut` does; a .aut name
    may hold quotes and backslashes, so labels escape them."""
    labels = [name.replace("\\", "\\\\").replace('"', '\\"')
              for name in _letter_names(aut.n_letters, names)]
    lines = ["digraph aut {", "  rankdir=LR;"]
    for v in range(aut.n):
        shape = "doublecircle" if v == aut.base else "circle"
        lines.append('  %d [shape=%s];' % (v, shape))
    for u, letter, v in aut.pos_edges():
        lines.append('  %d -> %d [label="%s"];' % (u, v, labels[letter]))
    lines.append("}")
    return "\n".join(lines) + "\n"
