"""Reference computations for the benchmark's output checks.

Nothing here imports `constel`: groups, extension layers, bonds,
dissolving, folding, abelianizations and alternating certificates are
recomputed from their definitions so that a wrong answer of the program
cannot also be the expected answer.

Conventions shared with the program's documented output:
- a finite A-generated group is numbered in BFS order from the
  identity, letters ascending (element 0 is the identity);
- a positive Cayley edge is (element, letter); edge index h*|A| + a;
- a word is a sequence of (letter, sign) pairs; text "abA" is a b a^-1.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations

LETTERS = "abcdefghijklmnopqrstuvwxyz"


# ------------------------------------------------------------------ words

def parse_word(text: str) -> list[tuple[int, int]]:
    return [(LETTERS.index(ch.lower()), 1 if ch.islower() else -1) for ch in text]


def free_reduce(w):
    out = []
    for a, s in w:
        if out and out[-1] == (a, -s):
            out.pop()
        else:
            out.append((a, s))
    return out


# ------------------------------------------------------------------ groups

class Cayley:
    """Complete Cayley automaton: fwd[v][a] is v times the image of a."""

    def __init__(self, fwd: list[list[int]]):
        self.fwd = fwd
        self.order = len(fwd)
        self.n_letters = len(fwd[0])
        self.bwd = [[0] * self.n_letters for _ in range(self.order)]
        for v, row in enumerate(fwd):
            for a, w in enumerate(row):
                self.bwd[w][a] = v

    @property
    def n_edges(self) -> int:
        return self.order * self.n_letters

    def step(self, v: int, a: int, s: int) -> int:
        return self.fwd[v][a] if s > 0 else self.bwd[v][a]

    def trace(self, w, v: int = 0) -> int:
        for a, s in w:
            v = self.fwd[v][a] if s > 0 else self.bwd[v][a]
        return v


def bfs_group(identity, gens, mul) -> tuple[Cayley, list]:
    """Right Cayley graph of <gens>, numbered by BFS from the identity."""
    index = {identity: 0}
    elems = [identity]
    fwd = []
    i = 0
    while i < len(elems):
        row = []
        for g in gens:
            y = mul(elems[i], g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
            row.append(index[y])
        fwd.append(row)
        i += 1
    return Cayley(fwd), elems


def cyclic_group(n: int, images) -> Cayley:
    return bfs_group(0, [r % n for r in images], lambda x, y: (x + y) % n)[0]


def klein_group(images) -> Cayley:
    return bfs_group((0, 0), [tuple(b) for b in images],
                     lambda x, y: (x[0] ^ y[0], x[1] ^ y[1]))[0]


def perm_group(degree: int, images) -> Cayley:
    """images: one tuple of point images per letter; x*y applies x first."""
    ident = tuple(range(degree))
    return bfs_group(ident, [tuple(g) for g in images],
                     lambda x, y: tuple(y[i] for i in x))[0]


def normalize(vec: list[int], order: int, n_letters: int, p: int) -> None:
    """Tilde normal form, in place: subtract the entry at (1, a) from
    every a-entry, so that label-constant vectors become zero."""
    for a in range(n_letters):
        c = vec[a]
        if c:
            for i in range(a, order * n_letters, n_letters):
                vec[i] = (vec[i] - c) % p


class Layer:
    """Mod-p extension layer over a Cayley table: an element is the
    endpoint g together with the traversal vector mod p (tilde: modulo
    the label-constant vectors)."""

    def __init__(self, base: Cayley, p: int, tilde: bool):
        self.base, self.p, self.tilde = base, p, tilde

    def order(self) -> int:
        g, k = self.base.order, self.base.n_letters
        return g * self.p ** ((g - 1) * (k - 1) if self.tilde else g * (k - 1) + 1)

    def evaluate(self, w) -> tuple[int, tuple[int, ...]]:
        base, p = self.base, self.p
        k = base.n_letters
        vec = [0] * base.n_edges
        v = 0
        for a, s in w:
            if s > 0:
                vec[v * k + a] += 1
                v = base.fwd[v][a]
            else:
                v = base.bwd[v][a]
                vec[v * k + a] -= 1
        vec = [c % p for c in vec]
        if self.tilde:
            normalize(vec, base.order, k, p)
        return v, tuple(vec)

    def materialize(self, bound: int = 200000) -> tuple[Cayley, list[int]]:
        """Cayley table of the layer and its projection onto the base."""
        base, p, tilde = self.base, self.p, self.tilde
        k = base.n_letters
        start = (0, tuple([0] * base.n_edges))
        index = {start: 0}
        elems = [start]
        fwd = []
        i = 0
        while i < len(elems):
            g, vec = elems[i]
            row = []
            for a in range(k):
                nv = list(vec)
                nv[g * k + a] = (nv[g * k + a] + 1) % p
                if tilde:
                    normalize(nv, base.order, k, p)
                y = (base.fwd[g][a], tuple(nv))
                j = index.get(y)
                if j is None:
                    if len(elems) >= bound:
                        raise ValueError("layer exceeds %d elements" % bound)
                    j = index[y] = len(elems)
                    elems.append(y)
                row.append(j)
            fwd.append(row)
            i += 1
        return Cayley(fwd), [g for g, _ in elems]


class Tower:
    """Levels materialized up to the top, which stays lazy."""

    def __init__(self, base: Cayley, layers):
        self.levels = [base]
        self.proj = [list(range(base.order))]  # level element -> base element
        for p, tilde in layers[:-1]:
            table, down = Layer(self.levels[-1], p, tilde).materialize()
            self.proj.append([self.proj[-1][h] for h in down])
            self.levels.append(table)
        p, tilde = layers[-1]
        self.top = Layer(self.levels[-1], p, tilde)


# ------------------------------------------------------------- subgroups

def subgroup(table: Cayley, gens: list[int]) -> set[int]:
    """Subgroup generated by element indices, by right multiplication
    along words: x*g is read off by tracing g's path word from x."""
    words = [path_word(table, 0, g) for g in gens]
    seen = {0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for w in words:
            for y in (table.trace(w, x), trace_inverse(table, w, x)):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return seen


def trace_inverse(table: Cayley, w, v: int) -> int:
    for a, s in reversed(w):
        v = table.step(v, a, -s)
    return v


def path_word(table: Cayley, src: int, dst: int):
    prev = {src: None}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if v == dst:
            break
        for a in range(table.n_letters):
            for s in (1, -1):
                w = table.step(v, a, s)
                if w not in prev:
                    prev[w] = (v, a, s)
                    queue.append(w)
    out = []
    v = dst
    while prev[v] is not None:
        v, a, s = prev[v]
        out.append((a, s))
    return out[::-1]


def coset_graph(table: Cayley, t_set: set[int]) -> "Automaton":
    """Right-coset graph of T, based at the coset T."""
    coset_of = {}
    cosets = []
    for x in range(table.order):
        if x in coset_of:
            continue
        # coset T*x: trace x's path word from every t in T
        w = path_word(table, 0, x)
        members = frozenset(table.trace(w, t) for t in t_set)
        for y in members:
            coset_of[y] = len(cosets)
        cosets.append(members)
    edges = []
    for cid, members in enumerate(cosets):
        x = next(iter(members))
        for a in range(table.n_letters):
            edges.append((cid, a, coset_of[table.fwd[x][a]]))
    return Automaton(len(cosets), table.n_letters, edges, base=coset_of[0])


# ------------------------------------------------------- abelianization

def echelon(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Integer row echelon basis of the lattice spanned by the rows,
    by gcd elimination column by column (at most ncols rows remain)."""
    rows = [list(r) for r in rows if any(r)]
    basis = []
    for col in range(ncols):
        piv = None
        rest = []
        for r in rows:
            if not r[col]:
                rest.append(r)
                continue
            while piv is not None and r[col]:
                q = piv[col] // r[col]
                piv, r = r, [x - q * y for x, y in zip(piv, r)]
            if piv is None:
                piv = r
            elif any(r):
                rest.append(r)
        if piv is not None:
            basis.append(piv)
        rows = rest
    return basis


def invariant_factors(rows: list[list[int]], ncols: int) -> list[int]:
    """Invariant factors d_1 | ... | d_ncols of Z^ncols / <rows>, from
    the gcds of k x k minors (0 marks an infinite cyclic factor)."""
    basis = echelon(rows, ncols)
    factors = []
    prev = 1
    for k in range(1, ncols + 1):
        g = 0
        for cols in combinations(range(ncols), k):
            for rs in combinations(range(len(basis)), k):
                g = math.gcd(g, _det([[basis[i][j] for j in cols] for i in rs]))
        factors.append(0 if g == 0 or prev == 0 else g // prev)
        prev = g
    return factors


def _det(m: list[list[int]]) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(n))


def relation_rows(table: Cayley) -> list[list[int]]:
    """Letter-count vectors of the fundamental cycles of a BFS tree:
    they generate the relation lattice of the abelianization."""
    k = table.n_letters
    counts = {0: [0] * k}
    queue = deque([0])
    tree = set()
    while queue:
        v = queue.popleft()
        for a in range(k):
            for s in (1, -1):
                w = table.step(v, a, s)
                if w not in counts:
                    c = list(counts[v])
                    c[a] += s
                    counts[w] = c
                    tree.add((v, a) if s > 0 else (w, a))
                    queue.append(w)
    rows = []
    for v in range(table.order):
        for a in range(k):
            if (v, a) in tree:
                continue
            w = table.fwd[v][a]
            row = [x + (1 if i == a else 0) - y
                   for i, (x, y) in enumerate(zip(counts[v], counts[w]))]
            if any(row):
                rows.append(row)
    return rows


def abelianization(table: Cayley) -> list[int]:
    """Nontrivial invariant factors of a finite group's abelianization."""
    return [d for d in invariant_factors(relation_rows(table), table.n_letters) if d != 1]


def layer_abelianization(base: Cayley, p: int, tilde: bool) -> list[int]:
    """Z^A / (p*Lambda [+ |G| Z^A]) with Lambda the base's relation
    lattice: a plain-layer word is trivial iff it is trivial in G and
    its traversal vector vanishes mod p."""
    k = base.n_letters
    rows = [[p * x for x in r] for r in relation_rows(base)]
    if tilde:
        rows += [[base.order if i == a else 0 for i in range(k)] for a in range(k)]
    return [d for d in invariant_factors(rows, k) if d != 1]


# ------------------------------------------------------ bonds and pairs

def bonds(table: Cayley) -> list[tuple[frozenset, frozenset]]:
    """Minimal edge cuts by trying every edge subset: a subset is a bond
    when its removal leaves exactly two components and every removed
    edge joins them.  Returns (cut, far side) with the identity near."""
    edges = [(v, a) for v in range(table.order) for a in range(table.n_letters)]
    if len(edges) > 16:
        raise ValueError("edge-subset oracle is limited to 16 edges")
    out = []
    for mask in range(1, 1 << len(edges)):
        parent = list(range(table.order))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        cut = []
        for i, (v, a) in enumerate(edges):
            if mask >> i & 1:
                cut.append((v, a))
            else:
                parent[find(v)] = find(table.fwd[v][a])
        roots = {find(v) for v in range(table.order)}
        if len(roots) != 2:
            continue
        if all(find(v) != find(table.fwd[v][a]) for v, a in cut):
            near = find(0)
            far = frozenset(v for v in range(table.order) if find(v) != near)
            out.append((frozenset(cut), far))
    return out


class Vectors:
    """Vectors over F_p indexed by edges: Python int bitsets for p = 2
    (XOR is addition), sparse {index: coefficient} dicts otherwise."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0 if p == 2 else {}

    def plus_unit(self, x, i: int, sign: int):
        if self.p == 2:
            return x ^ (1 << i)
        y = dict(x)
        y[i] = (y.get(i, 0) + sign) % self.p
        if not y[i]:
            del y[i]
        return y

    def diff(self, x, y):
        if self.p == 2:
            return x ^ y
        out = dict(x)
        for i, c in y.items():
            out[i] = (out.get(i, 0) - c) % self.p
            if not out[i]:
                del out[i]
        return out

    def ones(self, indices):
        return sum(1 << i for i in indices) if self.p == 2 else {i: 1 for i in indices}


class Span:
    """Row space over F_p with membership by reduction."""

    def __init__(self, vectors: Vectors):
        self.vectors = vectors
        self.rows = {}  # pivot (highest index) -> row with leading coefficient 1

    def reduce(self, vec):
        p, rows = self.vectors.p, self.rows
        if p == 2:
            while vec:
                row = rows.get(vec.bit_length() - 1)
                if row is None:
                    return vec
                vec ^= row
            return vec
        vec = dict(vec)
        while vec:
            piv = max(vec)
            row = rows.get(piv)
            if row is None:
                return vec
            c = vec[piv]
            for i, x in row.items():
                y = (vec.get(i, 0) - c * x) % p
                if y:
                    vec[i] = y
                else:
                    vec.pop(i, None)
        return vec

    def add(self, vec) -> None:
        r = self.reduce(vec)
        if not r:
            return
        if self.vectors.p == 2:
            self.rows[r.bit_length() - 1] = r
        else:
            piv = max(r)
            inv = pow(r[piv], -1, self.vectors.p)
            self.rows[piv] = {i: c * inv % self.vectors.p for i, c in r.items()}


def maximal_pairs(table: Cayley):
    """Every ordered split (C_Xi, C_Theta) of every bond, as the edge sets
    Xi = Gamma - C_Theta and Theta = Gamma - C_Xi with the far side."""
    full = all_edges(table)
    for cut, far in bonds(table):
        cut = sorted(cut)
        for mask in range(1, (1 << len(cut)) - 1):
            c_xi = frozenset(e for i, e in enumerate(cut) if mask >> i & 1)
            yield full - (frozenset(cut) - c_xi), full - c_xi, far


def lift(table: Cayley, proj: list[int], allowed, vectors: Vectors):
    """Identity component of the preimage of an edge set of the base,
    with the traversal vector of a BFS-tree path to each vertex and the
    component's edges."""
    k = table.n_letters
    tvec = {0: vectors.zero}
    order = [0]
    comp_edges = []
    for v in order:
        for a in range(k):
            w = table.fwd[v][a]
            if (proj[v], a) in allowed:
                comp_edges.append((v, a, w))
                if w not in tvec:
                    tvec[w] = vectors.plus_unit(tvec[v], v * k + a, 1)
                    order.append(w)
            u = table.bwd[v][a]
            if (proj[u], a) in allowed and u not in tvec:
                tvec[u] = vectors.plus_unit(tvec[v], u * k + a, -1)
                order.append(u)
    return tvec, comp_edges


def dissolved_by_pair(tower: Tower, xi_edges, theta_edges, g_choices) -> dict[int, bool]:
    """Verdict per g for the pair (Xi, Theta) at the tower top: H fails
    to dissolve (Xi, g, Theta) iff some shared lifted endpoint m over g
    has a tree-vector difference inside Z(Xi^) + Z(Theta^) (+ the
    label-constant vectors for a tilde top), all mod p."""
    table, proj, top = tower.levels[-1], tower.proj[-1], tower.top
    k = table.n_letters
    vectors = Vectors(top.p)
    span = Span(vectors)
    lifts = []
    for allowed in (xi_edges, theta_edges):
        tvec, comp_edges = lift(table, proj, allowed, vectors)
        for u, a, w in comp_edges:
            span.add(vectors.plus_unit(vectors.diff(tvec[u], tvec[w]), u * k + a, 1))
        lifts.append(tvec)
    if top.tilde:
        for a in range(k):
            span.add(vectors.ones(h * k + a for h in range(table.order)))
    tx, tt = lifts
    return {g: all(span.reduce(vectors.diff(tx[m], tt[m]))
                   for m in tx if proj[m] == g and m in tt)
            for g in g_choices}


def all_edges(table: Cayley) -> frozenset:
    return frozenset((v, a) for v in range(table.order) for a in range(table.n_letters))


def delta(table: Cayley, letter: int, sign: int):
    """(Xi, g, Theta) edge sets of the one-edge constellation of a signed letter."""
    if sign > 0:
        g, edge = table.fwd[0][letter], (0, letter)
    else:
        g = table.bwd[0][letter]
        edge = (g, letter)
    return all_edges(table) - {edge}, g, frozenset([edge])


def walk_inside(table: Cayley, edges, w) -> int | None:
    """Endpoint of w read from the identity, or None when the path
    uses an edge outside the given set."""
    v = 0
    for a, s in w:
        if s > 0:
            e, v = (v, a), table.fwd[v][a]
        else:
            v = table.bwd[v][a]
            e = (v, a)
        if e not in edges:
            return None
    return v


# ------------------------------------------------------------- automata

class Automaton:
    """Partial injections per letter; built from edges, refusing folds."""

    def __init__(self, n: int, n_letters: int, edges, base: int | None):
        self.n, self.n_letters, self.base = n, n_letters, base
        self.fwd = [dict() for _ in range(n)]
        self.bwd = [dict() for _ in range(n)]
        for u, a, v in edges:
            if self.fwd[u].get(a, v) != v or self.bwd[v].get(a, u) != u:
                raise ValueError("not folded at (%d, %d, %d)" % (u, a, v))
            self.fwd[u][a] = v
            self.bwd[v][a] = u

    @property
    def n_edges(self) -> int:
        return sum(len(d) for d in self.fwd)

    def step(self, v, a, s):
        return (self.fwd if s > 0 else self.bwd)[v].get(a)

    def is_complete(self) -> bool:
        return all(len(d) == self.n_letters for d in self.fwd)

    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in list(self.fwd[v].values()) + list(self.bwd[v].values()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def accepts(self, w) -> bool:
        v = self.base
        for a, s in free_reduce(w):
            v = self.step(v, a, s)
            if v is None:
                return False
        return v == self.base

    def edges(self):
        return [(u, a, v) for u in range(self.n) for a, v in sorted(self.fwd[u].items())]


def read_aut(text: str) -> Automaton:
    names = None
    edges, vertices, base = [], set(), None
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "alphabet":
            names = parts[1:]
        elif parts[0] == "vertex":
            vertices.add(int(parts[1]))
        elif parts[0] == "edge":
            edges.append((int(parts[1]), parts[2], int(parts[3])))
        elif parts[0] == "base":
            base = int(parts[1])
        else:
            raise ValueError("unknown .aut line %r" % line)
    if names is None:
        names = sorted({x for _, x, _ in edges})
    vertices |= {u for u, _, _ in edges} | {v for _, _, v in edges}
    if vertices != set(range(len(vertices))):
        raise ValueError("vertices are not 0..n-1")
    return Automaton(len(vertices), len(names),
                     [(u, names.index(x), v) for u, x, v in edges], base)


def pointed_iso(a: Automaton, b: Automaton) -> bool:
    return a.n == b.n and a.n_edges == b.n_edges and embed_map(a, b, b.base) is not None


def embed_map(a: Automaton, c: Automaton, start: int) -> dict | None:
    """The base-respecting injective morphism a -> c, base to start."""
    mapping = {a.base: start}
    used = {start}
    queue = deque([a.base])
    while queue:
        v = queue.popleft()
        for x in range(a.n_letters):
            for s in (1, -1):
                w = a.step(v, x, s)
                if w is None:
                    continue
                img = c.step(mapping[v], x, s)
                if img is None:
                    return None
                if w in mapping:
                    if mapping[w] != img:
                        return None
                elif img in used:
                    return None
                else:
                    mapping[w] = img
                    used.add(img)
                    queue.append(w)
    return mapping if len(mapping) == a.n else None


def stallings_core(words, n_letters: int) -> Automaton:
    """Fold the bouquet of the words, then trim hanging trees away from
    the base."""
    n = 1
    raw = []
    for w in words:
        v = 0
        for i, (a, s) in enumerate(w):
            t = 0 if i == len(w) - 1 else n
            if i != len(w) - 1:
                n += 1
            raw.append((v, a, t) if s > 0 else (t, a, v))
            v = t
    edges, base = _fold(n, raw, 0)
    while True:
        deg = {}
        for u, _, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + (u != v)
        leaves = {v for v, d in deg.items() if d <= 1 and v != base}
        if not leaves:
            break
        edges = {e for e in edges if e[0] not in leaves and e[2] not in leaves}
    return _renumber(edges, base, n_letters)


def amalgam(table: Cayley, xi_edges, theta_edges) -> Automaton:
    """Fold of the disjoint union of two spanning subgraphs of a Cayley
    graph, glued at the identity."""
    n = table.order
    raw = [(v, a, table.fwd[v][a]) for v, a in xi_edges]
    # Theta's copy of vertex v is n + v, except the shared identity
    raw += [(v and n + v, a, table.fwd[v][a] and n + table.fwd[v][a]) for v, a in theta_edges]
    return fold_edges(2 * n, raw, table.n_letters, 0)


def fold_edges(n: int, raw, n_letters: int, base: int) -> Automaton:
    """Largest folded quotient of a graph on 0..n-1 given by raw edges."""
    edges, base = _fold(n, raw, base)
    return _renumber(edges, base, n_letters)


def _fold(n: int, raw, base: int) -> tuple[set, int]:
    """Merge endpoints of equally labeled edges with a common source or
    target until none remain; returns edges and base over class roots."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    changed = True
    while changed:
        changed = False
        out, inn = {}, {}
        for u, a, v in raw:
            u, v = find(u), find(v)
            for seen, key, val in ((out, (u, a), v), (inn, (v, a), u)):
                other = find(seen.setdefault(key, val))
                if other != find(val):
                    parent[other] = find(val)
                    changed = True
    return {(find(u), a, find(v)) for u, a, v in raw}, find(base)


def _renumber(edges, base: int, n_letters: int) -> Automaton:
    used = {base} | {u for u, _, _ in edges} | {v for _, _, v in edges}
    ids = {v: i for i, v in enumerate(sorted(used))}
    return Automaton(len(ids), n_letters, [(ids[u], a, ids[v]) for u, a, v in edges],
                     ids[base])


# ------------------------------------------------- alternating certificate

def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def cycle_lengths(perm: list[int]) -> list[int]:
    seen = [False] * len(perm)
    out = []
    for s in range(len(perm)):
        if not seen[s]:
            k, v = 0, s
            while not seen[v]:
                seen[v] = True
                v = perm[v]
                k += 1
            out.append(k)
    return out


def letter_perms(aut: Automaton) -> list[list[int]]:
    """Letter actions of a complete automaton as image lists."""
    perms = []
    for a in range(aut.n_letters):
        img = [aut.fwd[v][a] for v in range(aut.n)]
        if sorted(img) != list(range(aut.n)):
            raise ValueError("letter %d does not act as a permutation" % a)
        perms.append(img)
    return perms


def transitive(perms: list[list[int]], n: int) -> bool:
    seen = [False] * n
    seen[0] = True
    stack = [0]
    inverses = []
    for g in perms:
        inv = [0] * n
        for i, j in enumerate(g):
            inv[j] = i
        inverses.append(inv)
    count = 1
    while stack:
        v = stack.pop()
        for g in perms + inverses:
            w = g[v]
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def primitive(perms: list[list[int]], n: int) -> bool:
    """A transitive group is primitive iff, for every beta != 0, the
    finest invariant partition joining 0 and beta has a single class."""
    for beta in range(1, n):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        parent[beta] = 0
        classes = n - 1
        pending = [(0, beta)]
        while pending and classes > 1:
            u, v = pending.pop()
            for g in perms:
                x, y = find(g[u]), find(g[v])
                if x != y:
                    parent[y] = x
                    classes -= 1
                    pending.append((x, y))
        if classes > 1:
            return False
    return True
