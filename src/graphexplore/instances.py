"""Instance generators, the edge-list file format, and instance specs.

Every generator is deterministic in its arguments (seeded where random) and
assigns edge ids in a documented order, so the same spec always produces a
byte-identical graph file.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import Graph, as_fraction, is_connected, positive
from .errors import (
    DegenerateCombWarning,
    GenerationError,
    ParseError,
)

# weights drawn from [1, 2] use this fixed dyadic denominator
_RAND_DENOM = 2**20
# planar edge lengths are snapped to multiples of this
_PLANAR_DENOM = 2**30


def _weights(mode: str, seed: int):
    """A generator seeded with `seed`, and a function that gives the next
    edge weight: 1 for mode "unit", and for "uniform" a rational in [1, 2]
    with denominator 2**20 drawn from that generator."""
    if mode not in ("unit", "uniform"):
        raise ValueError(f"unknown weight mode {mode!r}")
    rng = np.random.default_rng(seed)
    if mode == "unit":
        return rng, lambda: Fraction(1)
    return rng, lambda: Fraction(_RAND_DENOM + int(rng.integers(0, _RAND_DENOM + 1)), _RAND_DENOM)


def gen_comb_lower_bound(k: int, delta) -> Graph:
    """Comb tree that makes the blocking explorer pay for every heavy tooth.

    A spine of 2k unit-weight edges' worth of vertices (2k vertices, 2k-1
    edges), a unit leaf on each of the first k spine vertices, and a leaf of
    weight (k+1)/(delta+1) on each of the last k.  n = 4k; the walk starts
    at vertex 0, the first spine vertex.  The heavy teeth sit exactly at the
    blocking threshold: from the far end of the spine the nearest light leaf
    is at distance k+1 = (1+delta) * heavy weight, so every heavy tooth stays
    blocked until the light teeth have all been taken.

    Edge ids are assigned spine (0..2k-2), light (2k-1..3k-2) and heavy
    (3k-1..4k-2).  The explorer breaks ties by edge id, so this numbering
    is the adversarial order: it prefers spine edges over the equal-weight
    light leaves, and the run walks the spine first.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive int, got {k!r}")
    d = positive(delta, "delta")
    heavy = Fraction(k + 1) / (d + 1)
    if heavy <= 1:
        warnings.warn(
            f"comb with k={k}, delta={d} is degenerate: heavy weight {heavy} <= 1, "
            "no tooth is ever blocked",
            DegenerateCombWarning,
            stacklevel=2,
        )
    edges = []
    for i in range(2 * k - 1):
        edges.append((i, i + 1, Fraction(1)))
    for i in range(k):
        edges.append((i, 2 * k + i, Fraction(1)))
    for i in range(k):
        edges.append((k + i, 3 * k + i, heavy))
    return Graph(4 * k, edges)


def _delaunay_edges(pts) -> set[tuple[int, int]] | None:
    """Edges (u < v) of the Delaunay triangulation of points in [0, 1)^2.

    The coordinates must be multiples of 2**-53 (as NumPy's uniform doubles
    are), so X = x * 2**53 is an exact integer and every orientation and
    in-circle decision below is an exact integer determinant.  Sweep-hull
    (Sinclair, S-hull, 2016): seed with x0 (nearest the centre), x1 (its
    nearest neighbour) and the x2 that minimises the circumradius, whose
    circle is then empty; insert the rest in order of exact squared distance
    to that circle's rational centre, so each lies strictly outside the hull
    so far; join it to the hull edges it sees and Lawson-flip the edges
    opposite it.  A float pseudo-angle hash only picks where the exact hull
    walk starts.  A last pass checks every interior edge is strictly locally
    Delaunay, so the result is the unique Delaunay triangulation.

    Returns None when an exact zero decides: a duplicate point, all points
    collinear, a point on the line of a hull edge it is tested against, or
    an interior edge whose quad is cocircular.
    """
    scaled = np.asarray(pts, dtype=np.float64) * 2.0**53
    if (not np.array_equal(scaled, np.floor(scaled))
            or scaled.min() < 0 or scaled.max() >= 2.0**53):
        raise ValueError("coordinates must be multiples of 2**-53 in [0, 1)")
    X = scaled[:, 0].astype(np.int64).tolist()
    Y = scaled[:, 1].astype(np.int64).tolist()
    n = len(X)

    half = 2**52
    x0 = min(range(n), key=lambda i: ((X[i] - half) ** 2 + (Y[i] - half) ** 2, i))
    ox, oy = X[x0], Y[x0]
    x1 = min((i for i in range(n) if i != x0),
             key=lambda i: ((X[i] - ox) ** 2 + (Y[i] - oy) ** 2, i))
    ax, ay = X[x1] - ox, Y[x1] - oy
    if ax == ay == 0:
        return None
    a2 = ax * ax + ay * ay
    # circumcentre of (x0, x1, i) is x0 + (ux, uy) / d with d = 2 * cross(a, b)
    x2 = None
    for i in range(n):
        bx, by = X[i] - ox, Y[i] - oy
        cross = ax * by - ay * bx
        if cross == 0:
            continue
        b2 = bx * bx + by * by
        vx, vy = by * a2 - ay * b2, ax * b2 - bx * a2
        r2 = vx * vx + vy * vy  # circumradius^2 * (2 * cross)^2
        if x2 is None or r2 * d * d < (ux * ux + uy * uy) * (4 * cross * cross):
            x2, ux, uy, d = i, vx, vy, 2 * cross
    if x2 is None:
        return None
    if d < 0:
        x1, x2 = x2, x1
    # exact squared distance to the centre, scaled by d^2
    dist = [(d * (X[i] - ox) - ux) ** 2 + (d * (Y[i] - oy) - uy) ** 2 for i in range(n)]
    order = sorted((i for i in range(n) if i not in (x0, x1, x2)), key=dist.__getitem__)

    # half-edge h runs from tri[h] to tri[h + 1] (mod 3 within its triangle),
    # triangles counter-clockwise; opp[h] is the twin half-edge or -1 on the hull
    tri = [x0, x1, x2]
    opp = [-1, -1, -1]
    nxt = [-1] * n  # hull successor (counter-clockwise); -1 off the hull
    prv = [-1] * n
    hull_edge = [-1] * n  # the hull half-edge leaving each hull vertex
    for h, (u, w) in enumerate(((x0, x1), (x1, x2), (x2, x0))):
        nxt[u], prv[w], hull_edge[u] = w, u, h

    def orient(u, v, p) -> int:
        """> 0 iff p is left of the line u -> v."""
        return (X[v] - X[u]) * (Y[p] - Y[u]) - (Y[v] - Y[u]) * (X[p] - X[u])

    def incircle(a, b, c, p) -> int:
        """> 0 iff p is inside the circle through counter-clockwise a, b, c."""
        px, py = X[p], Y[p]
        adx, ady = X[a] - px, Y[a] - py
        bdx, bdy = X[b] - px, Y[b] - py
        cdx, cdy = X[c] - px, Y[c] - py
        return ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
                + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
                + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))

    def legalize(stack) -> None:
        """Flip until no edge on the stack is illegal.  Each stacked
        half-edge h has the newest point opposite it in its triangle."""
        while stack:
            h = stack.pop()
            g = opp[h]
            if g == -1:
                continue
            t, s = h - h % 3, g - g % 3
            h1, h2 = t + (h + 1) % 3, t + (h + 2) % 3
            g1, g2 = s + (g + 1) % 3, s + (g + 2) % 3
            a, b, c, q = tri[h], tri[h1], tri[h2], tri[g2]
            if incircle(a, b, c, q) <= 0:
                continue
            # (a, b, c) + (b, a, q) -> (q, b, c) + (c, a, q)
            tri[h], tri[g] = q, c
            outer_qb, outer_ca = opp[g2], opp[h2]
            for slot, twin, start in ((h, outer_qb, q), (g, outer_ca, c)):
                opp[slot] = twin
                if twin == -1:
                    hull_edge[start] = slot
                else:
                    opp[twin] = slot
            opp[h2], opp[g2] = g2, h2
            stack.append(h)
            stack.append(g1)

    size = math.isqrt(n)
    cx = ox + ux / d
    cy = oy + uy / d
    dx, dy = scaled[:, 0] - cx, scaled[:, 1] - cy
    norm = np.abs(dx) + np.abs(dy)
    ratio = np.divide(dx, norm, out=np.zeros(n), where=norm > 0)
    angle = np.where(dy > 0, 3 - ratio, 1 + ratio) / 4
    bucket = (np.floor(angle * size).astype(np.int64) % size).tolist()
    hull_hash = [-1] * size
    for v in (x0, x1, x2):
        hull_hash[bucket[v]] = v

    for p in order:
        key = bucket[p]
        for j in range(size):
            start = hull_hash[(key + j) % size]
            if start != -1 and nxt[start] != -1:
                break
        start = prv[start]
        # find a hull edge v -> nxt[v] that p sees strictly from outside
        v = start
        while True:
            w = nxt[v]
            o = orient(v, w, p)
            if o < 0:
                break
            if o == 0:
                return None
            v = w
            if v == start:
                raise AssertionError("sweep point inside the hull")
        if v == start:
            while True:
                u = prv[v]
                o = orient(u, v, p)
                if o > 0:
                    break
                if o == 0:
                    return None
                v = u
        first = v
        # fan: triangle (w, v, p) on each visible hull edge v -> w
        stack = []
        into = -1  # half-edge p -> v of the previous fan triangle
        while True:
            w = nxt[v]
            o = orient(v, w, p)
            if o > 0:
                break
            if o == 0:
                return None
            t = len(tri)
            tri += (w, v, p)
            old = hull_edge[v]
            opp += (old, into, -1)
            opp[old] = t
            if into == -1:
                hull_edge[first] = t + 1
            else:
                opp[into] = t + 1
            into = t + 2
            stack.append(t)
            if v != first:
                nxt[v] = -1
            v = w
        last = v
        nxt[first], prv[p], nxt[p], prv[last] = p, first, last, p
        hull_edge[p] = into
        hull_hash[key] = p
        hull_hash[bucket[first]] = first
        legalize(stack)

    edges = set()
    for h in range(len(tri)):
        g = opp[h]
        t = h - h % 3
        a, b = tri[h], tri[t + (h + 1) % 3]
        if g == -1 or h < g:
            edges.add((a, b) if a < b else (b, a))
        if g > h:
            c = tri[t + (h + 2) % 3]
            q = tri[g - g % 3 + (g + 2) % 3]
            s = incircle(a, b, c, q)
            if s == 0:
                return None
            if s > 0:
                raise AssertionError(f"edge {a}-{b} is not locally Delaunay")
    return edges


def gen_random_planar(points: int, seed: int) -> Graph:
    """Delaunay triangulation of seeded uniform points in the unit square.

    Edge weights are the Euclidean lengths snapped to multiples of 2**-30.
    Edges are listed in sorted (u, v) order.  Attempt k = 0..4 draws its
    points from default_rng(seed + 1_000_003 * k).  The triangulation is
    decided in exact integer arithmetic, and an attempt is skipped when one
    of its decisions is an exact zero (a duplicate point, all points
    collinear, a point on the line of a hull edge it is tested against, or a
    cocircular interior edge) or when a snapped length is zero.  When all
    five are skipped, GenerationError.
    """
    if points < 3:
        raise ValueError(f"need at least 3 points, got {points}")
    for attempt in range(5):
        rng = np.random.default_rng(seed + 1_000_003 * attempt)
        pts = rng.random((points, 2))
        pairs = _delaunay_edges(pts)
        if pairs is None:
            continue
        edges = []
        ok = True
        for u, v in sorted(pairs):
            d = math.dist(pts[u], pts[v])
            w = Fraction(round(d * _PLANAR_DENOM), _PLANAR_DENOM)
            if w == 0:
                ok = False
                break
            edges.append((u, v, w))
        if not ok:
            continue
        return Graph(points, edges)
    raise GenerationError(f"no valid triangulation after 5 attempts (seed {seed})")


def gen_toroidal_grid(p: int, q: int, weights: str = "uniform", seed: int = 0) -> Graph:
    """p x q grid with wraparound rows and columns (a torus), m = 2pq.

    weights: "unit" for all-ones, "uniform" for seeded rationals in [1, 2].
    Vertex (i, j) has id i*q + j; for each vertex its rightward edge is listed
    before its downward edge.
    """
    if p < 3 or q < 3:
        raise ValueError(f"need p, q >= 3 to avoid parallel edges, got {p}x{q}")
    _, weight = _weights(weights, seed)
    edges = []
    for i in range(p):
        for j in range(q):
            here = i * q + j
            for other in (i * q + (j + 1) % q, ((i + 1) % p) * q + j):
                edges.append((here, other, weight()))
    return Graph(p * q, edges)


def gen_grid(p: int, q: int, weights: str = "unit", seed: int = 0) -> Graph:
    """Plain p x q grid (no wraparound); weights as in gen_toroidal_grid."""
    if p < 1 or q < 1 or p * q < 2:
        raise ValueError(f"grid {p}x{q} too small")
    _, weight = _weights(weights, seed)
    edges = []
    for i in range(p):
        for j in range(q):
            here = i * q + j
            if j + 1 < q:
                edges.append((here, here + 1, weight()))
            if i + 1 < p:
                edges.append((here, here + q, weight()))
    return Graph(p * q, edges)


def gen_random_tree(n: int, seed: int = 0, weights: str = "uniform") -> Graph:
    """Random recursive tree: vertex i attaches to a uniform earlier vertex."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rng, weight = _weights(weights, seed)
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        edges.append((parent, i, weight()))
    return Graph(n, edges)


def gen_erdos_renyi(n: int, p, seed: int = 0, weights: str = "uniform") -> Graph:
    """G(n, p) with seeded [1, 2] weights; resamples until connected.

    Up to 50 resamples (advancing the stream, same seed);
    raises GenerationError if none of them is connected.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    pf = float(Fraction(p))  # accepts "1/2" strings from JSON specs
    if not (0 < pf <= 1):
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    rng, weight = _weights(weights, seed)
    for _ in range(50):
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < pf:
                    edges.append((u, v, weight()))
        g = Graph(n, edges)
        if is_connected(g):
            return g
    raise GenerationError(f"no connected G({n}, {p}) after 50 samples (seed {seed})")


# ---------------------------------------------------------------------------
# edge-list file format: "n m" header, then one "u v p q" line per edge,
# '#' lines are comments.  write_graph emits a canonical form that read_graph
# round-trips byte-identically.


def graph_to_text(g: Graph) -> str:
    """Canonical edge-list text: header `n m`, then `u v p q` per edge."""
    lines = [f"{g.n} {g.edge_count}"]
    for eid, (u, v) in enumerate(g.edges):
        w = g.weight(eid)
        lines.append(f"{u} {v} {w.numerator} {w.denominator}")
    return "\n".join(lines) + "\n"


def write_graph(g: Graph, path) -> None:
    Path(path).write_text(graph_to_text(g), encoding="utf-8")


def read_graph(path) -> Graph:
    path = Path(path)
    header = None
    edges = []
    n = m = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError(f"header must be 'n m', got {raw!r}", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"header must be two ints, got {raw!r}", lineno) from None
            if n < 1 or m < 0:
                raise ParseError(f"bad sizes n={n} m={m}", lineno)
            header = (n, m)
            continue
        if len(parts) != 4:
            raise ParseError(f"edge line must be 'u v p q', got {raw!r}", lineno)
        try:
            u, v, p, q = (int(x) for x in parts)
        except ValueError:
            raise ParseError(f"edge line must be four ints, got {raw!r}", lineno) from None
        if q < 1:
            raise ParseError(f"weight denominator must be >= 1, got {q}", lineno)
        if p < 0:
            raise ParseError(f"negative weight {p}/{q}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u},{v}) out of range for n={n}", lineno)
        if u == v:
            raise ParseError(f"self-loop at {u}", lineno)
        edges.append((u, v, Fraction(p, q)))
    if header is None:
        raise ParseError("empty file: missing 'n m' header")
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, file has {len(edges)}")
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# instance specs: a JSON-friendly description that builds a concrete instance


def _param(params: dict, key: str, parse=int):
    """params[key], 0 when absent, read by `parse`: int for a count (an int
    or a string of one) or as_fraction for a rational.  A float, or a value
    `parse` rejects, is a ValueError that names the param: 3.7 is not 3."""
    value = params.get(key, 0)
    try:
        if not isinstance(value, float):
            return parse(value)
    except ValueError:
        pass
    kind = "an integer" if parse is int else "an exact rational"
    raise ValueError(f"instance param {key!r} must be {kind}, got {value!r}")


# family -> (required params, optional params, the genus of every graph it
# builds or None for unknown, its builder from (params, seed) to the graph)
FAMILIES = {
    "comb_lower_bound": (("k", "delta"), (), 0, lambda p, s: gen_comb_lower_bound(
        _param(p, "k"), _param(p, "delta", as_fraction))),
    "random_planar": (("points",), (), 0, lambda p, s: gen_random_planar(_param(p, "points"), s)),
    "toroidal_grid": (("p", "q"), ("weights",), 1, lambda p, s: gen_toroidal_grid(
        _param(p, "p"), _param(p, "q"), p.get("weights", "uniform"), s)),
    "grid": (("p", "q"), ("weights",), 0, lambda p, s: gen_grid(
        _param(p, "p"), _param(p, "q"), p.get("weights", "unit"), s)),
    "random_tree": (("n",), ("weights",), 0, lambda p, s: gen_random_tree(
        _param(p, "n"), s, p.get("weights", "uniform"))),
    "erdos_renyi": (("n", "p"), ("weights",), None, lambda p, s: gen_erdos_renyi(
        _param(p, "n"), p["p"], s, p.get("weights", "uniform"))),
    # "start" is the walk's start vertex, which is 0 in every other family
    "file": (("path",), ("start",), None, lambda p, s: read_graph(p["path"])),
}


@dataclass(frozen=True)
class InstanceSpec:
    """Serializable description of one instance: family, parameters, seed.

    Making one is its one check: the family is in FAMILIES, params is a
    dict of its required params plus any of its optional ones, each a
    number or a string, and the seed is an int >= 0; else ValueError.  The
    generators check the params' values.
    """

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.family, str) and self.family in FAMILIES):
            raise ValueError(f"unknown instance family {self.family!r}; known: {', '.join(FAMILIES)}")
        required, optional, _, _ = FAMILIES[self.family]
        if not isinstance(self.params, dict):
            raise ValueError(f"instance params must be a dict, got {self.params!r}")
        if not set(required) <= set(self.params) <= {*required, *optional}:
            raise ValueError(f"instance family {self.family!r} needs params {list(required)} and may"
                             f" have {list(optional)}, got {sorted(self.params)}")
        for key, value in self.params.items():
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise ValueError(f"instance param {key!r} must be a number or a string, got {value!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"instance seed must be an int >= 0, got {self.seed!r}")

    def to_json_dict(self) -> dict:
        return {"family": self.family, "params": dict(self.params), "seed": self.seed}

    @classmethod
    def from_json_dict(cls, d: dict) -> "InstanceSpec":
        """Parse a spec object; top-level keys other than family, params and
        seed, or params that are not an object, are a ParseError."""
        if not isinstance(d, dict):
            raise ParseError(f"instance spec must be a JSON object: {d!r}")
        unknown = sorted(d.keys() - {"family", "params", "seed"})
        if unknown:
            raise ParseError(f"instance spec has unknown keys {', '.join(unknown)}: {d!r}")
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise ParseError(f"instance params must be a JSON object: {params!r}")
        return cls(family=d.get("family"), params=dict(params), seed=d.get("seed", 0))

    @property
    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}[{inner}]#{self.seed}"

    def __hash__(self):
        return hash((self.family, tuple(sorted(self.params.items())), self.seed))


@dataclass
class BuiltInstance:
    graph: Graph
    start: int
    spec: InstanceSpec
    genus: int | None = None  # None = unknown


def build_instance(spec: InstanceSpec) -> BuiltInstance:
    """Materialize a spec; same spec always gives an identical graph."""
    _, _, genus, build = FAMILIES[spec.family]
    g = build(spec.params, spec.seed)
    return BuiltInstance(g, _param(spec.params, "start"), spec, genus=genus)
