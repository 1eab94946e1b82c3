"""Online exploration of a weighted graph with a delta-blocking waiting rule.

The agent stands on a vertex of an unknown connected graph.  Visiting a
vertex reveals (learns) its incident edges and their weights.  A boundary
edge has exactly one explored endpoint.  Distances d(x, y) used by the rule
are lengths of shortest *internally explored* paths: every interior vertex
of the path is explored; an edge touching an unexplored vertex may appear
only at the ends.

A boundary edge e = (u, v) is blocked when a strictly lighter boundary edge
e' = (u', v') exists with d(u, v') <= (1+delta) * w(e): a cheaper doorway is
nearby, so taking e now could be wasteful.  The explorer repeatedly takes an
unblocked boundary edge that either starts at its current recursion vertex
or was earlier blocked by an edge ending at that vertex, recursing on every
newly explored vertex and walking back afterwards.

The engine only ever reads adjacency of explored vertices; an auditing view
counts every adjacency read and raises if that discipline is broken.

Four exact facts let the engine skip work without changing any decision:

1. Edges into an unexplored v leave the boundary only when v is explored,
   so minw[v], the lightest boundary edge into v, can only fall while v is
   unexplored.  It is kept per vertex and read in O(1).
2. If minw[v] < w(e), the lightest boundary edge at v is not e.  A witness
   at e's own far end therefore never needs e excluded from the minimum.
3. A witness v' of e, once valid, stays valid while e is on the boundary
   and v' is unexplored (fact 1 and fact 4).  The witness sweep, run just
   before v' is explored, therefore finds every pair that can re-activate
   e at v', and it alone writes the re-activation records.  A witness a
   blocked check finds is only a cache entry, since the sweep at v' would
   record that pair again.
4. Distances only shrink and minw only falls, so a cached witness stays a
   proof of "blocked" until it is explored: which Dijkstra finds a witness,
   and when, changes no decision.

One Dijkstra kernel serves every distance question.  It pushes only explored
vertices onto its heap and keeps tentative distances of unexplored leaves in
a dict: a path may end at a leaf but never passes through one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappush, heappop
from typing import NamedTuple

from .core import (
    INF,
    EdgeSubset,
    Graph,
    _within,
    as_fraction,
    mst_maximizing_overlap,
    require_connected,
)
from .errors import (
    InvariantViolation,
    OnlinePurityError,
    StateError,
)


# ---------------------------------------------------------------------------
# parameters

@dataclass(frozen=True)
class TieBreak:
    """Preference order used to pick among admissible boundary edges.

    kind "by_edge_id": smaller id wins.  kind "adversarial": a scripted id
    order, unscripted edges after all scripted ones.  kind "random": a seeded
    shuffle of the ids, fixed for the whole run.
    """

    kind: str = "by_edge_id"
    script: tuple[int, ...] | None = None
    seed: int | None = None

    @classmethod
    def by_edge_id(cls) -> "TieBreak":
        return cls("by_edge_id")

    @classmethod
    def adversarial(cls, script) -> "TieBreak":
        return cls("adversarial", script=tuple(int(e) for e in script))

    @classmethod
    def random(cls, seed: int) -> "TieBreak":
        return cls("random", seed=int(seed))

    def priorities(self, m: int) -> list[int]:
        """prio[eid]; candidates are compared by (prio[eid], eid)."""
        if self.kind == "by_edge_id":
            return list(range(m))
        if self.kind == "adversarial":
            if self.script is None:
                raise ValueError("adversarial tie-break needs a script")
            prio = [m + i for i in range(m)]
            for pos, eid in enumerate(self.script):
                if not (0 <= eid < m):
                    raise ValueError(f"scripted edge id {eid} out of range")
                prio[eid] = pos
            return prio
        if self.kind == "random":
            if self.seed is None:
                raise ValueError("random tie-break needs a seed")
            prio = list(range(m))
            random.Random(self.seed).shuffle(prio)
            return prio
        raise ValueError(f"unknown tie-break kind {self.kind!r}")

    def describe(self):
        if self.kind == "by_edge_id":
            return "by_edge_id"
        if self.kind == "adversarial":
            return {"adversarial": list(self.script or ())}
        return {"random": self.seed}


@dataclass(frozen=True)
class ExplorationParams:
    delta: Fraction
    start: int = 0
    tie_break: TieBreak = field(default_factory=TieBreak.by_edge_id)
    verify_invariants: bool = True

    def __post_init__(self):
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")


# ---------------------------------------------------------------------------
# the online view: all adjacency reads go through here

class OnlineView:
    """Gatekeeper between the engine and the hidden graph.

    Grants adjacency only for explored vertices, counting every read.  A read
    of an unexplored vertex's neighborhood is an engine bug and raises.  The
    Dijkstra kernel performs the same check and count inline.
    """

    __slots__ = ("_adj", "explored", "adjacency_reads")

    def __init__(self, g: Graph, explored: list[bool]):
        self._adj = g._adj
        self.explored = explored
        self.adjacency_reads = 0

    def incident(self, u: int):
        self.adjacency_reads += 1
        if not self.explored[u]:
            raise OnlinePurityError(f"adjacency of unexplored vertex {u} requested")
        return self._adj[u]


# ---------------------------------------------------------------------------
# exploration state

class ExplorationState:
    """Explored/learned sets, oriented boundary, and blocking bookkeeping.

    Boundary edges live in flat per-edge lists: src[e] is the explored
    endpoint and far[e] the unexplored one (-1 for edges never on the
    boundary); e is on the boundary while far[e] is unexplored.  out[u] and
    into[v] list the boundary edges at explored u and unexplored v.  For an
    explored u, inner[u] lists the (neighbour, edge, weight) entries of its
    explored neighbours, in adjacency order per neighbour: out[u] and
    inner[u] together are u's adjacency, learned when u was explored.

    rec_by_witness[v'] lists the boundary edges that v' blocked just before
    v' was explored (the witness sweep); the invocation started at v'
    re-activates them (fact 3 of the module docstring).  _active_wit[e] is
    the witness cache: the witnesses the last blocked check of e found.
    """

    def __init__(self, g: Graph, position: int):
        n, m = g.n, g.edge_count
        self.g = g
        self.explored = [False] * n
        self.learned = [False] * n
        self.explored_count = 0
        self.src = [-1] * m
        self.far = [-1] * m
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.into: list[list[int]] = [[] for _ in range(n)]
        self.inner: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self.minw: list[int | None] = [None] * n
        self.rec_by_witness: dict[int, list[int]] = {}
        self._active_wit: dict[int, list[int]] = {}
        self._maxw_heap: list[tuple[int, int]] = []
        self._minw_heap: list[tuple[int, int]] = []
        self.position = position
        self.cost = 0  # scaled
        self.view = OnlineView(g, self.explored)
        # stamped scratch arrays for Dijkstra (avoid per-call allocation)
        self._gen = 0
        self._dj_stamp = [0] * n
        self._dj_dist = [0] * n
        self._dj_pare = [-1] * n
        self._dj_parv = [-1] * n

    @classmethod
    def initial(cls, g: Graph, start: int) -> "ExplorationState":
        if not (0 <= start < g.n):
            raise ValueError(f"start vertex {start} out of range")
        st = cls(g, start)
        st.mark_explored(start)
        return st

    @classmethod
    def from_explored(cls, g: Graph, explored, position: int | None = None) -> "ExplorationState":
        """State as if the given vertices had been visited (for offline checks)."""
        vs = sorted(set(explored))
        if not vs:
            raise ValueError("need at least one explored vertex")
        st = cls(g, position if position is not None else vs[0])
        for v in vs:
            st.mark_explored(v)
        if not st.explored[st.position]:
            raise ValueError(f"position {st.position} is not explored")
        return st

    def mark_explored(self, v: int) -> None:
        explored = self.explored
        if explored[v]:
            raise StateError(f"vertex {v} already explored")
        explored[v] = True
        self.explored_count += 1
        self.learned[v] = True
        # edges into v stop being boundary; edges to unexplored vertices start
        src, out, into, minw = self.src, self.out, self.into, self.minw
        for eid in into[v]:
            out[src[eid]].remove(eid)
        into[v] = []
        minw[v] = None
        far, inner = self.far, self.inner
        mine = out[v]
        for entry in self.view.incident(v):
            other, eid, w = entry
            self.learned[other] = True
            if explored[other]:
                inner[v].append(entry)
                inner[other].append((v, eid, w))
            else:
                src[eid] = v
                far[eid] = other
                mine.append(eid)
                into[other].append(eid)
                m = minw[other]
                if m is None or w < m:
                    minw[other] = w
                heappush(self._maxw_heap, (-w, eid))
                heappush(self._minw_heap, (w, eid))

    def on_boundary(self, eid: int) -> bool:
        f = self.far[eid]
        return f >= 0 and not self.explored[f]

    def max_boundary_weight_scaled(self) -> int | None:
        heap = self._maxw_heap
        far, explored = self.far, self.explored
        while heap:
            w, eid = heap[0]
            if not explored[far[eid]]:
                return -w
            heappop(heap)
        return None

    def min_boundary_weight_scaled(self) -> int | None:
        heap = self._minw_heap
        far, explored = self.far, self.explored
        while heap:
            w, eid = heap[0]
            if not explored[far[eid]]:
                return w
            heappop(heap)
        return None

    def has_valid_witness(self, eid: int) -> bool:
        """Re-confirm blocking from a cached witness.

        A cached pair's distance clause can only get easier to satisfy over
        time (the explored set grows, distances shrink), and minw of its
        witness can only fall (fact 1), so a cached witness that is still
        unexplored proves e is blocked right now without any distance work.
        """
        lst = self._active_wit.get(eid)
        if not lst:
            return False
        explored = self.explored
        for i, v in enumerate(lst):
            if not explored[v]:
                if i:
                    lst[0], lst[i] = lst[i], lst[0]
                return True
        return False


# ---------------------------------------------------------------------------
# internally explored Dijkstra on top of a state

def _dijkstra_explored(
    state: ExplorationState,
    seeds,
    radius=None,
    target=-1,
    parents=False,
    stop_leaf=None,
    want_leaves=False,
):
    """Dijkstra whose paths pass through explored vertices only.

    seeds: (scaled distance, explored vertex) pairs.  Only explored vertices
    enter the heap, relaxed over state.inner; an unexplored neighbour, found
    over state.out, is a leaf whose tentative distance lives in the returned
    dict (with want_leaves or stop_leaf) and is never expanded.  Returns
    (settled, leaves): settled lists the explored vertices in settling order,
    their exact distances in state._dj_dist under this call's stamp.

    Vertices settle in (distance, id) order.  The search stops before
    settling a vertex beyond `radius`, after settling `target` (which is then
    not expanded), or, with stop_leaf, once the best leaf (stop_leaf >= 0:
    that vertex; -1: any leaf) would settle before the next explored vertex.
    Leaf distances up to the stopping point are then exact.  Every expansion
    counts one adjacency read; an unexplored vertex is never expanded.
    """
    state._gen += 1
    gen = state._gen
    done = -gen
    stamp = state._dj_stamp
    dist = state._dj_dist
    pare = state._dj_pare
    parv = state._dj_parv
    explored = state.explored
    inner, out, far, iw = state.inner, state.out, state.far, state.g._iw
    # heap keys encode (d, u) as d * n + u: one int compares like the pair
    n = len(explored)
    heap = []
    for d0, s in seeds:
        if stamp[s] != gen or d0 < dist[s]:
            stamp[s] = gen
            dist[s] = d0
            if parents:
                pare[s] = -1
                parv[s] = -1
            heappush(heap, d0 * n + s)
    want_leaves = want_leaves or stop_leaf is not None
    # no key at or beyond `cut` is settled
    cut = INF if radius is None else (radius + 1) * n
    leaves: dict[int, int] = {}
    settled = []
    reads = 0
    while heap:
        key = heappop(heap)
        if key >= cut:
            break
        u = key % n
        if stamp[u] == done:
            continue  # a stale entry: u settled from a smaller key
        stamp[u] = done
        settled.append(u)
        if u == target:
            break
        if not explored[u]:
            state.view.adjacency_reads += reads
            raise OnlinePurityError(f"adjacency of unexplored vertex {u} requested")
        reads += 1
        d = key // n
        for other, eid, w in inner[u]:
            s = stamp[other]
            if s == done:
                continue
            nd = d + w
            if s != gen or nd < dist[other]:
                stamp[other] = gen
                dist[other] = nd
                if parents:
                    pare[other] = eid
                    parv[other] = u
                heappush(heap, nd * n + other)
        if not want_leaves:
            continue
        for eid in out[u]:
            other = far[eid]
            nd = d + iw[eid]
            old = leaves.get(other)
            if old is None or nd < old:
                leaves[other] = nd
                if parents:
                    pare[other] = eid
                    parv[other] = u
                if stop_leaf is not None and (stop_leaf < 0 or other == stop_leaf):
                    lk = nd * n + other + 1
                    if lk < cut:
                        cut = lk
    state.view.adjacency_reads += reads
    return settled, leaves


def _path_to(state: ExplorationState, x: int) -> list[tuple[int, int, int]]:
    """(edge, from, to) steps of the last parent-tracking search, seed to x."""
    pare, parv = state._dj_pare, state._dj_parv
    path = []
    while parv[x] != -1:
        path.append((pare[x], parv[x], x))
        x = parv[x]
    path.reverse()
    return path


def internally_explored_distance(state: ExplorationState, g: Graph, x: int, y: int):
    """d(x, y): shortest path whose interior vertices are all explored.

    Both endpoints must be learned (or explored).  Returns a Fraction, or
    inf when no such path exists yet.
    """
    if g is not state.g:
        raise ValueError("state belongs to a different graph")
    for z in (x, y):
        if not (0 <= z < g.n) or not state.learned[z]:
            raise ValueError(f"vertex {z} is not learned")
    if x == y:
        return Fraction(0)
    best_direct = None
    if not state.explored[x]:
        seeds = []
        for other, eid, w in g._adj[x]:
            if other == y and (best_direct is None or w < best_direct):
                best_direct = w
            if state.explored[other]:
                seeds.append((w, other))
    else:
        seeds = [(0, x)]
    if state.explored[y]:
        _dijkstra_explored(state, seeds, target=y)
        d = state._dj_dist[y] if state._dj_stamp[y] == -state._gen else None
    else:
        _, leaves = _dijkstra_explored(state, seeds, stop_leaf=y)
        d = leaves.get(y)
    if best_direct is not None and (d is None or best_direct < d):
        d = best_direct
    if d is None:
        return INF
    return Fraction(d, g._scale)


def is_blocked(state: ExplorationState, g: Graph, eid: int, delta):
    """Is boundary edge eid blocked, and by which unexplored endpoints?

    Blocked means: some strictly lighter boundary edge e' = (u', v') has
    d(u, v') <= (1+delta) * w(eid), with u the explored endpoint of eid.
    Returns every witness v' found; the state records none of them.
    """
    if g is not state.g:
        raise ValueError("state belongs to a different graph")
    if not state.on_boundary(eid):
        raise StateError(f"edge {eid} is not a boundary edge")
    d = as_fraction(delta)
    if d <= 0:
        raise ValueError(f"delta must be positive, got {d}")
    one_plus = 1 + d
    w = g._iw[eid]
    mn = state.min_boundary_weight_scaled()
    if mn is None or mn >= w:
        return False, set()
    radius = one_plus.numerator * w // one_plus.denominator
    (blockers,) = _blocking_witnesses(state, state.src[eid], [(eid, radius)])
    return bool(blockers), set(blockers)


def _blocking_witnesses(state: ExplorationState, source: int, checks) -> list[list[int]]:
    """The blocking predicate, for boundary edges leaving explored `source`.

    checks holds (edge, scaled radius) pairs.  One bounded search from the
    source serves them all: every unexplored v' within an edge's radius
    whose lightest boundary edge minw[v'] is lighter than the edge blocks
    it.  Returns each edge's witnesses, in the order of checks.  The edge
    itself is never the lightest edge at a witness, so it needs no
    exclusion (fact 2 of the module docstring).
    """
    radius = max(r for _, r in checks)
    _, leaves = _dijkstra_explored(state, [(0, source)], radius=radius, want_leaves=True)
    minw, iw = state.minw, state.g._iw
    near = [(v, dv, minw[v]) for v, dv in leaves.items() if dv <= radius]
    found = []
    for eid, bound in checks:
        w = iw[eid]
        found.append([v for v, dv, bw in near if dv <= bound and bw < w])
    return found


# ---------------------------------------------------------------------------
# traversal logs

APPROACH = "approach"
TAKE = "take-boundary"
RETURN = "return"


class TraversalStep(NamedTuple):
    edge: int
    source: int
    dest: int
    role: str
    charged_to: int


@dataclass
class TraversalLog:
    """One run: its steps, their exact total cost and the taken boundary edges.

    blocker_records maps a boundary edge e to the vertices v' that blocked
    e just before v' was explored while e stayed on the boundary: the
    witness sweep's records, which depend on the definition alone, not on
    when the witness cache short-cut a check.
    """

    algorithm: str
    start: int
    steps: tuple[TraversalStep, ...]
    total_cost: Fraction
    taken_boundary: EdgeSubset
    delta: Fraction | None = None
    tie_break: TieBreak | None = None
    blocker_records: dict = field(default_factory=dict)
    verification: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        params: dict = {"algorithm": self.algorithm, "start": self.start}
        if self.delta is not None:
            params["delta"] = str(self.delta)
        if self.tie_break is not None:
            params["tie_break"] = self.tie_break.describe()
        return {
            "params": params,
            "steps": [
                {
                    "edge": s.edge,
                    "from": s.source,
                    "to": s.dest,
                    "role": s.role,
                    "charged_to": s.charged_to,
                }
                for s in self.steps
            ],
            "total_cost": str(self.total_cost),
            "boundary_edges": sorted(self.taken_boundary.ids),
            "verification": self.verification,
        }


# ---------------------------------------------------------------------------
# the explorer

class _Engine:
    def __init__(self, g: Graph, params: ExplorationParams):
        require_connected(g, "run_blocking")
        self.g = g
        self.params = params
        one_plus = 1 + params.delta
        two_plus = 2 + params.delta
        self.p1, self.q1 = one_plus.numerator, one_plus.denominator
        self.p2, self.q2 = two_plus.numerator, two_plus.denominator
        p1, q1 = self.p1, self.q1
        # bnd[e]: the blocking radius (1+delta) w(e), scaled and floored
        self.bnd = [p1 * w // q1 for w in g._iw]
        # priorities are distinct, so prio alone orders like (prio, id)
        self.prio = params.tie_break.priorities(g.edge_count)
        self.state = ExplorationState.initial(g, params.start)
        self.steps: list[TraversalStep] = []
        self.taken: list[int] = []

    # -- blocking checks ----------------------------------------------------

    def _blocked_many(self, source: int, eids: list[int], mn, status: dict) -> None:
        """Blocked status for boundary edges sharing explored endpoint source.

        mn is the lightest boundary weight.  Cheap verdicts first: nothing on
        the boundary is lighter, or a cached witness that is still unexplored
        proves "blocked" with no distance work.  The rest go to the blocking
        predicate, and the witnesses it finds become the edge's cache.
        """
        st = self.state
        iw = self.g._iw
        bnd = self.bnd
        needy = []
        for eid in eids:
            w = iw[eid]
            if mn is None or mn >= w:
                status[eid] = False
            elif st.has_valid_witness(eid):
                status[eid] = True
            else:
                needy.append(eid)
        if not needy:
            return
        found = _blocking_witnesses(st, source, [(eid, bnd[eid]) for eid in needy])
        for eid, blockers in zip(needy, found):
            status[eid] = bool(blockers)
            st._active_wit[eid] = blockers

    def _select(self, v: int):
        """First admissible boundary edge at the invocation vertex v, or None.

        Admissible: not blocked, and either leaving v itself or re-activated
        because v was recorded as a blocker endpoint for it.  Edges leaving v
        are preferred as a class; within a class the tie-break order decides.
        """
        st = self.state
        prio = self.prio
        mn = st.min_boundary_weight_scaled()
        status: dict[int, bool] = {}
        class1 = sorted(st.out[v], key=prio.__getitem__)
        if class1:
            self._blocked_many(v, class1, mn, status)
            for eid in class1:
                if not status[eid]:
                    return eid
        recs = st.rec_by_witness.get(v)
        if recs:
            src, far, explored = st.src, st.far, st.explored
            class2 = sorted(
                (e for e in recs if not explored[far[e]] and src[e] != v),
                key=prio.__getitem__,
            )
            by_source: dict[int, list[int]] = {}
            for eid in class2:
                by_source.setdefault(src[eid], []).append(eid)
            for source, eids in by_source.items():
                self._blocked_many(source, eids, mn, status)
            for eid in class2:
                if not status[eid]:
                    return eid
        return None

    # -- movement -----------------------------------------------------------

    def _walk(self, to: int, role: str, charge: int, radius: int) -> None:
        st = self.state
        if st.position == to:
            return
        _dijkstra_explored(st, [(0, st.position)], radius=radius, target=to, parents=True)
        if st._dj_stamp[to] != -st._gen:
            raise InvariantViolation(
                "walk-distance-bound",
                witness=(st.position, to, role),
                detail="no internally explored path within the guaranteed radius",
            )
        iw = self.g._iw
        steps = self.steps
        for eid, a, b in _path_to(st, to):
            steps.append(TraversalStep(eid, a, b, role, charge))
            st.cost += iw[eid]
        st.position = to

    def _witness_sweep(self, x: int) -> None:
        """Record x as a blocker endpoint for every boundary edge it blocks.

        Runs just before x is explored: the edges from explored territory
        into x are about to vanish, and any edge they block right now must
        remember x so that the invocation at x can re-activate it.  Distances
        only shrink over time, so checking at this last moment catches every
        pair that ever satisfied the blocking clause (fact 3).  The records
        feed rec_by_witness only: x is explored next, so a cache entry for
        it could never confirm anything.
        """
        st = self.state
        inc = st.into[x]
        if not inc:
            return
        wmin = st.minw[x]
        maxw = st.max_boundary_weight_scaled()
        if maxw is None or maxw <= wmin:
            return
        iw = self.g._iw
        src = st.src
        seeds: dict[int, int] = {}
        for eid in inc:
            u, w = src[eid], iw[eid]
            if u not in seeds or w < seeds[u]:
                seeds[u] = w
        settled, _ = _dijkstra_explored(
            st, [(w, u) for u, w in seeds.items()], radius=self.p1 * maxw // self.q1
        )
        dist = st._dj_dist
        out, far, bnd = st.out, st.far, self.bnd
        found = []
        for u in settled:
            lst = out[u]
            if not lst:
                continue
            du = dist[u]
            for eid in lst:
                if du <= bnd[eid] and iw[eid] > wmin and far[eid] != x:
                    found.append(eid)
        if found:
            st.rec_by_witness[x] = found

    # -- main loop ----------------------------------------------------------

    def run(self) -> TraversalLog:
        st = self.state
        g = self.g
        iw = g._iw
        frames: list[tuple[int, int]] = [(st.position, -1)]
        while frames:
            v = frames[-1][0]
            eid = self._select(v)
            if eid is None:
                _, entered_by = frames.pop()
                if frames:
                    self._walk(
                        frames[-1][0],
                        RETURN,
                        entered_by,
                        self.p2 * iw[entered_by] // self.q2,
                    )
                continue
            y, x, w = st.src[eid], st.far[eid], iw[eid]
            if y != v:
                self._walk(y, APPROACH, eid, self.bnd[eid])
            self._witness_sweep(x)
            self.steps.append(TraversalStep(eid, y, x, TAKE, eid))
            st.cost += w
            st.mark_explored(x)
            st.position = x
            self.taken.append(eid)
            frames.append((x, eid))
        if st.explored_count != g.n:
            missing = next(i for i in range(g.n) if not st.explored[i])
            raise InvariantViolation("exploration-complete", witness=missing)
        if st.position != self.params.start:
            raise InvariantViolation("return-to-start", witness=st.position)
        records: dict[int, set[int]] = {}
        for x, eids in st.rec_by_witness.items():
            for eid in eids:
                records.setdefault(eid, set()).add(x)
        log = TraversalLog(
            algorithm="blocking",
            start=self.params.start,
            steps=tuple(self.steps),
            total_cost=Fraction(st.cost, g._scale),
            taken_boundary=EdgeSubset(g, self.taken),
            delta=self.params.delta,
            tie_break=self.params.tie_break,
            blocker_records={e: frozenset(s) for e, s in records.items()},
        )
        log.verification["access_audit"] = {
            "adjacency_reads": st.view.adjacency_reads,
            "violations": 0,
        }
        return log


def run_blocking(g: Graph, params: ExplorationParams) -> TraversalLog:
    """Explore g with the delta-blocking rule; returns the full traversal log.

    Deterministic given (g, params).  With verify_invariants, the reports of
    the cost-charge bound and of the long-cycle property of the taken edges
    are stored in log.verification, whatever their verdicts; a failed
    verdict is an answer, not an error.  Only an engine failure that leaves
    no valid run ends in InvariantViolation, thrown by the engine itself.
    """
    log = _Engine(g, params).run()
    if params.verify_invariants:
        chain = verify_cost_chain(g, log, params.delta)
        log.verification["cost_chain"] = chain.to_dict()
        cyc = verify_blocking_cycle_property(g, log, params.delta)
        log.verification["cycle_minimality"] = cyc.to_dict()
    return log


# ---------------------------------------------------------------------------
# verification

@dataclass
class CostChainReport:
    """Charge accounting for one blocking run.

    Each taken boundary edge e absorbs the approach walk before it, its own
    traversal and the walk back after its recursion; the three parts are
    bounded by (1+delta), 1 and (2+delta) times w(e), for 2(delta+2)w(e)
    total, so total cost <= 2(delta+2) * w(taken edges).
    """

    ok: bool
    total_cost: Fraction
    boundary_weight: Fraction
    bound: Fraction
    per_edge: list
    failures: list
    optspan_bound: Fraction | None = None
    mst_b_weight: Fraction | None = None
    optspan_ok: bool | None = None

    def to_dict(self) -> dict:
        d = {
            "ok": self.ok,
            "total_cost": str(self.total_cost),
            "boundary_weight": str(self.boundary_weight),
            "bound": str(self.bound),
            "failures": self.failures,
        }
        if self.optspan_bound is not None:
            d["optspan_bound"] = str(self.optspan_bound)
            d["mst_b_weight"] = str(self.mst_b_weight)
            d["optspan_ok"] = self.optspan_ok
        return d


def verify_cost_chain(g: Graph, log: TraversalLog, delta, optspan_bound=None) -> CostChainReport:
    """Check the per-edge charge decomposition and the total cost bound.

    Sums run over the graph's scaled integer weights; (1+delta) = p/q bounds
    are compared as a*q <= p*w.  With optspan_bound (an upper bound on the
    best spanner lightness of the taken edges plus their overlap-maximizing
    MST), additionally checks total <= 2(delta+2) * optspan_bound * w(MST_B).
    """
    d = as_fraction(delta)
    one_plus = 1 + d
    two_plus = 2 + d
    p1, q1 = one_plus.numerator, one_plus.denominator
    p2, q2 = two_plus.numerator, two_plus.denominator
    iw = g._iw
    scale = g._scale
    w_b = log.taken_boundary.weight()
    bound = 2 * two_plus * w_b
    taken = log.taken_boundary.ids
    slots: dict[str, dict[int, int]] = {APPROACH: {}, TAKE: {}, RETURN: {}}
    failures = []
    total = 0
    for edge, _, _, role, charged_to in log.steps:
        w = iw[edge]
        total += w
        if charged_to not in taken:
            failures.append({"edge": edge, "why": "charged to an untaken edge"})
            continue
        slot = slots[role]
        slot[charged_to] = slot.get(charged_to, 0) + w
    approach, take, ret = slots[APPROACH], slots[TAKE], slots[RETURN]
    per_edge = []
    for eid in log.taken_boundary:
        wi = iw[eid]
        ai, ti, ri = approach.get(eid, 0), take.get(eid, 0), ret.get(eid, 0)
        w = g.weight(eid)
        a, t, r = Fraction(ai, scale), Fraction(ti, scale), Fraction(ri, scale)
        per_edge.append({"edge": eid, "approach": a, "take": t, "ret": r, "weight": w})
        if ai * q1 > p1 * wi:
            failures.append({"edge": eid, "why": f"approach {a} > (1+delta)w = {one_plus * w}"})
        if ti != wi:
            failures.append({"edge": eid, "why": f"take {t} != w = {w}"})
        if ri * q2 > p2 * wi:
            failures.append({"edge": eid, "why": f"return {r} > (2+delta)w = {two_plus * w}"})
    step_sum = Fraction(total, scale)
    if step_sum != log.total_cost:
        failures.append({"why": f"step sum {step_sum} != logged total {log.total_cost}"})
    if log.total_cost > bound:
        failures.append({"why": f"total {log.total_cost} > 2(delta+2)w(B) = {bound}"})
    report = CostChainReport(
        ok=not failures,
        total_cost=log.total_cost,
        boundary_weight=w_b,
        bound=bound,
        per_edge=per_edge,
        failures=failures,
    )
    if optspan_bound is not None:
        ob = as_fraction(optspan_bound)
        mst_b = mst_maximizing_overlap(g, log.taken_boundary)
        report.optspan_bound = ob
        report.mst_b_weight = mst_b.weight()
        report.optspan_ok = log.total_cost <= 2 * two_plus * ob * mst_b.weight()
        if not report.optspan_ok:
            report.ok = False
            report.failures.append(
                {"why": f"total exceeds 2(delta+2)*{ob}*w(MST_B)={2 * two_plus * ob * mst_b.weight()}"}
            )
    return report


@dataclass
class CycleMinimalityReport:
    """Per-edge detour check over the taken edges plus their preferred MST.

    For S = B union MST_B and every e = (u, v) in S, the distance from u to
    v inside S without e must exceed (1+delta) * w(e); equivalently no proper
    subgraph of S is a (1+delta)-spanner of S, and every cycle C in S obeys
    w(C minus e) > (1+delta) w(e).
    """

    ok: bool
    checked: int
    entries: list
    violations: list

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checked": self.checked, "violations": self.violations}


def taken_union_mst(g: Graph, log: TraversalLog) -> EdgeSubset:
    """B union MST_B: the taken boundary edges plus the overlap-preferring MST."""
    b = log.taken_boundary
    mst_b = mst_maximizing_overlap(g, b)
    return EdgeSubset(g, set(b.ids) | set(mst_b.ids))


def verify_blocking_cycle_property(g: Graph, log: TraversalLog, delta) -> CycleMinimalityReport:
    """Check every edge of S = B union MST_B for a detour within (1+delta) w.

    S's adjacency is built once; each edge then gets one bounded search
    inside S without that edge, as in verify_spanner_minimality.  The search
    reports a distance only when it is within the bound, so an entry's
    detour is the exact distance when that is at most the bound and INF
    otherwise (including when there is no detour at all).
    """
    d = as_fraction(delta)
    one_plus = 1 + d
    p, q = one_plus.numerator, one_plus.denominator
    s_ids = taken_union_mst(g, log).ids
    sadj = [[t for t in row if t[1] in s_ids] for row in g._adj]
    iw = g._iw
    entries = []
    violations = []
    for eid in sorted(s_ids):
        bound = one_plus * g.weight(eid)
        u, v = g._edges[eid]
        dv = _within(sadj, u, v, p * iw[eid] // q, skip=eid)
        if dv is None:
            entries.append({"edge": eid, "detour": INF, "bound": bound})
            continue
        detour = Fraction(dv, g._scale)
        entries.append({"edge": eid, "detour": detour, "bound": bound})
        violations.append({"edge": eid, "detour": str(detour), "bound": str(bound)})
    return CycleMinimalityReport(
        ok=not violations, checked=len(entries), entries=entries, violations=violations
    )


# ---------------------------------------------------------------------------
# nearest-neighbor baseline

def run_nearest_neighbor(g: Graph, start: int = 0) -> TraversalLog:
    """Repeatedly walk to the nearest unexplored learned vertex, then home.

    Ties on distance go to the smaller vertex id.  Uses the same online view
    as the blocking explorer; serves as the classic baseline whose ratio is
    Theta(log n) in the worst case.  Each step's search stops as soon as the
    nearest unexplored vertex is known.
    """
    require_connected(g, "run_nearest_neighbor")
    if not (0 <= start < g.n):
        raise ValueError(f"start vertex {start} out of range")
    st = ExplorationState.initial(g, start)
    iw = g._iw
    steps: list[TraversalStep] = []
    taken: list[int] = []
    while st.explored_count < g.n:
        _, leaves = _dijkstra_explored(st, [(0, st.position)], parents=True, stop_leaf=-1)
        if not leaves:
            raise InvariantViolation("nearest-neighbor-frontier", witness=st.position)
        _, target = min((d, v) for v, d in leaves.items())
        path = _path_to(st, target)
        final_eid = path[-1][0]
        for eid, a, b in path:
            role = TAKE if b == target else APPROACH
            steps.append(TraversalStep(eid, a, b, role, final_eid))
            st.cost += iw[eid]
        taken.append(final_eid)
        st.mark_explored(target)
        st.position = target
    if st.position != start and taken:
        _dijkstra_explored(st, [(0, st.position)], target=start, parents=True)
        for eid, a, b in _path_to(st, start):
            steps.append(TraversalStep(eid, a, b, RETURN, taken[-1]))
            st.cost += iw[eid]
        st.position = start
    log = TraversalLog(
        algorithm="nearest_neighbor",
        start=start,
        steps=tuple(steps),
        total_cost=Fraction(st.cost, g._scale),
        taken_boundary=EdgeSubset(g, taken),
    )
    log.verification["access_audit"] = {
        "adjacency_reads": st.view.adjacency_reads,
        "violations": 0,
    }
    return log
