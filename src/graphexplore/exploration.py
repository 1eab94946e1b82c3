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
newly explored vertex and walking back afterwards.  Candidates compare by
edge id, the smaller first: the input's edge numbering is the one
tie-break order, and a caller who wants another renumbers the edges.
The boundary list out[v] of each explored v stays in id order, so the
engine scans it as it stands.

The engine only ever reads adjacency of explored vertices.  The state
counts every adjacency read, and the Dijkstra kernel raises if it is asked
to expand an unexplored vertex.

Five exact facts let the engine skip work without changing any decision:

1. Edges into an unexplored v leave the boundary only when v is explored,
   so minw[v], the lightest boundary edge into v, can only fall while v is
   unexplored.  It is kept per vertex and read in O(1).
2. If minw[v] < w(e), the lightest boundary edge at v is not e.  A witness
   at e's own far end therefore never needs e excluded from the minimum.
3. The explored set only grows, so distances only shrink, and a path that
   is new after z is explored passes through z.  A ball, the exact
   distances from one explored source u to the explored vertices and
   leaves within R_u = (1+delta) times u's heaviest boundary edge, thus
   changes only when one of its leaves z is explored, and a decrease-only
   search from z bounded by R_u repairs it (Ramalingam and Reps, 1996).
   R_u only shrinks.  Only an edge heavier than the lightest boundary edge
   can be blocked or recorded, so a source needs its ball only while its
   heaviest boundary edge is heavier than that; balls are built then.
4. Distances only shrink and minw only falls, so a witness v' of e, once
   valid, stays valid while e is on the boundary and v' is unexplored.
   The lookup over the balls holding v', run just before v' is explored,
   therefore finds every pair that can re-activate e at v', and it alone
   writes the re-activation records.  A blocked check only files e under a
   witness it finds: that proves "blocked" until the witness is explored,
   so which check finds a witness, and when, changes no decision.
5. An approach walk heads for the source y of an edge recorded at the
   current vertex.  That edge is still on the boundary, so y's ball holds
   the exact distance to y of every vertex on a shortest path, and a
   search steered by it (A* with an exact heuristic) settles only those,
   in the same order and with the same parents, and sees every second
   shortest path.  A frame at v that takes no edge explores nothing after
   v; if y, the source of the edge into v, is v's one explored neighbour,
   no path passes through v, and if the approach path was the only
   shortest path, the way back is v's first lightest edge to y and then
   the approach reversed: the path a search from v finds.

One grow loop builds and repairs the balls.  One Dijkstra kernel serves
the walks, the nearest-neighbour baseline and is_blocked's ball.  It
pushes only explored vertices onto its heap and keeps tentative distances
of unexplored leaves in a dict: a path may end at a leaf but never passes
through one.  Both loops read the graph's own adjacency rows, the one
form of the explored graph, and tell an explored neighbour from a leaf by
the explored flag.  They expand explored vertices only and count every
expansion as an adjacency read.

Two verifiers check a finished run.  verify_cost_chain charges every step
to a taken edge and bounds the charges.  verify_blocking_cycle_property
checks that the taken edges B plus their MST form a minimal
(1+delta)-spanner of themselves; it is spanner.verify_spanner_minimality
on B union MST_B.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappush, heappop
from typing import NamedTuple

from .core import (
    INF,
    EdgeSubset,
    Graph,
    as_fraction,
    mst_maximizing_overlap,
    require_connected,
)
from .errors import (
    InvariantViolation,
    OnlinePurityError,
    StateError,
)
from .spanner import MinimalityReport, verify_spanner_minimality


# ---------------------------------------------------------------------------
# parameters

@dataclass(frozen=True)
class ExplorationParams:
    delta: Fraction
    start: int = 0
    verify_invariants: bool = True

    def __post_init__(self):
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")


# ---------------------------------------------------------------------------
# exploration state

class ExplorationState:
    """Explored set, oriented boundary, walker position and cost, and the
    kernel's scratch arrays.

    Boundary edges live in flat per-edge lists: src[e] is the explored
    endpoint and far[e] the unexplored one (-1 for edges never on the
    boundary); e is on the boundary while far[e] is unexplored.  out[u]
    lists the boundary edges at explored u, in ascending id order: it is
    filled in adjacency order, which is id order since Graph builds its
    adjacency by enumerating its edges, and edges only leave it.  minw[v]
    is the lightest boundary edge into unexplored v.  The explored graph
    itself is g._adj read with the explored flags: mark_explored reads v's
    row once, and adjacency_reads counts that read and every later one:
    the Dijkstra kernel's expansions and the engine's ball searches and
    retraced returns.
    """

    def __init__(self, g: Graph, position: int):
        n, m = g.n, g.edge_count
        self.g = g
        self.explored = [False] * n
        self.explored_count = 0
        self.src = [-1] * m
        self.far = [-1] * m
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.minw: list[int | None] = [None] * n
        self._minw_heap: list[tuple[int, int]] = []
        self.position = position
        self.cost = 0  # scaled
        self.adjacency_reads = 0
        # stamped scratch arrays for Dijkstra (avoid per-call allocation)
        self._gen = 0
        self._dj_stamp = [0] * n
        self._dj_dist = [0] * n
        self._dj_pare = [-1] * n
        self._dj_tie = False

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
        self.adjacency_reads += 1
        # edges into v stop being boundary; edges to unexplored vertices start
        src, far, out, minw = self.src, self.far, self.out, self.minw
        minw[v] = None
        mine = out[v]
        for other, eid, w in self.g._adj[v]:
            if explored[other]:
                out[other].remove(eid)
            else:
                src[eid] = v
                far[eid] = other
                mine.append(eid)
                m = minw[other]
                if m is None or w < m:
                    minw[other] = w
                heappush(self._minw_heap, (w, eid))

    def on_boundary(self, eid: int) -> bool:
        f = self.far[eid]
        return f >= 0 and not self.explored[f]

    def min_boundary_weight_scaled(self) -> int | None:
        heap = self._minw_heap
        far, explored = self.far, self.explored
        while heap:
            w, eid = heap[0]
            if not explored[far[eid]]:
                return w
            heappop(heap)
        return None


# ---------------------------------------------------------------------------
# internally explored Dijkstra on top of a state

def _dijkstra_explored(
    state: ExplorationState,
    source: int,
    radius=None,
    target=-1,
    stop_leaf=False,
    want_leaves=False,
    guide=None,
):
    """Dijkstra from one explored source whose paths pass through explored
    vertices only.

    Each expanded vertex's adjacency row is read once: an explored
    neighbour is relaxed, and an unexplored one is a leaf whose tentative
    distance lives in the returned dict (with want_leaves or stop_leaf) and
    is never expanded.  Returns (settled, leaves): settled lists the
    explored vertices in settling order, their exact distances in
    state._dj_dist under this call's stamp.  Parents are always recorded in
    state._dj_pare: the first edge that improved a vertex, for _path_to.

    Vertices settle in (distance, id) order.  The search stops before
    settling a vertex beyond `radius`, after settling `target` (which is then
    not expanded), or, with stop_leaf, once the nearest leaf would settle
    before the next explored vertex.  Leaf distances up to the stopping
    point are then exact.  Every expansion counts one adjacency read; an
    unexplored vertex is never expanded, and an unexplored source raises
    OnlinePurityError.

    guide, with a target, holds exact distances to the target (a ball of
    it): D = guide[source] is the distance to cover, and an explored x is
    relaxed only when guide[x] >= 0 and d + w + guide[x] <= D; leaves are
    skipped.  That is A* with an exact heuristic: only vertices on shortest
    paths are pushed, each once and at its exact distance, and they settle
    in the same (distance, id) order with the same first-improvement
    parents as without the guide.  The search then runs on past the
    target, still without expanding it, so that every shortest path is
    relaxed: state._dj_tie tells whether some relaxation reached an already
    stamped or settled vertex, a second shortest path to it.  A guide
    without the source raises InvariantViolation.
    """
    state._gen += 1
    gen = state._gen
    done = -gen
    stamp = state._dj_stamp
    dist = state._dj_dist
    pare = state._dj_pare
    explored, adj = state.explored, state.g._adj
    # heap keys encode (d, u) as d * n + u: one int compares like the pair
    n = len(explored)
    stamp[source] = gen
    dist[source] = 0
    pare[source] = -1
    heap = [source]
    if guide is not None:
        budget = guide[source]
        if budget < 0:
            raise InvariantViolation(
                "approach-guide", witness=(source, target), detail="the guiding ball lacks the start"
            )
    want_leaves = want_leaves or stop_leaf
    # no key at or beyond `cut` is settled
    cut = INF if radius is None else (radius + 1) * n
    leaves: dict[int, int] = {}
    settled = []
    reads = 0
    tie = False
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
            if guide is None:
                break
            continue
        if not explored[u]:
            state.adjacency_reads += reads
            raise OnlinePurityError(f"adjacency of unexplored vertex {u} requested")
        reads += 1
        d = key // n
        if guide is not None:
            for other, eid, w in adj[u]:
                if not explored[other]:
                    continue
                h = guide[other]
                nd = d + w
                if h < 0 or nd + h > budget:
                    continue
                s = stamp[other]
                if s == done or s == gen:
                    tie = True  # every pushed distance is exact: an equal one
                    continue
                stamp[other] = gen
                dist[other] = nd
                pare[other] = eid
                heappush(heap, nd * n + other)
            continue
        for other, eid, w in adj[u]:
            if explored[other]:
                s = stamp[other]
                if s == done:
                    continue
                nd = d + w
                if s != gen or nd < dist[other]:
                    stamp[other] = gen
                    dist[other] = nd
                    pare[other] = eid
                    heappush(heap, nd * n + other)
            elif want_leaves:
                nd = d + w
                old = leaves.get(other)
                if old is None or nd < old:
                    leaves[other] = nd
                    pare[other] = eid
                    if stop_leaf:
                        lk = nd * n + other + 1
                        if lk < cut:
                            cut = lk
    state.adjacency_reads += reads
    state._dj_tie = tie
    return settled, leaves


def _empty_ball(n: int, radius: int):
    """A ball of `radius` that holds nothing yet: n entries of -1, in an
    array('q') when radius < 2**63, else in a list."""
    return array("q", [-1]) * n if radius < 2**63 else [-1] * n


def _ball(state: ExplorationState, source: int, radius: int):
    """The ball of explored `source`: one bounded search of the kernel.

    Returns (dist, leaves).  dist is a flat length-n array of the exact
    scaled distances from the source to every explored vertex and leaf
    within `radius`, -1 for every other vertex (see _empty_ball).  leaves
    lists the unexplored vertices it holds.  A leaf within the radius is
    reached from an explored vertex within it, which the search settled,
    so its distance is exact.
    """
    settled, found = _dijkstra_explored(state, source, radius=radius, want_leaves=True)
    dist = _empty_ball(len(state.explored), radius)
    dj = state._dj_dist
    for y in settled:
        dist[y] = dj[y]
    leaves = []
    for v, dv in found.items():
        if dv <= radius:
            dist[v] = dv
            leaves.append(v)
    return dist, leaves


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
    dist, leaves = _ball(state, state.src[eid], radius)
    blockers = _blocking_witnesses(state, dist, leaves, eid, radius)
    return bool(blockers), set(blockers)


def _blocking_witnesses(state: ExplorationState, dist, leaves: list[int], eid: int, radius: int) -> list[int]:
    """The blocking predicate for boundary edge eid, over its source's ball.

    dist and leaves are the ball of eid's explored endpoint (see _ball),
    whose radius is at least `radius`, eid's scaled blocking radius.  Every
    unexplored leaf v' within `radius` whose lightest boundary edge minw[v']
    is lighter than eid blocks it; returns them.  eid itself is never the
    lightest edge at a witness, so it needs no exclusion (fact 2 of the
    module docstring).  Explored vertices are dropped from leaves in place.
    """
    explored, minw = state.explored, state.minw
    w = state.g._iw[eid]
    leaves[:] = [v for v in leaves if not explored[v]]
    return [v for v in leaves if dist[v] <= radius and minw[v] < w]


# ---------------------------------------------------------------------------
# traversal logs

APPROACH = "approach"
TAKE = "take-boundary"
RETURN = "return"
# a step's role is stored as its index in ROLES
ROLES = (APPROACH, TAKE, RETURN)
_ROLE_CODE = {role: code for code, role in enumerate(ROLES)}


class TraversalStep(NamedTuple):
    edge: int
    source: int
    dest: int
    role: str
    charged_to: int


class TraversalSteps(Sequence):
    """A step sequence in flat columns, with no Python object per step.

    edge, source, dest and charged_to are array('i') columns and role an
    array('b') of indexes into ROLES: 17 bytes a step, plus the arrays'
    spare capacity.  Steps are written only by add_path.  Indexing by int
    and iteration build TraversalStep tuples on the fly.  An id beyond
    array('i')'s range raises OverflowError rather than wrapping, and a
    failed add_path leaves the columns as they were.  Readers over many
    steps, such as the cost-chain verifier, zip the columns instead.
    """

    __slots__ = ("edge", "source", "dest", "role", "charged_to")

    def __init__(self):
        self.edge = array("i")
        self.source = array("i")
        self.dest = array("i")
        self.role = array("b")
        self.charged_to = array("i")

    def add_path(self, path, role: str, charged_to: int) -> None:
        """Append the (edge, from, to) triples of path, all of one role and
        charged to one taken edge.  Each column is extended in one call."""
        code = _ROLE_CODE.get(role)
        if code is None:
            raise ValueError(f"unknown step role {role!r}")
        if not path:
            return
        edge, source, dest = self.edge, self.source, self.dest
        start = len(edge)
        try:
            edges, sources, dests = zip(*path)
            edge.extend(edges)
            source.extend(sources)
            dest.extend(dests)
            self.charged_to.extend(array("i", [charged_to]) * len(edges))
        except (OverflowError, TypeError, ValueError):
            for col in (edge, source, dest):
                del col[start:]
            raise
        self.role.frombytes(bytes([code]) * len(edges))

    def __len__(self) -> int:
        return len(self.edge)

    def __getitem__(self, i: int) -> TraversalStep:
        return TraversalStep(
            self.edge[i], self.source[i], self.dest[i], ROLES[self.role[i]], self.charged_to[i]
        )

    def __iter__(self):
        roles = map(ROLES.__getitem__, self.role)
        return map(TraversalStep, self.edge, self.source, self.dest, roles, self.charged_to)

    def __eq__(self, other):
        if isinstance(other, TraversalSteps):
            return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)
        return NotImplemented

    def __repr__(self) -> str:
        return f"TraversalSteps({list(self)!r})"


@dataclass
class TraversalLog:
    """One run: its steps, their exact total cost and the taken boundary edges.

    steps is a TraversalSteps, five flat columns of 17 bytes a step; a
    log given steps in any other form raises TypeError.

    blocker_records maps each vertex v' that blocked boundary edges just
    before v' was explored to the id-ordered tuple of those edges: the
    edges that the invocation at v' re-activates.  The engine writes them
    from a lookup over the balls holding v' (fact 4 of the module
    docstring) and hands its own dict to the log; they depend on the
    definition alone, not on which balls were built or which checks the
    witness index spared.
    """

    algorithm: str
    start: int
    steps: TraversalSteps
    total_cost: Fraction
    taken_boundary: EdgeSubset
    delta: Fraction | None = None
    blocker_records: dict[int, tuple[int, ...]] = field(default_factory=dict)
    verification: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.steps, TraversalSteps):
            raise TypeError(f"steps must be a TraversalSteps, not {type(self.steps).__name__}")

    def to_json_dict(self) -> dict:
        params: dict = {"algorithm": self.algorithm, "start": self.start}
        if self.delta is not None:
            params["delta"] = str(self.delta)
        s = self.steps
        return {
            "params": params,
            "steps": [
                {"edge": e, "from": a, "to": b, "role": ROLES[r], "charged_to": c}
                for e, a, b, r, c in zip(s.edge, s.source, s.dest, s.role, s.charged_to)
            ],
            "total_cost": str(self.total_cost),
            "boundary_edges": sorted(self.taken_boundary.ids),
            "verification": self.verification,
        }


# ---------------------------------------------------------------------------
# walks

def _path_to(state: ExplorationState, x: int) -> list[tuple[int, int, int]]:
    """(edge, from, to) steps of the last kernel search, source to x.

    The source has no parent edge; any other vertex's parent is the far end
    of its parent edge.
    """
    pare, ends = state._dj_pare, state.g._edges
    path = []
    eid = pare[x]
    while eid != -1:
        a, b = ends[eid]
        y = a if b == x else b
        path.append((eid, y, x))
        x, eid = y, pare[y]
    path.reverse()
    return path


def _too_far(state: ExplorationState, to: int, role: str) -> InvariantViolation:
    return InvariantViolation(
        "walk-distance-bound",
        witness=(state.position, to, role),
        detail="no internally explored path within the guaranteed radius",
    )


def _walk(state: ExplorationState, steps: TraversalSteps, to: int, role: str, charge: int,
          radius=None, guide=None) -> list[tuple[int, int, int]]:
    """Walk a shortest internally explored path from the position to `to`.

    Appends its steps, charged to taken edge `charge`, adds their cost and
    returns them.  No such path within `radius` (scaled) is an engine
    failure.  guide, a ball of `to`, only steers the search (see
    _dijkstra_explored); the path is the same.
    """
    if state.position == to:
        return []
    _dijkstra_explored(state, state.position, radius=radius, target=to, guide=guide)
    if state._dj_stamp[to] != -state._gen:
        raise _too_far(state, to, role)
    path = _path_to(state, to)
    steps.add_path(path, role, charge)
    iw = state.g._iw
    state.cost += sum(iw[eid] for eid, _, _ in path)
    state.position = to
    return path


# ---------------------------------------------------------------------------
# the explorer

class _Engine:
    """The blocking explorer over one state, with a ball per heavy source.

    balls[u], leaves[u] and radius[u] are the ball of explored u (fact 3 of
    the module docstring; _grow builds and repairs it), or None while u has
    none.  holders[v] lists the sources whose ball holds the unexplored v as
    a leaf; a dropped ball's entries are skipped where they are read.
    _unbuilt is a max-heap of the sources still without a ball, by u's
    heaviest boundary weight w when pushed, as the int key -w * n + u; a
    key only overstates w, since u's boundary edges only leave.

    A boundary edge e is known to be blocked (fact 4) while wit has an
    entry for it: wit[e] lists the witnesses its last blocked check found,
    from the first still unexplored, and filed[x] lists the edges whose
    first unexplored witness is x.  Exploring x moves each of them on to
    its next unexplored witness, or deletes its entry when none is left.

    rec_by_witness[v'] is the id-ordered tuple of the boundary edges that
    v' blocked just before v' was explored (_record_blockers); the
    invocation started at v' re-activates them.  This dict is the log's
    blocker_records.
    """

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
        n = g.n
        self.balls: list = [None] * n
        self.leaves: list = [None] * n
        self.radius = [0] * n
        self.holders: list = [[] for _ in range(n)]
        self._unbuilt: list[int] = []
        self.wit: dict[int, list[int]] = {}
        self.filed: dict[int, list[int]] = {}
        self.rec_by_witness: dict[int, tuple[int, ...]] = {}
        self.state = ExplorationState.initial(g, params.start)
        self._queue(params.start)
        self.steps = TraversalSteps()
        self.taken: list[int] = []

    # -- balls --------------------------------------------------------------

    def _queue(self, u: int) -> None:
        """Put explored u in _unbuilt if it has boundary edges."""
        lst = self.state.out[u]
        if lst:
            heappush(self._unbuilt, -max(map(self.g._iw.__getitem__, lst)) * self.g.n + u)

    def _build_balls(self, mn) -> None:
        """Build the ball of every source whose heaviest boundary edge is
        heavier than mn, the lightest boundary weight: a grow from the
        source, at distance 0, on an empty ball."""
        if mn is None:
            return
        heap = self._unbuilt
        n = self.g.n
        cut = -mn * n  # keys below it have w > mn
        while heap and heap[0] < cut:
            key = heappop(heap)
            u = key % n
            lst = self.state.out[u]
            if not lst:
                continue
            w = max(map(self.g._iw.__getitem__, lst))
            if w < -(key // n):
                heappush(heap, -w * n + u)
                continue
            radius = self.p1 * w // self.q1
            dist = _empty_ball(n, radius)
            dist[u] = 0
            self.balls[u], self.leaves[u], self.radius[u] = dist, [], radius
            self._grow(u, (u,))

    def _explore(self, z: int) -> None:
        """Mark z explored and bring every ball and the index up to date.

        The sources that lose their edges into z, z's explored neighbours in
        its adjacency row, shrink their radius, or drop their ball with
        their last boundary edge.  Every ball that held z is repaired from z
        (fact 3), unless z is a dead end: z, a leaf of that ball, has an
        explored neighbour, so if that is its one neighbour in g no path
        can pass through z.  The edges filed under z move on (see _Engine).
        z's own ball waits in _unbuilt.
        """
        st = self.state
        st.mark_explored(z)
        row = self.g._adj[z]
        out, balls, bnd = st.out, self.balls, self.bnd
        # z's explored neighbours lost their edges into z; an unexplored
        # neighbour has no ball
        for u, _, _ in row:
            if balls[u] is None:
                continue
            if out[u]:
                self.radius[u] = max(map(bnd.__getitem__, out[u]))
            else:
                balls[u] = self.leaves[u] = None
        explored, wit, filed = st.explored, self.wit, self.filed
        for eid in filed.pop(z, ()):
            lst = wit[eid]
            for i, x in enumerate(lst):
                if not explored[x]:
                    del lst[:i]
                    filed.setdefault(x, []).append(eid)
                    break
            else:
                del wit[eid]
        held = self.holders[z]
        self.holders[z] = None
        if held:
            first = row[0][0]
            if any(y != first for y, _, _ in row):
                self._grow(z, held)
        self._queue(z)

    def _grow(self, z: int, held) -> None:
        """Decrease-only searches from explored z of the balls in held.

        The engine's one ball search.  A new ball grows from its source;
        a ball that held z, just explored, is repaired from z, which keeps
        its leaf distance as an explored vertex.  A vertex is expanded only
        when its distance fell, and its row of the adjacency is read once:
        an explored neighbour is pushed, an unexplored one is a leaf.
        Nothing beyond the ball's radius enters it.  Every expansion counts
        one adjacency read, and an unexplored vertex is never expanded.
        """
        st = self.state
        explored, adj = st.explored, self.g._adj
        balls, radii, leaves_of, holders = self.balls, self.radius, self.leaves, self.holders
        n = len(explored)
        reads = 0
        for u in held:
            dist = balls[u]
            if dist is None:
                continue
            radius = radii[u]
            d = dist[z]
            if d > radius:
                continue
            leaves = leaves_of[u]
            heap: list[int] = []
            y = z
            while True:
                if not explored[y]:
                    st.adjacency_reads += reads
                    raise OnlinePurityError(f"adjacency of unexplored vertex {y} requested")
                reads += 1
                for other, _, w in adj[y]:
                    nd = d + w
                    if nd > radius:
                        continue
                    old = dist[other]
                    if explored[other]:
                        if old < 0 or nd < old:
                            dist[other] = nd
                            heappush(heap, nd * n + other)
                    elif old < 0:
                        leaves.append(other)
                        holders[other].append(u)
                        dist[other] = nd
                    elif nd < old:
                        dist[other] = nd
                # next, the nearest vertex whose distance fell; an entry
                # whose vertex fell again after its push is stale
                while heap:
                    key = heappop(heap)
                    y, d = key % n, key // n
                    if d == dist[y]:
                        break
                else:
                    break
        st.adjacency_reads += reads

    # -- blocking checks ----------------------------------------------------

    def _blocked(self, eid: int, mn) -> bool:
        """Is boundary edge eid, not known to be blocked, blocked now?

        mn is the lightest boundary weight: if nothing is lighter than eid,
        it is not.  Otherwise the blocking predicate runs over the ball of
        eid's source, which exists since eid is heavier than mn.  If it
        finds witnesses, eid is known to be blocked and is filed under the
        first (see _Engine).
        """
        if mn is None or mn >= self.g._iw[eid]:
            return False
        st = self.state
        u = st.src[eid]
        blockers = _blocking_witnesses(st, self.balls[u], self.leaves[u], eid, self.bnd[eid])
        if not blockers:
            return False
        self.wit[eid] = blockers
        self.filed.setdefault(blockers[0], []).append(eid)
        return True

    def _select(self, v: int):
        """First admissible boundary edge at the invocation vertex v, or None.

        Admissible: not blocked, and either leaving v itself or re-activated
        because v was recorded as a blocker endpoint for it.  Edges leaving v
        are preferred as a class; within a class the smaller edge id wins.
        Builds the balls the current boundary needs first, so that they
        also serve the lookup of the edge selected.  out[v] and the edges
        re-activated at v are both kept in id order, so one scan of each,
        which skips the edges that left the boundary and the edges known to
        be blocked, those in wit, finds the first admissible.
        """
        st = self.state
        mn = st.min_boundary_weight_scaled()
        self._build_balls(mn)
        blocked, wit = self._blocked, self.wit
        for eid in st.out[v]:
            if eid not in wit and not blocked(eid, mn):
                return eid
        recs = self.rec_by_witness.get(v)
        if recs:
            src, far, explored = st.src, st.far, st.explored
            for eid in recs:
                if eid not in wit and not explored[far[eid]] and src[eid] != v and not blocked(eid, mn):
                    return eid
        return None

    # -- witness lookup -----------------------------------------------------

    def _record_blockers(self, x: int) -> None:
        """Record x as a blocker endpoint for every boundary edge it blocks.

        Runs just before x is explored, right after the select that chose
        an edge into x: the edges from explored territory into x are about
        to vanish, and any edge they block right now must remember x so
        that the invocation at x can re-activate it (fact 4).  Only an edge
        heavier than minw[x] can be recorded, and its source has a ball,
        built by that select; x is in it when d(u, x) is within the
        source's radius.  The records go to rec_by_witness only, in id
        order for the selects at x: x is explored next, so filing an edge
        under it could never spare a check.
        """
        held = self.holders[x]
        if not held:
            return
        st = self.state
        wmin = st.minw[x]
        balls, out, far, iw, bnd = self.balls, st.out, st.far, self.g._iw, self.bnd
        found = []
        for u in held:
            dist = balls[u]
            if dist is None:
                continue
            d = dist[x]
            for eid in out[u]:
                if d <= bnd[eid] and iw[eid] > wmin and far[eid] != x:
                    found.append(eid)
        if found:
            found.sort()
            self.rec_by_witness[x] = tuple(found)

    # -- main loop ----------------------------------------------------------

    def run(self) -> TraversalLog:
        st = self.state
        g = self.g
        iw, adj, explored = g._iw, g._adj, st.explored
        # a frame: its vertex, the edge that entered it, and the approach
        # path before that edge while a retrace can stand in for the search
        # back (else None); see _return
        frames: list[tuple[int, int, list | None]] = [(st.position, -1, None)]
        while frames:
            v, entered_by, approach = frames[-1]
            eid = self._select(v)
            if eid is None:
                frames.pop()
                if frames:
                    self._return(v, entered_by, approach, frames[-1][0])
                continue
            if approach is not None:
                frames[-1] = (v, entered_by, None)
            y, x, w = st.src[eid], st.far[eid], iw[eid]
            if y == v:
                approach = []
            else:
                ball = self.balls[y]
                if ball is None:
                    raise InvariantViolation("approach-guide", witness=(v, y), detail="the source has no ball")
                approach = _walk(st, self.steps, y, APPROACH, eid, self.bnd[eid], ball)
                if st._dj_tie:
                    approach = None
            self._record_blockers(x)
            self.steps.add_path(((eid, y, x),), TAKE, eid)
            st.cost += w
            self._explore(x)
            # the return from x retraces only if y is its one explored
            # neighbour, seen in the row read when x was explored (see _return)
            if approach is not None and any(other != y and explored[other] for other, _, _ in adj[x]):
                approach = None
            st.position = x
            self.taken.append(eid)
            frames.append((x, eid, approach))
        if st.explored_count != g.n:
            missing = next(i for i in range(g.n) if not explored[i])
            raise InvariantViolation("exploration-complete", witness=missing)
        if st.position != self.params.start:
            raise InvariantViolation("return-to-start", witness=st.position)
        log = TraversalLog(
            algorithm="blocking",
            start=self.params.start,
            steps=self.steps,
            total_cost=Fraction(st.cost, g._scale),
            taken_boundary=EdgeSubset(g, self.taken),
            delta=self.params.delta,
            blocker_records=self.rec_by_witness,
        )
        log.verification["access_audit"] = {
            "adjacency_reads": st.adjacency_reads,
            "violations": 0,
        }
        return log

    def _return(self, v: int, entered_by: int, approach, to: int) -> None:
        """Walk back from v, whose frame is done, to `to`, its caller's vertex.

        approach is the frame's kept approach path (see run), or None.  It
        is kept only while the frame has taken no edge, if the approach saw
        no tie and if y, the source of entered_by, is v's one explored
        neighbour.  Then v is a dead end and the approach path is the only
        shortest path from `to` to y, so the way back is v's first lightest
        edge to y and then that path reversed: exactly the path a search
        from v finds (fact 5).  Reading v's adjacency row for its edges to y
        counts one adjacency read, like an expansion.  Every other return
        searches.
        """
        st = self.state
        radius = self.p2 * self.g._iw[entered_by] // self.q2
        if approach is None:
            _walk(st, self.steps, to, RETURN, entered_by, radius)
            return
        st.adjacency_reads += 1
        y = st.src[entered_by]
        _, first, cost = min((e for e in self.g._adj[v] if e[0] == y), key=operator.itemgetter(2))
        iw = self.g._iw
        cost += sum(iw[eid] for eid, _, _ in approach)
        if cost > radius:
            raise _too_far(st, to, RETURN)
        path = [(first, v, y)]
        path += [(eid, b, a) for eid, a, b in reversed(approach)]
        self.steps.add_path(path, RETURN, entered_by)
        st.cost += cost
        st.position = to


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
    failures: list

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "total_cost": str(self.total_cost),
            "boundary_weight": str(self.boundary_weight),
            "bound": str(self.bound),
            "failures": self.failures,
        }


def verify_cost_chain(g: Graph, log: TraversalLog, delta) -> CostChainReport:
    """Check the per-edge charge decomposition and the total cost bound.

    Sums run over the graph's scaled integer weights; (1+delta) = p/q bounds
    are compared as a*q <= p*w.
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
    # per role code (an index into ROLES), the charge each taken edge absorbs
    slots: list[dict[int, int]] = [{} for _ in ROLES]
    failures = []
    total = 0
    steps = log.steps
    for edge, code, charged_to in zip(steps.edge, steps.role, steps.charged_to):
        w = iw[edge]
        total += w
        if charged_to not in taken:
            failures.append({"edge": edge, "why": "charged to an untaken edge"})
            continue
        slot = slots[code]
        slot[charged_to] = slot.get(charged_to, 0) + w
    approach, take, ret = slots  # in ROLES order
    for eid in log.taken_boundary:
        wi = iw[eid]
        ai, ti, ri = approach.get(eid, 0), take.get(eid, 0), ret.get(eid, 0)
        w = g.weight(eid)
        if ai * q1 > p1 * wi:
            why = f"approach {Fraction(ai, scale)} > (1+delta)w = {one_plus * w}"
            failures.append({"edge": eid, "why": why})
        if ti != wi:
            failures.append({"edge": eid, "why": f"take {Fraction(ti, scale)} != w = {w}"})
        if ri * q2 > p2 * wi:
            why = f"return {Fraction(ri, scale)} > (2+delta)w = {two_plus * w}"
            failures.append({"edge": eid, "why": why})
    step_sum = Fraction(total, scale)
    if step_sum != log.total_cost:
        failures.append({"why": f"step sum {step_sum} != logged total {log.total_cost}"})
    if log.total_cost > bound:
        failures.append({"why": f"total {log.total_cost} > 2(delta+2)w(B) = {bound}"})
    return CostChainReport(
        ok=not failures,
        total_cost=log.total_cost,
        boundary_weight=w_b,
        bound=bound,
        failures=failures,
    )


def taken_union_mst(g: Graph, log: TraversalLog) -> EdgeSubset:
    """B union MST_B: the taken boundary edges plus the overlap-preferring MST."""
    b = log.taken_boundary
    mst_b = mst_maximizing_overlap(g, b)
    return EdgeSubset(g, set(b.ids) | set(mst_b.ids))


def verify_blocking_cycle_property(g: Graph, log: TraversalLog, delta) -> MinimalityReport:
    """The cycle property of a blocking run: S = B union MST_B is a minimal
    (1+delta)-spanner of itself.

    That is, no edge e = (u, v) of S has a detour inside S without e within
    (1+delta) * w(e); equivalently every cycle C in S obeys
    w(C minus e) > (1+delta) w(e).  This is verify_spanner_minimality on S
    with epsilon = delta; its violations are the edges of S that have such
    a detour, by their ids in g.
    """
    return verify_spanner_minimality(g, taken_union_mst(g, log), delta)


# ---------------------------------------------------------------------------
# nearest-neighbor baseline

def run_nearest_neighbor(g: Graph, start: int = 0) -> TraversalLog:
    """Repeatedly walk to the nearest unexplored learned vertex, then home.

    Ties on distance go to the smaller vertex id.  Uses the same state,
    Dijkstra kernel and walk as the blocking explorer; serves as the classic
    baseline whose ratio is Theta(log n) in the worst case.  Each step's
    search stops as soon as the nearest unexplored vertex is known.
    """
    require_connected(g, "run_nearest_neighbor")
    if not (0 <= start < g.n):
        raise ValueError(f"start vertex {start} out of range")
    st = ExplorationState.initial(g, start)
    iw = g._iw
    steps = TraversalSteps()
    taken: list[int] = []
    while st.explored_count < g.n:
        _, leaves = _dijkstra_explored(st, st.position, stop_leaf=True)
        if not leaves:
            raise InvariantViolation("nearest-neighbor-frontier", witness=st.position)
        _, target = min((d, v) for v, d in leaves.items())
        path = _path_to(st, target)
        final_eid = path[-1][0]
        steps.add_path(path[:-1], APPROACH, final_eid)
        steps.add_path(path[-1:], TAKE, final_eid)
        st.cost += sum(iw[eid] for eid, _, _ in path)
        taken.append(final_eid)
        st.mark_explored(target)
        st.position = target
    if taken:
        _walk(st, steps, start, RETURN, taken[-1])
    log = TraversalLog(
        algorithm="nearest_neighbor",
        start=start,
        steps=steps,
        total_cost=Fraction(st.cost, g._scale),
        taken_boundary=EdgeSubset(g, taken),
    )
    log.verification["access_audit"] = {
        "adjacency_reads": st.adjacency_reads,
        "violations": 0,
    }
    return log
