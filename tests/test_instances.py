import itertools
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphexplore.core import is_connected, minimum_spanning_tree
from graphexplore.errors import (
    DegenerateCombWarning,
    GenerationError,
    ParseError,
)
from graphexplore.instances import (
    _delaunay_edges,
    FAMILIES,
    BuiltInstance,
    InstanceSpec,
    build_instance,
    gen_comb_lower_bound,
    gen_erdos_renyi,
    gen_grid,
    gen_random_planar,
    gen_random_tree,
    gen_toroidal_grid,
    graph_to_text,
    read_graph,
    write_graph,
)

DATA = Path(__file__).parent / "data"


class TestComb:
    def test_shape_and_weights(self):
        k, d = 25, Fraction(3)
        g = gen_comb_lower_bound(k, d)
        assert g.n == 4 * k and g.edge_count == 4 * k - 1
        h = Fraction(k + 1, 4)
        # spine and light teeth are unit, heavy teeth weigh (k+1)/(delta+1)
        assert all(g.weight(e) == 1 for e in range(3 * k - 1))
        assert all(g.weight(e) == h for e in range(3 * k - 1, 4 * k - 1))
        assert g.total_weight() == 3 * k - 1 + k * h
        # spine first, so ties in edge-id order walk the spine first
        assert all(g.endpoints(e) == (e, e + 1) for e in range(2 * k - 1))
        assert build_instance(InstanceSpec("comb_lower_bound", {"k": k, "delta": "3"})).start == 0

    def test_is_a_tree(self):
        g = gen_comb_lower_bound(6, Fraction(1, 2))
        assert g.edge_count == g.n - 1 and is_connected(g)

    def test_degenerate_warns(self):
        # heavy weight (k+1)/(delta+1) <= 1 leaves nothing to block
        with pytest.warns(DegenerateCombWarning):
            gen_comb_lower_bound(1, 1)
        with pytest.warns(DegenerateCombWarning):
            gen_comb_lower_bound(3, 5)

    def test_non_degenerate_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gen_comb_lower_bound(5, 2)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gen_comb_lower_bound(0, 1)
        with pytest.raises(ValueError):
            gen_comb_lower_bound(3, 0)


class TestPlanar:
    def test_triangle_at_three_points(self):
        g = gen_random_planar(3, seed=0)
        assert g.n == 3 and g.edge_count == 3

    def test_euler_bound_and_connectivity(self):
        for seed in range(5):
            g = gen_random_planar(40, seed=seed)
            assert g.edge_count <= 3 * g.n - 6
            assert is_connected(g)

    def test_golden_snapshot(self, tmp_path):
        g = gen_random_planar(50, seed=7)
        out = tmp_path / "p.edges"
        write_graph(g, out)
        assert out.read_bytes() == (DATA / "planar_50_seed7.edges").read_bytes()

    def test_determinism(self):
        a = gen_random_planar(30, seed=4)
        b = gen_random_planar(30, seed=4)
        assert graph_to_text(a) == graph_to_text(b)


def _orient(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _incircle(a, b, c, d) -> int:
    """> 0 iff d is inside the circle through a, b, c (either orientation)."""
    rows = [(p[0] - d[0], p[1] - d[1]) for p in (a, b, c)]
    lifts = [x * x + y * y for x, y in rows]
    (ax, ay), (bx, by), (cx, cy) = rows
    det = (lifts[0] * (bx * cy - cx * by) - lifts[1] * (ax * cy - cx * ay)
           + lifts[2] * (ax * by - bx * ay))
    return det if _orient(a, b, c) > 0 else -det


def _brute_delaunay(ints):
    """(edges of every triangle whose circumcircle has no point strictly
    inside, whether some orientation or in-circle determinant is zero)."""
    edges, zero = set(), False
    for tri in itertools.combinations(range(len(ints)), 3):
        a, b, c = (ints[i] for i in tri)
        if _orient(a, b, c) == 0:
            zero = True
            continue
        signs = [_incircle(a, b, c, ints[j]) for j in range(len(ints)) if j not in tri]
        zero = zero or 0 in signs
        if all(s <= 0 for s in signs):
            edges.update(itertools.combinations(tri, 2))
    return edges, zero


class TestDelaunay:
    # every point set the benchmark triangulates, the small sizes the tests
    # use, and two sizes past the benchmark ladder
    SETS = (
        [(n, s) for n in (64, 256, 512, 1024) for s in range(16)]
        + [(n, s) for n in (8, 12) for s in range(23)]
        + [(n, s) for n in range(3, 17) for s in range(60)]
        + [(n, s) for n in (2000, 4096) for s in range(2)]
    )

    def test_matches_qhull(self):
        spatial = pytest.importorskip("scipy.spatial")
        for n, seed in self.SETS:
            pts = np.random.default_rng(seed).random((n, 2))
            qhull = {
                pair
                for simplex in spatial.Delaunay(pts).simplices.tolist()
                for pair in itertools.combinations(sorted(simplex), 2)
            }
            assert _delaunay_edges(pts) == qhull, (n, seed)

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=3, max_size=10))
    @settings(max_examples=300)
    def test_small_integer_sets_match_brute_force(self, ints):
        got = _delaunay_edges(np.array(ints, dtype=np.float64) / 8)
        edges, zero = _brute_delaunay(ints)
        if got is None:
            assert zero
        else:
            assert got == edges

    def test_square_corners_are_cocircular(self):
        assert _delaunay_edges(np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])) is None

    def test_collinear_points(self):
        assert _delaunay_edges(np.array([[0.125, 0.25], [0.25, 0.5], [0.375, 0.75]])) is None

    def test_duplicate_point(self):
        pts = np.array([[0.125, 0.25], [0.5, 0.875], [0.75, 0.125], [0.5, 0.875]])
        assert _delaunay_edges(pts) is None

    def test_triangle_and_a_point_inside(self):
        pts = np.array([[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.125, 0.25]])
        assert _delaunay_edges(pts) == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)}

    def test_no_scipy_at_runtime(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        code = (
            "import sys\n"
            "from graphexplore.instances import InstanceSpec, build_instance\n"
            "build_instance(InstanceSpec('random_planar', {'points': 64}, seed=3))\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestGrids:
    def test_torus_3x3(self):
        g = gen_toroidal_grid(3, 3)
        assert g.n == 9 and g.edge_count == 18
        deg = [0] * 9
        for e in range(18):
            u, v = g.endpoints(e)
            deg[u] += 1
            deg[v] += 1
        assert all(d == 4 for d in deg)

    def test_torus_unit_mst(self):
        g = gen_toroidal_grid(4, 4, weights="unit")
        assert minimum_spanning_tree(g).weight() == 15

    def test_torus_golden(self, tmp_path):
        g = gen_toroidal_grid(4, 5, weights="uniform", seed=3)
        out = tmp_path / "t.edges"
        write_graph(g, out)
        assert out.read_bytes() == (DATA / "torus_4x5_seed3.edges").read_bytes()

    def test_torus_min_size(self):
        with pytest.raises(ValueError):
            gen_toroidal_grid(2, 5)

    def test_grid_2x2(self):
        g = gen_grid(2, 2)
        assert g.n == 4 and g.edge_count == 4
        assert minimum_spanning_tree(g).weight() == 3

    def test_grid_weights_in_range(self):
        g = gen_grid(3, 4, weights="uniform", seed=5)
        assert all(1 <= g.weight(e) <= 2 for e in range(g.edge_count))


class TestTreeAndEr:
    def test_tree_edge_count(self):
        g = gen_random_tree(10, seed=1)
        assert g.edge_count == 9 and is_connected(g)

    def test_er_connected_and_golden(self, tmp_path):
        g = gen_erdos_renyi(30, Fraction(1, 5), seed=11)
        assert is_connected(g)
        out = tmp_path / "er.edges"
        write_graph(g, out)
        assert out.read_bytes() == (DATA / "er_30_p02_seed11.edges").read_bytes()

    def test_er_retries_exhausted(self):
        with pytest.raises(GenerationError):
            gen_erdos_renyi(40, Fraction(1, 1000), seed=0)

    def test_er_accepts_rational_string(self):
        g = gen_erdos_renyi(8, "1/2", seed=2)
        assert is_connected(g)


class TestFileFormat:
    def test_simple_parse(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("2 1\n0 1 3 2\n")
        g = read_graph(f)
        assert g.n == 2 and g.weight(0) == Fraction(3, 2)

    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("# a comment\n\n3 2\n0 1 1 1\n# mid comment\n1 2 5 3\n")
        g = read_graph(f)
        assert g.edge_count == 2 and g.weight(1) == Fraction(5, 3)

    @pytest.mark.parametrize(
        "text",
        [
            "nonsense\n",
            "2 1 7\n0 1 1 1\n",          # header arity
            "2 1\n0 1 1 0\n",            # zero denominator
            "2 1\n0 1 -1 2\n",           # negative weight
            "2 1\n0 0 1 1\n",            # self loop
            "2 1\n0 5 1 1\n",            # vertex out of range
            "2 2\n0 1 1 1\n",            # fewer edges than declared
            "1 0\ngarbage\n",            # trailing garbage
            "2 1\n0 1 1 1\n0 1 1 1\n",   # more edges than declared
            "2 one\n0 1 1 1\n",          # non-int header
            "0 0\n",                     # no vertices
            "2 -1\n",                    # negative edge count
            "2 1\n0 1 1 x\n",            # non-int edge line
            "",                          # empty file
            "# only a comment\n",        # no header
        ],
    )
    def test_parse_errors(self, tmp_path, text):
        f = tmp_path / "bad.edges"
        f.write_text(text)
        with pytest.raises(ParseError):
            read_graph(f)

    def test_parse_error_carries_line_number(self, tmp_path):
        f = tmp_path / "bad.edges"
        f.write_text("2 1\n0 1 1 0\n")
        with pytest.raises(ParseError) as ei:
            read_graph(f)
        assert ei.value.line == 2

    def test_round_trip_golden_comb(self, tmp_path):
        g = read_graph(DATA / "comb_k3_d2.edges")
        out = tmp_path / "c.edges"
        write_graph(g, out)
        assert out.read_bytes() == (DATA / "comb_k3_d2.edges").read_bytes()


class TestInstanceSpec:
    def test_label(self):
        s = InstanceSpec("comb_lower_bound", {"k": 3, "delta": "2"}, seed=4)
        assert s.label == "comb_lower_bound[delta=2,k=3]#4"

    def test_json_round_trip(self):
        s = InstanceSpec("toroidal_grid", {"p": 4, "q": 6, "weights": "uniform"}, seed=9)
        assert InstanceSpec.from_json_dict(s.to_json_dict()) == s

    def test_equality_and_hash_agree(self):
        a = InstanceSpec("grid", {"p": 3, "q": 4}, seed=1)
        b = InstanceSpec("grid", {"q": 4, "p": 3}, seed=1)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        for other in (
            InstanceSpec("grid", {"p": 3, "q": 5}, seed=1),
            InstanceSpec("grid", {"p": 3, "q": 4}, seed=2),
            InstanceSpec("toroidal_grid", {"p": 3, "q": 4}, seed=1),
        ):
            assert a != other
        assert a != ("grid", {"p": 3, "q": 4}, 1)

    def test_build_dispatch_and_genus(self):
        cases = {
            "comb_lower_bound": ({"k": 2, "delta": "1/2"}, 0),
            "random_planar": ({"points": 12}, 0),
            "toroidal_grid": ({"p": 3, "q": 4}, 1),
            "grid": ({"p": 3, "q": 3}, 0),
            "random_tree": ({"n": 9}, 0),
            "erdos_renyi": ({"n": 8, "p": "1/2"}, None),
        }
        for fam, (params, genus) in cases.items():
            built = build_instance(InstanceSpec(fam, params, seed=1))
            assert isinstance(built, BuiltInstance)
            assert built.genus == genus
            assert is_connected(built.graph)

    def test_file_family(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("2 1\n0 1 2 1\n")
        built = build_instance(InstanceSpec("file", {"path": str(p)}))
        assert built.genus is None and built.graph.total_weight() == 2

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_instance(InstanceSpec("nosuch", {}))

    @pytest.mark.parametrize("family,params,seed,match", [
        ("moebius", {}, 0, "unknown instance family 'moebius'"),
        (None, {}, 0, "unknown instance family None"),
        (["grid"], {}, 0, r"unknown instance family \['grid'\]"),
        ("grid", {"p": 3}, 0, r"needs params \['p', 'q'\]"),
        ("comb_lower_bound", {"k": 3}, 0, r"got \['k'\]"),
        ("toroidal_grid", {"p": 3, "q": 3, "weight": "unit"}, 0, r"may have \['weights'\]"),
        ("random_planar", {"points": 6, "weights": "unit"}, 0, r"may have \[\]"),
        ("file", {"path": "g.edges", "seed": 1}, 0, "'seed'"),
        ("random_planar", {"points": 6}, -1, "seed must be an int >= 0, got -1"),
        ("random_planar", {"points": 6}, True, "seed must be an int"),
        ("random_planar", {"points": 6}, 2.7, "seed must be an int"),
        ("random_planar", {"points": 6}, "4", "seed must be an int"),
    ])
    def test_bad_spec_is_rejected_when_made(self, family, params, seed, match):
        # every way a spec is made runs the one check: the constructor,
        # the JSON parser and dataclasses.replace
        with pytest.raises(ValueError, match=match):
            InstanceSpec(family, params, seed)
        with pytest.raises(ValueError, match=match):
            InstanceSpec.from_json_dict({"family": family, "params": params, "seed": seed})
        good = InstanceSpec("random_planar", {"points": 6})
        with pytest.raises(ValueError, match=match):
            replace(good, family=family, params=params, seed=seed)

    def test_required_params_suffice_and_optional_ones_pass(self):
        for fam, (required, optional, _, _) in FAMILIES.items():
            params = dict.fromkeys(required, 1)
            assert InstanceSpec(fam, params).params == params
            assert InstanceSpec(fam, {**params, **dict.fromkeys(optional, 1)}, seed=2**70).seed == 2**70

    def test_missing_family_key_is_an_unknown_family(self):
        with pytest.raises(ValueError, match="unknown instance family None"):
            InstanceSpec.from_json_dict({"params": {"points": 6}})

    @pytest.mark.parametrize("family,params,match", [
        ("toroidal_grid", {"p": 3, "q": 3, "weights": "heavy"}, "unknown weight mode 'heavy'"),
        ("grid", {"p": 2, "q": 2, "weights": "heavy"}, "unknown weight mode 'heavy'"),
        ("random_tree", {"n": 3, "weights": "heavy"}, "unknown weight mode 'heavy'"),
        ("erdos_renyi", {"n": 3, "p": "1", "weights": "heavy"}, "unknown weight mode 'heavy'"),
        ("grid", {"p": 1, "q": 1}, "grid 1x1 too small"),
        ("grid", {"p": 0, "q": 5}, "grid 0x5 too small"),
        ("random_tree", {"n": 0}, "n must be positive, got 0"),
        ("erdos_renyi", {"n": 1, "p": "1"}, "n must be >= 2, got 1"),
        ("erdos_renyi", {"n": 5, "p": "0"}, r"must be in \(0, 1\], got 0"),
        ("erdos_renyi", {"n": 5, "p": "3/2"}, r"must be in \(0, 1\], got 3/2"),
        ("comb_lower_bound", {"k": 0, "delta": "2"}, "k must be a positive int, got 0"),
    ])
    def test_bad_param_values_fail_at_build(self, family, params, match):
        # the spec check passes them; the generator rejects the value
        spec = InstanceSpec(family, params)
        with pytest.raises(ValueError, match=match):
            build_instance(spec)


@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_spec_determinism_property(seed):
    spec = InstanceSpec("random_tree", {"n": 12, "weights": "uniform"}, seed=seed)
    a = build_instance(spec).graph
    b = build_instance(spec).graph
    assert graph_to_text(a) == graph_to_text(b)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fam=st.sampled_from(["random_tree", "erdos_renyi", "toroidal_grid"]),
)
def test_write_read_round_trip_property(seed, fam, tmp_path_factory):
    params = {
        "random_tree": {"n": 8, "weights": "uniform"},
        "erdos_renyi": {"n": 8, "p": "3/5"},
        "toroidal_grid": {"p": 3, "q": 3, "weights": "uniform"},
    }[fam]
    g = build_instance(InstanceSpec(fam, params, seed=seed)).graph
    path = tmp_path_factory.mktemp("rt") / "g.edges"
    write_graph(g, path)
    g2 = read_graph(path)
    assert graph_to_text(g) == graph_to_text(g2)
