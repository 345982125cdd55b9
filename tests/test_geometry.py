import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from projclust import coreset, counterexamples, geometry, jl, sensitivity
from projclust._rng import rng_stream
from projclust.solvers import solve
from projclust.geometry import (
    Dataset, WeightedSet, CenterSet, Subspace, Flat, Line, LineSet,
    project_subspace, project_flat, project_line,
    distances, assignment, cost_pow, cost,
    read_dataset, read_points, write_points, _write_csv, _nearest,
)


def rand_points(rng, n, d, scale=10.0):
    return rng.normal(0.0, scale, (n, d))


def random_rotation(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# Type validation


def test_dataset_rejects_bad_input():
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        Dataset([1.0, 2.0])
    with pytest.raises(ValueError):
        Dataset([[np.nan, 0.0]])


def test_weighted_set_validation():
    with pytest.raises(ValueError):
        WeightedSet([[0.0], [1.0]], [1.0])
    with pytest.raises(ValueError):
        WeightedSet([[0.0], [1.0]], [1.0, -0.5])
    with pytest.raises(ValueError):
        WeightedSet([[0.0], [1.0]], [0.0, 0.0])
    ws = WeightedSet([[0.0], [1.0]], [0.0, 2.0])
    assert ws.n == len(ws) == 2


def _read_text(text):
    """A refusal that writes ``text`` to a file and reads it back."""
    def read(tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(text, encoding="utf-8")
        return read_points(path)
    return read


_E2 = np.eye(2)
_LINE = Line(np.zeros(2), np.array([1.0, 0.0]))
_FLAT = Flat(Subspace([[1.0, 0.0]]), [0.0, 0.0])


_SIX = np.arange(12.0).reshape(6, 2)
_ON_A_LINE = np.arange(6.0)[:, None]
# (name, call with that count argument): every count the library reads,
# each call valid at the count 2; a fraction, an infinity and a nan are
# refused by name
_COUNTS = [
    ("k", lambda v: solve("clustering", _SIX, v, 2)),
    ("restarts", lambda v: solve("clustering", _SIX, 2, 2, restarts=v)),
    ("seed", lambda v: solve("clustering", _SIX, 2, 2, seed=v)),
    ("seed", rng_stream),
    ("stream", lambda v: rng_stream(0, v)),
    ("k", lambda v: jl.preset_t("clustering", v, 2, 0.3, 200, 10)),
    ("d", lambda v: jl.preset_t("clustering", 2, 2, 0.3, 200, v)),
    ("n", lambda v: jl.preset_t("lines", 2, 2, 0.3, v, 10)),
    ("seed", lambda v: jl.JLMap(np.eye(2), v)),
    ("m", lambda v: coreset.sensitivity_sample(
        _SIX, sensitivity.SensitivityProfile(np.ones(6)), v, 0)),
    ("k", lambda v: coreset.line_coreset_1d(_ON_A_LINE, v)),
    ("k", lambda v: coreset.coreset_size_bound(v, 100)),
    ("n", lambda v: coreset.coreset_size_bound(2, v)),
    ("n", lambda v: coreset.PeelingPartition([[0], [1]], v)),
    ("k", lambda v: sensitivity.event_e4_bound(v, 2)),
    ("n", counterexamples.gen_medoid_instance),
    ("n", counterexamples.gen_css_instance),
    ("n", lambda v: counterexamples.counterexample_trial("medoid", v, 2, 0)),
    ("seed", lambda v: counterexamples.counterexample_trial("css", 4, 2, v)),
]
# counts that jl's draw or moment_ratio_samples read, whose fractions
# tests/test_jl.py pins: an infinity and a nan are refused by name too
_WHOLE_COUNTS = [
    ("d", lambda v: jl.sample_jl(v, 2, 0)),
    ("t", lambda v: jl.sample_jl(10, v, 0)),
    ("t", lambda v: jl.moment_ratio_samples(2, v, 10, 0)),
    ("trials", lambda v: jl.moment_ratio_samples(2, 2, v, 0)),
    ("t", lambda v: counterexamples.counterexample_trial("css", 4, v, 0)),
]
_COUNT_ROWS = [(lambda _, call=call, bad=bad: call(bad), f"{name} must be an integer, got {bad}")
               for counts, bads in ((_COUNTS, (2.5, np.inf, np.nan)),
                                    (_WHOLE_COUNTS, (np.inf, np.nan)))
               for name, call in counts for bad in bads]


@pytest.mark.parametrize("refused, message", [
    (_read_text("1 2\n1.0 abc\n"), "data.txt: row 0: could not convert string"),
    (_read_text("1 2\n1.0 inf\n"), "data.txt: non-finite values"),
    (_read_text("1 2 3\n1.0 2.0\n"), "header must be 'n d', got '1 2 3'"),
    # a header that is not two non-negative integers is refused by its text
    (_read_text("2 x\n1.0 2.0\n"), "header must be 'n d', got '2 x'"),
    (_read_text("2.5 2\n1.0 2.0\n"), "header must be 'n d', got '2.5 2'"),
    (_read_text("-2 3\n"), "header must be 'n d', got '-2 3'"),
    (_read_text("1 -3\n1.0\n"), "header must be 'n d', got '1 -3'"),
    # a wrong row count outranks a failed allocation, which outranks a bad row
    (_read_text(f"2 {10 ** 20}\n1.0 abc\n"), "expected 2 data rows, found 1"),
    (_read_text(f"1 {10 ** 20}\n1.0 abc\n"), "Maximum allowed dimension exceeded"),
    (lambda _: project_flat(np.zeros((2, 3)), _FLAT), "point dimension 3 != flat ambient 2"),
    (lambda _: project_line(np.zeros(3), _LINE), "point dimension 3 != line ambient 2"),
    (lambda _: WeightedSet(_E2, [1.0, np.nan]), "weights must be finite"),
    (lambda _: Subspace.from_spanning(np.zeros((2, 2))), "spanning vectors are all zero"),
    (lambda _: Flat(Subspace([[1.0, 0.0]]), [0.0]), "translation must have shape (2,)"),
    (lambda _: Flat(Subspace([[1.0, 0.0]]), [0.0, np.inf]), "translation must be finite"),
    (lambda _: Line(np.zeros(2), np.array([1.0, 0.0, 0.0])),
     "anchor and direction must be 1-d arrays of equal length"),
    (lambda _: Line(np.zeros(0), np.zeros(0)), "ambient dimension must be at least 1"),
    (lambda _: Line(np.array([0.0, np.nan]), np.array([1.0, 0.0])),
     "anchor and direction must be finite"),
    (lambda _: Line.canonical(np.zeros(2), np.zeros(2)), "direction must be a nonzero finite vector"),
    (lambda _: Line.through([1.0, 2.0], [1.0, 2.0]), "points must be distinct"),
    (lambda _: LineSet([_LINE, "a line"]), "all entries must be Line instances"),
    (lambda _: jl.JLMap(np.ones(3)), "matrix must be a 2-d array, got shape (3,)"),
    (lambda _: jl.apply(jl.JLMap(np.eye(2)), Dataset(np.zeros((2, 3)))),
     "data dimension 3 != map input dimension 2"),
    (lambda _: jl.distortion_range(jl.JLMap(np.eye(2)), np.eye(3)),
     "data dimension 3 != map input dimension 2"),
    # a NaN row is refused, not skipped as a pair of no length
    (lambda _: jl.distortion_range(jl.JLMap(np.eye(2)), [[0, 0], [1, 0], [np.nan, 2], [0, 3]]),
     "points must contain only finite values"),
    (lambda _: jl.distortion_range(jl.JLMap(np.eye(2)), np.array([0.0, 1.0])),
     "points must be a 2-d array, got shape (2,)"),
    (lambda _: jl.moment_ratio_samples(2, 0, 10, seed=0), "t must be positive"),
    (lambda _: jl.moment_bound_threshold(2, 0.0), "eps must be positive"),
    (lambda _: jl.is_subspace_embedding(jl.JLMap(np.eye(2)), Subspace([[1.0, 0.0]]), -0.1),
     "eps must be non-negative"),
    (lambda _: jl.is_subspace_embedding(jl.JLMap(np.eye(3)), Subspace([[1.0, 0.0]]), 0.1),
     "subspace ambient 2 != map input dimension 3"),
    (lambda _: sensitivity.SensitivityProfile([1.0, np.inf]), "sigma must be finite"),
    (lambda _: sensitivity.event_e4_statistic(
        Dataset(_E2), CenterSet([[0.0, 0.0]]), jl.JLMap(np.eye(2)), 2,
        sensitivity.SensitivityProfile([1.0, 1.0, 1.0])),
     "profile length does not match the data"),
] + _COUNT_ROWS)
def test_refusals_name_their_fault(tmp_path, refused, message):
    with pytest.raises(ValueError) as err:
        refused(tmp_path)
    assert message in str(err.value)


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Subspace([[1.0, 1.0]])
    with pytest.raises(ValueError):
        Subspace([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        Subspace(np.ones((3, 2)))  # more rows than ambient dimension


def test_subspace_from_spanning_orthonormalizes():
    s = Subspace.from_spanning([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [3.0, 1.0, 0.0]])
    assert s.dim == 2
    npt.assert_allclose(s.basis @ s.basis.T, np.eye(2), atol=1e-12)
    # span check: e1 and e2 project onto themselves
    npt.assert_allclose(project_subspace(np.eye(3)[:2], s), np.eye(3)[:2], atol=1e-12)


def test_flat_canonical_form():
    direction = Subspace([[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        Flat(direction, [1.0, 0.0, 1.0])
    f = Flat.from_point(direction, [5.0, 0.0, 1.0])
    npt.assert_allclose(f.translation, [0.0, 0.0, 1.0], atol=1e-12)
    # raw basis rows are taken as a Subspace, with its checks
    for g in (Flat([[1.0, 0.0, 0.0]], [0.0, 0.0, 1.0]),
              Flat.from_point([[1.0, 0.0, 0.0]], [5.0, 0.0, 1.0])):
        assert isinstance(g.direction, Subspace)
        npt.assert_array_equal(g.translation, f.translation)
    with pytest.raises(ValueError, match="not orthonormal"):
        Flat([[1.0, 1.0, 0.0]], [0.0, 0.0, 1.0])


def test_line_canonical_form():
    with pytest.raises(ValueError):
        Line([0.0, 0.0], [2.0, 0.0])          # not unit norm
    with pytest.raises(ValueError):
        Line([0.0, 0.0], [-1.0, 0.0])         # sign not canonical
    with pytest.raises(ValueError):
        Line([1.0, 0.0], [1.0, 0.0])          # anchor not orthogonal
    ln = Line.canonical([3.0, 1.0], [-2.0, 0.0])
    npt.assert_allclose(ln.direction, [1.0, 0.0], atol=1e-15)
    npt.assert_allclose(ln.anchor, [0.0, 1.0], atol=1e-12)
    ln2 = Line.through([0.0, 1.0], [5.0, 1.0])
    assert ln == ln2
    assert ln.__eq__(3) is NotImplemented and not ln == 3


def test_line_hash_agrees_with_eq_on_signed_zero():
    a = Line([-0.0, 0.0], [1.0, 0.0])
    b = Line([0.0, 0.0], [1.0, 0.0])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_lineset_validation():
    ln = Line.canonical([0.0, 0.0], [1.0, 0.0])
    ln3 = Line.canonical([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        LineSet([])
    with pytest.raises(ValueError):
        LineSet([ln, ln3])
    assert LineSet([ln, ln]).k == len(LineSet([ln, ln])) == 2


# ---------------------------------------------------------------------------
# Projections: worked examples


def test_project_subspace_axis():
    r = Subspace([[1.0, 0.0]])
    npt.assert_allclose(project_subspace([3.0, 4.0], r), [3.0, 0.0], atol=1e-15)


def test_project_subspace_diagonal():
    r = Subspace([[1.0 / np.sqrt(2), 1.0 / np.sqrt(2), 0.0]])
    npt.assert_allclose(project_subspace([1.0, 2.0, 3.0], r), [1.5, 1.5, 0.0], atol=1e-12)


def test_project_subspace_full_dimensional():
    r = Subspace(np.eye(4))
    x = np.array([1.0, -2.0, 3.5, 0.25])
    npt.assert_allclose(project_subspace(x, r), x, atol=1e-15)


def test_project_flat_example():
    f = Flat(Subspace([[1.0, 0.0, 0.0]]), [0.0, 0.0, 1.0])
    npt.assert_allclose(project_flat([2.0, 3.0, 4.0], f), [2.0, 0.0, 1.0], atol=1e-12)
    # members are fixed points
    npt.assert_allclose(project_flat([7.0, 0.0, 1.0], f), [7.0, 0.0, 1.0], atol=1e-12)


def test_project_line_example():
    ln = Line([0.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    npt.assert_allclose(project_line([0.0, 2.0, 0.0], ln), [0.0, 2.0, 1.0], atol=1e-12)
    npt.assert_allclose(project_line([0.0, -3.0, 1.0], ln), [0.0, -3.0, 1.0], atol=1e-12)


def test_projection_dimension_mismatch():
    r = Subspace([[1.0, 0.0]])
    with pytest.raises(ValueError):
        project_subspace([1.0, 2.0, 3.0], r)


# ---------------------------------------------------------------------------
# Costs: worked examples


@pytest.mark.parametrize("k", [1, 2, 5])
def test_nearest_is_the_root_of_the_row_minimum_bit_for_bit(k):
    rng = np.random.default_rng(k)
    sq = rng.random((200, k)) * 10.0 ** rng.integers(-300, 300, (200, 1))
    sq[:20] = 0.0                                    # ties at zero
    sq[20:40] = sq[20:40, :1]                        # ties at a positive value
    sq[40, -1] = 0.0
    sq[41, 0] = np.nan
    sq[42, -1] = np.nan
    sq[43] = np.nan                                  # a whole nan row
    want = np.sqrt(np.min(sq, axis=1))
    assert np.all(np.isnan(want[41:44]))
    npt.assert_array_equal(_nearest(sq), want)
    npt.assert_array_equal(_nearest(sq, np.argmin(sq, axis=1)), want)


def test_line_distances_of_points_on_the_line():
    # |w|^2 - <w, u>^2 would leave about 1e-7 here, and a z = 1 cost of 3e-7
    rng = np.random.default_rng(40)
    ln = Line.through(rng.normal(size=4), rng.normal(size=4))
    x = Dataset(ln.anchor + rng.normal(0.0, 3.0, (40, 1)) * ln.direction)
    assert np.max(distances("lines", x, LineSet([ln]))) <= 1e-14
    assert cost_pow("lines", x, LineSet([ln]), 1) <= 1e-12


def test_line_distances_and_assignment_build_no_feet(monkeypatch):
    # distances, assignment and cost_pow read the match alone, for all four
    # problems; only the sensitivity tails and the e4 statistic build feet
    rng = np.random.default_rng(41)
    x = Dataset(rand_points(rng, 50, 3))
    sols = {"clustering": CenterSet(rand_points(rng, 3, 3)),
            "subspace": Subspace.from_spanning(rng.normal(size=(2, 3))),
            "flat": Flat.from_point(Subspace.from_spanning(rng.normal(size=(1, 3))),
                                    rand_points(rng, 1, 3)[0]),
            "lines": LineSet([Line.through(rng.normal(size=3), rng.normal(size=3))
                              for _ in range(3)])}
    want = {problem: geometry._match(problem, x.points, sol) for problem, sol in sols.items()}

    def no_feet(*_):
        raise AssertionError("a foot was built")
    monkeypatch.setattr(geometry, "_feet", no_feet)
    monkeypatch.setattr(geometry, "project_line", None)
    for problem, sol in sols.items():
        labels, dist = want[problem]
        npt.assert_array_equal(distances(problem, x, sol), dist)
        assert cost_pow(problem, x, sol, 1.5) == float(np.sum(dist ** 1.5))
        if problem in ("clustering", "lines"):
            npt.assert_array_equal(assignment(problem, x, sol), labels)


def test_cost_two_centers_line_points():
    x = Dataset([[0.0], [1.0], [4.0], [5.0]])
    c = CenterSet([[0.5], [4.5]])
    assert cost_pow("clustering", x, c, 2) == pytest.approx(1.0, abs=1e-12)
    assert cost_pow("clustering", x, c, 1) == pytest.approx(2.0, abs=1e-12)
    assert cost("clustering", x, c, 2) == pytest.approx(1.0, abs=1e-12)


def test_cost_basis_vectors_single_center():
    x = Dataset(np.eye(4))
    c = CenterSet(np.eye(4)[:1])
    assert cost_pow("clustering", x, c, 2) == pytest.approx(6.0, abs=1e-12)
    assert cost_pow("clustering", x, c, 1) == pytest.approx(3.0 * np.sqrt(2), abs=1e-12)


def test_cost_zero_when_on_solution():
    x = Dataset([[2.0, 0.0], [5.0, 0.0]])
    assert cost_pow("subspace", x, Subspace([[1.0, 0.0]]), 2) == 0.0
    ln = Line.canonical([0.0, 0.0], [1.0, 0.0])
    assert cost_pow("lines", x, LineSet([ln]), 3) == 0.0


def test_weighted_cost_matches_duplication():
    rng = np.random.default_rng(7)
    pts = rand_points(rng, 6, 3)
    c = CenterSet(rand_points(rng, 2, 3))
    doubled = Dataset(np.vstack([pts, pts[2:3]]))
    w = np.ones(6)
    w[2] = 2.0
    ws = WeightedSet(pts, w)
    for z in (1, 2, 3):
        assert cost_pow("clustering", ws, c, z) == pytest.approx(
            cost_pow("clustering", doubled, c, z), rel=1e-12)


def test_invalid_z_and_problem():
    x = Dataset([[0.0]])
    c = CenterSet([[0.0]])
    with pytest.raises(ValueError):
        cost_pow("clustering", x, c, 0.5)
    with pytest.raises(ValueError):
        cost_pow("medoid", x, c, 2)
    with pytest.raises(ValueError):
        distances("clustering", x, Subspace([[1.0]]))


def test_assignment_tie_break_lowest_index():
    x = Dataset([[0.0], [3.0]])
    c = CenterSet([[-1.0], [1.0], [3.0]])
    npt.assert_array_equal(assignment("clustering", x, c), [0, 2])
    # same rule for lines
    l0 = Line.canonical([0.0, -1.0], [1.0, 0.0])
    l1 = Line.canonical([0.0, 1.0], [1.0, 0.0])
    npt.assert_array_equal(
        assignment("lines", Dataset([[5.0, 0.0]]), LineSet([l0, l1])), [0])


def test_assignment_refuses_wrong_shape_type():
    x = Dataset([[0.0, 0.0], [1.0, 2.0]])
    lines = LineSet([Line.canonical([0.0, 0.0], [1.0, 0.0])])
    centers = CenterSet([[0.0, 0.0]])
    with pytest.raises(ValueError, match="clustering expects a CenterSet"):
        assignment("clustering", x, lines)
    with pytest.raises(ValueError, match="lines expects a LineSet"):
        assignment("lines", x, centers)
    with pytest.raises(ValueError, match="'clustering' and 'lines' only"):
        assignment("subspace", x, Subspace([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="data dimension 2 != solution dimension 1"):
        assignment("clustering", x, CenterSet([[0.0]]))


@pytest.mark.parametrize("weighted", [False, True])
def test_cost_pow_at_z1_and_z2_is_the_plain_sum(weighted):
    # cost_pow raises to the power z for every z; at z = 1 and z = 2 that
    # must stay bit-equal to summing dist and dist * dist
    rng = np.random.default_rng(11)
    pts = rand_points(rng, 50, 4)
    w = rng.uniform(0.1, 3.0, 50)
    data = WeightedSet(pts, w) if weighted else Dataset(pts)
    solutions = {
        "clustering": CenterSet(rand_points(rng, 3, 4)),
        "subspace": Subspace.from_spanning(rng.normal(size=(2, 4))),
        "flat": Flat.from_point(Subspace.from_spanning(rng.normal(size=(1, 4))),
                                rng.normal(size=4)),
        "lines": LineSet([Line.canonical(rng.normal(size=4), rng.normal(size=4))
                          for _ in range(2)]),
    }
    for problem, sol in solutions.items():
        dist = distances(problem, data, sol)
        vals = {1: dist, 2: dist * dist}
        for z, v in vals.items():
            want = float(np.sum(w * v)) if weighted else float(np.sum(v))
            assert cost_pow(problem, data, sol, z) == want


# ---------------------------------------------------------------------------
# Invariants


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_projection_idempotent(seed):
    rng = np.random.default_rng(seed)
    d = 5
    x = rand_points(rng, 8, d)
    r = Subspace.from_spanning(rand_points(rng, 2, d))
    f = Flat.from_point(r, rng.normal(size=d))
    ln = Line.through(rng.normal(size=d), rng.normal(size=d))
    for proj, shape in ((project_subspace, r), (project_flat, f), (project_line, ln)):
        once = proj(x, shape)
        npt.assert_allclose(proj(once, shape), once, atol=1e-9)


@pytest.mark.parametrize("seed", [3, 4])
def test_pythagoras(seed):
    rng = np.random.default_rng(seed)
    d = 6
    x = rng.normal(0, 5, d)
    r = Subspace.from_spanning(rand_points(rng, 3, d))
    p = project_subspace(x, r)
    assert np.dot(x, x) == pytest.approx(np.dot(p, p) + np.dot(x - p, x - p), abs=1e-9)
    # foot-point optimality on a flat: residual orthogonal to any in-flat chord
    f = Flat.from_point(r, rng.normal(size=d))
    q = project_flat(x, f)
    other = project_flat(rng.normal(0, 5, d), f)
    assert abs(np.dot(x - q, other - q)) < 1e-9 * max(1.0, np.linalg.norm(x - q) * np.linalg.norm(other - q))


@pytest.mark.parametrize("seed", [5, 6])
def test_rotation_invariance(seed):
    rng = np.random.default_rng(seed)
    d, n = 4, 10
    x = rand_points(rng, n, d)
    q = random_rotation(rng, d)
    c = CenterSet(rand_points(rng, 3, d))
    npt.assert_allclose(
        distances("clustering", x, c),
        distances("clustering", x @ q.T, CenterSet(c.centers @ q.T)), atol=1e-9)
    r = Subspace.from_spanning(rand_points(rng, 2, d))
    npt.assert_allclose(
        distances("subspace", x, r),
        distances("subspace", x @ q.T, Subspace(r.basis @ q.T)), atol=1e-9)
    f = Flat.from_point(r, rng.normal(size=d))
    fr = Flat(Subspace(r.basis @ q.T), q @ f.translation)
    npt.assert_allclose(
        distances("flat", x, f), distances("flat", x @ q.T, fr), atol=1e-9)
    lines = [Line.through(rng.normal(size=d), rng.normal(size=d)) for _ in range(2)]
    rot = [Line.canonical(q @ ln.anchor, q @ ln.direction) for ln in lines]
    npt.assert_allclose(
        distances("lines", x, LineSet(lines)),
        distances("lines", x @ q.T, LineSet(rot)), atol=1e-9)


def test_scale_homogeneity():
    rng = np.random.default_rng(11)
    x = rand_points(rng, 7, 3)
    c = CenterSet(rand_points(rng, 2, 3))
    lam = 3.5
    for z in (1, 2, 3):
        assert cost_pow("clustering", Dataset(lam * x), CenterSet(lam * c.centers), z) \
            == pytest.approx(lam ** z * cost_pow("clustering", Dataset(x), c, z), rel=1e-9)


def test_monotone_in_solution_size():
    rng = np.random.default_rng(12)
    x = Dataset(rand_points(rng, 20, 3))
    c2 = CenterSet(rand_points(rng, 2, 3))
    c3 = CenterSet(np.vstack([c2.centers, rng.normal(size=(1, 3))]))
    for z in (1, 2):
        assert cost_pow("clustering", x, c3, z) <= cost_pow("clustering", x, c2, z) + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=12),
       st.floats(-100, 100), st.floats(-100, 100))
def test_single_center_cost_pow_is_sum_of_squares(xs, c0, c1):
    pts = np.array([[v, v + 1.0] for v in xs])
    c = CenterSet([[c0, c1]])
    expected = np.sum(np.sum((pts - np.array([c0, c1])) ** 2, axis=1))
    assert cost_pow("clustering", Dataset(pts), c, 2) == pytest.approx(expected, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Text I/O


def test_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    pts = rand_points(rng, 9, 4, scale=1e3)
    path = tmp_path / "data.txt"
    write_points(path, pts, comments=["generated for a test"])
    back = read_dataset(path)
    npt.assert_array_equal(back.points, pts)  # repr round-trips exactly
    assert (back.n, back.d) == (9, 4)


def test_dataset_read_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_dataset(p)
    p.write_text("2 2\n1.0 2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_dataset(p)
    p.write_text("# only comments\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_dataset(p)


def test_dataset_read_counts_rows_past_n(tmp_path):
    p = tmp_path / "long.txt"
    p.write_text("2 2\n1.0 2.0\n3.0 4.0\n5.0 6.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 2 data rows, found 3"):
        read_dataset(p)


def test_read_points_memory_stays_near_one_array(tmp_path):
    # the array is filled row by row; holding the text lines would cost
    # several array-sizes
    n, d = 20_000, 20
    p = tmp_path / "big.txt"
    pts = np.random.default_rng(27).normal(size=(n, d))
    write_points(p, pts)
    tracemalloc.start()
    try:
        back = read_points(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    npt.assert_array_equal(back, pts)
    assert peak < 1.5 * n * d * 8


def test_read_dataset_keeps_the_array_it_reads(tmp_path):
    # the Dataset takes read_points' array after the same checks: a copy
    # would make two array-sizes
    n, d = 20_000, 20
    p = tmp_path / "big.txt"
    pts = np.random.default_rng(28).normal(size=(n, d))
    write_points(p, pts)
    tracemalloc.start()
    try:
        back = read_dataset(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    npt.assert_array_equal(back.points, pts)
    assert not back.points.flags.writeable
    assert peak < 1.25 * n * d * 8


def test_csv_fields_are_plain_reprs_of_numpy_values(tmp_path):
    # repr(np.float64(0.1)) is 'np.float64(0.1)' under numpy 2
    path = tmp_path / "out.csv"
    _write_csv(path, ["a", "b", "c", "d"],
               [[np.float64(0.1), np.int64(3), None, "x,y"], [1e-300, 7, 2.5, "ok"]])
    assert path.read_bytes() == b'a,b,c,d\n0.1,3,,"x,y"\n1e-300,7,2.5,ok\n'
