import numpy as np
import pytest
import scipy.linalg

from heintze.errors import HypothesisViolationError, RangeError
from heintze.linalg import jordan_block
from heintze.spectral import (
    RealPartJordanForm,
    _block_sizes,
    canonical_matrix,
    classify,
    eigen_clusters,
    real_part_jordan_form,
)

ROTATION_PLUS = np.array([[1.0, -1.0], [1.0, 1.0]])


def random_conjugator(rng, n, cond_max=1e3):
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    sig = np.exp(rng.uniform(np.log(1.0 / np.sqrt(cond_max)), 0.0, n))
    p = q1 @ np.diag(sig) @ q2
    assert np.linalg.cond(p) <= cond_max
    return p


def random_canonical(rng, max_n=5):
    """Random valid real-part Jordan form matrix whose structure is
    resolvable at the default tolerance after conjugation (block sizes
    at most 2; eigenvalue gaps at least 0.25)."""
    blocks = []
    total = 0
    lam = float(rng.uniform(0.4, 1.2))
    while total < max_n:
        size = int(rng.integers(1, 3))
        if total + size > max_n:
            size = 1
        blocks.append((lam, size))
        total += size
        lam += float(rng.uniform(0.25, 1.0))
        if rng.random() < 0.35 and total >= 2:
            break
    blocks.sort(key=lambda b: (b[0], -b[1]))
    form = RealPartJordanForm(tuple(blocks), total)
    return canonical_matrix(form), form


def test_eigen_clusters_examples():
    cl = eigen_clusters(np.diag([1.0, 2.0]))
    assert [(c.value, c.multiplicity) for c in cl] == [(1 + 0j, 1), (2 + 0j, 1)]

    cl = eigen_clusters(jordan_block(1.0, 3))
    assert len(cl) == 1 and cl[0].multiplicity == 3
    assert cl[0].value == pytest.approx(1.0)

    cl = eigen_clusters(ROTATION_PLUS)
    assert len(cl) == 2
    vals = sorted((c.value for c in cl), key=lambda v: v.imag)
    assert vals[0] == pytest.approx(1 - 1j)
    assert vals[1] == pytest.approx(1 + 1j)
    assert all(c.multiplicity == 1 for c in cl)


def test_rpjf_examples():
    assert real_part_jordan_form(np.diag([1.0, 2.0])).blocks == (
        (1.0, 1),
        (2.0, 1),
    )
    assert real_part_jordan_form(jordan_block(1.0, 3)).blocks == ((1.0, 3),)
    blocks = real_part_jordan_form(ROTATION_PLUS).blocks
    assert [s for _, s in blocks] == [1, 1]
    assert all(lam == pytest.approx(1.0) for lam, _ in blocks)


def test_rpjf_hypothesis_violation():
    with pytest.raises(HypothesisViolationError):
        real_part_jordan_form(np.diag([-1.0, 2.0]))
    with pytest.raises(HypothesisViolationError):
        real_part_jordan_form(np.diag([0.0, 2.0]))


@pytest.mark.parametrize("kwargs", [
    {"tol": float("nan")},
    {"rank_tol": float("nan")},
    {"rank_tol": 2.0},
    {"rank_tol": 1.0},
    {"rank_tol": 0.0},
    {"rank_tol": -1e-9},
])
def test_rpjf_rejects_bad_tolerances(kwargs):
    # each of these used to read J3 as three J1s, or to fall back silently
    # on the rounding floor, instead of raising
    with pytest.raises(ValueError, match="tol must"):
        real_part_jordan_form(jordan_block(1.0, 3), **kwargs)
    with pytest.raises(ValueError, match="tol must"):
        classify(jordan_block(1.0, 2), np.diag([1.0, 2.0]), **kwargs)


def test_eigen_clusters_rejects_a_nan_tolerance():
    with pytest.raises(ValueError, match="tol must be positive"):
        eigen_clusters(np.diag([1.0, 2.0]), float("nan"))


def test_overflow_sized_matrices_raise():
    # the staircase squares the entries: 1e160 J2 used to read as two J1s,
    # and the 1e308 matrix to end in "SVD did not converge"
    j2 = jordan_block(1.0, 2)
    assert real_part_jordan_form(1e150 * j2).blocks == ((1e150, 2),)
    for a in (1e160 * j2, np.array([[1e308, 1.0], [0.0, 1e308]])):
        with pytest.raises(RangeError, match=r"at most 1e\+150"):
            real_part_jordan_form(a)


def test_rpjf_idempotent_on_canonical_matrices(rng):
    for _ in range(20):
        a, form = random_canonical(rng)
        out = real_part_jordan_form(a)
        assert [s for _, s in out.blocks] == [s for _, s in form.blocks]
        for (lg, _), (lf, _) in zip(out.blocks, form.blocks):
            # eigensolver ulp drift is far below the declared resolution
            assert lg == pytest.approx(lf, rel=1e-12)


def test_rpjf_bigger_mixed_structure():
    form = RealPartJordanForm(((0.7, 2), (0.7, 1), (2.0, 3)), 6)
    out = real_part_jordan_form(canonical_matrix(form))
    assert [s for _, s in out.blocks] == [2, 1, 3]
    assert out.blocks[0][0] == pytest.approx(0.7, rel=1e-12)
    assert out.blocks[2][0] == pytest.approx(2.0, rel=1e-12)


def test_rpjf_conjugation_invariance(rng):
    for _ in range(25):
        a, form = random_canonical(rng)
        p = random_conjugator(rng, a.shape[0])
        b = p @ a @ np.linalg.inv(p)
        out = real_part_jordan_form(b, 1e-6)
        assert [s for _, s in out.blocks] == [s for _, s in form.blocks]
        for (lg, _), (lf, _) in zip(out.blocks, form.blocks):
            assert lg == pytest.approx(lf, rel=1e-6)


def test_rpjf_scaling_covariance(rng):
    a, form = random_canonical(rng)
    base = real_part_jordan_form(a)
    for s in (0.5, 2.0, 10.0):
        scaled = real_part_jordan_form(s * a)
        assert [x for _, x in scaled.blocks] == [x for _, x in base.blocks]
        for (lam_s, _), (lam, _) in zip(scaled.blocks, base.blocks):
            assert lam_s == pytest.approx(s * lam, rel=1e-9)
        res = classify(a, s * a)
        assert res.equivalent
        # scale convention: rpJF(A) = rpJF(scale * B) with B = s * A
        assert res.scale == pytest.approx(1.0 / s, rel=1e-9)


def test_classify_examples():
    res = classify(np.diag([1.0, 2.0]), np.diag([2.0, 4.0]))
    assert res.equivalent and res.scale == pytest.approx(0.5)

    res = classify(np.diag([1.0, 2.0]), np.diag([1.0, 3.0]))
    assert not res.equivalent and res.scale is None

    res = classify(jordan_block(1.0, 2), np.diag([1.0, 1.0]))
    assert not res.equivalent


def test_classify_conjugated_jordan_block(rng):
    p = random_conjugator(rng, 2)
    b = p @ jordan_block(1.0, 2) @ np.linalg.inv(p)
    res = classify(jordan_block(1.0, 2), b)
    assert res.equivalent
    assert res.scale == pytest.approx(1.0, abs=1e-6)


def test_classify_reflexive_symmetric(rng):
    for _ in range(10):
        a, _ = random_canonical(rng)
        b, _ = random_canonical(rng)
        if a.shape != b.shape:
            continue
        res_ab = classify(a, b)
        res_ba = classify(b, a)
        assert classify(a, a).equivalent
        assert res_ab.equivalent == res_ba.equivalent
        if res_ab.equivalent:
            assert res_ab.scale == pytest.approx(1.0 / res_ba.scale, rel=1e-9)


def test_classify_dimension_mismatch():
    with pytest.raises(ValueError):
        classify(np.eye(2), np.eye(3))


def test_classification_json_shape():
    res = classify(np.diag([1.0, 2.0]), np.diag([2.0, 4.0]))
    doc = res.to_json_dict()
    assert set(doc) == {"equivalent", "scale", "form_a", "form_b", "min_gap"}
    assert doc["form_a"] == [[1.0, 1], [2.0, 1]]
    assert doc["min_gap"] == pytest.approx(1.0 / 3.0)


def test_complex_pair_conjugation(rng):
    a = scipy.linalg.block_diag(ROTATION_PLUS, [[3.0]])
    p = random_conjugator(rng, 3)
    b = p @ a @ np.linalg.inv(p)
    out = real_part_jordan_form(b)
    assert [s for _, s in out.blocks] == [1, 1, 1]
    assert out.blocks[0][0] == pytest.approx(1.0, rel=1e-8)
    assert out.blocks[2][0] == pytest.approx(3.0, rel=1e-8)


def _sum(*blocks):
    return scipy.linalg.block_diag(*[jordan_block(lam, s)
                                     for lam, s in blocks])


# block sizes 1-4, sums of blocks at one and at two eigenvalues, and
# complex pairs: a 2 x 2 Jordan block of the pair 1 +- i
GATE = {
    "J1": _sum((1.0, 1)),
    "J2": _sum((1.0, 2)),
    "J3": _sum((1.0, 3)),
    "J4": _sum((1.0, 4)),
    "J3+J1(.4)": _sum((0.4, 3), (0.4, 1)),
    "J2+J2": _sum((1.0, 2), (1.0, 2)),
    "J3(1)+J1(2)": _sum((1.0, 3), (2.0, 1)),
    "complex J2": np.kron(np.eye(2), ROTATION_PLUS) + np.eye(4, k=2),
    "J2+J2+J1(.5)": _sum((0.5, 2), (0.5, 2), (0.5, 1)),
}


@pytest.mark.parametrize("name", sorted(GATE))
def test_classify_survives_conjugation(name):
    a = GATE[name]
    rng = np.random.default_rng(2024)
    for _ in range(100):
        p = random_conjugator(rng, len(a), cond_max=1e3)
        res = classify(a, p @ a @ np.linalg.inv(p))
        assert res.equivalent, (name, res.form_b)
        assert res.scale == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("blocks", [
    ((0.25, 5), (0.5, 5), (2.0, 2)),
    ((0.1, 3), (0.1, 1), (0.2, 5)),
    # 1.0005 merges with the J2 inside J3's splitting radius at ||A|| =
    # 100, and a threshold on powers of T11 - mu I passed it as a J3
    ((1.0, 2), (1.0005, 1), (100.0, 1)),
])
def test_rpjf_on_canonical_sums(blocks):
    # ranked over all of A, the J5(0.5) block's sigma_min((0.25 I +
    # N)^5) = 5.4e-8 counted as null at mu = 0.25
    a = _sum(*blocks)
    assert real_part_jordan_form(a).blocks == blocks
    p = random_conjugator(np.random.default_rng(3), len(a))
    out = real_part_jordan_form(p @ a @ np.linalg.inv(p)).blocks
    assert [s for _, s in out] == [s for _, s in blocks]
    assert [lam for lam, _ in out] == pytest.approx(
        [lam for lam, _ in blocks], rel=1e-6)


# (matrix, form, seeds of its orthogonal rotations): defective clusters
# beside other eigenvalues, a complex pair among them
ROTATED = {
    "J4(.25)+J4(.5)+J2(2)": (_sum((0.25, 4), (0.5, 4), (2.0, 2)),
                             ((0.25, 4), (0.5, 4), (2.0, 2)), range(100, 110)),
    "spiral+J2(0.3)": (scipy.linalg.block_diag([[1.0, -3.0], [3.0, 1.0]],
                                               jordan_block(0.3, 2)),
                       ((0.3, 2), (1.0, 1), (1.0, 1)), range(5)),
    "2+J2(1)": (_sum((1.0, 2), (2.0, 1)), ((1.0, 2), (2.0, 1)), range(5)),
}


@pytest.mark.parametrize("name", sorted(ROTATED))
def test_rpjf_on_rotated_sums(name):
    a, blocks, seeds = ROTATED[name]
    for seed in seeds:
        r = np.linalg.qr(np.random.default_rng(seed).normal(size=a.shape))[0]
        out = real_part_jordan_form(r @ a @ r.T).blocks
        assert [s for _, s in out] == [s for _, s in blocks], (name, seed)
        assert [lam for lam, _ in out] == pytest.approx(
            [lam for lam, _ in blocks], rel=1e-6), (name, seed)


def test_a_1e5_gap_is_not_equivalent():
    # the gap is inside J3's splitting radius, where it first merges
    rng = np.random.default_rng(11)
    near = _sum((1.0, 3), (1.0 + 1e-5, 1))
    assert real_part_jordan_form(near).blocks == ((1.0, 3), (1.0 + 1e-5, 1))
    assert not classify(near, _sum((1.0, 3), (1.0, 1))).equivalent
    # the same gap next to a large eigenvalue, which widens the splitting
    # radii but not the eigenvalue-relative tol
    stiff = np.diag([1.0, 1.0 + 1e-5, 100.0])
    assert len(real_part_jordan_form(stiff).blocks) == 3
    assert not classify(stiff, np.diag([1.0, 1.0, 100.0])).equivalent
    blocks = ((1.0, 2), (1.0 + 1e-5, 1), (100.0, 1))
    assert real_part_jordan_form(_sum(*blocks)).blocks == blocks
    assert not classify(_sum((1.0, 2), (1.0 + 1e-5, 1)),
                        jordan_block(1.0, 3)).equivalent
    for _ in range(20):
        p = random_conjugator(rng, 2)
        b = p @ np.diag([1.0, 1.0 + 1e-5]) @ np.linalg.inv(p)
        assert len(real_part_jordan_form(b).blocks) == 2
        assert not classify(b, np.eye(2)).equivalent


def test_a_1x1_cluster_resolves():
    # A - mu I is singular only to rounding on a 1 x 1 cluster, and is
    # only the rounding residual on a rotated scalar matrix: the rank
    # threshold rank_tol ||A - mu I|| is floored at 16 eps ||A||_F
    r = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
    a = r @ np.diag([0.5, 2.0, 3.0]) @ r.T
    for mu in np.linalg.eigvals(a):
        assert _block_sizes(a, complex(mu), 1, 1e-9) == [1]
    assert real_part_jordan_form([[0.7]]).blocks == ((0.7, 1),)
    out = real_part_jordan_form(r @ (0.7 * np.eye(3)) @ r.T).blocks
    assert [s for _, s in out] == [1, 1, 1]
    assert all(lam == pytest.approx(0.7, rel=1e-12) for lam, _ in out)
