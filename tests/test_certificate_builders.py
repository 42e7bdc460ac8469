"""The closed-form certificate builders against their one-term-at-a-time loops.

The spectral-Schmidt, signed and operator-Schmidt certificates are built by
broadcasts over stacked arrays.  The loops below build them one eigenvector,
one Schmidt pair and one term at a time, as the stacked code must reproduce
them: every factor bit for bit, every weight equal, every total weight with
the same repr.
"""

import numpy as np
import pytest

from crossnorm import (
    BipartiteOperator,
    BipartiteShape,
    BipartiteVector,
    SeeSawConfig,
    hermitian_upper,
    max_entangled,
    pi_bounds,
    pure_with_schmidt,
    random_density,
    trace_norm,
    upper_bound_realignment,
    upper_bound_spectral,
)
from crossnorm import bounds
from crossnorm.core import (
    SCHMIDT_CUTOFF,
    SchmidtForm,
    _fix_phases,
    eigh_blocks,
    equal_runs,
    operator_schmidt,
    schmidt_decompose,
)
from crossnorm.separability import isotropic

# ---------------------------------------------------------------------------
# the loop references


def _reference_spectral_schmidt(op):
    w, u, blocks = eigh_blocks(op.matrix)
    cut = 1e-13 * np.abs(w).max(initial=0.0)
    for blk in blocks:
        if blk.stop - blk.start > 1 and abs(w[blk.start]) > cut:
            u[:, blk] = bounds._productize_block(u[:, blk], op.shape)
    return [(float(w[j]), _reference_schmidt_decompose(BipartiteVector(op.shape, u[:, j])))
            for j in range(w.size) if abs(w[j]) > cut]


def _reference_schmidt_decompose(v):
    u, s, vh = np.linalg.svd(v.as_matrix(), full_matrices=False)
    keep = s > SCHMIDT_CUTOFF * s[0]
    left, right = _fix_phases(u[:, keep].T, vh[keep, :])
    return SchmidtForm(s[keep], left, right, v.shape)


def _reference_spectral_standard(spectral, shape):
    terms = []
    value = 0.0
    for lam, sf in spectral:
        a = sf.coefficients
        value += abs(lam) * float(a.sum() ** 2)
        sgn = 1.0 if lam >= 0 else -1.0
        for k in range(sf.rank):
            for l in range(sf.rank):
                x = sgn * np.outer(sf.left_vectors[k], sf.left_vectors[l].conj())
                y = np.outer(sf.right_vectors[k], sf.right_vectors[l].conj())
                terms.append((abs(lam) * a[k] * a[l], x, y))
    return value, bounds.StandardDecomposition(terms, shape)


def _reference_realignment_upper(op):
    form = operator_schmidt(op)
    sv, gs, hs = form.singular_values, np.array(form.left_ops), np.array(form.right_ops)
    for run in equal_runs(sv):
        if run.stop - run.start > 1:
            q = bounds._pivoted_rotation(gs[run].reshape(run.stop - run.start, -1).T)
            gs[run], hs[run] = np.tensordot(q.T, gs[run], 1), np.tensordot(q.conj().T, hs[run], 1)
    terms = []
    value = 0.0
    for s, g, h in zip(sv, gs, hs):
        ng, nh = trace_norm(g), trace_norm(h)
        if ng * nh == 0.0:
            continue
        r = float(s * ng * nh)
        terms.append((r, g / ng, h / nh))
        value += r
    return value, bounds.StandardDecomposition(terms, op.shape)


def _reference_signed_atoms(spectral):
    cut = 1e-15 * max((abs(lam) for lam, _ in spectral), default=0.0)
    atoms, weights = [], []
    for lam, sf in spectral:
        a, lv, rv = sf.coefficients, sf.left_vectors, sf.right_vectors
        atoms += zip(lv, rv)
        weights += [lam * ak**2 for ak in a]
        for k in range(sf.rank):
            for l in range(k + 1, sf.rank):
                for phi, sign in ((1.0, 1.0), (1j, -1.0)):
                    for s, t in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
                        atoms.append(((lv[k] + s * phi * lv[l]) / np.sqrt(2.0),
                                      (rv[k] + t * phi * rv[l]) / np.sqrt(2.0)))
                        weights.append(sign * s * t * lam * a[k] * a[l] / 2)
    keep = [i for i, w in enumerate(weights) if abs(w) > cut]
    return [atoms[i] for i in keep], np.array([weights[i] for i in keep])


def _reference_decomposition_from(atoms, weights, shape, cutoff):
    return bounds.SignedDecomposition(
        [(float(w), np.outer(p, p.conj()), np.outer(q, q.conj()))
         for w, (p, q) in zip(weights, atoms) if abs(w) > cutoff], shape)


def _reference_hermitian_split_upper(op):
    mat = op.matrix
    up, terms = 0.0, []
    for phase, part in ((1.0, (mat + mat.conj().T) / 2), (1j, (mat - mat.conj().T) / 2j)):
        hop = BipartiteOperator(op.shape, part)
        value, dec = min(_reference_spectral_standard(_reference_spectral_schmidt(hop), op.shape),
                         _reference_realignment_upper(hop), key=lambda p: p[0])
        up += value
        terms += [(r, phase * x, y) for r, x, y in dec.terms]
    return up, bounds.StandardDecomposition(terms, op.shape)


# ---------------------------------------------------------------------------
# the panel


def _maximally_mixed(d):
    return BipartiteOperator(BipartiteShape(d, d), np.eye(d * d, dtype=complex) / (d * d))


def _indefinite_3x3():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    return BipartiteOperator(BipartiteShape(3, 3), (z + z.conj().T) / 2)


def _ragged_3x3():
    """A rank-4 density whose eigenvectors have Schmidt ranks 1, 3, 3 and 2, in
    a random local frame.  One rank-3 eigenvector has the coefficients
    (1, 1, 1.2e-12) / sqrt 2: the cut relative to its own largest coefficient
    keeps the third, a cut relative to the largest of all (1) would not."""
    e = np.eye(3)

    def ket(*pairs):
        v = sum(c * np.kron(e[i], e[k]) for c, i, k in pairs)
        return v / np.linalg.norm(v)

    vecs = [ket((1.0, 0, 1)),
            ket((1.2e-12, 0, 0), (1.0, 1, 1), (1.0, 2, 2)),
            ket((1.0, 0, 2), (1.0, 1, 0), (1.0, 2, 1)),
            ket((1.0, 1, 2), (1.0, 2, 0))]
    rho = sum(p * np.outer(v, v) for p, v in zip((0.4, 0.3, 0.2, 0.1), vecs))
    rng = np.random.default_rng(9)
    u, v = (np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
            for _ in range(2))
    local = np.kron(u, v)
    return BipartiteOperator(BipartiteShape(3, 3), local @ rho @ local.conj().T)


def _non_hermitian_3x3():
    m = np.random.default_rng(3).standard_normal((9, 9))
    return BipartiteOperator(BipartiteShape(3, 3), m / np.linalg.norm(m))


PANEL = {
    "bell": lambda: max_entangled(2),
    "max-mixed-3": lambda: _maximally_mixed(3),
    "isotropic-0.5-3": lambda: isotropic(0.5, 3),
    "pure-schmidt-3": lambda: pure_with_schmidt([0.8, 0.5, np.sqrt(0.11)]).projector(),
    "random-2x3": lambda: random_density(BipartiteShape(2, 3), 7),
    "random-5x5": lambda: random_density(BipartiteShape(5, 5), 7),
    "indefinite-3x3": _indefinite_3x3,
    "ragged-3x3": _ragged_3x3,
}


def _unit(name):
    return bounds._Analysis(PANEL[name]()).unit


def _same(a, b):
    """Equal arrays, bit for bit: signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_decomposition(dec, ref):
    assert type(dec) is type(ref) and dec.shape == ref.shape
    assert len(dec.terms) == len(ref.terms)
    for (w, x, y), (wr, xr, yr) in zip(dec.terms, ref.terms):
        assert w == wr and type(w) is type(wr)
        assert _same(x, xr) and _same(y, yr)
    assert repr(dec.weight) == repr(ref.weight)


# ---------------------------------------------------------------------------
# the stacked builders against the loops


@pytest.mark.parametrize("name", PANEL)
def test_spectral_schmidt_matches_the_per_vector_loop(name):
    op = _unit(name)
    got = bounds._spectral_schmidt(eigh_blocks(op.matrix), op.shape)
    ref = _reference_spectral_schmidt(op)
    assert len(got) == len(ref) > 0
    for (lam, sf), (lam_ref, sf_ref) in zip(got, ref):
        assert lam == lam_ref and sf.shape == sf_ref.shape
        assert _same(sf.coefficients, sf_ref.coefficients)
        assert _same(sf.left_vectors, sf_ref.left_vectors)
        assert _same(sf.right_vectors, sf_ref.right_vectors)


@pytest.mark.parametrize("name", PANEL)
def test_schmidt_decompose_matches_the_per_vector_reference(name):
    op = _unit(name)
    for j in range(op.shape.total):
        v = BipartiteVector(op.shape, np.linalg.eigh(op.matrix)[1][:, j])
        sf, ref = schmidt_decompose(v), _reference_schmidt_decompose(v)
        assert _same(sf.coefficients, ref.coefficients)
        assert _same(sf.left_vectors, ref.left_vectors) and _same(sf.right_vectors, ref.right_vectors)


def test_ragged_panel_state_cuts_each_eigenvector_at_its_own_rank():
    op = _unit("ragged-3x3")
    spectral = bounds._spectral_schmidt(eigh_blocks(op.matrix), op.shape)
    assert [sf.rank for _, sf in spectral] == [1, 3, 3, 2]
    assert 1e-12 / np.sqrt(2.0) < spectral[1][1].coefficients[-1] < 1e-12  # 1.2e-12 / sqrt 2


@pytest.mark.parametrize("name", PANEL)
def test_spectral_standard_matches_the_per_term_loop(name):
    op = _unit(name)
    spectral = _reference_spectral_schmidt(op)
    value, dec = bounds._spectral_standard(spectral, op.shape)
    value_ref, ref = _reference_spectral_standard(spectral, op.shape)
    assert repr(value) == repr(value_ref)
    _assert_same_decomposition(dec, ref)


@pytest.mark.parametrize("name", PANEL)
def test_signed_atoms_and_decomposition_match_the_per_atom_loop(name):
    op = _unit(name)
    spectral = _reference_spectral_schmidt(op)
    phis, psis, weights = bounds._signed_atoms(spectral, op.shape)
    atoms_ref, weights_ref = _reference_signed_atoms(spectral)
    assert phis.shape == (len(atoms_ref), op.shape.dh) and psis.shape == (len(atoms_ref), op.shape.dj)
    for p, q, (p_ref, q_ref) in zip(phis, psis, atoms_ref):
        assert _same(p, p_ref) and _same(q, q_ref)
    assert _same(weights, weights_ref)
    for cutoff in (0.0, 1e-3 * np.abs(weights).max()):
        _assert_same_decomposition(
            bounds._decomposition_from(phis, psis, weights, op.shape, cutoff=cutoff),
            _reference_decomposition_from(atoms_ref, weights_ref, op.shape, cutoff))


@pytest.mark.parametrize("name", PANEL)
def test_realignment_upper_matches_the_per_term_loop(name):
    op = _unit(name)
    value, dec = bounds._realignment_upper(op)
    value_ref, ref = _reference_realignment_upper(op)
    assert repr(value) == repr(value_ref)
    _assert_same_decomposition(dec, ref)


def test_hermitian_split_matches_the_loops_on_both_parts():
    op = bounds._Analysis(_non_hermitian_3x3()).unit
    value, dec = bounds._hermitian_split_upper(op)
    value_ref, ref = _reference_hermitian_split_upper(op)
    assert repr(value) == repr(value_ref)
    _assert_same_decomposition(dec, ref)
    mat = op.matrix
    for part in ((mat + mat.conj().T) / 2, (mat - mat.conj().T) / 2j):  # each part bounded on its own
        hop = BipartiteOperator(op.shape, part)
        assert not np.allclose(part, 0.0)
        _assert_same_decomposition(bounds._realignment_upper(hop)[1],
                                   _reference_realignment_upper(hop)[1])
        spectral = _reference_spectral_schmidt(hop)
        _assert_same_decomposition(bounds._spectral_standard(spectral, op.shape)[1],
                                   _reference_spectral_standard(spectral, op.shape)[1])


# ---------------------------------------------------------------------------
# the zero operator: every stack is empty


def _zero_2x3():
    return BipartiteOperator(BipartiteShape(2, 3), np.zeros((6, 6), dtype=complex))


@pytest.mark.parametrize("include_robustness", [True, False])
def test_zero_operator_bounds_are_zero_with_empty_certificates(include_robustness):
    nb = pi_bounds(_zero_2x3(), SeeSawConfig(seed=1), include_robustness=include_robustness)
    assert (nb.pi_lower, nb.pi_upper, nb.h_lower, nb.h_upper) == (0.0, 0.0, 0.0, 0.0)
    assert nb.certificates["pi_upper"].terms == [] and nb.certificates["h_upper"].terms == []


@pytest.mark.parametrize("provider", [upper_bound_spectral, upper_bound_realignment, hermitian_upper])
def test_zero_operator_single_providers_give_zero_and_no_terms(provider):
    value, dec = provider(_zero_2x3())
    assert value == 0.0 and dec.terms == [] and dec.weight == 0.0


def test_zero_operator_builders_return_empty_stacks():
    op = _zero_2x3()
    assert bounds._spectral_schmidt(eigh_blocks(op.matrix), op.shape) == []
    phis, psis, weights = bounds._signed_atoms([], op.shape)
    assert phis.shape == (0, 2) and psis.shape == (0, 3) and weights.shape == (0,)
    assert bounds._decomposition_from(phis, psis, weights, op.shape, cutoff=0.0).terms == []
    assert bounds._columns(phis, psis).shape == (0, 36)
