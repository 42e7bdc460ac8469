"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines.  Every tolerance is pinned here; nothing is deferred.
"""

import numpy as np
from scipy.optimize import linprog

from crossnorm import (
    BipartiteOperator,
    BipartiteShape,
    BipartiteVector,
    PAPER_PRESET,
    SeeSawConfig,
    build_witness_EN,
    classify,
    divergent_lower_bound,
    g_norm_seesaw,
    hermitian_upper,
    isotropic,
    kron,
    lower_bound_realignment,
    lower_bound_witness,
    max_entangled,
    max_entangled_vector,
    mixing_lower_bound,
    operator_norm,
    pi_bounds,
    ppt_oracle,
    pure_pi_norm,
    pure_with_schmidt,
    random_density,
    random_pure,
    random_separable,
    robustness_upper,
    schmidt_decompose,
    trace_norm,
    upper_bound_spectral,
    validate_decomposition,
    witness_check,
    witness_value,
)
def criterion(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] Criterion {number}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(str(f) for f in failures[:10])


def test_criterion_1_pure_state_formula():
    """Spectral upper and witness lower both hit (sum a_l)^2 on pure states."""
    failures = []
    rng = np.random.default_rng(10_001)
    cases = []
    for i in range(200):
        dh, dj = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        cases.append((random_pure(BipartiteShape(dh, dj), rng), 20_000 + i))
    cases.append((max_entangled_vector(2), 30_001))
    cases.append((pure_with_schmidt([np.sqrt(0.8), np.sqrt(0.2)]), 30_002))

    for v, seed in cases:
        target = pure_pi_norm(v)
        up, _ = upper_bound_spectral(v.projector())
        low, _ = lower_bound_witness(
            v.projector(), SeeSawConfig(seed=seed, restarts=2, max_iters=20)
        )
        if abs(up - target) > 1e-6:
            failures.append(f"spectral {up} vs {target}")
        if abs(low - target) > 1e-6:
            failures.append(f"witness {low} vs {target}")
    bell_val = pure_pi_norm(max_entangled_vector(2))
    if abs(bell_val - 2.0) > 1e-9:
        failures.append(f"bell {bell_val}")
    skew = pure_pi_norm(pure_with_schmidt([np.sqrt(0.8), np.sqrt(0.2)]))
    if abs(skew - 1.8) > 1e-9:
        failures.append(f"(.8,.2) state {skew}")
    criterion(1, "pure-state formula (sum of Schmidt coefficients squared)", failures)


def test_criterion_2_density_saturation():
    """Max entangled pinches to d; spectral upper never exceeds min(dh, dj)."""
    failures = []
    cfg = SeeSawConfig(seed=11_000, restarts=6, max_iters=60)
    for d in (2, 3, 4):
        nb = pi_bounds(max_entangled(d), cfg, include_robustness=False)
        if abs(nb.pi_lower - d) > 1e-6 or abs(nb.pi_upper - d) > 1e-6:
            failures.append(f"d={d}: [{nb.pi_lower}, {nb.pi_upper}]")
    rng = np.random.default_rng(11_001)
    for _ in range(60):
        dh, dj = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        op = random_density(BipartiteShape(dh, dj), rng)
        val, _ = upper_bound_spectral(op)
        if val > min(dh, dj) + 1e-8:
            failures.append(f"spectral {val} above m={min(dh, dj)}")
    criterion(2, "saturation 1 <= ||D||_pi <= m with pinch at max entangled", failures)


def test_criterion_3_separable_branch():
    """100 random product mixtures classify Separable with weight-one proof."""
    failures = []
    shapes = [(2, 2)] * 50 + [(2, 3)] * 25 + [(3, 3)] * 25
    for i, (dh, dj) in enumerate(shapes):
        op, _ = random_separable(BipartiteShape(dh, dj), 2 + i % 7, seed=12_000 + i)
        cfg = SeeSawConfig(seed=13_000 + i, restarts=4, max_iters=40)
        cls = classify(op, cfg)
        if cls.verdict != "Separable":
            failures.append(f"state {i} ({dh}x{dj}): {cls.verdict}")
            continue
        rep = validate_decomposition(op, cls.certificate)
        if not (rep.valid and rep.positive and abs(rep.weight - 1.0) <= 1e-6):
            failures.append(f"state {i}: bad certificate weight {rep.weight}")
        low = max(lower_bound_realignment(op), lower_bound_witness(op, cfg)[0])
        if low > 1.0 + 1e-8:
            failures.append(f"state {i}: certified lower bound {low} above 1")
    criterion(3, "ECNC separable branch on 100 product mixtures", failures)


def test_criterion_4_two_qubit_oracle_consistency():
    """No Entangled verdict on any PPT two-qubit state; bounds respect PPT."""
    failures = []
    for i in range(500):
        op = random_density(BipartiteShape(2, 2), seed=14_000 + i)
        cfg = SeeSawConfig(seed=15_000 + i, restarts=4, max_iters=40)
        ppt = ppt_oracle(op)
        realign_low = lower_bound_realignment(op)
        cls = classify(op, cfg)
        if ppt.is_ppt:
            if cls.verdict == "Entangled":
                failures.append(f"state {i}: Entangled verdict on PPT state")
            if realign_low > 1.0 + 1e-8:
                failures.append(f"state {i}: realignment {realign_low} on PPT state")
        cert_low = realign_low
        if cls.verdict == "Entangled":
            cert_low = max(cert_low, cls.detection_value)
        if cert_low > 1.0 + 1e-6 and ppt.min_eigenvalue >= 0.0:
            failures.append(f"state {i}: lower bound {cert_low} but PPT")
        if cls.verdict == "Separable" and not ppt.is_ppt:
            failures.append(f"state {i}: Separable verdict on NPT state")
    criterion(4, "two-qubit PPT oracle consistency over 500 states", failures)


def test_criterion_5_isotropic_threshold():
    """Witness value 1.5p + 0.5; Entangled exactly above p = 1/3."""
    failures = []
    for k in range(21):
        p = 0.05 * k
        op = isotropic(p, 2)
        cfg = SeeSawConfig(seed=16_000 + k, restarts=6, max_iters=60)
        wv, _ = lower_bound_witness(op, cfg)
        if abs(wv - (1.5 * p + 0.5)) > 1e-6:
            failures.append(f"p={p}: witness {wv}")
        cls = classify(op, cfg)
        if p > 1 / 3 + 1e-6 and cls.verdict != "Entangled":
            failures.append(f"p={p}: verdict {cls.verdict}")
        if p <= 1 / 3 + 1e-6 and cls.verdict == "Entangled":
            failures.append(f"p={p}: spurious Entangled")
        min_eig = ppt_oracle(op).min_eigenvalue
        if abs(min_eig - (1 - 3 * p) / 4) > 1e-9:
            failures.append(f"p={p}: PPT eigenvalue {min_eig}")
    boundary = ppt_oracle(isotropic(1 / 3, 2)).min_eigenvalue
    if abs(boundary) > 1e-9:
        failures.append(f"boundary eigenvalue {boundary}")
    criterion(5, "isotropic threshold at p = 1/3 with exact witness line", failures)


def _random_cptp_kraus(rng, d, n_kraus=2):
    """Stinespring-style CPTP map: Kraus slices of a random isometry."""
    g = rng.standard_normal((d * n_kraus, d)) + 1j * rng.standard_normal((d * n_kraus, d))
    q, _ = np.linalg.qr(g)
    return [q[i * d : (i + 1) * d, :] for i in range(n_kraus)]


def _random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_criterion_6_norm_sandwich_suite():
    """Bound chain plus monotonicity/contraction/PTP/block/product checks."""
    failures = []
    rng = np.random.default_rng(17_000)

    # chain on 500 random densities up to 3x3
    for i in range(500):
        dh, dj = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        op = random_density(BipartiteShape(dh, dj), rng)
        cfg = SeeSawConfig(seed=18_000 + i, restarts=3, max_iters=30)
        nb = pi_bounds(op, cfg, include_robustness=False)
        tn = trace_norm(op.matrix)
        chain = (
            tn <= nb.pi_lower + 1e-9
            and nb.pi_lower <= nb.pi_upper + 1e-8
            and nb.pi_upper <= nb.h_upper + 1e-8
            and nb.h_upper <= 2.0 * nb.pi_upper + 1e-8
            and nb.pi_upper <= min(dh, dj) + 1e-8
        )
        if not chain:
            failures.append(
                f"chain {i}: tn={tn} pi=[{nb.pi_lower},{nb.pi_upper}] h_up={nb.h_upper}"
            )

    # projection monotonicity
    for i in range(40):
        op = random_density(BipartiteShape(3, 3), rng)
        cfg = SeeSawConfig(seed=19_000 + i, restarts=3, max_iters=30)
        up = pi_bounds(op, cfg, include_robustness=False).pi_upper
        rh = int(rng.integers(1, 4))
        rj = int(rng.integers(1, 4))
        qh, _ = np.linalg.qr(rng.standard_normal((3, rh)) + 1j * rng.standard_normal((3, rh)))
        qj, _ = np.linalg.qr(rng.standard_normal((3, rj)) + 1j * rng.standard_normal((3, rj)))
        proj = kron(qh @ qh.conj().T, qj @ qj.conj().T).matrix
        comp = BipartiteOperator(op.shape, proj @ op.matrix @ proj)
        low = pi_bounds(comp, cfg, include_robustness=False).pi_lower
        if low > up + 1e-7:
            failures.append(f"projection {i}: {low} > {up}")

    # local contractions
    for i in range(40):
        op = random_density(BipartiteShape(2, 3), rng)
        cfg = SeeSawConfig(seed=20_000 + i, restarts=3, max_iters=30)
        up = pi_bounds(op, cfg, include_robustness=False).pi_upper
        mats = []
        for d in (2, 3, 2, 3):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mats.append(m / max(operator_norm(m), 1.0))
        a, b, e, f = mats
        comp = BipartiteOperator(op.shape, np.kron(a, b) @ op.matrix @ np.kron(e, f))
        low = pi_bounds(comp, cfg).pi_lower
        if low > up + 1e-7:
            failures.append(f"contraction {i}: {low} > {up}")

    # PTP (CPTP) monotonicity
    for i in range(30):
        op = random_density(BipartiteShape(2, 2), rng)
        cfg = SeeSawConfig(seed=21_000 + i, restarts=3, max_iters=30)
        up = pi_bounds(op, cfg, include_robustness=False).pi_upper
        kraus_h = _random_cptp_kraus(rng, 2)
        kraus_j = _random_cptp_kraus(rng, 2)
        out = np.zeros((4, 4), dtype=complex)
        for ah in kraus_h:
            for bj in kraus_j:
                k = np.kron(ah, bj)
                out += k @ op.matrix @ k.conj().T
        low = pi_bounds(BipartiteOperator(op.shape, out), cfg, include_robustness=False).pi_lower
        if low > up + 1e-7:
            failures.append(f"ptp {i}: {low} > {up}")

    # block bounds: diagonal local blocks inside a 4x4 shape
    for i in range(20):
        cfg = SeeSawConfig(seed=22_000 + i, restarts=3, max_iters=30)
        small = [random_density(BipartiteShape(2, 2), rng) for _ in range(2)]
        weights = rng.dirichlet(np.ones(2))
        big = np.zeros((16, 16), dtype=complex)
        for l, (w, blk) in enumerate(zip(weights, small)):
            emb_h = np.zeros((4, 2))
            emb_h[2 * l : 2 * l + 2, :] = np.eye(2)
            emb_j = np.zeros((4, 2))
            emb_j[2 * l : 2 * l + 2, :] = np.eye(2)
            iso = np.kron(emb_h, emb_j)
            big += w * (iso @ blk.matrix @ iso.T)
        big_op = BipartiteOperator(BipartiteShape(4, 4), big)
        nb_big = pi_bounds(big_op, cfg, include_robustness=False)
        lows, ups = [], []
        for w, blk in zip(weights, small):
            scaled = BipartiteOperator(blk.shape, w * blk.matrix)
            nb_small = pi_bounds(scaled, cfg, include_robustness=False)
            lows.append(nb_small.pi_lower)
            ups.append(nb_small.pi_upper)
        n1n2 = 4  # two local blocks on each side
        if sum(lows) / n1n2 > nb_big.pi_upper + 1e-7:
            failures.append(f"block avg {i}")
        if nb_big.pi_lower > sum(ups) + 1e-7:
            failures.append(f"block sum {i}")

    # submultiplicativity through the bounds
    for i in range(30):
        cfg = SeeSawConfig(seed=23_000 + i, restarts=3, max_iters=30)
        dh, dj = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        shape = BipartiteShape(dh, dj)
        n = shape.total
        m1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c1 = BipartiteOperator(shape, (m1 + m1.conj().T) / 2)
        c2 = BipartiteOperator(shape, (m2 + m2.conj().T) / 2)
        up1 = pi_bounds(c1, cfg, include_robustness=False).pi_upper
        up2 = pi_bounds(c2, cfg, include_robustness=False).pi_upper
        prod = BipartiteOperator(shape, c1.matrix @ c2.matrix)
        low = pi_bounds(prod, cfg).pi_lower
        if low > up1 * up2 + 1e-7:
            failures.append(f"submult {i}: {low} > {up1 * up2}")

    # local-unitary transport of certificates
    for i in range(20):
        op = random_density(BipartiteShape(2, 3), rng)
        cfg = SeeSawConfig(seed=24_000 + i, restarts=3, max_iters=30)
        wv, c = lower_bound_witness(op, cfg)
        u = _random_unitary(rng, 2)
        v = _random_unitary(rng, 3)
        uv = np.kron(u, v)
        moved_op = BipartiteOperator(op.shape, uv @ op.matrix @ uv.conj().T)
        moved_c = BipartiteVector(op.shape, uv @ c.entries)
        if abs(witness_value(moved_op, moved_c) - wv) > 1e-8 * max(wv, 1.0):
            failures.append(f"transport {i}")
    criterion(6, "norm sandwich and monotonicity property suite", failures)


def grid_affine_oracle_bell():
    """Brute-force two-term affine decomposition over gridded product bases.

    Minimizes the total absolute weight of a signed product-state
    combination reconstructing the Bell projector, over a fixed Bloch-grid
    dictionary (independent of the library's adaptive atoms).
    """
    thetas = np.linspace(0.0, np.pi, 9)
    phis = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    qubits = []
    for t in thetas:
        for f in phis:
            qubits.append(np.array([np.cos(t / 2), np.exp(1j * f) * np.sin(t / 2)]))
    cols = []
    for a in qubits:
        pa = np.outer(a, a.conj())
        for b in qubits:
            pb = np.outer(b, b.conj())
            flat = np.kron(pa, pb).reshape(-1)
            cols.append(np.concatenate([flat.real, flat.imag]))
    a_mat = np.array(cols).T
    target = max_entangled(2).matrix.reshape(-1)
    d = np.concatenate([target.real, target.imag])
    k = a_mat.shape[1]
    res = linprog(
        c=np.ones(2 * k),
        A_eq=np.hstack([a_mat, -a_mat]),
        b_eq=d,
        bounds=(0, None),
        method="highs",
    )
    assert res.success
    return float(res.fun)


def test_criterion_7_hermitian_norm_of_bell():
    """Constructive weight 3 with an independent affine-decomposition oracle."""
    failures = []
    bell = max_entangled(2)
    val, dec = hermitian_upper(bell)
    if abs(val - 3.0) > 1e-9:
        failures.append(f"hermitian_upper {val}")
    if not validate_decomposition(bell, dec).valid:
        failures.append("hermitian_upper certificate invalid")
    oracle = grid_affine_oracle_bell()
    if not 3.0 - 1e-9 <= oracle <= 3.0 + 0.05:
        failures.append(f"grid oracle {oracle}")
    cfg = SeeSawConfig(seed=25_000, restarts=6, max_iters=60)
    rb = robustness_upper(bell, cfg)
    if not rb.success:
        failures.append("robustness search failed")
    else:
        if rb.value > 3.0 + 0.05:
            failures.append(f"robustness {rb.value} above 3.05")
        if rb.value < 2.0 - 1e-9:
            failures.append(f"robustness {rb.value} below pi lower bound 2")
        if not validate_decomposition(bell, rb.decomposition).valid:
            failures.append("robustness certificate invalid")
    criterion(7, "Hermitian norm of the Bell state equals 3", failures)


def test_criterion_8_divergence_reproduction():
    """Paper-preset truncations: exact bound values and dense agreement."""
    failures = []
    lemosd_expected = {1: 2.0, 2: 3.0, 3: 14.0 / 3.0}
    witness_expected = {1: 2.0, 2: 4.0, 3: 8.0}
    values = []
    for n in (1, 2, 3):
        b = divergent_lower_bound(PAPER_PRESET, n)
        values.append(b.lemosd_bound)
        if abs(b.lemosd_bound - (2 ** (n + 1) - 2) / n) > 1e-12:
            failures.append(f"N={n} lemosd {b.lemosd_bound}")
        if abs(b.lemosd_bound - lemosd_expected[n]) > 1e-12:
            failures.append(f"N={n} lemosd {b.lemosd_bound}")
        if abs(b.witness_bound - witness_expected[n]) > 1e-12:
            failures.append(f"N={n} witness {b.witness_bound}")
        if abs(b.certificate_value - b.witness_bound) > 1e-12:
            failures.append(f"N={n} certificate re-evaluation {b.certificate_value}")
    if not (values[0] < values[1] < values[2]):
        failures.append("lemosd bounds not monotone")
    for n in (1, 2):
        op = PAPER_PRESET.dense_operator(n)
        b = divergent_lower_bound(PAPER_PRESET, n)
        dense_val = witness_value(op, b.certificate)
        if abs(dense_val - b.certificate_value) > 1e-9:
            failures.append(f"N={n} dense witness {dense_val} vs {b.certificate_value}")
        if n == 2 and op.shape.total != 320:
            failures.append(f"N=2 total dimension {op.shape.total}")
        cfg = SeeSawConfig(seed=26_000 + n, restarts=4, max_iters=40)
        nb = pi_bounds(op, cfg, include_robustness=False)
        if nb.pi_lower < b.witness_bound - 1e-9:
            failures.append(f"N={n} dense pi lower {nb.pi_lower} below blockwise")
    criterion(8, "divergence lower bounds (2^(N+1)-2)/N and 2^N reproduced", failures)


def test_criterion_9_mixing_bound():
    """Mixtures with the maximally mixed state keep the witness line exactly."""
    failures = []
    v = max_entangled_vector(2)
    eye4 = BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex) / 4)
    for p in (0.25, 0.5, 1.0):
        got = mixing_lower_bound(p, v, eye4, 2)
        if got < 2.0 * p - 1e-9:
            failures.append(f"p={p}: bound {got} below 2p")
        expected = 1.5 * p + 0.5
        if abs(got - expected) > 1e-12:
            failures.append(f"p={p}: bound {got} vs witness value {expected}")
        # cross-check against the dense mixture evaluated by the witness family
        mix = BipartiteOperator(
            BipartiteShape(2, 2), p * v.projector().matrix + (1 - p) * eye4.matrix
        )
        cfg = SeeSawConfig(seed=27_000, restarts=6, max_iters=60)
        wv, _ = lower_bound_witness(mix, cfg)
        if wv < got - 1e-9:
            failures.append(f"p={p}: see-saw {wv} below fixed certificate {got}")
    criterion(9, "mixing lower bound p(sum a_l)^2 with exact N=2 line", failures)


def test_criterion_10_witness_contract():
    """Witnesses certify injective norm one and exceed one in operator norm."""
    failures = []
    cfg = SeeSawConfig(seed=28_000, restarts=8, max_iters=80)

    emitted = []
    rng = np.random.default_rng(28_001)
    for i in range(20):
        v = random_pure(BipartiteShape(3, 3), rng)
        s = schmidt_decompose(v).rank
        emitted.append((build_witness_EN(v, s), v.projector()))
    for k in range(7, 21):
        op = isotropic(0.05 * k, 2)
        cls = classify(op, SeeSawConfig(seed=29_000 + k, restarts=6, max_iters=60))
        if cls.verdict == "Entangled":
            emitted.append((cls.certificate, op))

    for wit, state in emitted:
        rep = witness_check(wit, state)
        if rep.g_norm_certified_upper > 1.0 + 1e-12:
            failures.append("certified bound above one")
        if rep.expectation is not None and rep.expectation > 1.0 + 1e-9:
            if rep.operator_norm <= 1.0 + 1e-9:
                failures.append("detecting witness without operator-norm excess")

    e2 = build_witness_EN(max_entangled_vector(2), 2)
    if abs(e2.g_norm_certified_upper - 1.0) > 1e-12:
        failures.append("E2 certified bound")
    est = g_norm_seesaw(e2.operator, cfg)
    if est.lower_bound < 1.0 - 1e-8:
        failures.append(f"E2 see-saw lower {est.lower_bound}")
    if abs(operator_norm(e2.operator.matrix) - 2.0) > 1e-10:
        failures.append("E2 operator norm")
    rep = witness_check(e2, max_entangled(2), cfg)
    if not (rep.w1 and rep.w2):
        failures.append("E2 conditions")
    criterion(10, "witness contract: certified G-norm one, operator norm above one", failures)
