import numpy as np
import pytest

from lorenz_vqls import AnsatzConfig, PauliSum, PauliTerm, expectation, run_ansatz
from lorenz_vqls.circuit import ansatz_gradient, rotation_matrix
from lorenz_vqls.errors import DimensionMismatch, ShapeMismatch
from lorenz_vqls.pauli import pauli_matrix


# Gate-by-gate reference simulator; qubit 0 is the most significant bit.
def rz_matrix(angle):
    return np.array(
        [[np.exp(-0.5j * angle), 0.0], [0.0, np.exp(0.5j * angle)]], dtype=complex
    )


def ry_matrix(angle):
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def apply_single_qubit(state, gate, qubit):
    state = np.asarray(state, dtype=complex)
    n = state.shape[0].bit_length() - 1
    psi = np.moveaxis(state.reshape([2] * n), qubit, 0).reshape(2, -1)
    return np.moveaxis((gate @ psi).reshape([2] * n), 0, qubit).reshape(-1)


def apply_rz(state, qubit, angle):
    return apply_single_qubit(state, rz_matrix(angle), qubit)


def apply_ry(state, qubit, angle):
    return apply_single_qubit(state, ry_matrix(angle), qubit)


def apply_cnot(state, control, target):
    state = np.asarray(state, dtype=complex)
    n = state.shape[0].bit_length() - 1
    idx = np.arange(1 << n)
    bit = (idx >> (n - 1 - control)) & 1
    return state[idx ^ (bit << (n - 1 - target))]


def dense_single(gate, qubit, n):
    mats = [np.eye(2, dtype=complex)] * n
    mats[qubit] = gate
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_cnot(control, target, n):
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        bit = (j >> (n - 1 - control)) & 1
        out[j ^ (bit << (n - 1 - target)), j] = 1.0
    return out


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def test_zero_angles_fix_the_reference_state():
    cfg = AnsatzConfig(qubit_count=3, layer_count=4)
    psi = run_ansatz(cfg, np.zeros(cfg.shape))
    assert psi[0] == 1.0 + 0.0j
    assert np.all(psi[1:] == 0.0)


def test_single_qubit_pi_flip():
    cfg = AnsatzConfig(qubit_count=1, layer_count=1)
    psi = run_ansatz(cfg, np.array([[[0.0, np.pi, 0.0]]]))
    assert abs(psi[0]) <= 1e-12
    assert abs(abs(psi[1]) - 1.0) <= 1e-12


def test_random_angles_produce_unit_norm():
    rng = np.random.default_rng(0)
    cfg = AnsatzConfig(qubit_count=3, layer_count=5)
    for _ in range(10):
        psi = run_ansatz(cfg, rng.uniform(0, 2 * np.pi, cfg.shape))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_shape_mismatch():
    cfg = AnsatzConfig(qubit_count=3, layer_count=5)
    with pytest.raises(ShapeMismatch):
        run_ansatz(cfg, np.zeros((5, 2, 3)))
    with pytest.raises(ShapeMismatch):
        ansatz_gradient(cfg, np.zeros((5, 2, 3)), lambda psi: psi)


def test_non_finite_angles_rejected():
    cfg = AnsatzConfig(qubit_count=2, layer_count=1)
    theta = np.zeros(cfg.shape)
    theta[0, 1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        run_ansatz(cfg, theta)
    with pytest.raises(ValueError, match="non-finite"):
        ansatz_gradient(cfg, theta, lambda psi: psi)


def test_rotation_matrix_closed_form_and_composition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b, g = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
        composed = rz_matrix(g) @ ry_matrix(b) @ rz_matrix(a)
        c, s = np.cos(b / 2), np.sin(b / 2)
        reference = np.array(
            [
                [np.exp(-0.5j * (a + g)) * c, -np.exp(0.5j * (a - g)) * s],
                [np.exp(-0.5j * (a - g)) * s, np.exp(0.5j * (a + g)) * c],
            ]
        )
        assert np.max(np.abs(rotation_matrix(a, b, g) - composed)) <= 1e-14
        assert np.max(np.abs(rotation_matrix(a, b, g) - reference)) <= 1e-14


def test_gates_match_dense_oracle():
    rng = np.random.default_rng(2)
    n = 3
    for _ in range(5):
        psi = random_state(rng, n)
        angle = rng.uniform(-np.pi, np.pi)
        for q in range(n):
            assert np.max(np.abs(
                apply_rz(psi, q, angle) - dense_single(rz_matrix(angle), q, n) @ psi
            )) <= 1e-13
            assert np.max(np.abs(
                apply_ry(psi, q, angle) - dense_single(ry_matrix(angle), q, n) @ psi
            )) <= 1e-13
        for c in range(n):
            for t in range(n):
                if c == t:
                    continue
                assert np.max(np.abs(
                    apply_cnot(psi, c, t) - dense_cnot(c, t, n) @ psi
                )) <= 1e-13


def test_gate_applications_preserve_norm():
    rng = np.random.default_rng(8)
    psi = random_state(rng, 3)
    out = apply_ry(apply_rz(apply_cnot(psi, 0, 2), 1, 0.7), 2, -1.3)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-13


def test_run_ansatz_matches_gate_by_gate_oracle():
    # same circuit built from individual R_Z/R_Y/CNOT applications
    rng = np.random.default_rng(3)
    cfg = AnsatzConfig(qubit_count=3, layer_count=3)
    theta = rng.uniform(0, 2 * np.pi, cfg.shape)
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    for layer in theta:
        for q, (alpha, beta, gamma) in enumerate(layer):
            psi = apply_rz(psi, q, alpha)
            psi = apply_ry(psi, q, beta)
            psi = apply_rz(psi, q, gamma)
        for q in range(3):
            psi = apply_cnot(psi, q, (q + 1) % 3)
    assert np.max(np.abs(run_ansatz(cfg, theta) - psi)) <= 1e-13


def test_run_ansatz_is_deterministic():
    rng = np.random.default_rng(4)
    cfg = AnsatzConfig(qubit_count=3, layer_count=5)
    theta = rng.uniform(0, 2 * np.pi, cfg.shape)
    a = run_ansatz(cfg, theta)
    b = run_ansatz(cfg, theta)
    assert np.array_equal(a, b)


def test_expectation_basis_cases():
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    assert expectation(psi, PauliSum((PauliTerm("ZII", 1.0),), 3)) == pytest.approx(1.0)
    assert expectation(psi, PauliSum((PauliTerm("XII", 1.0),), 3)) == pytest.approx(
        0.0, abs=1e-14
    )
    rng = np.random.default_rng(5)
    any_state = random_state(rng, 3)
    assert expectation(any_state, PauliSum((PauliTerm("III", 1.0),), 3)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_expectation_matches_dense_quadratic_form():
    rng = np.random.default_rng(6)
    labels = ["IIZ", "XYI", "ZZX", "YYY", "IXI"]
    terms = tuple(PauliTerm(lab, float(rng.normal())) for lab in labels)
    h = PauliSum(terms, 3)
    dense = sum(t.coeff * pauli_matrix(t.label) for t in h.terms)
    for _ in range(5):
        psi = random_state(rng, 3)
        reference = np.vdot(psi, dense @ psi)
        assert abs(reference.imag) <= 1e-10
        assert expectation(psi, h) == pytest.approx(reference.real, abs=1e-10)


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        expectation(np.ones(4) / 2.0, PauliSum((PauliTerm("ZII", 1.0),), 3))


def test_expectation_rejects_imaginary_hermitian_value():
    # the coefficient's 1e-13 imaginary part passes as Hermitian, but on this
    # unnormalized state it leaves an imaginary part of 0.2 in the value
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[4] = 1e6
    with pytest.raises(ValueError, match="imaginary"):
        expectation(psi, PauliSum((PauliTerm("XII", 1 + 1e-13j),), 3))


def test_apply_single_qubit_respects_msb_convention():
    # qubit 0 is the most significant bit: flipping it on |000> gives |100> = e4
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    out = apply_single_qubit(psi, np.array([[0.0, 1.0], [1.0, 0.0]]), 0)
    assert out[4] == 1.0 + 0.0j


def test_ansatz_config_validation():
    with pytest.raises(ValueError):
        AnsatzConfig(qubit_count=0, layer_count=1)
    with pytest.raises(ValueError):
        AnsatzConfig(qubit_count=3, layer_count=0)
    # single qubit skips entanglement entirely
    AnsatzConfig(qubit_count=1, layer_count=1)
