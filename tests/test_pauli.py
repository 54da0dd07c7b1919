import numpy as np
import pytest

from lorenz_vqls import (
    LorenzParams,
    PauliSum,
    PauliTerm,
    State3,
    build_nonlinear_system,
    build_rhs,
    cost_hamiltonian,
    decompose,
    reconstruct,
)
from lorenz_vqls.errors import NotPowerOfTwo


def terms_as_dict(s: PauliSum) -> dict:
    return {t.label: t.coeff for t in s.terms}


def test_decompose_identity():
    s = decompose(np.eye(2))
    assert terms_as_dict(s) == {"I": pytest.approx(1.0)}


def test_decompose_zz():
    s = decompose(np.diag([1.0, -1.0, -1.0, 1.0]))
    d = terms_as_dict(s)
    assert set(d) == {"ZZ"}
    assert d["ZZ"] == pytest.approx(1.0, abs=1e-14)


def test_decompose_cost_hamiltonian_real_and_round_trips():
    a = build_nonlinear_system(LorenzParams(), 0.01)
    hg = cost_hamiltonian(a, build_rhs(State3(1.0, -2.0, 4.0)))
    s = decompose(hg)
    assert all(abs(t.coeff.imag) <= 1e-12 for t in s.terms)
    assert np.max(np.abs(reconstruct(s) - hg)) <= 1e-12


def test_decompose_rejects_bad_dimensions():
    with pytest.raises(NotPowerOfTwo):
        decompose(np.eye(3))
    with pytest.raises(NotPowerOfTwo):
        decompose(np.eye(6))
    for dim in (1, 128):  # 0 and 7 qubits
        with pytest.raises(ValueError, match="1 to 6 qubits"):
            decompose(np.eye(dim))


def test_reconstruct_identity():
    s = PauliSum((PauliTerm("I", 1.0),), 1)
    assert np.allclose(reconstruct(s), np.eye(2), atol=1e-15)


def test_reconstruct_xz_mix():
    s = PauliSum((PauliTerm("X", 0.5), PauliTerm("Z", 0.5)), 1)
    assert np.allclose(reconstruct(s), [[0.5, 0.5], [0.5, -0.5]], atol=1e-15)


def test_round_trip_random_symmetric():
    rng = np.random.default_rng(123)
    m = rng.normal(size=(8, 8))
    m = m + m.T
    s = decompose(m)
    assert np.max(np.abs(reconstruct(s) - m)) <= 1e-12


def test_decompose_of_reconstruct_is_identity_on_sums():
    s = PauliSum(
        (PauliTerm("XY", 0.25), PauliTerm("ZI", -1.5), PauliTerm("YY", 2.0 + 1.0j)),
        2,
    )
    back = decompose(reconstruct(s))
    original = terms_as_dict(s)
    recovered = terms_as_dict(back)
    assert set(recovered) == set(original)
    for label, coeff in original.items():
        assert recovered[label] == pytest.approx(coeff, abs=1e-13)


def test_parseval_norm_identity():
    rng = np.random.default_rng(77)
    for n in (1, 2, 3):
        dim = 2**n
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        s = decompose(m)
        lhs = sum(abs(t.coeff) ** 2 for t in s.terms) * dim
        rhs = np.linalg.norm(m, "fro") ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_sum_apply_matches_per_term_loop():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(8, 8))
    m = m + m.T
    s = decompose(m)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.max(np.abs(s.apply(v) - m @ v)) <= 1e-11


def test_sum_construction_sorts_drops_and_rejects():
    s = PauliSum((PauliTerm("ZZ", 1.0), PauliTerm("IX", 2.0), PauliTerm("XY", 1e-15)), 2)
    assert [t.label for t in s.terms] == ["IX", "ZZ"]
    with pytest.raises(ValueError):
        PauliSum((PauliTerm("II", 1.0), PauliTerm("II", 2.0)), 2)
    with pytest.raises(ValueError):
        PauliSum((PauliTerm("AB", 1.0),), 2)
    with pytest.raises(ValueError):
        PauliSum((PauliTerm("X", 1.0),), 2)


def test_dump_format():
    assert decompose(np.eye(2)).dump() == "I 1 0\n"
    s = PauliSum((PauliTerm("ZI", -0.5), PauliTerm("IZ", 0.25)), 2)
    assert s.dump() == "IZ 0.25 0\nZI -0.5 0\n"
