"""Symbol evaluation, the generator algebra, and the textual grammar."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop.errors import ArityError, SingularModeError, SymbolParseError
from shannop.symbols import SingularModePolicy, eval_many, eval_symbol


class TestEvaluation:
    def test_implicit_laplacian_value(self):
        m = eval_symbol(sp.ImplicitLaplacian(1.0), (1, 1))
        assert m.shape == (1, 1) and abs(m[0, 0] - 3.0) < 1e-15

    def test_leray_at_axis_mode(self):
        m = eval_symbol(sp.LerayP(2), (1, 0))
        assert np.allclose(m, [[0, 0], [0, 1]], atol=1e-15)

    def test_xi_at_zero(self):
        m = eval_symbol(sp.Xi(1), (0, 5))
        assert m[0, 0] == 0

    def test_gradient_divergence_shapes(self):
        g = eval_symbol(sp.Gradient(3), (1, 2, 3))
        assert g.shape == (3, 1)
        assert np.allclose(g[:, 0], [1j, 2j, 3j])
        d = eval_symbol(sp.Divergence(2), (2, -1))
        assert d.shape == (1, 2) and np.allclose(d[0], [2j, -1j])

    def test_homomorphism(self):
        rng = np.random.default_rng(0)
        K = rng.integers(-7, 8, size=(32, 2)).astype(float)
        a = sp.Sum(sp.ImplicitLaplacian(0.5), sp.Scale(2.0, sp.NegLaplacian()))
        b = sp.Product(sp.Xi(1), sp.Xi(2))
        va, _ = eval_many(a, K)
        vb, _ = eval_many(b, K)
        vsum, _ = eval_many(sp.Sum(a, b), K)
        vprod, _ = eval_many(sp.Product(a, b), K)
        assert np.max(np.abs(vsum - (va + vb))) < 1e-13 * max(1, np.max(np.abs(va)))
        assert np.max(np.abs(vprod - va * vb)) < 1e-13 * np.max(np.abs(vprod))

    def test_xi_xiinv_cancel(self):
        expr = sp.Product(sp.Xi(1), sp.XiInv(1))
        for k in [(1,), (-3,), (7,)]:
            assert abs(eval_symbol(expr, k)[0, 0] - 1.0) < 1e-15

    def test_leray_idempotent_and_divfree(self):
        rng = np.random.default_rng(1)
        K = rng.integers(1, 9, size=(50, 3)).astype(float)
        K *= rng.choice([-1.0, 1.0], size=K.shape)
        P, _ = eval_many(sp.LerayP(3), K)
        assert np.max(np.abs(P @ P - P)) < 1e-12
        row = np.einsum("ki,kij->kj", K, P)
        assert np.max(np.abs(row)) < 1e-12

    def test_matrix_product_arity(self):
        with pytest.raises(ArityError):
            sp.Product(sp.Gradient(2), sp.Gradient(2))
        lap = sp.Product(sp.Divergence(2), sp.Gradient(2))
        val = eval_symbol(lap, (2, 1))
        assert abs(val[0, 0] + 5.0) < 1e-14  # div grad = -|k|^2


class TestSingularPolicies:
    def test_zero_policy(self):
        m = eval_symbol(sp.XiInv(1), (0, 1), SingularModePolicy.ZERO)
        assert np.all(m == 0)

    def test_skip_policy_identity(self):
        m = eval_symbol(sp.LerayP(2), (0, 0), SingularModePolicy.SKIP)
        assert np.allclose(m, np.eye(2))

    def test_skip_policy_rectangular_rejected(self):
        expr = sp.Product(sp.Gradient(2), sp.XiInv(1))
        with pytest.raises(ArityError):
            eval_symbol(expr, (0, 1), SingularModePolicy.SKIP)

    def test_error_policy(self):
        with pytest.raises(SingularModeError) as err:
            eval_symbol(sp.XiInv(2), (3, 0), SingularModePolicy.ERROR)
        assert err.value.mode == (3, 0)

    def test_nonsingular_mode_unaffected(self):
        m = eval_symbol(sp.XiInv(1), (2, 0), SingularModePolicy.ERROR)
        assert abs(m[0, 0] - 1 / 2j) < 1e-15


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(sp.pseudo_inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        got = sp.pseudo_inverse(np.diag([2.0, 0.0]))
        assert np.allclose(got, np.diag([0.5, 0.0]), atol=1e-15)

    def test_full_rank_inverse(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.max(np.abs(sp.pseudo_inverse(M) @ M - np.eye(3))) < 1e-10

    def test_penrose_identity(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((2, 4))
        P = sp.pseudo_inverse(M)
        assert np.max(np.abs(M @ P @ M - M)) < 1e-12


class TestReality:
    @pytest.mark.parametrize(
        "expr",
        [
            sp.LerayP(2),
            sp.Xi(1),
            sp.Const([[1.0, -2.0], [0.5, 3.0]]),
            sp.Product(sp.Xi(1), sp.XiInv(2)),
            sp.ImplicitLaplacian(2.0),
            sp.Gradient(3),
        ],
    )
    def test_generators_pass(self, expr):
        assert sp.reality_check(expr)


class TestConstructible:
    def test_generator_product(self):
        assert sp.is_constructible(sp.Product(sp.Xi(1), sp.XiInv(1)))

    def test_leray_by_dimension(self):
        assert not sp.is_constructible(sp.LerayP(3))
        assert sp.is_constructible(sp.LerayP(2))

    def test_neg_laplacian_any_dim(self):
        assert sp.is_constructible(sp.NegLaplacian(), dim=3)

    def test_implicit_laplacian_by_dimension(self):
        assert sp.is_constructible(sp.ImplicitLaplacian(1.0), dim=2)
        assert not sp.is_constructible(sp.ImplicitLaplacian(1.0), dim=3)

    def test_non_square_rejected(self):
        with pytest.raises(ArityError):
            sp.is_constructible(sp.Gradient(2))


class TestParser:
    def test_scalar_expression(self):
        expr = sp.parse_symbol("2*nlap + id", dim=2)
        val = eval_symbol(expr, (1, 2))
        assert abs(val[0, 0] - 11.0) < 1e-14

    def test_precedence_and_parens(self):
        expr = sp.parse_symbol("(id + nlap) * xi(1)", dim=1)
        val = eval_symbol(expr, (3,))
        assert abs(val[0, 0] - (1 + 9) * 3j) < 1e-13

    def test_builtins(self):
        assert sp.parse_symbol("leray", dim=3).shape == (3, 3)
        assert sp.parse_symbol("grad", dim=2).shape == (2, 1)
        assert sp.parse_symbol("div", dim=2).shape == (1, 2)
        assert sp.parse_symbol("delta(1,2)", dim=2).shape == (2, 2)
        ilap = sp.parse_symbol("ilap(1e6)", dim=2)
        assert isinstance(ilap, sp.ImplicitLaplacian) and ilap.alpha == 1e6

    def test_minus(self):
        expr = sp.parse_symbol("id - 2*id", dim=1)
        assert abs(eval_symbol(expr, (0,))[0, 0] + 1.0) < 1e-15

    def test_errors_carry_position(self):
        with pytest.raises(SymbolParseError) as err:
            sp.parse_symbol("nlap + bogus", dim=1)
        assert err.value.position == 7
        with pytest.raises(SymbolParseError):
            sp.parse_symbol("xi(1", dim=1)
        with pytest.raises(SymbolParseError):
            sp.parse_symbol("grad * grad", dim=2)

    def test_non_finite_literal_rejected_at_its_position(self):
        for text, position in (("1e999", 0), ("nlap + 2e400", 7),
                               ("ilap(1e999)", 5)):
            with pytest.raises(SymbolParseError, match="non-finite") as err:
                sp.parse_symbol(text, dim=2)
            assert err.value.position == position


def grammar_strings(dim):
    """Random well-shaped grammar strings for ``dim``, drawn as (text, shape)
    pairs built up from every built-in by '+', '-', '*' and unary minus."""
    axes = st.integers(1, dim)
    numbers = st.floats(0.0, 1e3).map(repr)
    s, v = (1, 1), (dim, dim)
    atoms = st.one_of(
        st.just(("id", s)), st.just(("nlap", s)), numbers.map(lambda x: (x, s)),
        axes.map(lambda a: (f"xi({a})", s)),
        axes.map(lambda a: (f"xiinv({a})", s)),
        numbers.map(lambda x: (f"ilap({x})", s)),
        st.tuples(axes, axes).map(lambda ij: (f"delta({ij[0]},{ij[1]})", v)),
        st.just(("grad", (dim, 1))), st.just(("div", (1, dim))),
        st.just(("leray", v)),
    )

    def combine(args):
        (a, sa), (b, sb), op = args
        if op == "neg":
            return f"-({a})", sa
        if op in "+-":
            return (f"({a} {op} {b})", sa) if sa == sb else None
        if sa == s or sb == s:
            return f"{a} * {b}", sb if sa == s else sa
        return (f"{a} * {b}", (sa[0], sb[1])) if sa[1] == sb[0] else None

    return st.recursive(
        atoms,
        lambda kids: st.tuples(
            kids, kids, st.sampled_from(["+", "-", "*", "neg"])
        ).map(combine).filter(lambda x: x is not None),
        max_leaves=8,
    ).map(lambda pair: pair[0])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_reflection_identity_of_parsed_symbols(data, dim, seed):
    """M(-xi) == conj(M(xi)) at grid wavevectors, singular modes included
    (zero on both sides); the half-spectrum solvers rest on it."""
    text = data.draw(grammar_strings(dim))
    expr = sp.parse_symbol(text, dim)
    K = np.random.default_rng(seed).integers(-16, 16, (64, dim)).astype(float)
    plus, _ = eval_many(expr, K, SingularModePolicy.ZERO)
    minus, _ = eval_many(expr, -K, SingularModePolicy.ZERO)
    assert np.array_equal(minus, np.conj(plus)), text
