"""Constant-coefficient operator symbols: expression trees mapping a wavevector
to a complex matrix.

A symbol is built from matrix units, the first-order factors ``i*xi_i`` and
their reciprocals, sums, products and real scalings, plus a few ready-made
operators (implicit Laplacian, negative Laplacian, gradient, divergence,
Leray projector).  Every expression satisfies the reflection identity
``M(-xi) == conj(M(xi))``, so applying it modewise to the spectrum of a real
field yields a real field again.

Evaluation is vectorised: ``eval_many`` takes an (M, d) array of wavevectors
and returns an (M, n, m) array of matrices.  Scalar symbols have shape (1, 1)
and broadcast across components when applied to multi-component fields.
Axes are 1-based in constructors, matching the usual operator notation.
"""

from __future__ import annotations

import numpy as np

from .errors import ArityError, SingularModeError, SymbolParseError


class SingularModePolicy:
    """What to do at modes where a symbol has a vanishing denominator.

    ZERO   evaluate to the zero matrix there,
    SKIP   leave those modes untouched by the operator (square symbols only),
    ERROR  raise SingularModeError naming the first offending mode.
    """

    ZERO = "zero"
    SKIP = "skip"
    ERROR = "error"


class SymbolExpr:
    """Base class for symbol expression nodes.

    Subclasses set ``shape`` (rows, cols) and implement ``_eval`` and
    ``_singular``.  ``_eval`` must return finite values even at singular
    modes (the garbage there is overwritten according to the policy).
    """

    shape: tuple[int, int]

    def _eval(self, K: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _singular(self, K: np.ndarray) -> np.ndarray:
        return np.zeros(K.shape[0], dtype=bool)

    def children(self) -> tuple["SymbolExpr", ...]:
        return ()

    def min_dim(self) -> int:
        """Smallest spatial dimension this expression can be evaluated in."""
        return max((c.min_dim() for c in self.children()), default=1)

    @property
    def is_scalar(self) -> bool:
        return self.shape == (1, 1)

    # Operator sugar: a + b, a * b, 2.0 * a, a - b.
    def __add__(self, other):
        return Sum(self, _coerce(other))

    def __radd__(self, other):
        return Sum(_coerce(other), self)

    def __sub__(self, other):
        return Sum(self, Scale(-1.0, _coerce(other)))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Scale(float(other), self)
        return Product(self, _coerce(other))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Scale(float(other), self)
        return Product(_coerce(other), self)


def _coerce(value) -> SymbolExpr:
    if isinstance(value, SymbolExpr):
        return value
    if isinstance(value, (int, float)):
        return Const(np.array([[float(value)]]))
    raise ArityError(f"cannot use {value!r} as a symbol")


class Const(SymbolExpr):
    """A constant real matrix."""

    def __init__(self, matrix):
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        if m.ndim != 2:
            raise ArityError("constant symbol must be a matrix")
        self.matrix = m
        self.shape = m.shape

    def _eval(self, K):
        return np.broadcast_to(
            self.matrix.astype(complex), (K.shape[0],) + self.shape
        ).copy()

    def __repr__(self):
        return f"Const({self.matrix.tolist()})"


def Identity(n: int = 1) -> Const:
    return Const(np.eye(n))


class Xi(SymbolExpr):
    """The scalar factor i*xi_axis (axis is 1-based)."""

    shape = (1, 1)

    def __init__(self, axis: int):
        if axis < 1:
            raise ArityError("axis indices are 1-based")
        self.axis = axis

    def _eval(self, K):
        return (1j * K[:, self.axis - 1]).reshape(-1, 1, 1)

    def min_dim(self):
        return self.axis

    def __repr__(self):
        return f"Xi({self.axis})"


class XiInv(SymbolExpr):
    """The scalar factor (i*xi_axis)^(-1); singular where xi_axis = 0."""

    shape = (1, 1)

    def __init__(self, axis: int):
        if axis < 1:
            raise ArityError("axis indices are 1-based")
        self.axis = axis

    def _eval(self, K):
        k = K[:, self.axis - 1]
        safe = np.where(k == 0, 1.0, k)
        return (1.0 / (1j * safe)).reshape(-1, 1, 1)

    def _singular(self, K):
        return K[:, self.axis - 1] == 0

    def min_dim(self):
        return self.axis

    def __repr__(self):
        return f"XiInv({self.axis})"


class Delta(SymbolExpr):
    """Matrix unit: 1 at row i, column j (1-based), zero elsewhere."""

    def __init__(self, i: int, j: int, n: int):
        if not (1 <= i <= n and 1 <= j <= n):
            raise ArityError(f"matrix unit ({i},{j}) out of range for size {n}")
        self.i, self.j, self.n = i, j, n
        self.shape = (n, n)

    def _eval(self, K):
        out = np.zeros((K.shape[0], self.n, self.n), dtype=complex)
        out[:, self.i - 1, self.j - 1] = 1.0
        return out

    def __repr__(self):
        return f"Delta({self.i},{self.j},{self.n})"


class Sum(SymbolExpr):
    def __init__(self, a: SymbolExpr, b: SymbolExpr):
        if a.shape != b.shape:
            raise ArityError(f"cannot add shapes {a.shape} and {b.shape}")
        self.a, self.b = a, b
        self.shape = a.shape

    def _eval(self, K):
        return self.a._eval(K) + self.b._eval(K)

    def _singular(self, K):
        return self.a._singular(K) | self.b._singular(K)

    def children(self):
        return (self.a, self.b)

    def __repr__(self):
        return f"({self.a!r} + {self.b!r})"


class Product(SymbolExpr):
    """Matrix product; a scalar factor broadcasts over the other operand."""

    def __init__(self, a: SymbolExpr, b: SymbolExpr):
        self.a, self.b = a, b
        if a.is_scalar:
            self.shape = b.shape
        elif b.is_scalar:
            self.shape = a.shape
        elif a.shape[1] == b.shape[0]:
            self.shape = (a.shape[0], b.shape[1])
        else:
            raise ArityError(f"cannot multiply shapes {a.shape} and {b.shape}")

    def _eval(self, K):
        va, vb = self.a._eval(K), self.b._eval(K)
        if self.a.is_scalar:
            return va * vb
        if self.b.is_scalar:
            return va * vb
        return va @ vb

    def _singular(self, K):
        return self.a._singular(K) | self.b._singular(K)

    def children(self):
        return (self.a, self.b)

    def __repr__(self):
        return f"({self.a!r} * {self.b!r})"


class Scale(SymbolExpr):
    def __init__(self, c: float, a: SymbolExpr):
        self.c = float(c)
        self.a = a
        self.shape = a.shape

    def _eval(self, K):
        return self.c * self.a._eval(K)

    def _singular(self, K):
        return self.a._singular(K)

    def children(self):
        return (self.a,)

    def __repr__(self):
        return f"{self.c}*{self.a!r}"


class ImplicitLaplacian(SymbolExpr):
    """Scalar symbol 1 + alpha*|xi|^2 of the operator Id - alpha*Laplacian."""

    shape = (1, 1)

    def __init__(self, alpha: float):
        if not 0 <= alpha < np.inf:
            raise ArityError(f"alpha must be finite and nonnegative, got {alpha}")
        self.alpha = float(alpha)

    def _eval(self, K):
        ksq = np.sum(K * K, axis=1)
        return (1.0 + self.alpha * ksq).astype(complex).reshape(-1, 1, 1)

    def __repr__(self):
        return f"ImplicitLaplacian({self.alpha})"


class NegLaplacian(SymbolExpr):
    """Scalar symbol |xi|^2 of the negative Laplacian."""

    shape = (1, 1)

    def _eval(self, K):
        return np.sum(K * K, axis=1).astype(complex).reshape(-1, 1, 1)

    def __repr__(self):
        return "NegLaplacian()"


class Gradient(SymbolExpr):
    """Column symbol (i*xi_1, ..., i*xi_d)^T taking scalars to d-vectors."""

    def __init__(self, dim: int):
        self.dim = dim
        self.shape = (dim, 1)

    def _eval(self, K):
        return (1j * K[:, : self.dim])[:, :, None]

    def min_dim(self):
        return self.dim

    def __repr__(self):
        return f"Gradient({self.dim})"


class Divergence(SymbolExpr):
    """Row symbol (i*xi_1, ..., i*xi_d) taking d-vectors to scalars."""

    def __init__(self, dim: int):
        self.dim = dim
        self.shape = (1, dim)

    def _eval(self, K):
        return (1j * K[:, : self.dim])[:, None, :]

    def min_dim(self):
        return self.dim

    def __repr__(self):
        return f"Divergence({self.dim})"


class LerayP(SymbolExpr):
    """Projector Id - xi*xi^T/|xi|^2 onto divergence-free vectors; singular at 0."""

    def __init__(self, dim: int):
        self.dim = dim
        self.shape = (dim, dim)

    def _eval(self, K):
        k = K[:, : self.dim]
        ksq = np.sum(k * k, axis=1)
        safe = np.where(ksq == 0, 1.0, ksq)
        outer = k[:, :, None] * k[:, None, :] / safe[:, None, None]
        return (np.eye(self.dim) - outer).astype(complex)

    def _singular(self, K):
        return np.sum(K[:, : self.dim] ** 2, axis=1) == 0

    def min_dim(self):
        return self.dim

    def __repr__(self):
        return f"LerayP({self.dim})"


# ---------------------------------------------------------------------------
# Evaluation entry points
# ---------------------------------------------------------------------------


def eval_many(
    expr: SymbolExpr,
    K: np.ndarray,
    policy: str = SingularModePolicy.ZERO,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``expr`` at every row of K (shape (M, d)).

    Returns ``(values, skipped)`` where values has shape (M, n, m) and
    ``skipped`` marks modes left for the caller to handle (nonempty only
    under the SKIP policy).  Under ZERO, singular modes hold zero matrices;
    under ERROR a SingularModeError is raised.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape[1] < expr.min_dim():
        raise ArityError(
            f"symbol references axis {expr.min_dim()} but wavevectors have "
            f"dimension {K.shape[1]}"
        )
    values = expr._eval(K)
    mask = expr._singular(K)
    if not mask.any():
        return values, mask
    if policy == SingularModePolicy.ZERO:
        values[mask] = 0.0
        return values, np.zeros_like(mask)
    if policy == SingularModePolicy.SKIP:
        values[mask] = 0.0
        return values, mask
    if policy == SingularModePolicy.ERROR:
        raise SingularModeError(K[np.argmax(mask)])
    raise ValueError(f"unknown singular-mode policy {policy!r}")


def eval_symbol(
    expr: SymbolExpr,
    k,
    policy: str = SingularModePolicy.ZERO,
) -> np.ndarray:
    """Evaluate ``expr`` at a single wavevector, returning an (n, m) matrix.

    Under SKIP the identity is returned at a singular mode (square symbols
    only), so that the operator leaves the mode untouched.
    """
    K = np.atleast_2d(np.asarray(k, dtype=float))
    values, skipped = eval_many(expr, K, policy)
    if skipped[0]:
        n, m = expr.shape
        if n != m:
            raise ArityError(
                "SKIP policy needs a square symbol to act as the identity"
            )
        return np.eye(n, dtype=complex)
    return values[0]


def pseudo_inverse(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse (batched over leading axes)."""
    return np.linalg.pinv(np.asarray(M, dtype=complex))


def reality_check(
    expr: SymbolExpr, samples: int = 64, rng: np.random.Generator | None = None
) -> bool:
    """Sample wavevectors and verify eval(-k) == conj(eval(k)) to 1e-12."""
    rng = np.random.default_rng(0) if rng is None else rng
    d = max(expr.min_dim(), 1)
    K = rng.integers(1, 9, size=(samples, d)).astype(float)
    K *= rng.choice([-1.0, 1.0], size=K.shape)
    plus, _ = eval_many(expr, K, SingularModePolicy.ZERO)
    minus, _ = eval_many(expr, -K, SingularModePolicy.ZERO)
    scale = max(np.max(np.abs(plus)), 1.0)
    return bool(np.max(np.abs(minus - np.conj(plus))) <= 1e-12 * scale)


def is_constructible(expr: SymbolExpr, dim: int | None = None) -> bool:
    """Whether the expression lies in the algebra generated by the matrix
    units, the factors i*xi_i and their reciprocals.

    The check is structural: sums, products and real scalings of generators
    qualify.  The negative Laplacian qualifies in any dimension since it
    expands as -sum((i*xi_i)^2).  The built-ins that require dividing by
    |xi|^2 (Leray projector, implicit Laplacian) are treated as reachable
    only in dimension <= 2.  Gradient and divergence blocks are rectangular
    and report False even where a rearrangement into matrix units exists.
    """
    n, m = expr.shape
    if n != m:
        raise ArityError("constructibility is defined for square symbols")
    d = expr.min_dim() if dim is None else dim
    return _constructible(expr, d)


def _constructible(expr: SymbolExpr, d: int) -> bool:
    if isinstance(expr, (Const, Xi, XiInv, Delta)):
        return True
    if isinstance(expr, NegLaplacian):
        return True
    if isinstance(expr, (ImplicitLaplacian, LerayP)):
        return d <= 2
    if isinstance(expr, (Sum, Product, Scale)):
        return all(_constructible(c, d) for c in expr.children())
    return False


# ---------------------------------------------------------------------------
# Textual grammar for the command line
# ---------------------------------------------------------------------------

_BUILTIN_ARITY = {
    "id": 0,
    "xi": 1,
    "xiinv": 1,
    "delta": 2,
    "ilap": 1,
    "nlap": 0,
    "grad": 0,
    "div": 0,
    "leray": 0,
}


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_name(self):
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def take_number(self):
        start = self.pos
        seen_e = False
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isdigit() or c == ".":
                self.pos += 1
            elif c in "eE" and not seen_e:
                seen_e = True
                self.pos += 1
                if self.pos < len(self.text) and self.text[self.pos] in "+-":
                    self.pos += 1
            else:
                break
        try:
            value = float(self.text[start : self.pos])
        except ValueError:
            raise SymbolParseError("malformed number", start) from None
        if not np.isfinite(value):
            raise SymbolParseError("non-finite number", start)
        return value

    def expect(self, char):
        if self.peek() != char:
            raise SymbolParseError(f"expected {char!r}", self.pos)
        self.pos += 1


def parse_symbol(text: str, dim: int) -> SymbolExpr:
    """Parse the tiny symbol grammar: names, real scalars, '+', '-', '*'
    and parentheses.  ``dim`` fixes the size of the dimension-dependent
    built-ins (grad, div, leray, delta)."""
    tok = _Tokenizer(text)
    expr = _parse_sum(tok, dim)
    if tok.peek() is not None:
        raise SymbolParseError("trailing input", tok.pos)
    return expr


def _parse_sum(tok, dim):
    left = _parse_term(tok, dim)
    while tok.peek() in ("+", "-"):
        op = tok.peek()
        tok.pos += 1
        right = _parse_term(tok, dim)
        left = Sum(left, Scale(-1.0, right)) if op == "-" else Sum(left, right)
    return left


def _parse_term(tok, dim):
    left = _parse_atom(tok, dim)
    while tok.peek() == "*":
        tok.pos += 1
        right = _parse_atom(tok, dim)
        left = _combine(left, right, tok.pos)
    return left


def _combine(a, b, pos):
    try:
        return Product(a, b)
    except ArityError as exc:
        raise SymbolParseError(str(exc), pos) from None


def _parse_atom(tok, dim):
    c = tok.peek()
    if c is None:
        raise SymbolParseError("unexpected end of input", tok.pos)
    if c == "(":
        tok.pos += 1
        inner = _parse_sum(tok, dim)
        tok.expect(")")
        return inner
    if c.isdigit() or c == ".":
        return Const(np.array([[tok.take_number()]]))
    if c == "-":
        tok.pos += 1
        return Scale(-1.0, _parse_atom(tok, dim))
    if c.isalpha():
        start = tok.pos
        name = tok.take_name()
        if name not in _BUILTIN_ARITY:
            raise SymbolParseError(f"unknown symbol {name!r}", start)
        args = []
        if tok.peek() == "(":
            tok.pos += 1
            while True:
                p = tok.peek()
                if p is None:
                    raise SymbolParseError("unterminated argument list", tok.pos)
                if p == ")":
                    break
                args.append(tok.take_number())
                if tok.peek() == ",":
                    tok.pos += 1
            tok.expect(")")
        if len(args) != _BUILTIN_ARITY[name]:
            raise SymbolParseError(
                f"{name} takes {_BUILTIN_ARITY[name]} argument(s)", start
            )
        return _build(name, args, dim, start)
    raise SymbolParseError(f"unexpected character {c!r}", tok.pos)


def _build(name, args, dim, pos):
    if name == "id":
        return Identity(1)
    if name == "xi":
        return Xi(int(args[0]))
    if name == "xiinv":
        return XiInv(int(args[0]))
    if name == "delta":
        return Delta(int(args[0]), int(args[1]), dim)
    if name == "ilap":
        return ImplicitLaplacian(args[0])
    if name == "nlap":
        return NegLaplacian()
    if name == "grad":
        return Gradient(dim)
    if name == "div":
        return Divergence(dim)
    if name == "leray":
        return LerayP(dim)
    raise SymbolParseError(f"unknown symbol {name!r}", pos)
