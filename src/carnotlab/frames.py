"""Canonical horizontal frames and their invariance and bracket structure.

Two frames are provided.

Left frame (any step n):

    X_1 = d/dx_1,
    X_j = sum_{k=j}^{n+1} x_1^(k-j)/(k-j)! d/dx_k,   j = 2, ..., n+1.

Each X_j is invariant under left translations z -> alpha o z, and the only
nonzero brackets are [X_1, X_j] = X_{j+1} for 2 <= j <= n.  The coefficients
x_1^t/t!, their x_1-derivatives and the matching translation Jacobians are
all read off FiliformGroup.taylor_powers.

Right frame (step 3 only):

    X_1 = d/dx_1 - x_2 d/dx_3 - x_3 d/dx_4,
    X_2 = d/dx_2,   X_3 = d/dx_3,   X_4 = d/dx_4.

Of their brackets with the left-frame fields X_j^L only two are nonzero:
[X_1, X_2^L] = 2 X_3^L and [X_1, X_3^L] = 2 X_4^L.  The fields are
invariant under the adapted right translation z -> reflected_compose(z, alpha)
(the right translation of the presentation with the first coordinate
negated; see FiliformGroup.reflected_compose).  `check_invariance` applies
the matching translation for each label.  The bracket pattern is again
[X_1, X_j] = X_{j+1}.

In both frames the first two fields span the horizontal distribution; their
iterated brackets restore the full tangent space at every point.

Each frame quantity has one implementation over a tuple of fields:
`_field_tables` (coefficients, and Jacobians in closed form or by central
differences), `_residuals` (invariance, for one (alpha, x) pair or a batch
of pairs) and `_brackets` (every field pair).  The per-field and per-pair
functions run them on a tuple of one or two fields, the frame-level ones on
`frame.fields`.  Left-frame fields read one Taylor table per batch of points,
and the finite-difference Jacobians come from one batch of 2d shifted points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import FiliformGroup, _as_batch, _restore

LEFT_LABEL = "left-canonical"
RIGHT_LABEL = "right-canonical"


@dataclass(frozen=True)
class VectorField:
    """One frame field, identified by its frame label and 1-based index."""

    group: FiliformGroup
    label: str
    index: int

    def __post_init__(self) -> None:
        if self.label not in (LEFT_LABEL, RIGHT_LABEL):
            raise ValueError(f"unknown frame label {self.label!r}")
        if self.label == RIGHT_LABEL and self.group.step != 3:
            raise ValueError("the right-canonical frame is only defined for step 3")
        if not 1 <= self.index <= self.group.dimension:
            raise ValueError(f"field index out of range: {self.index}")

    def _coefficient_rows(self, xb: np.ndarray, pw: np.ndarray | None) -> np.ndarray:
        d = self.group.dimension
        out = np.zeros((xb.shape[0], d))
        j = self.index
        if j == 1:
            out[:, 0] = 1.0
            if self.label == RIGHT_LABEL:
                out[:, 2] = -xb[:, 1]
                out[:, 3] = -xb[:, 2]
        elif self.label == LEFT_LABEL:
            out[:, j - 1:] = pw[: d - j + 1].T
        else:
            out[:, j - 1] = 1.0
        return out

    def _jacobian_rows(self, xb: np.ndarray, pw: np.ndarray | None) -> np.ndarray:
        d = self.group.dimension
        jac = np.zeros((xb.shape[0], d, d))
        j = self.index
        if self.label == LEFT_LABEL:
            if j >= 2:
                jac[:, j:, 0] = pw[: d - j].T
        elif j == 1:
            jac[:, 2, 1] = -1.0
            jac[:, 3, 2] = -1.0
        return jac

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Coefficient vector of the field in the coordinate basis at x."""
        return _field_tables((self,), x)[0][0]

    def coefficient_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Partial derivatives J[k, l] = d(coefficients_k)/dx_l at x."""
        return _field_tables((self,), x, "analytic")[1][0]


@dataclass(frozen=True)
class Frame:
    """An ordered family of frame fields; the first two are horizontal."""

    group: FiliformGroup
    label: str
    fields: tuple[VectorField, ...]
    horizontal_count: int = 2

    @property
    def horizontal(self) -> tuple[VectorField, ...]:
        return self.fields[: self.horizontal_count]

    def __len__(self) -> int:
        return len(self.fields)


def left_frame(group: FiliformGroup) -> Frame:
    fields = tuple(
        VectorField(group, LEFT_LABEL, j) for j in range(1, group.dimension + 1)
    )
    return Frame(group, LEFT_LABEL, fields)


def right_frame_engel(group: FiliformGroup) -> Frame:
    """The step-3 right frame displayed above.  Raises for any other step."""
    if group.step != 3:
        raise ValueError("right_frame_engel requires a step-3 group")
    fields = tuple(VectorField(group, RIGHT_LABEL, j) for j in range(1, 5))
    return Frame(group, RIGHT_LABEL, fields)


def translation_jacobian(
    group: FiliformGroup, label: str, alpha: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Jacobian of the label-matching translation, evaluated at x.

    For the left label this is d/dx of x -> alpha o x, which is a constant
    unipotent matrix in alpha_1.  For the right label it is d/dx of
    x -> reflected_compose(x, alpha), the identity plus corrections in the
    first column built from alpha_2, ..., alpha_n and powers of -x_1.
    (k, d) batches of alpha and x give (k, d, d), bit-equal pair by pair.
    """
    d = group.dimension
    ab, a_single = _as_batch(alpha, d)
    xb, x_single = _as_batch(x, d)
    jac = np.tile(np.eye(d), (np.broadcast_shapes(ab.shape, xb.shape)[0], 1, 1))
    if label == LEFT_LABEL:
        terms = group.taylor_powers(ab[:, 0])  # alpha_1^t / t!
        for r in range(3, d + 1):
            for i in range(2, r):
                jac[:, r - 1, i - 1] += terms[r - i]
    elif label == RIGHT_LABEL:
        # d/dx1 of sum_i alpha_i (-x1)^(r-i)/(r-i)! is
        # -sum_i alpha_i (-x1)^(r-i-1)/(r-i-1)!.
        neg = group.taylor_powers(-xb[:, 0])  # (-x1)^t / t!
        for r in range(3, d + 1):
            for i in range(2, r):
                jac[:, r - 1, 0] -= ab[:, i - 1] * neg[r - i - 1]
    else:
        raise ValueError(f"unknown frame label {label!r}")
    return _restore(jac, a_single and x_single)


def _field_tables(
    fields: tuple[VectorField, ...], x: np.ndarray, jacobians: str | None = None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each field's coefficients at x and, if asked, its coefficient Jacobian.

    `jacobians` is None, "analytic" for the closed forms, or "fd" for central
    differences with step h = 1e-5: column l is (plus - minus) / (2h) with
    plus and minus the coefficients at x + h e_l and x - h e_l, all 2d
    shifted points taken as one batch.  The left-frame fields read one
    Taylor table per batch.  Each entry is its own C-contiguous array.
    """
    xb, single = _as_batch(x, fields[0].group.dimension)
    left = [f.group for f in fields if f.label == LEFT_LABEL]
    pw = left[0].taylor_powers(xb[:, 0]) if left else None
    coeffs = [_restore(f._coefficient_rows(xb, pw), single) for f in fields]
    if jacobians is None:
        return coeffs, []
    if jacobians == "analytic":
        jacs = [f._jacobian_rows(xb, pw) for f in fields]
    elif jacobians == "fd":
        (m, d), h = xb.shape, 1e-5
        shift = h * np.eye(d)
        shifted = np.concatenate([xb[:, None] + shift, xb[:, None] - shift]).reshape(-1, d)
        jacs = []
        for rows in _field_tables(fields, shifted)[0]:
            plus, minus = rows.reshape(2, m, d, d)
            jacs.append(np.ascontiguousarray(((plus - minus) / (2 * h)).transpose(0, 2, 1)))
    else:
        raise ValueError(f"unknown method {jacobians!r}")
    return coeffs, [_restore(jac, single) for jac in jacs]


def _residuals(fields: tuple[VectorField, ...], alpha: np.ndarray, x: np.ndarray) -> list:
    """Max-norm gap between each field at the translated point and its pushforward from x.

    All fields share one label, whose translation z and its Jacobian are
    computed once.  (k, d) batches of alpha and x give one (k,) array per
    field in place of the float, entry i bit-equal to pair i's float.
    """
    g, label = fields[0].group, fields[0].label
    z = g.compose(alpha, x) if label == LEFT_LABEL else g.reflected_compose(x, alpha)
    jac = translation_jacobian(g, label, alpha, x)
    at_x = _field_tables(fields, x)[0]
    at_z = _field_tables(fields, z)[0]
    # numpy runs one BLAS matrix-vector product per pair, batched or not.
    gaps = [np.max(np.abs(cz - (jac @ cx[..., None])[..., 0]), axis=-1)
            for cz, cx in zip(at_z, at_x)]
    return [float(gap) for gap in gaps] if jac.ndim == 2 else gaps


def check_invariance(field: VectorField, alpha: np.ndarray, x: np.ndarray) -> float | np.ndarray:
    """Max-norm residual of the invariance identity for one translation.

    Compares the field's coefficients at the translated point with the
    pushforward of its coefficients at x through the translation matching the
    field's label.  Exactly invariant fields give a residual at rounding
    level.  (k, d) batches of alpha and x give the k residuals as an array.
    """
    return _residuals((field,), alpha, x)[0]


def invariance_residuals(frame: Frame, alpha: np.ndarray, x: np.ndarray) -> list:
    """`check_invariance` of every frame field, in field order."""
    return _residuals(frame.fields, alpha, x)


def _brackets(
    fields: tuple[VectorField, ...], x: np.ndarray, method: str
) -> tuple[list[np.ndarray], dict[tuple[int, int], np.ndarray]]:
    """Each field's coefficients at x and the bracket of every pair (i, j), i < j.

    [X, Y]_k = sum_l (a_l d b_k/dx_l - b_l d a_k/dx_l), with the Jacobians
    from `_field_tables(fields, x, method)`; keys are 1-based positions.
    """
    coeffs, jacs = _field_tables(fields, x, method)
    brackets = {
        (i + 1, j + 1): jacs[j] @ coeffs[i] - jacs[i] @ coeffs[j]
        for i in range(len(fields))
        for j in range(i + 1, len(fields))
    }
    return coeffs, brackets


def commutator_coefficients(
    fa: VectorField, fb: VectorField, x: np.ndarray, method: str = "analytic"
) -> np.ndarray:
    """Coefficients of [fa, fb] at x in the coordinate basis.

    The Jacobians come from the closed forms when method == "analytic" and
    from central differences of the coefficient maps when method == "fd".
    The fields may come from different frames.
    """
    return _brackets((fa, fb), x, method)[1][(1, 2)]


def frame_commutators(
    frame: Frame, x: np.ndarray, method: str = "analytic"
) -> dict[tuple[int, int], np.ndarray]:
    """`commutator_coefficients` of every field pair (i, j), i < j, at one point x.

    Keys are 1-based field indices.
    """
    return _brackets(frame.fields, x, method)[1]


def commutator_table(
    frame: Frame, points: np.ndarray | None = None
) -> dict[tuple[int, int], np.ndarray]:
    """Structure constants of the frame: [X_i, X_j] expanded in the frame.

    Evaluates each commutator at several points, expands it in the frame
    basis by solving the (triangular on the left frame) coefficient system,
    and checks the expansion is point independent to 1e-10 before returning
    it.  Keys are (i, j) with i < j.
    """
    g = frame.group
    d = g.dimension
    if points is None:
        rng = np.random.default_rng(7)
        points = rng.uniform(-2.0, 2.0, size=(5, d))
    rows: dict[tuple[int, int], list[np.ndarray]] = {}
    for p in np.atleast_2d(points):
        coeffs, brackets = _brackets(frame.fields, p, "analytic")
        basis = np.stack(coeffs, axis=1)
        for pair, comm in brackets.items():
            rows.setdefault(pair, []).append(np.linalg.solve(basis, comm))
    table: dict[tuple[int, int], np.ndarray] = {}
    for (i, j), pair_rows in rows.items():
        expansions = np.array(pair_rows)
        spread = np.max(np.abs(expansions - expansions[0]))
        if spread > 1e-10:
            raise RuntimeError(
                f"structure constants for ({i}, {j}) vary across points: {spread:g}"
            )
        table[(i, j)] = expansions[0]
    return table
