"""Curvature structures and their invariants over one tangent space.

Everything is pointwise linear algebra: a curvature tensor is a symmetric
square-bidegree double form satisfying the first Bianchi identity, the
stand-in for the Riemann tensor and its Gauss-Kronecker powers.  On top of
the double-form algebra this module provides

* model constructors: constant sectional curvature (lambda/2 g^2),
  hypersurfaces of Euclidean space (B^2/2 by the Gauss equation),
  conformally flat models (g.h), and Riemannian products;
* sectional curvatures of arbitrary tensors on rational frames, with Gram
  normalization standing in for orthonormal bases;
* the (p,q)-curvature tensors star(g^{n-2q-p} R^q)/(n-2q-p)!, whose
  sectional curvatures specialize to the p-curvatures (q=1), to the scalar
  invariants h_{2q} (p=0), and to generalized Einstein tensors (p=1);
* the alternating-contraction pairing that computes star(w.t) on middle
  bidegree, and the sign classification of h_4 for Einstein and conformally
  flat scalar-flat tensors.

The constant, hypersurface and conformally flat constructors record the
small matrix behind R (h for R = g.h, B for R = B.B/2) on the tensor, and
make_product records its two factors.  One function, _rows, picks between
a record and the walk for h_{2q}, T_{2q} and the coordinate-plane
s_{(p,q)}: a matrix model's are symmetric functions of its matrix, read off
linalg.characteristic with no power of R; a product's are sums over its
factors' rows (Weyl's product formula), each factor's by _rows again; and
every other tensor walks R, R^2, ... (_powers).  A tensor with a record
makes R from it, g.h as h.mul_g_power(1), B.B/2 as B.mul(B) halved and a
product as its embedded factors summed, and certifies it, only when R is
read.  Of the reports only the h_4 sign report reads it: for a tensor that
is scalar-flat and neither flat nor Einstein, and not conformal, for its
Weyl part.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, factorial
from types import MappingProxyType

from .core import (
    BianchiRequiredError,
    DegreeError,
    DoubleForm,
    DoubleFormError,
    IdentityError,
    _integer_vectors,
    _wedge,
    as_scalar,
    contractions,
    g_power_sum,
    make_g,
    make_zero,
    trace_of_product,
)
from .decomposition import _require_bianchi_symmetric, decompose
from .exterior import MAX_DIMENSION, _check_dimension, _is_count, subset_masks
from .linalg import characteristic, rank


@dataclass(frozen=True)
class CurvatureTensor:
    """A symmetric (p,p) double form certified Bianchi.

    Certification is exact: B(form) == 0 is checked when the form is made.
    model, set only by the model constructors, records what the form is
    built from: ("conformal", h) for R = g.h (constant curvature included,
    with h = (lambda/2) I), ("hypersurface", B) for R = B.B/2, and
    ("product", (first, second)) for a Riemannian product, whose n and p
    come from its factors.  The invariants read the record when it is there
    and walk R's powers otherwise (_rows), so CurvatureTensor(form) always
    walks.  A tensor with a record makes R from it alone,
    h.mul_g_power(1), B.mul(B)/2 or the embedded factors summed, and
    certifies it, on the first read of form (__getattr__).  The rows, the
    coordinate-plane s_{(p,q)} and the h_4 report's flat and Einstein tests
    read only the record; only the h_4 report's Weyl test of a scalar-flat
    tensor that is neither flat, Einstein nor conformal reads R.
    """

    form: DoubleForm
    model: tuple[str, DoubleForm | tuple[CurvatureTensor, CurvatureTensor]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _require_bianchi_symmetric(self.form, "a curvature tensor")

    def __getattr__(self, name: str):
        """Reached only when no attribute is found: for form, on a tensor
        with a record whose R is not made yet (_recorded)."""
        if name != "form" or self.model is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        form = self.__dict__["form"] = _model_form(self.model)
        try:
            self.__post_init__()
        except DoubleFormError:
            del self.__dict__["form"]  # an uncertified R is never read
            raise
        return form

    @property
    def n(self) -> int:
        if self.model is None:
            return self.form.n
        kind, record = self.model
        return record[0].n + record[1].n if kind == "product" else record.n

    @property
    def p(self) -> int:
        if self.model is None:
            return self.form.p
        kind, record = self.model
        return _product_degree(*record) if kind == "product" else 2  # g.h and B.B/2 are (2,2)


def _model_form(model: tuple) -> DoubleForm:
    """R made from a model record alone, not yet certified: g.h as
    h.mul_g_power(1), B.B/2 as B.mul(B) halved, and a product as its
    factors' forms embedded and summed (_product_form)."""
    kind, record = model
    if kind == "conformal":
        return record.mul_g_power(1)
    if kind == "hypersurface":
        return record.mul(record).scale(Fraction(1, 2))
    return _product_form(*record)


# -- model constructors -------------------------------------------------------


def make_constant_curvature(n: int, curvature) -> CurvatureTensor:
    """R = (lambda/2) g^2, the constant-sectional-curvature model: the
    conformal model g.h of h = (lambda/2) I.  g^2 = 2 sum_{|S|=2} e_S (x) e_S,
    so R holds lambda on every diagonal cell (S, S) with |S| = 2 and
    nothing else.
    """
    if n < 2:
        raise DegreeError(f"constant curvature models need n >= 2, got {n}")
    lam = as_scalar(curvature)
    h = make_zero(n, 1, 1)
    h._publish({mask: {mask: lam.numerator} for mask in subset_masks(n, 1)}, 2 * lam.denominator)
    return make_conformally_flat(h)


def make_hypersurface(second_fundamental: DoubleForm) -> CurvatureTensor:
    """R = B.B/2 for a symmetric shape operator B, by the Gauss equation
    R[{i,j}, {k,l}] = B_ik B_jl - B_il B_jk; the tensor records B."""
    return _matrix_model("hypersurface", second_fundamental, "the shape operator")


def make_conformally_flat(h: DoubleForm) -> CurvatureTensor:
    """R = g.h for a symmetric (1,1)-form h (vanishing Weyl part); the
    tensor records h."""
    return _matrix_model("conformal", h, "the conformal factor")


def _matrix_model(kind: str, matrix: DoubleForm, name: str) -> CurvatureTensor:
    """The tensor with the model record (kind, matrix) for a symmetric
    (1,1)-form matrix; R is made, and certified, on the first read of form
    (CurvatureTensor.__getattr__).  At n = 1 the result is the zero (1,1)
    form, the clamped degree of g.h and B.B there, with no record."""
    if (matrix.p, matrix.q) != (1, 1):
        raise DegreeError(f"{name} must be a (1,1)-form, got ({matrix.p},{matrix.q})")
    if not matrix.is_symmetric():
        raise DoubleFormError(f"{name} must be symmetric")
    if matrix.n == 1:
        return CurvatureTensor(make_zero(1, 1, 1))
    return _recorded((kind, matrix))


def _recorded(model: tuple) -> CurvatureTensor:
    """A tensor holding only its model record; R is made, and certified,
    on the first read of form (CurvatureTensor.__getattr__)."""
    tensor = object.__new__(CurvatureTensor)
    object.__setattr__(tensor, "model", model)
    return tensor


def make_product(first: CurvatureTensor, second: CurvatureTensor) -> CurvatureTensor:
    """Curvature of a Riemannian product: disjoint embeddings summed.

    The first factor keeps indices [0, n1), the second moves to [n1, n1+n2).
    A zero factor at n = 1, such as every model there (R clamps to the
    zero (1,1) form), is a flat line: it adds no cells and takes the other
    factor's degree, and two lines make the zero (2,2) form.  The tensor
    records its two factors, ("product", (first, second)): its invariants
    are read off theirs (_rows), and R is made, and certified, only when
    form is read (_product_form).
    """
    _product_degree(first, second)
    return _recorded(("product", (first, second)))


def _product_degree(first: CurvatureTensor, second: CurvatureTensor) -> int:
    """The degree p of the product's (p,p) form: the factors' shared
    degree, flat lines left out, or 2 for two lines.  Only a factor at
    n = 1, which never has a record, is read for flatness."""
    degrees = {f.p for f in (first, second) if f.n > 1 or not f.form.is_zero()}
    if len(degrees) > 1:
        raise DegreeError(
            f"product factors must share the degree, got {first.p} and {second.p}"
        )
    (p,) = degrees or {2}
    return p


def _product_form(first: CurvatureTensor, second: CurvatureTensor) -> DoubleForm:
    """R of the product: each factor's form embedded at its offset, a flat
    line as the zero form, and the two summed."""
    p = _product_degree(first, second)
    n = first.n + second.n
    left, right = (
        _embed(f.form, n, offset) if f.p == p else make_zero(n, p, p)
        for f, offset in ((first, 0), (second, first.n))
    )
    return left + right


def _embed(form: DoubleForm, n_total: int, offset: int) -> DoubleForm:
    out = make_zero(n_total, form.p, form.q)
    out.cells = {
        mask_i << offset: {mask_j << offset: value for mask_j, value in row.items()}
        for mask_i, row in form.cells.items()
    }
    out.den = form.den
    return out


def _powers(tensor: CurvatureTensor):
    """R, R^2, R^3, ...: each power one product from the previous one,
    certified once, when it is made (R when the tensor was made).  A
    generator, so only the powers a caller holds stay alive."""
    current = tensor
    while True:
        yield current
        current = CurvatureTensor(current.form.mul(tensor.form))


def power(tensor: CurvatureTensor, exponent: int) -> CurvatureTensor:
    """The Gauss-Kronecker power R^q in the curvature algebra.

    R^q is the q-th term of the walk R, R^2, ... (q - 1 products, each
    certified once), so power(R, 1) is R.
    """
    if not _is_count(exponent, 1):
        raise DegreeError(f"power needs a positive integer exponent, got {exponent!r}")
    return next(islice(_powers(tensor), exponent - 1, None))


# -- frames and sectional curvature -------------------------------------------


_ZERO, _ONE = Fraction(0), Fraction(1)


class FrameError(DoubleFormError):
    """Degenerate or malformed tangent frame."""


@dataclass(frozen=True)
class Frame:
    """A spanning set of rational vectors for a tangent p-plane.

    Linear independence is equivalent to a nonzero Gram determinant, which
    equals the squared norm of the wedge of the vectors; sectional values
    divide by it, so any basis of the plane gives the orthonormal value.
    wedge_coordinates holds a positive multiple of v_1 ^ ... ^ v_p (each
    vector scaled to integers) as a read-only sparse map mask_I -> nonzero
    int, made once at construction by core._wedge; the vectors are
    dependent exactly when that map is empty.  Frame.coordinate shares its
    frames between callers, so no frame's map can be written.
    """

    n: int
    vectors: tuple[tuple[Fraction, ...], ...]
    wedge_coordinates: Mapping[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_dimension(self.n, FrameError)
        if not self.vectors:
            raise FrameError("a frame needs at least one vector")
        for vec in self.vectors:
            if len(vec) != self.n:
                raise FrameError(f"frame vectors must have length {self.n}")
        coords = _wedge(_integer_vectors(self.n, self.vectors)[0])
        if not coords:
            raise FrameError("frame vectors are linearly dependent")
        object.__setattr__(self, "wedge_coordinates", MappingProxyType(coords))

    @classmethod
    def from_vectors(cls, n: int, vectors) -> "Frame":
        return cls(n, tuple(tuple(as_scalar(v) for v in vec) for vec in vectors))

    @classmethod
    def coordinate(cls, n: int, indices) -> "Frame":
        """The plane spanned by the listed standard basis vectors.

        The indices are checked in whole-tuple passes, in this order:
        integers (a bool refused), distinct, in range(n), at least one.  A
        frame is immutable, so the frame of each checked (n, indices) is
        built once and then shared (_coordinate_frame); only checked int
        tuples reach that memo, since 1.0 and True hash and compare like 1.

        The wedge e_{i_1} ^ ... ^ e_{i_k} has one nonzero coordinate, at
        the plane's mask: the sign of the permutation that sorts the
        indices, (-1)^inv with inv the number of inversions, the pairs
        s < t with i_s > i_t.  Count them by their second place t: the
        inversions ending at t are the earlier indices above i_t.  With mask
        the bits of i_1, ..., i_{t-1}, they are the set bits of mask above
        bit i_t, and bit i_t itself is clear, the indices being distinct, so
        their number is (mask >> i_t).bit_count().  One pass over the
        indices thus adds up inv and builds the mask.
        """
        _check_dimension(n, FrameError)
        idx = tuple(indices)
        if not set(map(type, idx)) <= _INT_TYPE and any(
            not isinstance(i, int) or isinstance(i, bool) for i in idx
        ):
            raise FrameError(f"coordinate plane indices must be integers, got {idx!r}")
        distinct = set(idx)
        if len(distinct) != len(idx):
            raise FrameError(f"coordinate plane indices must be distinct, got {idx}")
        if not distinct <= _INDEX_RANGES[n]:
            raise FrameError(f"coordinate index out of range [0, {n}): {idx}")
        if not idx:
            raise FrameError("a frame needs at least one vector")
        return _coordinate_frame(cls, n, idx)

    @property
    def size(self) -> int:
        return len(self.vectors)


_INT_TYPE = frozenset({int})
_INDEX_RANGES = tuple(frozenset(range(n)) for n in range(MAX_DIMENSION + 1))


@lru_cache(maxsize=4096)
def _coordinate_frame(cls: type[Frame], n: int, idx: tuple[int, ...]) -> Frame:
    """Frame.coordinate's frame of checked indices, shared by the callers
    of the 4096 (cls, n, idx) asked for last: its vectors come from
    _unit_vectors(n), and its mask and inversion count from one pass (see
    Frame.coordinate)."""
    units = _unit_vectors(n)
    mask = inversions = 0
    for i in idx:
        inversions += (mask >> i).bit_count()
        mask |= 1 << i
    frame = object.__new__(cls)  # skips __post_init__ and its wedge
    object.__setattr__(frame, "n", n)
    object.__setattr__(frame, "vectors", tuple(units[i] for i in idx))
    object.__setattr__(
        frame, "wedge_coordinates", MappingProxyType({mask: -1 if inversions & 1 else 1})
    )
    return frame


@lru_cache(maxsize=None)
def _unit_vectors(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """e_0, ..., e_{n-1} as Fraction tuples, made once per n."""
    return tuple(tuple(_ONE if j == i else _ZERO for j in range(n)) for i in range(n))


def orthogonal_complement(frame: Frame) -> Frame:
    """An exact basis of the orthogonal complement of the spanned plane.

    Rational Gram-Schmidt without normalization: residuals of the standard
    basis vectors against the plane (and each other).  For coordinate frames
    this returns the complementary coordinate vectors.
    """
    n = frame.n
    ortho = []
    for vec in frame.vectors:
        ortho.append(_residual(list(vec), ortho))
    complement = []
    for unit in _unit_vectors(n):
        residual = _residual(unit, ortho + complement)
        if any(residual):
            complement.append(residual)
    if len(complement) != n - frame.size:
        raise FrameError("frame vectors are linearly dependent")
    return Frame(n, tuple(tuple(v) for v in complement))


def _residual(vector, ortho_basis):
    for b in ortho_basis:
        num = sum(x * y for x, y in zip(vector, b))
        if num:
            den = sum(y * y for y in b)
            f = num / den
            vector = [x - f * y for x, y in zip(vector, b)]
    return vector


def _require_plane(n: int, p: int, q: int, plane: Frame) -> None:
    """Refuse a plane that a (p,q)-form over n cannot be evaluated on."""
    if n != plane.n:
        raise DegreeError(f"form over n={n} cannot be evaluated on a frame over n={plane.n}")
    if p != plane.size or q != plane.size:
        raise DegreeError(
            f"sectional curvature of a ({p},{q})-form needs a {p}-plane, "
            f"got {plane.size} vectors"
        )


def sectional_curvature(form: DoubleForm, plane: Frame) -> Fraction:
    """K(P) = w(V, V) / <V, V> for V the wedge of the frame vectors.

    The ratio does not change when V is scaled, so V is the frame's integer
    wedge, and w(V, V) / <V, V> is (sum of numerator * V_I * V_J) over
    (form.den * <V, V>), one Fraction.  V's coordinates are read from the
    frame's sparse map, with the rows it reaches looked up in the form.
    """
    _require_plane(form.n, form.p, form.q, plane)
    coords = plane.wedge_coordinates
    gram = sum(c * c for c in coords.values())
    return Fraction(form._on_wedges(coords, coords), form.den * gram)


# -- the (p,q)-curvatures ------------------------------------------------------


def _require_q(n: int, q, name: str = "q") -> None:
    if not _is_count(q, 1, n // 2):
        raise DegreeError(f"need 1 <= {name} <= n/2, got {name}={q!r} at n={n}")


def _require_pq_range(tensor: CurvatureTensor, p: int, q: int) -> None:
    n = tensor.n
    _require_q(n, q)
    if not _is_count(p, 0, n - 2 * q):
        raise DegreeError(f"need 0 <= p <= n - 2q, got p={p!r} at n={n}, q={q}")


def pq_curvature_tensor(tensor: CurvatureTensor, p: int, q: int) -> DoubleForm:
    """star(g^{n-2q-p} R^q) / (n-2q-p)!, a symmetric Bianchi (p,p)-form.

    The star is linear, so the 1/m! (m = n-2q-p) goes on g^m R^q, as the
    coefficient of its one g_power_sum term, and the star follows; at
    m = 0 the star is taken of R^q itself.
    """
    _require_pq_range(tensor, p, q)
    n = tensor.n
    margin = n - 2 * q - p
    rq = power(tensor, q).form
    if margin:
        rq = g_power_sum(n, n - p, n - p, [(Fraction(1, factorial(margin)), margin, rq)])
    return rq.hodge()


def pq_sectional(tensor: CurvatureTensor, p: int, q: int, plane: Frame | None) -> Fraction:
    """s_{(p,q)}(P), the sectional curvature of the (p,q)-curvature tensor.

    On a coordinate plane it is h_{2q} of R restricted to the complement.
    Say the plane's wedge has one nonzero coordinate c, at the mask of P
    (every Frame.coordinate, and any frame spanning a coordinate plane).
    Then K(P) = T[P, P] c^2 / c^2 = T[P, P] for T = star(g^m R^q) / m!,
    m = n - 2q - p, and K = P^c has n - p = 2q + m elements:

    * star sends the cell (K, K) to (P, P) with the sign of K against its
      complement twice, so T[P, P] = (g^m R^q)[K, K] / m!;
    * g^m = m! sum_{|S|=m} e_S (x) e_S, so (g^m R^q)[K, K] is m! times the
      sum over the m-subsets S of K of sign(S, K - S)^2 R^q[K - S, K - S],
      that is m! sum_{A in K, |A|=2q} R^q[A, A];
    * a cell of a product has its index sets inside K exactly when both
      factors' cells do, so restricting to the cells with I, J inside K
      commutes with the product: R^q restricted is (R restricted)^q.

    So s_{(p,q)}(P) = sum_{A in K, |A|=2q} (R|_K)^q[A, A] = h_{2q}(R|_K),
    and R|_K, the cells of R disjoint from P, is again symmetric and
    Bianchi.  _rows reads it: a tensor with a model record passes its
    matrix restricted to K, whose h_{2q} formula over |K| = n - p indices
    gives the same value, a product splits the plane's mask between its
    factors, and other tensors take h_{2q} of _restricted(R).
    Other planes take sectional_curvature(pq_curvature_tensor), which stays
    the oracle for this route.
    """
    _require_pq_range(tensor, p, q)
    if p == 0:
        if plane is not None:
            raise DegreeError("s_{(0,q)} is a scalar; pass plane=None")
        return weyl_invariant(tensor, q)
    if plane is None:
        raise DegreeError(f"s_({p},{q}) needs a {p}-plane")
    _require_plane(tensor.n, p, p, plane)
    if len(plane.wedge_coordinates) == 1:
        (mask,) = plane.wedge_coordinates
        _require_riemann_like(tensor, "weyl_invariant")  # before a record is read
        return _rows(tensor, (q,), plane=mask)[0][0]
    return sectional_curvature(pq_curvature_tensor(tensor, p, q), plane)


def _cells_outside(cells: dict, mask: int) -> dict:
    """The cells (I, J) with I and J disjoint from mask."""
    return {
        mask_i: {mask_j: value for mask_j, value in row.items() if not mask_j & mask}
        for mask_i, row in cells.items()
        if not mask_i & mask
    }


def _restricted(tensor: CurvatureTensor, mask: int) -> CurvatureTensor:
    """R restricted to the complement of mask: the cells (I, J) with I and
    J disjoint from it, reduced and certified."""
    form = tensor.form
    out = make_zero(form.n, form.p, form.q)
    out._publish(_cells_outside(form.cells, mask), form.den)
    return CurvatureTensor(out)


def weyl_invariant(tensor: CurvatureTensor, q: int) -> Fraction:
    """h_{2q} = c^{2q} R^q / (2q)!, the 2q-th scalar curvature invariant.

    c^{2q} of the (2q,2q)-form R^q is one cell, (2q)! sum_{|A|=2q}
    R^q[A, A], so h_{2q} is the trace sum_A R^q[A, A], read off the
    tensor's record or its walk (_rows).  h_2 = c^2 R / 2 is half the
    scalar curvature; for even n, h_n is the Gauss-Bonnet integrand up to
    the tube-formula normalization.
    """
    _require_riemann_like(tensor, "weyl_invariant")
    _require_q(tensor.n, q)
    return _rows(tensor, (q,))[0][0]


def einstein_tensor(tensor: CurvatureTensor, q: int) -> DoubleForm:
    """T_{2q} = h_{2q} g - c^{2q-1} R^q / (2q-1)!, the 2q-Einstein tensor.

    For q=1 this is the classical Einstein tensor (c^2R/2) g - cR.  The
    contraction form is used rather than star(g^{n-2q-1} R^q)/(n-2q-1)!
    because it stays defined at 2q = n (where the trace is zero) and the two
    agree whenever 2q < n.  It is read off R^q, or with a record off the
    Newton tensor N_q(h) or N_{2q}(B) or the factors' rows (_rows).
    """
    _require_riemann_like(tensor, "einstein_tensor")
    _require_q(tensor.n, q)
    return _rows(tensor, (q,), newton=True)[0][1]


def _rows(
    tensor: CurvatureTensor, qs, newton: bool = False, plane: int = 0
) -> list[tuple[Fraction, DoubleForm | None]]:
    """(h_{2q}, T_{2q}) for exactly the q in qs (ascending, 2q <= |C|), of R
    restricted to the complement C of the plane's mask; T only with newton,
    and only for the whole space.  q = 0 is h_0 = 1 and T_0 = g.  This is
    the one place that picks between a model record and the walk.

    A matrix model's rows are symmetric functions of its matrix A:

    * conformal, R = g.h over m = |C| indices:
      h_{2q} = (m-q)! q! / (m-2q)! sigma_q(h), and
      T_{2q} = (n-1-q)! q! / (n-1-2q)! N_q(h), which is 0 when 2q >= n;
    * hypersurface, R = B.B/2: h_{2q} = (2q)!/2^q sigma_{2q}(B) and
      T_{2q} = (2q)!/2^q N_{2q}(B), where N_n(B) = 0 by Cayley-Hamilton.

    sigma_k and the Newton tensors N_k come from one call of
    linalg.characteristic.  Restricting R to C is R's model on A[C, C], so
    a coordinate-plane s_{(p,q)}(P), h_{2q} of R restricted to P's
    complement (see pq_sectional), is the h_{2q} formula on A[C, C] with
    m = n - p.

    A product R = R1 + R2 over disjoint indices reads its factors' rows,
    each by this same function, for a = 0, 1, ... while 2a fits the
    factor's part of C: every later row is zero.  R1 and R2 commute, so
    R^q = sum_{a+b=q} C(q,a) R1^a R2^b, and a cell (A, A) of R1^a R2^b is
    a cell (A1, A1) of R1^a times one (A2, A2) of R2^b.  Hence Weyl's
    product formula

        h_{2q}(R) = sum_{a+b=q} C(q,a) h_{2a}(R1) h_{2b}(R2).

    c^{2q-1} R^q meets no pair (i, j) across the factors, so T_{2q} is
    block diagonal, and the same split of its (i, j) entry gives the R1
    block sum_{a+b=q} C(q,a) h_{2b}(R2) T_{2a}(R1) and the R2 block with
    the roles swapped.  The plane's mask splits between the factors: R
    restricted to C is the product of the factors restricted to their
    parts of it.

    Any other tensor walks R, R^2, ... (_powers), each row read off the
    contraction chain of its power.  A single h_{2q} with q >= 2 forms no
    R^q: even-degree forms commute, so R^q = R^b . R^a with b = floor(q/2),
    a = ceil(q/2), and core.trace_of_product reads the trace of that
    product off the cells of R^b and R^a: a cell (I1, J1) of R^b, the lower
    power and the one with fewer cells to walk, meets only the cells
    (Q u C, P u C) of R^a, with P = I1 - J1, Q = J1 - I1 and C disjoint
    from I1 u J1, at the sign sign(I1, Q u C) sign(J1, P u C) of the
    product.  So h_{2q} costs a - 1 products (R^b is met on the way to
    R^a).  The tests hold every record's rows to the walk on
    CurvatureTensor(tensor.form).
    """
    n = tensor.n
    if qs[0] == 0:
        rest = _rows(tensor, qs[1:], newton, plane) if len(qs) > 1 else []
        return [(_ONE, make_g(n) if newton else None), *rest]
    kind, record = tensor.model or (None, None)
    top = qs[-1]
    if kind == "product":
        first, second = record
        n1 = first.n
        rows1, rows2 = (
            _rows(f, range(min(top, (f.n - part.bit_count()) // 2) + 1), newton, part)
            for f, part in ((first, plane & ((1 << n1) - 1)), (second, plane >> n1))
        )
        if newton:  # each factor's T rows, embedded once at its offset
            rows1 = [(h, _embed(t, n, 0)) for h, t in rows1]
            rows2 = [(h, _embed(t, n, n1)) for h, t in rows2]
        out = []
        for q in qs:
            terms = [
                (comb(q, a), rows1[a], rows2[q - a])
                for a in range(q + 1)
                if a < len(rows1) and q - a < len(rows2)
            ]
            h = sum((c * h1 * h2 for c, (h1, _), (h2, _) in terms), _ZERO)
            einstein = None
            if newton:
                blocks = [(c * h2, 0, t1) for c, (_, t1), (h2, _) in terms]
                blocks += [(c * h1, 0, t2) for c, (h1, _), (_, t2) in terms]
                einstein = g_power_sum(n, 1, 1, blocks)
            out.append((h, einstein))
        return out
    if kind is not None:
        keys, cells = subset_masks(n, 1), record.cells
        if plane:
            keys = [mask for mask in keys if not mask & plane]
            cells = _cells_outside(cells, plane)
        step = 1 if kind == "conformal" else 2
        sigmas, tensors = characteristic(cells, record.den, keys, step * top, newton)
        m = len(keys)
        out = []
        for q in qs:
            # (numerator, denominator) of the weights of sigma and N in h and T
            if kind == "conformal":
                h_weight = (factorial(m - q) * factorial(q), factorial(m - 2 * q))
                t_weight = (
                    factorial(n - 1 - q) * factorial(q), factorial(n - 1 - 2 * q)
                ) if 2 * q < n else (0, 1)
            else:
                h_weight = t_weight = (factorial(2 * q), 2**q)
            num, den = sigmas[step * q]
            h = Fraction(h_weight[0] * num, h_weight[1] * den)
            einstein = None
            if newton:
                nums, den = tensors[step * q]
                einstein = make_zero(n, 1, 1)
                einstein._publish({
                    mask_i: {mask_j: v * t_weight[0] for mask_j, v in row.items()}
                    for mask_i, row in nums.items()
                }, den * t_weight[1])
            out.append((h, einstein))
        return out
    if plane:
        tensor = _restricted(tensor, plane)
    if len(qs) == 1 and top >= 2 and not newton:
        half = top // 2
        for exponent, rq in zip(range(1, (top + 1) // 2 + 1), _powers(tensor)):
            if exponent == half:
                lower = rq
        return [(trace_of_product(lower.form, rq.form), None)]
    out = []
    for q, rq in zip(range(1, top + 1), _powers(tensor)):
        if q in qs:
            out.append(
                _weyl_and_einstein(rq.form, q) if newton
                else (rq.form.contract(2 * q).scalar_value() / factorial(2 * q), None)
            )
    return out


def _weyl_and_einstein(rq: DoubleForm, q: int) -> tuple[Fraction, DoubleForm]:
    """(h_{2q}, T_{2q}) from two contraction passes over R^q, c^{2q} and
    c^{2q-1}."""
    h = rq.contract(2 * q).scalar_value() / factorial(2 * q)
    traced = rq.contract(2 * q - 1)
    return h, h * make_g(rq.n) - traced.scale(Fraction(1, factorial(2 * q - 1)))


def p_curvature(tensor: CurvatureTensor, p: int, plane: Frame) -> Fraction:
    """s_p = s_{(p,1)}; half the scalar curvature at p=0, sectional at p=n-2."""
    return pq_sectional(tensor, p, 1, plane)


# -- alternating-contraction pairing ------------------------------------------


def avez_pairing(left: DoubleForm, right: DoubleForm) -> Fraction:
    """star(w.t) for middle-bidegree Bianchi forms, via contractions only.

        star(w.t) = sum_{r=0}^{p} (-1)^{r+p} / (r!)^2 <c^r w, c^r t>,  n = 2p.

    Specializing t = w = R at n = 4 gives h_4 = |R|^2 - |cR|^2 + |c^2R|^2/4.
    """
    left._require_same_space(right)
    if left.p != left.q or (left.p, left.q) != (right.p, right.q):
        raise DegreeError(
            f"the pairing needs equal square bidegrees, got "
            f"({left.p},{left.q}) and ({right.p},{right.q})"
        )
    p = left.p
    if left.n != 2 * p:
        raise DegreeError(f"the pairing needs n == 2p, got n={left.n}, p={p}")
    if not left.bianchi_sum().is_zero() or not right.bianchi_sum().is_zero():
        raise BianchiRequiredError("the pairing needs both forms to be Bianchi")
    return sum(
        Fraction((-1) ** (r + p), factorial(r) ** 2) * cl.inner(cr)
        for r, (cl, cr) in enumerate(zip(contractions(left, p), contractions(right, p)))
    )


# -- predicates ----------------------------------------------------------------


def _require_riemann_like(tensor: CurvatureTensor, who: str) -> None:
    if tensor.p != 2:
        raise DegreeError(f"{who} applies to (2,2) curvature tensors, got p={tensor.p}")


def is_einstein(tensor: CurvatureTensor) -> bool:
    """Whether the Ricci contraction is proportional to the metric: cR = (c^2R/n) g."""
    _require_riemann_like(tensor, "is_einstein")
    ricci = tensor.form.contract()
    scalar = ricci.contract().scalar_value()
    return ricci == (scalar / tensor.n) * make_g(tensor.n)


def is_conformally_flat_algebraic(tensor: CurvatureTensor) -> bool:
    """Whether the effective degree-2 (Weyl) component vanishes.

    Meaningful for n >= 4; below that the Weyl component vanishes
    identically and the predicate is trivially true.
    """
    _require_riemann_like(tensor, "is_conformally_flat_algebraic")
    return decompose(tensor.form).components[2].is_zero()


def has_constant_sectional(form: DoubleForm, p: int) -> Fraction | None:
    """The constant c with w = c g^p/p!, or None if w is not of that shape.

    g^p/p! is 1 on each of the C(n,p) diagonal cells (S, S) and 0 elsewhere,
    so w has the shape exactly when it is zero (c = 0) or stores exactly
    those cells, one per row, all with one numerator (c = that over den).
    """
    if (form.p, form.q) != (p, p):
        raise DegreeError(f"expected a ({p},{p})-form, got ({form.p},{form.q})")
    cells = form.cells
    if not cells:
        return Fraction(0)
    if len(cells) != comb(form.n, p):
        return None
    first = (1 << p) - 1
    num = cells[first].get(first)  # all C(n,p) rows are stored
    if num is None or any(
        len(row) != 1 or row.get(mask_i) != num for mask_i, row in cells.items()
    ):
        return None
    return Fraction(num, form.den)


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class H4SignReport:
    """Sign classification for the second scalar invariant h_4."""

    h4: Fraction
    classification: str  # flat | einstein | conformally_flat_scalar_flat | hypothesis_not_met
    inequality_holds: bool | None


def sign_report_h4(tensor: CurvatureTensor) -> H4SignReport:
    """Evaluate h_4 against the applicable sign theorem, if any.

    Einstein tensors have h_4 >= 0 with equality only when flat; conformally
    flat tensors with zero scalar curvature have h_4 <= 0 with equality only
    when flat.  When neither hypothesis applies no sign claim is made.
    """
    return _sign_report_h4(tensor, ())


def _sign_report_h4(tensor: CurvatureTensor, rows) -> H4SignReport:
    """sign_report_h4, reusing the rows (h_2, T_2), (h_4, T_4), ... that
    the caller already has."""
    _require_riemann_like(tensor, "sign_report_h4")
    if tensor.n < 4:
        raise DegreeError(f"h_4 needs n >= 4, got n={tensor.n}")
    h4 = rows[1][0] if len(rows) > 1 else weyl_invariant(tensor, 2)
    classification = _h4_hypothesis(tensor, rows)
    holds = {"flat": h4 == 0, "einstein": h4 > 0, "conformally_flat_scalar_flat": h4 < 0}
    return H4SignReport(h4, classification, holds.get(classification))


def _h4_hypothesis(tensor: CurvatureTensor, rows) -> str:
    """The sign theorem that applies to R, if any (n >= 4), by one rule for
    every tensor, with the row (h_2, T_2) taken from rows or made when R is
    not flat:

    * flat when R = 0 (_is_flat);
    * otherwise Einstein exactly when T_2 = h_2 g - cR is a multiple of g;
    * otherwise conformally_flat_scalar_flat when h_2 = 0 and the Weyl part
      of R is zero.  A conformal record R = g.h has a zero Weyl part by
      construction; any other tensor reads R for this test, and only here.
    """
    if _is_flat(tensor):
        return "flat"
    h2, t2 = rows[0] if rows else _rows(tensor, (1,), newton=True)[0]
    if _is_multiple_of_identity(t2):
        return "einstein"
    conformal = tensor.model is not None and tensor.model[0] == "conformal"
    if h2 == 0 and (conformal or is_conformally_flat_algebraic(tensor)):
        return "conformally_flat_scalar_flat"
    return "hypothesis_not_met"


def _is_flat(tensor: CurvatureTensor) -> bool:
    """Whether R = 0, read off the record when there is one: g.h = 0
    exactly when h = 0; the cells of B.B/2 are the 2x2 minors of B,
    R[{i,j}, {k,l}] = B_ik B_jl - B_il B_jk by the Gauss equation, so it is
    0 exactly when rank B <= 1; a product is flat exactly when both its
    factors are.  A tensor without a record reads its form."""
    kind, record = tensor.model or (None, None)
    if kind == "conformal":
        return record.is_zero()
    if kind == "hypersurface":
        rows = [[row.get(1 << k, 0) for k in range(record.n)] for row in record.cells.values()]
        return rank(rows) <= 1
    if kind == "product":
        return all(map(_is_flat, record))
    return tensor.form.is_zero()


def _is_multiple_of_identity(matrix: DoubleForm) -> bool:
    """Whether a (1,1)-form is c I, c = 0 included."""
    diagonal = [row[mask] for mask, row in matrix.cells.items() if row.keys() == {mask}]
    return not matrix.cells or (len(diagonal) == matrix.n and len(set(diagonal)) == 1)


@dataclass(frozen=True)
class InvariantRow:
    q: int
    weyl: Fraction
    einstein: DoubleForm


@dataclass(frozen=True)
class SectionalSample:
    p: int
    q: int
    plane: tuple[int, ...]
    value: Fraction


@dataclass(frozen=True)
class InvariantReport:
    """Invariants per q, with the trace identity revalidated on demand."""

    n: int
    rows: tuple[InvariantRow, ...]
    samples: tuple[SectionalSample, ...] = ()
    h4_sign: H4SignReport | None = None

    def validate_trace(self) -> None:
        """Check sum_i T_{2q}(e_i, e_i) == (n - 2q) h_{2q} for every row."""
        for row in self.rows:
            trace = row.einstein.contract().scalar_value()
            expected = (self.n - 2 * row.q) * row.weyl
            if trace != expected:
                raise IdentityError(
                    f"trace of T_{2 * row.q} is {trace}, expected {expected}"
                )


def build_invariant_report(
    tensor: CurvatureTensor,
    max_q: int,
    samples: tuple[SectionalSample, ...] = (),
) -> InvariantReport:
    """Invariants for q = 1..max_q; requires 2 max_q <= n.

    The rows come from one _rows call: with a record off its matrix or its
    factors' rows, with no power formed, and otherwise off R, R^2, ...,
    R^max_q, each made from the previous one by a single product and
    certified once; the walk holds one power at a time, and row q reads
    h_{2q} and T_{2q} off the one contraction chain of R^q.  The h_4 sign
    report reuses rows 1 and 2 (_h4_hypothesis says when it reads R), and
    the trace identity is checked on every row.
    """
    _require_riemann_like(tensor, "build_invariant_report")
    n = tensor.n
    _require_q(n, max_q, "max_q")
    pairs = _rows(tensor, range(1, max_q + 1), newton=True)
    rows = [InvariantRow(q, *pair) for q, pair in enumerate(pairs, 1)]
    h4_sign = _sign_report_h4(tensor, pairs) if n >= 4 else None
    report = InvariantReport(n, tuple(rows), samples, h4_sign)
    report.validate_trace()
    return report
