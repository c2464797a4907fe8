"""Orthogonal decomposition of D^{p,p} into effective components.

Every square-bidegree double form splits orthogonally as

    w = w_p + g.w_{p-1} + g^2.w_{p-2} + ... + g^p.w_0,

where each w_k lives in E^{k,k} = Ker c (the effective forms) and the
projections have a closed form in powers of g and c, no linear solving
involved.  For the Riemann curvature tensor this is the classical
Weyl / traceless-Ricci / scalar split, and w_p is the conformal (Weyl)
component.

The same closed form covers every p.  When 2p > n, g^{p-k} annihilates
E^{k,k} for k > n-p, so only the components w_k with k <= n-p are nonzero,
and their coefficients stay defined because n-2k >= 2p-n > 0.
divide_g_power, the exact linear-solving route through the isomorphism
g^{2p-n}: D^{n-p,n-p} -> D^{p,p}, is kept as the independent cross-check of
that claim and is not called by decompose.

Each closed form here is a sum sum_i c_i g^{k_i} w_i, handed whole to
core.g_power_sum, which accumulates it in one integer pass.

The module also carries the closed-form Hodge star on first-Bianchi tensors
(contractions only, no complement signs), its expression through effective
components, and the exact rank of multiplication by g-powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import linalg
from .core import (
    BianchiRequiredError,
    DegreeError,
    DoubleForm,
    DoubleFormError,
    _flatten,
    _from_cells,
    _integer_numerators,
    _require_cell_budget,
    _subset_table,
    _unflatten,
    contractions,
    g_power_sum,
    make_zero,
)
from .exterior import _check_dimension, _is_count, _mask_rank_table, subset_masks


@dataclass(frozen=True)
class EffectiveDecomposition:
    """Components [w_0, ..., w_p] with w_k effective in D^{k,k}."""

    n: int
    p: int
    components: tuple[DoubleForm, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.p + 1:
            raise DegreeError(
                f"need {self.p + 1} components for degree {self.p}, "
                f"got {len(self.components)}"
            )
        for k, comp in enumerate(self.components):
            if comp.n != self.n or (comp.p, comp.q) != (k, k):
                raise DegreeError(
                    f"component {k} must lie in D^({k},{k}) over n={self.n}, "
                    f"got ({comp.p},{comp.q}) over n={comp.n}"
                )

    def reconstruct(self) -> DoubleForm:
        """Sum of g^{p-k} . w_k, the inverse of decompose."""
        terms = [(1, self.p - k, comp) for k, comp in enumerate(self.components)]
        return g_power_sum(self.n, self.p, self.p, terms)


def reconstruct(decomposition: EffectiveDecomposition) -> DoubleForm:
    return decomposition.reconstruct()


def is_effective(form: DoubleForm) -> bool:
    """Whether the contraction annihilates the form (w in Ker c)."""
    return form.contract().is_zero()


def decompose(form: DoubleForm) -> EffectiveDecomposition:
    """Split w in D^{p,p} into effective components.

    Closed form for every p, for k <= min(p, n-p):

        w_k = (n-p-k)!/((p-k)!(n-2k)!) [ c^{p-k} w
              + sum_{r=1}^{k} (-1)^r / prod_{i=0}^{r-1}(n-2k+2+i)
                              (g^r / r!) c^{p-k+r} w ],

    and w_k = 0 for n-p < k <= p (only when 2p > n).

    The closed forms read c^j w only for skip <= j <= p, skip = max(2p-n, 0).
    So the chain starts at c^skip w, made in one pass by contract(skip):
    at 2p > n it does not walk c w, c^2 w, ... through the dense middle
    degrees that no component reads.
    """
    if form.p != form.q:
        raise DegreeError(f"decompose needs p == q, got ({form.p},{form.q})")
    n, p = form.n, form.p
    skip = max(2 * p - n, 0)
    chain = contractions(form.contract(skip), p - skip)  # chain[j - skip] = c^j w
    components = []
    for k in range(min(p, n - p) + 1):
        lead = Fraction(factorial(n - p - k), factorial(p - k) * factorial(n - 2 * k))
        terms = [(lead, 0, chain[p - k - skip])]
        for r in range(1, k + 1):  # c_r = -c_{r-1} / (r (n-2k+1+r))
            terms.append((terms[-1][0] / -(r * (n - 2 * k + 1 + r)), r, chain[p - k + r - skip]))
        components.append(g_power_sum(n, k, k, terms))
    components += [make_zero(n, k, k) for k in range(n - p + 1, p + 1)]
    return EffectiveDecomposition(n, p, tuple(components))


def project_conformal(form: DoubleForm) -> DoubleForm:
    """The top effective component w_p (the Weyl part for curvature tensors)."""
    return decompose(form).components[form.p]


# -- multiplication by g-powers as a matrix ----------------------------------


def g_power_matrix(n: int, p: int, q: int, power: int) -> list[list[int]]:
    """Matrix of w -> g^power . w from D^{p,q} to D^{p+power,q+power}.

    Rows are target cells, columns source basis elements, both in the
    flattened layout of core._flatten.  Entries are integers.  A matrix
    with more cells than the cell budget is refused before it is allocated.
    divide_g_power solves against it; map_rank and _g_power_kernel take
    _g_power_blocks instead.
    """
    image = _g_power_image(n, p, q, power)
    overflow = p + power > n or q + power > n
    source_dim = comb(n, p) * comb(n, q)
    target_dim = 1 if overflow else comb(n, p + power) * comb(n, q + power)
    _require_cell_budget(
        target_dim * source_dim,
        f"the {target_dim}x{source_dim} matrix of g^{power} on D^({p},{q}) at n={n}",
    )
    if overflow:
        return [[0] * source_dim]
    matrix = [[0] * source_dim for _ in range(target_dim)]
    row_rank = _mask_rank_table(n, p + power)
    col_rank = _mask_rank_table(n, q + power)
    cols = comb(n, q + power)
    col = 0
    for mask_i in subset_masks(n, p):
        for mask_j in subset_masks(n, q):
            for (mask_ti, mask_tj), value in image((mask_i, mask_j)):
                matrix[row_rank[mask_ti] * cols + col_rank[mask_tj]][col] = value
            col += 1
    return matrix


def _g_power_image(n: int, p: int, q: int, power: int):
    """For g^power on D^{p,q}, once n, (p, q) and power are checked, the map
    from a cell (mask_I, mask_J) to ((target I, target J), integer) pairs:
    power! sum_S sign(S,I) sign(S,J) e_{S u I} (x) e_{S u J} over the
    power-subsets S disjoint from I and J."""
    _check_dimension(n, DegreeError)
    if not (_is_count(p, 0, n) and _is_count(q, 0, n)):
        raise DegreeError(f"bidegree ({p},{q}) out of range for n={n}")
    if not _is_count(power, 0):
        raise DegreeError(f"g-power must be nonnegative, got {power}")
    weight = factorial(power)
    subsets = _subset_table(power)[(1 << n) - 1]

    def image(cell):
        mask_i, mask_j = cell
        used, differ = mask_i | mask_j, mask_i ^ mask_j
        return [((mask_s | mask_i, mask_s | mask_j),
                 -weight if (differ & odd_s).bit_count() & 1 else weight)
                for mask_s, odd_s in subsets if not mask_s & used]

    return image


def _g_power_blocks(n: int, p: int, q: int, power: int):
    """The keyed blocks of g^power on D^{p,q}: S is disjoint from I and J, so
    e_{S u I} (x) e_{S u J} keeps the key (I - J, J - I) of e_I (x) e_J."""
    image = _g_power_image(n, p, q, power)  # checks the arguments first
    return linalg.keyed_blocks(
        [(mask_i, mask_j) for mask_i in subset_masks(n, p) for mask_j in subset_masks(n, q)],
        lambda cell: (cell[0] & ~cell[1], cell[1] & ~cell[0]),
        image,
        f"g^{power} on D^({p},{q}) at n={n}, keyed by (I - J, J - I)",
    )


def map_rank(n: int, p: int, q: int, power: int) -> int:
    """Exact rank of multiplication by g^power on D^{p,q}, block by block.

    Full source dimension exactly when p + q + power <= n (injectivity),
    full target dimension exactly when the map is onto.
    """
    return sum(linalg.rank(rows) for _, rows in _g_power_blocks(n, p, q, power))


def _g_power_kernel(n: int, p: int, q: int, power: int):
    """A basis of the kernel of g^power on D^{p,q} as forms, block by block."""
    for cells, rows in _g_power_blocks(n, p, q, power):
        for vector in linalg.nullspace(rows):
            nums, den = _integer_numerators(vector)
            yield _from_cells(n, p, q, dict(zip(cells, nums)), den)


def divide_g_power(form: DoubleForm, power: int) -> DoubleForm:
    """The unique x with g^power . x = form, by exact linear solving.

    Solves g_power_matrix against the flattened coefficient array of the
    form.  The solve-based cross-check for the closed-form decompose at
    2p > n, where multiplication by g^{2p-n} from D^{n-p,n-p} is an
    isomorphism: decompose(divide_g_power(w, 2p-n)) must give the nonzero
    components of decompose(w).  It is an oracle for the tests, not a
    production path; raises if no exact preimage exists.
    """
    if not _is_count(power, 0, min(form.p, form.q)):
        raise DegreeError(f"cannot divide a ({form.p},{form.q})-form by g^{power}")
    n = form.n
    source_p, source_q = form.p - power, form.q - power
    solution = linalg.solve(g_power_matrix(n, source_p, source_q, power), _flatten(form))
    if solution is None:
        raise DoubleFormError(f"form is not divisible by g^{power}")
    return _unflatten(n, source_p, source_q, solution)


# -- closed-form Hodge star on Bianchi tensors --------------------------------


def _require_bianchi_symmetric(form: DoubleForm, who: str) -> None:
    if form.p != form.q:
        raise DegreeError(f"{who} needs a square bidegree, got ({form.p},{form.q})")
    if not form.is_symmetric():
        raise BianchiRequiredError(f"{who} needs a symmetric form")
    if not form.bianchi_sum().is_zero():
        raise BianchiRequiredError(f"{who} needs the first Bianchi identity to hold")


def star_bianchi(form: DoubleForm, k: int) -> DoubleForm:
    """star(g^{k-p} w) / (k-p)! through contractions only, for Bianchi w.

    Equals  sum_{r=max(0,p-n+k)}^{p} (-1)^{r+p}/r! g^{n-k-p+r}/(n-k-p+r)! c^r w
    and must agree with the direct Hodge star; validates the symmetry and
    Bianchi preconditions eagerly since the identity does not hold without
    them.
    """
    _require_bianchi_symmetric(form, "star_bianchi")
    n, p = form.n, form.p
    if not (1 <= p and _is_count(k, p, n)):
        raise DegreeError(f"need 1 <= p <= k <= n, got p={p}, k={k}, n={n}")
    chain = contractions(form, p)
    return g_power_sum(n, n - k, n - k, [
        (Fraction((-1) ** (r + p), factorial(r) * factorial(n - k - p + r)),
         n - k - p + r, chain[r])
        for r in range(max(0, p - n + k), p + 1)
    ])


def star_in_components(
    decomposition: EffectiveDecomposition, g_power: int = 0
) -> DoubleForm:
    """star(g^l w) assembled from the effective components of w.

        star(g^l w) = sum_{i=0}^{min(p, n-p-l)}
                      (p-i+l)! (-1)^i / (n-p-l-i)!  g^{n-p-l-i} . w_i

    Requires every component to be symmetric, Bianchi, and effective, which
    is what decompose produces from a symmetric Bianchi input.
    """
    n, p = decomposition.n, decomposition.p
    if not _is_count(g_power, 0):
        raise DegreeError(f"g-power must be nonnegative, got {g_power}")
    for k, comp in enumerate(decomposition.components):
        if k == 0:
            continue
        _require_bianchi_symmetric(comp, "star_in_components (component)")
        if not is_effective(comp):
            raise BianchiRequiredError(
                f"star_in_components needs effective components; "
                f"component {k} has a nonzero contraction"
            )
    top = n - p - g_power
    return g_power_sum(n, max(top, 0), max(top, 0), [
        (Fraction(factorial(p - i + g_power) * (-1) ** i, factorial(top - i)), top - i,
         decomposition.components[i])
        for i in range(min(p, top) + 1)
    ])
