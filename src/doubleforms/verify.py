"""Seeded, deterministic verification suites.

Every algebraic identity the package claims is wired into an executable
check.  A run is fully determined by (suite, n, trials, seed); failures
carry reproducing inputs serialized inline.  Wall time is reported out of
band so that reports stay byte-identical across runs.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, partial
from math import comb, factorial, inf, prod

from . import serialize
from .core import (
    DoubleForm,
    DoubleFormError,
    _diagonal,
    _from_cells,
    contractions,
    make_g,
    make_scalar,
    make_zero,
    make_basis,
    eval_oracle,
)
from .curvature import (
    CurvatureTensor,
    Frame,
    _model_form,
    avez_pairing,
    einstein_tensor,
    has_constant_sectional,
    is_einstein,
    make_conformally_flat,
    make_constant_curvature,
    make_hypersurface,
    make_product,
    power,
    pq_curvature_tensor,
    pq_sectional,
    sectional_curvature,
    sign_report_h4,
    weyl_invariant,
)
from .decomposition import (
    _g_power_kernel,
    decompose,
    is_effective,
    map_rank,
    project_conformal,
    star_bianchi,
    star_in_components,
)
from .exterior import _check_dimension, _is_count, subset_masks
from .linalg import KernelProjector, keyed_blocks


class UsageError(ValueError):
    """Unknown suite or malformed verify parameters."""


# -- deterministic random inputs ------------------------------------------------


def random_form(rng: random.Random, n: int, p: int, q: int, density: float = 0.25) -> DoubleForm:
    """Sparse integer-coefficient form: cells hit with the given density,
    values uniform in [-9, 9].

    Each value is drawn as CPython's rng.randint(-9, 9) draws it, without
    its call chain (randint -> randrange -> _randbelow): r = getrandbits(5),
    drawn again while r >= 19, gives r - 9.  So the forms, and the state rng
    is left in, are those of the randint loop, which
    tests/test_fast_path_oracles.py keeps as this function's oracle
    (test_random_form_draws_the_randint_stream).
    """
    form = make_zero(n, p, q)
    col_masks = form.col_masks
    uniform, getrandbits = rng.random, rng.getrandbits
    for mask_i in form.row_masks:
        row = {}
        for mask_j in col_masks:
            if uniform() < density:
                r = getrandbits(5)
                while r >= 19:
                    r = getrandbits(5)
                if r != 9:
                    row[mask_j] = r - 9
        if row:
            form.cells[mask_i] = row
    return form


def random_symmetric(rng: random.Random, n: int, p: int) -> DoubleForm:
    form = random_form(rng, n, p, p)
    return (form + form.transpose()).scale(Fraction(1, 2))


def _bianchi_blocks(n: int, p: int):
    """The keyed blocks of the first Bianchi sum on D^{p,p}, a cell's image
    read off bianchi_sum of its basis form: the sum moves one index of J - I
    into I, so it keeps the key (I & J, I | J) of e_I (x) e_J."""
    masks = subset_masks(n, p)
    return keyed_blocks(
        [(mask_i, mask_j) for mask_i in masks for mask_j in masks],
        lambda cell: (cell[0] & cell[1], cell[0] | cell[1]),
        lambda cell: [((mask_i, mask_j), num) for mask_i, row
                      in _from_cells(n, p, p, {cell: 1}, 1).bianchi_sum().cells.items()
                      for mask_j, num in row.items()],
        f"the Bianchi sum on D^({p},{p}) at n={n}, keyed by (I & J, I | J)",
    )


@lru_cache(maxsize=None)
def bianchi_projector(n: int, p: int) -> KernelProjector:
    """Orthogonal projector onto Ker B in D^{p,p}, over the cells (mask_I, mask_J)."""
    return KernelProjector(_bianchi_blocks(n, p))


def random_bianchi(rng: random.Random, n: int, p: int, effective: bool = False) -> DoubleForm:
    """Random element of C_1^p: symmetrize, then project onto Ker B exactly,
    block by block on the form's cells.

    Ker B is transpose-invariant on square bidegrees, so the projection of a
    symmetric form stays symmetric; this is asserted as a tripwire.  With
    effective, the result is further projected onto Ker c by
    project_conformal, its top effective component: B commutes with
    multiplication by g and the effective split is orthogonal, so the two
    projections commute and this is the projection onto Ker B and Ker c
    together.
    """
    form = random_symmetric(rng, n, p)
    nums, den = bianchi_projector(n, p).project({
        (mask_i, mask_j): num for mask_i, row in form.cells.items() for mask_j, num in row.items()
    })
    projected = _from_cells(n, p, p, nums, den * form.den)
    assert projected.is_symmetric()
    return project_conformal(projected) if effective else projected


def random_vector(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-4, 4)) for _ in range(n)]


def random_frame(rng: random.Random, n: int, p: int) -> Frame:
    while True:
        vectors = [random_vector(rng, n) for _ in range(p)]
        try:
            return Frame.from_vectors(n, vectors)
        except DoubleFormError:
            continue


def elementary_symmetric(values, k: int) -> Fraction:
    """e_k of the values by iterated polynomial expansion (independent oracle)."""
    poly = [Fraction(1)]
    for value in values:
        new = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i] += c
            new[i + 1] += c * value
        poly = new
    return poly[k] if k < len(poly) else Fraction(0)


def dim_effective(n: int, s: int, t: int) -> int:
    """dim E^{s,t}: full cell count minus the (onto) contraction image."""
    if s < 0 or t < 0:
        return 0
    if s + t > n + 1:
        return 0
    lower = comb(n, s - 1) * comb(n, t - 1) if s >= 1 and t >= 1 else 0
    return comb(n, s) * comb(n, t) - lower


def predicted_g_power_rank(n: int, p: int, q: int, power: int) -> int:
    """Rank of g^power on D^{p,q} from injectivity plus the effective split.

    The piece g^j E^{p-j,q-j} survives multiplication by g^power exactly when
    (p-j)+(q-j)+(j+power) <= n, and surviving images stay independent.
    """
    total = 0
    for j in range(0, min(p, q) + 1):
        if p + q - j + power <= n:
            total += dim_effective(n, p - j, q - j)
    return total


# -- run records -----------------------------------------------------------------


@dataclass
class CheckFailure:
    check: str
    case: str
    detail: str
    inputs: dict


@dataclass
class CheckResult:
    """Cases and failures of one named check; the check records into it."""

    name: str
    cases: int = 0
    failures: list[CheckFailure] = field(default_factory=list)
    elapsed: float = 0.0  # reported out of band, never part of the canonical dict

    def count(self, passed: int):
        """Count passed cases that a check did not record one by one."""
        self.cases += passed

    def case(self, label: str, passed: bool, detail: str = "mismatch", **inputs):
        self.cases += 1
        if not passed:
            self.failures.append(
                CheckFailure(self.name, label, detail, serialize._plain(inputs))
            )

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": [asdict(f) for f in self.failures],
        }


@dataclass
class VerifyOutcome:
    suite: str
    n: int
    trials: int
    seed: int
    checks: list[CheckResult]
    elapsed: float  # reported out of band, never part of the canonical dict

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def cases(self) -> int:
        return sum(check.cases for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "cases": self.cases,
            "failures": sum(len(c.failures) for c in self.checks),
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
        }

    def timings_dict(self) -> dict:
        """Wall time and case count of the run and of each check, in run order."""
        return {
            "suite": self.suite,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "cases": self.cases,
            "elapsed_s": self.elapsed,
            "checks": [
                {"name": c.name, "cases": c.cases, "elapsed_s": c.elapsed} for c in self.checks
            ],
        }


def _cases_per_config(trials: int, configs: int) -> int:
    return max(1, trials // max(configs, 1))


def _config_cases(configs: list, trials: int, weight: int = 1) -> list:
    """(config, i) config by config, i < _cases_per_config(trials, weight *
    len(configs)): the cases of a check that spreads trials over configs."""
    per = _cases_per_config(trials, weight * len(configs))
    return [(config, i) for config in configs for i in range(per)]


def _equal_or_both_zero(left: DoubleForm, right: DoubleForm) -> bool:
    """Equality tolerant of zero forms whose degrees were clamped."""
    if (left.p, left.q) == (right.p, right.q):
        return left == right
    return left.is_zero() and right.is_zero()


def _clamped_sum(n: int, p: int, q: int, terms) -> DoubleForm | None:
    """The sum in D^{p,q} of terms, or None at the first nonzero term of
    another bidegree; zero terms of a clamped degree are skipped."""
    total = make_zero(n, p, q)
    for term in terms:
        if (term.p, term.q) == (p, q):
            total = total + term
        elif not term.is_zero():
            return None
    return total


# -- core-identities suite ---------------------------------------------------


def check_graded_commutativity(rec, rng, n, trials):
    configs = [
        (p, q, r, s)
        for p, q, r, s in itertools.product(range(0, min(n, 3) + 1), repeat=4)
        if p + r <= n and q + s <= n
    ]
    for (p, q, r, s), i in _config_cases(configs, trials):
        a = random_form(rng, n, p, q)
        b = random_form(rng, n, r, s)
        sign = (-1) ** (p * r + q * s)
        rec.case(
            f"(p,q,r,s)=({p},{q},{r},{s})#{i}",
            a.mul(b) == sign * b.mul(a),
            "w.t != (-1)^(pr+qs) t.w",
            left=a,
            right=b,
        )


def check_associativity(rec, rng, n, trials):
    configs = [
        ((1, 1), (1, 1), (1, 1)),
        ((1, 0), (0, 1), (1, 1)),
        ((2, 1), (1, 1), (1, 2)),
        ((2, 2), (1, 1), (1, 0)),
    ]
    for degrees, i in _config_cases(configs, trials):
        a = random_form(rng, n, *degrees[0])
        b = random_form(rng, n, *degrees[1])
        c = random_form(rng, n, *degrees[2])
        rec.case(
            f"degrees={degrees}#{i}",
            a.mul(b).mul(c) == a.mul(b.mul(c)),
            "(a.b).c != a.(b.c)",
            a=a,
            b=b,
            c=c,
        )


def check_product_oracle(rec, rng, n, trials):
    nn = min(n, 4)  # the permutation sum is exponential in the degrees
    configs = [((1, 1), (1, 1)), ((1, 0), (0, 1)), ((1, 1), (1, 0)), ((2, 1), (1, 1))]
    basis = [[Fraction(1 if i == j else 0) for j in range(nn)] for i in range(nn)]
    for (pq1, pq2), i in _config_cases(configs, trials, 4):
        p_total = pq1[0] + pq2[0]
        q_total = pq1[1] + pq2[1]
        if p_total > nn or q_total > nn:
            continue
        a = random_form(rng, nn, *pq1, density=0.5)
        b = random_form(rng, nn, *pq2, density=0.5)
        product = a.mul(b)
        for _ in range(4):
            rows = sorted(rng.sample(range(nn), p_total))
            cols = sorted(rng.sample(range(nn), q_total))
            direct = product[tuple(rows), tuple(cols)] if p_total and q_total else (
                product.evaluate([basis[r] for r in rows], [basis[c] for c in cols])
            )
            via_oracle = eval_oracle(
                a, b, [basis[r] for r in rows], [basis[c] for c in cols]
            )
            rec.case(
                f"{pq1}x{pq2}#{i} on {rows}|{cols}",
                direct == via_oracle,
                "mul disagrees with the permutation-sum oracle",
                left=a,
                right=b,
            )


def _stored_values(form: DoubleForm):
    """(cell, value) for each stored cell (mask_I, mask_J) of form, in storage
    order; entries() would sort them."""
    den = form.den
    return (
        ((mask_i, mask_j), Fraction(num, den))
        for mask_i, row in form.cells.items() for mask_j, num in row.items()
    )


def check_adjointness(rec, rng, n, trials):
    """<g w, t> = <w, c t>: the contraction c is the adjoint of multiplication
    by g.

    At n <= 4 every pair of basis forms e_L of D^{p,q} and e_R of
    D^{p+1,q+1} is a case.  The basis forms e_I (x) e_J are orthonormal for
    the inner product, so <g e_L, e_R> is the coefficient (g e_L)[R] and
    <e_L, c e_R> is (c e_R)[L].  Both are read off the stored cells of g e_L
    and c e_R, into maps keyed by (L, R).  A pair in neither map has no
    stored cell on either side, so it compares 0 with 0 and passes: only the
    pairs in the maps are compared, and each that differs is recorded in the
    order of the all-pairs loop, with e_L and e_R as its inputs.  At n >= 5
    random pairs of forms are compared through inner.
    """
    g = make_g(n)
    if n <= 4:
        for p in range(n):
            for q in range(n):
                lefts = [(mi, mj) for mi in subset_masks(n, p) for mj in subset_masks(n, q)]
                rights = [
                    (mk, ml) for mk in subset_masks(n, p + 1) for ml in subset_masks(n, q + 1)
                ]
                g_side = {
                    (left, right): value
                    for left in lefts
                    for right, value in _stored_values(g.mul(_from_cells(n, p, q, {left: 1}, 1)))
                }
                c_side = {
                    (left, right): value
                    for right in rights
                    for left, value in _stored_values(
                        _from_cells(n, p + 1, q + 1, {right: 1}, 1).contract()
                    )
                }
                failing = [] if g_side == c_side else sorted(
                    (pair for pair in g_side.keys() | c_side.keys()
                     if g_side.get(pair, 0) != c_side.get(pair, 0)),
                    key=lambda pair: (lefts.index(pair[0]), rights.index(pair[1])),
                )
                rec.count(len(lefts) * len(rights) - len(failing))
                for left, right in failing:
                    rec.case(
                        f"basis p={p} q={q}",
                        False,
                        "<gw,t> != <w,ct>",
                        left=_from_cells(n, p, q, {left: 1}, 1),
                        right=_from_cells(n, p + 1, q + 1, {right: 1}, 1),
                    )
        return
    configs = [(p, q) for p in range(n) for q in range(n)]
    for (p, q), i in _config_cases(configs, trials):
        a = random_form(rng, n, p, q)
        b = random_form(rng, n, p + 1, q + 1)
        rec.case(
            f"(p,q)=({p},{q})#{i}",
            g.mul(a).inner(b) == a.inner(b.contract()),
            "<gw,t> != <w,ct>",
            left=a,
            right=b,
        )


def check_metric_contraction_commutator(rec, rng, n, trials):
    configs = [(p, q) for p in range(n) for q in range(n) if p >= 1 and q >= 1]
    g = make_g(n)
    for (p, q), i in _config_cases(configs, trials):
        w = random_form(rng, n, p, q)
        lhs = g.mul(w).contract()
        rhs = g.mul(w.contract()) + (n - p - q) * w
        rec.case(
            f"(p,q)=({p},{q})#{i}",
            lhs == rhs,
            "c(gw) != g(cw) + (n-p-q) w",
            form=w,
        )


def check_iterated_contraction_lemma(rec, rng, n, trials):
    configs = [
        (p, q, k, l)
        for (p, q) in ((1, 1), (2, 1), (2, 2))
        for k in range(1, 4)
        for l in range(1, 4)
        if p + l <= n and q + l <= n and k <= min(p, q) + l and p + q + l <= n + 2
    ]
    for (p, q, k, l), i in _config_cases(configs, trials):
        w = random_form(rng, n, p, q)
        lhs = w.mul_g_power(l).scale(Fraction(1, factorial(l))).contract(k)
        terms = (  # r = 0 is the leading term g^l c^k w / l!
            w.contract(k - r).mul_g_power(l - r).scale(Fraction(
                comb(k, r) * prod(n - p - q + k - l - j for j in range(r)), factorial(l - r)
            ))
            for r in range(min(k, l) + 1)
        )
        rhs = _clamped_sum(n, max(p + l - k, 0), max(q + l - k, 0), terms)
        rec.case(
            f"(p,q,k,l)=({p},{q},{k},{l})#{i}",
            rhs is not None and _equal_or_both_zero(lhs, rhs),
            "c^k(g^l/l! w) closed form failed",
            form=w,
        )


def check_bianchi_leibniz(rec, rng, n, trials):
    configs = [
        (pq, rs)
        for pq in ((1, 1), (2, 1), (2, 2), (1, 2))
        for rs in ((1, 1), (2, 2), (1, 0))
        if pq[0] + rs[0] <= n and pq[1] + rs[1] <= n
    ]
    for (pq, rs), i in _config_cases(configs, trials):
        a = random_form(rng, n, *pq)
        b = random_form(rng, n, *rs)
        lhs = a.mul(b).bianchi_sum()
        sign = (-1) ** (pq[0] + pq[1])
        rhs_terms = [a.bianchi_sum().mul(b), sign * a.mul(b.bianchi_sum())]
        rhs = _clamped_sum(n, lhs.p, lhs.q, rhs_terms)
        rec.case(
            f"{pq}x{rs}#{i}",
            rhs is not None and lhs == rhs,
            "B(w.t) != Bw.t + (-1)^(p+q) w.Bt",
            left=a,
            right=b,
        )


def check_bianchi_kernel_closure(rec, rng, n, trials):
    per = max(1, trials // 2)
    for i in range(per):
        a = random_bianchi(rng, n, 2) if n >= 3 else random_symmetric(rng, n, 1)
        b = random_symmetric(rng, n, 1)
        assert a.bianchi_sum().is_zero() and b.bianchi_sum().is_zero()
        rec.case(
            f"product#{i}",
            a.mul(b).bianchi_sum().is_zero(),
            "product of Bianchi forms left Ker B",
            left=a,
            right=b,
        )


# -- hodge suite ---------------------------------------------------------------


def check_double_star(rec, rng, n, trials):
    configs = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    for (p, q), i in _config_cases(configs, trials):
        w = random_form(rng, n, p, q)
        sign = -1 if ((p + q) * (n - p - q)) % 2 else 1
        rec.case(
            f"(p,q)=({p},{q})#{i}",
            w.hodge().hodge() == sign * w,
            "** != (-1)^((p+q)(n-p-q)) id",
            form=w,
        )


def check_metric_star_contract(rec, rng, n, trials):
    # The factor-wise star satisfies gw = (-1)^(n(p+q)) *c*w; the sign is +1
    # on every even-total bidegree, in particular throughout the square
    # bidegrees where curvature structures live.
    configs = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    g = make_g(n)
    for (p, q), i in _config_cases(configs, trials):
        sign = -1 if (n * (p + q)) % 2 else 1
        w = random_form(rng, n, p, q)
        lhs = g.mul(w)
        rhs = w.hodge().contract().hodge()
        ok = _equal_or_both_zero(lhs, sign * rhs)
        if (p + q) % 2 == 0:
            ok = ok and _equal_or_both_zero(lhs, rhs)
        rec.case(
            f"(p,q)=({p},{q})#{i}",
            ok,
            "gw != (-1)^(n(p+q)) *c*w",
            form=w,
        )


def check_inner_via_star(rec, rng, n, trials):
    configs = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    for (p, q), i in _config_cases(configs, trials):
        # *(*w.t) picks up the graded-commutativity sign between *w and t
        swap_sign = -1 if (p * (n - p) + q * (n - q)) % 2 else 1
        a = random_form(rng, n, p, q)
        b = random_form(rng, n, p, q)
        inner = a.inner(b)
        ok = (
            inner == a.mul(b.hodge()).hodge().scalar_value()
            and inner == swap_sign * a.hodge().mul(b).hodge().scalar_value()
        )
        rec.case(
            f"(p,q)=({p},{q})#{i}", ok, "<w,t> != *(w.*t)", left=a, right=b
        )


def check_star_adjoint_sign(rec, rng, n, trials):
    configs = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    for (p, q), i in _config_cases(configs, trials):
        a = random_form(rng, n, p, q)
        b = random_form(rng, n, n - p, n - q)
        sign = -1 if ((p + q) * (n - p - q)) % 2 else 1
        rec.case(
            f"(p,q)=({p},{q})#{i}",
            a.inner(b.hodge()) == sign * a.hodge().inner(b),
            "<w,*t> != (-1)^((p+q)(n-p-q)) <*w,t>",
            left=a,
            right=b,
        )


def check_star_metric_powers(rec, rng, n, trials):
    one = make_scalar(n, 1)
    for k in range(n + 1):
        lhs = one.mul_g_power(k).scale(Fraction(1, factorial(k))).hodge()
        rhs = one.mul_g_power(n - k).scale(Fraction(1, factorial(n - k)))
        rec.case(f"k={k}", lhs == rhs, "*(g^k/k!) != g^(n-k)/(n-k)!")


# -- decomposition suite ---------------------------------------------------------


def _effective_law_scale(n: int, p: int, k: int, l: int) -> Fraction:
    """s with c^k(g^l w) = s g^(l-k) w for effective w in D^{p,p}, k <= l:
    l!/(l-k)! prod_{j=1}^{k} (n - 2p - l + j)."""
    falling = prod(n - 2 * p - l + j for j in range(1, k + 1))
    return Fraction(factorial(l), factorial(l - k)) * falling


def check_decompose_roundtrip(rec, rng, n, trials):
    degrees = [p for p in (1, 2, n - 1, n) if 1 <= p <= n and comb(n, p) ** 2 <= 4096]
    per = _cases_per_config(trials, len(degrees))
    for p in sorted(set(degrees)):
        for i in range(per):
            w = random_form(rng, n, p, p)
            d = decompose(w)
            ok = d.reconstruct() == w and all(
                is_effective(c) for c in d.components[1:]
            )
            rec.case(f"p={p}#{i}", ok, "decompose/reconstruct failed", form=w)


def check_effective_orthogonality(rec, rng, n, trials):
    degrees = [p for p in (1, 2) if 2 * p <= n]
    g = make_g(n)
    for p, i in _config_cases(degrees, trials):
        w = random_form(rng, n, p, p)
        effective_part = decompose(w).components[p]
        other = random_form(rng, n, p - 1, p - 1)
        rec.case(
            f"p={p}#{i}",
            effective_part.inner(g.mul(other)) == 0,
            "Ker c not orthogonal to gD",
            form=w,
            other=other,
        )


def check_effective_pairing(rec, rng, n, trials):
    # <g^a w1, g^b w2> vanishes across different powers or degrees, and
    # scales by a! prod_{i<a}(n-2r-i) on matching effective degree-r forms.
    configs = [
        (a, r) for a in (1, 2) for r in (1, 2) if 2 * r <= n and a + r <= n
    ]
    for (a, r), i in _config_cases(configs, trials):
        w1 = decompose(random_form(rng, n, r, r)).components[r]
        w2 = decompose(random_form(rng, n, r, r)).components[r]
        scale = _effective_law_scale(n, r, a, a)  # <g^a w1, g^a w2> = <w1, c^a g^a w2>
        ok = w1.mul_g_power(a).inner(w2.mul_g_power(a)) == scale * w1.inner(w2)
        if a + r + 1 <= n and r >= 2:
            other = decompose(random_form(rng, n, r - 1, r - 1)).components[r - 1]
            ok = ok and w1.mul_g_power(a).inner(other.mul_g_power(a + 1)) == 0
        rec.case(
            f"(a,r)=({a},{r})#{i}",
            ok,
            "effective pairing scale failed",
            left=w1,
            right=w2,
        )


def check_effective_contraction_law(rec, rng, n, trials):
    configs = [
        (p, k, l)
        for p in (1, 2)
        for k in (1, 2, 3)
        for l in (0, 1, 2, 3)
        if 2 * p <= n and p + l <= n
    ]
    for (p, k, l), i in _config_cases(configs, trials):
        w = decompose(random_form(rng, n, p, p)).components[p]
        lhs = w.mul_g_power(l).contract(k)
        if l < k:
            rec.case(
                f"(p,k,l)=({p},{k},{l})#{i}",
                lhs.is_zero(),
                "c^k(g^l w) != 0 for l < k on effective w",
                form=w,
            )
        else:
            rec.case(
                f"(p,k,l)=({p},{k},{l})#{i}",
                lhs == w.mul_g_power(l - k).scale(_effective_law_scale(n, p, k, l)),
                "effective contraction law failed",
                form=w,
            )


def check_contraction_of_components(rec, rng, n, trials):
    degrees = [p for p in (1, 2) if 2 * p <= n]
    per = _cases_per_config(trials, len(degrees) * 2)
    for p in degrees:
        for k in range(1, p + 1):
            for i in range(per):
                w = random_form(rng, n, p, p)
                comps = decompose(w).components
                rhs = make_zero(n, p - k, p - k)
                for idx in range(k, p + 1):
                    scale = _effective_law_scale(n, p - idx, k, idx)
                    rhs = rhs + comps[p - idx].mul_g_power(idx - k).scale(scale)
                rec.case(
                    f"(p,k)=({p},{k})#{i}",
                    w.contract(k) == rhs,
                    "c^k through components failed",
                    form=w,
                )


def check_metric_power_rank(rec, rng, n, trials):
    for p in range(0, min(n, 2) + 1):
        for q in range(0, min(n, 2) + 1):
            for l in range(0, 3):
                got = map_rank(n, p, q, l)
                want = predicted_g_power_rank(n, p, q, l)
                full = comb(n, p) * comb(n, q)
                ok = got == want
                if p + q + l <= n:
                    ok = ok and got == full
                elif l >= 1:
                    # for actual g-powers injectivity fails above the bound
                    ok = ok and got < full
                rec.case(f"(p,q,l)=({p},{q},{l})", ok, f"rank {got} vs predicted {want}")


def check_metric_kernel_contractions(rec, rng, n, trials):
    configs = [
        (p, q, l)
        for p in (1, 2)
        for q in (1, 2)
        for l in (1, 2, 3)
        if n < p + q + l <= n + 2 and p + l <= n and q + l <= n
    ]
    for p, q, l in configs:
        kernel = _g_power_kernel(n, p, q, l)
        k_min = p + q + l - n
        for idx, w in enumerate(itertools.islice(kernel, max(1, trials // 8))):
            ok = w.mul_g_power(l).is_zero() and w.contract(k_min).is_zero()
            rec.case(
                f"(p,q,l)=({p},{q},{l})#{idx}",
                ok,
                "g^l w = 0 but c^k w != 0",
                form=w,
            )


def check_star_closed_form(rec, rng, n, trials):
    degrees = [p for p in (1, 2) if p <= n]
    for p, i in _config_cases(degrees, trials, max(n - 1, 1)):
        w = random_bianchi(rng, n, p)
        for k in range(p, n + 1):
            direct = (
                w.mul_g_power(k - p).scale(Fraction(1, factorial(k - p))).hodge()
            )
            rec.case(
                f"p={p} k={k}#{i}",
                star_bianchi(w, k) == direct,
                "closed-form star != hodge",
                form=w,
            )


def check_star_components_form(rec, rng, n, trials):
    degrees = [p for p in (1, 2) if 2 * p <= n]
    for p, i in _config_cases(degrees, trials, 3):
        w = random_bianchi(rng, n, p)
        d = decompose(w)
        for l in range(0, 3):
            rec.case(
                f"p={p} l={l}#{i}",
                star_in_components(d, l) == w.mul_g_power(l).hodge(),
                "component-form star != hodge",
                form=w,
            )


# -- curvature suite --------------------------------------------------------------


@lru_cache(maxsize=None)
def _fixed_models(n: int) -> tuple[tuple[str, CurvatureTensor], ...]:
    """model_zoo's deterministic models at dimension n, built and certified
    once per n: they depend on n alone, and no check changes a model."""
    eigen = ([1, 1, 1, 0, 2, -1, 1, 3] + [0] * n)[:n]
    conf = ([1, -1, 2, 0, 1, -2, 3, 1] + [0] * n)[:n]
    models = [
        ("constant_1", make_constant_curvature(n, 1)),
        ("constant_-1/2", make_constant_curvature(n, Fraction(-1, 2))),
        ("flat", make_constant_curvature(n, 0)),
        ("hypersurface_diag", make_hypersurface(_diagonal(n, eigen))),
        ("conformally_flat_diag", make_conformally_flat(_diagonal(n, conf))),
    ]
    if n >= 4:
        # the products walk, so that the checks on them test Weyl's product
        # formula (check_product_invariants) rather than compute by it
        left = make_constant_curvature(2, 1)
        right = make_constant_curvature(n - 2, 1)
        models.append(("product_spheres", _walked(make_product(left, right))))
        models.append(
            ("product_with_flat", _walked(make_product(left, make_constant_curvature(n - 2, 0))))
        )
    return tuple(models)


def model_zoo(n: int, rng: random.Random | None = None) -> list[tuple[str, CurvatureTensor]]:
    """Deterministic models at dimension n, plus one projected random tensor
    drawn from rng; a new list on every call."""
    models = list(_fixed_models(n))
    if rng is not None and n >= 3:
        models.append(
            ("random_bianchi", CurvatureTensor(random_bianchi(rng, n, 2)))
        )
    return models


def check_einstein_trace(rec, rng, n, trials):
    if n < 2:
        return
    for name, model in model_zoo(n, rng):
        for q in range(1, min(2, n // 2) + 1):
            t = einstein_tensor(model, q)
            rec.case(
                f"{name} q={q}",
                t.contract().scalar_value() == (n - 2 * q) * weyl_invariant(model, q),
                "trace(T) != (n-2q) h",
                form=model.form,
            )


def check_sectional_sum_recursion(rec, rng, n, trials):
    for name, model in model_zoo(n, rng):
        for q in (1, 2):
            if 2 * q > n:
                continue
            lower_tensor = None  # the previous p's (p,q)-tensor, made once
            for p in range(1, min(n - 2 * q, 3) + 1):
                tensor = pq_curvature_tensor(model, p, q)
                lower = weyl_invariant(model, q) if p == 1 else None
                bases = list(itertools.combinations(range(n), p - 1))
                rng_bases = bases if len(bases) <= 6 else [
                    bases[rng.randrange(len(bases))] for _ in range(6)
                ]
                for base in rng_bases:
                    total = Fraction(0)
                    for k in range(n):
                        if k in base:
                            continue
                        total += sectional_curvature(tensor, Frame.coordinate(n, base + (k,)))
                    target = (n - 2 * q - p + 1) * (
                        lower if p == 1 else sectional_curvature(lower_tensor, Frame.coordinate(n, base))
                    )
                    rec.case(
                        f"{name} (p,q)=({p},{q}) base={base}",
                        total == target,
                        "sum_k s_(p,q)(P,e_k) != (n-2q-p+1) s_(p-1,q)(P)",
                        form=model.form,
                    )
                lower_tensor = tensor


def check_product_invariants(rec, rng, n, trials):
    if n < 4:
        return
    splits = [(a, n - a) for a in range(2, n - 1) if a <= n - a]
    for n1, n2 in splits:
        for lam1, lam2 in ((1, 1), (1, 0), (2, -1)):
            left = make_constant_curvature(n1, lam1)
            right = make_constant_curvature(n2, lam2)
            prod = _walked(make_product(left, right))
            for q in range(1, n // 2 + 1):
                expected = Fraction(0)
                for i in range(q + 1):
                    h1 = weyl_invariant(left, i) if 1 <= i and 2 * i <= n1 else (
                        Fraction(1) if i == 0 else Fraction(0)
                    )
                    h2 = weyl_invariant(right, q - i) if 1 <= q - i and 2 * (q - i) <= n2 else (
                        Fraction(1) if q - i == 0 else Fraction(0)
                    )
                    expected += comb(q, i) * h1 * h2
                rec.case(
                    f"S^{n1}({lam1})xS^{n2}({lam2}) q={q}",
                    weyl_invariant(prod, q) == expected,
                    "product invariant formula failed",
                )


def _walked(model: CurvatureTensor) -> CurvatureTensor:
    """The model's tensor without its model record, so that its invariants
    walk R's powers: the checks hold that walk to the closed forms, and to
    the product formula, that the record would compute itself.  R is made
    from the record by the maker that reading model.form would use, and
    certified once, here; the model itself never makes it."""
    if model.model is None:
        return model
    return CurvatureTensor(_model_form(model.model))


def check_hypersurface_symmetric_functions(rec, rng, n, trials):
    per = max(1, trials // 4)
    for i in range(per):
        values = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        model = _walked(make_hypersurface(_diagonal(n, values)))
        for q in range(1, n // 2 + 1):
            expected = Fraction(factorial(2 * q), 2**q) * elementary_symmetric(values, 2 * q)
            rec.case(
                f"#{i} q={q}",
                weyl_invariant(model, q) == expected,
                "h_2q != (2q)!/2^q e_2q(eigenvalues)",
                eigenvalues=values,
            )


def check_constant_curvature_values(rec, rng, n, trials):
    per = max(1, trials // 6)
    for lam in (Fraction(1), Fraction(-2), Fraction(1, 3)):
        model = _walked(make_constant_curvature(n, lam))
        for q in range(1, n // 2 + 1):
            for p in range(0, n - 2 * q + 1):
                expected = lam**q * Fraction(
                    factorial(n - p), 2**q * factorial(n - 2 * q - p)
                )
                if p == 0:
                    got = pq_sectional(model, 0, q, None)
                    rec.case(f"lam={lam} (p,q)=(0,{q})", got == expected, "s_(0,q) wrong")
                else:
                    tensor = pq_curvature_tensor(model, p, q)
                    for i in range(min(per, 3)):
                        plane = random_frame(rng, n, p)
                        got = sectional_curvature(tensor, plane)
                        rec.case(
                            f"lam={lam} (p,q)=({p},{q})#{i}",
                            got == expected,
                            "s_(p,q) not the constant closed form",
                        )


def check_conformally_flat_values(rec, rng, n, trials):
    per = max(1, trials // 4)
    per = min(per, 6)
    for i in range(per):
        values = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        model = _walked(make_conformally_flat(_diagonal(n, values)))
        for q in range(1, n // 2 + 1):
            for p in range(0, n - 2 * q + 1):
                expected = Fraction(
                    factorial(n - q - p) * factorial(q), factorial(n - 2 * q - p)
                ) * elementary_symmetric(values[: n - p], q)
                got = (
                    pq_sectional(model, 0, q, None)
                    if p == 0
                    else pq_sectional(model, p, q, Frame.coordinate(n, tuple(range(n - p, n))))
                )
                rec.case(
                    f"#{i} (p,q)=({p},{q})",
                    got == expected,
                    "conformally flat closed form failed",
                    eigenvalues=values,
                )


def check_thorpe_converse(rec, rng, n, trials):
    for lam in (Fraction(1), Fraction(-1), Fraction(2, 3)):
        model = make_constant_curvature(n, lam)
        for s in (1, 2):
            for r in (1, 2):
                if s + 2 * r > n or 2 * (s + r) > n:
                    continue
                lam_s = has_constant_sectional(power(model, s).form, 2 * s)
                mu = has_constant_sectional(power(model, s + r).form, 2 * (s + r))
                if lam_s is None or mu is None or lam_s == 0:
                    rec.case(f"lam={lam} s={s} r={r}", False, "powers not constant")
                    continue
                expected = mu * Fraction(
                    factorial(2 * s) * factorial(2 * r), factorial(2 * (s + r))
                ) / lam_s
                got = has_constant_sectional(power(model, r).form, 2 * r)
                rec.case(
                    f"lam={lam} s={s} r={r}",
                    got == expected,
                    "Thorpe converse scaling failed",
                )


def check_power_scaling(rec, rng, n, trials):
    # R^s with constant sectional curvature lam scales h_{2s+2r} off h_{2r}.
    for lam in (Fraction(1), Fraction(-1, 2)):
        model = make_constant_curvature(n, lam)
        for s in (1, 2):
            if 2 * s > n:
                continue
            lam_s = has_constant_sectional(power(model, s).form, 2 * s)
            if lam_s is None:
                continue
            for r in range(1, (n - 2 * s) // 2 + 1):
                expected = (
                    Fraction(factorial(n - 2 * r), factorial(2 * s) * factorial(n - 2 * s - 2 * r))
                    * lam_s
                    * weyl_invariant(model, r)
                )
                rec.case(
                    f"lam={lam} s={s} r={r}",
                    weyl_invariant(model, s + r) == expected,
                    "h_(2s+2r) scaling failed",
                )


def _p_tensors(model: CurvatureTensor):
    """k -> the (k,1)-curvature tensor of model, each made once: a check
    over p asks for s_p and s_(n-p), so every tensor twice."""
    return cache(partial(pq_curvature_tensor, model, q=1))


def _complementary_planes(p_tensor, n: int, p: int):
    """(P, s_p(P), s_(n-p)(P^perp)) over the first eight coordinate p-planes
    P, in lexicographic order, with s_k read off p_tensor(k), the
    (k,1)-curvature tensor (_p_tensors)."""
    upper, lower = p_tensor(p), p_tensor(n - p)
    for idx in list(itertools.combinations(range(n), p))[:8]:
        rest = tuple(sorted(set(range(n)) - set(idx)))
        yield (
            idx,
            sectional_curvature(upper, Frame.coordinate(n, idx)),
            sectional_curvature(lower, Frame.coordinate(n, rest)),
        )


def check_einstein_difference(rec, rng, n, trials):
    models = [m for m in model_zoo(n, rng) if is_einstein(m[1])]
    for name, model in models:
        scalar = model.form.contract().contract().scalar_value()
        p_tensor = _p_tensors(model)
        for p in range(2, n - 1):
            expected = Fraction(n - 2 * p, 2 * n) * scalar
            for idx, upper, lower in _complementary_planes(p_tensor, n, p):
                rec.case(
                    f"{name} p={p} P={idx}",
                    upper - lower == expected,
                    "s_p(P) - s_(n-p)(P^perp) != (n-2p)/(2n) c^2R",
                    form=model.form,
                )


def check_constant_sum(rec, rng, n, trials):
    for lam in (Fraction(1), Fraction(-1)):
        model = make_constant_curvature(n, lam)
        scalar = model.form.contract().contract().scalar_value()
        p_tensor = _p_tensors(model)
        for p in range(2, n - 1):
            if 2 * p == n:
                continue
            expected = Fraction(2 * p * (p - 1) + (n - 2 * p) * (n - 1), 2 * n * (n - 1)) * scalar
            for idx, upper, lower in _complementary_planes(p_tensor, n, p):
                rec.case(
                    f"lam={lam} p={p} P={idx}",
                    upper + lower == expected,
                    "s_p(P) + s_(n-p)(P^perp) off the constant-curvature value",
                )


def check_constant_pq_characterization(rec, rng, n, trials):
    # forward on constant curvature; refuted on a sphere product
    model = make_constant_curvature(n, Fraction(2))
    for q in (1, 2):
        if 2 * q > n:
            continue
        for p in range(2 * q, n - 2 * q + 1):
            expected = Fraction(2) ** q * Fraction(
                factorial(n - p), 2**q * factorial(n - 2 * q - p)
            )
            tensor = pq_curvature_tensor(model, p, q)
            values = {
                sectional_curvature(tensor, random_frame(rng, n, p)) for _ in range(3)
            }
            ok = values == {expected} and has_constant_sectional(
                power(model, q).form, 2 * q
            ) is not None
            rec.case(f"forward q={q} p={p}", ok, "constant model not constant")
    if n >= 4:
        product = make_product(
            make_constant_curvature(2, 1), make_constant_curvature(n - 2, 1)
        )
        intra = pq_sectional(product, 2, 1, Frame.coordinate(n, (0, 1)))
        cross = pq_sectional(product, 2, 1, Frame.coordinate(n, (0, 2)))
        refuted = intra != cross and has_constant_sectional(product.form, 2) is None
        rec.case("refute product", refuted, "sphere product looked constant")
        # p < 2q branch: s_1 constant iff cR is proportional to g.  Sphere
        # products realize both directions (Einstein at matched dimensions,
        # non-Einstein otherwise); coordinate lines witness either way since
        # the model is diagonal.
        lines = {pq_sectional(product, 1, 1, Frame.coordinate(n, (i,))) for i in range(n)}
        rec.case(
            "low-p branch product",
            (len(lines) == 1) == is_einstein(product),
            "s_1 constancy on lines must match cR ~ g",
        )
        skew = make_hypersurface(_diagonal(n, [1, 1, 1, 0] + [0] * (n - 4)))
        lines = {pq_sectional(skew, 1, 1, Frame.coordinate(n, (i,))) for i in range(n)}
        rec.case(
            "low-p branch refute",
            not is_einstein(skew) and len(lines) > 1,
            "non-Einstein hypersurface should have varying s_1",
        )


def check_metric_trace_formula(rec, rng, n, trials):
    # (g^p w)(P,P) = p! trace(w restricted to Lambda^r P) on coordinate frames
    configs = [(p, r) for p in (1, 2) for r in (1, 2) if p + r <= n]
    for (p, r), i in _config_cases(configs, trials, 2):
        w = random_symmetric(rng, n, r)
        idx = tuple(sorted(rng.sample(range(n), p + r)))
        value = w.mul_g_power(p)[idx, idx]
        trace = sum(
            w[sub, sub] for sub in itertools.combinations(idx, r)
        )
        rec.case(
            f"(p,r)=({p},{r})#{i}",
            value == factorial(p) * trace,
            "g^p w on a frame != p! trace on sub-planes",
            form=w,
        )


def check_constant_sectional_shape(rec, rng, n, trials):
    per = max(1, trials // 4)
    for p in (1, 2):
        if p > n:
            continue
        model = make_scalar(n, 1).mul_g_power(p).scale(Fraction(1, factorial(p)))
        for i in range(per):
            c = Fraction(rng.randint(-5, 5))
            got = has_constant_sectional(c * model, p)
            ok = got == c
            if n > p:  # perturb one off-diagonal cell; proportionality must break
                perturbed = c * model
                perturbed = perturbed + make_basis(
                    n, tuple(range(p)), tuple(range(1, p + 1))
                )
                ok = ok and has_constant_sectional(perturbed, p) is None
            k_val = sectional_curvature(model, random_frame(rng, n, p))
            rec.case(
                f"p={p}#{i}",
                ok and k_val == 1,
                "g^p/p! shape detection failed",
            )


# -- avez suite --------------------------------------------------------------------


def _middle_bianchi_pairs(rng, n, trials):
    """max(1, trials // 2) pairs (i, a, b) of random Bianchi forms of the
    middle degree n/2; none for odd n or a middle stratum beyond the case
    budget."""
    if n % 2 or comb(n, n // 2) ** 2 > 2500:
        return
    for i in range(max(1, trials // 2)):
        yield i, random_bianchi(rng, n, n // 2), random_bianchi(rng, n, n // 2)


def check_middle_pairing(rec, rng, n, trials):
    for i, a, b in _middle_bianchi_pairs(rng, n, trials):
        direct = a.mul(b).hodge().scalar_value()
        rec.case(
            f"#{i}",
            avez_pairing(a, b) == direct,
            "alternating contraction sum != *(w.t)",
            left=a,
            right=b,
        )


def check_metric_power_pairing(rec, rng, n, trials):
    p = n // 2
    for i, a, b in _middle_bianchi_pairs(rng, n, trials):
        total = Fraction(0)
        for r in range(p + 1):
            total += Fraction((-1) ** (r + p), factorial(r) ** 2) * a.mul_g_power(
                r
            ).inner(b.mul_g_power(r))
        rec.case(
            f"#{i}",
            total == a.mul(b).hodge().scalar_value(),
            "metric-power pairing variant failed",
            left=a,
            right=b,
        )


def check_h4_contraction_formula(rec, rng, n, trials):
    if n < 4:
        return
    for name, model in model_zoo(n, rng):
        f = model.form
        ricci = f.contract()
        scalar = ricci.contract().scalar_value()
        expected = f.norm_sq() - ricci.norm_sq() + Fraction(1, 4) * scalar**2
        rec.case(
            name,
            weyl_invariant(model, 2) == expected,
            "h_4 != |R|^2 - |cR|^2 + 1/4 |c^2R|^2",
            form=f,
        )


def check_gauss_bonnet_alternating(rec, rng, n, trials):
    if n % 4:
        return
    q = n // 4
    for name, model in model_zoo(n, rng):
        total = sum(
            Fraction((-1) ** r, factorial(r) ** 2) * c.norm_sq()
            for r, c in enumerate(contractions(power(model, q).form, 2 * q))
        )
        rec.case(
            name,
            weyl_invariant(model, 2 * q) == total,
            "h_4q != sum (-1)^r/(r!)^2 |c^r R^q|^2",
            form=model.form,
        )


def check_component_pairing(rec, rng, n, trials):
    # gate on the size of the large-degree stratum, which bounds the cost of
    # decomposing its elements
    configs = [p for p in (1, 2) if 1 <= n - p <= n and comb(n, n - p) ** 2 <= 256]
    per = max(1, min(trials // (2 * max(len(configs), 1)), 8))
    for p in configs:
        for i in range(per):
            theta = random_bianchi(rng, n, p)
            omega = random_bianchi(rng, n, n - p)
            d_theta = decompose(theta).components
            d_omega = decompose(omega).components
            total = Fraction(0)
            for idx in range(min(p, n - p) + 1):
                total += (
                    Fraction((-1) ** idx)
                    * factorial(n - 2 * idx)
                    * d_omega[idx].inner(d_theta[idx])
                )
            rec.case(
                f"p={p}#{i}",
                omega.mul(theta).hodge().scalar_value() == total,
                "component pairing failed",
                left=omega,
                right=theta,
            )


def check_invariant_split(rec, rng, n, trials):
    if n < 4:
        return
    for name, model in model_zoo(n, rng):
        comps = decompose(model.form).components
        total = Fraction(0)
        for idx in range(min(2, n - 2) + 1):
            total += Fraction((-1) ** idx) * factorial(n - 2 * idx) * comps[idx].norm_sq()
        rec.case(
            name,
            weyl_invariant(model, 2) == Fraction(1, factorial(n - 4)) * total,
            "h_4 component split failed",
            form=model.form,
        )


def _h4_sign_holds(tensor: CurvatureTensor, classification: str) -> bool:
    """Whether sign_report_h4 classifies the tensor as flat when its form is
    zero and as classification otherwise, with the sign inequality holding."""
    report = sign_report_h4(tensor)
    expected = "flat" if tensor.form.is_zero() else classification
    return report.classification == expected and report.inequality_holds


def check_einstein_sign(rec, rng, n, trials):
    if n < 4:
        return
    per = max(1, trials // 4)
    models = [m for m in model_zoo(n, rng) if is_einstein(m[1])]
    for name, model in models:
        ok = _h4_sign_holds(model, "einstein")
        rec.case(name, ok, "Einstein sign theorem violated", form=model.form)
    for i in range(per):
        # generic Einstein tensor: effective Bianchi (2,2) part plus g^2 scalar
        weyl_part = random_bianchi(rng, n, 2, effective=True)
        form = weyl_part + make_scalar(n, Fraction(rng.randint(-3, 3))).mul_g_power(2)
        tensor = CurvatureTensor(form)
        if not is_einstein(tensor):
            rec.case(f"constructed#{i}", False, "construction should be Einstein")
            continue
        ok = _h4_sign_holds(tensor, "einstein")
        rec.case(f"constructed#{i}", ok, "constructed Einstein sign failed", form=form)


def check_conformal_scalar_flat_sign(rec, rng, n, trials):
    if n < 4:
        return
    per = max(1, trials // 4)
    for i in range(per):
        values = [Fraction(rng.randint(-4, 4)) for _ in range(n - 1)]
        values.append(-sum(values))  # traceless: zero scalar curvature
        h = _diagonal(n, values)
        tensor = make_conformally_flat(h)
        ok = _h4_sign_holds(tensor, "conformally_flat_scalar_flat")
        rec.case(f"#{i}", ok, "conformally flat scalar-flat sign failed", form=tensor.form)


# -- suite registry -----------------------------------------------------------------


SUITES: dict[str, tuple] = {
    "core-identities": (
        ("graded_commutativity", check_graded_commutativity),
        ("associativity", check_associativity),
        ("product_oracle", check_product_oracle),
        ("adjointness", check_adjointness),
        ("metric_contraction_commutator", check_metric_contraction_commutator),
        ("iterated_contraction_lemma", check_iterated_contraction_lemma),
        ("bianchi_leibniz", check_bianchi_leibniz),
        ("bianchi_kernel_closure", check_bianchi_kernel_closure),
    ),
    "hodge": (
        ("double_star_sign", check_double_star),
        ("metric_star_contract", check_metric_star_contract),
        ("inner_via_star", check_inner_via_star),
        ("star_adjoint_sign", check_star_adjoint_sign),
        ("star_metric_powers", check_star_metric_powers),
    ),
    "decomposition": (
        ("roundtrip_effectiveness", check_decompose_roundtrip),
        ("effective_orthogonality", check_effective_orthogonality),
        ("effective_pairing", check_effective_pairing),
        ("effective_contraction_law", check_effective_contraction_law),
        ("contraction_of_components", check_contraction_of_components),
        ("metric_power_rank", check_metric_power_rank),
        ("metric_kernel_contractions", check_metric_kernel_contractions),
        ("star_closed_form", check_star_closed_form),
        ("star_components_form", check_star_components_form),
    ),
    "curvature": (
        ("einstein_trace", check_einstein_trace),
        ("sectional_sum_recursion", check_sectional_sum_recursion),
        ("product_invariants", check_product_invariants),
        ("hypersurface_symmetric_functions", check_hypersurface_symmetric_functions),
        ("constant_curvature_values", check_constant_curvature_values),
        ("conformally_flat_values", check_conformally_flat_values),
        ("thorpe_converse", check_thorpe_converse),
        ("power_scaling", check_power_scaling),
        ("einstein_difference", check_einstein_difference),
        ("constant_sum", check_constant_sum),
        ("constant_pq_characterization", check_constant_pq_characterization),
        ("metric_trace_formula", check_metric_trace_formula),
        ("constant_sectional_shape", check_constant_sectional_shape),
    ),
    "avez": (
        ("middle_pairing", check_middle_pairing),
        ("metric_power_pairing", check_metric_power_pairing),
        ("h4_contraction_formula", check_h4_contraction_formula),
        ("gauss_bonnet_alternating", check_gauss_bonnet_alternating),
        ("component_pairing", check_component_pairing),
        ("invariant_split", check_invariant_split),
        ("einstein_sign", check_einstein_sign),
        ("conformal_scalar_flat_sign", check_conformal_scalar_flat_sign),
    ),
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def check_arguments(suite: str, n: int, trials: int, seed: int) -> None:
    """Refuse run_verify's arguments with UsageError before any check runs.
    The CLI also calls this before it opens --timings, so that a usage error
    leaves an existing file as it was."""
    if suite not in SUITE_NAMES:
        raise UsageError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    if not _is_count(n, 2):
        raise UsageError(f"verify needs n >= 2, got {n!r}")
    _check_dimension(n, UsageError)
    if not _is_count(trials, 1):
        raise UsageError(f"verify needs trials >= 1, got {trials!r}")
    if not _is_count(seed, -inf):
        raise UsageError(f"verify needs an integer seed, got {seed!r}")


def run_verify(suite: str, n: int, trials: int, seed: int) -> VerifyOutcome:
    """Run a named suite; deterministic given (suite, n, trials, seed)."""
    check_arguments(suite, n, trials, seed)
    started = time.perf_counter()
    names = list(SUITES) if suite == "all" else [suite]
    results = []
    for suite_name in names:
        for check_name, check in SUITES[suite_name]:
            full_name = f"{suite_name}.{check_name}"
            rng = random.Random(f"{seed}:{suite_name}:{check_name}:{n}:{trials}")
            result = CheckResult(full_name)
            check_started = time.perf_counter()
            check(result, rng, n, trials)
            result.elapsed = time.perf_counter() - check_started
            results.append(result)
    return VerifyOutcome(suite, n, trials, seed, results, time.perf_counter() - started)
