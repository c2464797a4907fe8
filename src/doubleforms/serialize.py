"""JSON schemas and deterministic rendering: reads forms and model specs,
writes forms, decompositions and invariant reports.

Rationals travel as canonical lowest-term strings ("3", "-7/2"); denominators
must be positive.

Emission has one writer, dumps_canonical.  Its text is json.dumps's with
sorted keys and a two-space indent, plus a final newline: ASCII string
escapes, entries in lexicographic cell order.  Besides plain JSON values it
takes forms, decompositions and invariant reports as leaves.  A form's
entries are written row by row straight from its stored numerators, in
entries() order: each row's text up to the column is built once, the text
of each index list followed by what comes after it is cached per
(n, k, depth), and each distinct numerator's value text, reduced against
the form's denominator by one gcd, is built once per form, so no list of
lists and no Fraction is built.
The writer makes its text in two passes.  The first makes the text of
every number (so a number too long to write fails before any output) and
every piece of text but the forms' rows, which it defers.  The second makes
each form's rows as they are needed: dumps_canonical joins the text, and
dumps_canonical(obj, stream), which the CLI uses, writes it to the stream
in chunks of CHUNK_SIZE characters or more, so a large output is never
held whole.
form_to_dict, decomposition_to_dict and report_to_dict build plain dicts
from the same payloads through _plain, the one converter to plain JSON
values, which verify also uses for the inputs of a failed case.  json.dumps
itself is left to the tests, as the writer's oracle.

Parsing: form_from_dict reads a form's entries by one of two routes.  The
bulk route (_read_in_bulk) checks a whole column of the entries at a time:
the types and lengths of the entries, their index lists, indices and
values, the index lists against a cached tuple -> mask table per (n, k),
and the strict order of the (I, J) pairs; it reads each distinct value
once through rational_from_str.  It never raises: on anything it does not
accept, a value rational_from_str refuses included, it declines, and the
validating route (_read_entries) reads the entries one at a time through
_read_index_set and rational_from_str.  Only that route refuses
input, at the first malformed entry, so which inputs are refused, and with
which message, does not depend on the bulk route.  Either way the
numerators are published over the lcm of the values' denominators once,
scaled by core._integer_numerators.
model_spec_from_dict reads a conformally flat h_matrix one entry at a time,
but each distinct string once: the path string of an entry is built only
when its value is read, and symmetry is checked a row against its column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import (
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
)
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import lt

from .core import (
    DoubleForm,
    DoubleFormError,
    _diagonal,
    _integer_numerators,
    _require_cell_budget,
    make_zero,
)
from .curvature import (
    CurvatureTensor,
    InvariantReport,
    make_conformally_flat,
    make_constant_curvature,
    make_hypersurface,
    make_product,
)
from .decomposition import EffectiveDecomposition
from .exterior import MAX_DIMENSION, IndexSet, mask_to_indices, subset_masks, _mask_rank_table


class SchemaError(ValueError):
    """Malformed input; the message carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational_to_str(value: Fraction) -> str:
    try:  # "num", or "num/den"
        return str(Fraction(value))
    except ValueError as exc:  # str() refuses ints past the interpreter's digit limit
        raise DoubleFormError(f"output number too long: {exc}") from exc


def rational_from_str(text, path: str = "value") -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise SchemaError(path, f"expected a rational string, got {text!r}")
    if not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(
            path,
            f"expected 'num' or 'num/den' with positive denominator, got {text!r}",
        )
    num, _, den = text.partition("/")
    try:  # int() refuses more digits than the interpreter's conversion limit
        num, den = int(num), int(den or 1)
    except ValueError as exc:
        raise SchemaError(path, f"number too long: {exc}") from exc
    if den == 0:
        raise SchemaError(path, "zero denominator")
    return Fraction(num, den)


# Every field is given, so neither the caller's decimal context (rounding,
# traps, capitals) nor a changed decimal.DefaultContext reaches the output.
_DECIMAL6 = Context(
    prec=6, rounding=ROUND_HALF_EVEN, Emin=-999999, Emax=999999, capitals=1, clamp=0,
    traps=[InvalidOperation, DivisionByZero, Overflow],
)


def decimal6(value: Fraction) -> str:
    """Six significant digits, exact decimal division (no float round trip)."""
    value = Fraction(value)
    quotient = _DECIMAL6.divide(Decimal(value.numerator), Decimal(value.denominator))
    return _DECIMAL6.to_sci_string(quotient)


# A streamed text goes to stream.write in chunks of at least this many
# characters, the last excepted, so a shorter text is one write.  A chunk's
# rows and its joined text are held together, about 2 MB here, beside the
# 50 MB of a dense (10,5) decompose.  Of the sizes measured (64 KiB to
# 2 MiB), only this one kept the peak of bench/run.py's decompose_dense
# (which keeps each output in a StringIO) low in every environment tried:
# the others' peaks depended on where glibc's heap put the buffers
# (BENCH_30.json).
CHUNK_SIZE = 1 << 20


def dumps_canonical(obj, stream=None) -> str | None:
    """Canonical JSON text of obj: strings, ints, bools, None, lists and
    str-keyed dicts, with forms, decompositions and invariant reports
    allowed as leaves.  Given a stream, the text goes to stream.write in
    chunks instead (see _chunks), and None is returned.  The text of every
    number is made before any chunk is, so a number whose text cannot be
    made (DoubleFormError) leaves the stream untouched."""
    pieces: list = []
    _write(obj, 0, pieces)
    pieces.append("\n")
    if stream is None:
        return "".join(_chunks(pieces))
    for chunk in _chunks(pieces):
        stream.write(chunk)
    return None


def _chunks(pieces: list):
    """The text of _write's pieces in strings of CHUNK_SIZE characters or
    more, the last excepted: each string piece as it is, and each form's
    entries a row at a time, as its rows are made."""
    chunk, size = [], 0
    for piece in pieces:
        if type(piece) is not str:  # a form's rows
            for row in piece:
                chunk.append(row)
                size += len(row)
                if size >= CHUNK_SIZE:
                    yield "".join(chunk)
                    chunk, size = [], 0
            continue
        chunk.append(piece)
        size += len(piece)
        if size >= CHUNK_SIZE:
            yield "".join(chunk)
            chunk, size = [], 0
    if chunk:
        yield "".join(chunk)


@lru_cache(maxsize=None)
def _newline(depth: int) -> str:
    return "\n" + "  " * depth


def _write(obj, depth: int, out: list) -> None:
    """Append obj's canonical text at the given nesting depth, as strings
    and, for the entries of a nonempty form, an iterator of its rows' text;
    bool before int."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = _newline(depth + 1)
        out.append("[" + inner)
        for index, value in enumerate(obj):
            if index:
                out.append("," + inner)
            _write(value, depth + 1, out)
        out.append(_newline(depth) + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = _newline(depth + 1)
        out.append("{" + inner)
        for index, key in enumerate(sorted(obj)):
            if index:
                out.append("," + inner)
            out.append(encode_basestring_ascii(key) + ": ")
            _write(obj[key], depth + 1, out)
        out.append(_newline(depth) + "}")
    elif isinstance(obj, DoubleForm):
        _write_form(obj, depth, out)
    elif isinstance(obj, EffectiveDecomposition):
        _write(_decomposition_payload(obj), depth, out)
    elif isinstance(obj, InvariantReport):
        _write(_report_payload(obj), depth, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@lru_cache(maxsize=None)
def _index_texts(n: int, k: int, depth: int) -> dict[int, str]:
    """mask -> canonical text of its index list, written at the given depth."""
    if k == 0:
        return {0: "[]"}
    inner, outer = _newline(depth + 1), _newline(depth)
    return {
        mask: "[" + inner + ("," + inner).join(map(str, mask_to_indices(mask))) + outer + "]"
        for mask in subset_masks(n, k)
    }


@lru_cache(maxsize=None)
def _column_texts(n: int, k: int, depth: int) -> dict[int, str]:
    """mask -> its index list's text at the given depth, then the comma,
    line break and opening quote of the value that follows it in an entry."""
    between = "," + _newline(depth) + '"'
    return {mask: text + between for mask, text in _index_texts(n, k, depth).items()}


def _write_form(form: DoubleForm, depth: int, out: list) -> None:
    """form_to_dict(form)'s canonical text, written from the stored cells:
    each numerator's text is made once, here, and the entries are deferred
    to _form_rows."""
    inner = _newline(depth + 1)
    out.append("{" + inner + '"entries": ')
    tail = '"' + _newline(depth + 2) + "]"
    den = form.den
    numerators = set(chain.from_iterable(map(dict.values, form.cells.values())))
    try:  # rational_to_str's text: "num", or "num/den" in lowest terms
        texts = {
            num: (_ratio_text(num, den) if den != 1 else str(num)) + tail for num in numerators
        }
    except ValueError as exc:  # str() refuses ints past the interpreter's digit limit
        raise DoubleFormError(f"output number too long: {exc}") from exc
    out.append(_form_rows(form, depth + 2, texts) if texts else "[]")
    out.append(
        f',{inner}"n": {form.n},{inner}"p": {form.p},{inner}"q": {form.q}{_newline(depth)}}}'
    )


def _form_rows(form: DoubleForm, entry_depth: int, texts: dict[int, str]):
    """The text of a nonempty form's entries list, one row at a time: each
    row's text up to its column once, then its entries' columns and values."""
    left = _index_texts(form.n, form.p, entry_depth + 1)
    right = _column_texts(form.n, form.q, entry_depth + 1)
    head = "[" + _newline(entry_depth + 1)
    between = "," + _newline(entry_depth + 1)
    sep = "," + _newline(entry_depth)
    row_rank = _mask_rank_table(form.n, form.p)
    col_rank = _mask_rank_table(form.n, form.q).__getitem__
    opening = "[" + _newline(entry_depth)
    for mask_i in sorted(form.cells, key=row_rank.__getitem__):
        row = form.cells[mask_i]
        prefix = head + left[mask_i] + between  # opens each of the row's entries
        yield opening + prefix + (sep + prefix).join(
            [right[mask_j] + texts[row[mask_j]] for mask_j in sorted(row, key=col_rank)]
        )
        opening = sep
    yield _newline(entry_depth - 1) + "]"


def _ratio_text(num: int, den: int) -> str:
    """num/den in lowest terms, as rational_to_str writes it."""
    common = gcd(num, den)
    if common == den:
        return str(num // den)
    return f"{num // common}/{den // common}"


def _plain(payload):
    """The payload as plain JSON values: every form leaf replaced by
    form_to_dict's dict, every Fraction by its rational string, and every
    tuple by a list."""
    if isinstance(payload, DoubleForm):
        return form_to_dict(payload)
    if isinstance(payload, Fraction):
        return rational_to_str(payload)
    if isinstance(payload, dict):
        return {key: _plain(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_plain(value) for value in payload]
    return payload


def _expect_dict(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _expect_int(obj, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(path, f"expected an integer, got {obj!r}")
    return obj


def _expect_list(obj, path: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(path, f"expected an array, got {type(obj).__name__}")
    return obj


def _expect_keys(obj: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    missing = required - obj.keys()
    if missing:
        raise SchemaError(path, f"missing required field(s): {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise SchemaError(path, f"unknown field(s): {sorted(unknown)}")


# -- DoubleForm ---------------------------------------------------------------


def form_to_dict(form: DoubleForm) -> dict:
    entries = []
    for mask_i, mask_j, value in form.entries():
        entries.append(
            [list(mask_to_indices(mask_i)), list(mask_to_indices(mask_j)), rational_to_str(value)]
        )
    return {"n": form.n, "p": form.p, "q": form.q, "entries": entries}


def form_from_dict(obj, path: str = "form") -> DoubleForm:
    """The form obj describes.  Its entries are read by _read_in_bulk, or,
    when that declines them, by _read_entries, which refuses the first
    malformed entry; the form is the same either way."""
    obj = _expect_dict(obj, path)
    _expect_keys(obj, path, {"n", "p", "q", "entries"})
    n = _expect_int(obj["n"], f"{path}.n")
    p = _expect_int(obj["p"], f"{path}.p")
    q = _expect_int(obj["q"], f"{path}.q")
    try:
        form = make_zero(n, p, q)
    except DoubleFormError as exc:
        raise SchemaError(path, str(exc)) from exc
    entries = _expect_list(obj["entries"], f"{path}.entries")
    _require_cell_budget(len(entries), f"D^({p},{q}) at n={n}")
    read = _read_in_bulk(entries, n, p, q)
    if read is None:
        read = _read_entries(entries, n, p, q, path)
    rows, cols, values, ratios = read
    nums, den = _integer_numerators(ratios.values())
    scaled = dict(zip(ratios, nums))
    cells: dict[int, dict[int, int]] = {}
    for mask_i, mask_j, num in zip(rows, cols, map(scaled.__getitem__, values)):
        row = cells.get(mask_i)
        if row is None:
            row = cells[mask_i] = {}
        row[mask_j] = num
    form._publish(cells, den)  # drops the zero values
    return form


# Both readers test the strict (rank I, rank J) order of the entries as the
# order of their (I, J) index lists: valid index lists of one length sort
# lexicographically, as subset_masks ranks them.


def _read_in_bulk(entries: list, n: int, p: int, q: int):
    """(row masks, column masks, values, value -> Fraction) of entries that
    _read_entries accepts, each check made over a whole column of the
    entries; None for anything else, no entries included.  Never raises."""
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {3}:
        return None
    raw_i, raw_j, values = zip(*entries)
    # exact ints only: True == 1 and 1.0 == 1 would hit the tables too
    if (
        set(map(type, raw_i)) != {list}
        or set(map(type, raw_j)) != {list}
        or not set(map(type, chain.from_iterable(raw_i))) <= {int}
        or not set(map(type, chain.from_iterable(raw_j))) <= {int}
        or not set(map(type, values)) <= {str, int}
    ):
        return None
    rows = list(map(_index_masks(n, p).get, map(tuple, raw_i)))
    cols = list(map(_index_masks(n, q).get, map(tuple, raw_j)))
    if None in rows or None in cols:
        return None
    pairs, later = zip(raw_i, raw_j), zip(islice(raw_i, 1, None), islice(raw_j, 1, None))
    if not all(map(lt, pairs, later)):
        return None
    try:  # each distinct value read once
        ratios = {value: rational_from_str(value) for value in dict.fromkeys(values)}
    except SchemaError:
        return None
    return rows, cols, values, ratios


def _read_entries(entries: list, n: int, p: int, q: int, path: str):
    """_read_in_bulk's lists, read and validated one entry at a time: the
    one route that refuses a malformed entry, naming the first one."""
    rows, cols, values, ratios = [], [], [], {}
    for index, entry in enumerate(entries):
        epath = f"{path}.entries[{index}]"
        entry = _expect_list(entry, epath)
        if len(entry) != 3:
            raise SchemaError(epath, f"expected [I, J, value], got {entry!r}")
        rows.append(_read_index_set(entry[0], n, p, f"{epath}[0]").mask)
        cols.append(_read_index_set(entry[1], n, q, f"{epath}[1]").mask)
        ratios[entry[2]] = rational_from_str(entry[2], f"{epath}[2]")
        values.append(entry[2])
        if index and entry[:2] <= entries[index - 1][:2]:
            raise SchemaError(epath, "entries must be strictly sorted by (rank I, rank J)")
    return rows, cols, values, ratios


@lru_cache(maxsize=None)
def _index_masks(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Every valid index list of a k-subset of [0, n), as a tuple -> its mask."""
    return {mask_to_indices(mask): mask for mask in subset_masks(n, k)}


def _read_index_set(obj, n: int, size: int, path: str) -> IndexSet:
    indices = _expect_list(obj, path)
    for i in indices:
        _expect_int(i, f"{path}[]")
    try:
        index_set = IndexSet.from_indices(n, indices)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc
    if index_set.k != size:
        raise SchemaError(path, f"expected {size} indices, got {index_set.k}")
    return index_set


# -- EffectiveDecomposition ----------------------------------------------------


def _decomposition_payload(decomposition: EffectiveDecomposition) -> dict:
    return {
        "n": decomposition.n,
        "p": decomposition.p,
        "components": list(decomposition.components),
    }


def decomposition_to_dict(decomposition: EffectiveDecomposition) -> dict:
    return _plain(_decomposition_payload(decomposition))


# -- ModelSpec ------------------------------------------------------------------


MODEL_KINDS = ("constant", "hypersurface", "conformally_flat", "product", "explicit")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a model curvature tensor."""

    model: str
    n: int
    curvature: Fraction | None = None
    eigenvalues: tuple[Fraction, ...] | None = None
    h_matrix: tuple[tuple[Fraction, ...], ...] | None = None
    factors: tuple["ModelSpec", ...] | None = None
    form: DoubleForm | None = None


def model_spec_from_dict(obj, path: str = "spec", *, depth: int = 0) -> ModelSpec:
    """The spec obj describes; depth counts the products it is a factor of."""
    obj = _expect_dict(obj, path)
    if "model" not in obj:
        raise SchemaError(path, "missing required field(s): ['model']")
    kind = obj["model"]
    if kind not in MODEL_KINDS:
        raise SchemaError(f"{path}.model", f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if kind == "constant":
        _expect_keys(obj, path, {"model", "n", "lambda"})
        n = _expect_int(obj["n"], f"{path}.n")
        lam = rational_from_str(obj["lambda"], f"{path}.lambda")
        return ModelSpec("constant", n, curvature=lam)
    if kind == "hypersurface":
        _expect_keys(obj, path, {"model", "eigenvalues"}, optional={"n"})
        raw = _expect_list(obj["eigenvalues"], f"{path}.eigenvalues")
        if not raw:
            raise SchemaError(f"{path}.eigenvalues", "needs at least one eigenvalue")
        eigen = tuple(
            rational_from_str(v, f"{path}.eigenvalues[{i}]") for i, v in enumerate(raw)
        )
        n = _expect_int(obj["n"], f"{path}.n") if "n" in obj else len(eigen)
        if n != len(eigen):
            raise SchemaError(f"{path}.n", f"n={n} but {len(eigen)} eigenvalues given")
        return ModelSpec("hypersurface", n, eigenvalues=eigen)
    if kind == "conformally_flat":
        _expect_keys(obj, path, {"model", "h_matrix"}, optional={"n"})
        raw = _expect_list(obj["h_matrix"], f"{path}.h_matrix")
        size = len(raw)
        matrix, seen = [], {}
        for i, row in enumerate(raw):
            row = _expect_list(row, f"{path}.h_matrix[{i}]")
            if len(row) != size:
                raise SchemaError(f"{path}.h_matrix[{i}]", f"expected {size} columns, got {len(row)}")
            values = []
            for j, v in enumerate(row):
                # each distinct string is read once; no other JSON value
                # equals a string, so the string alone keys its Fraction
                ratio = seen.get(v) if type(v) is str else None
                if ratio is None:
                    ratio = rational_from_str(v, f"{path}.h_matrix[{i}][{j}]")
                    if type(v) is str:
                        seen[v] = ratio
                values.append(ratio)
            matrix.append(tuple(values))
        # row i meets column i at every j < i already, so the first j where
        # they differ is the first asymmetric (i, j) with i < j
        for i, (row, column) in enumerate(zip(matrix, zip(*matrix))):
            if row != column:
                j = next(j for j, (a, b) in enumerate(zip(row, column)) if a != b)
                raise SchemaError(f"{path}.h_matrix", f"matrix is not symmetric at ({i},{j})")
        n = _expect_int(obj["n"], f"{path}.n") if "n" in obj else size
        if n != size:
            raise SchemaError(f"{path}.n", f"n={n} but the matrix is {size}x{size}")
        return ModelSpec("conformally_flat", n, h_matrix=tuple(matrix))
    if kind == "product":
        _expect_keys(obj, path, {"model", "factors"}, optional={"n"})
        raw = _expect_list(obj["factors"], f"{path}.factors")
        if len(raw) < 2:
            raise SchemaError(f"{path}.factors", "a product needs at least two factors")
        if depth >= MAX_DIMENSION - 1:  # m nested products have n >= m + 1
            raise SchemaError(path, f"products nested more than {MAX_DIMENSION - 1} deep")
        factors = tuple(
            model_spec_from_dict(f, f"{path}.factors[{i}]", depth=depth + 1)
            for i, f in enumerate(raw)
        )
        n = sum(f.n for f in factors)
        if "n" in obj and _expect_int(obj["n"], f"{path}.n") != n:
            raise SchemaError(f"{path}.n", f"n={obj['n']} but the factors sum to {n}")
        return ModelSpec("product", n, factors=factors)
    # explicit
    _expect_keys(obj, path, {"model", "form"}, optional={"n"})
    form = form_from_dict(obj["form"], f"{path}.form")
    if "n" in obj and _expect_int(obj["n"], f"{path}.n") != form.n:
        raise SchemaError(f"{path}.n", f"n={obj['n']} but the form lives over n={form.n}")
    return ModelSpec("explicit", form.n, form=form)


def build_curvature_tensor(spec: ModelSpec) -> CurvatureTensor:
    """Instantiate the described model as a certified curvature tensor (a
    constant, hypersurface, conformally flat or product one makes and
    certifies R on the first read of its form; a product of more than two
    factors nests them from the left)."""
    if spec.model == "constant":
        return make_constant_curvature(spec.n, spec.curvature)
    if spec.model == "hypersurface":
        return make_hypersurface(_diagonal(spec.n, spec.eigenvalues))
    if spec.model == "conformally_flat":
        return make_conformally_flat(DoubleForm(spec.n, 1, 1, spec.h_matrix))
    if spec.model == "product":
        tensors = [build_curvature_tensor(f) for f in spec.factors]
        result = tensors[0]
        for tensor in tensors[1:]:
            result = make_product(result, tensor)
        return result
    try:
        return CurvatureTensor(spec.form)
    except DoubleFormError as exc:
        raise SchemaError("spec.form", str(exc)) from exc


# -- InvariantReport -------------------------------------------------------------


def _report_payload(report: InvariantReport) -> dict:
    out = {
        "n": report.n,
        "invariants": [
            {
                "q": row.q,
                "h": rational_to_str(row.weyl),
                "h_decimal": decimal6(row.weyl),
                "T": row.einstein,
            }
            for row in report.rows
        ],
        "samples": [
            {
                "p": s.p,
                "q": s.q,
                "plane": list(s.plane),
                "value": rational_to_str(s.value),
                "value_decimal": decimal6(s.value),
            }
            for s in report.samples
        ],
    }
    if report.h4_sign is not None:
        out["h4_sign"] = {
            "h4": rational_to_str(report.h4_sign.h4),
            "h4_decimal": decimal6(report.h4_sign.h4),
            "classification": report.h4_sign.classification,
            "inequality_holds": report.h4_sign.inequality_holds,
        }
    else:
        out["h4_sign"] = None
    return out


def report_to_dict(report: InvariantReport) -> dict:
    return _plain(_report_payload(report))


def report_to_table(report: InvariantReport) -> str:
    """Plain-text rendering with rationals and a 6-significant-digit column."""
    lines = [f"n = {report.n}", "", "q    h_{2q}            h_{2q} (decimal)"]
    for row in report.rows:
        lines.append(f"{row.q:<4} {rational_to_str(row.weyl):<17} {decimal6(row.weyl)}")
    for row in report.rows:
        lines.append("")
        lines.append(f"T_{2 * row.q} nonzero entries:")
        empty = True
        for mask_i, mask_j, value in row.einstein.entries():
            i = mask_to_indices(mask_i)[0]
            j = mask_to_indices(mask_j)[0]
            lines.append(f"  T[{i},{j}] = {rational_to_str(value):<14} {decimal6(value)}")
            empty = False
        if empty:
            lines.append("  (zero)")
    if report.samples:
        lines.append("")
        lines.append("p    q    plane           s_{(p,q)}         (decimal)")
        for s in report.samples:
            plane = ",".join(str(i) for i in s.plane)
            lines.append(
                f"{s.p:<4} {s.q:<4} {plane:<15} {rational_to_str(s.value):<17} {decimal6(s.value)}"
            )
    if report.h4_sign is not None:
        lines.append("")
        sign = report.h4_sign
        holds = "n/a" if sign.inequality_holds is None else str(sign.inequality_holds).lower()
        lines.append(
            f"h_4 = {rational_to_str(sign.h4)} ({decimal6(sign.h4)}); "
            f"classification: {sign.classification}; sign theorem holds: {holds}"
        )
    return "\n".join(lines) + "\n"
