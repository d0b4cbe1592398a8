"""Problem-file ingestion and the bundled example objectives.

A .problem file is JSON: n_vars, numerator and denominator as term lists
({"coeff": "num/den", "exps": [...]}), plus optional metadata.  Serialization
is canonical (terms sorted by exponent tuple, fixed indentation) so that a
write -> read -> write round trip is byte-identical.

Format rules, each enforced on load with a ProblemFormatError that names the
field ("numer[3]", "singular_points[0]"):

- the file is UTF-8 text;
- "n_vars" is a JSON integer >= 1 (not true, 2.0 or "2");
- a coefficient is a rational: a string that Fraction reads ("-3", "7/2",
  "0.25", "1e-3") or a JSON number, not true or false; the writer emits
  str(Fraction);
- "exps" is a list of n_vars JSON integers from 0 to MAX_EXPONENT (not
  true, false or 1.0);
- terms with equal exponents are summed, and the denominator must not sum
  to zero;
- "singular_points", if present, is a list of points, each a list of
  n_vars rational coordinates, strings or JSON numbers as coefficients are,
  each within the float range.

A ProblemFile itself raises DimensionError where its polynomials or points
disagree with n_vars, so that save_problem writes only loadable files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .polyalg import DimensionError, Polynomial, RationalFunction, _coefficient

BUNDLED_NAMES = ("fig1", "multi3", "counterex")
_INT = frozenset({int})
# The largest exponent a problem file may hold.  Taylor shifts and pencils
# grow faster than the square of the degree: on a 2-core VM, analyze on
# x^1000/(1 + x^2) takes 0.2 s, on x^8000 10 s, on x^20000 over 20 s.
MAX_EXPONENT = 1000


class ProblemFormatError(ValueError):
    """Malformed problem file; the message names the offending field."""


@dataclass(frozen=True)
class ProblemFile:
    n_vars: int
    numer: Polynomial
    denom: Polynomial
    name: str = ""
    singular_points: tuple[tuple[Fraction, ...], ...] = ()

    def __post_init__(self):
        """Raise DimensionError where a polynomial or a singular point
        disagrees with n_vars: save_problem would write a file that
        load_problem rejects."""
        for field, poly in (("numer", self.numer), ("denom", self.denom)):
            if poly.n_vars != self.n_vars:
                raise DimensionError(
                    f"{field} in {poly.n_vars} variables, n_vars = {self.n_vars}"
                )
        for j, point in enumerate(self.singular_points):
            if len(point) != self.n_vars:
                raise DimensionError(
                    f"singular_points[{j}] has {len(point)} coordinates, "
                    f"n_vars = {self.n_vars}"
                )

    def rational(self) -> RationalFunction:
        return RationalFunction(self.numer, self.denom, self.singular_points)


def poly_to_terms(poly: Polynomial) -> list[dict]:
    return [
        {"coeff": str(poly.terms[exps]), "exps": list(exps)}
        for exps in sorted(poly.terms)
    ]


def _parse_coefficient(raw):
    """A term's "coeff" as a stored coefficient: an int where integral.

    The writer's form, str(Fraction) in ASCII digits ("a" or "a/b"), is read
    by int(); any other value goes through _parse_rational.
    """
    if type(raw) is str and raw.isascii():
        num, slash, den = raw.partition("/")
        if num.isdigit() or num[:1] == "-" and num[1:].isdigit():
            if not slash:
                return int(num)
            if den.isdigit():
                return _coefficient(Fraction(int(num), int(den)))
    return _coefficient(_parse_rational(raw))


def _parse_rational(raw) -> Fraction:
    """Fraction(raw), but not for JSON true and false, which it reads as 1
    and 0."""
    if type(raw) is bool:
        raise ValueError(f"{raw!r} is not a rational")
    return Fraction(raw)


def _parse_coordinate(raw) -> Fraction:
    """A singular point's coordinate: a rational that a float holds, since
    each declared point is also a chart centre in floats."""
    value = _parse_rational(raw)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"coordinate {raw!r} is past the float range") from None
    return value


def poly_from_terms(terms, n_vars: int, field_name: str) -> Polynomial:
    """The polynomial of a term list, each term checked once.

    Terms with equal exponents are summed; the polynomial keeps its terms in
    the order their exponents first appear, without those that sum to 0.
    """
    if not isinstance(terms, list):
        raise ProblemFormatError(f"field {field_name!r} must be a list of terms")
    acc: dict[tuple[int, ...], int | Fraction] = {}
    for i, term in enumerate(terms):
        try:
            coeff = _parse_coefficient(term["coeff"])
            exps = term["exps"]
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ProblemFormatError(f"{field_name}[{i}]: {exc}") from exc
        if type(exps) is not list:
            raise ProblemFormatError(
                f"{field_name}[{i}]: exponents {exps!r} are not a list"
            )
        if len(exps) != n_vars:
            raise ProblemFormatError(
                f"{field_name}[{i}]: exponent tuple {exps} does not have "
                f"n_vars = {n_vars} entries"
            )
        exps = tuple(exps)
        # type() is int, not isinstance: JSON true and false are bools.
        if not _INT.issuperset(map(type, exps)) or exps and min(exps) < 0:
            raise ProblemFormatError(
                f"{field_name}[{i}]: exponents {list(exps)} are not all "
                f"non-negative integers"
            )
        if exps and max(exps) > MAX_EXPONENT:
            raise ProblemFormatError(
                f"{field_name}[{i}]: exponent {max(exps)} above "
                f"MAX_EXPONENT = {MAX_EXPONENT}"
            )
        if exps in acc:
            acc[exps] = _coefficient(acc[exps] + coeff)
        else:
            acc[exps] = coeff
    return Polynomial._trusted(n_vars, {e: c for e, c in acc.items() if c})


def problem_to_json(problem: ProblemFile) -> str:
    doc = {
        "n_vars": problem.n_vars,
        "name": problem.name,
        "numer": poly_to_terms(problem.numer),
        "denom": poly_to_terms(problem.denom),
        "singular_points": [
            [str(c) for c in point] for point in problem.singular_points
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def problem_from_json(text: str, source: str = "<string>") -> ProblemFile:
    try:
        doc = json.loads(text)
    # Invalid JSON, an integer past the digit limit, or nesting too deep for
    # the decoder.
    except (ValueError, RecursionError) as exc:
        raise ProblemFormatError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{source}: top level must be an object")
    n_vars = doc.get("n_vars")
    # type() is int, not isinstance: JSON true and false are bools.
    if type(n_vars) is not int:
        raise ProblemFormatError(f"{source}: missing or invalid field 'n_vars'")
    if n_vars < 1:
        raise ProblemFormatError(f"{source}: n_vars must be positive")
    for key in ("numer", "denom"):
        if key not in doc:
            raise ProblemFormatError(f"{source}: missing field {key!r}")
    try:
        numer = poly_from_terms(doc["numer"], n_vars, "numer")
        denom = poly_from_terms(doc["denom"], n_vars, "denom")
    except ProblemFormatError as exc:
        raise ProblemFormatError(f"{source}: {exc}") from exc
    if denom.is_zero():
        raise ProblemFormatError(f"{source}: field 'denom' is identically zero")
    raw_points = doc.get("singular_points", [])
    if not isinstance(raw_points, list):
        raise ProblemFormatError(f"{source}: field 'singular_points' must be a list")
    points = []
    for j, raw in enumerate(raw_points):
        if not isinstance(raw, list):
            raise ProblemFormatError(
                f"{source}: singular_points[{j}] must be a list of coordinates"
            )
        try:
            points.append(tuple(_parse_coordinate(c) for c in raw))
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ProblemFormatError(f"{source}: singular_points[{j}]: {exc}")
    try:
        return ProblemFile(
            n_vars, numer, denom, str(doc.get("name", "")), tuple(points)
        )
    except DimensionError as exc:
        raise ProblemFormatError(f"{source}: {exc}") from exc


def problem_from_bytes(data: bytes, source: str) -> ProblemFile:
    """problem_from_json of a problem file's bytes, decoded as UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"{source}: not UTF-8 text: {exc}") from exc
    return problem_from_json(text, source=source)


def load_problem(path) -> ProblemFile:
    path = Path(path)
    return problem_from_bytes(path.read_bytes(), source=str(path))


def save_problem(problem: ProblemFile, path) -> None:
    Path(path).write_text(problem_to_json(problem))


# -- bundled examples ------------------------------------------------------

def _fig1_rational() -> tuple[Polynomial, Polynomial]:
    """xy over (x^2 + y^2)(1 + x^2 + y^2), the pinch-point objective."""
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    r2 = x * x + y * y
    return x * y, r2 * (1 + r2)


def build_bundled(name: str) -> ProblemFile:
    """Construct a bundled problem from scratch (also used to ship the data)."""
    if name == "fig1":
        numer, denom = _fig1_rational()
        return ProblemFile(
            2, numer, denom, name="fig1",
            singular_points=((Fraction(0), Fraction(0)),),
        )
    if name == "counterex":
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        return ProblemFile(
            2, y * y - x * x, x * x + y * y, name="counterex",
            singular_points=((Fraction(0), Fraction(0)),),
        )
    if name == "multi3":
        centers = ((0, 0), (3, 0), (0, 3))
        numer0, denom0 = _fig1_rational()
        # The copy of fig1 centred at c is p(x - c).
        numers = [numer0.shift([-v for v in c]) for c in centers]
        denoms = [denom0.shift([-v for v in c]) for c in centers]
        # Sum of the three shifted copies over the common denominator.
        denom = denoms[0] * denoms[1] * denoms[2]
        numer = Polynomial.zero(2)
        for i in range(3):
            term = numers[i]
            for j in range(3):
                if j != i:
                    term = term * denoms[j]
            numer = numer + term
        return ProblemFile(
            2, numer, denom, name="multi3",
            singular_points=tuple(
                (Fraction(u), Fraction(v)) for u, v in centers
            ),
        )
    raise KeyError(f"unknown bundled problem {name!r}")


def bundled_examples() -> dict[str, ProblemFile]:
    """Load the shipped example problems."""
    return {name: load_bundled(name) for name in BUNDLED_NAMES}


def load_bundled(name: str) -> ProblemFile:
    if name not in BUNDLED_NAMES:
        raise KeyError(f"unknown bundled problem {name!r}")
    data = resources.files(__package__).joinpath(f"data/{name}.problem")
    return problem_from_json(data.read_text(), source=f"bundled:{name}")


def write_bundled(directory) -> list[Path]:
    """Write the bundled .problem files into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in BUNDLED_NAMES:
        path = directory / f"{name}.problem"
        save_problem(load_bundled(name), path)
        written.append(path)
    return written
