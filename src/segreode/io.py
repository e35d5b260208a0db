"""Stable JSON formats and command-line literal grammars.

All integers serialize as decimal strings (coefficients are unbounded),
terms are emitted in sorted order, and files end with a newline, so
identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ._record import record
from .errors import DomainError, InternalInconsistencyError, StructureError
from .odes import COEFF_NAMES, P0Ode, Poly2
from .scalars import GaussRational, int_text, parse_gauss
from .series import TriSeries, ULaurent, USeries

FORMAT_VERSION = 1


# -- scalars -----------------------------------------------------------

def gauss_to_json(q: GaussRational):
    return {"re": {"num": int_text(q.re.numerator), "den": int_text(q.re.denominator)},
            "im": {"num": int_text(q.im.numerator), "den": int_text(q.im.denominator)}}


def gauss_from_json(obj) -> GaussRational:
    try:
        return GaussRational(Fraction(int(obj["re"]["num"]), int(obj["re"]["den"])),
                             Fraction(int(obj["im"]["num"]), int(obj["im"]["den"])))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise StructureError(f"bad Gaussian-rational record: {exc}") from exc


# -- series ------------------------------------------------------------

def _terms_to_json(terms):
    """The term list of a series or polynomial record, from (deg, coefficient) pairs."""
    return [{"deg": d, "coeff": gauss_to_json(q)} for d, q in terms]


def useries_to_json(s: USeries):
    return {"var": s.var, "trunc": s.trunc, "terms": _terms_to_json(s.terms())}


def useries_from_json(obj) -> USeries:
    try:
        terms = {int(t["deg"]): gauss_from_json(t["coeff"]) for t in obj["terms"]}
        return USeries(obj["var"], int(obj["trunc"]), terms)
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"bad series record: {exc}") from exc


def ulaurent_to_json(s: ULaurent):
    # key order kept: `verify riccati` prints this record unsorted
    return {"var": s.var, "pole": s.pole, "trunc": s.trunc,
            "terms": _terms_to_json(s.terms())}


def triseries_to_json(s: TriSeries):
    return {"vars": list(s.vars), "trunc": list(s.truncs),
            "terms": _terms_to_json((list(deg), q) for deg, q in s.terms())}


# -- domain objects ------------------------------------------------------

def ode_to_json(ode: P0Ode):
    out = {"format": FORMAT_VERSION, "m": ode.m}
    for name in COEFF_NAMES:
        out[name] = useries_to_json(getattr(ode, name))
    return out


def ode_from_json(obj) -> P0Ode:
    try:
        m = int(obj["m"])
        coeffs = [useries_from_json(obj[name]) for name in COEFF_NAMES]
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"bad ODE record: {exc}") from exc
    return P0Ode(m, *coeffs)


def phi_to_json(phi):
    slices = {}
    for (k, l, j), q in phi.phi.terms():
        slices.setdefault((k, l), {})[j] = q
    return {"format": FORMAT_VERSION, "m": phi.m,
            "sign": "+" if phi.sign > 0 else "-",
            "truncs": list(phi.phi.truncs),
            "slices": [{"k": k, "l": l,
                        "series": useries_to_json(
                            USeries("w", phi.phi.truncs[2], ser))}
                       for (k, l), ser in sorted(slices.items())]}


def phi_from_json(obj):
    from .segre import AdmissiblePhi
    try:
        truncs = tuple(int(x) for x in obj["truncs"])
        terms = {}
        for sl in obj["slices"]:
            k, l = int(sl["k"]), int(sl["l"])
            ser = useries_from_json(sl["series"])
            for j, q in ser.terms():
                terms[(k, l, j)] = q
        tri = TriSeries(("z", "xi", "eta"), truncs, terms)
        sign = {"+": 1, "-": -1}[obj["sign"]]
        return AdmissiblePhi(int(obj["m"]), sign, tri)
    except (KeyError, TypeError, ValueError, InternalInconsistencyError) as exc:
        raise StructureError(f"bad family record: {exc}") from exc


def hyperjet_to_json(jet):
    return {"format": FORMAT_VERSION, "m": jet.m,
            "sign": "+" if jet.sign > 0 else "-",
            "rho": triseries_to_json(jet.rho)}


def bipoly_from_json(obj):
    try:
        return Poly2({tuple(int(x) for x in t["deg"]): gauss_from_json(t["coeff"])
                      for t in obj["terms"]})
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"bad bivariate polynomial record: {exc}") from exc


def field_from_json(obj):
    from .hypersurface import HoloField
    try:
        return HoloField(bipoly_from_json(obj["fz"]), bipoly_from_json(obj["fw"]))
    except (KeyError, TypeError) as exc:
        raise StructureError(f"bad field record: {exc}") from exc


# -- reports -------------------------------------------------------------

@record
class Report:
    """One verification outcome: machine-readable and printable."""

    claim: str
    status: str                 # pass | fail | info
    residual_order: int = None
    witness: object = None      # JSON-ready payload

    def __post_init__(self):
        if self.status not in ("pass", "fail", "info"):
            raise StructureError(f"bad report status {self.status!r}")
        if self.status == "fail" and self.witness is None:
            raise StructureError("failing reports must carry a witness")

    def to_json(self):
        return {"claim": self.claim, "status": self.status,
                "residual_order": self.residual_order, "witness": self.witness}

    def line(self):
        mark = {"pass": "PASS", "fail": "FAIL", "info": "INFO"}[self.status]
        extra = ""
        if self.residual_order is not None:
            extra = f" (residual order {self.residual_order})"
        if self.status == "fail" and isinstance(self.witness, str):
            extra += f" -- {self.witness}"
        return f"[{mark}] {self.claim}{extra}"


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def sha256_of(text: str) -> str:
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()


# -- command-line literals -------------------------------------------------

def parse_coeff_list(text: str, trunc=16) -> USeries:
    """Degree-ascending comma list of Gaussian rationals in w: '1,0,-2/3,1+2i'."""
    items = [parse_gauss(tok) if tok.strip() else GaussRational(0)
             for tok in text.split(",")]
    return USeries("w", trunc, dict(enumerate(items)))


def parse_monomial_expr(text: str, trunc=16) -> ULaurent:
    """Sums of monomials in w: '2i*w^-4 + 3 - (1+2i)*w^2'.

    coefficient ::= gauss-literal | '(' gauss-literal ')'
    term        ::= coefficient ['*' 'w' ['^' int]] | 'w' ['^' int]
    Complex coefficients with both parts need the parentheses.
    """
    total = ULaurent.zero("w", trunc)
    for sign, term in _split_terms(text):
        coeff, power = _parse_term(term.strip())
        q = coeff * sign
        total = total + ULaurent.monomial(power, q, "w", trunc)
    return total


def _split_terms(text: str):
    """Top-level additive split; signs folded into (sign, term) pairs."""
    s = text.strip()
    if not s:
        raise DomainError("empty series expression")
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start:
            prev = s[start:i].rstrip()
            if prev and prev[-1] not in "*^/(":
                pieces.append(s[start:i])
                start = i
    pieces.append(s[start:])
    out = []
    for piece in pieces:
        sg, t = 1, piece.strip()
        while t and t[0] in "+-":
            if t[0] == "-":
                sg = -sg
            t = t[1:].lstrip()
        if not t:
            raise DomainError(f"dangling operator in {text!r}")
        out.append((sg, t))
    return out


def _parse_term(term: str):
    if not term:
        raise DomainError("empty term in series expression")
    coeff_part, power = term, 0
    idx = term.find("w")
    if idx >= 0 and (idx == 0 or not term[idx - 1].isalnum()):
        head = term[:idx].rstrip()
        tail = term[idx + 1:].strip()
        if head.endswith("*"):
            head = head[:-1].rstrip()
        if tail.startswith("^"):
            try:
                power = int(tail[1:].strip())
            except ValueError as exc:
                raise DomainError(f"bad exponent in {term!r}") from exc
        elif tail:
            raise DomainError(f"malformed term {term!r}")
        else:
            power = 1
        coeff_part = head
    if not coeff_part:
        return GaussRational(1), power
    cp = coeff_part.strip()
    if cp.startswith("(") and cp.endswith(")"):
        cp = cp[1:-1]
    return parse_gauss(cp), power
