"""Command-line surface: build, verify, pipeline.

Exit codes: 0 all checks passed, 1 at least one check failed,
2 invalid input (parse error, missing file, bad flags).  ``--json``
switches the report stream to the structured form.  The default
truncation of ``build`` and ``pipeline`` honors the SEGREODE_TRUNC
environment variable; ``verify reality`` and ``verify segre-residual``
default to the truncation of their ODE file.

Each ``verify`` check takes only the flags its verifier reads
(``VERIFY_CHECKS``); any other flag is a usage error, which exits 2 like
every input error.

Each claim is decided by one ``check_*`` function over in-memory
objects; ``verify`` (after loading its input) and ``pipeline`` both call
them, so a claim reads the same on either path.

Each command imports only what it runs: ``segreode.gauge`` inside the
verifiers that use it, ``segreode.hypersurface`` inside ``verify
tangency`` and ``pipeline``, and ``hashlib`` inside ``io.sha256_of``, so
``build`` and the ODE and Segre checks start without them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import DomainError, SegreOdeError
from .io import (Report, dumps_canonical, field_from_json, hyperjet_to_json,
                 ode_from_json, ode_to_json, parse_coeff_list,
                 parse_monomial_expr, phi_to_json, sha256_of,
                 ulaurent_to_json)
from .odes import P0Ode, tresse, validate_p0
from .scalars import GaussRational, parse_gauss
from .segre import (RealStructureData, build_real, extract_real, family_reality,
                    family_residual, reality_check, solve_phi)
from .series import USeries

EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT = 0, 1, 2
MIN_TRUNC = 4
# The residual of the family lives on (dz - 2, dz, te), empty below
# dz = 3, and the reality criterion reads the slices (k, l) <= (3, 3).
MIN_DZ = 4


def resolve_trunc(flag, default=None):
    """``--trunc`` if set, else ``default``, else SEGREODE_TRUNC (16); >= 4."""
    if flag is not None:
        value, source = flag, "--trunc"
    elif default is not None:
        return default
    else:
        raw = os.environ.get("SEGREODE_TRUNC", "16")
        try:
            value = int(raw)
        except ValueError:
            raise SegreOdeError(f"SEGREODE_TRUNC must be an integer, got {raw!r}")
        source = "SEGREODE_TRUNC"
    if value < MIN_TRUNC:
        raise SegreOdeError(f"{source} must be at least {MIN_TRUNC}, got {value}")
    return value


def resolve_dz(flag, default):
    """``--dz`` if set, else ``default``; >= 4."""
    value = default if flag is None else flag
    if value < MIN_DZ:
        raise SegreOdeError(f"--dz must be at least {MIN_DZ}, got {value}")
    return value


def emit_reports(reports, as_json):
    if as_json:
        sys.stdout.write(dumps_canonical([r.to_json() for r in reports]))
    else:
        for r in reports:
            print(r.line())
    return (EXIT_OK if all(r.status != "fail" for r in reports)
            else EXIT_CHECK_FAILED)


def load_ode(path) -> P0Ode:
    """The ODE record at ``path``, whose truncation must be at least 4."""
    if path is None:
        raise SegreOdeError("this check needs --ode FILE")
    with open(path) as fh:
        ode = ode_from_json(json.load(fh))
    if ode.trunc < MIN_TRUNC:
        raise SegreOdeError(f"the ODE's truncation must be at least {MIN_TRUNC},"
                            f" got {ode.trunc}")
    return ode


def _real_data(args, trunc):
    a = parse_coeff_list(args.a, trunc=trunc)
    b = parse_coeff_list(args.b, trunc=trunc)
    c = parse_coeff_list(args.c, trunc=trunc)
    return RealStructureData(a=a, b=b, c=c, m=args.m)


# -- checks: one function per claim, shared by verify and pipeline -----------

def _verdict(claim, ok, witness_fn, residual_order=None):
    """PASS, or FAIL carrying ``witness_fn()`` as its witness."""
    return Report(claim, "pass" if ok else "fail", residual_order=residual_order,
                  witness=None if ok else witness_fn())


def check_structural_relations(ode):
    violations = validate_p0(ode)
    return _verdict("structural-relations", not violations,
                    lambda: "; ".join(map(str, violations)))


def check_semi_invariant(ode, name):
    """Claim ``semi-invariant-<name>-vanishes``, ``name`` "L1" or "L2"."""
    val = tresse(ode.rhs_poly(), name)
    return _verdict(f"semi-invariant-{name}-vanishes", val.is_zero(),
                    lambda: json.dumps({f"y^{i}*y1^{j}": repr(c)
                                        for (i, j), c in val.coeffs.items()}))


def check_real_structure(rep):
    """Claim ``real-structure`` from a ``reality_check``/``family_reality`` report."""
    return _verdict("real-structure", rep.ok, lambda: str(rep),
                    residual_order=rep.checked_order)


def check_family_residual(ode, phi):
    res = family_residual(ode, phi)
    ok = res.is_zero()
    return _verdict("family-solves-inverse-ode", ok, lambda: repr(res),
                    residual_order=None if ok else res.min_total_order())


def check_defining_series_reality(jet):
    from .hypersurface import reality_verify
    rep = reality_verify(jet)
    return _verdict("defining-series-reality", rep.ok, lambda: str(rep))


def check_tangency(jet, name, field):
    from .hypersurface import tangency_check
    rep = tangency_check(jet, field)
    return _verdict(f"tangency-field-{name}", rep.ok, lambda: repr(rep.residual),
                    residual_order=rep.residual_order())


def check_classification_roundtrip(ode):
    _, failures = extract_real(ode)
    return _verdict("classification-data-roundtrip", not failures,
                    lambda: "; ".join(map(str, failures)))


LINEAR_FAMILY_INFO = Report("linear-family", "info")


# -- build ----------------------------------------------------------------

def cmd_build(args):
    trunc = resolve_trunc(args.trunc)
    ode = build_real(_real_data(args, trunc))
    text = dumps_canonical(ode_to_json(ode))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- verify ---------------------------------------------------------------

def verify_p0(args):
    return [check_structural_relations(load_ode(args.ode))]


def verify_tresse(args):
    ode = load_ode(args.ode)
    return [check_semi_invariant(ode, "L1"), check_semi_invariant(ode, "L2")]


def verify_reality(args):
    ode = load_ode(args.ode)
    return [check_real_structure(reality_check(
        ode, _family_order(args, ode), args.sign, _phi_truncs(args, ode.trunc)))]


def verify_segre_residual(args):
    ode = load_ode(args.ode)
    phi = solve_phi(ode, _family_order(args, ode), args.sign,
                    truncs=_phi_truncs(args, ode.trunc))
    return [check_family_residual(ode, phi)]


def verify_riccati(args):
    from .gauge import riccati_check
    ode = load_ode(args.ode)
    if args.p is None:
        raise SegreOdeError("verify riccati needs --p WITNESS")
    p = parse_monomial_expr(args.p, trunc=ode.trunc)
    rep = riccati_check(ode, p)
    return [_verdict("log-derivative-witness", rep.ok,
                     lambda: json.dumps(ulaurent_to_json(rep.residual)),
                     residual_order=None if rep.ok else rep.residual.order())]


def verify_monodromy(args):
    from .gauge import linear_family, monodromy_at_infinity, to_system
    ode = load_ode(args.ode) if args.ode else linear_family(_gamma(args))
    rep = monodromy_at_infinity(to_system(ode))
    payload = {"eigenvalues": [str(e) for e in rep.eigenvalues],
               "obstructions": [[k, list(ij), str(v)] for k, ij, v in rep.obstructions]}
    return [Report("trivial-monodromy", "pass" if rep.trivial else "fail",
                   residual_order=rep.order if rep.trivial else None,
                   witness=json.dumps(payload))]


def verify_divergence(args):
    from .gauge import divergence_report
    if args.table < 0:
        raise SegreOdeError(f"--table must be at least 0, got {args.table}")
    rep = divergence_report(_gamma(args), args.terms, args.onset)
    try:
        table = [[k, v] for k, v in rep.table(args.table)]
    except DomainError:     # a coefficient past the interpreter's int-to-str limit
        raise SegreOdeError(f"--table {args.table}: a coefficient has more than"
                            f" {sys.get_int_max_str_digits()} digits, more than Python"
                            " converts to text; lower --table") from None
    payload = {"a1": str(rep.coeffs[1]), "a2": str(rep.coeffs[2]),
               "min_margin_k": rep.min_margin_k,
               "min_margin_at_least": str(rep.min_margin_at_least()),
               "table": table}
    if not rep.certificate_ok:
        payload["first_violation"] = rep.first_violation
    return [Report("formal-solution-superlinear-growth",
                   "pass" if rep.certificate_ok else "fail",
                   witness=json.dumps(payload))]


GAUGE_MIN_ORDER = 5


def verify_gauge(args):
    from .gauge import (companion_gauge, formal_fundamental, gauge_chi_tau,
                        linear_family, transform_ode_by_gauge)
    gamma = _gamma(args)
    order = args.order
    if order < GAUGE_MIN_ORDER:
        # tau is carried to w^order; below order 5 that is at most w^4,
        # where tau = w + O(w^5) holds by construction and cannot fail
        raise SegreOdeError(f"gauge: --order must be at least {GAUGE_MIN_ORDER}"
                            f" to decide tau = w + O(w^5), got {order}")
    fhat, ghat = formal_fundamental(gamma, order)
    gauge = gauge_chi_tau(fhat, ghat)
    dev = gauge.g - USeries.monomial(1, 1, "w", gauge.g.trunc)
    out = [_verdict("gauge-normalization-chi",
                    gauge.f.constant_term() == GaussRational(1),
                    lambda: repr(gauge.f)),
           _verdict("gauge-normalization-tau", dev.is_zero() or dev.order() >= 5,
                    lambda: repr(gauge.g))]
    target = linear_family(gamma, trunc=order + 4)
    base = linear_family(0, trunc=order + 4)
    moved = transform_ode_by_gauge(base, gauge, target=target)
    out.append(_verdict("gauge-straightens-family", moved.matches_target(),
                        lambda: repr(moved.residual_P),
                        residual_order=moved.residual_order()))
    comp = companion_gauge(gauge, 4)
    sym = (comp.f.equal_mod(gauge.f.conjugate())
           and comp.g.equal_mod(gauge.g.conjugate()))
    out.append(_verdict("companion-is-conjugate-gauge", sym, lambda: repr(comp.f)))
    return out


def verify_tangency(args):
    from .hypersurface import build_hypersurface, sphere_pushforward_fields
    if args.ode:
        ode = load_ode(args.ode)
    else:
        from .gauge import linear_family
        ode = linear_family(0, trunc=14)
    phi = solve_phi(ode, _family_order(args, ode), 1,
                    truncs=_phi_truncs(args, 14, dz=6))
    jet = build_hypersurface(phi)
    out = [check_defining_series_reality(jet)]
    if args.field:
        with open(args.field) as fh:
            fields = [("custom", field_from_json(json.load(fh)))]
    else:
        fields = [(f"model-{i}", X)
                  for i, X in enumerate(sphere_pushforward_fields(), start=1)]
    return out + [check_tangency(jet, name, X) for name, X in fields]


# Each check: its verifier and the flags that verifier reads; every check
# also takes --json.  A key of VERIFY_OPTIONS may name aliases ("-K --terms").
VERIFY_CHECKS = {
    "p0": (verify_p0, ("--ode",)),
    "tresse": (verify_tresse, ("--ode",)),
    "reality": (verify_reality, ("--ode", "--m", "--sign", "--dz", "--trunc")),
    "segre-residual": (verify_segre_residual,
                       ("--ode", "--m", "--sign", "--dz", "--trunc")),
    "riccati": (verify_riccati, ("--ode", "--p")),
    "monodromy": (verify_monodromy, ("--ode", "--gamma")),
    "divergence": (verify_divergence, ("--gamma", "-K --terms", "--onset", "--table")),
    "gauge": (verify_gauge, ("--gamma", "--order")),
    "tangency": (verify_tangency, ("--ode", "--m", "--field", "--dz", "--trunc")),
}

# The registry cmd_verify dispatches through, check -> verifier.
VERIFIERS = {check: fn for check, (fn, _) in VERIFY_CHECKS.items()}

VERIFY_OPTIONS = {
    "--ode": dict(help="ODE JSON file"),
    "--m": dict(type=int, default=None, help="family order (default: the ODE's)"),
    "--sign": dict(type=int, choices=(1, -1), default=1),
    "--gamma": dict(default="1",
                    help="family parameter (rational); write a negative one as"
                         " --gamma=-2/3, since argparse reads -2/3 as a flag"),
    "--p": dict(help="Laurent witness, e.g. '2i*w^-4'"),
    "--field": dict(help="holomorphic field JSON for tangency"),
    "-K --terms": dict(type=int, default=60),
    "--onset": dict(type=int, default=10),
    "--table": dict(type=int, default=8),
    "--order": dict(type=int, default=16),
    "--trunc": dict(type=int, default=None),
    "--dz": dict(type=int, default=None),
}


def cmd_verify(args):
    reports = VERIFIERS[args.check](args)
    return emit_reports(reports, args.json)


# -- pipeline ---------------------------------------------------------------

def cmd_pipeline(args):
    """Run the chain, then write every artifact; a failing stage writes none."""
    from .hypersurface import build_hypersurface
    trunc = resolve_trunc(args.trunc)
    dz = resolve_dz(args.dz, 5)
    outdir = args.out_dir
    texts = {}

    ode = build_real(_real_data(args, trunc))
    texts["ode.json"] = dumps_canonical(ode_to_json(ode))
    reports = [check_structural_relations(ode), check_semi_invariant(ode, "L2")]

    phi = solve_phi(ode, args.m, 1, truncs=(dz, dz, trunc))
    texts["family.json"] = dumps_canonical(phi_to_json(phi))
    reports += [check_family_residual(ode, phi),
                check_real_structure(family_reality(phi))]

    jet = build_hypersurface(phi)
    texts["hypersurface.json"] = dumps_canonical(hyperjet_to_json(jet))
    reports += [check_defining_series_reality(jet), check_classification_roundtrip(ode)]
    if ode.is_linear():
        reports.append(LINEAR_FAMILY_INFO)

    texts["reports.json"] = dumps_canonical([r.to_json() for r in reports])
    manifest = {
        "format": 1,
        "inputs": {"a": args.a, "b": args.b, "c": args.c, "m": args.m,
                   "trunc": trunc, "dz": dz},
        "versions": {"segreode": __version__},
        "artifacts": {name: {"path": os.path.join(outdir, name),
                             "sha256": sha256_of(text)}
                      for name, text in texts.items()},
        "reports": {"total": len(reports),
                    "passed": sum(r.status == "pass" for r in reports),
                    "failed": sum(r.status == "fail" for r in reports)},
    }
    texts["manifest.json"] = dumps_canonical(manifest)

    os.makedirs(outdir, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)
    code = emit_reports(reports, as_json=False)
    print(f"artifacts written to {outdir}")
    return code


# -- plumbing ----------------------------------------------------------------

def _gamma(args):
    return parse_gauss(args.gamma)


def _family_order(args, ode):
    """``--m`` if given (0 included), else the ODE's own order."""
    return ode.m if args.m is None else args.m


def _phi_truncs(args, te, dz=5):
    """(--dz, --dz, --trunc), defaulting to (dz, dz, te)."""
    dz = resolve_dz(args.dz, dz)
    return (dz, dz, resolve_trunc(args.trunc, te))


class _Parser(argparse.ArgumentParser):
    """Usage errors reach ``main`` as input errors, which exit 2."""

    def error(self, message):
        raise SegreOdeError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


def build_parser():
    p = _Parser(
        prog="segreode",
        description="Exact constructions and checks for singular cubic ODEs, "
                    "admissible Segre families and nonminimal hypersurfaces.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a sextuple from (a, b, c, m)")
    b.add_argument("--a", required=True, help="real series, coefficient list")
    b.add_argument("--b", required=True, help="real series, coefficient list")
    b.add_argument("--c", default="0", help="complex series, coefficient list")
    b.add_argument("--m", type=int, required=True, help="nonminimality order")
    b.add_argument("--trunc", type=int, default=None)
    b.add_argument("-o", "--out", default=None)
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run a verification suite")
    checks = v.add_subparsers(dest="check", required=True)
    for check, (_, flags) in sorted(VERIFY_CHECKS.items()):
        c = checks.add_parser(check)
        for flag in flags:
            c.add_argument(*flag.split(), **VERIFY_OPTIONS[flag])
        c.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    pl = sub.add_parser("pipeline", help="full chain: ODE, family, "
                                         "hypersurface, verification reports")
    pl.add_argument("--a", required=True)
    pl.add_argument("--b", required=True)
    pl.add_argument("--c", default="0")
    pl.add_argument("--m", type=int, required=True)
    pl.add_argument("--trunc", type=int, default=None)
    pl.add_argument("--dz", type=int, default=None)
    pl.add_argument("--out-dir", required=True)
    pl.set_defaults(func=cmd_pipeline)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
    except SegreOdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
