"""Command-line surface: build, verify, pipeline.

Exit codes: 0 all checks passed, 1 at least one check failed,
2 invalid input (parse error, missing file, bad flags).  ``--json``
switches the report stream to the structured form.  The default
truncation honors the SEGREODE_TRUNC environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import SegreOdeError
from .gauge import (companion_gauge, divergence_report, formal_fundamental,
                    gauge_chi_tau, linear_family, monodromy_at_infinity,
                    riccati_check, to_system, transform_ode_by_gauge)
from .hypersurface import (build_hypersurface, reality_verify,
                           sphere_pushforward_fields, tangency_check)
from .io import (Report, dumps_canonical, field_from_json, hyperjet_to_json,
                 ode_from_json, ode_to_json, parse_coeff_list,
                 parse_monomial_expr, phi_to_json, sha256_of,
                 ulaurent_to_json)
from .odes import P0Ode, tresse_l1, tresse_l2, validate_p0
from .scalars import GaussRational, parse_gauss
from .segre import (RealStructureData, build_real, extract_real,
                    family_residual, reality_check, solve_phi)
from .series import USeries

EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT = 0, 1, 2


def default_trunc():
    raw = os.environ.get("SEGREODE_TRUNC", "16")
    try:
        val = int(raw)
    except ValueError:
        raise SegreOdeError(f"SEGREODE_TRUNC must be an integer, got {raw!r}")
    if val < 4:
        raise SegreOdeError("SEGREODE_TRUNC must be at least 4")
    return val


def emit_reports(reports, as_json):
    if as_json:
        sys.stdout.write(dumps_canonical([r.to_json() for r in reports]))
    else:
        for r in reports:
            print(r.line())
    return (EXIT_OK if all(r.status != "fail" for r in reports)
            else EXIT_CHECK_FAILED)


def load_ode(path) -> P0Ode:
    with open(path) as fh:
        return ode_from_json(json.load(fh))


def _real_data(args, trunc):
    a = parse_coeff_list(args.a, trunc=trunc)
    b = parse_coeff_list(args.b, trunc=trunc)
    c = parse_coeff_list(args.c, trunc=trunc)
    return RealStructureData(a=a, b=b, c=c, m=args.m)


# -- build ----------------------------------------------------------------

def cmd_build(args):
    trunc = args.trunc or default_trunc()
    if args.m < 1:
        raise SegreOdeError("m must be a positive integer")
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
    ode = load_ode(args.ode)
    violations = validate_p0(ode)
    if not violations:
        return [Report("structural-relations", "pass")]
    return [Report("structural-relations", "fail",
                   witness="; ".join(map(str, violations)))]


def verify_tresse(args):
    ode = load_ode(args.ode)
    phi = ode.rhs_poly()
    l1, l2 = tresse_l1(phi), tresse_l2(phi)
    out = []
    for name, val in (("semi-invariant-L1", l1), ("semi-invariant-L2", l2)):
        if val.is_zero():
            out.append(Report(name + "-vanishes", "pass"))
        else:
            witness = {f"y^{i}*y1^{j}": repr(c) for (i, j), c in val.coeffs.items()}
            out.append(Report(name + "-vanishes", "fail", witness=json.dumps(witness)))
    return out


def verify_reality(args):
    ode = load_ode(args.ode)
    m = args.m or ode.m
    rep = reality_check(ode, m, truncs=_phi_truncs(args))
    if rep.ok:
        return [Report("real-structure", "pass", residual_order=rep.checked_order)]
    witness = "; ".join(f"slice {mm.slice} first degree {mm.first_degree}"
                        for mm in rep.mismatches)
    return [Report("real-structure", "fail", witness=witness)]


def verify_segre_residual(args):
    ode = load_ode(args.ode)
    m = args.m or ode.m
    phi = solve_phi(ode, m, args.sign, truncs=_phi_truncs(args))
    res = family_residual(ode, phi)
    if res.is_zero():
        return [Report("family-solves-inverse-ode", "pass",
                       residual_order=None)]
    return [Report("family-solves-inverse-ode", "fail",
                   residual_order=res.min_total_order(),
                   witness=repr(res))]


def verify_riccati(args):
    ode = load_ode(args.ode)
    p = parse_monomial_expr(args.p, trunc=ode.trunc)
    rep = riccati_check(ode, p)
    if rep.ok:
        return [Report("log-derivative-witness", "pass")]
    return [Report("log-derivative-witness", "fail",
                   residual_order=rep.residual.order(),
                   witness=json.dumps(ulaurent_to_json(rep.residual)))]


def verify_monodromy(args):
    ode = load_ode(args.ode) if args.ode else linear_family(_gamma(args))
    rep = monodromy_at_infinity(to_system(ode))
    payload = {"eigenvalues": [str(e) for e in rep.eigenvalues],
               "obstructions": [[k, list(ij), str(v)] for k, ij, v in rep.obstructions]}
    if rep.trivial:
        return [Report("trivial-monodromy", "pass", residual_order=rep.order,
                       witness=json.dumps(payload))]
    return [Report("trivial-monodromy", "fail", witness=json.dumps(payload))]


def verify_divergence(args):
    rep = divergence_report(_gamma(args), args.terms, args.onset)
    payload = {"a1": str(rep.coeffs[1]), "a2": str(rep.coeffs[2]),
               "min_margin": str(rep.min_margin),
               "table": [[k, v] for k, v in rep.table(args.table)]}
    claim = "formal-solution-superlinear-growth"
    if rep.certificate_ok:
        return [Report(claim, "pass", witness=json.dumps(payload))]
    payload["first_violation"] = rep.first_violation
    return [Report(claim, "fail", witness=json.dumps(payload))]


GAUGE_MIN_ORDER = 5


def verify_gauge(args):
    gamma = _gamma(args)
    order = args.order
    if order < GAUGE_MIN_ORDER:
        # tau is carried to w^order; below order 5 that is at most w^4,
        # where tau = w + O(w^5) holds by construction and cannot fail
        raise SegreOdeError(f"gauge: --order must be at least {GAUGE_MIN_ORDER}"
                            f" to decide tau = w + O(w^5), got {order}")
    out = []
    fhat, ghat = formal_fundamental(gamma, order)
    gauge = gauge_chi_tau(fhat, ghat)
    chi_ok = gauge.f.constant_term() == GaussRational(1)
    dev = gauge.g - USeries.monomial(1, 1, "w", gauge.g.trunc)
    tau_ok = dev.is_zero() or dev.order() >= 5
    out.append(Report("gauge-normalization-chi", "pass" if chi_ok else "fail",
                      witness=None if chi_ok else repr(gauge.f)))
    out.append(Report("gauge-normalization-tau", "pass" if tau_ok else "fail",
                      witness=None if tau_ok else repr(gauge.g)))
    target = linear_family(gamma, trunc=order + 4)
    base = linear_family(0, trunc=order + 4)
    moved = transform_ode_by_gauge(base, gauge, target=target)
    ok = moved.matches_target()
    out.append(Report("gauge-straightens-family", "pass" if ok else "fail",
                      residual_order=moved.residual_order(),
                      witness=None if ok else repr(moved.residual_P)))
    comp = companion_gauge(gauge, 4)
    sym = (comp.f.equal_mod(gauge.f.conjugate(), comp.f.trunc - 1)
           and comp.g.equal_mod(gauge.g.conjugate(), comp.g.trunc - 1))
    out.append(Report("companion-is-conjugate-gauge", "pass" if sym else "fail",
                      witness=None if sym else repr(comp.f)))
    return out


def verify_tangency(args):
    if args.ode:
        ode = load_ode(args.ode)
    else:
        ode = linear_family(0, trunc=14)
    m = args.m or ode.m
    phi = solve_phi(ode, m, 1, truncs=_phi_truncs(args, default=(6, 6, 14)))
    jet = build_hypersurface(phi)
    out = []
    real = reality_verify(jet)
    out.append(Report("defining-series-reality", "pass" if real.ok else "fail",
                      witness=None if real.ok else str(real)))
    if args.field:
        with open(args.field) as fh:
            fields = [("custom", field_from_json(json.load(fh)))]
    else:
        fields = [(f"model-{i}", X)
                  for i, X in enumerate(sphere_pushforward_fields(), start=1)]
    for name, X in fields:
        r = tangency_check(jet, X)
        out.append(Report(f"tangency-field-{name}", "pass" if r.ok else "fail",
                          residual_order=r.residual_order(),
                          witness=None if r.ok else repr(r.residual)))
    return out


VERIFIERS = {
    "p0": verify_p0,
    "tresse": verify_tresse,
    "reality": verify_reality,
    "segre-residual": verify_segre_residual,
    "riccati": verify_riccati,
    "monodromy": verify_monodromy,
    "divergence": verify_divergence,
    "gauge": verify_gauge,
    "tangency": verify_tangency,
}


def cmd_verify(args):
    reports = VERIFIERS[args.check](args)
    return emit_reports(reports, args.json)


# -- pipeline ---------------------------------------------------------------

def cmd_pipeline(args):
    trunc = args.trunc or default_trunc()
    outdir = args.out_dir
    os.makedirs(outdir, exist_ok=True)
    artifacts, reports = {}, []

    def write(name, text):
        path = os.path.join(outdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        artifacts[name] = {"path": path, "sha256": sha256_of(text)}

    data = _real_data(args, trunc)
    ode = build_real(data)
    write("ode.json", dumps_canonical(ode_to_json(ode)))

    violations = validate_p0(ode)
    reports.append(Report("structural-relations", "pass" if not violations
                          else "fail",
                          witness=None if not violations
                          else "; ".join(map(str, violations))))
    l2 = tresse_l2(ode.rhs_poly())
    reports.append(Report("semi-invariant-L2-vanishes",
                          "pass" if l2.is_zero() else "fail",
                          witness=None if l2.is_zero() else repr(l2)))

    truncs = (args.dz, args.dz, trunc)
    phi = solve_phi(ode, args.m, 1, truncs=truncs)
    write("family.json", dumps_canonical(phi_to_json(phi)))

    res = family_residual(ode, phi)
    reports.append(Report("family-solves-inverse-ode",
                          "pass" if res.is_zero() else "fail",
                          witness=None if res.is_zero() else repr(res)))
    rc = reality_check(ode, args.m, truncs=truncs)
    reports.append(Report("real-structure", "pass" if rc.ok else "fail",
                          residual_order=rc.checked_order,
                          witness=None if rc.ok else str(rc)))

    jet = build_hypersurface(phi)
    write("hypersurface.json", dumps_canonical(hyperjet_to_json(jet)))
    rv = reality_verify(jet)
    reports.append(Report("defining-series-reality", "pass" if rv.ok else "fail",
                          witness=None if rv.ok else str(rv)))

    extracted, failures = extract_real(ode)
    reports.append(Report("classification-data-roundtrip",
                          "pass" if not failures else "fail",
                          witness=None if not failures
                          else "; ".join(map(str, failures))))

    if ode.is_linear():
        reports.append(Report("linear-family", "info"))

    write("reports.json", dumps_canonical([r.to_json() for r in reports]))
    manifest = {
        "format": 1,
        "inputs": {"a": args.a, "b": args.b, "c": args.c, "m": args.m,
                   "trunc": trunc, "dz": args.dz},
        "versions": {"segreode": __version__},
        "artifacts": artifacts,
        "reports": {"total": len(reports),
                    "passed": sum(r.status == "pass" for r in reports),
                    "failed": sum(r.status == "fail" for r in reports)},
    }
    write("manifest.json", dumps_canonical(manifest))
    for r in reports:
        print(r.line())
    print(f"artifacts written to {outdir}")
    return (EXIT_OK if all(r.status != "fail" for r in reports)
            else EXIT_CHECK_FAILED)


# -- plumbing ----------------------------------------------------------------

def _gamma(args):
    return parse_gauss(args.gamma)


def _phi_truncs(args, default=(5, 5, 12)):
    dz = getattr(args, "dz", None) or default[0]
    de = getattr(args, "trunc", None) or default[2]
    return (dz, dz, de)


def build_parser():
    p = argparse.ArgumentParser(
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
    v.add_argument("check", choices=sorted(VERIFIERS))
    v.add_argument("--ode", help="ODE JSON file")
    v.add_argument("--m", type=int, default=None)
    v.add_argument("--sign", type=int, choices=(1, -1), default=1)
    v.add_argument("--gamma", default="1", help="family parameter (rational)")
    v.add_argument("--p", help="Laurent witness, e.g. '2i*w^-4'")
    v.add_argument("--field", help="holomorphic field JSON for tangency")
    v.add_argument("-K", "--terms", type=int, default=60)
    v.add_argument("--onset", type=int, default=10)
    v.add_argument("--table", type=int, default=8)
    v.add_argument("--order", type=int, default=16)
    v.add_argument("--trunc", type=int, default=None)
    v.add_argument("--dz", type=int, default=None)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    pl = sub.add_parser("pipeline", help="full chain: ODE, family, "
                                         "hypersurface, verification reports")
    pl.add_argument("--a", required=True)
    pl.add_argument("--b", required=True)
    pl.add_argument("--c", default="0")
    pl.add_argument("--m", type=int, required=True)
    pl.add_argument("--trunc", type=int, default=None)
    pl.add_argument("--dz", type=int, default=5)
    pl.add_argument("--out-dir", required=True)
    pl.set_defaults(func=cmd_pipeline)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
