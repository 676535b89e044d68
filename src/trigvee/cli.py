"""Command-line front-end over the JSON configuration interchange format.

Exit codes: 0 success / check passed, 1 check or verification failed (also a
restriction refused for a zero class sum), 2 malformed input, unsupported request,
an ``-o`` path that cannot be written or a request too large for memory, 141
(128 + SIGPIPE) stdout closed by its reader before the output was written.

``import trigvee.cli`` loads only the configuration and exactla modules; each
command imports the layers it runs when it runs, so only ``wdvv`` loads numpy.
Every record is a ``typing.NamedTuple``, so no command loads ``dataclasses``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction

from .configuration import from_json_dict, gram_inverse, to_json_dict
from .exactla import rat


def _deferred(name: str):
    """The package export ``name``, loaded on its first call.  The commands call
    these through this module's globals, which perfbench/tracer.py wraps."""

    def call(*args, **kwargs):
        return getattr(sys.modules[__package__], name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


generate, vee_check, lambda_sq, build_catalog = map(
    _deferred, ["generate", "vee_check", "lambda_sq", "build_catalog"])
gamma_sq_direct, gamma_tilde_sq, gamma_tilde_sq_dual = map(
    _deferred, ["gamma_sq_direct", "gamma_tilde_sq", "gamma_tilde_sq_dual"])


class InputError(ValueError):
    pass


def _load_config(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
        return from_json_dict(data)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise InputError("cannot read configuration %s: %s" % (path, e))


def _emit(obj, out: str | None):
    """Write a command's output: a report's own ``dumps()`` text, or a plain dict
    as ``json.dumps(indent=2, sort_keys=True)`` writes it."""
    text = json.dumps(obj, indent=2, sort_keys=True) if isinstance(obj, dict) else obj.dumps()
    text += "\n"  # before the write, so only one text is alive while write copies it
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError("cannot write %s: %s" % (out, e.strerror or e))
    elif sys.stdout is not None:  # None when started with stdout closed
        sys.stdout.write(text)  # one write: no lone newline can fail after the reader stops


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError("expected comma-separated indices, got %r" % text)


def _parse_rat(flag: str, text: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise InputError("%s expects a rational number, got %r" % (flag, text)) from None


def _parse_params(items) -> dict:
    params = {}
    for item in items or []:
        if "=" not in item:
            raise InputError("--param expects name=value, got %r" % item)
        k, v = item.split("=", 1)
        params[k] = _parse_rat("--param " + k, v)
    return params


def _cmd_gen(args) -> int:
    from .families import family_spec

    params = _parse_params(args.param)
    partition = None if args.partition is None else _parse_indices(args.partition)
    spec = family_spec(args.family, rank=args.rank, partition=partition, **params)
    cfg = generate(spec)
    if args.name:
        cfg = cfg.with_name(args.name)
    _emit(to_json_dict(cfg), args.output)
    return 0


def _cmd_check(args) -> int:
    cfg = _load_config(args.config)
    if len(cfg) == 0:
        raise InputError("empty covector list")
    report = vee_check(cfg, probe_flips=args.probe_flips, seed=args.seed)
    if args.json:
        _emit(report, None)
    else:
        print("vee-system: %s" % ("yes" if report.is_vee else "NO"))
        print("proportional forms: %s" % ("yes" if report.proportionality_ok else "NO"))
        print("lambda_sq: %s" % report.lambda_sq)
        flip = report.g2_positive_independent
        print("positive-system independent: %s" % ("not probed" if flip is None else flip))
        for w in report.c_delta_warnings:
            print("warning: zero class sum at anchor %d subset %s" % (w.anchor, list(w.subset)))
    return 0 if report.is_vee and report.proportionality_ok else 1


def _cmd_wdvv(args) -> int:
    from . import wdvv

    cfg = _load_config(args.config)
    if args.lambda_sq is not None:
        lam = _parse_rat("--lambda-sq", args.lambda_sq)
    else:
        from .veesystem import NotProportionalError, ZeroG2Error

        gram_inverse(cfg)  # a singular Gram form is named as check names it
        try:
            lam = lambda_sq(cfg)
        except (NotProportionalError, ZeroG2Error) as e:
            raise InputError("lambda^2 is undefined for this configuration: %s" % e)
    report = wdvv.wdvv_residual(cfg, lam, points=args.samples, seed=args.seed, tol=args.tol)
    if args.json:
        _emit({"lambda_sq": str(lam), **report._asdict()}, None)
    else:
        print("max scaled WDVV residual: %.3e (tol %.1e) -> %s"
              % (report.max_residual, report.tol, "pass" if report.passed else "FAIL"))
    return 0 if report.passed else 1


def _cmd_restrict(args) -> int:
    from .restriction import restrict
    from .veesystem import subsystem

    cfg = _load_config(args.config)
    handle = subsystem(cfg, _parse_indices(args.kernel_of))
    res = restrict(cfg, handle)
    payload = to_json_dict(res.child)
    payload["provenance"] = [list(p) for p in res.provenance]
    payload["basis"] = [[str(x) for x in b] for b in res.basis]
    _emit(payload, args.output)
    return 0


def _cmd_subsystem(args) -> int:
    from .veesystem import NotEigenError, m_operator, subsystem

    cfg = _load_config(args.config)
    handle = subsystem(cfg, _parse_indices(args.span))
    payload = {
        "members": list(handle.member_indices),
        "span_indices": list(handle.span_indices),
        "is_isotropic": handle.is_isotropic,
    }
    if not handle.is_isotropic:
        try:
            eig = m_operator(cfg, handle)
            payload["eigenvalues"] = [str(v) for v in eig.eigenvalues]
        except NotEigenError as e:  # certifies that the parent is no vee-system
            payload["eigenvalues_error"] = str(e)
    _emit(payload, None) if args.json else print(json.dumps(payload))
    return 0


def _cmd_gamma(args) -> int:
    from .families import PARAM_NAMES, family_spec
    from .gamma import root_data

    fam = args.family
    # family_spec checks the rank, which root_data takes on trust
    rank = family_spec(fam, args.rank, **dict.fromkeys(PARAM_NAMES.get(fam, ()), 1)).rank
    rd = root_data(fam, rank)
    if not rd.marks:
        raise InputError("family %s has no gamma route; gamma supports A, D, E6, E7, E8 (--t)"
                         " and B, C, F4, G2 (--p, --q)" % fam)
    if rd.simply_laced:
        if args.t is None:
            raise InputError("family %s takes --t" % fam)
        mult = {"all": _parse_rat("--t", args.t)}
    else:
        if args.p is None or args.q is None:
            raise InputError("family %s takes --p (short) and --q (long)" % fam)
        mult = {"short": _parse_rat("--p", args.p), "long": _parse_rat("--q", args.q)}
    spec = family_spec(fam, rank, **{c.param: mult[c.label] / c.norm_sq for c in rd.census})
    highest = gamma_tilde_sq(rd, mult)
    dual_form = gamma_tilde_sq_dual(rd, mult)
    direct = gamma_sq_direct(generate(spec), rd)
    payload = {
        "family": fam,
        "gamma_tilde_sq_highest_root": str(highest),
        "gamma_tilde_sq_dual_root": str(dual_form),
        "gamma_sq_direct": str(direct),
        "agree": highest == dual_form == direct,
    }
    if args.json:
        _emit(payload, None)
    else:
        print("gamma~^2 (highest root): %s" % highest)
        print("gamma~^2 (dual root):    %s" % dual_form)
        print("gamma^2  (direct route): %s" % direct)
    return 0 if payload["agree"] else 1


def _cmd_catalog(args) -> int:
    from .catalog import CatalogError
    from .families import _TABLE, family_spec

    params = _parse_params(args.param)
    if not params:
        fam = _TABLE.get(args.family)
        if fam is None or not fam.catalog_ones:
            raise InputError("family %s needs explicit --param values" % args.family)
        params = dict.fromkeys(fam.params, Fraction(1))
    spec = family_spec(args.family, rank=args.rank, **params)
    cfg = generate(spec)
    label = ",".join("%s=%s" % kv for kv in spec.params)
    try:
        cat = build_catalog(cfg, args.family, label, args.max_corank)
    except CatalogError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    _emit(cat, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="trigvee")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a built-in family configuration")
    g.add_argument("--family", required=True)
    g.add_argument("--rank", type=int)
    g.add_argument("--param", action="append", metavar="NAME=VALUE")
    g.add_argument("--partition", metavar="M1,M2,...")
    g.add_argument("--name")
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("check", help="vee-condition / proportionality report")
    c.add_argument("config")
    c.add_argument("--json", action="store_true")
    c.add_argument("--probe-flips", type=int, default=2)
    c.add_argument("--seed", type=int, default=7)
    c.set_defaults(func=_cmd_check)

    w = sub.add_parser("wdvv", help="floating-point WDVV residual verification")
    w.add_argument("config")
    w.add_argument("--lambda-sq")
    w.add_argument("--samples", type=int, default=20)
    w.add_argument("--seed", type=int, default=42)
    w.add_argument("--tol", type=float, default=1e-8)
    w.add_argument("--json", action="store_true")
    w.set_defaults(func=_cmd_wdvv)

    r = sub.add_parser("restrict", help="restrict to the kernel of chosen covectors")
    r.add_argument("config")
    r.add_argument("--kernel-of", required=True, metavar="I,J,...")
    r.add_argument("-o", "--output")
    r.set_defaults(func=_cmd_restrict)

    s = sub.add_parser("subsystem", help="span closure, isotropy and eigenvalues")
    s.add_argument("config")
    s.add_argument("--span", required=True, metavar="I,J,...")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_subsystem)

    ga = sub.add_parser("gamma", help="highest-root constants by all three routes")
    ga.add_argument("--family", required=True)
    ga.add_argument("--rank", type=int)
    ga.add_argument("--p")
    ga.add_argument("--q")
    ga.add_argument("--t")
    ga.add_argument("--json", action="store_true")
    ga.set_defaults(func=_cmd_gamma)

    ca = sub.add_parser("catalog", help="deduplicated restriction catalog")
    ca.add_argument("--family", required=True)
    ca.add_argument("--rank", type=int)
    ca.add_argument("--param", action="append", metavar="NAME=VALUE")
    ca.add_argument("--max-corank", type=int, required=True)
    ca.add_argument("-o", "--output")
    ca.set_defaults(func=_cmd_catalog)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    with warnings.catch_warnings():  # library warnings print as one line, like errors
        warnings.showwarning = lambda message, *_: print("warning: %s" % message, file=sys.stderr)
        try:
            code = args.func(args)
            if sys.stdout is not None:  # None when started with stdout closed
                sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's final flush
            return code
        except BrokenPipeError:
            # the reader stopped early; what is still buffered goes to devnull at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        except (InputError, ValueError, KeyError, ZeroDivisionError) as e:
            print("error: %s" % e, file=sys.stderr)
            # a restriction refused for a zero class sum exits 1; only a loaded module raises it
            refused = getattr(sys.modules.get(__package__ + ".restriction"), "CDeltaZeroError", ())
            return 1 if isinstance(e, refused) else 2
        except MemoryError as e:
            print("error: out of memory%s" % (": %s" % e if str(e) else ""), file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
