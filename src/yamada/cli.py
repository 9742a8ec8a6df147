"""Command-line front end.

Every computation in the package is reachable from one `yamada` entry
point: graph invariants, the chain polynomial, diagram state sums and
diagram surgery, piece composition, family closed forms, the root
sweeps, the density search, the limit curve tracer, and the region
membership test.  Results go to stdout or `--out` as plain text
polynomials, JSON, CSV, or the SVG scatter, and `yamada selftest`
replays the golden closed forms end to end.

Exit codes: 0 on success, 1 when a computation raises a domain error
(the error class name is printed on stderr), 2 on usage errors.
`roots-scan` also writes one warning line to stderr for each cell with
records whose residual is above `--tol`, and still exits 0.  There
are no configuration files; everything is a flag, so identical argv
means identical output bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .errors import YamadaError
from .laurent import LaurentPoly, parse_poly
from . import multigraph as mg
from . import chain as ch
from . import diagram as dg
from . import replace as rp
from . import roots as rt


# ---------------------------------------------------------------------------
# argv plumbing

def _complex_arg(text: str) -> complex:
    """Complex numbers as users type them: 0.5i, -2, 1+2j, 0.3-0.7i, inf.
    Only a trailing i is the imaginary unit; the i of inf stays."""
    cleaned = text.strip()
    if cleaned.endswith("i"):
        cleaned = cleaned[:-1] + "j"
    if cleaned.startswith("+"):
        cleaned = cleaned[1:]
    try:
        return complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _span_arg(text: str) -> tuple[int, ...]:
    """Integer grids: '4', '1-12', '1,3,5-7'."""
    out: list[int] = []
    try:
        for piece in text.split(","):
            piece = piece.strip()
            if "-" in piece[1:]:
                cut = piece.index("-", 1)
                lo, hi = int(piece[:cut]), int(piece[cut + 1 :])
                if hi < lo:
                    raise ValueError
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(piece))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer span: {text!r}")
    if not out:
        raise argparse.ArgumentTypeError("empty span")
    return tuple(out)


def _signs_arg(text: str) -> tuple[str, ...]:
    signs = tuple(s.strip() for s in text.split(","))
    if not signs or any(s not in ("+", "-") for s in signs):
        raise argparse.ArgumentTypeError(f"signs must be '+' or '-': {text!r}")
    return signs


def _cap_arg(text: str):
    """Guard caps: a positive integer, or 'none' to disable the guard."""
    if text.strip().lower() == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a cap: {text!r}")


def _load_json(spec: str):
    """--in accepts a path, '-' for stdin, or inline JSON text."""
    stripped = spec.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        text = stripped
    elif stripped == "-":
        text = sys.stdin.read()
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _emit(args, payload: str) -> None:
    if not payload.endswith("\n"):
        payload += "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def _poly_payload(p: LaurentPoly, fmt: str, var: str = "A") -> str:
    if fmt == "json":
        return _dumps({"var": var, "poly": p.to_text(var)})
    return p.to_text(var)


# ---------------------------------------------------------------------------
# one handler per subcommand

def _cmd_graph_h(args) -> str:
    g = mg.graph_from_dict(_load_json(args.infile))
    return _poly_payload(mg.yamada_h(g, max_edges=args.max_edges), args.format)


def _cmd_graph_h_oracle(args) -> str:
    g = mg.graph_from_dict(_load_json(args.infile))
    return _poly_payload(
        mg.yamada_h_subset_sum(g, max_edges=args.max_edges), args.format
    )


def _cmd_flow(args) -> str:
    g = mg.graph_from_dict(_load_json(args.infile))
    p = mg.flow_polynomial(g, max_edges=args.max_edges)
    return _poly_payload(p, args.format, var="t")


def _cmd_chain(args) -> str:
    g, labels = ch.labelled_from_dict(_load_json(args.infile))
    p = ch.chain_polynomial(g, labels, max_edges=args.max_edges)
    if args.format == "json":
        return _dumps({"vars": list(p.vars), "poly": p.to_text()})
    return p.to_text()


def _cmd_diagram_r(args) -> str:
    code = dg.code_from_dict(_load_json(args.infile))
    return _poly_payload(
        dg.yamada_r(code, max_crossings=args.max_crossings), args.format
    )


def _cmd_mirror(args) -> str:
    code = dg.code_from_dict(_load_json(args.infile))
    return dg.code_to_json(dg.mirror(code))


def _cmd_close(args) -> str:
    code = dg.code_from_dict(_load_json(args.infile))
    return dg.code_to_json(dg.close_piece(code))


def _piece_from_dict(d: dict) -> rp.PieceInvariants:
    if "twist" in d:
        return rp.infinity_closed_form(int(d["twist"]), d.get("sign", "+"))
    return rp.PieceInvariants(
        parse_poly(str(d["r"])), parse_poly(str(d["r_closed"]))
    )


def _cmd_compose(args) -> str:
    payload = _load_json(args.infile)
    if isinstance(payload, dict):
        shape = payload["shape"]
        piece_dicts = payload["pieces"]
    else:
        if args.shape is None:
            raise ValueError("a bare piece list needs --shape")
        shape, piece_dicts = args.shape, payload
    pieces = [_piece_from_dict(d) for d in piece_dicts]
    return _poly_payload(rp.r_compose(shape, pieces), args.format)


def _cmd_family(args) -> str:
    p = rp.family_polynomial(
        args.n, args.s, args.k, args.sign, degree_cap=args.degree_cap
    )
    return _poly_payload(p, args.format)


def _cmd_roots_scan(args) -> str:
    # written so that NaN fails too: no residual is above a NaN tol
    if not args.tol >= 0:
        raise ValueError(f"tol must be nonnegative, not {args.tol}")
    records = rt.scan_family(
        args.ns,
        args.ss,
        args.ks,
        signs=args.signs,
        degree_cap=args.degree_cap,
        jobs=args.jobs,
    )
    # every record comes back whatever its residual; say which cells hold
    # records not certified at --tol rather than passing them silently
    above = Counter(
        (r.n, r.s, r.k, r.sign) for r in records if r.residual > args.tol
    )
    for (n, s, k, sign), count in above.items():
        sys.stderr.write(
            f"warning: cell n={n} s={s} k={k} sign={sign}: {count} records"
            f" with residual above tol {args.tol!r}\n"
        )
    if args.format == "json":
        return _dumps([rt.record_to_dict(r) for r in records])
    if args.format == "svg":
        return rt.records_to_svg(records)
    return rt.records_to_csv(records)


def _cmd_density(args) -> str:
    caps = rt.SearchCaps(
        k_max=args.kmax,
        s_max=args.smax,
        n_max=args.nmax,
        degree_cap=args.degree_cap,
    )
    out = rt.density_witness(
        args.z0, args.eps, caps=caps, tol=args.tol, jobs=args.jobs
    )
    return _dumps(rt.witness_to_dict(out))


def _cmd_curve(args) -> str:
    points = rt.limit_curve_points(
        args.s,
        args.k,
        angles=args.angles,
        radial=args.radial,
        r_lo=args.r_lo,
        r_hi=args.r_hi,
        refine=args.refine,
    )
    if args.format == "json":
        return _dumps([[z.real, z.imag] for z in points])
    lines = ["re,im"] + [f"{z.real!r},{z.imag!r}" for z in points]
    return "\n".join(lines)


def _cmd_omega(args) -> str:
    member = rt.omega_member(args.z)
    if args.format == "json":
        return _dumps(
            {"member": member, "z": [args.z.real, args.z.imag]}
        )
    return "true" if member else "false"


# ---------------------------------------------------------------------------
# selftest: the golden closed forms, replayed from scratch

def _selftest_items():
    from .laurent import exact_div, sigma, variable, compare_up_to_unit

    A = variable()
    S = sigma()

    def theta_piece(s):
        return rp.PieceInvariants(
            mg.yamada_h(mg.theta_graph(s)), (-1) ** (s - 1) * S ** s
        )

    def eq(got, want, what=""):
        if got != want:
            raise AssertionError(f"{what} got {got!r}, want {want!r}")

    def sigma_constant():
        eq(S, parse_poly("A + 1 + A^-1"), "sigma")

    def single_vertex():
        eq(mg.yamada_h(mg.make_graph([0], [])), parse_poly("-1"), "H(point)")

    def cycles():
        for n in range(1, 7):
            eq(mg.yamada_h(mg.cycle_graph(n)), S, f"H(cycle {n})")

    def bouquets():
        for q in range(1, 7):
            eq(
                mg.yamada_h(mg.bouquet_graph(q)),
                (-1) ** (q - 1) * S ** q,
                f"H(bouquet {q})",
            )

    def thetas():
        for s in range(1, 7):
            eq(
                (S + 1) * mg.yamada_h(mg.theta_graph(s)),
                S + (-S) ** s,
                f"(sigma+1) H(theta {s})",
            )

    def chain_cycles():
        for n in range(2, 5):
            g, labels = ch.labelled_cycle(n)
            p = ch.chain_polynomial(g, labels)
            vars = p.vars
            w = ch.MultiPoly.var(vars, "w")
            prod = ch.MultiPoly.const(vars, 1)
            for name in vars[1:]:
                prod = prod * ch.MultiPoly.var(vars, name)
            eq(p, prod - w, f"chain(cycle {n})")

    def chain_bouquets():
        for q in range(1, 4):
            g, labels = ch.labelled_bouquet(q)
            p = ch.chain_polynomial(g, labels)
            vars = p.vars
            w = ch.MultiPoly.var(vars, "w")
            prod = ch.MultiPoly.const(vars, 1)
            for name in vars[1:]:
                prod = prod * (ch.MultiPoly.var(vars, name) - w)
            eq(p, prod, f"chain(bouquet {q})")

    def chain_thetas():
        for s in range(1, 5):
            g, labels = ch.labelled_theta(s)
            p = ch.chain_polynomial(g, labels)
            vars = p.vars
            one = ch.MultiPoly.const(vars, 1)
            w = ch.MultiPoly.var(vars, "w")
            lhs = (one - w) * p
            prod_w = one
            prod_1 = one
            for name in vars[1:]:
                prod_w = prod_w * (ch.MultiPoly.var(vars, name) - w)
                prod_1 = prod_1 * (ch.MultiPoly.var(vars, name) - one)
            eq(lhs, prod_w - w * prod_1, f"(1-w) chain(theta {s})")

    def twist_open_forms():
        for k in range(1, 6):
            piece = rp.infinity_closed_form(k, "+")
            eq(piece.r, S * A ** (-2 * k), f"open twist {k}")
            eq(rp.infinity_closed_form(k, "-").r, S * A ** (2 * k))

    def twist_closed_forms():
        for k in range(1, 6):
            piece = rp.infinity_closed_form(k, "+")
            eq(
                piece.r_closed,
                S * rp.twist_scale(k) - piece.r,
                f"closed twist {k}",
            )
        p2 = rp.infinity_closed_form(2, "+")
        eq(p2.r_closed, -S * A ** -2 * (A + A ** -1) - S * A ** -4)

    def twist_state_sums():
        for k in range(0, 6):
            piece = rp.infinity_closed_form(k, "+")
            code = dg.build_twist(k, "+")
            eq(dg.yamada_r(code), piece.r, f"state sum twist {k}")
            eq(
                dg.yamada_r(dg.close_piece(code)),
                piece.r_closed,
                f"state sum closed twist {k}",
            )

    def calibration_positive_crossing():
        # the one item that trips when the smoothing weights for the two
        # crossing signs are swapped: a single positive crossing must
        # carry A^-2, its mirror A^2
        one_plus = dg.build_twist(1, "+")
        eq(dg.yamada_r(one_plus), A ** -2 * S, "positive crossing weight")
        eq(dg.yamada_r(dg.mirror(one_plus)), A ** 2 * S)

    def crossing_free_cycle():
        eq(dg.yamada_r(rp.build_family_diagram(3, 1, 0)), S)

    def second_move_exact():
        code = dg.build_twist(1, "+")
        arcs = sorted(code.arcs)
        moved = dg.apply_move(code, "r2_insert", arc_a=arcs[0], arc_b=arcs[1])
        eq(dg.yamada_r(moved), dg.yamada_r(code), "second move")

    def kink_unit():
        code = dg.build_twist(1, "+")
        arcs = sorted(code.arcs)
        moved = dg.apply_move(code, "r1_insert", arc=arcs[0], sign="+")
        unit = compare_up_to_unit(dg.yamada_r(moved), dg.yamada_r(code))
        if unit is None:
            raise AssertionError("kink changed the value beyond a unit")

    def mirror_relation():
        for k in range(1, 4):
            code = dg.build_twist(k, "+")
            eq(
                dg.yamada_r(dg.mirror(code)),
                dg.yamada_r(code).mirror(),
                f"mirror twist {k}",
            )

    def alpha_beta_values():
        # cleared forms: sigma*alpha = (sigma+1)*r + r_closed and
        # sigma*beta = r + r_closed
        edge = rp.infinity_closed_form(0)
        eq((S + 1) * edge.r + edge.r_closed, S, "alpha of a plain edge")
        eq(edge.r + edge.r_closed, S, "beta of a plain edge")
        for k in range(1, 5):
            piece = rp.infinity_closed_form(k, "+")
            eq(
                piece.r + piece.r_closed,
                S * rp.twist_scale(k),
                f"beta of twist {k}",
            )

    def compose_cycle_of_twists():
        tw = rp.infinity_closed_form(1, "+")
        for n in range(1, 6):
            eq(
                rp.r_compose("cycle", [tw] * n),
                (-(S * A ** -2)) ** n + S * (A ** -2 + 1) ** n,
                f"cycle {n} of twists",
            )

    def compose_theta_of_twists():
        tw = rp.infinity_closed_form(1, "+")
        for s in range(1, 6):
            num = (-S) ** s + S * ((S + 1) * A ** -2 + 1) ** s
            eq(
                rp.r_compose("theta", [tw] * s),
                exact_div(num, S + 1),
                f"theta {s} of twists",
            )

    def compose_bouquet_of_twists():
        tw = rp.infinity_closed_form(1, "+")
        for q in range(1, 6):
            eq(
                rp.r_compose("bouquet", [tw] * q),
                (-1) ** (q - 1) * S ** q,
                f"bouquet {q} of twists",
            )

    def cycle_of_bundles():
        for n, s in ((2, 2), (3, 2), (2, 3)):
            piece = theta_piece(s)
            base = mg.cycle_graph(n)
            labels = {eid: "a" for eid, _, _ in base.edges}
            got = rp.h_edge_replace(base, labels, {"a": piece})
            want = exact_div(
                S ** (n - 1) * (-piece.r) ** n + (piece.r + piece.r_closed) ** n,
                S ** (n - 1),
            )
            eq(got, want, f"cycle {n} of {s}-bundles")

    def family_single_strand():
        tw = rp.infinity_closed_form(1, "+")
        for n in range(1, 6):
            eq(
                rp.family_polynomial(n, 1, 1, "+"),
                rp.r_compose("cycle", [tw] * n),
                f"family ({n},1,1)",
            )

    def family_state_sums():
        triples = [
            (n, s, k)
            for n in range(1, 7)
            for s in range(1, 7)
            for k in range(1, 7)
            if n * s * k <= 6
        ]
        for n, s, k in triples:
            eq(
                rp.family_polynomial(n, s, k, "+"),
                dg.yamada_r(rp.build_family_diagram(n, s, k)),
                f"family ({n},{s},{k})",
            )

    def graph_oracle_agreement():
        graphs = (
            [mg.cycle_graph(n) for n in range(1, 6)]
            + [mg.theta_graph(s) for s in range(1, 5)]
            + [mg.bouquet_graph(q) for q in range(1, 5)]
            + [mg.tree_graph(3)]
        )
        for g in graphs:
            eq(mg.yamada_h(g), mg.yamada_h_subset_sum(g))

    def chain_oracle_agreement():
        for g, labels in (
            ch.labelled_cycle(3),
            ch.labelled_theta(3),
            ch.labelled_bouquet(2),
        ):
            eq(ch.chain_polynomial(g, labels), ch.chain_via_flows(g, labels))

    return [
        ("sigma constant", sigma_constant),
        ("single vertex graph", single_vertex),
        ("cycle graphs", cycles),
        ("bouquet graphs", bouquets),
        ("theta graphs", thetas),
        ("chain of cycles", chain_cycles),
        ("chain of bouquets", chain_bouquets),
        ("chain of thetas", chain_thetas),
        ("twist open forms", twist_open_forms),
        ("twist closed forms", twist_closed_forms),
        ("twist state sums", twist_state_sums),
        ("calibration positive crossing", calibration_positive_crossing),
        ("crossing-free cycle diagram", crossing_free_cycle),
        ("second move exactness", second_move_exact),
        ("kink unit equivalence", kink_unit),
        ("mirror relation", mirror_relation),
        ("alpha beta values", alpha_beta_values),
        ("compose cycle of twists", compose_cycle_of_twists),
        ("compose theta of twists", compose_theta_of_twists),
        ("compose bouquet of twists", compose_bouquet_of_twists),
        ("cycle of theta bundles", cycle_of_bundles),
        ("family single strand", family_single_strand),
        ("family state sums", family_state_sums),
        ("graph oracle agreement", graph_oracle_agreement),
        ("chain oracle agreement", chain_oracle_agreement),
    ]


def _cmd_selftest(args) -> int:
    items = _selftest_items()
    failures = 0
    for name, item in items:
        try:
            item()
        except Exception as err:
            failures += 1
            detail = str(err) or type(err).__name__
            line = f"FAIL {name}: {detail}"
        else:
            line = f"ok   {name}"
        sys.stdout.write(line + "\n")
    sys.stdout.write(f"{len(items) - failures}/{len(items)} items passed\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser

_DEGREE_CAP_HELP = (
    "cap on the degree estimate of a member (not a bound on its degree)"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yamada",
        description="Yamada polynomials of spatial graphs and their roots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help, formats=("text", "json"), default_format="text"):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if formats:
            p.add_argument(
                "--format", choices=formats, default=default_format,
                help=f"output format (default {default_format})",
            )
        p.add_argument("--out", help="write output here instead of stdout")
        return p

    p = add(name="graph-h", handler=_cmd_graph_h,
            help="Yamada invariant of a multigraph")
    p.add_argument("--in", dest="infile", required=True,
                   help="graph JSON: a path, '-', or inline text")
    p.add_argument("--max-edges", type=_cap_arg, default=14,
                   help="edge guard for the recursion (default 14, 'none' disables)")

    p = add(name="graph-h-oracle", handler=_cmd_graph_h_oracle,
            help="same invariant through the subset expansion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-edges", type=_cap_arg, default=14)

    p = add(name="flow", handler=_cmd_flow, help="flow polynomial in t")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-edges", type=_cap_arg, default=16)

    p = add(name="chain", handler=_cmd_chain,
            help="chain polynomial of an edge-labelled graph")
    p.add_argument("--in", dest="infile", required=True,
                   help="graph JSON with a \"labels\" table")
    p.add_argument("--max-edges", type=_cap_arg, default=16)

    p = add(name="diagram-r", handler=_cmd_diagram_r,
            help="state sum of a diagram code")
    p.add_argument("--in", dest="infile", required=True,
                   help="diagram JSON: a path, '-', or inline text")
    p.add_argument("--max-crossings", type=_cap_arg, default=14,
                   help="crossing guard (default 14, 'none' disables)")

    p = add(name="mirror", handler=_cmd_mirror,
            help="mirror image of a diagram code", formats=("json",),
            default_format="json")
    p.add_argument("--in", dest="infile", required=True)

    p = add(name="close", handler=_cmd_close,
            help="join the two attach sites of a piece", formats=("json",),
            default_format="json")
    p.add_argument("--in", dest="infile", required=True)

    p = add(name="compose", handler=_cmd_compose,
            help="compose piece invariants along a template shape")
    p.add_argument("--in", dest="infile", required=True,
                   help='{"shape": ..., "pieces": [{"twist": 1, "sign": "+"},'
                        ' {"r": "...", "r_closed": "..."}]} or a bare piece'
                        " list with --shape")
    p.add_argument("--shape", choices=("cycle", "theta", "bouquet"))

    p = add(name="family", handler=_cmd_family,
            help="closed-form family polynomial")
    p.add_argument("--n", type=int, required=True, help="beads in the necklace")
    p.add_argument("--s", type=int, required=True, help="strands per bundle")
    p.add_argument("--k", type=int, required=True, help="crossings per band")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--degree-cap", type=_cap_arg, default=4000,
                   help=_DEGREE_CAP_HELP + ", or none")

    p = add(name="roots-scan", handler=_cmd_roots_scan,
            help="root records over a family grid",
            formats=("csv", "json", "svg"), default_format="csv")
    p.add_argument("--ns", type=_span_arg, required=True,
                   help="bead counts, e.g. 1-12 or 2,4,8")
    p.add_argument("--ss", type=_span_arg, required=True)
    p.add_argument("--ks", type=_span_arg, required=True)
    p.add_argument("--signs", type=_signs_arg, default=("+",),
                   help="comma-separated, e.g. +,-")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--degree-cap", type=_cap_arg, default=4000,
                   help=_DEGREE_CAP_HELP + ", or none")
    p.add_argument("--jobs", type=int, default=1)

    p = add(name="density", handler=_cmd_density,
            help="hunt for a family root near a target",
            formats=("json",), default_format="json")
    p.add_argument("--z0", type=_complex_arg, required=True,
                   help="target point, e.g. 0.5i or 0.3-0.7i; values starting"
                        " with a minus need the --z0=-0.5 form")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--kmax", type=int, default=12)
    p.add_argument("--smax", type=int, default=6)
    p.add_argument("--nmax", type=int, default=24)
    p.add_argument("--degree-cap", type=int, default=4000,
                   help=_DEGREE_CAP_HELP)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--jobs", type=int, default=1)

    p = add(name="curve", handler=_cmd_curve,
            help="sample the limit curve of a family column",
            formats=("csv", "json"), default_format="csv")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--angles", type=int, default=720)
    p.add_argument("--radial", type=int, default=240)
    p.add_argument("--r-lo", type=float, default=0.05)
    p.add_argument("--r-hi", type=float, default=20.0)
    p.add_argument("--refine", type=float, default=1e-8)

    p = add(name="omega", handler=_cmd_omega,
            help="membership in the root-free region")
    p.add_argument("--z", type=_complex_arg, required=True)

    p = sub.add_parser("selftest", help="replay the golden closed forms")
    p.set_defaults(handler=_cmd_selftest, selftest=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "selftest", False):
            return args.handler(args)
        payload = args.handler(args)
    except YamadaError as err:
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 1
    _emit(args, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
