"""Command line interface: analyze a fiber, or scan a rational grid."""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys
from fractions import Fraction
from functools import cache, lru_cache
from json.encoder import encode_basestring_ascii as _escape_json
from typing import Optional

from .errors import (
    InvalidPolytope,
    NoConvergence,
    NotInterior,
    ParseError,
)
from .novikov import NovikovElement, _render
from .potential import _alpha, _critical_fiber, _gradient, _hf_rank, _l_table
from .toric import Fiber, ToricFano, _digit_limit, _fiber_areas, _grid_lines, _line_balance
from .toric import _over_digit_limit, _parse_rational

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NOT_INTERIOR = 3
EXIT_NO_CONVERGENCE = 4

CONVENTION_NOTE = (
    "Clifford relations are shown in the anticommutator convention "
    "C_i*C_j + C_j*C_i = Q_ij with Q_ij = sum_k v_ki*v_kj*T^{e_k}*q and "
    "C_i^2 = (1/2)*Q_ii.  Presentations derived from the tensor ideal "
    "x(x) - (1/2)Q(x,x) list the same ring with halved off-diagonal "
    "entries; only the display convention differs."
)


def render_novikov(e: NovikovElement, two_pi: bool = False) -> str:
    if not two_pi:
        return str(e)
    return _render(e, lambda t: f"T^{float(t) * 2 * math.pi:.6g}")


# ---------------------------------------------------------------------------
# analyze


def _per_value(f, items) -> dict:
    """{key: f(value)} over the (key, value) items, calling f once per
    distinct value object.  The memo is keyed by id(value), which is sound
    while the caller holds every value, as analyze holds its l-table."""
    seen: dict = {}
    out = {}
    for key, value in items:
        ident = id(value)
        if ident not in seen:
            seen[ident] = f(value)
        out[key] = seen[ident]
    return out


def _parse_fiber_arg(arg: str, n: int) -> Fiber:
    try:
        coords = tuple(_parse_rational(p.strip()) for p in arg.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse fiber point {arg!r}: {exc}") from exc
    if len(coords) != n:
        raise ParseError(f"fiber point has {len(coords)} coordinates, expected {n}")
    return Fiber(coords)


def _chain_map_block(n: int, N: int, l: int) -> dict:
    """The chain_map block at a balanced, strictly interior fiber with N
    facets and l area classes, in closed form.

    The block is ChainAlgebra.chain_map_certificate (chains.py) of the
    sum of the 2^n basis monomials l_S, C(n, k) of them in degree k.  At
    such a fiber e_j = a_t for each facet j of class t, so the terms
    d_j * Q_R of D * T whose R misses j's class cancel against
    boundary(T).  E = d(T) keeps one term d_j * Q_R for each facet j and
    each set R of r >= 1 classes holding j's class, N * C(l - 1, r - 1)
    of degree 1 + 2r; summed over j in class t these are degenerate
    pairs, so reduce(E) = 0.  T has C(l, r) terms Q_R of degree 2r, and
    none lowers a valuation since every class area is positive.  So
    all_hold is true, and each count is the number of pairs of a term and
    a basis monomial, the ones above n those whose degrees sum past n.
    """

    def above(count: int, degree: int) -> int:
        return count * sum(math.comb(n, k) for k in range(n + 1) if degree + k > n)

    residual = 2**n * N * 2 ** (l - 1)
    overdim = sum(above(N * math.comb(l - 1, r - 1), 1 + 2 * r) for r in range(1, l + 1))
    return {
        "monomials_checked": 2**n,
        "all_hold": True,
        "correction_terms_above_dim": sum(above(math.comb(l, r), 2 * r) for r in range(l + 1)),
        "residual_terms_above_dim": overdim,
        "residual_terms_square_rule": residual - overdim,
    }


# the row layouts _LProducts.layout keeps: one per recently used n,
# --lmax and output format, since a process may run main many times, and
# only those of at most _LAYOUT_ROWS rows, since a layout grows as n^lmax
_LAYOUTS = 16
_LAYOUT_ROWS = 4096


class _LProducts:
    """analyze's l_products: one row l(i_1, ..., i_m) per ordered index
    tuple of length m <= lmax over n axes, its value the rendered text
    (and, if given, the numeric column) of its sorted 0-based tuple.

    The JSON writer and the text renderer write each row as its prefix,
    which depends only on n, lmax and the format, then the tail of its
    sorted key's value, built once per distinct value.  layout() keeps the
    prefixes and keys of the _LAYOUTS most recently used layouts of at
    most _LAYOUT_ROWS rows for the life of the process, as tuples, so no
    report can change a later one; lines() builds a larger layout for the
    one call.  As JSON the rows are the list of {"indices": [1-based],
    "numeric": ..., "value": ...} dicts.
    """

    def __init__(self, n: int, lmax: int, text: dict, numeric: Optional[dict] = None):
        self.n, self.lmax, self.text, self.numeric = n, lmax, text, numeric

    @staticmethod
    @lru_cache(maxsize=_LAYOUTS)
    def layout(
        lmax: int, pieces: tuple[str, ...], frame: tuple[str, str, str]
    ) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
        """(each row's prefix, each row's sorted 0-based key), in print
        order, over len(pieces) axes.  A row's prefix is its indices as
        pieces[i] joined by ",", between frame[0] and frame[1]; the row of
        no index has frame[2].

        No row sorts its indices: the rows of length m are those of length
        m - 1, each extended by each index, and a row's key is read from a
        map of each sorted key to its extensions, filled once per key."""
        level = [("", ())]
        rows = list(level)
        extensions: dict = {}
        for _ in range(lmax):
            nxt = []
            for text, key in level:
                if key not in extensions:
                    extensions[key] = [tuple(sorted((*key, i))) for i in range(len(pieces))]
                head = text + "," if key else ""
                nxt += [(head + piece, k) for piece, k in zip(pieces, extensions[key])]
            rows += nxt
            level = nxt
        start, end, empty = frame
        prefixes = (empty, *(start + text + end for text, _key in rows[1:]))
        return prefixes, tuple(key for _text, key in rows)

    def lines(self, pieces: tuple[str, ...], frame: tuple[str, str, str], tail) -> map:
        """Each row as its layout prefix followed by tail(value, numeric)
        of its sorted key, numeric None without the numeric column.  Many
        keys share one value: tail runs once per distinct (value, numeric)
        pair."""
        numeric = self.numeric
        built: dict = {}
        tails = {}
        for key, value in self.text.items():
            if len(key) <= self.lmax:
                pair = (value, None if numeric is None else numeric[key])
                if pair not in built:
                    built[pair] = tail(*pair)
                tails[key] = built[pair]
        rows = sum(self.n**m for m in range(self.lmax + 1))
        layout = self.layout if rows <= _LAYOUT_ROWS else self.layout.__wrapped__
        prefixes, keys = layout(self.lmax, pieces, frame)
        return map(operator.add, prefixes, map(tails.__getitem__, keys))


def cmd_analyze(args) -> dict:
    X = load_from_arg(args.input)
    if args.fiber:
        fiber, areas, grad_norm = _parse_fiber_arg(args.fiber, X.n), None, None
        fiber_source = "given"
    else:
        fiber, areas, grad_norm = _critical_fiber(X, None, args.tol, args.max_iters)
        fiber_source = "solver"

    # the solver's exact balanced fiber comes with its areas and balance
    classes, partition, (balanced, class_sums) = areas or _fiber_areas(X, fiber)
    # the areas are the only derived rationals printed: every other value
    # is an integer, a half or an area exponent
    limit = _digit_limit()
    for area, _idxs in partition:
        if _over_digit_limit(area, limit):
            raise ParseError(
                f"a disc area at this fiber has more than {limit} digits "
                "in its numerator or denominator and cannot be printed"
            )
    # one table gives the rank (row 1 is (-1)^n alpha), the Hessian and the
    # Clifford relations (row 2 is Q) and the printed rows (up to --lmax);
    # keys of equal value share one element, rendered once
    table = _l_table(X, partition, max(args.lmax, 2))
    rank = _hf_rank(X.n, [table[(i,)] for i in range(X.n)])
    text = _per_value(lambda value: render_novikov(value, args.two_pi), table.items())
    # the solver's gradient, read at the reported fiber unless the solver
    # accepted its exact candidate on it: the same floats, the same bits
    if grad_norm is None:
        grad_norm = max(map(abs, _gradient(X, [float(u) for u in fiber.u])))

    notes = [CONVENTION_NOTE]
    if args.two_pi:
        notes.append(
            "T-exponents are displayed times 2*pi (areas in angular units); "
            "stored exponents stay in affine units."
        )
    if args.numeric:
        notes.append("numeric columns substitute T^e -> exp(-e) and q -> 1.")
    if not fiber.exact:
        notes.append(
            "the critical point did not round to an exactly balanced rational "
            "point; coordinates below are the float iterate."
        )

    doc: dict = {
        "polytope": {
            "name": X.name,
            "dim": X.n,
            "facets": [
                {"normal": list(v), "offset": str(lam)}
                for v, lam in zip(X.normals, X.offsets)
            ],
        },
        "fiber": {
            "u": [str(u) for u in fiber.u]
            if fiber.exact
            else [repr(float(u)) for u in fiber.u],
            "exact": fiber.exact,
            "source": fiber_source,
            "gradient_norm": repr(grad_norm),
        },
        "disc_areas": [
            {"facet": d.index + 1, "normal": list(d.normal), "area": str(d.area)}
            for d in classes
        ],
        "area_classes": [
            {
                "area": str(area),
                "facets": [k + 1 for k in idxs],
                "normal_sum": list(s),
            }
            for (area, idxs), s in zip(partition, class_sums)
        ],
        "balanced": balanced,
        "hf_rank": rank,
        "notes": notes,
    }

    doc["hessian"] = [[text[min(i, j), max(i, j)] for j in range(X.n)] for i in range(X.n)]
    if balanced:
        halves = _per_value(
            lambda value: render_novikov(value * Fraction(1, 2), args.two_pi),
            ((i, table[i, i]) for i in range(X.n)),
        )
        doc["clifford_relations"] = [
            f"C_{i + 1}^2 = {halves[i]}" for i in range(X.n)
        ] + [
            f"C_{i + 1}*C_{j + 1} + C_{j + 1}*C_{i + 1} = {text[i, j]}"
            for i in range(X.n)
            for j in range(i + 1, X.n)
        ]

    # l is symmetric in its indices: one numeric column per distinct value
    # over the sorted index tuples, one printed row per ordered tuple
    numeric = (
        _per_value(
            lambda value: repr(value.numeric()),
            ((key, value) for key, value in table.items() if len(key) <= args.lmax),
        )
        if args.numeric
        else None
    )
    doc["l_products"] = _LProducts(X.n, args.lmax, text, numeric)

    if balanced:
        # balanced, and disc_areas found every area positive: the two
        # hypotheses under which the block holds in closed form
        doc["chain_map"] = cm = _chain_map_block(X.n, X.num_facets, len(partition))
        if cm["correction_terms_above_dim"] or cm["residual_terms_square_rule"]:
            notes.append(
                "some correction or residual terms have symbolic dimension "
                "above the torus dimension, or cancel only as boundaries of "
                "degenerate squares; they vanish as currents and are counted "
                "in chain_map, not dropped."
            )

    return doc


def _analysis_text(doc: dict) -> list[str]:
    lines = []
    poly = doc["polytope"]
    lines.append(f"polytope {poly['name']} (dim {poly['dim']})")
    for fct in poly["facets"]:
        lines.append(f"  facet normal {fct['normal']} offset {fct['offset']}")
    fib = doc["fiber"]
    lines.append(
        f"fiber ({', '.join(fib['u'])})  [{fib['source']}, "
        f"{'exact' if fib['exact'] else 'float'}]"
    )
    lines.append(f"  gradient norm {fib['gradient_norm']}")
    lines.append("disc areas:")
    for d in doc["disc_areas"]:
        lines.append(f"  facet {d['facet']} normal {d['normal']}: {d['area']}")
    lines.append("area classes:")
    for c in doc["area_classes"]:
        lines.append(
            f"  area {c['area']}: facets {c['facets']} normal sum {c['normal_sum']}"
        )
    lines.append(f"balanced: {doc['balanced']}")
    lines.append(f"hf_rank: {doc['hf_rank']}")
    lines.append("hessian:")
    for row in doc["hessian"]:
        lines.append("  [" + ", ".join(row) + "]")
    if "clifford_relations" in doc:
        lines.append("clifford relations:")
        for rel in doc["clifford_relations"]:
            lines.append(f"  {rel}")
    lines.append("l products:")
    rows = doc["l_products"]
    lines += rows.lines(
        tuple(str(i + 1) for i in range(rows.n)),
        ("  l(", ") = ", "  l(-) = "),
        lambda value, number: value if number is None else f"{value}   numeric {number}",
    )
    if "chain_map" in doc:
        cm = doc["chain_map"]
        lines.append(
            f"chain map: {cm['monomials_checked']} monomials checked, "
            f"all_hold={cm['all_hold']}"
        )
        lines.append(
            f"  flagged: {cm['correction_terms_above_dim']} corrections above dim, "
            f"{cm['residual_terms_above_dim']} residuals above dim, "
            f"{cm['residual_terms_square_rule']} residuals via degenerate squares"
        )
    lines.append("notes:")
    for note in doc["notes"]:
        lines.append(f"  - {note}")
    return lines


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args) -> dict:
    X = load_from_arg(args.input)
    scanned = 0
    balanced_fibers = []
    nonzero_unbalanced = 0
    k = next(k for k, v in enumerate(X.normals) if v[-1] > 0)
    partners = [l for l, v in enumerate(X.normals) if v[-1] < 0]
    # at a balanced point facet k's class sums to zero, so it holds an l with
    # v_l[-1] < 0: every point where k's area ties no such l's is unbalanced
    for head, lo, hi, base, slopes, den in _grid_lines(X, Fraction(1, args.grid)):
        scanned += hi - lo + 1
        ties = set()
        for l in partners:
            t, r = divmod(base[l] - base[k], slopes[k] - slopes[l])
            if r == 0 and lo <= t <= hi:
                ties.add(t)
        for t in sorted(ties):
            partition, (balanced, sums) = _line_balance(X, base, slopes, den, t)
            rank = _hf_rank(X.n, _alpha(partition, sums))
            if balanced:
                u = [str(Fraction(j, args.grid)) for j in (*head, t)]
                balanced_fibers.append({"u": u, "hf_rank": rank})
            elif rank != 0:
                nonzero_unbalanced += 1
    return {
        "polytope": {"name": X.name, "dim": X.n},
        "grid": args.grid,
        "points_scanned": scanned,
        "balanced_fibers": balanced_fibers,
        "unbalanced_points_with_nonzero_rank": nonzero_unbalanced,
    }


def _scan_text(doc: dict) -> list[str]:
    poly = doc["polytope"]
    return [
        f"polytope {poly['name']} (dim {poly['dim']}), grid step 1/{doc['grid']}",
        f"points scanned: {doc['points_scanned']}",
        f"balanced fibers: {len(doc['balanced_fibers'])}",
        *(f"  ({', '.join(b['u'])})  hf_rank {b['hf_rank']}" for b in doc["balanced_fibers"]),
        f"unbalanced points with nonzero rank: {doc['unbalanced_points_with_nonzero_rank']}",
    ]


# ---------------------------------------------------------------------------
# wiring


def _json_text(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), byte for byte.

    With indent set, json.dumps falls back to its pure-Python encoder; this
    writer does the same walk with less dispatch, escaping through the C
    function json.dumps uses.  It takes only what the commands emit: dicts
    with str keys, lists, str, int, bool and None, and one leaf that is not
    plain data, analyze's _LProducts, written as the list of row dicts it
    stands for.  Anything else, a float or a tuple included, raises
    TypeError rather than print differently.
    """
    out: list[str] = []
    _write_json(doc, "\n", out)
    return "".join(out)


def _write_json(x, newline: str, out: list[str]) -> None:
    # dicts and lists first: the branches below write their str and int
    # leaves inline, so nearly every call is for a container
    if type(x) is dict:
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(x.items()):
            # the escape function raises TypeError on a key that is not a str
            out += (sep, _escape_json(key), ": ")
            # the commonest leaves, str and int, are written without a call
            if type(value) is str:
                out.append(_escape_json(value))
            elif type(value) is int:
                out.append(int.__repr__(value))
            else:
                _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif type(x) is list:
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in x:
            if type(item) is str:
                out += (sep, _escape_json(item))
            elif type(item) is int:
                out += (sep, int.__repr__(item))
            else:
                out.append(sep)
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(x, str):
        out.append(_escape_json(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif type(x) is _LProducts:
        _write_l_products(x, newline, out)
    else:
        raise TypeError(f"cannot write {type(x).__name__} as JSON")


def _write_l_products(rows: _LProducts, newline: str, out: list[str]) -> None:
    """The list of row dicts that rows stands for, in one join: each row's
    opening brace and indices from its layout prefix, and the rest, from
    its numeric column to its closing brace, once per sorted key."""
    row, field = newline + "  ", newline + "    "
    head = f'{{{field}"indices": '

    def tail(value: str, number: Optional[str]) -> str:
        numeric = "" if number is None else f'"numeric": {_escape_json(number)},{field}'
        return f',{field}{numeric}"value": {_escape_json(value)}{row}}}'

    pieces = tuple(f"{field}  {i + 1}" for i in range(rows.n))
    lines = rows.lines(pieces, (head + "[", field + "]", head + "[]"), tail)
    out.append(f"[{row}" + f",{row}".join(lines) + f"{newline}]")


def load_from_arg(source: str) -> ToricFano:
    from .toric import load_toric

    return load_toric(source)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricfloer",
        description=(
            "Floer cohomology of Lagrangian torus fibers in toric Fano "
            "manifolds, from moment polytope data"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--input",
            required=True,
            help="built-in name (CP1, CP2, CPn(n), CP1xCP1), JSON file path, or JSON text",
        )
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default text)",
        )

    analyze = sub.add_parser("analyze", help="analyze one fiber")
    common(analyze)
    analyze.add_argument(
        "--two-pi",
        action="store_true",
        help="display T-exponents scaled by 2*pi",
    )
    analyze.add_argument(
        "--fiber",
        help="rational fiber point like 1/3,1/3 (default: critical point of W); "
        "write a negative first coordinate as --fiber=-1/2,1/3",
    )
    analyze.add_argument("--lmax", type=int, default=3, help="largest product arity tabulated")
    analyze.add_argument("--numeric", action="store_true", help="add numeric columns")
    analyze.add_argument("--tol", type=float, default=1e-12, help="solver gradient tolerance")
    analyze.add_argument("--max-iters", type=int, default=50, help="solver iteration cap")

    scan = sub.add_parser("scan", help="scan a rational grid for balanced fibers")
    common(scan)
    scan.add_argument("--grid", type=int, required=True, help="grid density g: step 1/g")

    return parser


# _parse's parser and its command parsers, built once per process: main may
# run many times in one, and building them costs more than a small scan.
# build_parser() still hands every other caller a parser of its own.
_parser = cache(build_parser)


def _parse(argv: Optional[list[str]]) -> argparse.Namespace:
    """_parser().parse_args(argv), parsed by the command's own parser when
    argv starts with a command: the top-level parser would only hand the
    rest of argv to it, at the cost of a second parse.  Anything else (no
    argv, an unknown command, a top-level option, arguments left over)
    goes through parse_args, which prints its usage and error and exits 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    if argv:
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        sub = commands.choices.get(argv[0])
        if sub is not None:
            args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if not extras:
                return args
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(argv)
    try:
        if args.command == "analyze":
            for flag, value in (("--lmax", args.lmax), ("--max-iters", args.max_iters)):
                if value < 0:
                    raise ParseError(f"{flag} must be a nonnegative integer")
            if not 0 <= args.tol < math.inf:
                raise ParseError("--tol must be a finite nonnegative number")
            doc = cmd_analyze(args)
        else:
            if args.grid < 1:
                raise ParseError("--grid must be a positive integer")
            doc = cmd_scan(args)
    except (ParseError, InvalidPolytope) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NotInterior as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_INTERIOR
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OverflowError as exc:
        # the exact side takes any rational; the solver, the gradient
        # column, --numeric and --two-pi need each input as a float
        print(
            f"error: input is outside the float range of the numeric side: {exc}",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    try:
        if args.format == "json":
            print(_json_text(doc))
        else:
            render = _analysis_text if args.command == "analyze" else _scan_text
            print("\n".join(render(doc)))
        # flush inside the try: a reader that closed the pipe early then
        # raises here rather than at interpreter exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the recipe of the signal module's "Note on SIGPIPE": point stdout
        # at devnull so the flush at interpreter exit does not raise again,
        # and exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
