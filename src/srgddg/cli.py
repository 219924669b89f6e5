"""Command-line surface: generation, classification, search, assembly,
feasibility, isomorphism, and catalog census.

Every analysis command emits a JSON report with a stable schema
(version field ``schema``); identical inputs give byte-identical
reports except for the trailing ``timing_ms`` field.  A report has the
bytes of ``json.dump(report, indent=2)`` and a newline, but is streamed
in pieces by :func:`_pieces`, which encodes strings and joins lists of
ints in C, where json's indented encoder is pure Python.  Graph-producing
commands (gen, construct, canon) write raw graph6 lines to stdout so
they can be piped into the analysis commands; pass ``-`` as a file name
to read graph6 from stdin.

Every command that reads a graph6 file reads it through
:class:`GraphFile`, one line and one graph at a time.  ``recognize``,
``spectrum``, ``coclique`` and ``decompose`` give each graph one row; a
domain error in one graph (over a size cap, not strongly regular) makes
that row ``{"error": ...}`` and the run goes on.  A search that runs out
of its node budget keeps what it found and flags its row
``budget_exhausted``.

Exit codes: 0 success, 1 domain error (reported in the JSON), 2 usage.
"""

from __future__ import annotations

import argparse
import collections
import functools
import hashlib
import io
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Iterator

from . import assembly, coclique, designs, galois, graphcore, iso, recognize, theory
from .errors import BudgetExceeded, NoHoffmanBound, SrgddgError

SCHEMA = "srgddg-report/1"


class _Usage(Exception):
    pass


class GraphFile:
    """The one graph6 reader: the graphs of a file, or of stdin for
    ``-``, decoded one line at a time as they are iterated, so the file
    is never held in memory as a whole.

    Lines end in LF, CRLF or CR; each is stripped, a leading
    ``>>graph6<<`` header is dropped and blank lines are skipped.  A bad
    line raises SrgddgError naming its 1-based line number, or with
    keep_going is noted in ``diagnostics`` and skipped.  As it reads, it
    hashes the raw bytes into ``sha256`` and each graph line followed by
    a newline into ``sha256_lines``, and keeps the line number of the
    graph it last yielded in ``lineno``.
    """

    def __init__(self, path: str, keep_going: bool = False):
        self.path, self.keep_going = path, keep_going
        self.lineno = 0
        self.diagnostics: list[str] = []
        self.sha256, self.sha256_lines = hashlib.sha256(), hashlib.sha256()

    def __iter__(self):
        # latin-1 decodes each byte to one character; newline="" splits the
        # lines as bytes.splitlines does and keeps their ends
        binary = sys.stdin.buffer if self.path == "-" else open(self.path, "rb")
        fh = io.TextIOWrapper(binary, encoding="latin-1", newline="")
        try:
            for lineno, text in enumerate(fh, start=1):
                raw = text.encode("latin-1")
                self.sha256.update(raw)
                line = raw.strip()
                if line.startswith(b">>graph6<<"):
                    line = line[10:]
                if not line:
                    continue
                self.sha256_lines.update(line + b"\n")
                try:
                    g = graphcore.decode_graph6(line)
                except SrgddgError as exc:
                    if not self.keep_going:
                        raise SrgddgError(f"line {lineno}: {exc}") from None
                    self.diagnostics.append(f"line {lineno}: {exc}")
                    continue
                self.lineno = lineno
                yield g
        finally:
            if self.path == "-":
                fh.detach()  # stdin stays open
            else:
                fh.close()


def _report(command: str, inputs: dict, results: dict, diagnostics, t0: float) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "results": results,
        "diagnostics": list(diagnostics),
        "timing_ms": round((time.monotonic() - t0) * 1000, 3),
    }


def _flat(o, pad: str) -> str | None:
    """The indent-2 JSON text of ``o`` at indentation ``pad`` when it has
    no nested container to walk: a scalar, an empty list or dict, or a
    list of plain ints (not bools), which becomes one string.  None for
    any other container."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if type(o) is int:
        return int.__repr__(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if all(type(x) is int for x in o):
            inner = pad + "  "
            return f"[\n{inner}" + f",\n{inner}".join(map(int.__repr__, o)) + f"\n{pad}]"
        return None
    if isinstance(o, dict):
        return None if o else "{}"
    return json.dumps(o)  # json's text of a float, bool or None, or its TypeError


def _pieces(o, pad: str = "") -> Iterator[str]:
    """The text of ``json.dumps(o, indent=2)`` in pieces, one for each
    member of a container, so a report is written as its text is made
    and the whole text is never held.  A dict key that is not a str
    raises TypeError, from ``encode_basestring_ascii``."""
    text = _flat(o, pad)
    if text is not None:
        yield text
        return
    inner = pad + "  "
    if isinstance(o, dict):
        opening, closing = "{", "}"
        members = ((encode_basestring_ascii(key) + ": ", value) for key, value in o.items())
    else:
        opening, closing = "[", "]"
        members = (("", value) for value in o)
    sep = f"{opening}\n{inner}"
    for head, value in members:
        text = _flat(value, inner)
        if text is None:
            yield sep + head
            yield from _pieces(value, inner)
        else:
            yield sep + head + text
        sep = f",\n{inner}"
    yield f"\n{pad}{closing}"


def _emit(report: dict) -> None:
    """Write the report with the bytes of ``json.dump(report, indent=2)``
    and a newline, streamed piece by piece."""
    sys.stdout.writelines(_pieces(report))
    sys.stdout.write("\n")


def _budget_from_env(args) -> int:
    """The search node budget: --budget-nodes, else SRGDDG_BUDGET_NODES,
    else the default; 0 in either means the next one."""
    if args.budget_nodes < 0:
        raise _Usage(f"--budget-nodes must be >= 0, got {args.budget_nodes}")
    if args.budget_nodes:
        return args.budget_nodes
    env = os.environ.get("SRGDDG_BUDGET_NODES", "").strip()
    if env and not env.isdecimal():
        raise ValueError(f"SRGDDG_BUDGET_NODES must be a non-negative integer, got {env!r}")
    return int(env or 0) or coclique.DEFAULT_NODE_BUDGET


def _budgeted(search):
    """``search()`` and the row flag of a budget hit, which keeps the
    results found before it: (results, {}) or (partial, flag)."""
    try:
        return search(), {}
    except BudgetExceeded as exc:
        return exc.partial, {"budget_exhausted": True}


def _per_graph(args, t0, row) -> int:
    """Emit the report of ``row(g)`` for each graph of ``args.file``.  A
    domain error of one graph gives it an error row; the run goes on."""
    graphs = GraphFile(args.file, args.keep_going)
    rows = []
    for g in graphs:
        try:
            rows.append(row(g))
        except SrgddgError as exc:
            rows.append({"error": str(exc)})
    inputs = {"file": args.file, "sha256": graphs.sha256.hexdigest()}
    _emit(_report(args.cmd, inputs, {"graphs": rows}, graphs.diagnostics, t0))
    return 0


# -- subcommand bodies ---------------------------------------------------


# name -> builder of the graph from the parsed gen options
GENERATORS = {
    "petersen": lambda args: graphcore.petersen(),
    "triangular": lambda args: graphcore.triangular(args.m),
    "grid": lambda args: graphcore.grid(args.rows, args.cols),
    "complete": lambda args: graphcore.complete(args.n),
    "edgeless": lambda args: graphcore.edgeless(args.n),
    "cycle": lambda args: graphcore.cycle(args.n),
    "path": lambda args: graphcore.path(args.n),
    "sp-complement": lambda args: galois.symplectic_complement(
        args.d, galois.field_by_order(args.q)),
}


def _emit_graph(args, t0, inputs: dict, g, results) -> int:
    """The graph6 line of ``g``, or under --json the report whose results
    are ``results(graph6)``."""
    line = graphcore.encode_graph6(g)
    if args.json:
        _emit(_report(args.cmd, inputs, results(line.decode()), [], t0))
    else:
        sys.stdout.buffer.write(line + b"\n")
    return 0


def _cmd_gen(args, t0):
    g = GENERATORS[args.name](args)
    return _emit_graph(args, t0, {"name": args.name}, g, lambda g6: {"order": g.order, "graph6": g6})


def _classification(g):
    out = {"order": g.order, "edges": g.num_edges()}
    k = g.regular_degree()
    out["regular"] = k is not None
    if k is not None:
        out["degree"] = k
    sp = recognize.srg_params(g)
    if sp:
        out["srg"] = {
            "v": sp.v, "k": sp.k, "lambda": sp.lam, "mu": sp.mu,
            "r": sp.r, "s": sp.s, "f": sp.f, "g": sp.g,
            "coclique_bound": str(sp.c), "primitive": sp.primitive,
        }
    else:
        out["srg"] = None
        out["srg_reason"] = sp.reason
    dz, wits = recognize._deza_and_ddg(g, sp)
    out["deza"] = {"v": dz.v, "k": dz.k, "b": dz.b, "a": dz.a} if dz else None
    if wits:
        out["ddg"] = [
            {
                "V": dp.V, "K": dp.K, "lambda1": dp.lambda1, "lambda2": dp.lambda2,
                "m": dp.m, "n": dp.n, "proper": dp.proper,
                "classes": [graphcore.set_of(cl) for cl in part.classes],
            }
            for dp, part in wits
        ]
    else:
        out["ddg"] = None
        out["ddg_reason"] = wits.reason
    return out


def _cmd_recognize(args, t0):
    return _per_graph(args, t0, _classification)


def _cmd_spectrum(args, t0):
    from . import exact

    def row(g):
        sp = exact.integral_spectrum(g)
        if sp:
            return {"integral": True, "spectrum": [list(p) for p in sp.pairs]}
        return {
            "integral": False,
            "integer_roots": [list(p) for p in sp.found],
            "residual_degree": sp.residual_degree,
        }

    return _per_graph(args, t0, row)


def _cmd_coclique(args, t0):
    if args.target < 0:
        raise _Usage(f"--target must be >= 0, got {args.target}")
    query = coclique.CocliqueQuery(mode=args.mode, node_budget=_budget_from_env(args))

    def row(g):
        size = args.target
        if not size:
            sp = recognize.srg_params(g)
            if not sp:
                return {"error": f"not strongly regular ({sp.reason}); pass --target"}
            try:
                size = sp.hoffman_size()
            except NoHoffmanBound as exc:
                return {"error": f"{exc}; pass --target"}
        found, flag = _budgeted(lambda: coclique.cocliques_of_size(g, size, query))
        return {
            "mode": args.mode,
            "count": len(found),
            **flag,
            "cocliques": [graphcore.set_of(c) for c in found],
        }

    return _per_graph(args, t0, row)


def _decomposition_json(dec: assembly.Decomposition) -> dict:
    return {
        "coclique": graphcore.set_of(dec.coclique),
        "classes": [graphcore.set_of(cl) for cl in dec.partition.classes],
        "ddg": {
            "V": dec.ddg_params.V, "K": dec.ddg_params.K,
            "lambda1": dec.ddg_params.lambda1, "lambda2": dec.ddg_params.lambda2,
            "m": dec.ddg_params.m, "n": dec.ddg_params.n,
            "graph6": graphcore.encode_graph6(dec.ddg).decode(),
        },
        "design": {
            "v": dec.design.v_pts,
            "k": dec.design.k_blk,
            "lambda": dec.design.lam,
            "blocks": [dec.design.block_points(i) for i in range(len(dec.design.blocks))],
        },
        "phi": list(dec.phi),
        "n": dec.n,
        "s": dec.s,
    }


def _cmd_decompose(args, t0):
    mode = "first" if args.first else "all"
    query = coclique.CocliqueQuery(mode=mode, node_budget=_budget_from_env(args))

    def row(g):
        decs, flag = _budgeted(lambda: assembly.decompose(g, query))
        return {
            "count": len(decs),
            **flag,
            "decompositions": [_decomposition_json(d) for d in decs],
        }

    return _per_graph(args, t0, row)


def _read_int_lists(path: str, key: str) -> tuple[list[list[int]], dict]:
    """The list of lists of vertex numbers under ``key`` in a JSON object
    file, and the object itself; ValueError names what is malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (RecursionError, ValueError) as exc:
            raise ValueError(f"{path}: not readable as JSON: {exc}") from None
    lists = data.get(key) if isinstance(data, dict) else None
    if not isinstance(lists, list) or not all(
        isinstance(x, list) and all(type(i) is int and i >= 0 for i in x) for x in lists
    ):
        raise ValueError(
            f"{path}: expected a JSON object whose {key!r} is a list of lists "
            "of non-negative integers"
        )
    return lists, data


def _check_below(path: str, lists: list[list[int]], bound: int, what: str) -> None:
    """Refuse a number >= bound before any bitset is built from it."""
    big = max((i for x in lists for i in x), default=-1)
    if big >= bound:
        raise ValueError(f"{path}: {what} {big} is outside 0..{bound - 1}")


def _cmd_construct(args, t0):
    graphs = list(GraphFile(args.ddg))
    if len(graphs) != 1:
        raise _Usage("construct needs exactly one graph in --ddg")
    ddg = graphs[0]
    classes, _ = _read_int_lists(args.partition, "classes")
    _check_below(args.partition, classes, ddg.order, "vertex")
    part = recognize.CanonicalPartition(tuple(graphcore.mask_of(cl) for cl in classes))
    blocks, ddata = _read_int_lists(args.design, "blocks")
    v = ddata.get("v")
    if v is not None and (type(v) is not int or v < 1):
        raise ValueError(f"{args.design}: \"v\" must be a positive integer")
    # a symmetric design has as many points as blocks
    _check_below(args.design, blocks, len(blocks) if v is None else v, "point")
    design = designs.design_from_blocks(blocks, v)
    built = assembly.attach_coclique(ddg, part, design, args.phi)
    return _emit_graph(
        args, t0, {"ddg": args.ddg, "partition": args.partition, "design": args.design}, built,
        # attach_coclique has proven these parameters on the built graph
        lambda g6: {"graph6": g6, "srg": list(theory.family_from(part.n, -design.k_blk).srg.tuple4)},
    )


def _phi(text: str) -> tuple[int, ...]:
    """An argparse type: comma-separated integers, one block index per class."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _s_value(text: str) -> int:
    """An argparse type: an integer s <= -2."""
    try:
        s = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if s > -2:
        raise argparse.ArgumentTypeError(f"need s <= -2, got {s}")
    return s


def _s_range(text: str) -> tuple[int, int]:
    """An argparse type: two integers A..B with A <= B <= -2."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    s_min, s_max = _s_value(lo), _s_value(hi)
    if s_min > s_max:
        raise argparse.ArgumentTypeError(f"need A <= B, got {text!r}")
    return s_min, s_max


def _cmd_feasible(args, t0):
    s_min, s_max = args.s_range or (args.s, args.s)
    rows = []
    for s in range(s_min, s_max + 1):
        # an s refused by the factoring cap gets one error entry, as a bad
        # graph does in _per_graph; the other values of s keep theirs
        try:
            entries = theory.enumerate_feasible(s, s, args.n_max, with_brc=args.brc)
        except SrgddgError as exc:
            rows.append({"s": s, "error": str(exc)})
            continue
        for e in entries:
            fam = e.family
            rows.append({
                "n": e.n,
                "s": e.s,
                "m": fam.m,
                "srg": list(fam.srg.tuple4),
                "ddg": list(fam.ddg.tuple6),
                "design": list(fam.design_params),
                "handshake_ok": e.handshake_ok,
                "prime_power": (
                    {"q": e.prime_power.q, "d": e.prime_power.d}
                    if e.prime_power else None
                ),
                "brc_ok": e.brc_ok,
            })
    _emit(_report(
        "feasible",
        {"s_min": s_min, "s_max": s_max, "n_max": args.n_max},
        {"families": rows},
        [], t0,
    ))
    return 0


def _cmd_iso(args, t0):
    fa, fb = GraphFile(args.a), GraphFile(args.b)
    ga, gb = list(fa), list(fb)
    if len(ga) != 1 or len(gb) != 1:
        raise _Usage("iso compares exactly one graph per file")
    ans = iso.are_isomorphic(ga[0], gb[0])
    _emit(_report(
        "iso",
        {"a": args.a, "sha256_a": fa.sha256.hexdigest(),
         "b": args.b, "sha256_b": fb.sha256.hexdigest()},
        {"isomorphic": ans}, [], t0,
    ))
    return 0


def _cmd_canon(args, t0):
    # written once the whole input is read, so a bad line or an over-cap
    # graph writes none
    graphs = GraphFile(args.file, args.keep_going)
    certs = []
    for g in graphs:
        try:
            certs.append(iso.canonical_form(g).certificate + b"\n")
        except SrgddgError as exc:
            raise SrgddgError(f"line {graphs.lineno}: {exc}") from None
    sys.stdout.buffer.write(b"".join(certs))
    return 0


def _census_one(g, budget: int):
    """Row and sorted DDG certificates of one graph.  A budget hit keeps
    the witnesses found before it and flags the row as incomplete; a
    domain error, as in :func:`_per_graph`, gives an error row and no
    certificates.  The walk keeps the witness cocliques, as ``decompose``
    finds them, but builds no witness.  Only the first witness of each
    orbit gets its DDG built and labeled: an automorphism σ of ``g`` maps
    ``g`` − C onto ``g`` − σC.  On Sp(8,2)ᶜ, whose 2,295 witnesses form
    one orbit, that is one DDG, and this function takes about 1.1 s
    against 2.4 s when every witness is built (2-core VM, Python
    3.11.7).  Below the size cap, ``g``'s own search gives the
    automorphisms, at one leaf per witness.  Above it, the guard only
    spares that search: every family graph with 512 < v <= 5000 has DDGs
    of at least 552 vertices, so a witness gives the error row of its
    DDG's size cap, and the walk stops at the first one.  The labeled
    DDGs share one ``seen`` dict of leaves."""
    mode = "all" if g.order <= iso.SIZE_CAP else "first"
    query = coclique.CocliqueQuery(mode=mode, node_budget=budget)
    seen: dict[bytes, bytes] = {}
    try:
        fam = assembly._family_gate(g)
        found, flag = [], {}
        if fam is not None:
            found, flag = _budgeted(lambda: assembly._witness_cocliques(g, fam, query))
        reps = found
        if len(found) > 1:  # mode "all", so g is under the size cap
            roots = iso._set_orbits(found, iso._automorphisms(g, len(found)))
            reps = [C for i, C in enumerate(found) if roots[i] == i]
        ddgs = (assembly._split(g, fam, C).ddg for C in reps)
        certs = sorted({iso.canonical_form(d, seen).certificate.decode() for d in ddgs})
    except SrgddgError as exc:
        return {"error": str(exc)}, []
    return {"decompositions": len(found), **flag}, certs


def _census_outcomes(one, graphs, threads: int):
    """``one(g)`` for each graph, in input order.  With threads > 1 a
    process pool works on at most 2 x threads graphs ahead of the
    consumer, so a long catalog is read only as fast as it is processed."""
    if threads <= 1:
        yield from map(one, graphs)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=threads, mp_context=spawn) as pool:
        pending: collections.deque = collections.deque()
        for g in graphs:
            pending.append(pool.submit(one, g))
            if len(pending) >= 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _cmd_census(args, t0):
    if args.threads < 1:
        raise _Usage(f"--threads must be >= 1, got {args.threads}")
    # catalogs are processed one graph at a time with bounded memory;
    # only counters and certificates accumulate
    graphs = GraphFile(args.file, args.keep_going)
    per_graph = []
    all_certs: set[str] = set()
    one = functools.partial(_census_one, budget=_budget_from_env(args))
    for row, certs in _census_outcomes(one, graphs, args.threads):
        per_graph.append(row)
        all_certs.update(certs)
    results = {
        "graphs": len(per_graph),
        "decomposable": sum(1 for row in per_graph if row.get("decompositions")),
        "distinct_ddg_certificates": len(all_certs),
        "per_graph": per_graph,
    }
    _emit(_report(
        "census", {"file": args.file, "sha256_lines": graphs.sha256_lines.hexdigest()}, results,
        graphs.diagnostics, t0,
    ))
    return 0


# -- parser ---------------------------------------------------------------

BUDGET_HELP = (
    "coclique search nodes per graph; 0 (the default) takes SRGDDG_BUDGET_NODES, "
    f"and 0 or no value there takes {coclique.DEFAULT_NODE_BUDGET:,}"
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="srgddg",
        description="strongly regular graphs <-> Hoffman coclique + divisible design graph",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="emit a generator graph as graph6")
    g.add_argument("name", choices=list(GENERATORS))
    g.add_argument("--d", type=int, default=2, help="half-rank for sp-complement")
    g.add_argument("--q", type=int, default=2, help="field order for sp-complement")
    g.add_argument("--m", type=int, default=5, help="size for triangular")
    g.add_argument("--rows", type=int, default=3)
    g.add_argument("--cols", type=int, default=3)
    g.add_argument("--n", type=int, default=5, help="order for complete/edgeless/cycle/path")
    g.add_argument("--json", action="store_true")
    g.set_defaults(fn=_cmd_gen)

    def file_command(name, fn, summary, budget=True):
        """A subcommand over the graphs of one graph6 file."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("file")
        p.add_argument("--keep-going", action="store_true")
        if budget:
            p.add_argument("--budget-nodes", type=int, default=0, help=BUDGET_HELP)
        p.set_defaults(fn=fn)
        return p

    for name, fn in (("recognize", _cmd_recognize), ("spectrum", _cmd_spectrum)):
        file_command(name, fn, f"{name} graphs from a graph6 file", budget=False)

    p = file_command("coclique", _cmd_coclique, "coclique search")
    p.add_argument("--mode", choices=["first", "all"], default="all")
    p.add_argument("--target", type=int, default=0, help="exact size (default: Hoffman bound)")

    p = file_command("decompose", _cmd_decompose, "coclique + divisible design splits")
    p.add_argument("--first", action="store_true")

    p = sub.add_parser("construct", help="build the SRG from DDG + design + phi")
    p.add_argument("--ddg", required=True, help="graph6 file with the divisible design graph")
    p.add_argument("--partition", required=True, help='JSON {"classes": [[...], ...]}')
    p.add_argument("--design", required=True, help='JSON {"v": int, "blocks": [[...], ...]}')
    p.add_argument("--phi", type=_phi, required=True,
                   help="comma-separated block index per class; write --phi=-1,0,1 for a list that starts with '-'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("feasible", help="enumerate feasible (n, s) families")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--s", type=_s_value, default=None)
    which.add_argument("--s-range", type=_s_range, default=None, help="e.g. --s-range=-12..-2")
    p.add_argument("--n-max", type=int, default=None, help="list only n <= N (default: all)")
    p.add_argument("--brc", action="store_true", help="annotate with Bruck-Ryser-Chowla (advisory)")
    p.set_defaults(fn=_cmd_feasible)

    p = sub.add_parser("iso", help="isomorphism test")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_iso)

    file_command("canon", _cmd_canon, "canonical graph6 form", budget=False)

    p = file_command("census", _cmd_census, "decompose a catalog and count distinct DDGs")
    p.add_argument("--threads", type=int, default=1)

    return ap


def run(argv: list[str]) -> int:
    """Entry point; returns the exit code instead of calling sys.exit."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    t0 = time.monotonic()
    try:
        try:
            return args.fn(args, t0)
        except BrokenPipeError:
            raise
        except _Usage as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except (SrgddgError, OSError, ValueError) as exc:
            _emit(_report(args.cmd, {}, {"error": str(exc)}, [], t0))
            return 1
    except BrokenPipeError:
        return _stdout_closed()


def _stdout_closed() -> int:
    """The reader of stdout went away (``srgddg ... | head``): send what
    is still buffered to the null device, so that the final flush at
    exit stays quiet, and fail without a traceback."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # stdout is not backed by a file descriptor
        return 1
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)
    return 1


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _stdout_closed()
    sys.exit(code)


if __name__ == "__main__":
    main()
