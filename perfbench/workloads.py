"""The benchmark's workloads, each a list of steps making one round.

A step is one call into the program: a CLI subcommand run in-process
through ``srgddg.cli.run`` on a seeded graph6 file, or a library-level
catalog build.  Why each workload exists is recorded in BENCHMARK.json.  A round runs every step once.  Steps marked ``items``
count towards ``items_per_s``; the step labelled ``first`` is the
``decompose --first`` call on the v=1023 Sp(10,2) complement whose
latency is ``first_s``.  Every workload runs it once per round; only
``decompose`` traces it, so the other workloads' layer shares stay their
own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from typing import Callable

from srgddg import assembly, cli, graphcore

from . import inputs, verify

@dataclass
class Step:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    items: bool = True   # counts towards items_per_s
    traced: bool = True  # recorded in the traced run


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run one srgddg subcommand in this process; (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


def fingerprint(out) -> bytes:
    """Digest of an output for re-use of its verdict, ignoring timing fields."""
    if isinstance(out, tuple):
        rc, text = out
        data = str(rc).encode() + b"\0" + verify.strip_timing(text).encode()
    else:
        data = b"\n".join(name.encode() + b" " + b" ".join(g6s) for name, g6s in out)
    return hashlib.sha256(data).digest()


def _cli_check(check):
    def run_check(out):
        rc, text = out
        rows = check(text)
        if rc != 0:
            return [(items, False, f"exit code {rc}") for items, _, _ in rows]
        return rows
    return run_check


def _first_step(files: dict[str, str], traced: bool) -> Step:
    return Step(
        "first",
        lambda: cli_call(["decompose", "--first", files["first"]]),
        _cli_check(lambda text: verify.check_decompose(text, inputs.FIRST_FILE, first=True)),
        items=False,
        traced=traced,
    )


def build_construct(plan) -> list[tuple[str, list[bytes]]]:
    """Catalog build through the library: generate each base, then per
    labelling split it once and glue it back with every sampled phi,
    encoding each result."""
    out = []
    for name, parts in plan:
        g = inputs.symplectic(name)
        built = []
        for perm, phis in parts:
            ddg, part, design = inputs.ddg_piece(inputs.relabel(g, perm))
            built += [
                graphcore.encode_graph6(assembly.attach_coclique(ddg, part, design, phi))
                for phi in phis
            ]
        out.append((name, built))
    return out


def _check_construct(plan):
    def run_check(out):
        built = dict(out)
        rows = []
        for name, parts in plan:
            count = sum(len(phis) for _, phis in parts)
            rows += verify.check_construct(built.get(name, []), name, count)
        return rows
    return run_check


def steps(workload: str, files: dict[str, str], seed: int) -> list[Step]:
    """One round of the workload, in order."""
    if workload == "decompose":
        names = inputs.DECOMPOSE_FILE
        return [
            Step("decompose", lambda: cli_call(["decompose", files["decompose"]]),
                 _cli_check(lambda text: verify.check_decompose(text, names))),
            _first_step(files, traced=True),
        ]
    if workload == "census":
        main = Step("census", lambda: cli_call(["census", files["census"]]),
                    _cli_check(lambda text: verify.check_census(text, inputs.CENSUS_FILE)))
    elif workload == "spectrum":
        main = Step("spectrum", lambda: cli_call(["spectrum", files["spectrum"]]),
                    _cli_check(lambda text: verify.check_spectrum(text, inputs.SPECTRUM_FILE)))
    elif workload == "construct":
        plan = inputs.construct_plan(seed)
        main = Step("construct", lambda: build_construct(plan), _check_construct(plan))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [main, _first_step(files, traced=False)]
