"""Output checks for the benchmark workloads.

Every expectation here holds for any vertex labelling, so it does not
depend on the seed.  The checks use only the reports and graph6 bytes
the program returned, decoded and counted by this module's own code,
never by the package under test.

Each check returns a list of ``(items, ok, note)`` rows, one per graph
(per symplectic base for construct), so a wrong row counts its items as
failed.
"""

from __future__ import annotations

import json

# graph name -> (n, s) of its family, with s = -q^(d-1), n = q^d for Sp(2d, q)
FAMILY = {
    "sp4_3": (9, -3),
    "sp6_2": (8, -4),
    "sp4_4": (16, -4),
    "sp4_5": (25, -5),
    "sp8_2": (16, -8),
    "sp10_2": (32, -16),
    "sp6_2_phi1230": (8, -4),
}

# Witness counts of `decompose` (all Hoffman cocliques) per graph.  The
# twisted SRG(63) with phi = (1,2,3,0,4,5,6) has 79 Hoffman cocliques
# but one decomposition; the 6x6 grid has 720 and none.
DECOMPOSE_COUNTS = {"sp4_4": 85, "sp6_2": 135, "sp6_2_phi1230": 1, "grid6": 0}

CENSUS_SRG40 = 40  # witnesses per converse-construction SRG(40,27,18,18)
CENSUS_SRG63 = 9   # witnesses of the SRG(63) built with phi = (1,2,0,3,4,5,6)
CENSUS_CERTS = 3   # distinct DDG classes over the whole census catalog

# Pinned exact spectra, [eigenvalue, multiplicity] in decreasing order.
SPECTRA = {
    "sp4_3": [[27, 1], [3, 15], [-3, 24]],
    "ddg36": [[24, 1], [3, 12], [0, 3], [-3, 20]],
    "sp6_2": [[32, 1], [4, 27], [-4, 35]],
    "ddg56": [[28, 1], [4, 21], [0, 6], [-4, 28]],
}
# C60 does not split over the integers: 2cos(2 pi j / 60) is an integer
# for j in {0, 10, 15, 20, 30, 40, 45, 50} only.
CYCLE60_ROOTS = [[2, 1], [1, 2], [0, 2], [-1, 2], [-2, 1]]
CYCLE60_RESIDUAL = 52


def family(n: int, s: int) -> dict:
    """SRG, DDG and design parameters of the (n, s) family (PAPER.md)."""
    t = -s
    m = t * (n - 1) // (n + s)
    return {
        "srg": (t * (n * n - 1) // (n + s), t * n, t * (n + s), t * (n + s)),
        "ddg": (n * m, t * (n - 1), t * (n + s - 1), t * (n - 1) * (n + s) // n, m, n),
        "design": (m, t, t * (n + s) // n),
    }


def strip_timing(report: str) -> str:
    """The report without its trailing timing field, which is the only
    part allowed to differ between identical runs."""
    head, sep, _ = report.rpartition('"timing_ms"')
    return head if sep else report


def _load(report: str) -> dict | None:
    try:
        return json.loads(report)
    except ValueError:
        return None


def _witness_ok(w: dict, fam: dict) -> bool:
    ddg = w["ddg"]
    got_ddg = (ddg["V"], ddg["K"], ddg["lambda1"], ddg["lambda2"], ddg["m"], ddg["n"])
    des = w["design"]
    m, n = fam["ddg"][4], fam["ddg"][5]
    return (
        got_ddg == fam["ddg"]
        and (des["v"], des["k"], des["lambda"]) == fam["design"]
        and len(w["coclique"]) == m
        and sorted(len(cl) for cl in w["classes"]) == [n] * m
        and sorted(w["phi"]) == list(range(m))
    )


def check_decompose(report: str, names: list[str], first: bool = False) -> list:
    """Rows for `decompose` (or `decompose --first`) over the named graphs."""
    want = [1 if first else DECOMPOSE_COUNTS[n] for n in names]
    rep = _load(report)
    rows = rep and rep.get("results", {}).get("graphs")
    if not isinstance(rows, list) or len(rows) != len(names):
        return [(max(w, 1), False, f"{n}: no report row") for n, w in zip(names, want)]
    out = []
    for name, count, row in zip(names, want, rows):
        items = max(count, 1)
        if row.get("count") != count or len(row.get("decompositions", ())) != count:
            out.append((items, False, f"{name}: {row.get('count')} witnesses, expected {count}"))
            continue
        fam = family(*FAMILY[name]) if count else None
        bad = [w for w in row["decompositions"] if not _witness_ok(w, fam)]
        out.append((items, not bad, f"{name}: {len(bad)} witnesses with wrong parameters"))
    return out


def check_census(report: str, names: list[str]) -> list:
    """Rows for `census`: per-graph witness counts, then the catalog totals."""
    want = []
    for name in names:
        if name.startswith("sp4_3_phi"):
            want.append({"decompositions": CENSUS_SRG40})
        elif name == "sp6_2_phi120":
            want.append({"decompositions": CENSUS_SRG63})
        elif name == "grid6":
            want.append({"decompositions": 0})
        else:
            want.append(None)  # not strongly regular: an error row
    rep = _load(report)
    res = rep.get("results", {}) if rep else {}
    per = res.get("per_graph")
    if not isinstance(per, list) or len(per) != len(names):
        return [(len(names), False, "census: no per-graph rows")]
    out = []
    for name, w, row in zip(names, want, per):
        ok = ("error" in row and len(row) == 1) if w is None else row == w
        out.append((1, ok, f"{name}: {row}"))
    decomposable = sum(1 for w in want if w and w["decompositions"])
    totals = (res.get("graphs"), res.get("decomposable"), res.get("distinct_ddg_certificates"))
    if totals != (len(names), decomposable, CENSUS_CERTS):
        out = [(items, False, f"census totals {totals}") for items, _, _ in out]
    return out


def check_spectrum(report: str, names: list[str]) -> list:
    rep = _load(report)
    rows = rep and rep.get("results", {}).get("graphs")
    if not isinstance(rows, list) or len(rows) != len(names):
        return [(len(names), False, "spectrum: no report rows")]
    out = []
    for name, row in zip(names, rows):
        if name == "cycle60":
            ok = (
                row.get("integral") is False
                and row.get("integer_roots") == CYCLE60_ROOTS
                and row.get("residual_degree") == CYCLE60_RESIDUAL
            )
        else:
            ok = row.get("integral") is True and row.get("spectrum") == SPECTRA[name]
        out.append((1, ok, f"{name}: {row}"))
    return out


def decode_rows(g6: bytes) -> list[int]:
    """Adjacency bitset rows of a graph6 string (orders below 258048)."""
    if g6[0] == 126:
        n = (g6[1] - 63) << 12 | (g6[2] - 63) << 6 | (g6[3] - 63)
        body = g6[4:]
    else:
        n = g6[0] - 63
        body = g6[1:]
    bitstr = "".join(format(b - 63, "06b") for b in body)
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bitstr[k] == "1":
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return rows


def srg_by_pair_count(rows: list[int]) -> tuple[int, int, int, int] | None:
    """(v, k, lambda, mu) from counting common neighbours of every pair,
    or None when the graph is not strongly regular."""
    v = len(rows)
    k = rows[0].bit_count()
    lam = mu = None
    for x in range(v):
        rx = rows[x]
        if rx.bit_count() != k:
            return None
        for y in range(x + 1, v):
            c = (rx & rows[y]).bit_count()
            if rx >> y & 1:
                if lam is None:
                    lam = c
                elif c != lam:
                    return None
            elif mu is None:
                mu = c
            elif c != mu:
                return None
    return v, k, lam, mu


def check_construct(built: list[bytes], name: str, count: int) -> list:
    """Each built graph must be an SRG with its family's parameters."""
    want = family(*FAMILY[name])["srg"]
    if len(built) != count:
        return [(count, False, f"{name}: built {len(built)} graphs, expected {count}")]
    bad = sum(1 for g6 in built if srg_by_pair_count(decode_rows(g6)) != want)
    if not bad:
        return [(count, True, name)]
    return [(count - bad, True, name), (bad, False, f"{name}: {bad} graphs not SRG{want}")]
