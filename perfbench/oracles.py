"""Correctness oracles for every operation the benchmark runs.

Nothing here imports whitneylah. Each check parses the CLI's output bytes
and compares them with values computed by closed forms or plain integer and
Fraction code, or with properties the method must have:

* q-tables: every cell is parsed from its canonical text (and must render
  back to the same text). At q = 1 it must equal the classical value, at
  q = 2 the scalar recurrence of the family evaluated over Fraction.
* ``series r3``: each rhs equals alpha^(n-k) (n!/k!) C(n-1, n-k), and each
  lhs equals its rhs.
* ``series qr1.1``: each lhs equals its rhs; the rhs at q = 1 equals
  k! a^k a^(n-k) L(n,k) and at q = 2 the product of [i a]_2 (i = 1..k)
  times the q-Whitney-Lah recurrence at q = 2.
* ``verify``: corrected mode reports no failure; ``as_printed`` fails
  exactly at the documented errata (every qr2/qr2.1 grid point and
  mansour at (n, k) = (3, 1) for each alpha).
* ``eval``: the exact decimal value.

``check(argv, out)`` returns None when the output is right, else a message.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

# eval lah at n = 1700 has more digits than CPython converts by default
sys.set_int_max_str_digits(0)

# checks run by the corrected suite at --alpha-list 1,2, by n_max, at the
# commit the benchmark was defined on; fewer means grid points went missing
MIN_VERIFY_TOTAL = {6: 3809, 8: 6768}


class OracleError(Exception):
    """An output that does not match its oracle."""


# -- canonical Laurent text --------------------------------------------------


def parse_laurent(text: str) -> dict[int, Fraction]:
    """Canonical Laurent text (``-q^-1 + 2 + 3/2*q^4``) to {exponent: coefficient}."""
    if text == "0":
        return {}
    terms: dict[int, Fraction] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        if "*" in term:
            coeff, var = term.split("*")
        elif term.startswith("q"):
            coeff, var = "1", term
        else:
            coeff, var = term, None
        if var is None:
            exp = 0
        elif var == "q":
            exp = 1
        elif var.startswith("q^"):
            exp = int(var[2:])
        else:
            raise OracleError(f"bad term {term!r} in {text[:80]!r}")
        if exp in terms:
            raise OracleError(f"repeated exponent {exp} in {text[:80]!r}")
        terms[exp] = sign * Fraction(coeff)
    if render_laurent(terms) != text:
        raise OracleError(f"not in canonical form: {text[:80]!r}")
    return terms


def render_laurent(terms: dict[int, Fraction]) -> str:
    """The canonical rendering: ascending exponents, unit coefficients elided."""
    parts = []
    for exp in sorted(terms):
        c = terms[exp]
        if c == 0:
            return "<zero coefficient>"
        if exp == 0:
            body = str(c)
        else:
            var = "q" if exp == 1 else f"q^{exp}"
            body = var if c == 1 else "-" + var if c == -1 else f"{c}*{var}"
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(" - " + body[1:])
        else:
            parts.append(" + " + body)
    return "".join(parts) or "0"


def at_q1(terms: dict[int, Fraction]) -> Fraction:
    return sum(terms.values(), Fraction(0))


def at_q2(terms: dict[int, Fraction]) -> Fraction:
    return sum((c * Fraction(2) ** e for e, c in terms.items()), Fraction(0))


# -- classical values by closed forms and plain integer code ----------------


def lah(n: int, k: int) -> int:
    if n == 0 and k == 0:
        return 1
    if k < 1 or k > n:
        return 0
    return math.factorial(n) // math.factorial(k) * math.comb(n - 1, k - 1)


def stirling2(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    total = sum((-1) ** (k - j) * math.comb(k, j) * j**n for j in range(k + 1))
    return total // math.factorial(k)


def stirling1u_rows(n_max: int, k_max: int) -> list[list[int]]:
    """Unsigned Stirling numbers of the first kind c(n, k), k <= k_max."""
    rows = [[1] + [0] * k_max]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([(prev[k - 1] if k else 0) + (n - 1) * prev[k] for k in range(k_max + 1)])
    return rows


# -- q-families at q = 2 by their scalar recurrences ---------------------------


def qnum2(m: int) -> Fraction:
    """[m]_q at q = 2 for any integer m: (2^m - 1) / (2 - 1)."""
    return Fraction(2) ** m - 1


def _rows_q2(n_max: int, left, right) -> list[list[Fraction]]:
    rows = [[Fraction(1)]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [Fraction(0)]
        rows.append([
            (left(n, k) * prev[k - 1] if k else 0) + right(n, k) * prev[k]
            for k in range(n + 1)
        ])
    return rows


def q2_rows(family: str, alpha: int, n_max: int) -> list[list[Fraction]]:
    two = Fraction(2)
    if family == "q-whitney1":
        # w1[n,k] = q^(-m) (w1[n-1,k-1] - [m]_q w1[n-1,k]), m = (n-1) alpha
        return _rows_q2(
            n_max,
            lambda n, k: two ** (-(n - 1) * alpha),
            lambda n, k: -(two ** (-(n - 1) * alpha)) * qnum2((n - 1) * alpha),
        )
    if family in ("q-whitney2", "q-dowling"):
        return _rows_q2(
            n_max,
            lambda n, k: two ** ((k - 1) * alpha),
            lambda n, k: qnum2(k * alpha),
        )
    if family in ("q-whitney-lah", "q-lah"):
        return _rows_q2(
            n_max,
            lambda n, k: two ** (alpha * (n + k - 2)),
            lambda n, k: qnum2((n - 1 + k) * alpha),
        )
    raise OracleError(f"no q = 2 recurrence for {family!r}")


def q1_value(family: str, alpha: int, n: int, k: int, c1: list[list[int]]) -> int:
    if family == "q-whitney1":
        return (-alpha) ** (n - k) * c1[n][k]
    if family == "q-whitney2":
        return alpha ** (n - k) * stirling2(n, k)
    if family == "q-whitney-lah":
        return alpha ** (n - k) * lah(n, k)
    if family == "q-lah":
        return lah(n, k)
    raise OracleError(f"no q = 1 value for {family!r}")


# -- per-command checks --------------------------------------------------------


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _lines(out: bytes) -> list[str]:
    text = out.decode()
    if not text.endswith("\n"):
        raise OracleError("output does not end with a newline")
    return text[:-1].split("\n")


def _check_table(argv, out: bytes) -> None:
    family = _flag(argv, "--family")
    alpha = int(_flag(argv, "--alpha", "1"))
    n_max = int(_flag(argv, "--n-max"))
    fmt = _flag(argv, "--format", "csv")
    sequence = family == "q-dowling"
    if fmt == "json":
        doc = json.loads(out)
        if (doc["family"], doc["alpha"], doc["n_max"]) != (family, alpha, n_max):
            raise OracleError(f"json header {doc['family']!r} {doc['alpha']} {doc['n_max']}")
        cells = doc["values"] if sequence else doc["rows"]
    else:
        lines = _lines(out)
        if sequence:
            if lines[0] != "n,value":
                raise OracleError(f"header {lines[0]!r}")
            cells = []
            for n, line in enumerate(lines[1:]):
                key, value = line.split(",", 1)
                if key != str(n):
                    raise OracleError(f"line {line[:40]!r} out of order")
                cells.append(value)
        else:
            if lines[0] != "n,k,value":
                raise OracleError(f"header {lines[0]!r}")
            cells, it = [], iter(lines[1:])
            for n in range(n_max + 1):
                row = []
                for k in range(n + 1):
                    line = next(it, "")
                    prefix = f"{n},{k},"
                    if not line.startswith(prefix):
                        raise OracleError(f"expected cell ({n},{k}), got {line[:40]!r}")
                    row.append(line[len(prefix):])
                cells.append(row)
            if next(it, None) is not None:
                raise OracleError("extra lines after the last row")
    if len(cells) != n_max + 1:
        raise OracleError(f"{len(cells)} rows for n_max {n_max}")
    rows2 = q2_rows(family, alpha, n_max)
    if sequence:
        for n, text in enumerate(cells):
            poly = parse_laurent(text)
            want1 = sum(alpha ** (n - k) * stirling2(n, k) for k in range(n + 1))
            if at_q1(poly) != want1 or at_q2(poly) != sum(rows2[n]):
                raise OracleError(f"{family} alpha={alpha} n={n}: {text[:80]!r}")
        return
    c1 = stirling1u_rows(n_max, n_max)
    for n, row in enumerate(cells):
        if len(row) != n + 1:
            raise OracleError(f"row {n} has {len(row)} cells")
        for k, text in enumerate(row):
            poly = parse_laurent(text)
            if at_q1(poly) != q1_value(family, alpha, n, k, c1):
                raise OracleError(f"{family} alpha={alpha} ({n},{k}) at q=1: {text[:80]!r}")
            if at_q2(poly) != rows2[n][k]:
                raise OracleError(f"{family} alpha={alpha} ({n},{k}) at q=2: {text[:80]!r}")


def _series_lines(out: bytes, order: int) -> list[tuple[str, str]]:
    lines = _lines(out)
    if lines[0] != "n,lhs,rhs" or lines[-1] != "match,yes" or len(lines) != order + 3:
        raise OracleError(f"series output shape: {lines[0]!r} ... {lines[-1]!r}, {len(lines)} lines")
    pairs = []
    for n, line in enumerate(lines[1:-1]):
        key, lhs, rhs = line.split(",")
        if key != str(n):
            raise OracleError(f"line {line[:40]!r} out of order")
        if lhs != rhs:
            raise OracleError(f"n={n}: lhs {lhs[:40]!r} != rhs {rhs[:40]!r}")
        pairs.append((lhs, rhs))
    return pairs


def twl_product(alpha: int, n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return alpha ** (n - k) * (math.factorial(n) // math.factorial(k)) * math.comb(n - 1, n - k)


def _check_series(argv, out: bytes) -> None:
    ident = _flag(argv, "--id")
    alpha = int(_flag(argv, "--alpha", "1"))
    k = int(_flag(argv, "--k"))
    order = int(_flag(argv, "--order"))
    pairs = _series_lines(out, order)
    if ident == "r3":
        for n, (_, rhs) in enumerate(pairs):
            if rhs != str(twl_product(alpha, n, k)):
                raise OracleError(f"r3 alpha={alpha} k={k} n={n}: rhs {rhs[:40]!r}")
        return
    scale1 = math.factorial(k) * alpha**k
    scale2 = math.prod(qnum2(i * alpha) for i in range(1, k + 1))
    rows2 = q2_rows("q-whitney-lah", alpha, order)
    for n, (_, rhs) in enumerate(pairs):
        poly = parse_laurent(rhs)
        want2 = scale2 * rows2[n][k] if k <= n else 0
        if at_q1(poly) != scale1 * alpha ** max(n - k, 0) * lah(n, k) or at_q2(poly) != want2:
            raise OracleError(f"qr1.1 alpha={alpha} k={k} n={n}: rhs {rhs[:60]!r}")


def _errata(alphas: list[int], n_max: int) -> list[tuple[str, dict]]:
    """Failures the as_printed suite must report, and no others."""
    cap = min(8, n_max)
    grid = [(k, n) for k in range(1, 7) for n in range(k - 1, cap + 1)]
    out = [("mansour", {"alpha": a, "k": 1, "mode": "as_printed", "n": 3, "rel": "explicit"})
           for a in alphas if a in (1, 2, 3)]
    out += [("qr2", {"alpha": a, "k": k, "mode": "as_printed", "n": n})
            for a in alphas if a in (1, 2) for k, n in grid]
    out += [("qr2.1", {"k": k, "mode": "as_printed", "n": n}) for k, n in grid]
    return out


def _check_verify(argv, out: bytes) -> None:
    alphas = [int(a) for a in _flag(argv, "--alpha-list").split(",")]
    n_max = int(_flag(argv, "--n-max"))
    mode = _flag(argv, "--mode", "corrected")
    doc = json.loads(out)
    want_config = {"alpha_list": alphas, "mode": mode, "n_max": n_max, "suite": "all"}
    if doc["config"] != want_config:
        raise OracleError(f"config {doc['config']!r}")
    failed = doc["failed"]
    if doc["passed"] + len(failed) != doc["total"]:
        raise OracleError(f"total {doc['total']} != passed {doc['passed']} + failed {len(failed)}")
    if mode == "corrected":
        if failed:
            raise OracleError(f"{len(failed)} failures, first {failed[0]['id']} {failed[0]['params']}")
        least = MIN_VERIFY_TOTAL.get(n_max, 0) if sorted(alphas) == [1, 2] else 0
        if doc["total"] < least:
            raise OracleError(f"only {doc['total']} checks, expected at least {least}")
        return
    got = sorted(json.dumps([f["id"], f["params"]], sort_keys=True) for f in failed)
    want = sorted(json.dumps(item, sort_keys=True) for item in _errata(alphas, n_max))
    if got != want:
        extra, missing = sorted(set(got) - set(want))[:2], sorted(set(want) - set(got))[:2]
        raise OracleError(f"as_printed failures differ: extra {extra}, missing {missing}")
    for f in failed:
        if f["lhs"] == f["rhs"]:
            raise OracleError(f"failure {f['id']} {f['params']} shows equal sides")


def _check_eval(argv, out: bytes) -> None:
    family = _flag(argv, "--family")
    alpha = int(_flag(argv, "--alpha", "1"))
    n, k = int(_flag(argv, "--n")), int(_flag(argv, "--k"))
    if family == "whitney1":
        want = alpha ** (n - k) * stirling1u_rows(n, k)[n][k]
    elif family == "lah":
        want = lah(n, k)
    else:
        raise OracleError(f"no oracle for eval of {family!r}")
    if out != f"{want}\n".encode():
        raise OracleError(f"eval {family} ({n},{k}): got {out[:40]!r}")


_CHECKS = {"table": _check_table, "series": _check_series, "verify": _check_verify,
           "eval": _check_eval}


def check(argv, out: bytes) -> str | None:
    """None if ``out`` is the right output of the CLI call ``argv``, else why not."""
    try:
        _CHECKS[argv[0]](list(argv), out)
    except (OracleError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
