"""Where window sums and Kronecker products start to beat term-by-term
products, and run division starts to beat long division.

This script sets two constants of ``arith._product``, and checks the
choice of ``dense.lp_div_exact`` to divide every strided run by run
division. Each section times a path against the one it replaces on the
same operands (``_term_product`` for a product, ``_long_quotient`` for a
quotient), prints one row per case, the two times in microseconds (the
best of ROUNDS rounds) and which path won, and then a count of the cases
each path won.

* ``_RUN_MIN``: a factor ``c (1 + q^s + ... + q^((m-1) s))`` with more
  than ``_RUN_MIN`` terms is multiplied by window sums. The cases are runs
  of m = 2..9 terms at strides 1, 2, 3 and 6 (the alphas of ``qint(m,
  alpha)`` that the benchmark's workloads reach) against dense operands of
  4, 12, 40 and 120 random coefficients.
* ``_KRONECKER_MIN``: two factors that both have at least
  ``_KRONECKER_MIN`` nonzero terms are multiplied by Kronecker
  substitution. The cases are dense factors of m = 2..16 terms against
  dense operands of 4, 12, 40 and 120 terms, with coefficients of 1, 5 and
  40 digits, all positive or of random sign. The product takes the
  Kronecker path when both factors have at least the constant's terms, so
  the summary counts, for each m, the cases whose operand has at least m
  terms and sums their times, and names the least m from which the
  Kronecker path wins most of them, and wins in sum.
* Run division: a divisor ``c (1 + q^s + ... + q^((m-1) s))`` is divided
  by the run recurrence of ``_run_quotient``, whatever m is. The cases are
  q-integers of m = 2..40 terms at strides 1, 2 and 3, each dividing its
  product with a quotient of random coefficients, for dividends of 5, 12,
  40 and 200 terms where the divisor fits. The summary prints, for each
  m, how many cases run division won.

    PYTHONPATH=src python tools/window_switchover.py

Every case counts once here, whatever its share of the products a real
run makes, so the tables show where the switch-overs lie but do not set
the constants alone: a new value has to win end to end as well. Timings
depend on the machine and the interpreter; the tables are a guide, not a
gate.
"""

from __future__ import annotations

import random
import timeit

from whitneylah.arith import _term_product, _window_product
from whitneylah.dense import _kronecker_product, _long_quotient, _run_quotient

RUN_LENGTHS = range(2, 10)
STRIDES = (1, 2, 3, 6)
OPERAND_TERMS = (4, 12, 40, 120)
FACTOR_TERMS = range(2, 17)
DIGITS = (1, 5, 40)
DIVISOR_TERMS = range(2, 41)
DIV_STRIDES = (1, 2, 3)
DIVIDEND_TERMS = (5, 12, 40, 200)
ROUNDS = 9
CALLS = 200
SEED = 0


def _time(fn, calls: int = CALLS) -> float:
    """Best time of one call of ``fn`` over ROUNDS rounds of ``calls``
    calls, in microseconds."""
    return min(timeit.repeat(fn, repeat=ROUNDS, number=calls)) / calls * 1e6


def windows(rng: random.Random) -> None:
    wins = {}
    print(f"{'m':>2} {'s':>2} {'terms':>5} {'term_us':>9} {'window_us':>9}  faster")
    for m in RUN_LENGTHS:
        wins[m] = 0
        for s in STRIDES:
            run = tuple(1 if i % s == 0 else 0 for i in range((m - 1) * s + 1))
            for terms in OPERAND_TERMS:
                other = tuple(rng.randrange(1, 1 << 31) for _ in range(terms))
                expected = _term_product(run, other)
                if _window_product(1, m, s, other) != expected:
                    raise SystemExit(f"the two paths disagree at m={m}, s={s}")
                term = _time(lambda: _term_product(run, other))
                window = _time(lambda: _window_product(1, m, s, other))
                wins[m] += window < term
                faster = "window" if window < term else "term"
                print(f"{m:>2} {s:>2} {terms:>5} {term:>9.2f} {window:>9.2f}  {faster}")
    cases = len(STRIDES) * len(OPERAND_TERMS)
    for m, won in wins.items():
        print(f"m={m}: window won {won} of {cases}")


def dense(rng: random.Random, terms: int, digits: int, signed: bool) -> tuple:
    """``terms`` nonzero coefficients of ``digits`` decimal digits, all
    positive or each of random sign."""
    low = 10 ** (digits - 1) if digits > 1 else 1
    return tuple(
        rng.randrange(low, 10**digits) * (rng.choice((1, -1)) if signed else 1)
        for _ in range(terms)
    )


def kronecker(rng: random.Random) -> None:
    # per m: [cases won by the Kronecker path, cases, term_us, kron_us], over
    # the cases whose operand has at least m terms
    totals = {m: [0, 0, 0.0, 0.0] for m in FACTOR_TERMS}
    print(
        f"{'m':>2} {'terms':>5} {'digits':>6} {'signed':>6} "
        f"{'term_us':>9} {'kron_us':>9}  faster"
    )
    for m in FACTOR_TERMS:
        for terms in OPERAND_TERMS:
            for digits in DIGITS:
                for signed in (False, True):
                    a = dense(rng, m, digits, signed)
                    b = dense(rng, terms, digits, signed)
                    if _kronecker_product(a, b) != _term_product(a, b):
                        raise SystemExit(f"the two paths disagree at m={m}, terms={terms}")
                    term = _time(lambda: _term_product(a, b), CALLS // 4)
                    kron = _time(lambda: _kronecker_product(a, b), CALLS // 4)
                    if terms >= m:
                        t = totals[m]
                        t[0] += kron < term
                        t[1] += 1
                        t[2] += term
                        t[3] += kron
                    faster = "kron" if kron < term else "term"
                    print(
                        f"{m:>2} {terms:>5} {digits:>6} {signed:>6d} "
                        f"{term:>9.2f} {kron:>9.2f}  {faster}"
                    )
    for m, (won, cases, term, kron) in totals.items():
        print(f"m={m}: kronecker won {won} of {cases}, {kron:.0f} us against {term:.0f} us")
    for name, won in (
        ("most cases", lambda t: 2 * t[0] > t[1]),
        ("in sum", lambda t: t[3] < t[2]),
    ):
        losing = [m for m, t in totals.items() if not won(t)]
        first = max(losing, default=FACTOR_TERMS[0] - 1) + 1
        print(f"kronecker wins {name} from m={first} on")


def division(rng: random.Random) -> None:
    wins = {}
    print(f"{'m':>2} {'s':>2} {'terms':>5} {'long_us':>9} {'run_us':>9}  faster")
    for m in DIVISOR_TERMS:
        won = cases = 0
        for s in DIV_STRIDES:
            run = tuple(1 if i % s == 0 else 0 for i in range((m - 1) * s + 1))
            for terms in DIVIDEND_TERMS:
                if terms < len(run):
                    continue
                quot = dense(rng, terms - len(run) + 1, 5, True)
                a = tuple(_term_product(run, quot))
                if not _run_quotient(a, 1, m, s) == _long_quotient(a, run) == list(quot):
                    raise SystemExit(f"the two paths disagree at m={m}, s={s}")
                long = _time(lambda: _long_quotient(a, run), CALLS // 10)
                fast = _time(lambda: _run_quotient(a, 1, m, s), CALLS // 10)
                won += fast < long
                cases += 1
                faster = "run" if fast < long else "long"
                print(f"{m:>2} {s:>2} {terms:>5} {long:>9.2f} {fast:>9.2f}  {faster}")
        wins[m] = (won, cases)
    for m, (won, cases) in wins.items():
        print(f"m={m}: run won {won} of {cases}")


def main() -> None:
    rng = random.Random(SEED)
    windows(rng)
    print()
    kronecker(rng)
    print()
    division(rng)


if __name__ == "__main__":
    main()
