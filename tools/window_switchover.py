"""Where window sums start to beat term-by-term products.

``arith._product`` multiplies a factor ``c (1 + q^s + ... + q^((m-1) s))``
by window sums when it has more than ``arith._RUN_MIN`` terms, and term by
term otherwise. This script times both paths on the same operands, for
runs of m = 2..9 terms at strides 1, 2, 3 and 6 (the alphas of ``qint(m,
alpha)`` that the benchmark's workloads reach) against dense operands of 4,
12, 40 and 120 random coefficients. It prints one row per case, the two
times in microseconds (the best of ROUNDS rounds) and which path won, and
then per m the number of cases the window won.

    PYTHONPATH=src python tools/window_switchover.py

Every case counts once here, whatever its share of the products a real
run makes, so the table shows where the switch-over lies but does not set
``_RUN_MIN`` alone: a new value has to win end to end as well. Timings
depend on the machine and the interpreter; the table is a guide, not a
gate.
"""

from __future__ import annotations

import random
import timeit

from whitneylah.arith import _term_product, _window_product

RUN_LENGTHS = range(2, 10)
STRIDES = (1, 2, 3, 6)
OPERAND_TERMS = (4, 12, 40, 120)
ROUNDS = 9
CALLS = 200
SEED = 0


def _time(fn) -> float:
    """Best time of one call of ``fn`` over ROUNDS rounds of CALLS calls,
    in microseconds."""
    return min(timeit.repeat(fn, repeat=ROUNDS, number=CALLS)) / CALLS * 1e6


def main() -> None:
    rng = random.Random(SEED)
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


if __name__ == "__main__":
    main()
