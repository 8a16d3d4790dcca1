"""Command-line driver: run the full pipeline for one (field, prime, mode)
configuration and emit a deterministic JSON report."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import weakref
from dataclasses import dataclass
from pathlib import Path

from .basis import classical_dimension, hilbert_consistency, span_rank
from .brandt import brandt_table, cuspidal_eigenvalues, hecke_property_suite, ramanujan_ok
from .errors import BadPrime, InvalidConfig, QuathetaError
from .fields import AlgebraicInteger, PrimeIdeal, field, primes_above
from .orders import default_aux_prime, ideal_classes, level_one_order, mass_formula, standard_order
from .quadmod import gram_and_level, hom_modules
from .quaternions import construct, verify_ramification
from .theta import theta_matrix

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    d: int
    p: int
    mode: str = "level_p"
    bound: int = 20
    aux_prime: int | None = None
    hecke_primes: tuple[int, ...] = ()
    workers: int = 1  # read by nothing: perfbench/worker.py still passes workers=job.workers
    use_cache: bool = True  # read by nothing: perfbench/worker.py still passes use_cache=False

    def validate(self) -> None:
        if self.mode not in ("level_p", "level_one"):
            raise InvalidConfig(f"unknown mode {self.mode}")
        # B(1) is read off the theta coefficient at the unit index, whose trace is the field degree
        degree = field(self.d).degree
        if self.bound < degree:
            raise InvalidConfig(f"bound must be at least {degree}, the trace of the unit index")


def _coords(x: AlgebraicInteger) -> list[int]:
    return [x.a, x.b]


def _default_hecke(fld, p: int, bound: int) -> list[PrimeIdeal]:
    """Primes of norm at most 25, coprime to p, whose index (the generator) fits under the bound."""
    out = [
        P
        for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23)
        if p % ell
        for P in primes_above(fld, ell)
        if P.norm <= 25 and P.generator.trace() <= bound
    ]
    out.sort(key=lambda P: (P.norm, P.generator.key()))
    return out


class _Table(list):
    """A report table; a list subclass only so that `_TABLES` can hold it weakly."""

    __slots__ = ("__weakref__",)


# Reports are kept in memory by callers that run many configurations (a
# benchmark keeps every report of a run), so each distinct table is built
# once per process and shared by every live report that contains it; it is
# freed with the last such report.  Keys are the integers and strings a table
# is built from.
_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared_table(key: tuple, build) -> _Table:
    """The live table built from `key`, or a new one from `build()`."""
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _Table(build())
    return table


def _hom_table(mods, expected_level) -> _Table:
    """The report's Hom-module table: normalizer, Gram, determinant and level of each (i, j).

    Raises LevelMismatch when a level differs from `expected_level`.  Within
    the table each distinct value is one [a, b] list.  Over Q the Gram of
    (j, i) is that of (i, j) after a change of Z-basis, which keeps the
    determinant and the level, so each unordered pair is computed once; over
    Q(sqrt d) the change is over O_L and can move the determinant by a unit
    square.
    """
    H = len(mods)
    rational = mods[0][0].field.degree == 1
    dets = {}
    data = []
    for i in range(H):
        for j in range(H):
            m = mods[i][j]
            if rational and j < i:
                det, level = dets[j, i]
            else:
                det, level = dets[i, j] = gram_and_level(m, expected_level)
            gram = tuple(tuple((a, 0) for a in row) if rational else tuple(zip(row[::2], row[1::2])) for row in m.gram)
            data.append((i, j, m.normalizer.coords(), gram, det.coords(), level.coords()))

    def build() -> list[dict]:
        coords: dict[tuple[int, int], list[int]] = {}

        def shared(x: tuple[int, int]) -> list[int]:
            return coords.setdefault(x, list(x))

        return [
            {
                "i": i,
                "j": j,
                "normalizer": shared(n),
                "gram": [[shared(e) for e in row] for row in gram],
                "det": shared(det),
                "level": shared(level),
            }
            for i, j, n, gram, det, level in data
        ]

    # (i, j) follows from the position, as the table is in row-major order
    key = tuple((*n, *(c for row in gram for e in row for c in e), *det, *level) for _, _, n, gram, det, level in data)
    return _shared_table(("hom_modules", key), build)


def _theta_tables(thetas) -> _Table:
    """The report's theta tables.

    Within the tables there is one `nu` list per index, one entry dict per
    (index, count), and one coefficient list per count tuple (tables with
    theta_ij = theta_ji share it).
    """
    index = thetas[0][0].nus

    def build() -> list[dict]:
        nus = [_coords(nu) for nu in index]
        entries: dict[tuple[int, int], dict] = {}
        shared: dict[tuple[int, ...], list[dict]] = {}
        tables = []
        for row in thetas:
            for t in row:
                if t.counts not in shared:
                    shared[t.counts] = [
                        entries.setdefault((k, c), {"nu": nus[k], "count": c}) for k, c in enumerate(t.counts)
                    ]
                tables.append({"i": t.i, "j": t.j, "coefficients": shared[t.counts]})
        return tables

    # (i, j) follows from the position, as the tables are in row-major order
    key = (tuple(nu.coords() for nu in index), tuple(t.counts for row in thetas for t in row))
    return _shared_table(("theta", key), build)


def _brandt_blocks(blocks) -> list[dict]:
    """The report's Brandt blocks from (prime, norm, matrix, charpoly, cuspidal) tuples of integers and strings."""
    return [
        {
            "prime": list(prime),
            "norm": norm,
            "matrix": [list(r) for r in matrix],
            "charpoly": list(charpoly),
            "cuspidal": [
                {"minpoly": list(m), "exact": exact, "interval": iv and list(iv), "ramanujan": ok}
                for m, exact, iv, ok in cuspidal
            ],
        }
        for prime, norm, matrix, charpoly, cuspidal in blocks
    ]


def _hecke_primes(cfg: RunConfig, fld) -> tuple[list[PrimeIdeal], list[dict]]:
    """The Hecke primes to check, and the requested ones dropped with the reason.

    Raises BadPrime when a requested prime divides the level p.
    """
    if not cfg.hecke_primes:
        return _default_hecke(fld, cfg.p, cfg.bound), []
    by_generator = {}  # a prime requested twice is checked once
    for ell in cfg.hecke_primes:
        for P in primes_above(fld, ell):
            by_generator.setdefault(P.generator.coords(), P)
    hecke, dropped = [], []
    for P in by_generator.values():
        if cfg.mode == "level_p" and P.residue_char == cfg.p:
            raise BadPrime(f"Hecke prime {P!r} divides the level {cfg.p}")
        trace = P.generator.trace()
        if trace <= cfg.bound:
            hecke.append(P)
        else:
            dropped.append({"prime": _coords(P.generator), "reason": f"index trace {trace} > bound {cfg.bound}"})
    return hecke, dropped


def run(cfg: RunConfig) -> dict:
    """Full pipeline; returns the report dict (deterministic body plus timings).

    Raises InvalidConfig, before any stage runs, for an out-of-range
    option, BadPrime when a requested Hecke prime divides the level p, and
    CompositeP when one is not prime.  Requested primes whose index trace exceeds the bound are
    left out and listed in timings["hecke_dropped"].
    """
    cfg.validate()
    timings: dict[str, object] = {}
    t0 = time.monotonic()
    fld = field(cfg.d)
    alg = construct(fld, cfg.p)
    ram = verify_ramification(alg)
    timings["algebra"] = time.monotonic() - t0

    t0 = time.monotonic()
    order = standard_order(alg) if cfg.mode == "level_p" else level_one_order(alg)
    expected_level = fld.integer(cfg.p) if cfg.mode == "level_p" else fld.one
    mass = mass_formula(order)
    timings["order"] = time.monotonic() - t0

    t0 = time.monotonic()
    aux = (
        primes_above(fld, cfg.aux_prime)[0]
        if cfg.aux_prime is not None
        else default_aux_prime(fld, cfg.p)
    )
    classes = ideal_classes(order, aux)
    timings["classes"] = time.monotonic() - t0
    timings["class_search"] = classes.search

    t0 = time.monotonic()
    H = classes.size
    mods = hom_modules(classes.ideals)
    levels = _hom_table(mods, expected_level)
    timings["hom_modules"] = time.monotonic() - t0

    t0 = time.monotonic()
    thetas = theta_matrix(mods, cfg.bound)
    theta_tables = _theta_tables(thetas)
    timings["theta"] = time.monotonic() - t0

    t0 = time.monotonic()
    hecke, timings["hecke_dropped"] = _hecke_primes(cfg, fld)
    table = brandt_table(classes, thetas)
    suite = hecke_property_suite(classes, table, hecke)
    blocks = []
    for P in hecke:
        M = table[P.generator.coords()]
        charpoly = M.charpoly()
        evs = cuspidal_eigenvalues(charpoly, P) if H >= 2 else []
        cuspidal = tuple(
            (
                e.minpoly,
                None if e.exact is None else str(e.exact),
                e.interval and tuple(map(str, e.interval)),
                ramanujan_ok(e, P),
            )
            for e in evs
        )
        blocks.append((P.generator.coords(), P.norm, M.entries, tuple(charpoly), cuspidal))
    brandt_blocks = _shared_table(("brandt", tuple(blocks)), lambda: _brandt_blocks(blocks))
    hecke_checks = _shared_table(
        ("hecke_checks", tuple((c["name"], c["ok"], c["detail"]) for c in suite.checks)), lambda: suite.checks
    )
    timings["brandt"] = time.monotonic() - t0

    t0 = time.monotonic()
    if fld.degree == 1:
        span = span_rank(thetas, classical_dimension(cfg.p) if cfg.mode == "level_p" else None)
        extra_checks = None
    else:
        span, extra_checks = hilbert_consistency(thetas, table, hecke)
    timings["span"] = time.monotonic() - t0

    all_ok = suite.all_ok and span.verdict in ("pass", "rank-reported")
    if extra_checks is not None:
        all_ok = all_ok and extra_checks.all_ok

    report = {
        "schema": SCHEMA_VERSION,
        "config": {
            "field": cfg.d,
            "prime": cfg.p,
            "mode": cfg.mode,
            "bound": cfg.bound,
            "aux_prime": _coords(aux.generator),
            "hecke": [_coords(P.generator) for P in hecke],
        },
        "algebra": {
            "a": _coords(alg.a),
            "b": _coords(alg.b),
            "ramified": [_coords(P.generator) for P in ram],
        },
        "order": {
            "basis_denominator": order.lattice.den,
            "basis": [[_coords(e) for e in row] for row in order.lattice.mat],
            "reduced_discriminant": _coords(order.reduced_discriminant()),
        },
        "mass": str(mass),
        "classes": {
            "count": H,
            "weights": list(classes.weights),
            "norms": [_coords(I.norm) for I in classes.ideals],
        },
        "hom_modules": levels,
        "theta": {"bound": cfg.bound, "tables": theta_tables},
        "brandt": brandt_blocks,
        "hecke_checks": hecke_checks,
        "hilbert_checks": extra_checks.checks if extra_checks is not None else None,
        "span": {
            "class_count": span.class_count,
            "bound": span.bound,
            "rank": span.rank,
            "pivot_nus": [list(c) for c in span.pivot_nus],
            "expected_dimension": span.expected_dimension,
            "stable": span.stable,
            "verdict": span.verdict,
        },
        "all_checks_pass": all_ok,
        "timings": timings,
    }
    return report


def report_body(report: dict) -> dict:
    """The deterministic part of a report (timings stripped)."""
    return {k: v for k, v in report.items() if k != "timings"}


def _parse_hecke(text: str | None) -> tuple[int, ...]:
    """The integers of the comma-separated --hecke value; raises InvalidConfig when one is not an integer."""
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InvalidConfig(f"--hecke takes comma-separated integers, got {text!r}") from None


class _ArgumentParser(argparse.ArgumentParser):
    """Raises InvalidConfig for a malformed command line, where argparse would print usage and exit 2."""

    def error(self, message: str):
        raise InvalidConfig(message)


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="quatheta",
        description="Ideal classes, theta series, Brandt matrices and span checks "
        "for definite quaternion orders over Q and real quadratic fields.",
    )
    parser.add_argument("--field", type=int, required=True, help="field index d (1 for Q)")
    parser.add_argument("--prime", type=int, required=True, help="the prime p")
    parser.add_argument("--mode", choices=["level_p", "level_one"], default="level_p")
    parser.add_argument("--bound", type=int, required=True, help="trace bound for theta coefficients")
    parser.add_argument("--aux-prime", type=int, default=None, help="auxiliary neighbor prime")
    parser.add_argument("--hecke", type=str, default=None, help="comma-separated rational primes")
    parser.add_argument("--out", type=str, default=None, help="report output path (default stdout)")

    try:
        args = parser.parse_args(argv)
        cfg = RunConfig(
            d=args.field,
            p=args.prime,
            mode=args.mode,
            bound=args.bound,
            aux_prime=args.aux_prime,
            hecke_primes=_parse_hecke(args.hecke),
        )
        out = Path(args.out) if args.out else None
        if out and (out.is_dir() or not (out.parent.is_dir() and os.access(out.parent, os.W_OK))):
            raise InvalidConfig(f"cannot write the report to {args.out}: not a file in a writable directory")
        report = run(cfg)
        text = json.dumps(report)
        if out:
            try:
                out.write_text(text)
            except OSError as exc:
                raise InvalidConfig(f"cannot write the report to {args.out}: {exc}") from None
    except QuathetaError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}, indent=2))
        return 1
    except (ValueError, ArithmeticError) as exc:
        # a failed internal invariant, not a user error; still a typed payload, never a traceback
        print(json.dumps({"error": "InternalError", "message": f"{type(exc).__name__}: {exc}"}, indent=2))
        return 1
    if not args.out:
        print(text)
    return 0 if report["all_checks_pass"] else 2


if __name__ == "__main__":
    sys.exit(main())
