"""Fixtures shared by the test modules."""

import pytest

from quatheta.cli import RunConfig, _default_hecke, run
from quatheta.fields import field

from test_cli import REPORT_DIGESTS


@pytest.fixture(scope="session")
def brandt_charpolys():
    """{(d, p, mode, bound): [(charpoly, prime)]}: the characteristic polynomial
    of each report Brandt block, with its Hecke prime, for every REPORT_DIGESTS
    configuration and for (Q,191,B=40), whose cuspidal part has degree 16."""
    out = {}
    for d, p, mode, bound in sorted(REPORT_DIGESTS) + [(1, 191, "level_p", 40)]:
        blocks = run(RunConfig(d=d, p=p, mode=mode, bound=bound))["brandt"]
        hecke = _default_hecke(field(d), p, bound)
        assert [b["prime"] for b in blocks] == [list(P.generator.coords()) for P in hecke]
        out[d, p, mode, bound] = [(b["charpoly"], P) for b, P in zip(blocks, hecke)]
    return out
