import os

import pytest

from zcl import trace
from zcl.synth import SyntheticWorkloadSpec, generate_synthetic_trace


@pytest.fixture(scope="session")
def zipf08_million():
    """~1e6 requests over a 100k-object universe, exponent 0.8, all cacheable."""
    spec = SyntheticWorkloadSpec(
        universe_size=100_000,
        zipf_alpha=0.8,
        clients=20,
        per_client_rate=50_000.0,
        horizon_days=1.0,
        seed=42,
    )
    return generate_synthetic_trace(spec)


@pytest.fixture(params=[
    pytest.param(1, id="in-process"),
    pytest.param(2, id="forked",
                 marks=pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")),
])
def read_mode(request, monkeypatch):
    """trace.read_ahead in-process (one usable CPU) or forked (two); gives the pids forked."""
    monkeypatch.setattr(trace, "_usable_cpus", lambda: request.param)
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids
