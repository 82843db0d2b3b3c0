"""Settings and fixtures shared by every test module under tests/."""
from pathlib import Path

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so a failure
# repeats until the test or Hypothesis changes.  Derandomizing also
# turns off the example database.  Per-test settings keep their own
# max_examples and deadline.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


def _bench_gen():
    """The benchmark's request generator, ``bench/gen.py``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import gen
    return gen


@pytest.fixture(scope="session")
def certify_requests():
    """The requests of the benchmark's ``certify`` workload at seeds 17, 19 and 23."""
    gen = _bench_gen()
    return [r for seed in (17, 19, 23) for r in gen.certify_requests(seed)]


@pytest.fixture(scope="session")
def cold_requests():
    """The first 2,000 requests of the benchmark's ``query-cold`` workload at seed 19."""
    gen = _bench_gen()
    return [gen.cold_request(19, i) for i in range(2000)]
