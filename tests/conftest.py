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


@pytest.fixture(scope="session")
def certify_requests():
    """The requests of the benchmark's ``certify`` workload at seeds 17, 19 and 23."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import gen
    return [r for seed in (17, 19, 23) for r in gen.certify_requests(seed)]
