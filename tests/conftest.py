"""Settings shared by every test module under tests/."""
from hypothesis import settings

# Property tests draw the same examples on every run, so a failure
# repeats until the test or Hypothesis changes.  Derandomizing also
# turns off the example database.  Per-test settings keep their own
# max_examples and deadline.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
