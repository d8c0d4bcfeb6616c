import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# fixed example sequence, no wall-clock deadline (timings vary on a loaded
# machine), and no example database written to disk
settings.register_profile("wedgeflow", derandomize=True, deadline=None, database=None)
settings.load_profile("wedgeflow")

# Hypothesis still caches the constants it reads from source files while it
# collects tests; keep that cache in a directory removed at exit, out of the
# checkout
_HOME = tempfile.TemporaryDirectory(prefix="wedgeflow-hypothesis-")
set_hypothesis_home_dir(_HOME.name)
