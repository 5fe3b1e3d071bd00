import sys
from pathlib import Path

from hypothesis import settings

# test modules import the helper modules beside them (grover_statevector)
# under any pytest import mode
if str(Path(__file__).parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw from a fixed seed, like every other tier-1 test, and
# keep no example database between runs; sizes up to 2**20 bits make
# per-example wall time a poor signal, so there is no deadline.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
