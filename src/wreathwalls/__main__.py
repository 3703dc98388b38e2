import gc
import sys

gc.disable()  # a CLI process drops its heap at exit: no collector passes while it works
from .cli import main  # noqa: E402
code = main()
gc.freeze()  # module teardown still collects with the collector off, but skips frozen objects
sys.exit(code)
