import gc
import sys

from .cli import main

code = main()
# The process is about to exit: move every live object out of the collector's reach, so
# shutdown skips its pass over the whole heap. atexit handlers and teardown still run.
gc.freeze()
sys.exit(code)
