"""``python -m instanton_zeta``: the command-line interface of ``cli``."""

import sys

from .cli import main

sys.exit(main())
