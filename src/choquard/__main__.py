"""`python -m choquard`: the `choquard` command without an installed script."""

import sys

from .cli import main

sys.exit(main())
