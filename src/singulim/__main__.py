"""python -m singulim: the singulim command line (see singulim.cli)."""

import sys

from .cli import main

sys.exit(main())
